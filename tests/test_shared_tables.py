"""Structures built once and shared: the cached Peres structure and the
table of generator parameters."""

import json

import pytest

from qcover import orthogonal_structure, peres_rays, peres_structure
from qcover.antichain import GENERATOR_KINDS, GENERATOR_PARAMS
from qcover.cli import main


def test_peres_structure_is_one_shared_object():
    st = peres_structure()
    assert st is peres_structure()
    assert st == orthogonal_structure(peres_rays())


def test_every_parameter_belongs_to_a_kind():
    assert set(GENERATOR_PARAMS) <= set(GENERATOR_KINDS)


@pytest.mark.parametrize("argv, message", [
    (["level", "--n", "4"], "kind 'level' needs --k"),
    (["windmill", "--n", "7"], "kind 'windmill' needs --k (the block count)"),
    (["straddle", "--n", "6"], "kind 'straddle' needs --k (the band level)"),
    (["bowtie", "--n", "5", "--k", "2"], "kind 'bowtie' takes no --k"),
])
def test_generate_cli_messages(capsys, argv, message):
    assert main(["antichain", "generate", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind, k, param", [
    ("level", 2, "k"), ("windmill", 3, "m"), ("straddle", 3, "l"),
])
def test_generate_cli_maps_k_to_the_kind_parameter(capsys, kind, k, param):
    assert main(["antichain", "generate", kind, "--n", "7", "--k", str(k)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["params"] == {param: k}
