import json
import math
import os
import subprocess
import sys

import pytest

import qcover.cli as cli
from qcover import ConsistencyError, HistorySpace, enumerate_inextendible
from qcover.cli import main
from qcover.pks import SAMPLE_MAX


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture()
def d3_path(tmp_path):
    v = [1 / math.sqrt(3), -1 / math.sqrt(3), 1 / math.sqrt(3)]
    entries = [[[v[i] * v[j], 0.0] for j in range(3)] for i in range(3)]
    p = tmp_path / "d3.json"
    p.write_text(json.dumps({"n": 3, "entries": entries}))
    return str(p)


@pytest.fixture()
def threeslit_path(tmp_path):
    p = tmp_path / "threeslit.json"
    p.write_text(json.dumps({"n": 3, "elements": [[1, 2], [2, 3]]}))
    return str(p)


@pytest.fixture()
def pair_cover_path(tmp_path):
    p = tmp_path / "pair.json"
    p.write_text(json.dumps({"n": 2, "elements": [[1], [2]]}))
    return str(p)


class TestEnvelope:
    def test_shape_and_config(self, capsys):
        code, env = run(capsys, "identities", "--n", "4",
                        "--samples", "5", "--seed", "3")
        assert code == 0
        assert set(env) == {"command", "config", "timestamp", "report"}
        assert env["command"] == "identities"
        assert env["config"]["n"] == 4
        assert env["config"]["seed"] == 3
        assert "out" not in env["config"]
        assert env["report"]["n"] == 4
        assert env["report"]["samples"] == 5

    def test_out_file(self, capsys, tmp_path, pair_cover_path):
        target = tmp_path / "report.json"
        code = main(["cover-check", "--antichain", pair_cover_path,
                     "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        env = json.loads(target.read_text())
        assert env["report"]["is_cover"] is True

    def test_sorted_indented_layout(self, capsys, tmp_path, threeslit_path):
        target = tmp_path / "report.json"
        assert main(["cover-check", "--antichain", threeslit_path,
                     "--out", str(target)]) == 0
        text = target.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_imports_no_process_pool(self):
        # the scan runs in one process, so no request pays for the import
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys, qcover.cli; print(sorted(m for m in sys.modules"
                " if m.startswith(('concurrent', 'multiprocessing'))))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        ).stdout
        assert out == "[]\n"


class TestSubcommands:
    def test_validate(self, capsys, d3_path):
        code, env = run(capsys, "validate", "--dmatrix", d3_path, "--k", "2")
        assert code == 0
        rep = env["report"]
        assert rep["hermitian"] is True
        assert rep["strongly_positive"] is True
        assert rep["total_measure"] == pytest.approx(1 / 3)

    def test_measure_with_antichain(self, capsys, d3_path, threeslit_path):
        code, env = run(capsys, "measure", "--dmatrix", d3_path,
                        "--antichain", threeslit_path)
        assert code == 0
        rep = env["report"]
        assert rep["mu_omega"] == pytest.approx(1 / 3)
        assert rep["singletons"] == pytest.approx([1 / 3] * 3)
        assert [e["mu"] for e in rep["events"]] == pytest.approx([0.0, 0.0])

    def test_cover_check_yes(self, capsys, pair_cover_path):
        code, env = run(capsys, "cover-check", "--antichain", pair_cover_path)
        assert code == 0
        rep = env["report"]
        assert rep["is_cover"] is True
        assert rep["coefficients"] == ["1", "1"]

    def test_cover_check_no(self, capsys, threeslit_path):
        code, env = run(capsys, "cover-check", "--antichain", threeslit_path)
        assert code == 0
        rep = env["report"]
        assert rep["is_cover"] is False
        assert rep["witness"] is not None

    def test_scan(self, capsys):
        code, env = run(capsys, "scan", "--n", "3")
        assert code == 0
        rep = env["report"]
        assert rep["total"] == 6
        assert rep["covers"] == 6
        assert rep["counterexamples"] == []

    def test_coevents(self, capsys, d3_path):
        code, env = run(capsys, "coevents", "--dmatrix", d3_path)
        assert code == 0
        rep = env["report"]
        assert rep["no_coevent"] is False
        assert rep["ppc_supports"] == [[1, 3]]
        assert rep["nontriviality"] == [1, 3]

    def test_coevents_none(self, capsys, tmp_path):
        v = [1 / math.sqrt(2), -1 / math.sqrt(2)]
        entries = [[[v[i] * v[j], 0.0] for j in range(2)] for i in range(2)]
        p = tmp_path / "d2.json"
        p.write_text(json.dumps({"n": 2, "entries": entries}))
        code, env = run(capsys, "coevents", "--dmatrix", str(p))
        assert code == 0
        assert env["report"]["no_coevent"] is True

    def test_antichain_enumerate(self, capsys):
        code, env = run(capsys, "antichain", "enumerate", "--n", "3")
        assert code == 0
        assert env["command"] == "antichain enumerate"
        assert env["report"]["count"] == 6

    @pytest.mark.parametrize("n", range(1, 6))
    def test_antichain_enumerate_matches_objects(self, capsys, n):
        _, env = run(capsys, "antichain", "enumerate", "--n", str(n))
        acs = list(enumerate_inextendible(HistorySpace(n)))
        assert env["report"] == {
            "n": n,
            "count": len(acs),
            "antichains": [ac.to_json()["elements"] for ac in acs],
        }

    def test_antichain_classify(self, capsys, tmp_path):
        p = tmp_path / "ac.json"
        p.write_text(json.dumps(
            {"n": 4, "elements": [[1, 2, 3], [1, 4], [2, 4], [3, 4]]}
        ))
        code, env = run(capsys, "antichain", "classify",
                        "--antichain", str(p))
        assert code == 0
        cert = env["report"]["certificate"]
        assert cert["kind"] == "pivot_bound"
        assert cert["pivot"] == 2
        assert len(env["report"]["decompositions"]) == 2

    def test_antichain_generate(self, capsys):
        code, env = run(capsys, "antichain", "generate", "bowtie",
                        "--n", "5")
        assert code == 0
        assert env["report"]["kind"] == "bowtie"
        assert len(env["report"]["antichain"]["elements"]) == 6

    def test_pks_rays(self, capsys):
        code, env = run(capsys, "pks", "rays")
        assert code == 0
        assert env["report"]["count"] == 33

    def test_pks_bases(self, capsys):
        code, env = run(capsys, "pks", "bases")
        assert code == 0
        assert env["report"]["basis_count"] == 16
        assert env["report"]["pair_count"] == 72

    def test_pks_search(self, capsys):
        code, env = run(capsys, "pks", "search")
        assert code == 0
        assert env["report"]["satisfiable"] is False

    def test_pks_witness(self, capsys):
        code, env = run(capsys, "pks", "witness")
        assert code == 0
        assert env["report"]["verdict"] == "antichain: yes; inextendible: no"

    def test_pks_sample(self, capsys):
        code, env = run(capsys, "pks", "sample", "--samples", "200",
                        "--seed", "5")
        assert code == 0
        assert env["report"]["all_covered"] is True
        assert env["report"]["samples"] == 200


class TestExitCodes:
    def test_bad_n(self, capsys):
        assert main(["scan", "--n", "0"]) == 2
        # the enumeration's one cap, n <= 6
        assert main(["scan", "--n", "7"]) == 2
        assert main(["antichain", "enumerate", "--n", "7"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [6.7, "6", True])
    def test_non_integer_n_in_files(self, capsys, tmp_path, n):
        # int() would read these as n = 6, 6 and 1, which the files fit
        k = 1 if n is True else 6
        family = tmp_path / "family.json"
        family.write_text(json.dumps(
            {"n": n, "elements": [list(range(1, k + 1))]}))
        functional = tmp_path / "d.json"
        functional.write_text(json.dumps({"n": n, "entries": [
            [[float(i == j), 0.0] for j in range(k)] for i in range(k)]}))
        for argv in (["cover-check", "--antichain", str(family)],
                     ["antichain", "classify", "--antichain", str(family)],
                     ["coevents", "--dmatrix", str(functional)]):
            assert main(argv) == 2, argv
            assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", [[1.0], [1.0, 0.0, 5.0]])
    def test_entry_cells_are_re_im_pairs(self, capsys, tmp_path, cell):
        # one number was an IndexError, three were read by the first two
        functional = tmp_path / "d.json"
        functional.write_text(json.dumps({"n": 1, "entries": [[cell]]}))
        for argv in (["coevents", "--dmatrix", str(functional)],
                     ["validate", "--dmatrix", str(functional)]):
            assert main(argv) == 2, argv
            assert "[re, im] pair" in capsys.readouterr().err

    def test_boolean_entries_refused(self, capsys, tmp_path):
        # JSON true and false are not the numbers 1 and 0
        functional = tmp_path / "d.json"
        functional.write_text(json.dumps({"n": 1, "entries": [[[True, False]]]}))
        for argv in (["coevents", "--dmatrix", str(functional)],
                     ["validate", "--dmatrix", str(functional)]):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and "not booleans" in err

    def test_entries_that_would_overflow(self, capsys, tmp_path):
        # at n = 2 entries may reach float max / 64, and every report on
        # them is JSON; at 1e308 the Hermitian average would overflow, and
        # validate would write NaN
        def strict(text):
            def refuse(name):
                raise ValueError(f"{name} is not JSON")
            return json.loads(text, parse_constant=refuse)

        functional = tmp_path / "d.json"
        for entry, want in ((sys.float_info.max / 64, 0), (1e308, 2)):
            functional.write_text(json.dumps(
                {"n": 2, "entries": [[[entry, 0.0]] * 2] * 2}))
            for argv in (["validate", "--k", "2"], ["measure", "--k", "2"],
                         ["coevents"], ["coevents", "--exact"]):
                code = main([*argv, "--dmatrix", str(functional)])
                out, err = capsys.readouterr()
                assert code == want, (entry, argv, err)
                if want:
                    assert out == "" and "must not exceed" in err
                else:
                    assert strict(out)["report"]

    def test_scan_workers_must_be_positive(self, capsys):
        assert main(["scan", "--n", "3", "--workers", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "workers must be positive" in err

    def test_sample_cap(self, capsys):
        # refused before anything is drawn
        assert main(["pks", "sample", "--samples", str(SAMPLE_MAX + 1)]) == 2
        assert "capped" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--dmatrix", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_generator_params(self, capsys):
        assert main(["antichain", "generate", "bowtie", "--n", "6"]) == 2
        assert main(["antichain", "generate", "level", "--n", "4"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["scan", "--n", "3", "--bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--tol-zero", "--tol-psd"])
    def test_no_tolerance_flags(self, capsys, d3_path, flag):
        # zero is decided relative to D's own scale; there is no knob
        for argv in (["identities"], ["validate", "--dmatrix", d3_path],
                     ["measure", "--dmatrix", d3_path],
                     ["coevents", "--dmatrix", d3_path]):
            assert main([*argv, flag, "1e-9"]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_counterexample_exit(self, capsys, monkeypatch):
        class FakeReport:
            counterexamples = ({"n": 3, "elements": [[1]]},)

            def to_json(self):
                return {"counterexamples": list(self.counterexamples)}

        monkeypatch.setattr(cli, "scan", lambda *a, **kw: FakeReport())
        code, env = run(capsys, "scan", "--n", "3")
        assert code == 3
        assert env["report"]["counterexamples"]

    def test_closed_stdout_ends_quietly(self):
        # the reader stops after 5 bytes of a 114 kB report, more than a
        # pipe buffers, so the writer meets the closed pipe
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcover.cli", "antichain", "enumerate",
             "--n", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(5) == b'{\n  "'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_internal_error_exit(self, capsys, monkeypatch):
        def boom(*a, **kw):
            raise ConsistencyError("invariant broken")

        monkeypatch.setattr(cli, "witness_check", boom)
        assert main(["pks", "witness"]) == 4
        assert "internal error:" in capsys.readouterr().err


class TestDeterminism:
    def test_scan_repeatable(self, capsys, strip_volatile):
        _, a = run(capsys, "scan", "--n", "4", "--workers", "1")
        _, b = run(capsys, "scan", "--n", "4", "--workers", "1")
        assert strip_volatile(a) == strip_volatile(b)

    def test_identities_repeatable(self, capsys, strip_volatile):
        _, a = run(capsys, "identities", "--n", "5", "--samples", "20",
                   "--seed", "11")
        _, b = run(capsys, "identities", "--n", "5", "--samples", "20",
                   "--seed", "11")
        assert strip_volatile(a) == strip_volatile(b)

    def test_search_repeatable(self, capsys, strip_volatile):
        _, a = run(capsys, "pks", "search")
        _, b = run(capsys, "pks", "search")
        assert strip_volatile(a) == strip_volatile(b)
