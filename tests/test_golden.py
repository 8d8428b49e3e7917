"""Golden reports: every subcommand on fixed inputs.

Reports made only of integers, strings and booleans are pinned by the
sha256 of their sorted-key JSON; reports that carry floats are pinned by
the sorted key paths and value types, since their last digits may move
with the BLAS in use.  ``timestamp`` and ``elapsed_ms`` are stripped
first.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from qcover.cli import main

from conftest import SHARED_CLI_RUNS

FAMILIES = {
    "pair": {"n": 2, "elements": [[1], [2]]},
    "threeslit": {"n": 3, "elements": [[1, 2], [2, 3]]},
    "pivot4": {"n": 4, "elements": [[1, 2, 3], [1, 4], [2, 4], [3, 4]]},
    "level2of4": {
        "n": 4,
        "elements": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
    },
    "bowtie5": {
        "n": 5,
        "elements": [[1, 2, 3], [2, 4], [3, 4], [2, 5], [3, 5], [1, 4, 5]],
    },
    # inextendible, and no certificate applies
    "bare5": {
        "n": 5,
        "elements": [[1, 2], [1, 3], [2, 4], [3, 4], [2, 3, 5], [1, 4, 5]],
    },
}

_V3 = [1 / math.sqrt(3), -1 / math.sqrt(3), 1 / math.sqrt(3)]
FUNCTIONALS = {
    # rank one from (1, -1, 1) / sqrt(3): {1, 3} is its one support
    "d3": [[_V3[i] * _V3[j] for j in range(3)] for i in range(3)],
    # two slits in total destructive interference
    "d2": [[0.5, -0.5], [-0.5, 0.5]],
    "diag4": [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)],
}


def _integer_kernel(n, masks):
    # integer basis of the vectors orthogonal to every indicator in masks
    rows = [[Fraction(m >> h & 1) for h in range(n)] for m in masks]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        den = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * den) for x in v])
    return basis


def _null_event_functional(n, seed, rank=3):
    """D = W W^T for an integer n x rank W whose columns are orthogonal to
    the indicators of one to three random events, which are then null,
    with W^T 1 != 0: the preclusion inputs of the benchmark, drawn the
    same way from a fixed seed."""
    rng = random.Random(seed)
    while True:
        count = rng.randint(1, 3)
        nulls = set()
        while len(nulls) < count:
            mask = sum(1 << h for h in range(n) if rng.random() < 0.4)
            if mask:
                nulls.add(mask)
        basis = _integer_kernel(n, sorted(nulls))
        coef = [[rng.randint(-3, 3) for _ in range(rank)] for _ in basis]
        w = [[sum(c[j] * vec[h] for c, vec in zip(coef, basis))
              for j in range(rank)] for h in range(n)]
        if any(sum(row[j] for row in w) for j in range(rank)):
            return [[float(sum(a * b for a, b in zip(w[i], w[j])))
                     for j in range(n)] for i in range(n)]


# preclusion at the benchmark's sizes, where subset_closure does the work
FUNCTIONALS["ww10"] = _null_event_functional(10, "golden:ww10:1")
FUNCTIONALS["ww12"] = _null_event_functional(12, "golden:ww12:1")

DIGESTS = {
    "scan --n 1":
        "4d49fc7d6a7b063d77fe4de0860c834d422f8efac9cb887a4ac9ce009e41152e",
    "scan --n 2":
        "4267fda6b4413d435cf191f0a1c4ac0a75f6361a592608dce99fe88f1974875a",
    "scan --n 3":
        "2961a95256065c9e17dcc6d413602ff9957aa379f3ef09a95f34d6fa5b807dad",
    "scan --n 4":
        "db793026dd221469b306452ccf0adac4c5f92c71d65ec7fd86795122b806b5c8",
    "scan --n 5":
        "04d89b4db9f53d53de14e5b8547ae24f671fc49222b0fd5ef564a79d0bb01bd8",
    "scan --n 6":
        "30fcd62522a7c0442fdd40fae839c1e307fafb9a40e57f31afa93ee14d0676a4",
    "antichain enumerate --n 1":
        "d6a951a281cc2f737fe3eb1f5ebb9d1965bcd90ed5b5d2d7f14f406bffaa9879",
    "antichain enumerate --n 2":
        "9ab5cdfe7ca0d01dbf32ad71fe86930300ceea33afad640ca20559754d81d573",
    "antichain enumerate --n 3":
        "a37e4a3796fa39946183456042e6ac3ca160303c8c97866b61927bf755eaaad1",
    "antichain enumerate --n 4":
        "ce1d8fd347cca0e3abc2d6d19d5adec2aaeec184553f0719739c2cc339c5c8c8",
    "antichain enumerate --n 5":
        "64a20254012bb609d7ad95a93d9334bb917faa6020f61c77671aa1b0b4e9bf2a",
    # pins the walk's canonical order over all 31,745 antichains
    "antichain enumerate --n 6":
        "fb18c47bef4a302e1ccd184f9792185838a3402c7718e90063c5f894154f51c3",
    "antichain classify --antichain {pair}":
        "e9df20ab0ec2542409670d3eac6d10eb38232f89b270a4079bcbd3c41ff8d6d2",
    "antichain classify --antichain {pivot4}":
        "e1b83c1a8a2d006e1f192a2e52bd9f7c2ca8370ca233e604d7f1aa7ef3d1ba98",
    "antichain classify --antichain {level2of4}":
        "b4b874abc915ed1da9a3de06c7b584f59bcb3faaed3a6e7c89f6bf45ef639d2b",
    "antichain classify --antichain {bowtie5}":
        "d48ae176b9c6003535c70bb08647a042507e07a9978b485f95752e1e6ea91536",
    "antichain classify --antichain {bare5}":
        "209434084aa6a82d37aac69dcd48b57a421120a86aa964837cf5085447aa3fb8",
    "antichain generate level --n 5 --k 2":
        "4d036b2c87316f8da236606a71d30a2cffac30f36cdc45fffcb5845c86ca2901",
    "antichain generate coatom_pair --n 5":
        "fbe8a961981c1d5983b53be692eed14fee3d65a839d12f4dcd7e21ec5263591c",
    "antichain generate bowtie --n 5":
        "2982fb768c87334ec049780a8c56cc2f311589349328e9ff8ef1e9b03a3062e9",
    "antichain generate windmill --n 7 --k 2":
        "be934722a636b518ac804bca8b88025a9af43c368e6841b1ce95f2f29bcabe11",
    "antichain generate straddle --n 6 --k 3":
        "8573fe356cfac7631f53d29aa39e576ed518fa5cc8fbae0021bab06b2a8efc8f",
    "cover-check --antichain {pair}":
        "eb60110061373c0149a8e5355f0bfa115c8647539d9081cad3c167e24fd51f92",
    "cover-check --antichain {pivot4}":
        "56e2d897b53cf00afedf366b07d8030c636ace6ded1e7329bd8ad15014ddc355",
    "cover-check --antichain {level2of4}":
        "54ee53e5e22867e55fda435a600f84d5b90e4f28324612d243e6d4b8bdae8510",
    "cover-check --antichain {bowtie5}":
        "148c5cce838dadab977bb6e0c983d0bc3d9e4a7e52911dcb0539f0c6554b5669",
    "cover-check --antichain {bare5}":
        "5cc96082e43ad67795888a6daf16fa9c9e1ca4cb83c16c0e4e4741434aaa8599",
    "coevents --dmatrix {d3} --exact":
        "8963b53eeed3c233e1602fb62edf6f147ba9032652600bfff7035f8068d8df0b",
    "coevents --dmatrix {d2} --exact":
        "7f1dcd63036d84e78d4d466029ec35027468baf1c381609cb4693072bf57517e",
    "coevents --dmatrix {diag4} --exact":
        "1554b730576b199d55ac750edd057c15a1310aaa84a8a947c7150a63e6b2ec64",
    "coevents --dmatrix {ww10}":
        "e454da575223fe81428249c29087217580c5f0f36d0dcbb1417bb1efb8699b73",
    "coevents --dmatrix {ww10} --exact":
        "e454da575223fe81428249c29087217580c5f0f36d0dcbb1417bb1efb8699b73",
    "coevents --dmatrix {ww12}":
        "8c6882794d308a4143f06e185c23053a50a4e00b812dd9475e909b801fca1103",
    "coevents --dmatrix {ww12} --exact":
        "8c6882794d308a4143f06e185c23053a50a4e00b812dd9475e909b801fca1103",
    "pks rays":
        "825860986acba7fd68849eb092f20e72442d3ad7bc262f2cac49a09897846273",
    "pks bases":
        "515b9f9e4f238e69043b8fca7d3750515793fba301a2a93d7c2f4ab315d4712e",
    "pks search":
        "cc92e486de965963f0de353508aa510608f0d85e002b477f0d5cd298b063ea74",
    "pks witness":
        "5e41041c95cd95ff788a29742b4771c8684185fa81c57ecedfad54fd5ded578a",
    "pks sample --samples 1000 --seed 5":
        "e1595706d10af55c90f35cbd62c060fddd55f125657668c8a2f0b80b54df7c35",
}

SHAPES = {
    "identities --n 4 --samples 5 --seed 3": [
        ".kernel_disagreements: int",
        ".max_identity_residual: float",
        ".max_pair_zero_dev: float",
        ".max_single_zero_dev: float",
        ".max_triple_interference: float",
        ".min_cauchy_schwarz_slack: float",
        ".min_sandwich_lower_slack: float",
        ".min_sandwich_upper_slack: float",
        ".n: int",
        ".samples: int",
        ".seed: int",
    ],
    "validate --dmatrix {d3} --k 2": [
        ".herm_residual: float",
        ".hermitian: bool",
        ".level: int",
        ".min_eigenvalue: float",
        ".min_measure: float",
        ".n: int",
        ".normalized: bool",
        ".strongly_positive: bool",
        ".total_measure: float",
        ".weakly_positive: bool",
    ],
    "measure --dmatrix {d3} --antichain {threeslit} --k 2": [
        ".events[].event[]: int",
        ".events[].mu: float",
        ".level: int",
        ".mu_omega: float",
        ".n: int",
        ".singletons[]: float",
    ],
    "cover-check --antichain {threeslit}": [
        ".coefficients: NoneType",
        ".events[][]: int",
        ".is_cover: bool",
        ".uncovered_label: NoneType",
        ".union_is_omega: bool",
        ".witness.entries[][][]: float",
        ".witness.n: int",
    ],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, fam in FAMILIES.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(fam))
    for name, rows in FUNCTIONALS.items():
        paths[name] = root / f"{name}.json"
        entries = [[[x, 0.0] for x in row] for row in rows]
        data = {"n": len(rows), "entries": entries}
        paths[name].write_text(json.dumps(data))
    return {name: str(p) for name, p in paths.items()}


def _report(capsys, strip_volatile, inputs, command):
    code = main([arg.format(**inputs) for arg in command.split()])
    out = capsys.readouterr().out
    assert code == 0
    return strip_volatile(json.loads(out)["report"])


def _digest(report) -> str:
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _shape(value, path="") -> set:
    # leaf key paths with their JSON types; list items share one path
    if isinstance(value, dict):
        return set().union(
            *(_shape(v, f"{path}.{k}") for k, v in value.items())
        ) or {f"{path}: dict"}
    if isinstance(value, list):
        return set().union(
            *(_shape(v, path + "[]") for v in value)
        ) or {f"{path}: list"}
    return {f"{path}: {type(value).__name__}"}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_integer_report_digest(capsys, strip_volatile, inputs, command, request):
    if command in SHARED_CLI_RUNS:  # the session's one CLI run of it
        run = request.getfixturevalue(SHARED_CLI_RUNS[command])
        assert run.code == 0
        report = strip_volatile(json.loads(run.out)["report"])
    else:
        report = _report(capsys, strip_volatile, inputs, command)
    assert _digest(report) == DIGESTS[command]


@pytest.mark.parametrize("command", sorted(SHAPES))
def test_float_report_shape(capsys, strip_volatile, inputs, command):
    report = _report(capsys, strip_volatile, inputs, command)
    assert sorted(_shape(report)) == SHAPES[command]
