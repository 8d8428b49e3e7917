"""End-to-end acceptance checks.

Each class exercises one advertised guarantee of the package at its
stated tolerance and runtime budget: the randomized identity suite, the
exact indicator-level identity, the full inextendible-antichain scan
against an independently coded oracle, the three-slit non-cover witness,
certificate/cover/annihilation consistency, the preclusion pipeline, the
33-ray coloring obstruction, the level-sum identity and inequality, and
byte-level CLI determinism.
"""

import json
import math
import time
from itertools import combinations

import pytest

import qcover.cli as cli
from qcover import (
    Antichain,
    DecoherenceFunctional,
    HistorySpace,
    certificate_class_C,
    decide,
    derived_antichain,
    enumerate_inextendible,
    generate,
    identity_suite,
    indicator_level_identity,
    is_inextendible,
    level_sum_check,
    mu,
    nontriviality,
    orthogonal_structure,
    peres_rays,
    ppc_supports,
    sample_coverage,
    sample_spd,
    scan,
    search_consistent_coloring,
    validate,
    witness_check,
    zero_sets,
)

import numpy as np


def three_slit() -> DecoherenceFunctional:
    v = np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0)
    return DecoherenceFunctional(np.outer(v, v))


def labelsets(events) -> set:
    return {frozenset(e.to_json()) for e in events}


class TestIdentitySuite:
    def test_hundred_samples_per_size(self):
        t0 = time.perf_counter()
        for n in range(3, 9):
            rep = identity_suite(n, 100, 1234)
            assert rep.max_identity_residual <= 1e-10
            assert rep.max_triple_interference <= 1e-10
            assert rep.max_pair_zero_dev <= 1e-7
            assert rep.max_single_zero_dev <= 1e-7
            assert rep.min_cauchy_schwarz_slack >= -1e-9
            assert rep.min_sandwich_lower_slack >= -1e-9
            assert rep.min_sandwich_upper_slack >= -1e-9
            assert rep.kernel_disagreements == 0
        assert time.perf_counter() - t0 <= 30.0


class TestIndicatorLevelIdentity:
    def test_exact_for_all_sizes(self):
        t0 = time.perf_counter()
        for n in range(3, 25):
            assert indicator_level_identity(n)
        assert time.perf_counter() - t0 <= 5.0


def brute_force_inextendible_families(n: int) -> set:
    """Independent oracle: test every subset of the nonempty events.

    Deliberately avoids the package's enumeration machinery; only raw
    mask arithmetic is used.
    """
    masks = list(range(1, 1 << n))
    m = len(masks)
    comparable = [0] * m
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            a, b = masks[i], masks[j]
            if a & b == a or a & b == b:
                comparable[i] |= 1 << j
    families = set()
    for s in range(1, 1 << m):
        rest = s
        ok = True
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if comparable[i] & s:
                ok = False
                break
        if not ok:
            continue
        inext = True
        for j in range(m):
            if s >> j & 1:
                continue
            if comparable[j] & s == 0:
                inext = False
                break
        if inext:
            families.add(frozenset(
                masks[i] for i in range(m) if s >> i & 1
            ))
    return families


class TestConjectureScan:
    def test_small_sizes_all_covers(self):
        t0 = time.perf_counter()
        totals = {}
        for n in (2, 3, 4):
            rep = scan(HistorySpace(n))
            assert rep.counterexamples == ()
            assert rep.covers == rep.total
            totals[n] = rep.total
        assert time.perf_counter() - t0 <= 60.0
        assert totals[3] == 6

    def test_n4_matches_independent_oracle(self):
        oracle = brute_force_inextendible_families(4)
        enumerated = {
            frozenset(e.mask for e in ac.elements)
            for ac in enumerate_inextendible(HistorySpace(4))
        }
        assert enumerated == oracle
        assert scan(HistorySpace(4)).total == len(oracle)

    def test_n5_extended_run(self):
        rep = scan(HistorySpace(5))
        assert rep.counterexamples == ()
        assert rep.total == 375
        assert rep.covers == 375


class TestNonCoverWitness:
    def test_three_slit_witness(self):
        space = HistorySpace(3)
        events = [space.event([1, 2]), space.event([2, 3])]
        verdict = decide(space, events)
        assert not verdict.is_cover
        w = verdict.witness
        assert w is not None
        vr = validate(w)
        assert vr.hermitian and vr.strongly_positive
        for e in events:
            assert abs(mu(w, e)) <= 1e-12
        assert mu(w, space.omega()) == pytest.approx(1 / 3, abs=1e-9)


def family_instances():
    """Every generated structured family with 5 <= n <= 9."""
    out = []
    for n in range(5, 10):
        space = HistorySpace(n)
        out.append(generate(space, "coatom_pair"))
        if n % 2 == 1:
            out.append(generate(space, "bowtie"))
        for m in range(2, (n - 1) // 2 + 1):
            if (n - 1) % m == 0:
                out.append(generate(space, "windmill", m=m))
        for l in range(3, n - 1):
            out.append(generate(space, "straddle", l=l))
    return out


class TestCertificateConsistency:
    def collect(self):
        acs = []
        for n in (2, 3, 4):
            acs.extend(enumerate_inextendible(HistorySpace(n)))
        acs.extend(family_instances())
        return acs

    def test_certificate_implies_cover(self):
        for ac in self.collect():
            cert = certificate_class_C(ac)
            if cert is None:
                continue
            verdict = decide(ac.space, list(ac.elements))
            assert verdict.is_cover, cert.kind

    def test_generated_families_all_certified(self):
        for ac in family_instances():
            assert certificate_class_C(ac) is not None

    def test_annihilated_samples_kill_total_measure(self):
        for tag, ac in enumerate(self.collect()):
            n = ac.space.n
            for s in range(20):
                d = sample_spd(n, n, (50, tag, s),
                               annihilate=list(ac.elements))
                assert mu(d, ac.space.omega()) <= 1e-7


class TestPreclusion:
    def test_three_slit_structure(self):
        d = three_slit()
        assert labelsets(zero_sets(d)) == {
            frozenset({1, 2}), frozenset({2, 3})
        }
        assert labelsets(ppc_supports(d).elements) == {frozenset({1, 3})}
        ps = derived_antichain(d)
        assert labelsets(ps.derived.elements) == {
            frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})
        }
        assert is_inextendible(ps.derived) == (True, None)

    def test_nontriviality_on_seeded_functionals(self):
        for i in range(200):
            n = 3 + i % 6
            d = sample_spd(n, n, (60, i), normalize=True)
            ev = nontriviality(d)
            assert ev.cardinality == n - 1
            assert mu(d, ev) > 0.0


class TestColoringObstruction:
    def test_counts_and_unsat(self):
        rays = peres_rays()
        assert len(rays) == 33
        st = orthogonal_structure(rays)
        assert len(st.bases) == 16
        t0 = time.perf_counter()
        out = search_consistent_coloring(st)
        assert time.perf_counter() - t0 <= 1.0
        assert not out.satisfiable

    def test_witness_and_coverage(self):
        st = orthogonal_structure(peres_rays())
        rep = witness_check(st)
        assert rep.bases_in_complement == 6
        assert rep.pairs_in_basis == 3
        assert rep.antichain is True
        assert rep.inextendible is False
        assert rep.verdict == "antichain: yes; inextendible: no"
        cov = sample_coverage(st, samples=100_000, seed=0)
        assert cov.all_covered
        assert cov.covered == cov.samples == 100_000


class TestLevelSums:
    def test_identity_and_inequality(self):
        count = 0
        for n in range(4, 9):
            for s in range(20):
                d = sample_spd(n, n, (70, n, s), normalize=True)
                count += 1
                for k in range(2, n):
                    rep = level_sum_check(d, k)
                    assert rep.residual <= 1e-9
                    assert rep.inequality_ok
                    assert rep.inequality_slack >= -1e-9
        assert count == 100


class TestCliDeterminism:
    def test_all_subcommands(self, capsys, tmp_path, strip_volatile):
        def run_twice(argv):
            outs = []
            for _ in range(2):
                assert cli.main(list(argv)) == 0
                outs.append(strip_volatile(json.loads(capsys.readouterr().out)))
            assert outs[0] == outs[1]

        v = [1 / math.sqrt(3), -1 / math.sqrt(3), 1 / math.sqrt(3)]
        entries = [[[v[i] * v[j], 0.0] for j in range(3)] for i in range(3)]
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps({"n": 3, "entries": entries}))
        apath = tmp_path / "ac.json"
        apath.write_text(json.dumps({"n": 3, "elements": [[1, 2], [2, 3]]}))

        run_twice(["identities", "--n", "4", "--samples", "25", "--seed", "9"])
        run_twice(["validate", "--dmatrix", str(dpath)])
        run_twice(["measure", "--dmatrix", str(dpath), "--antichain", str(apath)])
        run_twice(["cover-check", "--antichain", str(apath)])
        run_twice(["scan", "--n", "4", "--workers", "2"])
        run_twice(["coevents", "--dmatrix", str(dpath)])
        run_twice(["antichain", "enumerate", "--n", "4"])
        run_twice(["antichain", "generate", "straddle", "--n", "6", "--k", "3"])
        run_twice(["pks", "search"])
        run_twice(["pks", "sample", "--samples", "2000", "--seed", "3"])
