import json
import math
import tracemalloc
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from qcover import (
    ConsistencyError,
    DecoherenceFunctional,
    Event,
    HistorySpace,
    InfeasibleNormalizationError,
    ResourceLimitError,
    d_of,
    identity_suite,
    interference,
    load_functional,
    measure_level,
    mu,
    mu_table,
    sample_spd,
    save_functional,
    validate,
    verify_identity,
)
from qcover.measure import (
    TOL_ZERO,
    _disjoint_families,
    _disjoint_family_array,
    _inclusion_exclusion,
    _kernel_disagreements,
    _pair_cross_terms,
    _random_disjoint_pair,
    _subset_sums,
    _suite_plan,
)


class TestFunctionalConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DecoherenceFunctional(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DecoherenceFunctional(np.array([[np.nan, 0], [0, 1.0]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DecoherenceFunctional(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_hermitize_symmetrizes(self):
        d = DecoherenceFunctional(
            np.array([[1.0, 1.0], [0.0, 1.0]]), hermitize=True
        )
        assert np.allclose(d.entries, [[1.0, 0.5], [0.5, 1.0]])

    def test_entries_read_only(self, d2):
        with pytest.raises(ValueError):
            d2.entries[0, 0] = 9.0

    def test_json_roundtrip(self, d3, tmp_path):
        clone = DecoherenceFunctional.from_json(d3.to_json())
        assert clone == d3
        path = tmp_path / "d.json"
        save_functional(d3, str(path))
        assert load_functional(str(path)) == d3
        raw = json.loads(path.read_text())
        assert raw["n"] == 3
        assert len(raw["entries"]) == 3
        assert len(raw["entries"][0][0]) == 2

    def test_complex_hermitian_accepted(self):
        m = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        d = DecoherenceFunctional(m)
        assert d.n == 2
        clone = DecoherenceFunctional.from_json(d.to_json())
        assert clone == d


class TestMeasureValues:
    def test_two_slit(self, d2):
        space = d2.space
        assert mu(d2, space.event([1])) == pytest.approx(0.5)
        assert mu(d2, space.omega()) == pytest.approx(0.0, abs=1e-15)
        assert d_of(d2, space.event([1]), space.event([2])) == pytest.approx(-0.5)

    def test_three_slit(self, d3):
        space = d3.space
        assert mu(d3, space.event([1, 2])) == pytest.approx(0.0, abs=1e-12)
        assert mu(d3, space.event([2, 3])) == pytest.approx(0.0, abs=1e-12)
        assert mu(d3, space.event([1, 3])) == pytest.approx(4.0 / 3.0)
        assert mu(d3, space.omega()) == pytest.approx(1.0 / 3.0)

    def test_table_matches_pointwise(self, d3):
        table = mu_table(d3)
        space = d3.space
        for m in range(1 << 3):
            assert table[m] == pytest.approx(
                mu(d3, space.event_from_mask(m)), abs=1e-12
            )

    def test_empty_event_measures_zero(self, d3):
        assert mu(d3, d3.space.empty()) == 0.0


class TestInterference:
    def test_pair_term(self, d2):
        space = d2.space
        i2 = interference(d2, (space.event([1]), space.event([2])))
        assert i2 == pytest.approx(-1.0)

    def test_triple_vanishes(self):
        d = sample_spd(6, rank=4, seed=11)
        space = d.space
        parts = (space.event([1, 2]), space.event([3]), space.event([4, 6]))
        assert interference(d, parts) == pytest.approx(0.0, abs=1e-10)

    def test_validation(self, d2):
        space = d2.space
        with pytest.raises(ValueError):
            interference(d2, (space.event([1]),))
        with pytest.raises(ValueError):
            interference(d2, (space.event([1]), space.event([1, 2])))
        with pytest.raises(ValueError):
            interference(d2, (space.event([1]), space.empty()))


class TestMeasureLevel:
    def test_diagonal_is_classical(self, diag4):
        assert measure_level(diag4, 3) == 1

    def test_interfering_is_quadratic(self, d3):
        assert measure_level(d3, 2) == 2

    def test_budget(self):
        d = sample_spd(8, rank=8, seed=1)
        with pytest.raises(ResourceLimitError):
            measure_level(d, 5, budget=10)


class TestIdentity:
    def test_residual_small_on_samples(self):
        for seed in range(5):
            d = sample_spd(6, rank=3, seed=seed)
            assert verify_identity(d) <= 1e-12 * max(1.0, d.scale)

    def test_identity_suite_report(self):
        rep = identity_suite(4, 10, 7)
        data = rep.to_json()
        assert data["n"] == 4 and data["samples"] == 10
        assert rep.max_identity_residual <= 1e-12
        assert rep.max_triple_interference <= 1e-12
        assert rep.max_pair_zero_dev <= 1e-9
        assert rep.max_single_zero_dev <= 1e-9
        assert rep.min_cauchy_schwarz_slack >= -1e-12
        assert rep.min_sandwich_lower_slack >= -1e-12
        assert rep.min_sandwich_upper_slack >= -1e-12
        assert rep.kernel_disagreements == 0

    def test_identity_suite_caps(self):
        with pytest.raises(ResourceLimitError):
            identity_suite(11, 1, 0)
        with pytest.raises(ValueError):
            identity_suite(4, 0, 0)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_spd(5, rank=3, seed=9)
        b = sample_spd(5, rank=3, seed=9)
        c = sample_spd(5, rank=3, seed=10)
        assert a == b
        assert a != c

    def test_tuple_seed(self):
        a = sample_spd(5, rank=3, seed=(9, 1))
        b = sample_spd(5, rank=3, seed=(9, 2))
        assert a != b

    def test_annihilate(self):
        space = HistorySpace(6)
        targets = (space.event([1, 4]), space.event([2, 3, 5]))
        d = sample_spd(6, rank=3, seed=21, annihilate=targets)
        for t in targets:
            assert abs(mu(d, t)) <= 1e-10
        assert mu(d, space.omega()) > 1e-6

    def test_normalize(self):
        d = sample_spd(5, rank=2, seed=3, normalize=True)
        assert mu(d, d.space.omega()) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_normalization(self):
        space = HistorySpace(3)
        with pytest.raises(InfeasibleNormalizationError):
            sample_spd(3, rank=2, seed=1,
                       annihilate=tuple(space.singletons()), normalize=True)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            sample_spd(3, rank=0, seed=1)
        with pytest.raises(ValueError):
            sample_spd(3, rank=4, seed=1)

    def test_strongly_positive(self):
        for seed in range(4):
            d = sample_spd(5, rank=3, seed=seed)
            assert validate(d).strongly_positive


class TestValidate:
    def test_three_slit_report(self, d3):
        rep = validate(d3, max_level=2)
        assert rep.hermitian
        assert rep.strongly_positive
        assert rep.weakly_positive
        assert not rep.normalized
        assert rep.total_measure == pytest.approx(1.0 / 3.0)
        assert rep.level == 2
        data = rep.to_json()
        assert data["level"] == 2 and data["hermitian"] is True

    def test_indefinite_matrix(self):
        d = DecoherenceFunctional(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        rep = validate(d)
        assert rep.hermitian
        assert not rep.strongly_positive
        assert not rep.weakly_positive
        assert rep.min_measure == pytest.approx(-2.0)

    def test_normalized_with_small_entries(self):
        # entries near 1e-3 put TOL_ZERO * d.scale near 1e-12; a total
        # that is off 1 by 5e-10 (about 10 significant digits) still
        # counts as normalized, and one off by 5e-9 does not
        n = 12
        base = np.full((n, n), 1.0 / (n * n))
        for off, want in ((5e-10, True), (5e-9, False)):
            arr = base.copy()
            arr[0, 0] += off
            rep = validate(DecoherenceFunctional(arr), weak_max_n=0)
            assert rep.normalized is want

    def test_diagonal_classical(self, diag4):
        rep = validate(diag4, max_level=2)
        assert rep.strongly_positive and rep.weakly_positive
        assert rep.normalized
        assert rep.level == 1


def _integer_functional(n, seed):
    # D = W W^H with small Gaussian-integer W: every block sum is an exact
    # integer, so any summation order gives the same bits
    rng = np.random.default_rng(seed)
    w = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
    return DecoherenceFunctional(w @ w.conj().T)


class TestInclusionExclusion:
    @pytest.mark.parametrize("seed", range(3))
    def test_interference_matches_level_scan_bitwise(self, seed):
        d = _integer_functional(5, seed)
        table = mu_table(d)
        space = d.space
        for m in (2, 3, 4):
            for fam in _disjoint_families(d.n, m):
                parts = [Event(mask, space) for mask in fam]
                # the level scan sums the same terms read from mu_table
                scanned = _inclusion_exclusion(fam, table.__getitem__)
                assert interference(d, parts) == scanned

    def test_summation_order_is_pinned(self):
        # by subfamily size, then in combinations order, so that float
        # reports stay the same bits
        d = sample_spd(6, rank=4, seed=5)
        space = d.space
        for fam in _disjoint_families(6, 3):
            total = 0.0
            for r in (1, 2, 3):
                sign = 1.0 if r % 2 else -1.0
                for combo in combinations(fam, r):
                    mask = 0
                    for part in combo:
                        mask |= part
                    total += sign * mu(d, Event(mask, space))
            assert interference(d, [Event(m, space) for m in fam]) == total

    def test_level_scan_agrees_with_interference(self):
        for seed in range(3):
            d = _integer_functional(4, seed)
            space = d.space
            tol = TOL_ZERO * d.scale
            clean = [
                all(
                    abs(interference(d, [Event(m, space) for m in fam])) <= tol
                    for fam in _disjoint_families(d.n, k + 1)
                )
                for k in (1, 2)
            ]
            expected = 1 if clean[0] else (2 if clean[1] else None)
            assert measure_level(d, 2) == expected


@lru_cache(maxsize=None)
def _indicator_matrix(n):
    """The 2^n x n float matrix whose row A is the indicator of event A."""
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)


@lru_cache(maxsize=None)
def _reference_families(n, m):
    fams = np.array(list(_disjoint_families(n, m)), dtype=np.int64)
    return tuple(np.ascontiguousarray(col) for col in fams.reshape(-1, m).T)


def _reference_identity_suite(n, samples, seed):
    """The identity suite over a full 2^n x 2^n table of block sums."""
    x = _indicator_matrix(n)
    pa, pb = _reference_families(n, 2)
    punion = pa | pb
    if n >= 3:
        ta, tb, tc = _reference_families(n, 3)
        triples = (ta, tb, tc, ta | tb, ta | tc, tb | tc, ta | tb | tc)
    else:
        triples = None
    max_identity = max_triple = max_pair_zero = max_single_zero = 0.0
    min_cs = min_lower = min_upper = math.inf
    kernel_bad = 0
    for i in range(samples):
        d = sample_spd(n, n, (seed, i, 0), normalize=True)
        t = x @ d.entries @ x.T.astype(np.complex128)
        table = t.diagonal().real.copy()
        max_identity = max(max_identity, verify_identity(d))
        if triples is not None:
            ta, tb, tc, tab, tac, tbc, tabc = triples
            i3 = (table[tabc] - table[tab] - table[tac] - table[tbc]
                  + table[ta] + table[tb] + table[tc])
            max_triple = max(max_triple, float(np.abs(i3).max()))
        mu_a = np.clip(table[pa], 0.0, None)
        mu_b = np.clip(table[pb], 0.0, None)
        mu_ab = table[punion]
        cs = mu_a * mu_b - np.abs(t[pa, pb]) ** 2
        min_cs = min(min_cs, float(cs.min()))
        root_a, root_b = np.sqrt(mu_a), np.sqrt(mu_b)
        min_lower = min(min_lower, float((mu_ab - (root_a - root_b) ** 2).min()))
        min_upper = min(min_upper, float(((root_a + root_b) ** 2 - mu_ab).min()))
        # D x_A from D's columns: the exact conjugate of the row table the
        # suite passes, so the comparison checks that sharing
        kernel_bad += _kernel_disagreements(
            d, table, _subset_sums(d.entries.T))

        rng = np.random.default_rng((seed, i, 1))
        am, bm = _random_disjoint_pair(rng, n)
        space = d.space
        ev_a, ev_b = Event(am, space), Event(bm, space)
        ev_ab = Event(am | bm, space)
        d_pair = sample_spd(n, n, (seed, i, 2), annihilate=[ev_ab])
        max_pair_zero = max(max_pair_zero,
                            abs(mu(d_pair, ev_a) - mu(d_pair, ev_b)))
        kernel_bad += _kernel_disagreements(
            d_pair, mu_table(d_pair), _subset_sums(d_pair.entries.T))
        d_single = sample_spd(n, n, (seed, i, 3), annihilate=[ev_a])
        max_single_zero = max(max_single_zero,
                              abs(mu(d_single, ev_ab) - mu(d_single, ev_b)))
    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "max_identity_residual": max_identity,
        "max_triple_interference": max_triple,
        "max_pair_zero_dev": max_pair_zero,
        "max_single_zero_dev": max_single_zero,
        "min_cauchy_schwarz_slack": min_cs,
        "min_sandwich_lower_slack": min_lower,
        "min_sandwich_upper_slack": min_upper,
        "kernel_disagreements": kernel_bad,
    }


def _brute_disjoint(n, m):
    # every unordered family of m disjoint nonempty events, by assigning
    # each label to one of the m blocks or to none
    fams = set()
    for assign in product(range(m + 1), repeat=n):
        blocks = [0] * m
        for label, b in enumerate(assign):
            if b:
                blocks[b - 1] |= 1 << label
        if all(blocks):
            fams.add(frozenset(blocks))
    return fams


class TestIdentitySuitePlan:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_full_table_reference(self, n):
        for seed in range(5):
            got = identity_suite(n, 3, seed).to_json()
            ref = _reference_identity_suite(n, 3, seed)
            assert got.keys() == ref.keys()
            for key, want in ref.items():
                if isinstance(want, int):
                    assert got[key] == want, key
                else:
                    assert got[key] == pytest.approx(want, rel=0, abs=1e-14), key

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cross_terms_match_block_sums(self, n):
        plan = _suite_plan(n)
        for seed in range(3):
            d = sample_spd(n, n, (seed, n))
            cross = _pair_cross_terms(_subset_sums(d.entries), plan)
            space = d.space
            for k, (a, b) in enumerate(zip(plan.pair_a, plan.pair_b)):
                want = d_of(d, Event(int(a), space), Event(int(b), space))
                assert cross[k] == pytest.approx(want, rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pairs_and_triples_against_brute_force(self, n):
        plan = _suite_plan(n)
        pairs = [frozenset((int(a), int(b)))
                 for a, b in zip(plan.pair_a, plan.pair_b)]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == _brute_disjoint(n, 2)
        triples = []
        for ab_c, a_c, b_c in plan.triple_pairs.T:
            # C is the one member shared by the pairs (A, C) and (B, C)
            (c,) = pairs[a_c] & pairs[b_c]
            (a,) = pairs[a_c] - {c}
            (b,) = pairs[b_c] - {c}
            assert a & b == 0
            assert pairs[ab_c] == {a | b, c}
            triples.append(frozenset((a, b, c)))
        assert len(triples) == len(set(triples))
        assert set(triples) == _brute_disjoint(n, 3)

    def test_no_full_table_at_the_cap(self):
        identity_suite(10, 1, 0)  # builds the cached plan
        tracemalloc.start()
        try:
            identity_suite(10, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 2^10 x 2^10 complex table alone would take 16 MB
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("m", range(1, 5))
    def test_family_arrays_follow_the_generator(self, m):
        # the same families in the same order and orientation, so the
        # plan's pair and triple arrays and every identities report stay
        # the same bits
        for n in range(0, 10):
            want = np.array(list(_disjoint_families(n, m)), dtype=np.int64)
            got = _disjoint_family_array(n, m)
            assert got.shape == (len(want), m)
            assert np.array_equal(got, want.reshape(-1, m))

    def test_plan_at_the_cap_builds_on_masks(self):
        tracemalloc.start()
        try:
            plan = _suite_plan.__wrapped__(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in (plan.pair_a, plan.pair_b, plan.cross_lo,
                                      plan.cross_hi, plan.triple_pairs))
        # measured: 12.1 MB for a 4.4 MB plan; the tuples of the recursive
        # generator took 25 MB, and a pair x event intermediate would be
        # 28,501 x 1024 x 8 bytes, 233 MB
        assert peak < 4 * size
