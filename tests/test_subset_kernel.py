"""The one subset-sum kernel behind every per-event table.

``measure._subset_sums`` fills linear sums over all 2^n masks and
``measure._measure_table`` the quadratic ones, mu(A) = sum_{i,j in A} m_ij,
in the dtype of its input: float64 for ``mu_table``, int64 or Python ints
for exact preclusion.  The references here are independent of both.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from qcover import DecoherenceFunctional, mu_table, sample_spd, zero_sets
from qcover.coevent import _dyadic_integers, _zero_flags
from qcover.measure import _measure_table, _subset_sums


def list_recurrence(ints):
    """Reference: mu of every mask over Python ints, by the one-bit
    recurrence mu(A + h) = mu(A) + N_hh + sum_{j in A} (N_hj + N_jh)
    run over plain lists."""
    total = [0]
    for h, row in enumerate(ints):
        cross = [0]
        for j in range(h):
            pair = row[j] + ints[j][h]
            cross += [c + pair for c in cross]
        diag = row[h]
        total += [t + diag + c for t, c in zip(total, cross)]
    return total


def reference_zero_flags(d):
    ratios = [[x.as_integer_ratio() for x in row]
              for row in d.entries.real.tolist()]
    den = max(q for row in ratios for _, q in row)
    ints = [[p * (den // q) for p, q in row] for row in ratios]
    # the flag set of the nonempty zero-measure masks, bit m for mask m
    return sum(1 << m for m, t in enumerate(list_recurrence(ints)) if m and t == 0)


def rank_one(v, c):
    """c v v^T: mu(A) = c (sum of v over A)^2, zero where that sum is."""
    v = np.array(v, dtype=np.float64)
    return DecoherenceFunctional(c * np.outer(v, v))


def int64_limit(n):
    """The largest float c with c * 2 n^2 < 2^63, and the next float up."""
    top = float(2**63 // (2 * n * n))
    while int(top) * 2 * n * n >= 2**63:
        top = math.nextafter(top, 0.0)
    above = math.nextafter(top, math.inf)
    assert int(above) * 2 * n * n >= 2**63
    return top, above


class TestLinearSums:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_indicator_products(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal((n, 3))
        x = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(float)
        got = _subset_sums(v)
        assert got.shape == (1 << n, 3)
        assert np.allclose(got, x @ v, rtol=0, atol=1e-12)

    def test_offset_and_dtype_of_out(self):
        out = np.zeros(8, dtype=object)
        out[0] = 10**30
        got = _subset_sums(np.array([1, 2, 4], dtype=object), out)
        assert got is out
        assert list(got) == [10**30 + m for m in range(8)]


class TestExactInt64Bound:
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_flags_agree_either_side_of_the_bound(self, n):
        rng = random.Random(n)
        v = [rng.choice((-1, 0, 1)) for _ in range(n - 1)] + [1]
        below, above = int64_limit(n)
        for c, dtype in ((below, np.int64), (above, object)):
            d = rank_one(v, c)
            assert _dyadic_integers(d).dtype == dtype, (n, c)
            flags = _zero_flags(d, True)
            assert flags == reference_zero_flags(d), (n, c)
            assert flags

    def test_bound_counts_the_common_denominator(self):
        # entries 2^-k put every integer over 2^k, so a functional with
        # small entries can still need Python ints
        assert _dyadic_integers(rank_one([1, -1, 1, 1], 1.0)).dtype == np.int64
        tiny = DecoherenceFunctional(np.diag([1.0, 1.0, 1.0, 2.0**-60]))
        assert _dyadic_integers(tiny).dtype == object
        assert zero_sets(tiny, exact=True) == frozenset()

    def test_sums_that_wrap_int64_are_not_zero(self):
        # mu(Omega) = 4 * 2^62 = 2^64 wraps to 0 in int64 arithmetic
        d = DecoherenceFunctional(2.0**62 * np.ones((2, 2)))
        assert _dyadic_integers(d).dtype == object
        assert zero_sets(d, exact=True) == frozenset()
        assert _zero_flags(d, True) == reference_zero_flags(d)

    def test_random_dyadic_functionals(self):
        rng = random.Random(11)
        for n in range(2, 11):
            w = np.array([[rng.randint(-3, 3) for _ in range(2)]
                          for _ in range(n)], dtype=np.float64)
            for exp in (-50, 0, 30):
                d = DecoherenceFunctional(w @ w.T * 2.0**exp)
                assert _zero_flags(d, True) == reference_zero_flags(d), (n, exp)


class TestFloatAgainstExact:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_within_n_squared_eps(self, n):
        eps = np.finfo(np.float64).eps
        for seed in range(3):
            d = sample_spd(n, max(1, n - seed), (n, seed))
            ratios = [[x.as_integer_ratio() for x in row]
                      for row in d.entries.real.tolist()]
            den = max(q for row in ratios for _, q in row)
            ints = [[p * (den // q) for p, q in row] for row in ratios]
            exact = np.array([t / den for t in list_recurrence(ints)])
            got = mu_table(d)
            assert got[0] == 0.0
            assert np.abs(got - exact).max() <= n * n * eps * d.scale

    def test_same_code_for_every_dtype(self):
        m = np.array([[2, -1, 3], [-1, 0, 5], [3, 5, -7]])
        want = list_recurrence(m.tolist())
        for dtype in (np.float64, np.int64, object):
            got = _measure_table(m.astype(dtype))
            assert got.dtype == dtype
            assert list(got) == want


class TestNoWideTemporaries:
    def test_mu_table_at_the_cap(self):
        # a 2^n x n float table would be 8 MiB at n = 16; the recurrence
        # needs the 512 KiB result and nothing of that size besides
        d = sample_spd(16, 4, 5)
        mu_table(d)  # warm numpy's caches
        tracemalloc.start()
        try:
            table = mu_table(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (1 << 16,)
        assert peak <= 2 * table.nbytes
