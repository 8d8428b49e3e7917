import random
from fractions import Fraction

import numpy as np
import pytest

from qcover import (
    ConsistencyError,
    DecoherenceFunctional,
    HistorySpace,
    NoCoeventError,
    ResourceLimitError,
    decide,
    derived_antichain,
    is_inextendible,
    mu,
    nontriviality,
    ppc_supports,
    sample_spd,
    zero_sets,
)
from qcover.histories import (
    CLOSURE_MAX_N,
    _lanes,
    _set_bits,
    closure,
    subset_closure,
)


def labelsets(events):
    return sorted(sorted(e.labels) for e in events)


def fraction_zero_masks(d):
    """Reference: the nonempty masks whose double sum of real entries,
    read as exact fractions, vanishes."""
    re = [[Fraction(x) for x in row] for row in d.entries.real.tolist()]
    out = set()
    for m in range(1, 1 << d.n):
        idx = [i for i in range(d.n) if m >> i & 1]
        if sum(re[i][j] for i in idx for j in idx) == 0:
            out.add(m)
    return out


def integer_w(rng, n, rank=2):
    """Small integer W with rows summing to zero over one or two random
    events, so D = W W^T has zero sets, and mu(Omega) > 0."""
    while True:
        w = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]
        for _ in range(rng.randint(1, 2)):
            members = rng.sample(range(n), rng.randint(2, max(2, n - 1)))
            w[members[-1]] = [-sum(w[i][c] for i in members[:-1])
                              for c in range(rank)]
        if any(sum(row[c] for row in w) for c in range(rank)):
            return np.array(w, dtype=float)


def brute_closure(flags, direction, strict):
    size = len(flags)
    out = np.zeros(size, dtype=bool)
    for m in range(size):
        for s in range(size):
            if not flags[s] or (strict and s == m):
                continue
            inside = s & m == s if direction == "up" else s & m == m
            if inside:
                out[m] = True
                break
    return out


class TestZeroSets:
    def test_two_slit(self, d2):
        assert labelsets(zero_sets(d2)) == [[1, 2]]

    def test_three_slit(self, d3):
        assert labelsets(zero_sets(d3)) == [[1, 2], [2, 3]]

    def test_diagonal_positive(self, diag4):
        assert zero_sets(diag4) == frozenset()

    def test_exact_mode_on_dyadic_entries(self, d2):
        assert labelsets(zero_sets(d2, exact=True)) == [[1, 2]]

    def test_exact_mode_is_strict(self):
        # an off-zero value below the float tolerance still counts as
        # nonzero in exact mode
        eps = 2.0**-40
        d = DecoherenceFunctional(
            np.array([[0.5 + eps, -0.5], [-0.5, 0.5]])
        )
        assert labelsets(zero_sets(d)) == [[1, 2]]
        assert zero_sets(d, exact=True) == frozenset()

    def test_negative_measure_is_not_zero(self):
        # mu({1, 2}) = 1 + 0.5 - 2 = -0.5 lies far below zero; both modes
        # give the exact answer: no zero set and the singletons as derived
        d = DecoherenceFunctional(
            np.array([[1.0, -1.0, 0.0], [-1.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
        )
        assert fraction_zero_masks(d) == set()
        for exact in (False, True):
            assert zero_sets(d, exact=exact) == frozenset()
            derived = derived_antichain(d, exact=exact).derived
            assert labelsets(derived) == [[1], [2], [3]]

    def test_size_cap(self):
        d = sample_spd(13, rank=4, seed=0)
        with pytest.raises(ResourceLimitError):
            zero_sets(d)

    def test_exact_mode_matches_fraction_reference(self):
        # dyadic scales far below and above the float tolerance, and real
        # parts made asymmetric by 2^-45 (relative) within the zero rule
        # (TOL_ZERO * d.scale)
        rng = random.Random(2024)
        found = 0
        for n in range(3, 11):
            w = integer_w(rng, n, rank=rng.randint(1, 3))
            for scale_exp in (-60, -40, -12, 0, 17, 40):
                for asym in (False, True):
                    entries = w @ w.T * 2.0**scale_exp
                    if asym:
                        i, j = rng.sample(range(n), 2)
                        entries[i, j] += 2.0**-45 * 2.0**scale_exp
                    d = DecoherenceFunctional(entries)
                    got = {e.mask for e in zero_sets(d, exact=True)}
                    assert got == fraction_zero_masks(d), (n, scale_exp, asym)
                    found += len(got)
        assert found > 0


def numpy_closure(flags, direction, strict):
    """Reference: the OR zeta transform as one numpy pass per bit over
    strided views of a bool array, independent of the packed int."""
    n = flags.size.bit_length() - 1
    src, dst = (0, 1) if direction == "up" else (1, 0)

    def spread(into, frm):
        for i in range(n):
            shape = (-1, 2, 1 << i)
            into.reshape(shape)[:, dst, :] |= frm.reshape(shape)[:, src, :]

    out = np.array(flags, dtype=bool)
    spread(out, out)
    if not strict:
        return out
    proper = np.zeros_like(out)
    spread(proper, out)
    return proper


def pack(flags):
    """The flag set of a bool array indexed by mask: bit m for entry m."""
    bits = np.packbits(flags, bitorder="little").tobytes()
    return int.from_bytes(bits, "little")


def packed_closure(flags, direction, strict):
    """subset_closure on the flag set of ``flags``, back as a bool array;
    from n = 3 on, ``to_bytes`` raises if a bit at or above 2^n is set."""
    n = flags.size.bit_length() - 1
    got = subset_closure(pack(flags), n, direction, strict=strict)
    raw = np.frombuffer(got.to_bytes((flags.size + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=flags.size, bitorder="little").view(bool)


CASES = [(d, s) for d in ("up", "down") for s in (False, True)]


class TestSubsetClosure:
    @pytest.mark.parametrize("n", range(9, 13))
    def test_matches_numpy_reference(self, n):
        rng = np.random.default_rng(n)
        for density in (0.01, 0.3, 0.8):
            flags = rng.random(1 << n) < density
            for direction, strict in CASES:
                got = packed_closure(flags, direction, strict)
                assert np.array_equal(
                    got, numpy_closure(flags, direction, strict)
                ), (density, direction, strict)

    @pytest.mark.parametrize("n", [16, 20])
    def test_matches_numpy_reference_sparse_large(self, n):
        rng = np.random.default_rng(n)
        flags = np.zeros(1 << n, dtype=bool)
        # a few events of every size, so neither closure fills the lattice
        flags[rng.integers(0, 1 << n, size=6)] = True
        flags[[1 << (n - 1), (1 << n) - 2, 0b1011]] = True
        for direction, strict in CASES:
            got = packed_closure(flags, direction, strict)
            want = numpy_closure(flags, direction, strict)
            assert np.array_equal(got, want), (direction, strict)
            assert 0 < np.count_nonzero(got) < got.size

    def test_closure_at_cap(self):
        n = CLOSURE_MAX_N
        space = HistorySpace(n)
        full = space.full_mask
        small = [0b1011, 1 << (n - 1) | 1, 0b111 << 9]
        large = [full ^ m for m in small]
        down = {e.mask for e in closure(
            space, [space.event_from_mask(m) for m in small], "down")}
        want_down = {s for m in small for s in range(1, m + 1) if s & m == s}
        assert down == want_down
        up = {e.mask for e in closure(
            space, [space.event_from_mask(m) for m in large], "up")}
        assert up == {full ^ s for s in want_down} | {full}

    def test_lanes_match_definition(self):
        for n in range(0, 13):
            lanes = _lanes(n)
            assert len(lanes) == n
            for i, lane in enumerate(lanes):
                want = sum(1 << m for m in range(1 << n) if not m >> i & 1)
                assert lane == want, (n, i)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for n in range(0, 9):
            for density in (0.05, 0.3, 0.8):
                flags = rng.random(1 << n) < density
                for direction in ("up", "down"):
                    for strict in (False, True):
                        got = packed_closure(flags, direction, strict)
                        assert np.array_equal(
                            got, brute_closure(flags, direction, strict)
                        ), (n, density, direction, strict)

    def test_minimal_and_maximal_selection(self):
        rng = np.random.default_rng(8)
        for n in range(1, 9):
            size = 1 << n
            sel = [m for m in range(size) if rng.random() < 0.3]
            flags = sum(1 << m for m in sel)
            minimal = flags & ~subset_closure(flags, n, "up", strict=True)
            maximal = flags & ~subset_closure(flags, n, "down", strict=True)
            want_min = [m for m in sel
                        if not any(s != m and s & m == s for s in sel)]
            want_max = [m for m in sel
                        if not any(s != m and s & m == m for s in sel)]
            assert _set_bits(minimal) == want_min
            assert _set_bits(maximal) == want_max

    def test_set_bits_lists_ascending(self):
        rng = random.Random(9)
        assert _set_bits(0) == []
        for size in (1, 7, 8, 9, 64, 4096):
            want = sorted(rng.sample(range(size), rng.randint(1, size)))
            assert _set_bits(sum(1 << m for m in want)) == want

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            subset_closure(0, 2, "sideways")
        for flags in (-1, 1 << 4, 1 << 300):
            with pytest.raises(ValueError):
                subset_closure(flags, 2, "up")
        assert subset_closure((1 << 16) - 1, 4, "down") == (1 << 16) - 1


class TestSupports:
    def test_three_slit(self, d3):
        ac = ppc_supports(d3)
        assert labelsets(ac.elements) == [[1, 3]]

    def test_diagonal_gives_singletons(self, diag4):
        ac = ppc_supports(diag4)
        assert labelsets(ac.elements) == [[1], [2], [3], [4]]

    def test_two_slit_everything_precluded(self, d2):
        with pytest.raises(NoCoeventError):
            ppc_supports(d2)

    def test_supports_avoid_zero_sets(self):
        for seed in range(10):
            space = HistorySpace(6)
            d = sample_spd(
                6, rank=3, seed=(31, seed),
                annihilate=(space.event([1, 2]), space.event([3, 4, 5])),
            )
            zs = zero_sets(d)
            for a in ppc_supports(d).elements:
                assert not any(a.issubset(z) for z in zs)


class TestDerived:
    def test_three_slit_structure(self, d3):
        ps = derived_antichain(d3)
        assert labelsets(ps.ppc_supports.elements) == [[1, 3]]
        assert labelsets(ps.m_part) == [[1, 2], [2, 3]]
        assert labelsets(ps.derived.elements) == [[1, 2], [1, 3], [2, 3]]
        ok, _ = is_inextendible(ps.derived)
        assert ok

    def test_three_slit_derived_is_cover_yet_omega_positive(self, d3):
        # the derived antichain spans omega, which is consistent with
        # mu(omega) > 0 because the supports are not zero sets
        ps = derived_antichain(d3)
        verdict = decide(d3.space, ps.derived.elements)
        assert verdict.is_cover
        assert mu(d3, d3.space.omega()) == pytest.approx(1.0 / 3.0)

    def test_diagonal_trivial(self, diag4):
        ps = derived_antichain(diag4)
        assert ps.m_part == frozenset()
        assert ps.zero_sets == frozenset()
        assert labelsets(ps.derived.elements) == [[1], [2], [3], [4]]

    def test_random_sweep_invariants_hold(self):
        # every internal consistency assertion runs on each call
        for n in range(3, 9):
            space = HistorySpace(n)
            for seed in range(5):
                d = sample_spd(
                    n, rank=max(2, n - 2), seed=(97, n, seed),
                    annihilate=(space.event([1, 2]), space.event([1, 3])),
                    normalize=True,
                )
                ps = derived_antichain(d)
                ok, _ = is_inextendible(ps.derived)
                assert ok
                for m in ps.m_part:
                    assert mu(d, m) <= 1e-9

    def test_exact_structure_survives_dyadic_scaling(self):
        # scaling by 2^-40 is exact in binary, so the exact structure must
        # not move; on integer functionals the float path agrees as well
        rng = random.Random(40)
        found = 0
        for n in (4, 7, 10, 12):
            for _ in range(3):
                w = integer_w(rng, n, rank=3)
                d = DecoherenceFunctional(w @ w.T)
                scaled = DecoherenceFunctional(w @ w.T * 2.0**-40)
                ps = derived_antichain(d, exact=True).to_json()
                assert derived_antichain(scaled, exact=True).to_json() == ps
                assert derived_antichain(d).to_json() == ps
                found += len(ps["zero_sets"])
        assert found > 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_flags_packed_once(self, monkeypatch, exact):
        # the zero rule's comparison is packed into one int, and every
        # later pass, closures and the inextendibility check included,
        # stays on ints
        space = HistorySpace(10)
        d = sample_spd(
            10, rank=4, seed=(3, 10),
            annihilate=(space.event([1, 2]), space.event([3, 4, 5])),
        )
        calls = []
        real = np.packbits
        monkeypatch.setattr(
            np, "packbits", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        ps = derived_antichain(d, exact=exact)
        assert len(calls) == 1
        assert ps.zero_sets and ps.m_part

    def test_json_shape(self, d3):
        data = derived_antichain(d3).to_json()
        assert set(data) == {"zero_sets", "ppc_supports", "derived", "m_part"}
        assert data["ppc_supports"] == [[1, 3]]


def reference_nontriviality(d):
    """The coatom of largest measure, smallest mask first, by one mu call
    per coatom."""
    space = d.space
    coatoms = sorted(space.full_mask ^ (1 << i) for i in range(d.n))
    vals = [mu(d, space.event_from_mask(m)) for m in coatoms]
    return coatoms[vals.index(max(vals))]


class TestNontriviality:
    def test_matches_mu_loop_reference(self):
        rng = random.Random(11)
        cases = [sample_spd(n, rank, (5, n, rank), normalize=True)
                 for n in range(2, 11) for rank in (1, 2, n)]
        for n in range(3, 11):
            w = integer_w(rng, n, rank=rng.randint(1, 3))
            cases += [DecoherenceFunctional(w @ w.T * 2.0**e)
                      for e in (-40, 0, 30)]
        # a classical functional ties every coatom; a graded one ranks them
        cases += [DecoherenceFunctional(np.diag([1.0] * 5)),
                  DecoherenceFunctional(np.diag([3.0, 1.0, 2.0, 1.0]))]
        for d in cases:
            assert nontriviality(d).mask == reference_nontriviality(d)

    def test_three_slit(self, d3):
        ev = nontriviality(d3)
        assert sorted(ev.labels) == [1, 3]
        assert mu(d3, ev) == pytest.approx(4.0 / 3.0)

    def test_diagonal_tie_break(self, diag4):
        # all four coatoms measure 3/4; the smallest mask wins
        ev = nontriviality(diag4)
        assert sorted(ev.labels) == [1, 2, 3]

    def test_rejects_indefinite(self):
        d = DecoherenceFunctional(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        with pytest.raises(ValueError):
            nontriviality(d)

    def test_zero_total_measure(self, d2):
        with pytest.raises(NoCoeventError):
            nontriviality(d2)

    def test_needs_two_histories(self):
        d = DecoherenceFunctional(np.array([[1.0]]))
        with pytest.raises(ValueError):
            nontriviality(d)
