"""Metamorphic properties of the preclusion and cover paths.

Multiplying a decoherence functional by a positive constant leaves every
zero set in place, and relabelling the histories relabels every answer.
The functionals are D = W W^T with small integer W, some rows of which
cancel others, so D has zero sets and mu(Omega) > 0.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qcover import (  # noqa: E402
    DecoherenceFunctional,
    HistorySpace,
    decide,
    derived_antichain,
    mu,
    nontriviality,
    ppc_supports,
    validate,
    zero_sets,
)
from qcover.measure import TOL_ZERO  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# c in [1e-12, 1e12], spread evenly over the decades: 10^(k/16)
SCALES = st.integers(-192, 192).map(lambda k: 10.0 ** (k / 16))


@st.composite
def integer_w(draw, min_n=3, max_n=8):
    """Integer W whose rows over one or two random events sum to zero,
    with W^T 1 != 0."""
    n = draw(st.integers(min_n, max_n))
    rank = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    w = draw(st.lists(row, min_size=n, max_size=n))
    for _ in range(draw(st.integers(1, 2))):
        members = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                max_size=n - 1, unique=True))
        w[members[-1]] = [-sum(w[i][c] for i in members[:-1])
                          for c in range(rank)]
    assume(any(sum(r[c] for r in w) for c in range(rank)))
    return np.array(w, dtype=float)


def masks(events):
    return sorted(e.mask for e in events)


def coevents(d, exact):
    """What ``qcover coevents`` reports: the structure and the coatom."""
    out = derived_antichain(d, exact=exact).to_json()
    out["nontriviality"] = nontriviality(d).mask
    return out


def permute_mask(mask, perm):
    return sum(1 << p for i, p in enumerate(perm) if mask >> i & 1)


@PROPERTY
@given(w=integer_w(), c=SCALES)
def test_float_preclusion_is_scale_invariant(w, c):
    d = DecoherenceFunctional(w @ w.T)
    scaled = DecoherenceFunctional(w @ w.T * c)
    assert masks(zero_sets(scaled)) == masks(zero_sets(d))
    assert ppc_supports(scaled).masks == ppc_supports(d).masks
    got, want = derived_antichain(scaled), derived_antichain(d)
    assert got.derived.masks == want.derived.masks
    assert masks(got.m_part) == masks(want.m_part)


@PROPERTY
@given(w=integer_w(max_n=6), c=SCALES)
def test_validate_verdicts_are_scale_invariant(w, c):
    def verdicts(d):
        rep = validate(d, max_level=2)
        return (rep.hermitian, rep.strongly_positive, rep.weakly_positive,
                rep.level)

    want = verdicts(DecoherenceFunctional(w @ w.T))
    assert verdicts(DecoherenceFunctional(w @ w.T * c)) == want


@PROPERTY
@given(w=integer_w(max_n=10), k=st.integers(-60, 60))
def test_exact_preclusion_is_dyadic_scale_invariant(w, k):
    # scaling by 2^k is exact in binary, so exact mode must not move, and
    # on integer functionals the float path agrees with it
    want = coevents(DecoherenceFunctional(w @ w.T), exact=True)
    scaled = DecoherenceFunctional(w @ w.T * 2.0**k)
    assert coevents(scaled, exact=True) == want
    assert coevents(scaled, exact=False) == want


@PROPERTY
@given(w=integer_w(), c=SCALES)
def test_nontriviality_is_a_largest_coatom(w, c):
    # within the zero rule of the maximum: rounding may split an exact
    # tie between two coatoms, so the mask itself is not pinned
    d = DecoherenceFunctional(w @ w.T * c)
    space = d.space
    ev = nontriviality(d)
    assert ev.cardinality == d.n - 1
    best = max(mu(d, space.event_from_mask(space.full_mask ^ (1 << i)))
               for i in range(d.n))
    assert mu(d, ev) >= best - TOL_ZERO * d.scale
    assert mu(d, ev) > TOL_ZERO * d.scale


@PROPERTY
@given(w=integer_w(), data=st.data())
def test_relabelling_commutes_with_derived_antichain(w, data):
    n = w.shape[0]
    perm = data.draw(st.permutations(range(n)))
    d = w @ w.T
    moved = np.empty_like(d)
    moved[np.ix_(perm, perm)] = d
    for exact in (False, True):
        want = derived_antichain(DecoherenceFunctional(d), exact=exact)
        got = derived_antichain(DecoherenceFunctional(moved), exact=exact)
        for part in ("zero_sets", "m_part"):
            assert masks(getattr(got, part)) == sorted(
                permute_mask(e.mask, perm) for e in getattr(want, part))
        for part in ("ppc_supports", "derived"):
            assert sorted(getattr(got, part).masks) == sorted(
                permute_mask(m, perm) for m in getattr(want, part).masks)


@PROPERTY
@given(data=st.data())
def test_relabelling_commutes_with_decide(data):
    n = data.draw(st.integers(2, 7))
    full = (1 << n) - 1
    family = data.draw(st.lists(st.integers(1, full), min_size=1,
                                max_size=2 * n, unique=True))
    perm = data.draw(st.permutations(range(n)))
    space = HistorySpace(n)
    moved_family = [permute_mask(m, perm) for m in family]
    want = decide(space, [space.event_from_mask(m) for m in family])
    got = decide(space, [space.event_from_mask(m) for m in moved_family])
    assert (got.is_cover, got.union_is_omega) == (
        want.is_cover, want.union_is_omega)
    if not got.union_is_omega:
        union = 0
        for m in moved_family:
            union |= m
        assert not union >> (got.uncovered_label - 1) & 1
    elif got.is_cover:
        # coefficients need not be unique; they must still give chi_Omega
        for label in range(n):
            total = sum(c for c, m in zip(got.coefficients, moved_family)
                        if m >> label & 1)
            assert total == 1
    else:
        # the complement projector is unique, so it moves with the labels
        moved = np.empty_like(want.witness.entries)
        moved[np.ix_(perm, perm)] = want.witness.entries
        assert np.array_equal(got.witness.entries, moved)
