"""The exact complement projector and its two callers, against a Fraction
reference: I - B (B^T B)^-1 B^T over the independent members B."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qcover import (
    HistorySpace,
    InfeasibleNormalizationError,
    decide,
    mu,
    sample_spd,
)
from qcover.ratspan import complement_projector, span_solve


def _solve(rows, m):
    """Gauss-Jordan over Fraction on the first m columns; returns the rank
    and the reduced rows."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(m):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank, rows


def reference_projector(n, masks):
    basis = []
    for mask in masks:
        cand = basis + [mask]
        cols = [[Fraction((b >> i) & 1) for b in cand] for i in range(n)]
        if _solve(cols, len(cand))[0] == len(cand):
            basis = cand
    r = len(basis)
    b = [[Fraction((m >> i) & 1) for m in basis] for i in range(n)]
    gram = [[sum(b[k][p] * b[k][q] for k in range(n)) for q in range(r)]
            for p in range(r)]
    aug = [row + [Fraction(int(p == q)) for q in range(r)]
           for p, row in enumerate(gram)]
    inv = [row[r:] for row in _solve(aug, r)[1]]
    bg = [[sum(b[i][p] * inv[p][q] for p in range(r)) for q in range(r)]
          for i in range(n)]
    return [[Fraction(int(i == j)) - sum(bg[i][q] * b[j][q] for q in range(r))
             for j in range(n)] for i in range(n)]


def random_members(rng, n, full_rank):
    """Fewer than n random members (so rank below n when n > 1), plus
    repeated ones and unions of disjoint ones; with ``full_rank`` every
    singleton is added too, so the span is everything and P = 0."""
    full = (1 << n) - 1
    members = [rng.randint(1, full) for _ in range(rng.randint(1, max(1, n - 1)))]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(members), rng.choice(members)
        members.insert(rng.randint(0, len(members)), a | b if a & b == 0 else a)
    if full_rank:
        members += [1 << i for i in range(n)]
        rng.shuffle(members)
    return members


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_three_slit_projector_is_yyT_over_3():
    num, den = complement_projector(3, [0b011, 0b110])
    y = (1, -1, 1)
    assert [[Fraction(v, den) for v in row] for row in num] == [
        [Fraction(a * b, 3) for b in y] for a in y
    ]


@pytest.mark.parametrize("n", range(1, 13))
def test_matches_fraction_reference(n):
    rng = random.Random(f"projector:{n}")
    ranks = set()
    for trial in range(6 if n > 6 else 15):
        masks = random_members(rng, n, full_rank=trial % 3 == 0)
        num, den = complement_projector(n, masks)
        assert den > 0 and all(type(v) is int for row in num for v in row)
        p = [[Fraction(v, den) for v in row] for row in num]
        assert p == reference_projector(n, masks), masks
        assert p == [list(col) for col in zip(*p)]
        assert matmul(p, p) == p
        for mask in masks:
            assert all(
                sum(p[i][j] for i in range(n) if (mask >> i) & 1) == 0
                for j in range(n)
            )
        ranks.add(any(map(any, num)))
    # full-rank families (P = 0) and rank-deficient ones both occur
    assert ranks == ({False} if n == 1 else {False, True})


def random_non_cover(rng, n):
    full = (1 << n) - 1
    while True:
        masks = list(dict.fromkeys(
            rng.randint(1, full) for _ in range(rng.randint(2, n - 1))
        ))
        union = 0
        for m in masks:
            union |= m
        if union == full and span_solve(n, masks, full) is None:
            return masks


def witness_matches_reference(space, masks):
    verdict = decide(space, [space.event_from_mask(m) for m in masks])
    assert not verdict.is_cover and verdict.union_is_omega
    want = np.array(
        [[float(v) for v in row] for row in reference_projector(space.n, masks)]
    )
    entries = verdict.witness.entries
    assert entries.real.tobytes() == want.tobytes()
    assert not entries.imag.any()


def test_three_slit_witness_entries_are_rounded_thirds():
    space = HistorySpace(3)
    witness_matches_reference(space, [0b011, 0b110])
    w = decide(space, [space.event([1, 2]), space.event([2, 3])]).witness
    assert w.entries[0, 1].real == -1 / 3
    assert mu(w, space.omega()) == pytest.approx(1 / 3, abs=1e-15)


@pytest.mark.parametrize("n", range(3, 13))
def test_witness_is_the_correctly_rounded_exact_projector(n):
    rng = random.Random(f"witness:{n}")
    space = HistorySpace(n)
    for _ in range(4):
        witness_matches_reference(space, random_non_cover(rng, n))


@pytest.mark.parametrize("n", range(1, 9))
def test_normalization_fails_exactly_when_omega_is_annihilated(n):
    rng = random.Random(f"sample_spd:{n}")
    space = HistorySpace(n)
    full = space.full_mask
    outcomes = set()
    for trial in range(25):
        masks = [rng.randint(1, full) for _ in range(rng.randint(1, n))]
        if rng.random() < 0.3:
            # a two-block partition puts chi_Omega in the span
            cut = rng.randint(1, full)
            masks += [cut, full & ~cut] if cut != full else [full]
        events = [space.event_from_mask(m) for m in masks]
        forced = span_solve(n, masks, full) is not None
        outcomes.add(forced)
        if forced:
            with pytest.raises(InfeasibleNormalizationError):
                sample_spd(n, n, (n, trial), events, normalize=True)
            continue
        d = sample_spd(n, n, (n, trial), events, normalize=True)
        assert mu(d, space.omega()) == pytest.approx(1.0, abs=1e-12)
        for e in events:
            assert abs(mu(d, e)) <= 1e-12
    assert outcomes == ({True} if n == 1 else {True, False})
