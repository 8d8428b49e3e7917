"""Exact linear algebra for indicator-vector systems.

Events are 0/1 vectors over the fine-grained histories, so questions like
"is the all-ones vector a linear combination of these indicators?" have
exact answers.  One elimination loop serves the span test and the
orthogonal projectors alike: it runs fraction-free over Python ints
(Bareiss, Math. Comp. 22 (1968) 565-578), a row update is
``pv * row - f * pivot_row`` followed by division by the row's gcd, so
entries stay small integers.  Results are integers over one denominator,
or a ``Fraction`` per final coefficient; nothing here touches floating
point.  Two batched numpy passes stand in for that loop on antichains:
``full_rank_mod_p`` proves full rank for most at once, mod a prime,
and ``ones_in_span`` decides the rest exactly, fraction free in int64.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError
from .histories import _bit_rows


def _eliminate(rows: list[list[int]], m: int) -> list[tuple[int, int]]:
    # Gauss-Jordan on the first m columns of the integer rows, in place and
    # fraction free; returns (row, column) per pivot, pivot rows first.
    # Columns go left to right, so the pivot columns are the first linearly
    # independent ones, and every other row is zero in each pivot column.
    n = len(rows)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(m):
        pivot_row = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                row = [pv * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    return pivots


def span_solve(
    n: int, member_masks: Sequence[int], target_mask: int
) -> Optional[list[Fraction]]:
    """Solve ``sum_i c_i * chi(member_i) = chi(target)`` over the rationals.

    Returns the coefficient list (free variables pinned to zero) or None
    when the target is outside the span.  Masks use bit ``i`` for history
    ``i + 1``.  Columns are eliminated left to right, so the pivots are
    the first linearly independent members and the coefficients are those
    of the unique reduced row echelon form.
    """
    m = len(member_masks)
    rows = [
        [(mask >> bit) & 1 for mask in member_masks] + [(target_mask >> bit) & 1]
        for bit in range(n)
    ]
    pivots = _eliminate(rows, m)
    for i in range(len(pivots), n):
        if rows[i][m]:
            return None
    coeffs = [Fraction(0)] * m
    for pr, pc in pivots:
        coeffs[pc] = Fraction(rows[pr][m], rows[pr][pc])
    return coeffs


def span_projector(
    n: int, member_masks: Sequence[int]
) -> tuple[list[int], list[list[int]], int]:
    """The orthogonal projector onto the members' span as ``B X / den``.

    Solves the normal equations (M^T M) X = M^T of the n x m indicator
    matrix M, free variables at zero.  Any solution gives M^T (I - MX) = 0
    with MX mapping into the span, so MX is that projector; only the pivot
    members' rows of X are nonzero.  Returns the pivot members' masks (the
    columns of B), their rows of X times ``den`` as ints, and ``den`` > 0.
    """
    m = len(member_masks)
    rows = [
        [(a & b).bit_count() for b in member_masks]
        + [(a >> bit) & 1 for bit in range(n)]
        for a in member_masks
    ]
    pivots = _eliminate(rows, m)
    den = lcm(*(rows[pr][pc] for pr, pc in pivots))  # lcm is never negative
    basis = [member_masks[pc] for _, pc in pivots]
    x = [[v * (den // rows[pr][pc]) for v in rows[pr][m:]] for pr, pc in pivots]
    return basis, x, den


def complement_projector(
    n: int, member_masks: Sequence[int]
) -> tuple[list[list[int]], int]:
    """The orthogonal projector P onto the complement of the members' span,
    as ``(num, den)`` with P = num / den and den > 0.

    P = I - MX with MX = B X / den from ``span_projector``, so P equals
    K (K^T K)^-1 K^T for any basis K of the complement, and K is never
    formed.  M^T P = 0 is checked in integers before returning; with
    P = I - MX that makes P symmetric, idempotent and positive
    semidefinite.
    """
    basis, x, den = span_projector(n, member_masks)
    num = [[den * (i == j) for j in range(n)] for i in range(n)]
    for mask, xrow in zip(basis, x):
        for i in range(n):
            if (mask >> i) & 1:
                num[i] = [a - v for a, v in zip(num[i], xrow)]
    for mask in member_masks:
        if any(map(sum, zip(*(num[i] for i in range(n) if (mask >> i) & 1)))):
            raise ConsistencyError("complement projector keeps part of a member")
    return num, den


# a 31-bit prime: residues below it multiply to less than 2^62, so every
# product and difference of the elimination fits in int64
_PRIME = 2**31 - 1
# families per batch, so the bit and Gram arrays stay a few MB each
_CHUNK = 4096


def full_rank_mod_p(n: int, families) -> np.ndarray:
    """One bool per family: True proves its members' indicators span Q^n.

    For the m x n indicator matrix M, G = M^T M is n x n: G_ij counts the
    members holding both histories i and j.  G is eliminated mod the
    prime p = 2^31 - 1 without division or row exchanges, each row below
    the pivot becoming ``piv * row - f * pivot_row``.  While piv is
    nonzero mod p such a step keeps the rank over GF(p), so n nonzero
    pivots mean det G is nonzero mod p, hence nonzero: rank n over Q.
    False is no verdict: for a family of rank n, G is positive definite,
    so a False means p divides one of its leading principal minors.

    A family is a sequence of member masks, which may repeat (fewer than
    p of them), or ``families`` is a uint64 array of antichain bitsets,
    bit v for mask v + 1 (n <= 6).  G sums the members' pair rows (bit i
    times bit j at column n i + j), for bitsets by one float32 matmul,
    exact below 2^24; ``_CHUNK`` families go through numpy at a time.
    """

    def pairs(masks: np.ndarray) -> np.ndarray:
        bits = (masks[:, None] >> np.arange(n) & 1).astype(np.int8)
        return (bits[:, :, None] * bits[:, None, :]).reshape(len(masks), -1)

    out = np.empty(len(families), dtype=bool)
    for start in range(0, len(families), _CHUNK):
        part = families[start : start + _CHUNK]
        if isinstance(part, np.ndarray):
            member = _bit_rows(part)[:, : (1 << n) - 1].astype(np.float32)
            gram = member @ pairs(np.arange(1, 1 << n)).astype(np.float32)
        else:
            sizes = list(map(len, part))
            flat = np.fromiter(chain.from_iterable(part), np.int64, sum(sizes))
            cells = np.repeat(np.arange(len(part)) * n * n, sizes)[:, None]
            cells = (cells + np.arange(n * n)).ravel()
            gram = np.bincount(cells, pairs(flat).ravel(), len(part) * n * n)
        gram = gram.astype(np.int64).reshape(-1, n, n)
        ok = np.ones(len(part), dtype=bool)
        for _ in range(n):
            piv = gram[:, :1, :1]
            ok &= piv[:, 0, 0] != 0
            below = piv * gram[:, 1:, 1:] - gram[:, 1:, :1] * gram[:, :1, 1:]
            gram = below % _PRIME
        out[start : start + len(part)] = ok
    return out


def ones_in_span(n: int, bitsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per antichain bitset (bit v for mask v + 1, n <= 6): whether
    chi_Omega is in the span of the members' indicators, and its rank.

    The member rows, zero rows to pad, then the all-ones row are
    eliminated fraction free (Bareiss): a column's pivot is the first
    member row nonzero there, and each row becomes
    ``(piv * row - f * pivot_row) / prev``, prev the last pivot, which
    zeroes the pivot row.  Every entry is a minor of order <= n of a 0/1
    matrix, so the division is exact and |entry| <= 9 at n = 6 (32 at
    n = 7, OEIS A003432): int64 is exact.  The pivots count the rank;
    chi_Omega is in the span iff the ones row ends as zero.
    """
    out = np.empty((len(bitsets), 2), dtype=np.int64)  # in span, rank
    for start in range(0, len(bitsets), _CHUNK):
        part = bitsets[start : start + _CHUNK]
        family, vertex = np.nonzero(_bit_rows(part))
        sizes = np.bitwise_count(part).astype(np.int64)
        rows = np.zeros((len(part), sizes.max() + 1, n), dtype=np.int64)
        slot = np.arange(len(family)) - (np.cumsum(sizes) - sizes)[family]
        rows[family, slot] = (vertex[:, None] + 1) >> np.arange(n) & 1
        rows[:, -1] = 1
        prev, at, rank = 1, np.arange(len(part)), 0
        for c in range(n):
            prow = rows[at, (rows[:, :-1, c] != 0).argmax(axis=1)][:, None]
            # a zero pivot entry: no member row is nonzero in c, no row moves
            has = prow[..., c, None] != 0
            piv = np.where(has, prow[..., c, None], prev)
            rows = (piv * rows - has * rows[..., c, None] * prow) // prev
            prev, rank = piv, rank + has.ravel()
        out[start : start + len(part)] = np.c_[~rows[:, -1].any(axis=1), rank]
    return out[:, 0] == 1, out[:, 1]
