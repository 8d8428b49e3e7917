"""Exact linear algebra for indicator-vector systems.

Events are 0/1 vectors over the fine-grained histories, so questions like
"is the all-ones vector a linear combination of these indicators?" have
exact answers.  One elimination loop serves the span test and the
orthogonal projectors alike: it runs fraction-free over Python ints
(Bareiss, Math. Comp. 22 (1968) 565-578), a row update is
``pv * row - f * pivot_row`` followed by division by the row's gcd, so
entries stay small integers.  Results are integers over one denominator,
or a ``Fraction`` per final coefficient; nothing here touches floating
point.  One batched numpy pass stands in for that loop on antichains:
``ones_in_span`` eliminates every member Gram matrix at once, fraction
free and exact in int64.
"""

from __future__ import annotations

from fractions import Fraction
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


# families per batch, so the bit and Gram arrays stay a few MB each
_CHUNK = 4096


def ones_in_span(n: int, bitsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per antichain bitset (bit v for mask v + 1, n <= 6): whether
    chi_Omega is in the span of the members' indicators, and its rank.

    For the m x n indicator matrix M, G = M^T M is n x n: G_ij counts the
    members holding both histories i and j, one float32 matmul of the
    membership rows against the members' pair rows (bit i times bit j at
    column n i + j), exact below 2^24.  The span is the column space of
    G, so [G | 1] is eliminated fraction free (Bareiss) with pivots on
    the diagonal: the trailing block loses a row and a column per step,
    becoming ``(piv * a[1:, 1:] - a[1:, :1] * a[:1, 1:]) // prev``.  G
    is positive semidefinite, and so is every scaled Schur complement,
    so a zero pivot has a zero row: it adds nothing to the rank and prev
    stays.  chi_Omega is outside the span iff the ones column is nonzero
    at some zero pivot.

    Every entry is a minor of [G | 1].  By Cauchy-Binet an order-k minor
    of G is at most C(m, k) h(k)^2, h(k) the largest k x k 0/1
    determinant (OEIS A003432), and one holding the ones column is at
    most k times one of order k - 1.  The widest products are of two
    order n - 1 minors: below (C(63, 5) 25)^2 ~ 3.1e16 < 2^55 for any
    bitset at n <= 6, and below (C(35, 6) 81)^2 ~ 1.7e16 for antichains
    at n = 7 (m <= 35, Sperner), so int64 is exact.  ``_CHUNK`` families
    go through numpy at a time.
    """
    bits = np.arange(1, 1 << n) >> np.arange(n)[:, None] & 1
    pairs = (bits[:, None] * bits).reshape(n * n, -1).astype(np.float32)
    out = np.empty((len(bitsets), 2), dtype=np.int64)  # in span, rank
    for start in range(0, len(bitsets), _CHUNK):
        part = bitsets[start : start + _CHUNK]
        member = _bit_rows(part)[:, : (1 << n) - 1].astype(np.float32)
        # [G | 1] per family; the family axis last keeps each step contiguous
        a = np.ones((n, n + 1, len(part)), dtype=np.int64)
        a[:, :n] = (pairs @ member.T).reshape(n, n, -1)
        prev, rank, outside = 1, 0, False
        for _ in range(n):
            has = a[0, 0] != 0
            outside = outside | ~has & (a[0, -1] != 0)
            piv = np.where(has, a[0, 0], prev)
            a = (piv * a[1:, 1:] - a[1:, :1] * a[:1, 1:]) // prev
            prev, rank = piv, rank + has
        out[start : start + len(part)] = np.c_[~outside, rank]
    return out[:, 0] == 1, out[:, 1]
