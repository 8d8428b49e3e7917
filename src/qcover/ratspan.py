"""Exact linear algebra for indicator-vector systems.

Events are 0/1 vectors over the fine-grained histories, so questions like
"is the all-ones vector a linear combination of these indicators?" have
exact answers.  Elimination runs fraction-free over Python ints (Bareiss,
Math. Comp. 22 (1968) 565-578): a row update is ``pv * row - f * pivot_row``
followed by division by the row's gcd, so entries stay small integers.
A ``Fraction`` is built only for the final coefficients, and nothing here
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence


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
    for i in range(r, n):
        if rows[i][m]:
            return None
    coeffs = [Fraction(0)] * m
    for pr, pc in pivots:
        coeffs[pc] = Fraction(rows[pr][m], rows[pr][pc])
    return coeffs


def gf2_rank(member_masks: Iterable[int]) -> int:
    """Rank of the indicator vectors over GF(2), by an XOR basis.  It is
    never above their rank over Q, since a minor odd mod 2 is nonzero."""
    basis: dict[int, int] = {}  # leading bit -> basis vector
    for m in member_masks:
        while m.bit_length() in basis:
            m ^= basis[m.bit_length()]
        if m:
            basis[m.bit_length()] = m
    return len(basis)
