"""Exact reference computations written apart from qcover.

Everything here uses Python integers (and ``fractions.Fraction`` only to
build inputs), so the checks in ``checks.py`` never trust the code they
check.  Masks use bit ``i`` for history label ``i + 1``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm


def labels_of(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(labels) -> int:
    m = 0
    for lab in labels:
        m |= 1 << (lab - 1)
    return m


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free elimination on integers."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                r = [p[col] * a - f * b for a, b in zip(rows[i], p)]
                g = 0
                for x in r:
                    g = gcd(g, x)
                rows[i] = [x // g for x in r] if g > 1 else r
        rank += 1
    return rank


def omega_in_span(n: int, masks: list[int]) -> bool:
    """Is the all-ones vector a rational combination of the indicators?"""
    cols = [[m >> h & 1 for h in range(n)] for m in masks]
    target = [1] * n
    return integer_rank(cols) == integer_rank(cols + [target])


def coefficients_hit_omega(n: int, masks: list[int], coeffs: list[str]) -> bool:
    """Exact test of sum_i c_i chi(member_i) == chi(Omega)."""
    fracs = [parse_rational(c) for c in coeffs]
    den = 1
    for num, d in fracs:
        den = lcm(den, d)
    scaled = [num * (den // d) for num, d in fracs]
    for h in range(n):
        if sum(c for c, m in zip(scaled, masks) if m >> h & 1) != den:
            return False
    return True


def parse_rational(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    d = int(den) if den else 1
    if d <= 0:
        raise ValueError(f"bad denominator in {text!r}")
    return int(num), d


def integer_kernel(n: int, masks: list[int]) -> list[list[int]]:
    """Integer basis of the vectors orthogonal to every indicator."""
    rows = [[Fraction(m >> h & 1) for h in range(n)] for m in masks]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        den = 1
        for x in v:
            den = lcm(den, x.denominator)
        basis.append([int(x * den) for x in v])
    return basis


def measure_table(w: list[list[int]]) -> list[int]:
    """mu(A) = |W^T chi_A|^2 for every mask A, for integer W (n rows)."""
    n = len(w)
    r = len(w[0])
    sums = [[0] * r]
    mu = [0]
    for m in range(1, 1 << n):
        low = (m & -m).bit_length() - 1
        prev = sums[m & (m - 1)]
        s = [a + b for a, b in zip(prev, w[low])]
        sums.append(s)
        mu.append(sum(x * x for x in s))
    return mu


def _superset_or(n: int, flags: list[bool]) -> list[bool]:
    # out[m] = flags of some superset of m (m included)
    out = list(flags)
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if not m & bit and out[m | bit]:
                out[m] = True
    return out


def _subset_or(n: int, flags: list[bool]) -> list[bool]:
    # out[m] = flags of some subset of m (m included)
    out = list(flags)
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit and out[m ^ bit]:
                out[m] = True
    return out


def preclusion(n: int, w: list[list[int]]) -> dict:
    """Brute-force preclusion structure of D = W W^T.

    Zero sets are the events with W^T chi_A = 0.  Supports are the minimal
    events in no zero set; the derived antichain is the maximal events that
    are supports or contain no support; the coatom is the largest-measure
    coatom, smallest mask on ties.
    """
    size = 1 << n
    full = size - 1
    mu = measure_table(w)
    zeros = [m for m in range(1, size) if mu[m] == 0]
    zflag = [False] * size
    for z in zeros:
        zflag[z] = True
    precluded = _superset_or(n, zflag)
    precluded[0] = True
    supports = [
        m for m in range(1, size)
        if not precluded[m]
        and all(precluded[m ^ (1 << i)] for i in range(n) if m >> i & 1)
    ]
    sflag = [False] * size
    for s in supports:
        sflag[s] = True
    holds_support = _subset_or(n, sflag)
    sel = [m != 0 and (sflag[m] or not holds_support[m]) for m in range(size)]
    above_sel = [False] * size  # some strict superset is selected
    for m in range(full, 0, -1):
        above_sel[m] = any(
            sel[m | 1 << i] or above_sel[m | 1 << i]
            for i in range(n) if not m >> i & 1
        )
    derived = [m for m in range(1, size) if sel[m] and not above_sel[m]]
    coatoms = [full ^ (1 << i) for i in range(n)]
    best = max(sorted(coatoms), key=lambda m: mu[m])  # max keeps the first
    return {
        "mu": mu,
        "zero_sets": zeros,
        "supports": supports,
        "derived": derived,
        "m_part": [m for m in derived if not sflag[m]],
        "coatom": best,
    }


def is_antichain(masks: list[int]) -> bool:
    return all(
        a & b != a and a & b != b for a, b in combinations(set(masks), 2)
    ) and all(masks)


def is_inextendible(n: int, masks: list[int]) -> bool:
    """Every nonempty event is comparable to some member."""
    size = 1 << n
    flags = [False] * size
    for m in masks:
        flags[m] = True
    below = _superset_or(n, flags)
    above = _subset_or(n, flags)
    return all(below[m] or above[m] for m in range(1, size))


# The Peres rays, built from their component multisets in Z[sqrt 2]:
# an entry (a, b) stands for a + b*sqrt(2).

def _dot(u, v) -> tuple[int, int]:
    a = b = 0
    for (p, q), (r, s) in zip(u, v):
        a += p * r + 2 * q * s
        b += p * s + q * r
    return a, b


def _normal_form(v):
    # rays are lines: fix the sign so the first nonzero entry is positive
    # (entries here are 0, +-1 or +-sqrt 2, never mixed within one entry)
    for a, b in v:
        if (a, b) != (0, 0):
            s = 1 if (a > 0 or (a == 0 and b > 0)) else -1
            return tuple((s * x, s * y) for x, y in v)
    raise ValueError("zero vector")


@lru_cache(maxsize=1)
def peres_structure() -> dict:
    """Rays, orthogonal pairs and bases (orthogonal triples), by index."""
    one, zero, root = (1, 0), (0, 0), (0, 1)
    rays = set()
    for seed in ((zero, zero, one), (zero, one, one),
                 (zero, one, root), (one, one, root)):
        for signs in product((1, -1), repeat=3):
            signed = [(s * a, s * b) for s, (a, b) in zip(signs, seed)]
            for perm in permutations(signed):
                rays.add(_normal_form(perm))
    rays = sorted(rays)
    k = len(rays)
    orth = [[_dot(rays[i], rays[j]) == (0, 0) for j in range(k)]
            for i in range(k)]
    pairs = [(i, j) for i, j in combinations(range(k), 2) if orth[i][j]]
    bases = [t for t in combinations(range(k), 3)
             if orth[t[0]][t[1]] and orth[t[0]][t[2]] and orth[t[1]][t[2]]]
    axes = {i for i, r in enumerate(rays)
            if sorted(r) == [zero, zero, one]}
    return {"rays": rays, "orth": orth, "pairs": pairs, "bases": bases,
            "axes": axes}


@lru_cache(maxsize=1)
def peres_colorable() -> bool:
    """Is there a green set with one ray in every basis and no two
    orthogonal rays?  Branches on the green ray of each uncovered basis."""
    st = peres_structure()
    orth, bases = st["orth"], st["bases"]

    def extend(green: tuple[int, ...], pos: int) -> bool:
        while pos < len(bases) and any(r in green for r in bases[pos]):
            pos += 1
        if pos == len(bases):
            return True
        return any(
            extend(green + (r,), pos + 1)
            for r in bases[pos]
            if not any(orth[r][g] for g in green)
        )

    return extend((), 0)


@lru_cache(maxsize=1)
def peres_witness_counts() -> dict:
    """The membership counts the obstruction-family witness must report."""
    st = peres_structure()
    axes = st["axes"]
    comp_bases = [b for b in st["bases"] if axes.isdisjoint(b)]
    in_pairs = [p for p in st["pairs"] if set(p) <= axes]
    comp_pairs = [p for p in st["pairs"] if axes.isdisjoint(p)]
    return {
        "event_count": len(st["bases"]) + len(st["pairs"]),
        "bases_in_complement": len(comp_bases),
        "pairs_in_basis": len(in_pairs),
        "green_outside_memberships": 1 + len(comp_pairs),
        "green_inside_memberships": len(comp_bases) + len(in_pairs),
        "shared_memberships": 0,
        "min_event_size": 1 << (len(st["rays"]) - 3),
        "antichain": True,
        "inextendible": False,
        "verdict": "antichain: yes; inextendible: no",
    }
