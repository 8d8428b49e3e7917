"""Quantum covers: exact decision procedure, certificates, and the scan.

A family of events O_1..O_m with union Omega is a quantum cover when no
strongly positive decoherence functional can annihilate every O_i while
giving Omega positive measure.  For positive semidefinite D the null
events are exactly the indicator vectors in the kernel of D, so the
family fails to be a quantum cover precisely when the all-ones indicator
chi_Omega lies outside the rational span of the chi_{O_i}: in that case
the orthogonal projector onto the complement of the span is itself a
strongly positive functional annihilating every O_i with
mu(Omega) = ||P chi_Omega||^2 > 0.  Conversely chi_Omega in the span
forces D chi_Omega = 0, hence mu(Omega) = 0, for every annihilating D.
``decide`` settles span membership and builds that projector by one exact
integer elimination (``ratspan``), and checks the witness exactly: the
projector annihilates every member and mu(Omega) > 0 as integer sums.
Floating point enters only when the witness entries are reported, each
the correctly rounded value of its exact fraction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .antichain import (
    GENERATOR_MAX_N,
    Antichain,
    _inextendible_bitsets,
    _level_split,
    _level_unions,
    _label_table,
    _members,
    generate,
)
from .errors import ConsistencyError, SpaceMismatchError
from .histories import Event, HistorySpace, JsonRecord, _bit_rows
from .measure import TOL_ZERO, DecoherenceFunctional, mu_table
from .ratspan import complement_projector, ones_in_span, span_solve


@dataclass(frozen=True)
class CoverVerdict(JsonRecord):
    """Outcome of the exact quantum-cover decision for one event family."""

    is_cover: bool
    union_is_omega: bool
    events: tuple[Event, ...]
    coefficients: Optional[tuple[Fraction, ...]] = None
    witness: Optional[DecoherenceFunctional] = None
    uncovered_label: Optional[int] = None


def decide(space: HistorySpace, events: Iterable[Event]) -> CoverVerdict:
    """Decide whether the family is a quantum cover.

    The verdict is exact: membership of chi_Omega in the rational span of
    the event indicators is settled by fraction-free integer elimination
    (``ratspan.span_solve``).  A positive verdict carries the rational
    combination; a negative one carries the complement projector
    (``ratspan.complement_projector``) as an explicit strongly positive
    functional that annihilates every member yet gives Omega positive
    measure.  Both witness properties are checked in integers, and each
    witness entry is its exact fraction correctly rounded to a float.
    """
    evs = tuple(events)
    if not evs:
        raise ValueError("a cover candidate needs at least one event")
    masks: list[int] = []
    seen = set()
    union = 0
    for e in evs:
        if e.space != space:
            raise SpaceMismatchError("event does not belong to the given space")
        if e.mask == 0:
            raise ValueError("cover members must be nonempty")
        if e.mask in seen:
            raise ValueError(f"duplicate event {sorted(e.labels)}")
        seen.add(e.mask)
        masks.append(e.mask)
        union |= e.mask
    if union != space.full_mask:
        uncovered = next(
            lab for lab in space.labels if not (union >> (lab - 1)) & 1
        )
        return CoverVerdict(False, False, evs, uncovered_label=uncovered)
    coeffs = span_solve(space.n, masks, space.full_mask)
    if coeffs is not None:
        return CoverVerdict(True, True, evs, coefficients=tuple(coeffs))
    num, den = complement_projector(space.n, masks)
    # mu(Omega) = 1^T P 1, so its sign is that of the numerators' sum
    if sum(map(sum, num)) <= 0:
        raise ConsistencyError("witness projector gives Omega no measure")
    witness = DecoherenceFunctional([[v / den for v in row] for row in num])
    return CoverVerdict(False, True, evs, witness=witness)


@dataclass(frozen=True)
class Certificate(JsonRecord):
    """Analytic reason why an inextendible antichain must be a cover."""

    kind: str
    pivot: int
    base_level: int
    free_count: int
    params: dict[str, int]
    narrative: str


@lru_cache(maxsize=32)
def _family_instances(
    n: int,
) -> tuple[tuple[str, tuple[tuple[str, int], ...], tuple[int, ...], int], ...]:
    # (kind, params, element masks, characteristic pivot) per family at n
    if n > GENERATOR_MAX_N:
        return ()
    space = HistorySpace(n)
    out = []
    if n > 3:
        fam = generate(space, "coatom_pair")
        out.append(("coatom_pair", (), fam.masks, n - 2))
    if n >= 5 and n % 2 == 1:
        fam = generate(space, "bowtie")
        out.append(("bowtie", (), fam.masks, (n + 1) // 2))
    for m in range(2, (n - 1) // 2 + 1):
        if (n - 1) % m == 0:
            fam = generate(space, "windmill", m=m)
            out.append(("windmill", (("m", m),), fam.masks, (n - 1) // m + 1))
    if n >= 5:
        for l in range(3, n - 1):
            fam = generate(space, "straddle", l=l)
            out.append(("straddle", (("l", l),), fam.masks, l))
    return tuple(out)


# certificate codes: 0 none, 1 full_level, 2 pivot_bound, then family i
# of _family_instances as _FAMILY + i
_FAMILY = 3
_NARRATIVES = (
    "all {size} elements form the complete level {pivot}; the level sum"
    " identity pins the total measure to a nonnegative multiple of the"
    " element measures",
    "{free} histories avoid every off-pivot element, reaching the threshold"
    " {need} for pivot {pivot} over base level {base}; coarse-graining the"
    " free histories reduces the family to a complete level",
    "exact match with the {family} family{params}; its dedicated"
    " annihilation argument forces total measure zero",
)


def _kind_names(n: int) -> list[Optional[str]]:
    families = [f"family_{inst[0]}" for inst in _family_instances(n)]
    return [None, "full_level", "pivot_bound", *families]


def _certificates(
    n: int, unions: np.ndarray, sizes: np.ndarray, family: np.ndarray
) -> tuple[np.ndarray, ...]:
    # certificate_class_C on rows of level unions, member counts and
    # _family_instances indices (-1: none) -> codes and the _level_split
    base, free, bound_met = _level_split(n, unions)
    single = np.count_nonzero(unions, axis=1) == 1
    complete = np.array([math.comb(n, k) for k in range(n + 1)])[base]
    if (single & (sizes != complete)).any():
        raise ValueError(
            "pure-level antichain is not the complete level, so it is"
            " not inextendible"
        )
    code = np.where(family < 0, 0, _FAMILY + family)
    code = np.where(single, 1, np.where(bound_met.any(axis=1), 2, code))
    return code, base, free, bound_met


def _bitset_certificates(n: int, bitsets: np.ndarray) -> np.ndarray:
    # every bitset's certificate code; the first family matched wins
    family = np.full(len(bitsets), -1)
    for i, inst in reversed(list(enumerate(_family_instances(n)))):
        family[bitsets == sum(1 << (m - 1) for m in inst[2])] = i
    unions = _level_unions(n, range(1, 1 << n), _bit_rows(bitsets).T)
    return _certificates(n, unions, np.bitwise_count(bitsets), family)[0]


def certificate_class_C(ac: Antichain) -> Optional[Certificate]:
    """Analytic cover certificate for an inextendible antichain, if known.

    Tried in order: a complete level; a pivot meeting the free-history
    bound; exact structural match with one of the generated families.
    Returns None when no argument applies (which says nothing about the
    verdict itself).  ``scan`` batches the same rule.
    """
    n = ac.space.n
    instances = _family_instances(n)
    index = next((i for i, f in enumerate(instances) if f[2] == ac.masks), -1)
    unions = _level_unions(n, ac.masks, [1] * len(ac))
    code, base, free, bound = _certificates(
        n, unions, np.array([len(ac)]), np.array([index])
    )
    code, base, kind = int(code[0]), int(base[0]), _kind_names(n)[code[0]]
    if kind is None:
        return None
    pivot = (
        base if code == 1 else int(bound[0].argmax()) if code == 2
        else instances[index][3]
    )
    free = int(free[0, pivot]).bit_count()
    family, params = instances[index][:2] if code >= _FAMILY else (kind, ())
    params = {"k": pivot} if code == 1 else dict(params)
    narrative = _NARRATIVES[min(code, _FAMILY) - 1].format(
        size=len(ac), pivot=pivot, base=base, free=free,
        need=pivot - base + 1, family=family, params=params or "",
    )
    return Certificate(kind, pivot, base, free, params, narrative)


@dataclass(frozen=True)
class ScanReport(JsonRecord):
    """Aggregate verdict over every inextendible antichain of a space."""

    n: int
    total: int
    covers: int
    counterexamples: tuple[dict, ...]
    uncertified: tuple[dict, ...]
    certificate_counts: dict[str, int]
    elapsed_ms: float


def scan(space: HistorySpace) -> ScanReport:
    """Decide every inextendible antichain of the space.

    Each antichain stays one int, the bitset of its members
    (``antichain._inextendible_bitsets``), and each stage is one batched
    pass over all of them.  ``ratspan.ones_in_span`` decides every one in
    a single exact pass, a fraction-free elimination of each member Gram
    matrix in int64: at n = 6 all 31,745 are covers.  A refuted antichain
    goes to ``decide``, which must agree and checks its witness (none is
    refuted at n <= 6).  Certificate kinds come from level unions, and the
    antichains listed are unpacked last, in the walk's canonical order.
    """
    t0 = time.perf_counter()
    n = space.n
    bitsets = _inextendible_bitsets(n)
    is_cover = ones_in_span(n, bitsets)[0]
    for masks in _members(bitsets[~is_cover], range(64)):
        if decide(space, [Event(m, space) for m in masks]).is_cover:
            raise ConsistencyError(f"decide finds refuted masks {masks} a cover")
    code = _bitset_certificates(n, bitsets)
    # a certificate claims a cover, so a non-cover gets none
    code[~is_cover] = -1
    counts = np.bincount(code[is_cover]).tolist()
    tallies = {_kind_names(n)[c]: k for c, k in enumerate(counts) if c and k}
    counterexamples, uncertified = (
        tuple({"n": n, "elements": e} for e in _members(rows, _label_table(n)))
        for rows in (bitsets[~is_cover], bitsets[code == 0])
    )
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return ScanReport(
        n=n,
        total=len(bitsets),
        covers=len(bitsets) - len(counterexamples),
        counterexamples=counterexamples,
        uncertified=uncertified,
        certificate_counts=dict(sorted(tallies.items())),
        elapsed_ms=elapsed_ms,
    )


def indicator_level_identity(n: int) -> bool:
    """Exact integer check that the level-k indicators sum to
    C(n-1, k-1) times the all-ones vector, for every 1 <= k <= n.

    Counts are accumulated over all 2^n masks, so a True return is a
    finite verification, not a formula.  This is why every complete
    level is a quantum cover: the all-ones indicator lies in its span
    with equal rational coefficients.
    """
    if not 1 <= n <= 24:
        raise ValueError("n must be between 1 and 24")
    cards = np.bitwise_count(np.arange(max(1 << n, 64), dtype=np.uint32))
    cards[1 << n :] = n + 1  # pads the flags to whole words, on no level
    for k in range(n + 1):
        # bit m of word w flags mask 64 w + m when it lies on level k
        words = np.packbits(cards == k, bitorder="little").view("<u8")
        per_word = np.bitwise_count(words)
        if int(per_word.sum()) != math.comb(n, k):
            return False
        for i in range(n if k else 0):
            if i < 6:  # the flags of masks with bit i set, within each word
                on = np.uint64(sum(1 << m for m in range(64) if m >> i & 1))
                with_bit = np.bitwise_count(words & on)
            else:  # the words whose index has bit i - 6 set
                with_bit = per_word.reshape(-1, 2, 1 << (i - 6))[:, 1, :]
            if int(with_bit.sum()) != math.comb(n - 1, k - 1):
                return False
    return True


@dataclass(frozen=True)
class LevelSumReport(JsonRecord):
    """Level sum of the measure against its closed form, plus the
    classical cover inequality for the complete level."""

    k: int
    level_sum: float
    closed_form: float
    residual: float
    mu_omega: float
    singles_sum: float
    inequality_slack: float
    inequality_ok: bool


def level_sum_check(d: DecoherenceFunctional, k: int) -> LevelSumReport:
    """Compare sum of mu over level k with its closed form
    C(n-2, k-2) * (mu(Omega) + (n-k)/(k-1) * sum_i mu(A_i)) and test the
    classical-cover inequality (level sum >= mu(Omega), needing strong
    positivity)."""
    n = d.n
    if not 2 <= k <= n - 1:
        raise ValueError(f"level k must be in 2..{n - 1}, got {k}")
    table = mu_table(d)
    cards = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    level_sum = float(table[cards == k].sum())
    mu_omega = float(table[-1])
    singles_sum = float(np.diag(d.entries).real.sum())
    closed = math.comb(n - 2, k - 2) * (
        mu_omega + (n - k) / (k - 1) * singles_sum
    )
    slack = level_sum - mu_omega
    return LevelSumReport(
        k=k,
        level_sum=level_sum,
        closed_form=closed,
        residual=abs(level_sum - closed),
        mu_omega=mu_omega,
        singles_sum=singles_sum,
        inequality_slack=slack,
        inequality_ok=slack >= -TOL_ZERO * d.scale * math.comb(n, k),
    )
