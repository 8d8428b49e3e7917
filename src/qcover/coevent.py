"""Preclusion machinery: zero-measure events, minimal coevent supports,
and the derived inextendible antichain.

Under the multiplicative scheme a coevent is determined by its support,
so everything here works with plain events.  An event counts as
precluded when it lies inside some zero-measure event; the minimal
non-precluded events are exactly the supports of primitive preclusive
coevents.  Joining those supports with the maximal events that contain
none of them yields an inextendible antichain whose down-closure soaks
up every zero-measure event.

Every pass works on flag sets: one Python int per set of events, bit m
set when the event with mask m belongs.  The zero rule's comparison over
the measure table is packed once; marking, the minimal and maximal
selections, the closures and every consistency check are then int
operations, each closure one OR zeta transform over the subset lattice
(``histories.subset_closure``), exact bit for bit.  Only the listings a
caller gets back are unpacked.  Measures come from the recurrence
behind ``measure.mu_table``, in exact mode over the real entries as
dyadic integers on one power-of-two denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antichain import Antichain, _antichain_unchecked, _missing_event
from .errors import ConsistencyError, NoCoeventError, ResourceLimitError
from .histories import Event, _set_bits, subset_closure
from .measure import TOL_ZERO, DecoherenceFunctional, _measure_table, mu_table

COEVENT_MAX_N = 12


@dataclass(frozen=True)
class PreclusionStructure:
    """Everything the preclusion analysis of one functional produces.

    ``ppc_supports`` are the minimal events outside every zero set,
    ``derived`` extends them to an inextendible antichain by adjoining
    ``m_part``, the maximal events containing no support.  Every member
    of ``m_part`` is itself a zero set, and every zero set lies under
    some element of ``derived``.
    """

    zero_sets: frozenset[Event]
    ppc_supports: Antichain
    derived: Antichain
    m_part: frozenset[Event]

    def to_json(self) -> dict:
        def ordered(evs: frozenset[Event]) -> list:
            ranked = sorted(evs, key=lambda e: (e.cardinality, e.mask))
            return [e.to_json() for e in ranked]

        return {
            "zero_sets": ordered(self.zero_sets),
            "ppc_supports": self.ppc_supports.to_json()["elements"],
            "derived": self.derived.to_json()["elements"],
            "m_part": ordered(self.m_part),
        }


def _zero_flags(d: DecoherenceFunctional, exact: bool) -> int:
    # the flag set of the nonempty events whose |mu| is within the zero rule
    table = _measure_table(_dyadic_integers(d)) if exact else mu_table(d)
    zero = abs(table) <= (0 if exact else TOL_ZERO * d.scale)
    packed = np.packbits(zero, bitorder="little").tobytes()
    return int.from_bytes(packed, "little") & ~1


def _dyadic_integers(d: DecoherenceFunctional) -> np.ndarray:
    # Each real entry is an exact dyadic rational p/q of its float; over
    # the common denominator they become ints N, and mu vanishes exactly
    # when the integer sum does.  The imaginary parts cancel pairwise
    # under Hermiticity, so only the real parts sum.  No partial sum of
    # the recurrence exceeds n^2 max|N|, so max|N| * 2 n^2 < 2^63 keeps
    # int64 a factor of two from overflow; otherwise the ints stay Python's.
    ratios = [[x.as_integer_ratio() for x in row] for row in d.entries.real.tolist()]
    den = max(q for row in ratios for _, q in row)
    ints = [[p * (den // q) for p, q in row] for row in ratios]
    fits = max(abs(v) for row in ints for v in row) * 2 * d.n**2 < 1 << 63
    return np.array(ints, dtype=np.int64 if fits else object)


def _check_size(d: DecoherenceFunctional, what: str) -> None:
    if d.n > COEVENT_MAX_N:
        raise ResourceLimitError(
            f"{what} is limited to n <= {COEVENT_MAX_N}, got {d.n}"
        )


def zero_sets(d: DecoherenceFunctional, *, exact: bool = False) -> frozenset[Event]:
    """All nonempty events of measure zero.

    Every measure comes from the one O(2^n) recurrence behind ``mu_table``.
    An event counts when |mu| is at most ``TOL_ZERO * d.scale`` (the zero
    rule of ``qcover.measure``, so scaling D moves no zero set), or, with
    ``exact=True``, when its measure is 0 over the real entries read as
    exact dyadic rationals, as integers on one power-of-two denominator.
    """
    _check_size(d, "zero-set enumeration")
    zero = _zero_flags(d, exact)
    return frozenset(d.space.event_from_mask(m) for m in _set_bits(zero))


def _preclusion_flags(d: DecoherenceFunctional, exact: bool) -> tuple[int, int, int]:
    """Flag sets: the zero sets, the minimal unmarked events (the
    supports) and the up-closure of the supports."""
    _check_size(d, "preclusion analysis")
    n = d.n
    full = (1 << (1 << n)) - 1
    zero = _zero_flags(d, exact)
    marked = subset_closure(zero, n, "down") | 1
    # the whole space is marked exactly when every event is
    if marked == full:
        raise NoCoeventError(
            "the whole space is precluded; no coevent support exists"
        )
    # minimal unmarked events: unmarked with every proper submask marked
    free = full & ~marked
    minimal = free & ~subset_closure(free, n, "up", strict=True)
    in_up = subset_closure(minimal, n, "up")
    if in_up != free:
        raise ConsistencyError(
            "non-precluded events do not match the supports' up-closure"
        )
    return zero, minimal, in_up


def ppc_supports(d: DecoherenceFunctional, *, exact: bool = False) -> Antichain:
    """Minimal nonempty events contained in no zero set.

    These are the supports of the primitive preclusive multiplicative
    coevents.  Raises a no-coevent error when the whole space itself has
    measure zero, since then everything is precluded.
    """
    _, minimal, _ = _preclusion_flags(d, exact)
    return _antichain_unchecked(d.space, _set_bits(minimal))


def _maximal(sel: int, n: int) -> int:
    # the selected events with no selected proper superset
    return sel & ~subset_closure(sel, n, "down", strict=True)


def derived_antichain(
    d: DecoherenceFunctional, *, exact: bool = False
) -> PreclusionStructure:
    """Extend the coevent supports to an inextendible antichain.

    With A the supports, the derived antichain consists of the maximal
    events that either belong to A or contain no element of A.  The
    adjoined part M is verified to consist of zero sets, the result is
    verified inextendible, and every zero set is verified to lie under
    some derived element.  Any failed check raises a consistency error.
    """
    zero, minimal, in_up = _preclusion_flags(d, exact)
    space = d.space
    n = d.n
    full = (1 << (1 << n)) - 1

    sel_off = full & ~(in_up | 1)
    m_prime = _maximal(sel_off, n)
    a_prime = _maximal(sel_off | minimal, n)

    if minimal & ~a_prime:
        raise ConsistencyError("a support fell out of the derived antichain")
    m_part = a_prime & ~minimal
    if m_part & ~zero:
        raise ConsistencyError("an adjoined event is not a zero set")
    if m_part & ~m_prime:
        raise ConsistencyError(
            "adjoined events are not maximal among support-free events"
        )
    if m_prime & ~m_part & ~subset_closure(minimal, n, "down"):
        raise ConsistencyError(
            "a maximal support-free event neither joined the antichain"
            " nor sits under a support"
        )
    in_down = subset_closure(a_prime, n, "down")
    if zero & ~in_down:
        raise ConsistencyError("a zero set escapes the derived down-closure")

    if _missing_event(a_prime, n) is not None:
        raise ConsistencyError("the derived antichain is not inextendible")

    # chain property: every unprecluded event sits above a support, and
    # every other positive-measure event sits under a derived element
    if in_up | in_down | zero | 1 != full:
        raise ConsistencyError("a positive-measure event escapes the chain split")

    return PreclusionStructure(
        zero_sets=frozenset(space.event_from_mask(z) for z in _set_bits(zero)),
        ppc_supports=_antichain_unchecked(space, _set_bits(minimal)),
        derived=_antichain_unchecked(space, _set_bits(a_prime)),
        m_part=frozenset(space.event_from_mask(m) for m in _set_bits(m_part)),
    )


def nontriviality(d: DecoherenceFunctional) -> Event:
    """A coatom (cardinality n-1 event) of strictly positive measure.

    Strong positivity plus positive total measure guarantee one exists,
    so a miss is reported as an internal error.  Returns the coatom of
    largest measure, ties broken by smallest mask.  Positivity and
    "zero" follow the zero rule of ``qcover.measure``: the smallest
    eigenvalue may fall below zero by ``TOL_ZERO`` times the largest
    eigenvalue magnitude, and a measure at most ``TOL_ZERO * d.scale``
    counts as zero.  Every coatom measure comes from one closed form,
    mu(Omega minus i) = mu(Omega) - 2 Re sum_j D_ij + D_ii.
    """
    space = d.space
    n = space.n
    if n < 2:
        raise ValueError("nontriviality needs at least two histories")
    w = np.linalg.eigvalsh(d.entries)
    if float(w[0]) < -TOL_ZERO * float(np.abs(w).max()):
        raise ValueError("nontriviality requires a strongly positive functional")
    tol = TOL_ZERO * d.scale
    m = d.entries.real
    total = float(m.sum())
    if total <= tol:
        raise NoCoeventError("total measure is zero; every coatom may vanish")
    # coatom i drops label i; reversed, the coatoms run in ascending mask
    # order, and argmax keeps the first, smallest, mask of a tie
    coatoms = (total - 2.0 * m.sum(axis=1) + np.diag(m))[::-1]
    best = int(np.argmax(coatoms))
    if coatoms[best] <= tol:
        raise ConsistencyError(
            "no coatom carries positive measure despite strong positivity"
        )
    return space.event_from_mask(space.full_mask ^ (1 << (n - 1 - best)))
