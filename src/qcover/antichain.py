"""Antichains of the event lattice.

An antichain is a set of nonempty events no one of which contains another.
An inextendible antichain is one to which no further event can be added,
i.e. a maximal independent set of the comparability graph over the
2^n - 1 nonempty events.  This module recognises antichains, decides and
witnesses inextendibility, enumerates all inextendible antichains of small
spaces in a canonical order, one uint64 member bitset each, splits them
around their pivot levels in one batched pass, and generates several
structured families that are inextendible by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConsistencyError, ResourceLimitError, SpaceMismatchError
from .histories import (
    Event,
    HistorySpace,
    JsonRecord,
    _bit_rows,
    _gosper_masks,
    pack_flags,
    subset_closure,
)

# enumeration works vertex-by-vertex over all 2^n - 1 nonempty events
HARD_ENUM_MAX_N = 6

# Bron-Kerbosch nodes expanded per numpy pass of the walk
_CHUNK = 4096

# structured generators re-verify inextendibility exhaustively before
# returning, which walks all 2^n events
GENERATOR_MAX_N = 16


class Antichain:
    """An immutable, canonically sorted antichain of nonempty events;
    ``masks`` holds the elements' masks in the same order."""

    __slots__ = ("space", "elements", "masks")

    def __init__(self, events: Iterable[Event]):
        seq = list(events)
        if not seq:
            raise ValueError("an antichain needs at least one event")
        space = seq[0].space
        masks = set()
        for e in seq:
            if e.space != space:
                raise SpaceMismatchError("antichain events span different spaces")
            if e.mask == 0:
                raise ValueError("the empty event cannot belong to an antichain")
            masks.add(e.mask)
        ordered = sorted(masks)
        bad = _comparable_pair(ordered)
        if bad is not None:
            a, b = bad
            raise ValueError(
                f"not an antichain: {sorted(Event(a, space).labels)} is contained"
                f" in {sorted(Event(b, space).labels)}"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "elements", tuple(Event(m, space) for m in ordered))
        object.__setattr__(self, "masks", tuple(ordered))

    def __setattr__(self, name, value):  # keep instances effectively frozen
        raise AttributeError("Antichain is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.elements)

    def __contains__(self, event: Event) -> bool:
        return isinstance(event, Event) and event in self.elements

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Antichain)
            and self.space == other.space
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.space, self.elements))

    def __reduce__(self):
        return (Antichain, (self.elements,))

    def levels(self) -> tuple[int, ...]:
        """Distinct element cardinalities, ascending."""
        return tuple(sorted({e.cardinality for e in self.elements}))

    def to_json(self) -> dict:
        return {
            "n": self.space.n,
            "elements": [e.to_json() for e in self.elements],
        }

    @classmethod
    def from_json(cls, data: dict) -> Antichain:
        space = HistorySpace(data["n"])
        return cls(space.event(labels) for labels in data["elements"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(repr(e) for e in self.elements)
        return f"Antichain[{body}]"


def _comparable_pair(masks: list[int]) -> Optional[tuple[int, int]]:
    # masks must be deduplicated; only cross-level pairs can nest
    by_level: dict[int, list[int]] = {}
    for m in masks:
        by_level.setdefault(m.bit_count(), []).append(m)
    levels = sorted(by_level)
    for i, la in enumerate(levels):
        for lb in levels[i + 1 :]:
            for small in by_level[la]:
                for big in by_level[lb]:
                    if small & big == small:
                        return small, big
    return None


def _antichain_unchecked(
    space: HistorySpace,
    masks: Iterable[int],
    events: Optional[Sequence[Event]] = None,
) -> Antichain:
    # events, when given, holds the Event of every mask of the space, to
    # be shared: Events are immutable and compare by value
    ac = Antichain.__new__(Antichain)
    masks = tuple(masks)
    if events is None:
        elements = tuple(Event(m, space) for m in masks)
    else:
        elements = tuple(map(events.__getitem__, masks))
    object.__setattr__(ac, "space", space)
    object.__setattr__(ac, "elements", elements)
    object.__setattr__(ac, "masks", masks)
    return ac


def is_antichain(space: HistorySpace, events: Iterable[Event]) -> bool:
    """True iff the events form an antichain: all nonempty, pairwise
    incomparable.  Duplicates collapse (set semantics)."""
    masks = set()
    for e in events:
        if e.space != space:
            raise SpaceMismatchError("event does not belong to the given space")
        if e.mask == 0:
            return False
        masks.add(e.mask)
    if not masks:
        return False
    return _comparable_pair(sorted(masks)) is None


def is_inextendible(ac: Antichain) -> tuple[bool, Optional[Event]]:
    """Decide whether ``ac`` is maximal.

    Returns ``(True, None)`` when every nonempty event is comparable to
    some element, else ``(False, witness)`` where the witness is the
    smallest-mask event that could still be added.  The elements are
    packed into one flag set (bit m for mask m); the comparable events
    are its up- and down-closures, two subset transforms of O(n 2^n)
    each, and the witness is the lowest bit that neither sets.
    """
    space = ac.space
    missing = _missing_event(pack_flags(ac.masks, space.n), space.n)
    if missing is None:
        return True, None
    return False, Event(missing, space)


def _missing_event(flags: int, n: int) -> Optional[int]:
    # is_inextendible on a flag set: the smallest mask comparable to no
    # flagged event, or None when there is none
    comparable = (
        subset_closure(flags, n, "up") | subset_closure(flags, n, "down") | 1
    )
    if comparable == (1 << (1 << n)) - 1:
        return None
    # the lowest clear bit of comparable is the smallest missing event
    return (~comparable & (comparable + 1)).bit_length() - 1


def _inextendible_bitsets(n: int) -> np.ndarray:
    """``enumerate_inextendible``, each antichain one uint64 with bit v for
    mask v + 1: the maximal cliques of the incomparability graph, by
    Bron-Kerbosch with Tomita's pivot (TCS 363 (2006) 28-42).

    Nodes (r, p, x) of three vertex bitsets are expanded an array at a
    time: v in ``cand = p & ~adj[pivot]`` has the child ``r | bit(v)``,
    ``p & ~before & adj[v]``, ``(x | before) & adj[v]``, ``before`` the
    candidates below v.  Children with P empty are leaves or dead ends;
    the rest wait on a LIFO stack of arrays of ``_CHUNK`` nodes or less.
    """
    if n > HARD_ENUM_MAX_N:
        raise ResourceLimitError(
            f"enumeration over n={n} exceeds the cap n <= {HARD_ENUM_MAX_N}"
        )
    # vertex i stands for mask i + 1; adj[i], its incomparable vertices
    masks = np.arange(1, 1 << n)
    inter = masks[:, None] & masks
    apart = (inter != masks) & (inter != masks[:, None])
    adj = apart @ (1 << np.arange(len(masks), dtype=np.uint64))
    stack = [tuple(np.array([[0], [(1 << len(adj)) - 1], [0]], np.uint64))]
    found = []
    while stack:
        r, p, x = stack.pop()
        # 1 + |P & adj[u]| for u in P u X, else 0; argmax takes the lowest
        score = np.bitwise_count(p[:, None] & adj) + 1
        cand = p & ~adj[(score * _bit_rows(p | x)[:, : len(adj)]).argmax(1)]
        # one child per (node, candidate v), 64 bits to a node's row
        hit = np.flatnonzero(_bit_rows(cand).view(bool)).astype(np.uint64)
        node, v = hit >> 6, hit & 63
        bit = 1 << v
        r, before = r[node] | bit, cand[node] & (bit - 1)
        p, x = p[node] & ~before & adj[v], (x[node] | before) & adj[v]
        found.append(r[(p | x) == 0])
        live = p != 0
        r, p, x = r[live], p[live], x[live]
        for start in range(0, len(r), _CHUNK):
            stack.append(tuple(a[start : start + _CHUNK] for a in (r, p, x)))
    bitsets = np.concatenate(found)
    # sorted member tuples first differ at the lowest vertex in just one
    # of them, which comes first; packed big-endian, it is the top bit
    key = np.packbits(_bit_rows(bitsets), axis=1).view(">u8").ravel()
    return bitsets[np.argsort(key)[::-1]]


def _members(bitsets: np.ndarray, table: Sequence) -> list[list]:
    # per bitset, table[m] for each member mask m, ascending
    flat = [table[m] for m in (np.nonzero(_bit_rows(bitsets))[1] + 1).tolist()]
    ends = np.cumsum(np.bitwise_count(bitsets)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def enumerate_inextendible(space: HistorySpace) -> Iterator[Antichain]:
    """Yield every inextendible antichain of the space exactly once,
    ordered lexicographically by sorted element masks.

    The walk visits all 2^n - 1 nonempty events, so it is capped at
    n <= HARD_ENUM_MAX_N = 6, where it yields 31,745 antichains.
    """
    # one Event per mask, shared by the 255,475 members at n = 6
    events = [Event(m, space) for m in range(1 << space.n)]
    for masks in _members(_inextendible_bitsets(space.n), range(64)):
        yield _antichain_unchecked(space, masks, events)


@lru_cache(maxsize=HARD_ENUM_MAX_N)
def _label_table(n: int) -> tuple[list[int], ...]:
    # one label list per mask, shared (to serialize, not to edit) by every
    # report that lists the mask: an n = 6 scan lists 255,475 members, and
    # as many fresh lists would be more objects for the collector to walk
    space = HistorySpace(n)
    return tuple(list(Event(m, space).labels) for m in range(1 << n))


@dataclass(frozen=True)
class PivotDecomposition(JsonRecord):
    """Split of an antichain around one of its occupied levels.

    ``free_labels`` are the fine-grained histories that appear in no
    off-pivot element; ``base_level`` is the lowest level among the pivot
    and the part below it; ``bound_met`` records whether the number of
    free labels reaches pivot - base_level + 1, the threshold under which
    the whittling argument applies.
    """

    pivot: int
    at_pivot: tuple[Event, ...]
    below: tuple[Event, ...]
    above: tuple[Event, ...]
    free_labels: tuple[int, ...]
    free_count: int
    base_level: int
    bound_met: bool


def _level_split(n: int, unions: np.ndarray) -> tuple[np.ndarray, ...]:
    # classify on rows of level unions (column k: the members on level k)
    # -> base level (the lowest occupied), per level free mask, bound_met
    before = np.bitwise_or.accumulate(unions, axis=1)
    after = np.bitwise_or.accumulate(unions[:, ::-1], axis=1)[:, ::-1]
    off = np.zeros_like(unions)
    off[:, 1:] |= before[:, :-1]
    off[:, :-1] |= after[:, 1:]
    free = ((1 << n) - 1) & ~off
    base = (unions != 0).argmax(axis=1)
    need = np.arange(n + 1) - base[:, None] + 1
    return base, free, (unions != 0) & (np.bitwise_count(free) >= need)


def _level_unions(n: int, masks: Sequence, held: Sequence) -> np.ndarray:
    # _level_split's rows: held[j] flags the rows holding masks[j] (a 0/1
    # vector, or 1 for a single row), each mask ORed into its level's column
    unions = [held[0] * 0] * (n + 1)
    for m, rows in zip(masks, held):
        unions[m.bit_count()] = unions[m.bit_count()] | rows * m
    return np.array(unions, dtype=np.int64).reshape(n + 1, -1).T


def classify(ac: Antichain) -> tuple[PivotDecomposition, ...]:
    """One :class:`PivotDecomposition` per occupied level, ascending.

    The caller is expected to pass an inextendible antichain; the split
    itself is well defined for any antichain and is not re-verified here.
    """
    space = ac.space
    unions = _level_unions(space.n, ac.masks, [1] * len(ac))
    base, free, bound_met = _level_split(space.n, unions)
    out = []
    for k in ac.levels():
        free_labels = Event(int(free[0, k]), space).labels
        out.append(
            PivotDecomposition(
                pivot=k,
                at_pivot=tuple(e for e in ac.elements if e.cardinality == k),
                below=tuple(e for e in ac.elements if e.cardinality < k),
                above=tuple(e for e in ac.elements if e.cardinality > k),
                free_labels=free_labels,
                free_count=len(free_labels),
                base_level=int(base[0]),
                bound_met=bool(bound_met[0, k]),
            )
        )
    return tuple(out)


GENERATOR_KINDS = ("level", "coatom_pair", "bowtie", "windmill", "straddle")

# the one integer parameter of each kind that takes one, with what it
# means when the CLI asks for it as --k (None: the flag's name says it)
GENERATOR_PARAMS = {
    "level": ("k", None),
    "windmill": ("m", "the block count"),
    "straddle": ("l", "the band level"),
}


def generate(space: HistorySpace, kind: str, **params) -> Antichain:
    """Build one of the structured inextendible antichain families.

    kind="level", k=...     every event of cardinality k
    kind="coatom_pair"      the two coatoms missing label 1 resp. 2, plus
                            every (n-2)-set containing both 1 and 2 (n > 3)
    kind="bowtie"           two blocks of size (n+1)/2 sharing label 1,
                            plus the cross pairs between them (odd n >= 5)
    kind="windmill", m=...  m blocks of size (n-1)/m + 1 sharing label 1,
                            plus all pairs straddling two blocks
    kind="straddle", l=...  two (n-2)-sets, a band of l-sets around labels
                            1..3, and the pair {1,3} (n >= 5, 3 <= l <= n-2)

    Every result is re-verified to be an inextendible antichain before it
    is returned; a failure is an internal bug, not a user error.
    """
    n = space.n
    if kind not in GENERATOR_KINDS:
        raise ValueError(
            f"unknown antichain kind {kind!r}; choose from {GENERATOR_KINDS}"
        )
    name, _ = GENERATOR_PARAMS.get(kind, (None, None))
    if name is not None:
        if name not in params:
            raise ValueError(f"missing required parameter {name!r}")
        value = params[name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"parameter {name!r} must be an integer, got {value!r}")
    extra = set(params) - {name}
    if extra:
        raise ValueError(f"unexpected parameters: {sorted(extra)}")

    if kind == "level":
        k = value
        if not 1 <= k <= n:
            raise ValueError(f"level k={k} out of range 1..{n}")
        ac = _antichain_unchecked(space, _gosper_masks(n, k))
        if len(ac) != math.comb(n, k):
            raise ConsistencyError("level family has the wrong size")
        # a full level is maximal by construction: any event of another
        # cardinality contains, or is contained in, a set of this level
        return ac

    if kind == "coatom_pair":
        if n <= 3:
            raise ValueError("coatom_pair requires n > 3")
        full = space.full_mask
        masks = {full & ~1, full & ~2}
        for i, j in combinations(range(2, n), 2):
            masks.add(full & ~((1 << i) | (1 << j)))
        return _checked_family(space, masks, kind)

    if kind == "bowtie":
        if n < 5 or n % 2 == 0:
            raise ValueError("bowtie requires odd n >= 5")
        return generate(space, "windmill", m=2)

    if kind == "windmill":
        m = value
        if m < 2:
            raise ValueError("windmill requires m >= 2")
        if (n - 1) % m != 0:
            raise ValueError(f"windmill requires m to divide n-1={n - 1}")
        blade = (n - 1) // m
        if blade < 2:
            raise ValueError("windmill requires blocks of at least 2 labels")
        blocks = [
            [j * blade + 2 + t for t in range(blade)] for j in range(m)
        ]
        masks = set()
        for block in blocks:
            masks.add(1 | _mask_of(block))
        for bi, bj in combinations(blocks, 2):
            for x in bi:
                for y in bj:
                    masks.add(_mask_of([x, y]))
        return _checked_family(space, masks, kind)

    if kind == "straddle":
        l = value
        if n < 5:
            raise ValueError("straddle requires n >= 5")
        if not 3 <= l <= n - 2:
            raise ValueError(f"straddle requires 3 <= l <= {n - 2}, got l={l}")
        full = space.full_mask
        tail = list(range(4, n + 1))
        masks = {full & ~_mask_of([1, 2]), full & ~_mask_of([2, 3])}
        for t in combinations(tail, l - 2):
            masks.add(_mask_of([1, 2]) | _mask_of(t))
            masks.add(_mask_of([2, 3]) | _mask_of(t))
        for t in combinations(tail, l - 1):
            masks.add(_mask_of([2]) | _mask_of(t))
        masks.add(_mask_of([1, 3]))
        return _checked_family(space, masks, kind)


def _mask_of(labels: Iterable[int]) -> int:
    m = 0
    for lab in labels:
        m |= 1 << (lab - 1)
    return m


def _checked_family(space: HistorySpace, masks: set[int], kind: str) -> Antichain:
    if space.n > GENERATOR_MAX_N:
        raise ResourceLimitError(
            f"family generators re-verify over all 2^n events and are"
            f" capped at n <= {GENERATOR_MAX_N}"
        )
    ac = Antichain(Event(m, space) for m in masks)
    ok, witness = is_inextendible(ac)
    if not ok:
        raise ConsistencyError(
            f"generated {kind} family is extendible by {witness!r}"
        )
    return ac
