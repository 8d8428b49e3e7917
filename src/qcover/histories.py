"""Finite history spaces and the events built over them.

A history space is the set of fine-grained histories labelled ``1..n``.
An event is any subset of those labels, stored as a bitmask in which bit
``i-1`` stands for label ``i``.  Everything here is immutable and hashable,
and events are canonically ordered by mask value so that enumerations are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError, SpaceMismatchError

MAX_HISTORIES = 24

# closure() can touch every one of the 2^n events, so it declares its own cap
CLOSURE_MAX_N = 20


class JsonRecord:
    """Base of the frozen dataclasses whose JSON is their field dict.

    ``to_json`` maps each field name to its value: an object with its own
    ``to_json`` is serialized by it, a ``Fraction`` becomes its string,
    and a tuple becomes a list of converted items.  Anything else, lists
    and dicts included, passes through unwalked, so those must already
    be JSON.
    """

    def to_json(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(value):
    # lists and dicts are not walked: an n = 6 scan report holds 27,112
    # uncertified entries, and walking them would cost a scan request
    # about a quarter of its throughput
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


_INT_ONLY = frozenset((int,))
_FLOAT_ONLY = frozenset((float,))
_LITERALS = {None: "null", True: "true", False: "false"}
# json's spellings of the floats that float.__repr__ writes as nan and inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(obj, write: Callable[[str], object], ind: str = "",
                lead: str = "", memo: dict | None = None) -> None:
    """Write ``obj`` as ``json.dump(obj, fh, indent=2, sort_keys=True)``.

    The bytes are the same, and ``write`` is ``fh.write``.  Dicts go out
    key by key and lists item by item, so no more than one leaf's text is
    held at a time: an n = 6 scan report is about 20 MB of text.  ``lead``
    (a separator, a key) goes out in one write with the value's first
    chunk.  A list of exact ints is joined in one call, which is most of
    that report; inside a list, so is a list of exact floats.  Types are
    tested as ``json`` tests them, so ``True`` prints ``true`` and a float
    subclass prints as a float.  Unsupported values and non-``str`` keys
    raise TypeError.  ``memo`` holds, for one top-level call, the text of
    each int list (no bools: ``True == 1``) met inside a list, by indentation,
    then by values and by ``id``, which no other object reuses in the call.
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            write(lead + "[]")
            return
        inner = ind + "  "
        sep = ",\n" + inner
        if _INT_ONLY.issuperset(map(type, obj)):
            write(f"{lead}[\n{inner}{sep.join(map(int.__repr__, obj))}\n{ind}]")
            return
        if memo is None:
            memo = {}
        texts = memo.setdefault(inner, {})
        # int lists all met before, such as a scan entry's labels: one write
        if id(obj[0]) in texts:
            known = list(map(texts.get, map(id, obj)))
            if None not in known:
                write(f"{lead}[\n{inner}{sep.join(known)}\n{ind}]")
                return
        deeper = inner + "  "
        deeper_sep = ",\n" + deeper
        head = f"{lead}[\n{inner}"
        for value in obj:
            # the int-list case above, without a call and at most once per
            # distinct list: an n = 6 scan report has 255,475 label lists
            # inside lists, drawn from 63
            if (type(value) is list and value
                    and _INT_ONLY.issuperset(map(type, value))):
                text = texts.get(id(value)) or texts.get(key := tuple(value))
                if text is None:
                    body = deeper_sep.join(map(int.__repr__, value))
                    text = texts[key] = f"[\n{deeper}{body}\n{inner}]"
                texts[id(value)] = text
                write(head + text)
            elif (type(value) is list and value
                    and _FLOAT_ONLY.issuperset(map(type, value))):
                # a witness entry [re, im], also without a call; floats
                # are not memoized, since 0.0 == -0.0
                body = deeper_sep.join(
                    [_NON_FINITE.get(t, t) for t in map(float.__repr__, value)]
                )
                write(f"{head}[\n{deeper}{body}\n{inner}]")
            else:
                _write_json(value, write, inner, head, memo)
            head = sep
        write(f"\n{ind}]")
    elif isinstance(obj, dict):
        if not obj:
            write(lead + "{}")
            return
        if memo is None:
            memo = {}
        inner = ind + "  "
        sep = ",\n" + inner
        head = f"{lead}{{\n{inner}"
        for key in sorted(obj):
            # encode_basestring_ascii raises TypeError on a non-str key
            _write_json(obj[key], write, inner,
                        f"{head}{encode_basestring_ascii(key)}: ", memo)
            head = sep
        write(f"\n{ind}}}")
    elif isinstance(obj, str):
        write(lead + encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        write(lead + _LITERALS[obj])
    elif isinstance(obj, int):
        write(lead + int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        write(lead + _NON_FINITE.get(text, text))
    else:
        raise TypeError(
            f"Object of type {obj.__class__.__name__} is not JSON serializable"
        )


@dataclass(frozen=True)
class HistorySpace(JsonRecord):
    """The set of fine-grained histories {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"history count must be an integer, got {self.n!r}")
        if not 1 <= self.n <= MAX_HISTORIES:
            raise ValueError(
                f"history count must be in 1..{MAX_HISTORIES}, got {self.n}"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)

    def event(self, labels: Iterable[int]) -> Event:
        """Build the event holding exactly the given 1-based labels."""
        mask = 0
        for lab in labels:
            if not isinstance(lab, int) or isinstance(lab, bool):
                raise ValueError(f"label must be an integer, got {lab!r}")
            if not 1 <= lab <= self.n:
                raise ValueError(f"label {lab} outside 1..{self.n}")
            mask |= 1 << (lab - 1)
        return Event(mask, self)

    def event_from_mask(self, mask: int) -> Event:
        return Event(mask, self)

    def omega(self) -> Event:
        """The sure event: every fine-grained history."""
        return Event(self.full_mask, self)

    def empty(self) -> Event:
        return Event(0, self)

    def singletons(self) -> tuple[Event, ...]:
        return tuple(Event(1 << i, self) for i in range(self.n))

    @classmethod
    def from_json(cls, data: dict) -> HistorySpace:
        return cls(data["n"])


@dataclass(frozen=True)
class Event:
    """A subset of fine-grained histories, held as a bitmask."""

    mask: int
    space: HistorySpace

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.space.full_mask:
            raise ValueError(
                f"mask {self.mask:#x} out of range for n={self.space.n}"
            )

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    @property
    def labels(self) -> tuple[int, ...]:
        # walks the set bits only, lowest first: low.bit_length() is the
        # 1-based label of the lowest one
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length())
            m ^= low
        return tuple(out)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __contains__(self, label: int) -> bool:
        return 1 <= label <= self.space.n and bool((self.mask >> (label - 1)) & 1)

    def issubset(self, other: Event) -> bool:
        self._check_space(other)
        return self.mask & other.mask == self.mask

    def issuperset(self, other: Event) -> bool:
        self._check_space(other)
        return self.mask & other.mask == other.mask

    def comparable(self, other: Event) -> bool:
        """True when one event contains the other (equality included)."""
        inter = self.mask & other.mask
        self._check_space(other)
        return inter == self.mask or inter == other.mask

    def isdisjoint(self, other: Event) -> bool:
        self._check_space(other)
        return self.mask & other.mask == 0

    def union(self, other: Event) -> Event:
        self._check_space(other)
        return Event(self.mask | other.mask, self.space)

    def intersection(self, other: Event) -> Event:
        self._check_space(other)
        return Event(self.mask & other.mask, self.space)

    def difference(self, other: Event) -> Event:
        self._check_space(other)
        return Event(self.mask & ~other.mask, self.space)

    def complement(self) -> Event:
        return Event(self.space.full_mask & ~self.mask, self.space)

    def _check_space(self, other: Event) -> None:
        if self.space != other.space:
            raise SpaceMismatchError(
                f"events live in different spaces: n={self.space.n} vs n={other.space.n}"
            )

    def to_json(self) -> list[int]:
        """Serialize as the ascending list of 1-based labels."""
        return list(self.labels)

    @classmethod
    def from_json(cls, space: HistorySpace, data: Iterable[int]) -> Event:
        return space.event(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ",".join(str(x) for x in self.labels) if self.mask else "/"
        return f"Event{{{body}}}"


def _gosper_masks(n: int, k: int) -> Iterator[int]:
    # all n-bit masks of popcount k in ascending order (Gosper's hack)
    if k == 0:
        yield 0
        return
    limit = 1 << n
    v = (1 << k) - 1
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)


def level_elements(space: HistorySpace, k: int) -> list[Event]:
    """All events of cardinality k, ascending by mask.

    Returns C(n, k) events; k may be 0 (the empty event alone) or n (the
    sure event alone).
    """
    if not 0 <= k <= space.n:
        raise ValueError(f"level {k} out of range 0..{space.n}")
    return [Event(m, space) for m in _gosper_masks(space.n, k)]


def shadow(space: HistorySpace, a: Event, k: int) -> list[Event]:
    """The level-k shadow of ``a``: its k-subsets when k is below the
    cardinality of ``a``, its k-supersets when k is above it.

    The shadow is only defined across levels, so ``cardinality(a) == k``
    is rejected.  Output is ascending by mask and has size
    C(card, k) below or C(n - card, k - card) above.
    """
    if a.space != space:
        raise SpaceMismatchError("event does not belong to the given space")
    if not 0 < k < space.n:
        raise ValueError(f"shadow level {k} out of range 1..{space.n - 1}")
    card = a.cardinality
    if card == k:
        raise ValueError("shadow is undefined at the event's own level")
    if card > k:
        masks = (
            sum(1 << (lab - 1) for lab in combo)
            for combo in combinations(a.labels, k)
        )
    else:
        free = [lab for lab in space.labels if lab not in a]
        masks = (
            a.mask | sum(1 << (lab - 1) for lab in combo)
            for combo in combinations(free, k - card)
        )
    return [Event(m, space) for m in sorted(masks)]


@lru_cache(maxsize=MAX_HISTORIES + 1)
def _lanes(n: int) -> tuple[int, ...]:
    # lanes[i] has bit m set for every mask m < 2^n with bit i clear: a run
    # of 2^i ones, then 2^i zeros, repeated by doubling the pattern's width
    # (n lanes of 2^n bits each, 2.6 MB at n = 20, kept per n)
    size = 1 << n
    lanes = []
    for i in range(n):
        lane = (1 << (1 << i)) - 1
        width = 2 << i
        while width < size:
            lane |= lane << width
            width <<= 1
        lanes.append(lane)
    return tuple(lanes)


def pack_flags(masks: Iterable[int], n: int) -> int:
    """The flag set of the given event masks over an n-history space.

    The bits go into a bytearray and become one int at the end, since
    ORing ``1 << m`` into the int would copy all 2^n bits per mask.
    """
    buf = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def subset_closure(
    flags: int, n: int, direction: str, *, strict: bool = False
) -> int:
    """Close a flag set over an n-history space upward or downward.

    A flag set packs one bit per event into a Python int: bit m set means
    the event with mask m is flagged, so it lies in 0..2^(2^n) - 1.  With
    ``"up"`` an event comes out flagged when some flagged event lies
    inside it, with ``"down"`` when some flagged event contains it.  This
    is the OR zeta transform over the subset lattice, O(n 2^n) bit
    operations: per bit i, one shift by 2^i under the lane of masks with
    bit i clear ORs every event into its neighbour across bit i, all 2^n
    at once.  The lanes are built once per n.  With ``strict=True`` only
    proper subsets (or supersets) count: the closed set is shifted once
    per bit into a fresh int, so ``flags & ~subset_closure(flags, n, "up",
    strict=True)`` selects the minimal flagged events and ``"down"`` the
    maximal ones.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    if not 0 <= flags < 1 << (1 << n):
        raise ValueError(f"flag set out of range for n={n}")
    up = direction == "up"

    def step(x: int, i: int, lane: int) -> int:
        # every bit of x moved to its neighbour across bit i, set ("up")
        # or cleared ("down")
        return (x & lane) << (1 << i) if up else (x >> (1 << i)) & lane

    lanes = _lanes(n)
    closed = flags
    for i, lane in enumerate(lanes):
        closed |= step(closed, i, lane)
    if not strict:
        return closed
    proper = 0
    for i, lane in enumerate(lanes):
        proper |= step(closed, i, lane)
    return proper


def _set_bits(flags: int) -> list[int]:
    """The flagged masks of a flag set, ascending."""
    raw = np.frombuffer(
        flags.to_bytes((flags.bit_length() + 7) // 8, "little"), dtype=np.uint8
    )
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def _bit_rows(words: np.ndarray) -> np.ndarray:
    # one 0/1 row of 64 per uint64 word, bit v in column v
    raw = words.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(raw, axis=1, bitorder="little")


def closure(
    space: HistorySpace, events: Iterable[Event], direction: str
) -> set[Event]:
    """Upward or downward closure of a family of nonempty events.

    The input events are included in the result; the empty event never is.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    if space.n > CLOSURE_MAX_N:
        raise ResourceLimitError(
            f"closure enumerates up to 2^n events; n={space.n} exceeds the"
            f" cap of {CLOSURE_MAX_N}"
        )
    seeds = list(events)
    if not seeds:
        raise ValueError("closure needs at least one event")
    for e in seeds:
        if e.space != space:
            raise SpaceMismatchError("event does not belong to the given space")
        if e.mask == 0:
            raise ValueError("closure is defined over nonempty events")
    flags = pack_flags((e.mask for e in seeds), space.n)
    closed = subset_closure(flags, space.n, direction) & ~1
    return {Event(m, space) for m in _set_bits(closed)}
