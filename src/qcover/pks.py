"""The Peres 33-ray construction and its coloring combinatorics.

Rays live in Z[sqrt(2)]^3 with each coordinate stored as an integer pair
(a, b) meaning a + b*sqrt(2), so orthogonality is decided exactly.  A
coloring paints every ray red or green; the obstruction events are "all
three rays of a basis red" and "both rays of an orthogonal pair green".
The backtracking search shows no coloring avoids every obstruction
(the Kochen-Specker contradiction), which makes the obstruction family
a cover of the coloring space.  ``witness_check`` then verifies,
mechanically, that the family is an antichain yet fails to be
inextendible: a two-element set of colorings is comparable to none of
its members.  Events and colorings are 33-bit ray masks, so each of the
3,828 pair relations is a few integer membership tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConsistencyError, ResourceLimitError
from .histories import JsonRecord

RAY_COUNT = 33
BASIS_COUNT = 16

# sample_coverage holds about 18 bytes per sample at once (the masks, the
# coverage flags and one event's temporaries), about 180 MB at the cap
SAMPLE_MAX = 10_000_000

Zr2 = tuple[int, int]

_GREEN = 1
_RED = 0


def _zr2_mul(x: Zr2, y: Zr2) -> Zr2:
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _zr2_is_positive(x: Zr2) -> bool:
    a, b = x
    if a == 0:
        return b > 0
    if b == 0:
        return a > 0
    if a > 0:
        return b > 0 or a * a > 2 * b * b
    return b > 0 and 2 * b * b > a * a


def _zr2_str(x: Zr2) -> str:
    a, b = x
    if b == 0:
        return str(a)
    root = "sqrt2" if abs(b) == 1 else f"{abs(b)}*sqrt2"
    sign = "-" if b < 0 else ""
    if a == 0:
        return f"{sign}{root}"
    joiner = "-" if b < 0 else "+"
    return f"{a}{joiner}{root}"


@dataclass(frozen=True, order=True)
class Ray:
    """A direction in Z[sqrt(2)]^3, stored in canonical form."""

    components: tuple[Zr2, Zr2, Zr2]

    @classmethod
    def canonical(cls, components: Iterable[Zr2]) -> "Ray":
        comps = [(int(a), int(b)) for a, b in components]
        if len(comps) != 3:
            raise ValueError("a ray has exactly three components")
        if all(c == (0, 0) for c in comps):
            raise ValueError("the zero vector is not a ray")
        for _ in range(64):
            g = math.gcd(*(abs(v) for c in comps for v in c))
            if g > 1:
                comps = [(a // g, b // g) for a, b in comps]
                continue
            if all(a % 2 == 0 for a, _ in comps):
                # divide by sqrt(2): a + b*sqrt2 -> b + (a/2)*sqrt2
                comps = [(b, a // 2) for a, b in comps]
                continue
            break
        else:
            raise ConsistencyError("ray canonicalization failed to settle")
        lead = next(c for c in comps if c != (0, 0))
        if not _zr2_is_positive(lead):
            comps = [(-a, -b) for a, b in comps]
        return cls(tuple(comps))

    def dot(self, other: "Ray") -> Zr2:
        a = b = 0
        for x, y in zip(self.components, other.components):
            da, db = _zr2_mul(x, y)
            a += da
            b += db
        return (a, b)

    def is_orthogonal(self, other: "Ray") -> bool:
        return self.dot(other) == (0, 0)

    def to_json(self) -> list:
        return [[a, b] for a, b in self.components]

    def __str__(self) -> str:
        return "(" + ", ".join(_zr2_str(c) for c in self.components) + ")"


def peres_rays() -> tuple[Ray, ...]:
    """The 33 rays, canonical and sorted.

    Generated as every permutation and sign assignment of the component
    multisets {0,0,1}, {0,1,1}, {0,1,sqrt2}, {1,1,sqrt2}, deduplicated
    by canonical form.  The count is asserted.
    """
    one: Zr2 = (1, 0)
    zero: Zr2 = (0, 0)
    root: Zr2 = (0, 1)
    seeds = (
        (zero, zero, one),
        (zero, one, one),
        (zero, one, root),
        (one, one, root),
    )
    raw = set()
    for seed in seeds:
        for signs in product((1, -1), repeat=3):
            comps = tuple((s * a, s * b) for s, (a, b) in zip(signs, seed))
            for perm in permutations(comps):
                raw.add(Ray.canonical(perm))
    rays = tuple(sorted(raw))
    if len(rays) != RAY_COUNT:
        raise ConsistencyError(
            f"ray generation produced {len(rays)} rays instead of {RAY_COUNT}"
        )
    return rays


@dataclass(frozen=True)
class Basis:
    """Three mutually orthogonal rays, referenced by index."""

    indices: tuple[int, int, int]
    rays: tuple[Ray, Ray, Ray]

    def to_json(self) -> list[int]:
        return list(self.indices)


@dataclass(frozen=True)
class OrthogonalStructure(JsonRecord):
    """The rays with every orthogonal basis and every orthogonal pair."""

    rays: tuple[Ray, ...]
    bases: tuple[Basis, ...]
    pairs: tuple[tuple[int, int], ...]


def orthogonal_structure(rays: Sequence[Ray]) -> OrthogonalStructure:
    """All orthogonal pairs and triples among the given rays.

    Intended for the Peres set: the basis count is asserted to be 16 and
    every ray is asserted to sit in at least one basis.
    """
    rays = tuple(rays)
    n = len(rays)
    ortho = [[False] * n for _ in range(n)]
    pairs = []
    for i, j in combinations(range(n), 2):
        if rays[i].is_orthogonal(rays[j]):
            ortho[i][j] = ortho[j][i] = True
            pairs.append((i, j))
    bases = []
    for i, j in combinations(range(n), 2):
        if not ortho[i][j]:
            continue
        for k in range(j + 1, n):
            if ortho[i][k] and ortho[j][k]:
                bases.append(
                    Basis(indices=(i, j, k), rays=(rays[i], rays[j], rays[k]))
                )
    if len(bases) != BASIS_COUNT:
        raise ConsistencyError(
            f"found {len(bases)} orthogonal bases instead of {BASIS_COUNT}"
        )
    in_basis = set()
    for b in bases:
        in_basis.update(b.indices)
    if in_basis != set(range(n)):
        raise ConsistencyError("some ray belongs to no orthogonal basis")
    return OrthogonalStructure(rays=rays, bases=tuple(bases), pairs=tuple(pairs))


@lru_cache(maxsize=1)
def peres_structure() -> OrthogonalStructure:
    """``orthogonal_structure(peres_rays())``, built once per process.

    The structure is a frozen dataclass of tuples, so every caller can
    share the one object.
    """
    return orthogonal_structure(peres_rays())


@dataclass(frozen=True)
class Coloring:
    """A total red/green assignment to the 33 rays; bit set = green."""

    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < 1 << RAY_COUNT:
            raise ValueError("coloring mask out of range")

    def is_green(self, index: int) -> bool:
        return bool((self.mask >> index) & 1)

    def green_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(RAY_COUNT) if (self.mask >> i) & 1)

    def to_json(self) -> dict:
        return {"green": list(self.green_indices())}


@dataclass(frozen=True)
class PKSEvent:
    """A predicate-defined event on coloring space.

    kind "red_basis": every ray of one basis is red.
    kind "green_pair": both rays of one orthogonal pair are green.
    ``bits`` holds the event's rays as a bitmask, set once when the event
    is built.
    """

    kind: str
    indices: tuple[int, ...]
    bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("red_basis", "green_pair"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        want = 3 if self.kind == "red_basis" else 2
        if len(self.indices) != want or len(set(self.indices)) != want:
            raise ValueError("event has the wrong number of distinct rays")
        object.__setattr__(self, "bits", sum(1 << i for i in self.indices))

    def holds(self, mask: int) -> bool:
        """Membership of the coloring whose green rays are ``mask``: the
        one bit test every membership claim goes through.  A uint64 array
        of masks is answered elementwise."""
        return mask & self.bits == (0 if self.kind == "red_basis" else self.bits)

    def contains(self, coloring: Coloring) -> bool:
        return self.holds(coloring.mask)

    def size(self) -> int:
        """Exact number of colorings in the event."""
        return 1 << (RAY_COUNT - len(self.indices))

    def to_json(self) -> dict:
        return {"kind": self.kind, "rays": list(self.indices)}


def pks_events(structure: OrthogonalStructure) -> tuple[PKSEvent, ...]:
    """The full obstruction family: one red_basis event per basis, one
    green_pair event per orthogonal pair."""
    out = [PKSEvent("red_basis", b.indices) for b in structure.bases]
    out.extend(PKSEvent("green_pair", p) for p in structure.pairs)
    return tuple(out)


def _refuted(e1: PKSEvent, e2: PKSEvent) -> ConsistencyError:
    return ConsistencyError(
        f"countercoloring check failed for {e1.kind}{e1.indices}"
        f" against {e2.kind}{e2.indices}"
    )


def pks_comparability(e1: PKSEvent, e2: PKSEvent) -> str:
    """Containment relation between two obstruction events, decided on
    their ray bitmasks and confirmed with explicit countercolorings.

    Every event of one kind constrains the same number of rays (three
    per basis, two per pair), so two events of one kind are ``equal``
    when their rays are and ``incomparable`` otherwise; events of
    different kinds are always incomparable.  An equal pair is confirmed
    by a coloring in both, an incomparable pair by two colorings each in
    one event and not the other.
    """
    full = (1 << RAY_COUNT) - 1
    red_first = e1.kind == "red_basis"
    if e1.kind != e2.kind:
        w1, w2 = (0, full) if red_first else (full, 0)
    elif e1.bits == e2.bits:
        probe = 0 if red_first else full
        if e1.holds(probe) and e2.holds(probe):
            return "equal"
        raise _refuted(e1, e2)
    elif red_first:
        # all red but for one ray of the other basis
        only2, only1 = e2.bits & ~e1.bits, e1.bits & ~e2.bits
        w1, w2 = only2 & -only2, only1 & -only1
    else:
        w1, w2 = e1.bits, e2.bits  # only the event's own pair green
    if e1.holds(w1) and not e2.holds(w1) and e2.holds(w2) and not e1.holds(w2):
        return "incomparable"
    raise _refuted(e1, e2)


@dataclass(frozen=True)
class SearchStats(JsonRecord):
    nodes: int
    propagations: int
    backtracks: int
    elapsed_ms: float


@dataclass(frozen=True)
class SearchOutcome(JsonRecord):
    satisfiable: bool
    coloring: Optional[Coloring]
    stats: SearchStats


def search_consistent_coloring(
    structure: Optional[OrthogonalStructure] = None,
    *,
    restrict: Optional[Iterable[int]] = None,
) -> SearchOutcome:
    """Backtracking search for a coloring avoiding every obstruction.

    Constraints (over the restricted ray set, default all 33): no basis
    wholly inside the set has all three rays red, and no orthogonal pair
    inside the set has both rays green.  Together these force exactly
    one green per contained basis.  Rays are tried in descending order
    of basis membership; assigning green turns every orthogonal partner
    red, and a basis with two reds forces its third ray green.  On the
    full Peres set the search is unsatisfiable.

    A satisfiable outcome reports one witness coloring with every
    unrestricted ray painted red.
    """
    st = structure if structure is not None else peres_structure()
    n = len(st.rays)
    if restrict is None:
        active = list(range(n))
    else:
        active = sorted(set(int(i) for i in restrict))
        if active and (active[0] < 0 or active[-1] >= n):
            raise ValueError("restricted ray index out of range")
        if not active:
            raise ValueError("restriction must keep at least one ray")
    active_set = set(active)
    bases = [b.indices for b in st.bases if set(b.indices) <= active_set]
    pairs = [p for p in st.pairs if p[0] in active_set and p[1] in active_set]

    partners: dict[int, list[int]] = {i: [] for i in active}
    for i, j in pairs:
        partners[i].append(j)
        partners[j].append(i)
    in_bases: dict[int, list[int]] = {i: [] for i in active}
    for bi, b in enumerate(bases):
        for i in b:
            in_bases[i].append(bi)
    order = sorted(active, key=lambda i: (-len(in_bases[i]), i))

    color: dict[int, int] = {}
    trail: list[int] = []
    stats = {"nodes": 0, "propagations": 0, "backtracks": 0}

    def assign(i: int, c: int) -> bool:
        got = color.get(i)
        if got is not None:
            return got == c
        color[i] = c
        trail.append(i)
        stats["propagations"] += 1
        if c == _GREEN:
            for j in partners[i]:
                if not assign(j, _RED):
                    return False
        for bi in in_bases[i]:
            vals = [color.get(r) for r in bases[bi]]
            reds = vals.count(_RED)
            if reds == 3:
                return False
            if reds == 2 and vals.count(None) == 1:
                missing = next(
                    r for r in bases[bi] if color.get(r) is None
                )
                if not assign(missing, _GREEN):
                    return False
        return True

    def dfs(pos: int) -> bool:
        while pos < len(order) and order[pos] in color:
            pos += 1
        if pos == len(order):
            return True
        stats["nodes"] += 1
        ray = order[pos]
        for c in (_GREEN, _RED):
            mark = len(trail)
            if assign(ray, c) and dfs(pos + 1):
                return True
            while len(trail) > mark:
                del color[trail.pop()]
            stats["backtracks"] += 1
        return False

    t0 = time.perf_counter()
    sat = dfs(0)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    witness = None
    if sat:
        witness = Coloring(sum(1 << i for i, c in color.items() if c == _GREEN))
        for b in bases:
            if PKSEvent("red_basis", b).holds(witness.mask):
                raise ConsistencyError("search returned a coloring with an all-red basis")
        for p in pairs:
            if PKSEvent("green_pair", p).holds(witness.mask):
                raise ConsistencyError("search returned a coloring with a green pair")
    return SearchOutcome(
        satisfiable=sat,
        coloring=witness,
        stats=SearchStats(**stats, elapsed_ms=elapsed_ms),
    )


@dataclass(frozen=True)
class WitnessReport(JsonRecord):
    """Mechanical verification that the obstruction family is an
    antichain but not an inextendible one."""

    canonical_basis: tuple[int, int, int]
    event_count: int
    bases_in_complement: int
    pairs_in_basis: int
    green_outside_memberships: int
    green_inside_memberships: int
    shared_memberships: int
    min_event_size: int
    antichain: bool
    inextendible: bool
    verdict: str


def witness_check(
    structure: Optional[OrthogonalStructure] = None,
) -> WitnessReport:
    """Verify, claim by claim, that the obstruction family fails to be
    an inextendible antichain.

    Two colorings are built from the coordinate basis B: one paints B
    red and everything else green, the other paints B green and
    everything else red.  Their exact event memberships are computed,
    the two-element set they form is shown to be comparable to no
    obstruction event, and the family itself is shown pairwise
    incomparable.  Every failed claim raises a consistency error.
    """
    st = structure if structure is not None else peres_structure()
    axis_rays = {
        Ray.canonical(((1, 0), (0, 0), (0, 0))),
        Ray.canonical(((0, 0), (1, 0), (0, 0))),
        Ray.canonical(((0, 0), (0, 0), (1, 0))),
    }
    axis_idx = {i for i, r in enumerate(st.rays) if r in axis_rays}
    if len(axis_idx) != 3:
        raise ConsistencyError("the coordinate axes are missing from the ray set")
    basis = next(
        (b for b in st.bases if set(b.indices) == axis_idx), None
    )
    if basis is None:
        raise ConsistencyError("the coordinate axes do not form a listed basis")
    basis_event = PKSEvent("red_basis", basis.indices)
    full = (1 << RAY_COUNT) - 1
    green_outside = Coloring(full & ~basis_event.bits)  # B red, the other 30 green
    green_inside = Coloring(basis_event.bits)  # B green, the other 30 red

    events = pks_events(st)
    if not basis_event.contains(green_outside):
        raise ConsistencyError("the red-basis event misses its own witness")

    bset = set(basis.indices)
    comp_bases = [b for b in st.bases if bset.isdisjoint(b.indices)]
    in_pairs = [p for p in st.pairs if set(p) <= bset]
    comp_pairs = [p for p in st.pairs if bset.isdisjoint(p)]
    if len(comp_bases) != 6:
        raise ConsistencyError(
            f"{len(comp_bases)} bases avoid the coordinate basis, expected 6"
        )
    if len(in_pairs) != 3:
        raise ConsistencyError(
            f"{len(in_pairs)} orthogonal pairs inside the coordinate basis,"
            " expected 3"
        )
    for p in comp_pairs:
        if not PKSEvent("green_pair", p).contains(green_outside):
            raise ConsistencyError("a pair outside the basis is not all green")
    for b in comp_bases:
        if not PKSEvent("red_basis", b.indices).contains(green_inside):
            raise ConsistencyError("a basis avoiding B is not all red under the flip")
    for p in in_pairs:
        if not PKSEvent("green_pair", p).contains(green_inside):
            raise ConsistencyError("a pair inside B is not all green under the flip")

    members_out = [e for e in events if e.contains(green_outside)]
    members_in = [e for e in events if e.contains(green_inside)]
    if len(members_out) != 1 + len(comp_pairs):
        raise ConsistencyError("unexpected extra memberships for the first witness")
    if len(members_in) != len(comp_bases) + len(in_pairs):
        raise ConsistencyError("unexpected extra memberships for the second witness")
    shared = [
        e for e in events if e.contains(green_outside) and e.contains(green_inside)
    ]
    if shared:
        raise ConsistencyError("some obstruction event contains both witnesses")
    min_size = min(e.size() for e in events)
    if min_size <= 2:
        raise ConsistencyError("an obstruction event is too small to exceed the pair")

    for a, b in combinations(events, 2):
        if pks_comparability(a, b) != "incomparable":
            raise ConsistencyError("two obstruction events are comparable")

    return WitnessReport(
        canonical_basis=basis.indices,
        event_count=len(events),
        bases_in_complement=len(comp_bases),
        pairs_in_basis=len(in_pairs),
        green_outside_memberships=len(members_out),
        green_inside_memberships=len(members_in),
        shared_memberships=0,
        min_event_size=min_size,
        antichain=True,
        inextendible=False,
        verdict="antichain: yes; inextendible: no",
    )


@dataclass(frozen=True)
class CoverageReport(JsonRecord):
    samples: int
    covered: int
    all_covered: bool


def sample_coverage(
    structure: Optional[OrthogonalStructure] = None,
    *,
    samples: int = 100_000,
    seed: int = 0,
) -> CoverageReport:
    """Check that seeded random colorings always land inside some
    obstruction event (the sampling half of the unsatisfiability story)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > SAMPLE_MAX:
        raise ResourceLimitError(
            f"coverage sampling is capped at {SAMPLE_MAX:,} samples, got {samples:,}"
        )
    st = structure if structure is not None else peres_structure()
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 1 << RAY_COUNT, size=samples, dtype=np.uint64)
    covered = np.zeros(samples, dtype=bool)
    for e in pks_events(st):
        covered |= e.holds(masks)
    hit = int(covered.sum())
    return CoverageReport(
        samples=samples, covered=hit, all_covered=hit == samples
    )
