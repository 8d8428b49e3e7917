import math
import random

import pytest

from qcover import (
    Event,
    HistorySpace,
    ResourceLimitError,
    SpaceMismatchError,
    closure,
    level_elements,
    shadow,
)
from qcover.histories import CLOSURE_MAX_N, MAX_HISTORIES


class TestHistorySpace:
    def test_bounds(self):
        HistorySpace(1)
        HistorySpace(MAX_HISTORIES)
        with pytest.raises(ValueError):
            HistorySpace(0)
        with pytest.raises(ValueError):
            HistorySpace(MAX_HISTORIES + 1)

    def test_labels_and_masks(self, space4):
        assert list(space4.labels) == [1, 2, 3, 4]
        assert space4.full_mask == 0b1111
        assert space4.omega().mask == 0b1111
        assert space4.empty().mask == 0
        assert [s.mask for s in space4.singletons()] == [1, 2, 4, 8]

    def test_event_construction(self, space4):
        e = space4.event([3, 1])
        assert e.mask == 0b101
        assert e.labels == (1, 3)
        for bad in ([0], [5], [-1]):
            with pytest.raises(ValueError):
                space4.event(bad)

    def test_event_from_mask(self, space4):
        assert space4.event_from_mask(0b1010).labels == (2, 4)
        with pytest.raises(ValueError):
            space4.event_from_mask(1 << 4)
        with pytest.raises(ValueError):
            space4.event_from_mask(-1)

    def test_json_roundtrip(self, space4):
        assert space4.to_json() == {"n": 4}
        assert HistorySpace.from_json({"n": 4}) == space4
        for n in (4.0, 6.7, "4", True):
            with pytest.raises(ValueError):
                HistorySpace.from_json({"n": n})


class TestEvent:
    def test_set_algebra(self, space4):
        a = space4.event([1, 2])
        b = space4.event([2, 3])
        assert a.union(b).labels == (1, 2, 3)
        assert a.intersection(b).labels == (2,)
        assert a.difference(b).labels == (1,)
        assert a.complement().labels == (3, 4)
        assert 1 in a and 3 not in a
        assert a.cardinality == 2
        assert not a.is_empty
        assert space4.empty().is_empty

    def test_order_relations(self, space4):
        a = space4.event([1, 2])
        sub = space4.event([1])
        other = space4.event([3, 4])
        assert sub.issubset(a) and a.issuperset(sub)
        assert a.comparable(sub) and a.comparable(a)
        assert not a.comparable(space4.event([2, 3]))
        assert a.isdisjoint(other)
        assert not a.isdisjoint(space4.event([2]))

    def test_cross_space_rejected(self, space3, space4):
        with pytest.raises(SpaceMismatchError):
            space3.event([1]).union(space4.event([1]))

    def test_json(self, space4):
        e = space4.event([4, 2])
        assert e.to_json() == [2, 4]
        assert Event.from_json(space4, [2, 4]) == e


class TestLattice:
    def test_level_elements_counts(self, space4):
        for k in range(5):
            evs = level_elements(space4, k)
            assert len(evs) == math.comb(4, k)
            assert all(e.cardinality == k for e in evs)
        masks = [e.mask for e in level_elements(space4, 2)]
        assert masks == sorted(masks)
        with pytest.raises(ValueError):
            level_elements(space4, 5)

    def test_shadow(self, space4):
        e = space4.event([1, 3])
        down = shadow(space4, e, 1)
        assert sorted(x.labels for x in down) == [(1,), (3,)]
        up = shadow(space4, e, 3)
        assert sorted(x.labels for x in up) == [(1, 2, 3), (1, 3, 4)]
        with pytest.raises(ValueError):
            shadow(space4, e, 2)
        with pytest.raises(ValueError):
            shadow(space4, e, 0)

    def test_closure(self, space4):
        e = space4.event([1, 3])
        up = closure(space4, [e], "up")
        assert {x.labels for x in up} == {
            (1, 3), (1, 2, 3), (1, 3, 4), (1, 2, 3, 4)
        }
        down = closure(space4, [e], "down")
        assert {x.labels for x in down} == {(1,), (3,), (1, 3)}
        with pytest.raises(ValueError):
            closure(space4, [e], "sideways")

    def test_closure_matches_brute_force(self):
        rng = random.Random(3)
        for n in range(1, 7):
            space = HistorySpace(n)
            full = space.full_mask
            for _ in range(10):
                seeds = rng.sample(range(1, full + 1), rng.randint(1, min(4, full)))
                events = [space.event_from_mask(m) for m in seeds]
                up = {m for m in range(1, full + 1)
                      if any(s & m == s for s in seeds)}
                down = {m for m in range(1, full + 1)
                        if any(s & m == m for s in seeds)}
                assert {e.mask for e in closure(space, events, "up")} == up
                assert {e.mask for e in closure(space, events, "down")} == down

    def test_closure_cap_and_errors(self):
        big = HistorySpace(CLOSURE_MAX_N + 1)
        with pytest.raises(ResourceLimitError):
            closure(big, [big.omega()], "up")
        space = HistorySpace(3)
        with pytest.raises(ValueError):
            closure(space, [], "up")
        with pytest.raises(ValueError):
            closure(space, [space.empty()], "down")
        with pytest.raises(SpaceMismatchError):
            closure(space, [HistorySpace(4).omega()], "up")
