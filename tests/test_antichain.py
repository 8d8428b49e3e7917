import math
import pickle

import pytest

from qcover import (
    Antichain,
    HistorySpace,
    ResourceLimitError,
    SpaceMismatchError,
    classify,
    enumerate_inextendible,
    generate,
    is_antichain,
    is_inextendible,
)
from qcover import antichain as antichain_module
from qcover.antichain import (
    _antichain_unchecked,
    _inextendible_bitsets,
    _label_table,
    _members,
)


class TestConstruction:
    def test_dedupe_and_sort(self, space4):
        ac = Antichain([space4.event([3, 4]), space4.event([1, 2]), space4.event([1, 2])])
        assert len(ac) == 2
        assert ac.masks == (0b0011, 0b1100)

    def test_comparable_pair_rejected(self, space4):
        with pytest.raises(ValueError, match="not an antichain"):
            Antichain([space4.event([1]), space4.event([1, 2])])

    def test_empty_event_rejected(self, space4):
        with pytest.raises(ValueError):
            Antichain([space4.empty()])
        with pytest.raises(ValueError):
            Antichain([])

    def test_cross_space_rejected(self, space3, space4):
        with pytest.raises(SpaceMismatchError):
            Antichain([space3.event([1]), space4.event([2])])

    def test_immutable(self, space4):
        ac = Antichain([space4.event([1, 2])])
        with pytest.raises(AttributeError):
            ac.elements = ()

    def test_masks_stored_with_the_elements(self, space4):
        # both construction paths store the masks once, the unchecked one
        # from a single pass over its iterable
        built = Antichain([space4.event([3, 4]), space4.event([1, 2])])
        fast = _antichain_unchecked(space4, iter([0b0011, 0b1100]))
        for ac in (built, fast):
            assert ac.masks is ac.masks
            assert ac.masks == tuple(e.mask for e in ac) == (0b0011, 0b1100)
        assert fast == built and hash(fast) == hash(built)
        with pytest.raises(AttributeError):
            built.masks = ()

    def test_pickle_roundtrip(self, space4):
        ac = Antichain([space4.event([1, 2]), space4.event([3, 4])])
        clone = pickle.loads(pickle.dumps(ac))
        assert clone == ac and clone.masks == ac.masks

    def test_json_roundtrip(self, space4):
        ac = Antichain([space4.event([1, 2]), space4.event([3, 4])])
        data = ac.to_json()
        assert data == {"n": 4, "elements": [[1, 2], [3, 4]]}
        assert Antichain.from_json(data) == ac


class TestPredicates:
    def test_is_antichain(self, space4):
        good = [space4.event([1, 2]), space4.event([2, 3])]
        assert is_antichain(space4, good)
        assert not is_antichain(space4, [space4.event([1]), space4.event([1, 2])])

    def test_inextendible_with_witness(self, space3):
        ac = Antichain([space3.event([1, 2]), space3.event([2, 3])])
        ok, witness = is_inextendible(ac)
        assert not ok
        assert witness == space3.event([1, 3])

    @pytest.mark.parametrize("n, k", [(12, 6), (16, 8)])
    def test_complete_level_and_one_missing(self, n, k):
        # every other event nests with a second level element, so the
        # removed one is the only event that can come back
        space = HistorySpace(n)
        level = generate(space, "level", k=k)
        assert len(level) == math.comb(n, k)
        assert is_inextendible(level) == (True, None)
        for drop in (0, len(level) // 2, len(level) - 1):
            masks = level.masks[:drop] + level.masks[drop + 1 :]
            ok, witness = is_inextendible(_antichain_unchecked(space, masks))
            assert not ok
            assert witness == level.elements[drop]

    def test_full_level_inextendible(self, space3):
        ac = Antichain([space3.event(p) for p in ([1, 2], [1, 3], [2, 3])])
        ok, witness = is_inextendible(ac)
        assert ok and witness is None


class TestEnumeration:
    def test_n2_exact(self):
        space = HistorySpace(2)
        acs = list(enumerate_inextendible(space))
        expected = [
            {(1,), (2,)},
            {(1, 2)},
        ]
        assert [
            {e.labels for e in ac.elements} for ac in acs
        ] == expected

    def test_n3_exact(self, space3):
        acs = list(enumerate_inextendible(space3))
        families = {frozenset(e.labels for e in ac.elements) for ac in acs}
        assert families == {
            frozenset({(1,), (2,), (3,)}),
            frozenset({(1,), (2, 3)}),
            frozenset({(2,), (1, 3)}),
            frozenset({(3,), (1, 2)}),
            frozenset({(1, 2), (1, 3), (2, 3)}),
            frozenset({(1, 2, 3)}),
        }

    def test_counts_frozen(self):
        assert len(list(enumerate_inextendible(HistorySpace(4)))) == 28
        assert len(list(enumerate_inextendible(HistorySpace(5)))) == 375

    def test_every_result_is_inextendible(self, space4):
        for ac in enumerate_inextendible(space4):
            ok, _ = is_inextendible(ac)
            assert ok

    def test_bitset_walk(self):
        # one uint64 per antichain, bit v for the event with mask v + 1
        counts = []
        for n in range(1, 7):
            bitsets = _inextendible_bitsets(n)
            counts.append(len(bitsets))
            assert len(set(bitsets.tolist())) == len(bitsets)
            members = _members(bitsets, range(64))
            assert members == sorted(members)
            if n <= 4:
                space = HistorySpace(n)
                for masks in members:
                    ac = Antichain(space.event_from_mask(m) for m in masks)
                    assert is_inextendible(ac) == (True, None)
        assert counts == [1, 2, 6, 28, 375, 31_745]

    def test_walk_chunk_size_is_invisible(self, monkeypatch):
        # small node arrays put many chunk boundaries inside each pass
        whole = [_inextendible_bitsets(n) for n in range(1, 7)]
        for n, chunk in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 3), (6, 700)]:
            monkeypatch.setattr(antichain_module, "_CHUNK", chunk)
            assert _inextendible_bitsets(n).tolist() == whole[n - 1].tolist()

    def test_canonical_order(self, space4):
        acs = list(enumerate_inextendible(space4))
        keys = [ac.masks for ac in acs]
        assert keys == sorted(keys)

    def test_limits(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_inextendible(HistorySpace(7)))

    def test_shared_label_table_survives_the_cli(
        self, scan_n6_cli, enumerate_n6_cli
    ):
        # scan and enumerate reports hold the table's own label lists; the
        # session's scan --n 6 run copied the table before it ran, and
        # its enumerate --n 6 run came after
        table, before = scan_n6_cli.table, scan_n6_cli.before
        assert scan_n6_cli.code == 0
        assert enumerate_n6_cli.code == 0
        assert enumerate_n6_cli.out
        assert _label_table(6) is table
        assert [list(labels) for labels in table] == before
        assert before[0b101101] == [1, 3, 4, 6]


class TestClassify:
    def test_reference_decomposition(self, space4):
        ac = Antichain([
            space4.event([1, 2, 3]),
            space4.event([1, 4]),
            space4.event([2, 4]),
            space4.event([3, 4]),
        ])
        decs = classify(ac)
        assert [d.pivot for d in decs] == [2, 3]
        low = decs[0]
        assert low.free_labels == (4,)
        assert low.free_count == 1
        assert low.base_level == 2
        assert low.bound_met
        high = decs[1]
        assert high.free_count == 0 and not high.bound_met

    def test_pure_level_all_free(self, space3):
        ac = Antichain([space3.event(p) for p in ([1, 2], [1, 3], [2, 3])])
        (dec,) = classify(ac)
        assert dec.pivot == 2
        assert dec.free_count == 3
        assert dec.bound_met

    def test_json_fields(self, space4):
        ac = Antichain([space4.event([1]), space4.event([2, 3]),
                        space4.event([2, 4]), space4.event([3, 4])])
        data = classify(ac)[0].to_json()
        assert set(data) == {
            "pivot", "at_pivot", "below", "above",
            "free_labels", "free_count", "base_level", "bound_met",
        }


class TestGenerate:
    def test_level(self, space4):
        ac = generate(space4, "level", k=2)
        assert len(ac) == math.comb(4, 2)
        assert ac.levels() == (2,)

    def test_coatom_pair(self):
        space = HistorySpace(5)
        ac = generate(space, "coatom_pair")
        ok, _ = is_inextendible(ac)
        assert ok
        decs = {d.pivot: d for d in classify(ac)}
        assert decs[3].free_count == 0

    def test_bowtie_matches_two_block_windmill(self):
        space = HistorySpace(7)
        assert generate(space, "bowtie").masks == generate(space, "windmill", m=2).masks

    def test_windmill(self):
        space = HistorySpace(7)
        ac = generate(space, "windmill", m=3)
        ok, _ = is_inextendible(ac)
        assert ok
        decs = {d.pivot: d for d in classify(ac)}
        blade = (7 - 1) // 3 + 1
        assert decs[blade].free_count == 1
        assert decs[blade].base_level == 2
        assert not decs[blade].bound_met

    def test_straddle(self):
        space = HistorySpace(7)
        ac = generate(space, "straddle", l=4)
        ok, _ = is_inextendible(ac)
        assert ok
        decs = {d.pivot: d for d in classify(ac)}
        assert decs[4].free_count == 1 and decs[4].base_level == 2

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            generate(HistorySpace(6), "bowtie")
        with pytest.raises(ValueError):
            generate(HistorySpace(6), "windmill", m=2)
        with pytest.raises(ValueError):
            generate(HistorySpace(4), "straddle", l=3)
        with pytest.raises(ValueError):
            generate(HistorySpace(4), "level", k=0)
        with pytest.raises(ValueError):
            generate(HistorySpace(3), "coatom_pair")
        with pytest.raises(ValueError):
            generate(HistorySpace(5), "level")
        with pytest.raises(ValueError):
            generate(HistorySpace(5), "nonsense")

    def test_size_limit(self):
        with pytest.raises(ResourceLimitError):
            generate(HistorySpace(17), "coatom_pair")
