import time
from itertools import combinations

import numpy as np
import pytest

from qcover import (
    Coloring,
    ConsistencyError,
    PKSEvent,
    Ray,
    ResourceLimitError,
    orthogonal_structure,
    peres_rays,
    pks_comparability,
    pks_events,
    sample_coverage,
    search_consistent_coloring,
    witness_check,
)
from qcover.pks import RAY_COUNT, SAMPLE_MAX

# the orthogonal-pair count of the 33-ray set, frozen from an exhaustive
# exact computation
FROZEN_PAIR_COUNT = 72


@pytest.fixture(scope="module")
def structure():
    return orthogonal_structure(peres_rays())


class TestRays:
    def test_exactly_33(self):
        assert len(peres_rays()) == 33

    def test_axes_present(self):
        rays = peres_rays()
        for axis in (((1, 0), (0, 0), (0, 0)),
                     ((0, 0), (1, 0), (0, 0)),
                     ((0, 0), (0, 0), (1, 0))):
            assert Ray.canonical(axis) in rays

    def test_mixed_ray_present(self):
        # 1, -1, sqrt2
        assert Ray.canonical(((1, 0), (-1, 0), (0, 1))) in peres_rays()

    def test_canonicalization_idempotent(self):
        for ray in peres_rays():
            assert Ray.canonical(ray.components) == ray

    def test_canonicalization_strips_content_and_sign(self):
        a = Ray.canonical(((2, 0), (-2, 0), (0, 2)))
        b = Ray.canonical(((-1, 0), (1, 0), (0, -1)))
        assert a == b == Ray.canonical(((1, 0), (-1, 0), (0, 1)))

    def test_canonicalization_strips_root_factor(self):
        # (2, 0, 0) + sqrt2*(1, 0, 0) has a sqrt2 content factor
        r = Ray.canonical(((2, 1), (0, 0), (0, 0)))
        assert r.components == ((1, 1), (0, 0), (0, 0))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Ray.canonical(((0, 0), (0, 0), (0, 0)))

    def test_exact_dot(self):
        a = Ray.canonical(((1, 0), (1, 0), (0, 1)))
        b = Ray.canonical(((0, 0), (0, 1), (-1, 0)))
        assert a.dot(b) == (0, 0)
        assert a.is_orthogonal(b)
        c = Ray.canonical(((1, 0), (0, 0), (0, 0)))
        assert not a.is_orthogonal(c)


class TestStructure:
    def test_sixteen_bases(self, structure):
        assert len(structure.bases) == 16

    def test_pair_count_frozen(self, structure):
        assert len(structure.pairs) == FROZEN_PAIR_COUNT

    def test_within_basis_pairs_present(self, structure):
        pairs = set(structure.pairs)
        within = set()
        for b in structure.bases:
            i, j, k = b.indices
            within |= {(i, j), (i, k), (j, k)}
        assert len(within) == 48
        assert within <= pairs

    def test_coordinate_basis_listed(self, structure):
        axis_idx = {
            i for i, r in enumerate(structure.rays)
            if r in {
                Ray.canonical(((1, 0), (0, 0), (0, 0))),
                Ray.canonical(((0, 0), (1, 0), (0, 0))),
                Ray.canonical(((0, 0), (0, 0), (1, 0))),
            }
        }
        assert any(set(b.indices) == axis_idx for b in structure.bases)

    def test_every_ray_in_some_basis(self, structure):
        seen = set()
        for b in structure.bases:
            seen.update(b.indices)
        assert seen == set(range(33))

    def test_bases_exactly_orthogonal(self, structure):
        for b in structure.bases:
            for x, y in combinations(b.rays, 2):
                assert x.dot(y) == (0, 0)


class TestSearch:
    def test_full_set_unsat_within_a_second(self, structure):
        t0 = time.perf_counter()
        out = search_consistent_coloring(structure)
        assert time.perf_counter() - t0 <= 1.0
        assert not out.satisfiable
        assert out.coloring is None
        assert out.stats.nodes > 0

    def test_single_basis_sat(self, structure):
        b = structure.bases[0]
        out = search_consistent_coloring(structure, restrict=b.indices)
        assert out.satisfiable
        greens = [i for i in b.indices if out.coloring.is_green(i)]
        assert len(greens) == 1

    def test_two_disjoint_bases_sat(self, structure):
        b0 = structure.bases[0]
        other = next(
            b for b in structure.bases
            if set(b.indices).isdisjoint(b0.indices)
        )
        out = search_consistent_coloring(
            structure, restrict=list(b0.indices) + list(other.indices)
        )
        assert out.satisfiable

    def test_restriction_validation(self, structure):
        with pytest.raises(ValueError):
            search_consistent_coloring(structure, restrict=[99])
        with pytest.raises(ValueError):
            search_consistent_coloring(structure, restrict=[])

    def test_deterministic(self, structure):
        a = search_consistent_coloring(structure).to_json()
        b = search_consistent_coloring(structure).to_json()
        a["stats"].pop("elapsed_ms")
        b["stats"].pop("elapsed_ms")
        assert a == b


class TestEvents:
    def test_event_count(self, structure):
        assert len(pks_events(structure)) == 16 + FROZEN_PAIR_COUNT

    def test_membership_predicates(self, structure):
        b = structure.bases[0]
        red = PKSEvent("red_basis", b.indices)
        assert red.contains(Coloring(0))
        assert not red.contains(Coloring(1 << b.indices[0]))
        p = structure.pairs[0]
        green = PKSEvent("green_pair", p)
        assert green.contains(Coloring((1 << p[0]) | (1 << p[1])))
        assert not green.contains(Coloring(1 << p[0]))

    def test_sizes(self, structure):
        for e in pks_events(structure):
            want = 3 if e.kind == "red_basis" else 2
            assert e.size() == 1 << (RAY_COUNT - want)

    def test_validation(self):
        with pytest.raises(ValueError):
            PKSEvent("red_basis", (1, 2))
        with pytest.raises(ValueError):
            PKSEvent("green_pair", (1, 1))
        with pytest.raises(ValueError):
            PKSEvent("blue_basis", (1, 2, 3))
        with pytest.raises(ValueError):
            Coloring(-1)
        with pytest.raises(ValueError):
            Coloring(1 << RAY_COUNT)


class TestComparability:
    def test_same_basis_equal(self, structure):
        e = PKSEvent("red_basis", structure.bases[0].indices)
        assert pks_comparability(e, e) == "equal"

    def test_distinct_bases_incomparable(self, structure):
        e1 = PKSEvent("red_basis", structure.bases[0].indices)
        e2 = PKSEvent("red_basis", structure.bases[1].indices)
        assert pks_comparability(e1, e2) == "incomparable"

    def test_red_green_incomparable(self, structure):
        e1 = PKSEvent("red_basis", structure.bases[0].indices)
        e2 = PKSEvent("green_pair", structure.pairs[0])
        assert pks_comparability(e1, e2) == "incomparable"

    def test_nested_constraint_sets(self):
        # synthetic nesting: more constrained red event sits inside
        outer = PKSEvent("red_basis", (0, 1, 2))
        assert pks_comparability(outer, outer) == "equal"

    @staticmethod
    def _brute_force(e1, e2):
        # membership depends only on the rays the two events name, so the
        # relation is decided exactly by every coloring of those rays
        rays = sorted(set(e1.indices) | set(e2.indices))

        def member(e, green):
            if e.kind == "red_basis":
                return not any(i in green for i in e.indices)
            return all(i in green for i in e.indices)

        in1, in2 = set(), set()
        for local in range(1 << len(rays)):
            green = {r for k, r in enumerate(rays) if local >> k & 1}
            if member(e1, green):
                in1.add(local)
            if member(e2, green):
                in2.add(local)
        if in1 == in2:
            return "equal"
        if in1 < in2:
            return "subset"
        if in2 < in1:
            return "superset"
        return "incomparable"

    def test_every_peres_pair_matches_brute_force(self, structure):
        events = pks_events(structure)
        counts = {}
        for e1 in events:
            for e2 in events:
                rel = pks_comparability(e1, e2)
                assert rel == self._brute_force(e1, e2), (e1, e2)
                counts[rel] = counts.get(rel, 0) + 1
        assert counts == {"equal": 88, "incomparable": 88 * 87}

    @pytest.mark.parametrize("e1, e2", [
        (("red_basis", (0, 1, 2)), ("red_basis", (3, 4, 5))),
        (("red_basis", (0, 1, 2)), ("red_basis", (0, 4, 5))),
        (("red_basis", (0, 1, 2)), ("red_basis", (0, 1, 5))),
        (("red_basis", (0, 1, 2)), ("red_basis", (2, 0, 1))),
        (("red_basis", (30, 31, 32)), ("red_basis", (0, 31, 32))),
        (("green_pair", (0, 1)), ("green_pair", (2, 3))),
        (("green_pair", (0, 1)), ("green_pair", (1, 2))),
        (("green_pair", (0, 1)), ("green_pair", (1, 0))),
        (("green_pair", (31, 32)), ("green_pair", (0, 32))),
        (("red_basis", (0, 1, 2)), ("green_pair", (0, 1))),
        (("red_basis", (0, 1, 2)), ("green_pair", (2, 5))),
        (("red_basis", (0, 1, 2)), ("green_pair", (6, 7))),
        (("green_pair", (0, 32)), ("red_basis", (0, 16, 32))),
    ])
    def test_synthetic_pairs_match_brute_force(self, e1, e2):
        a, b = PKSEvent(*e1), PKSEvent(*e2)
        for x, y in ((a, b), (b, a)):
            assert pks_comparability(x, y) == self._brute_force(x, y)

    @pytest.mark.parametrize("lie_on", [0, (1 << RAY_COUNT) - 1, 1 << 3])
    def test_lying_membership_test_is_caught(self, monkeypatch, lie_on):
        # membership claims all go through PKSEvent.holds; flip its answer
        # on one coloring and every relation confirmed by it must fail
        honest = PKSEvent.holds
        monkeypatch.setattr(
            PKSEvent, "holds", lambda e, mask: honest(e, mask) != (mask == lie_on)
        )
        pairs = {
            0: [(("red_basis", (0, 1, 2)), ("green_pair", (3, 4))),
                (("green_pair", (3, 4)), ("red_basis", (0, 1, 2))),
                (("red_basis", (0, 1, 2)), ("red_basis", (0, 1, 2)))],
            (1 << RAY_COUNT) - 1: [
                (("red_basis", (0, 1, 2)), ("green_pair", (3, 4))),
                (("green_pair", (3, 4)), ("green_pair", (4, 3)))],
            1 << 3: [(("red_basis", (0, 1, 2)), ("red_basis", (0, 1, 3)))],
        }[lie_on]
        probe = PKSEvent("red_basis", (0, 1, 2))
        assert probe.contains(Coloring(lie_on)) != honest(probe, lie_on)
        for e1, e2 in pairs:
            with pytest.raises(ConsistencyError, match="countercoloring"):
                pks_comparability(PKSEvent(*e1), PKSEvent(*e2))

    def test_sampling_counts_through_holds(self, structure, monkeypatch):
        # a membership test that drops every coloring with ray 0 green
        # leaves exactly the samples with ray 0 red covered
        honest = PKSEvent.holds
        monkeypatch.setattr(
            PKSEvent, "holds", lambda e, mask: honest(e, mask) & (mask & 1 == 0)
        )
        masks = np.random.default_rng(3).integers(
            0, 1 << RAY_COUNT, size=2_000, dtype=np.uint64)
        rep = sample_coverage(structure, samples=2_000, seed=3)
        assert rep.covered == int(np.count_nonzero(masks & 1 == 0))
        assert not rep.all_covered

    def test_search_self_check_asks_holds(self, structure, monkeypatch):
        basis = structure.bases[0].indices
        assert search_consistent_coloring(structure, restrict=basis).satisfiable
        monkeypatch.setattr(PKSEvent, "holds", lambda e, mask: True)
        with pytest.raises(ConsistencyError, match="all-red basis"):
            search_consistent_coloring(structure, restrict=basis)

    def test_witness_check_confirms_every_pair(self, structure, monkeypatch):
        # the all-red coloring enters the witness only through the
        # pairwise pass, so a lie on it must surface there
        honest = PKSEvent.holds
        monkeypatch.setattr(
            PKSEvent, "holds", lambda e, mask: honest(e, mask) != (mask == 0)
        )
        with pytest.raises(ConsistencyError, match="countercoloring"):
            witness_check(structure)


class TestWitness:
    def test_report_counts(self, structure):
        rep = witness_check(structure)
        assert rep.canonical_basis in {b.indices for b in structure.bases}
        assert rep.event_count == 16 + FROZEN_PAIR_COUNT
        assert rep.bases_in_complement == 6
        assert rep.pairs_in_basis == 3
        assert rep.shared_memberships == 0
        assert rep.min_event_size == 1 << 30
        assert rep.antichain is True
        assert rep.inextendible is False
        assert rep.verdict == "antichain: yes; inextendible: no"

    def test_membership_counts(self, structure):
        rep = witness_check(structure)
        # first witness: its own red-basis event plus every pair clear of
        # the coordinate basis; second: 6 red bases plus 3 green pairs
        assert rep.green_outside_memberships == 52
        assert rep.green_inside_memberships == 9

    def test_json(self, structure):
        data = witness_check(structure).to_json()
        assert data["verdict"].startswith("antichain: yes")
        assert data["bases_in_complement"] == 6


class TestSampling:
    def test_full_coverage(self, structure):
        rep = sample_coverage(structure, samples=10_000, seed=7)
        assert rep.covered == rep.samples
        assert rep.all_covered

    def test_deterministic(self, structure):
        a = sample_coverage(structure, samples=500, seed=1)
        b = sample_coverage(structure, samples=500, seed=1)
        assert a == b

    def test_validation(self, structure):
        with pytest.raises(ValueError):
            sample_coverage(structure, samples=0, seed=1)
        # refused before anything is drawn
        with pytest.raises(ResourceLimitError):
            sample_coverage(structure, samples=SAMPLE_MAX + 1, seed=1)
