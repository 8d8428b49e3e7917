import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qcover import (
    Antichain,
    ConsistencyError,
    HistorySpace,
    SpaceMismatchError,
    certificate_class_C,
    classify,
    decide,
    enumerate_inextendible,
    generate,
    indicator_level_identity,
    level_sum_check,
    mu,
    sample_spd,
    scan,
    validate,
)
from qcover import cover as cover_module
from qcover.antichain import _inextendible_bitsets, _members
from qcover.ratspan import ones_in_span, span_solve


def reference_levels(ac):
    """(pivot, base_level, free_labels, bound_met) per level, computed
    element by element as the object path did."""
    out = []
    for k in ac.levels():
        off_union = 0
        for e in ac.elements:
            if e.cardinality != k:
                off_union |= e.mask
        free = tuple(
            lab for lab in ac.space.labels if not (off_union >> (lab - 1)) & 1
        )
        base = min((e.cardinality for e in ac.elements if e.cardinality < k),
                   default=k)
        out.append((k, base, free, len(free) >= k - base + 1))
    return out


def reference_certificate_kind(ac, levels):
    if len(levels) == 1:
        return "full_level"
    if any(met for _, _, _, met in levels):
        return "pivot_bound"
    for kind, _, masks, _ in cover_module._family_instances(ac.space.n):
        if masks == ac.masks:
            return f"family_{kind}"
    return None


def reference_scan(space, acs):
    """The scan as the object path computes it: every antichain of ``acs``
    (all of the space's inextendible ones) through decide and
    certificate_class_C, JSON through Antichain.to_json."""
    covers = 0
    counterexamples, uncertified, tallies = [], [], {}
    for ac in acs:
        verdict = decide(space, ac.elements)
        cert = certificate_class_C(ac)
        if verdict.is_cover:
            covers += 1
        else:
            counterexamples.append(ac.to_json())
        if cert is None:
            if verdict.is_cover:
                uncertified.append(ac.to_json())
        else:
            tallies[cert.kind] = tallies.get(cert.kind, 0) + 1
    return {
        "n": space.n,
        "total": len(acs),
        "covers": covers,
        "counterexamples": counterexamples,
        "uncertified": uncertified,
        "certificate_counts": dict(sorted(tallies.items())),
    }


def refute_every_deficient_antichain(monkeypatch):
    """Make the scan's exact pass place every antichain of rank below n
    outside the span, as it would a non-cover: none is one for n <= 6."""

    def refuting(n, bitsets):
        rank = ones_in_span(n, bitsets)[1]
        return rank == n, rank

    monkeypatch.setattr(cover_module, "ones_in_span", refuting)


class TestDecide:
    def test_three_slit_non_cover(self, space3):
        verdict = decide(space3, [space3.event([1, 2]), space3.event([2, 3])])
        assert not verdict.is_cover
        assert verdict.union_is_omega
        assert verdict.coefficients is None
        w = verdict.witness
        assert w is not None
        rep = validate(w)
        assert rep.hermitian and rep.strongly_positive
        assert mu(w, space3.event([1, 2])) <= 1e-12
        assert mu(w, space3.event([2, 3])) <= 1e-12
        assert mu(w, space3.omega()) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_pair_level_cover(self, space3):
        verdict = decide(space3, [space3.event(p) for p in ([1, 2], [1, 3], [2, 3])])
        assert verdict.is_cover
        assert verdict.coefficients == (Fraction(1, 2),) * 3
        assert verdict.witness is None

    def test_omega_alone(self, space4):
        verdict = decide(space4, [space4.omega()])
        assert verdict.is_cover
        assert verdict.coefficients == (Fraction(1),)

    def test_coefficients_reconstruct_omega(self, space4):
        events = [space4.event([1]), space4.event([1, 2]),
                  space4.event([2, 3, 4])]
        verdict = decide(space4, events)
        assert verdict.is_cover
        recon = [Fraction(0)] * 4
        for c, e in zip(verdict.coefficients, events):
            for lab in e.labels:
                recon[lab - 1] += c
        assert recon == [Fraction(1)] * 4

    def test_union_misses_label(self, space4):
        verdict = decide(space4, [space4.event([1, 2]), space4.event([2, 4])])
        assert not verdict.is_cover
        assert not verdict.union_is_omega
        assert verdict.uncovered_label == 3
        assert verdict.witness is None

    def test_input_validation(self, space3, space4):
        with pytest.raises(ValueError):
            decide(space3, [])
        with pytest.raises(ValueError):
            decide(space3, [space3.empty(), space3.omega()])
        with pytest.raises(ValueError):
            decide(space3, [space3.omega(), space3.omega()])
        with pytest.raises(SpaceMismatchError):
            decide(space3, [space4.omega()])

    def test_general_families_allowed(self, space4):
        # not an antichain, still a decidable family
        verdict = decide(space4, [space4.event([1]), space4.event([1, 2]),
                                  space4.event([3, 4])])
        assert verdict.is_cover

    def test_json(self, space3):
        verdict = decide(space3, [space3.event([1, 2]), space3.event([2, 3])])
        data = verdict.to_json()
        assert data["is_cover"] is False
        assert data["witness"]["n"] == 3
        assert data["coefficients"] is None
        cover = decide(space3, [space3.omega()]).to_json()
        assert cover["coefficients"] == ["1"]


class TestCertificates:
    def test_full_level(self, space3):
        ac = Antichain([space3.event(p) for p in ([1, 2], [1, 3], [2, 3])])
        cert = certificate_class_C(ac)
        assert cert.kind == "full_level"
        assert cert.pivot == 2
        assert dict(cert.params) == {"k": 2}

    def test_incomplete_pure_level_rejected(self, space3):
        ac = Antichain([space3.event([1, 2])])
        with pytest.raises(ValueError):
            certificate_class_C(ac)

    def test_pivot_bound_reference_example(self, space4):
        ac = Antichain([
            space4.event([1, 2, 3]), space4.event([1, 4]),
            space4.event([2, 4]), space4.event([3, 4]),
        ])
        cert = certificate_class_C(ac)
        assert cert.kind == "pivot_bound"
        assert cert.pivot == 2
        assert cert.base_level == 2
        assert cert.free_count == 1

    def test_family_certificates(self):
        cases = [
            (generate(HistorySpace(5), "coatom_pair"), "family_coatom_pair"),
            (generate(HistorySpace(5), "bowtie"), "family_bowtie"),
            (generate(HistorySpace(7), "windmill", m=3), "family_windmill"),
            (generate(HistorySpace(6), "straddle", l=3), "family_straddle"),
        ]
        for ac, kind in cases:
            cert = certificate_class_C(ac)
            assert cert is not None and cert.kind == kind

    def test_coatom_pair_certified_despite_zero_free(self):
        ac = generate(HistorySpace(5), "coatom_pair")
        cert = certificate_class_C(ac)
        assert cert.kind == "family_coatom_pair"
        assert cert.free_count == 0

    def test_uncertified_antichain_exists_at_n5(self):
        space = HistorySpace(5)
        missing = [
            ac for ac in enumerate_inextendible(space)
            if certificate_class_C(ac) is None
        ]
        assert len(missing) == 148
        for ac in missing[:5]:
            assert decide(space, ac.elements).is_cover

    def test_json(self, space3):
        ac = Antichain([space3.event(p) for p in ([1, 2], [1, 3], [2, 3])])
        data = certificate_class_C(ac).to_json()
        assert set(data) == {
            "kind", "pivot", "base_level", "free_count", "params", "narrative",
        }


class TestScan:
    def test_n2_exact(self):
        rep = scan(HistorySpace(2))
        assert rep.total == 2 and rep.covers == 2
        assert rep.counterexamples == ()
        assert dict(rep.certificate_counts) == {"full_level": 2}

    def test_n3(self):
        rep = scan(HistorySpace(3))
        assert rep.total == 6 and rep.covers == 6
        assert rep.counterexamples == ()
        assert rep.uncertified == ()

    def test_n4_certified_everywhere(self):
        rep = scan(HistorySpace(4))
        assert rep.total == 28 and rep.covers == 28
        assert rep.counterexamples == ()
        assert rep.uncertified == ()
        assert dict(rep.certificate_counts) == {
            "full_level": 4, "pivot_bound": 24,
        }

    def test_refuted_antichains_go_to_decide(self, monkeypatch):
        # at n <= 6 the exact pass refutes nothing, so here it refutes all
        # 17 of rank below 4 at n = 4; decide finds every one a cover, and
        # the error names the antichain that came first
        refute_every_deficient_antichain(monkeypatch)
        with pytest.raises(ConsistencyError) as exc:
            scan(HistorySpace(4))
        assert str(exc.value) == "decide finds refuted masks [1, 2, 12] a cover"

    def test_json_keys(self):
        data = scan(HistorySpace(3)).to_json()
        assert set(data) == {
            "n", "total", "covers", "counterexamples", "uncertified",
            "certificate_counts", "elapsed_ms",
        }

    def test_json_passes_lists_and_dicts_through(self):
        # the serializer turns tuples into lists but must not copy the
        # JSON already inside: an n = 6 report holds 27,112 entries
        rep = scan(HistorySpace(5))
        data = rep.to_json()
        assert len(rep.uncertified) == 148
        assert all(
            a is b
            for a, b in zip(data["uncertified"], rep.uncertified, strict=True)
        )
        assert data["certificate_counts"] is rep.certificate_counts

    def test_rank_first_verdicts_are_exact(self, inextendible, eliminated):
        # rank n means the members span Q^n; every verdict of the Gram
        # pass must match the Bareiss decision on the same masks
        deficient = {}
        for n in range(1, 7):
            acs = inextendible(n)
            exact, rank = ones_in_span(n, _inextendible_bitsets(n))
            deficient[n] = int((rank < n).sum())
            for ac, r, in_exact_span, in_span in zip(
                acs, rank.tolist(), exact.tolist(), eliminated(n)[1],
                strict=True,
            ):
                if r == n:
                    assert in_span, ac.masks
                assert in_exact_span == in_span, ac.masks
        assert len(inextendible(6)) == 31_745
        assert deficient[6] == 1_927

    @pytest.mark.parametrize("n", [5, 6])
    def test_bareiss_runs_only_on_filter_deficient(
        self, monkeypatch, inextendible, n
    ):
        # the exact pass gets every antichain in one batch, and at n <= 6
        # none is left for decide's span_solve
        batches, calls = [], []

        def counting_stage(n, bitsets):
            batches.append(bitsets)
            return ones_in_span(n, bitsets)

        def counting(n, masks, target):
            calls.append(masks)
            return span_solve(n, masks, target)

        monkeypatch.setattr(cover_module, "ones_in_span", counting_stage)
        monkeypatch.setattr(cover_module, "span_solve", counting)
        scan(HistorySpace(n))
        (batch,) = batches
        assert len(batch) == {5: 375, 6: 31_745}[n]
        assert _members(batch, range(64)) == [
            list(ac.masks) for ac in inextendible(n)
        ]
        assert calls == []

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_object_path(self, inextendible, n):
        got = scan(HistorySpace(n)).to_json()
        got.pop("elapsed_ms")
        assert got == reference_scan(HistorySpace(n), inextendible(n))

    def test_certificate_kind_from_masks(self, inextendible):
        for n in range(1, 7):
            acs = inextendible(n)
            codes = cover_module._bitset_certificates(n, _inextendible_bitsets(n))
            names = cover_module._kind_names(n)
            for ac, code in zip(acs, codes.tolist(), strict=True):
                levels = reference_levels(ac)
                assert [
                    (d.pivot, d.base_level, d.free_labels, d.bound_met)
                    for d in classify(ac)
                ] == levels
                want = reference_certificate_kind(ac, levels)
                cert = certificate_class_C(ac)
                assert (None if cert is None else cert.kind) == want, ac.masks
                assert names[code] == want

    def test_a_non_cover_is_listed_once_and_not_tallied(
        self, monkeypatch, inextendible, eliminated
    ):
        # every inextendible antichain is a cover for n <= 6, so the exact
        # pass is made to refute each one of rank below n, and decide,
        # which would disagree, to accept the refutation
        refute_every_deficient_antichain(monkeypatch)
        monkeypatch.setattr(
            cover_module, "decide",
            lambda space, events: cover_module.CoverVerdict(
                False, True, tuple(events)
            ),
        )
        rep = scan(HistorySpace(5))
        acs = inextendible(5)
        rank = eliminated(5)[0]
        assert list(rep.counterexamples) == [
            ac.to_json() for ac, r in zip(acs, rank) if r < 5
        ]
        assert rep.covers == rank.count(5) == 259
        refuted = {json.dumps(entry) for entry in rep.counterexamples}
        assert not refuted & {json.dumps(entry) for entry in rep.uncertified}
        tallied = sum(rep.certificate_counts.values())
        assert tallied + len(rep.uncertified) == rep.covers

    def test_non_cover_takes_the_witness_path(self, monkeypatch):
        verdicts = []

        def recording(space, events):
            verdicts.append(decide(space, events))
            return verdicts[-1]

        monkeypatch.setattr(cover_module, "decide", recording)
        # a walk that yields the one non-cover {1}, {2,3}, {3,4} at n = 4,
        # an antichain but not an inextendible one
        masks = [0b0001, 0b0110, 0b1100]
        bitset = np.array([sum(1 << (m - 1) for m in masks)], dtype=np.uint64)
        monkeypatch.setattr(
            cover_module, "_inextendible_bitsets", lambda n: bitset
        )
        in_span, rank = ones_in_span(4, bitset)
        assert not in_span[0] and rank[0] == 3
        rep = scan(HistorySpace(4))
        assert rep.total == 1 and rep.covers == 0
        assert rep.counterexamples == (
            {"n": 4, "elements": [[1], [2, 3], [3, 4]]},
        )
        assert rep.uncertified == () and rep.certificate_counts == {}
        (verdict,) = verdicts
        assert not verdict.is_cover and verdict.union_is_omega
        assert verdict.witness is not None


class TestLevelSums:
    def test_indicator_identity_small(self):
        for n in range(1, 11):
            assert indicator_level_identity(n)
        with pytest.raises(ValueError):
            indicator_level_identity(0)
        with pytest.raises(ValueError):
            indicator_level_identity(25)

    def test_diagonal_uniform_closed_form(self, diag4):
        rep = level_sum_check(diag4, 2)
        # six pairs, each of measure 1/2
        assert rep.level_sum == pytest.approx(3.0)
        assert rep.closed_form == pytest.approx(3.0)
        assert rep.residual <= 1e-12
        assert rep.inequality_ok
        assert rep.inequality_slack == pytest.approx(2.0)

    def test_random_samples(self):
        for seed in range(5):
            d = sample_spd(7, rank=4, seed=seed, normalize=True)
            for k in range(2, 7):
                rep = level_sum_check(d, k)
                assert rep.residual <= 1e-9
                assert rep.inequality_ok

    def test_k_range(self, diag4):
        with pytest.raises(ValueError):
            level_sum_check(diag4, 1)
        with pytest.raises(ValueError):
            level_sum_check(diag4, 4)

    def test_json(self, diag4):
        data = level_sum_check(diag4, 2).to_json()
        assert set(data) == {
            "k", "level_sum", "closed_form", "residual", "mu_omega",
            "singles_sum", "inequality_slack", "inequality_ok",
        }
