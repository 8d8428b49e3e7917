import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qcover import HistorySpace, enumerate_inextendible
from qcover import ratspan
from qcover.antichain import _inextendible_bitsets
from qcover.ratspan import ones_in_span, span_solve


def test_three_slit_family_misses_omega():
    assert span_solve(3, [0b011, 0b110], 0b111) is None


def test_symmetric_pair_family_hits_omega():
    coeffs = span_solve(3, [0b011, 0b101, 0b110], 0b111)
    assert coeffs == [Fraction(1, 2)] * 3


def test_identity_and_negative_coefficients():
    assert span_solve(2, [0b11], 0b11) == [Fraction(1)]
    # {1}, {1,2} reach {2} with a negative coefficient
    coeffs = span_solve(2, [0b01, 0b11], 0b10)
    assert coeffs == [Fraction(-1), Fraction(1)]


def test_redundant_members_pin_free_coefficients_to_zero():
    # the third member is the sum of the first two; elimination leaves it free
    coeffs = span_solve(3, [0b001, 0b110, 0b111], 0b111)
    assert coeffs is not None
    assert sum(
        c for c, m in zip(coeffs, [0b001, 0b110, 0b111]) if m & 0b001
    ) == 1
    assert coeffs.count(Fraction(0)) >= 1


def test_exactness_against_float_noise():
    # a family whose span membership a float solver could get wrong:
    # singletons of a 12-set reach omega only with all twelve present
    masks = [1 << i for i in range(12)]
    assert span_solve(12, masks[:-1], (1 << 12) - 1) is None
    assert span_solve(12, masks, (1 << 12) - 1) == [Fraction(1)] * 12


def fraction_reference(n, member_masks, target_mask):
    """Gauss-Jordan over Fraction: the textbook solver the kernel must match."""
    m = len(member_masks)
    rows = [
        [Fraction((mask >> bit) & 1) for mask in member_masks]
        + [Fraction((target_mask >> bit) & 1)]
        for bit in range(n)
    ]
    pivots = []
    r = 0
    for c in range(m):
        pivot_row = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    if any(rows[i][m] != 0 for i in range(r, n)):
        return None
    coeffs = [Fraction(0)] * m
    for pr, pc in pivots:
        coeffs[pc] = rows[pr][m]
    return coeffs


def reconstructs(n, member_masks, target_mask, coeffs):
    return all(
        sum(c for c, mask in zip(coeffs, member_masks) if (mask >> bit) & 1)
        == (target_mask >> bit) & 1
        for bit in range(n)
    )


def random_family(rng, n):
    """Members plus a target: random members, redundant members that are
    sums of disjoint earlier ones, and a target that may lie outside."""
    full = (1 << n) - 1
    members = [rng.randint(1, full) for _ in range(rng.randint(1, n + 3))]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(members), rng.choice(members)
        if a & b == 0:
            members.insert(rng.randint(0, len(members)), a | b)
        else:
            # a repeated member
            members.insert(rng.randint(0, len(members)), a)
    choice = rng.randrange(3)
    if choice == 0:
        target = full
    elif choice == 1:
        target = rng.randint(0, full)
    else:
        # a union of disjoint members, so inside the span
        target = 0
        for mask in members:
            if target & mask == 0 and rng.random() < 0.5:
                target |= mask
    return members, target


@pytest.mark.parametrize("n", range(1, 13))
def test_matches_fraction_reference_on_random_families(n):
    rng = random.Random(f"ratspan:{n}")
    outcomes = set()
    for _ in range(150):
        members, target = random_family(rng, n)
        got = span_solve(n, members, target)
        assert got == fraction_reference(n, members, target), (members, target)
        outcomes.add(got is None)
        if got is not None:
            assert all(type(c) is Fraction for c in got)
            assert reconstructs(n, members, target, got)
    if n > 1:
        assert outcomes == {True, False}


def test_exhaustive_inextendible_antichains_reconstruct_omega():
    for n in range(1, 6):
        space = HistorySpace(n)
        for ac in enumerate_inextendible(space):
            coeffs = span_solve(n, list(ac.masks), space.full_mask)
            assert coeffs is not None
            assert reconstructs(n, ac.masks, space.full_mask, coeffs)


def test_agrees_with_sympy_rank_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("ratspan:sympy")
    for n in range(1, 9):
        for _ in range(25):
            members, target = random_family(rng, n)
            cols = [[(mask >> bit) & 1 for bit in range(n)] for mask in members]
            a = sympy.Matrix(cols).T
            aug = a.row_join(sympy.Matrix([(target >> bit) & 1 for bit in range(n)]))
            in_span_oracle = a.rank() == aug.rank()
            got = span_solve(n, members, target)
            assert (got is not None) == in_span_oracle, (members, target)
            if got is not None:
                assert a * sympy.Matrix(got) == aug[:, -1]


def dense_families(rng):
    """n = 6 families of many events, the widest inputs of the exact
    pass: all 63 events, random draws of 32 or more, and every event a
    weight vector w sums to zero on, outside the span when w . 1 != 0."""
    events = range(1, 64)
    families = [list(events)]
    families += [rng.sample(events, rng.randint(32, 63)) for _ in range(60)]
    for _ in range(60):
        w = [rng.randint(-2, 2) for _ in range(6)]
        weight = [sum(w[i] for i in range(6) if m >> i & 1) for m in events]
        families.append([m for m, x in zip(events, weight) if x == 0] or [63])
    return families


@pytest.mark.parametrize("chunk", [7, ratspan._CHUNK])
def test_exact_stage_matches_span_solve_on_random_families(monkeypatch, chunk):
    # distinct nonempty members, with chunk boundaries inside the batch;
    # the rank is the pivot count of the loop elimination on the member
    # rows; at n = 6 dense families up to all 63 events follow, whose
    # Gram minors are the largest int64 has to hold
    monkeypatch.setattr(ratspan, "_CHUNK", chunk)
    rng = random.Random("ratspan:exact")
    outcomes, dense = Counter(), Counter()
    for n in range(1, 7):
        full = (1 << n) - 1
        families = [
            rng.sample(range(1, full + 1), rng.randint(1, min(n + 2, full)))
            for _ in range(120)
        ]
        if n == 6:
            families += dense_families(random.Random("ratspan:dense"))
        bitsets = np.array(
            [sum(1 << (m - 1) for m in members) for members in families],
            dtype=np.uint64,
        )
        in_span, rank = ones_in_span(n, bitsets)
        for i, (members, got, r) in enumerate(
            zip(families, in_span, rank, strict=True)
        ):
            assert got == (span_solve(n, members, full) is not None), members
            rows = [[m >> bit & 1 for bit in range(n)] for m in members]
            assert r == len(ratspan._eliminate(rows, n)), members
            union = 0
            for m in members:
                union |= m
            (outcomes if i < 120 else dense)[bool(got), union == full] += 1
    # about a third are non-covers, some with union Omega
    assert outcomes == {(True, True): 487, (False, False): 177,
                        (False, True): 56}
    # the dense families reach all three outcomes too
    assert dense == {(True, True): 71, (False, False): 23, (False, True): 27}


def test_exact_stage_rank_split_at_n6(eliminated):
    # every inextendible antichain is a cover for n <= 6; the full-rank
    # counts and the n = 6 split of the rest, each rank the pivot count
    # of the loop elimination on the member columns
    full_rank = {}
    for n in range(1, 7):
        in_span, rank = ones_in_span(n, _inextendible_bitsets(n))
        assert in_span.all()
        assert rank.tolist() == eliminated(n)[0]
        full_rank[n] = int((rank == n).sum())
    assert full_rank == {1: 1, 2: 1, 3: 2, 4: 11, 5: 259, 6: 29_818}
    assert Counter(rank[rank < 6].tolist()) == {
        1: 1, 2: 6, 3: 30, 4: 180, 5: 1_710
    }


def test_exact_stage_on_an_empty_batch():
    in_span, rank = ones_in_span(4, np.zeros(0, dtype=np.uint64))
    assert in_span.tolist() == [] and rank.tolist() == []
