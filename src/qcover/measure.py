"""Decoherence functionals and the quantum measure they induce.

A decoherence functional is an n x n Hermitian matrix D indexed by the
fine-grained histories; the measure of an event A is the real number
mu(A) = sum over rows and columns in A of D.  Strong positivity means the
matrix is positive semidefinite.  The module also checks the quadratic
coarse-graining identity that characterises such measures, locates the
interference level, and samples random strongly positive functionals with
prescribed null events.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConsistencyError,
    InfeasibleNormalizationError,
    ResourceLimitError,
    SpaceMismatchError,
)
from .histories import Event, HistorySpace, JsonRecord, _write_json
from .ratspan import span_projector

# the one zero rule: a measure-like quantity counts as zero when it is at
# most TOL_ZERO * d.scale, D's largest entry magnitude.  Multiplying D by a
# positive constant scales both sides alike, so no zero set moves with units.
TOL_ZERO = 1e-9

# per-event tables enumerate all 2^n events
MU_TABLE_MAX_N = 16

# interference of m disjoint parts sums over 2^m - 1 coarse grainings
INTERFERENCE_MAX_PARTS = 16

SeedLike = Union[int, Sequence[int]]


class DecoherenceFunctional:
    """Immutable Hermitian matrix over the fine-grained histories.

    Construction rejects matrices whose Hermiticity residual exceeds
    ``TOL_ZERO`` times the largest entry magnitude, unless
    ``hermitize=True`` asks for symmetrisation ``(D + D^H) / 2``.  Entries
    must be finite and at most ``sys.float_info.max / (2^(n+2) n^2)`` in
    magnitude: a measure sums at most n^2 entries, and an interference or
    level sum at most 2^n measures, so the Hermitian average, every
    measure table and the sums of ``validate`` stay finite.
    """

    __slots__ = ("_entries", "_space", "_scale")

    def __init__(self, entries, *, hermitize: bool = False):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {arr.shape}")
        n = arr.shape[0]
        space = HistorySpace(n)  # also enforces 1 <= n <= 24
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("matrix entries must be finite")
        scale = float(np.abs(arr).max())
        bound = sys.float_info.max / (n * n << (n + 2))
        if scale > bound:
            raise ValueError(
                f"matrix entries must not exceed {bound:.3e} in magnitude"
                f" at n = {n}"
            )
        residual = float(np.abs(arr - arr.conj().T).max())
        if residual > TOL_ZERO * scale and not hermitize:
            raise ValueError(
                f"matrix is not Hermitian: residual {residual:.3e} exceeds"
                f" tolerance (pass hermitize=True to symmetrise)"
            )
        arr = (arr + arr.conj().T) / 2.0  # exact Hermitian storage
        arr.setflags(write=False)
        object.__setattr__(self, "_entries", arr)
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_scale", float(np.abs(arr).max()))

    def __setattr__(self, name, value):
        raise AttributeError("DecoherenceFunctional is immutable")

    @property
    def n(self) -> int:
        return self._space.n

    @property
    def space(self) -> HistorySpace:
        return self._space

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def scale(self) -> float:
        """Largest entry magnitude, the unit of the zero rule."""
        return self._scale

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DecoherenceFunctional)
            and self.n == other.n
            and np.array_equal(self._entries, other._entries)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._entries.tobytes()))

    def __reduce__(self):
        return (_rebuild_functional, (np.asarray(self._entries),))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                [[float(z.real), float(z.imag)] for z in row]
                for row in self._entries
            ],
        }

    @classmethod
    def from_json(
        cls, data: dict, *, hermitize: bool = False
    ) -> "DecoherenceFunctional":
        n = HistorySpace(data["n"]).n
        rows = data["entries"]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("entries shape does not match n")
        cells = list(chain.from_iterable(rows))
        if set(map(len, cells)) != {2}:
            raise ValueError("each entry must be a [re, im] pair")
        if bool in set(map(type, chain.from_iterable(cells))):
            raise ValueError("entries must be numbers, not booleans")
        arr = np.array([complex(re, im) for re, im in cells], dtype=np.complex128)
        return cls(arr.reshape(n, n), hermitize=hermitize)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecoherenceFunctional(n={self.n})"


def _rebuild_functional(arr):
    return DecoherenceFunctional(arr)


def save_functional(d: DecoherenceFunctional, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(d.to_json(), fh.write)
        fh.write("\n")


def load_functional(path: str, *, hermitize: bool = False) -> DecoherenceFunctional:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return DecoherenceFunctional.from_json(data, hermitize=hermitize)


def _check_event(d: DecoherenceFunctional, a: Event) -> None:
    if a.space.n != d.n:
        raise SpaceMismatchError(
            f"event over n={a.space.n} does not match functional over n={d.n}"
        )


def d_of(d: DecoherenceFunctional, a: Event, b: Event) -> complex:
    """The bilinear block sum D(A, B) = sum_{i in A, j in B} D_ij."""
    _check_event(d, a)
    _check_event(d, b)
    bits = np.arange(d.n)
    ia, ib = np.flatnonzero(a.mask >> bits & 1), np.flatnonzero(b.mask >> bits & 1)
    if not ia.size or not ib.size:
        return 0j
    return complex(d.entries[np.ix_(ia, ib)].sum())


def mu(d: DecoherenceFunctional, a: Event) -> float:
    """The quantum measure mu(A) = D(A, A), real for Hermitian D."""
    val = d_of(d, a, a)
    if abs(val.imag) > TOL_ZERO * d.scale * d.n * d.n:
        raise ConsistencyError(
            f"diagonal block sum has imaginary residue {val.imag:.3e}"
        )
    return val.real


def _subset_sums(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # out[A] = out[0] + sum_{j in A} v[j] for every mask A below 2^len(v),
    # by doubling: the masks with bit h set are those below 2^h plus v[h].
    # The rows v[j] may be vectors; a new out starts from out[0] = 0.
    if out is None:
        out = np.empty((1 << len(v),) + v.shape[1:], dtype=v.dtype)
        out[0] = 0
    for h in range(len(v)):
        np.add(out[: 1 << h], v[h], out[1 << h : 2 << h])
    return out


def _measure_table(m: np.ndarray) -> np.ndarray:
    # sum_{i, j in A} m_ij for every mask A, in m's dtype (float64, int64 or
    # Python ints), by mu(A + h) = mu(A) + m_hh + sum_{j in A} (m_hj + m_jh)
    # for every A below bit h: O(2^n) additions and no 2^n x n table
    sym = m + m.T
    out = np.zeros(1 << len(m), dtype=m.dtype)
    for h in range(len(m)):
        upper = out[1 << h : 2 << h]
        upper[0] = m[h, h]
        _subset_sums(sym[h, :h], upper)
        upper += out[: 1 << h]
    return out


def mu_table(d: DecoherenceFunctional) -> np.ndarray:
    """mu of every event, indexed by bitmask.  Needs n <= 16.  One O(2^n)
    recurrence fills it; exact preclusion runs it over integers."""
    if d.n > MU_TABLE_MAX_N:
        raise ResourceLimitError(
            f"per-event tables are capped at n <= {MU_TABLE_MAX_N}"
        )
    return _measure_table(d.entries.real)


def interference(d: DecoherenceFunctional, parts: Sequence[Event]) -> float:
    """Alternating inclusion-exclusion of mu over the given disjoint parts.

    With m parts this is sum over nonempty subfamilies S of
    (-1)^(m - |S|) mu(union of S); two parts give
    mu(A u B) - mu(A) - mu(B), the pair interference.
    """
    parts = tuple(parts)
    m = len(parts)
    if m < 2:
        raise ValueError("interference needs at least two parts")
    if m > INTERFERENCE_MAX_PARTS:
        raise ResourceLimitError(
            f"interference over {m} parts exceeds the cap of"
            f" {INTERFERENCE_MAX_PARTS}"
        )
    seen = 0
    for p in parts:
        _check_event(d, p)
        if p.mask == 0:
            raise ValueError("interference parts must be nonempty")
        if p.mask & seen:
            raise ValueError("interference parts must be pairwise disjoint")
        seen |= p.mask
    space = parts[0].space
    return _inclusion_exclusion(
        [p.mask for p in parts],
        lambda mask: mu(d, Event(mask, space)),
    )


def _inclusion_exclusion(
    masks: Sequence[int], measure: Callable[[int], float]
) -> float:
    # sum over nonempty subfamilies S of (-1)^(m - |S|) measure(union of S),
    # by subfamily size and then in combinations order
    m = len(masks)
    total = 0.0
    for r in range(1, m + 1):
        sign = -1.0 if (m - r) % 2 else 1.0
        for combo in combinations(masks, r):
            mask = 0
            for part in combo:
                mask |= part
            total += sign * measure(mask)
    return total


def _disjoint_families(n: int, m: int) -> Iterator[tuple[int, ...]]:
    # every unordered family of m pairwise disjoint nonempty events, each
    # family exactly once: labels are assigned to block 0..m-1 or skipped,
    # and block b may only open after blocks 0..b-1 (restricted growth)
    masks = [0] * m

    def walk(label: int, opened: int) -> Iterator[tuple[int, ...]]:
        if label == n:
            if opened == m:
                yield tuple(masks)
            return
        bit = 1 << label
        yield from walk(label + 1, opened)
        limit = min(opened + 1, m)
        for b in range(limit):
            masks[b] |= bit
            yield from walk(label + 1, max(opened, b + 1))
            masks[b] &= ~bit

    yield from walk(0, 0)


def _disjoint_family_array(n: int, m: int) -> np.ndarray:
    # the rows of _disjoint_families(n, m) in its order, built one label at
    # a time over whole arrays.  A partial family is one int holding block
    # b in bits b*n .. b*n + n - 1; each label is tried in no block, then in
    # blocks 0, 1, ..., as the generator's walk tries it, so the families
    # keep the walk's order.  Block b opens only after blocks 0..b-1.
    if n * m > 62:
        raise ResourceLimitError("disjoint families are packed in 62 bits")
    put = np.array([0] + [1 << (b * n) for b in range(m)], dtype=np.int64)
    digits = np.arange(m + 1)
    packed = np.zeros(1, dtype=np.int64)
    opened = np.zeros(1, dtype=np.int64)
    for label in range(n):
        now = np.maximum(opened[:, None], digits)
        keep = digits <= opened[:, None] + 1
        packed = (packed[:, None] | (put << label))[keep]
        opened = now[keep]
    packed = packed[opened == m]
    fams = np.empty((packed.size, m), dtype=np.int64)
    for b in range(m):
        np.bitwise_and(packed >> (b * n), (1 << n) - 1, out=fams[:, b])
    return fams


def measure_level(
    d: DecoherenceFunctional,
    max_k: int,
    *,
    budget: int = 500_000,
) -> Optional[int]:
    """Smallest k <= max_k with vanishing (k+1)-part interference.

    An interference vanishes under the zero rule: its magnitude is at most
    ``TOL_ZERO * d.scale``.  Checks every unordered family of k+1 pairwise
    disjoint nonempty events, so the cost is combinatorial; ``budget`` caps
    the number of families inspected before a resource error is raised.
    Returns None when no k <= max_k qualifies.
    """
    if not 1 <= max_k <= d.n:
        raise ValueError(f"max_k must be in 1..{d.n}, got {max_k}")
    table = mu_table(d)
    tol = TOL_ZERO * d.scale
    spent = 0
    for k in range(1, max_k + 1):
        clean = True
        for fam in _disjoint_families(d.n, k + 1):
            spent += 1
            if spent > budget:
                raise ResourceLimitError(
                    f"interference scan exceeded its budget of {budget} families"
                )
            if abs(_inclusion_exclusion(fam, table.__getitem__)) > tol:
                clean = False
                break
        if clean:
            return k
    return None


def verify_identity(d: DecoherenceFunctional) -> float:
    """Largest residual of the quadratic coarse-graining identity.

    For every event E of three or more histories, split into singletons
    A_1..A_m, the identity states
    mu(E) = (2 - m) * sum_i mu(A_i) + sum_{i<j} mu(A_i u A_j).
    Both sides come from the one subset-sum kernel, the pair sums as the
    measure table of the pair measures.  The identity is pure algebra for
    Hermitian matrices, so the residual measures floating-point noise.
    """
    return _identity_residual(d, mu_table(d))


def _identity_residual(d: DecoherenceFunctional, table: np.ndarray) -> float:
    # verify_identity given the functional's mu_table
    n = d.n
    if n < 3:
        return 0.0
    m_real = d.entries.real
    diag = np.diag(m_real).copy()
    pairgrid = diag[:, None] + diag[None, :] + 2.0 * m_real
    card = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.float64)
    singles = _subset_sums(diag)
    gridsum = _measure_table(pairgrid)
    rhs = (2.0 - card) * singles + (gridsum - 4.0 * singles) / 2.0
    return float(np.abs(table - rhs)[card >= 3].max())


def sample_spd(
    n: int,
    rank: int,
    seed: SeedLike,
    annihilate: Iterable[Event] = (),
    *,
    normalize: bool = False,
) -> DecoherenceFunctional:
    """Random strongly positive functional with prescribed null events.

    Draws ``rank`` complex Gaussian vectors (numpy ``default_rng(seed)``,
    PCG64) and projects each against the span of the indicator vectors of
    the ``annihilate`` events, so those events get measure zero exactly
    (to rounding); the Gram matrix of the projected vectors is returned.
    The projector is the exact one of ``ratspan.span_projector``, B X / den
    with integer X, applied as w - B (X w) / den.  With ``normalize=True``
    the result is rescaled to total measure one, which fails when the
    all-ones indicator lies in the annihilated span, decided exactly as
    1^T (I - B X / den) 1 = 0.
    """
    space = HistorySpace(n)
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in 1..{n}, got {rank}")
    ann_masks: list[int] = []
    for e in annihilate:
        if e.space != space:
            raise SpaceMismatchError("annihilated event has the wrong space")
        if e.mask == 0:
            raise ValueError("cannot annihilate the empty event")
        ann_masks.append(e.mask)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    omega_num = n  # den * mu(Omega) of the projector, 1^T (den I - B X) 1
    if ann_masks:
        basis, x, den = span_projector(n, ann_masks)
        b = (np.array(basis) >> np.arange(n)[:, None] & 1).astype(np.float64)
        w = w - b @ (np.array(x, dtype=np.float64) @ w) / den
        omega_num = n * den - sum(
            m.bit_count() * sum(row) for m, row in zip(basis, x)
        )
    d = w @ w.conj().T
    if normalize:
        if omega_num == 0:
            raise InfeasibleNormalizationError(
                "the annihilated events force total measure zero"
            )
        total = float(d.sum().real)
        if total <= TOL_ZERO * float(np.abs(d).max()):
            raise InfeasibleNormalizationError(
                f"sampled total measure {total:.3e} is below tolerance"
            )
        d = d / total
    return DecoherenceFunctional(d)


# the triple index of the identity suite holds every unordered family of
# three disjoint nonempty events, about 4^n / 6 of them: 145,750 at n = 10
# and about 2.5M at n = 12
IDENTITY_SUITE_MAX_N = 10


@dataclass(frozen=True)
class _SuitePlan:
    """Index arrays the identity suite reuses for every sample of one n.

    ``pair_a``/``pair_b`` list every unordered disjoint pair of nonempty
    events once.  ``cross_lo``/``cross_hi`` are the flat indices of
    (low bits of B, A) and (high bits of B, A) into the two half tables of
    D(A, B), split at bit ``n // 2``.  ``triple_pairs`` holds, for every
    unordered disjoint triple (A, B, C), the pair ids of (A u B, C), (A, C)
    and (B, C).
    """

    pair_a: np.ndarray
    pair_b: np.ndarray
    cross_lo: np.ndarray
    cross_hi: np.ndarray
    triple_pairs: np.ndarray


@lru_cache(maxsize=16)
def _suite_plan(n: int) -> _SuitePlan:
    h = n // 2
    a, b = _disjoint_family_array(n, 2).T.copy()
    cross_lo = ((b & ((1 << h) - 1)) << n) | a
    cross_hi = ((b >> h) << n) | a
    # a disjoint pair (A, B) is named by the ternary number with digit 1 on
    # the labels of A and 2 on those of B; both orders map to the pair's id
    tern = _subset_sums(3 ** np.arange(n, dtype=np.int64))
    pair_id = np.full(3**n, -1, dtype=np.int64)
    ids = np.arange(a.size, dtype=np.int64)
    pair_id[tern[a] + 2 * tern[b]] = ids
    pair_id[tern[b] + 2 * tern[a]] = ids
    ta, tb, tc = _disjoint_family_array(n, 3).T
    triple_pairs = np.stack([
        pair_id[tern[ta | tb] + 2 * tern[tc]],
        pair_id[tern[ta] + 2 * tern[tc]],
        pair_id[tern[tb] + 2 * tern[tc]],
    ])
    plan = _SuitePlan(a, b, cross_lo, cross_hi, triple_pairs)
    for arr in (a, b, cross_lo, cross_hi, triple_pairs):
        arr.setflags(write=False)
    return plan


def _pair_cross_terms(rows: np.ndarray, plan: _SuitePlan) -> np.ndarray:
    # D(A, B) for every pair of the plan, from rows = _subset_sums(D.entries),
    # D's rows summed over every event: column A of y holds the column sums
    # of D over A, and with B's bits split at h = n // 2, D(A, B) is the sum
    # of y[j, A] over B's low bits j < h plus that over its high bits
    h = rows.shape[1] // 2
    y = rows.T
    return (_subset_sums(y[:h]).take(plan.cross_lo)
            + _subset_sums(y[h:]).take(plan.cross_hi))


def _random_disjoint_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    full = (1 << n) - 1
    while True:
        a = int(rng.integers(1, full))  # nonempty, proper
        comp = full & ~a
        b = comp & int(rng.integers(1, 1 << n))
        if b:
            return a, b


@dataclass(frozen=True)
class IdentitySuiteReport(JsonRecord):
    """Aggregated residuals from seeded random-functional checks.

    All maxima are over every sample; slacks are inequality margins and
    must stay above (roughly minus) the working tolerance.
    """

    n: int
    samples: int
    seed: int
    max_identity_residual: float
    max_triple_interference: float
    max_pair_zero_dev: float
    max_single_zero_dev: float
    min_cauchy_schwarz_slack: float
    min_sandwich_lower_slack: float
    min_sandwich_upper_slack: float
    kernel_disagreements: int


def _kernel_disagreements(
    d: DecoherenceFunctional, table: np.ndarray, rows: np.ndarray
) -> int:
    # null events of a positive semidefinite functional are exactly the
    # indicator vectors in its kernel; both sides checked with matched
    # tolerances: |D x|^2 <= lambda_max mu(x) and lambda_max <= trace.
    # D x_A sums D's columns over A.  D is stored exactly Hermitian, so
    # that is the exact conjugate of rows[A], D's rows summed over A (the
    # table _pair_cross_terms takes), with the same squared norm; rows is
    # read as (re, im) pairs
    dx = rows.view(np.float64)
    trace = float(d.entries.trace().real)
    null_by_mu = np.abs(table) <= TOL_ZERO * d.scale
    null_by_kernel = np.einsum("ij,ij->i", dx, dx) <= TOL_ZERO * d.scale * trace
    return int(np.count_nonzero(null_by_mu != null_by_kernel))


def identity_suite(
    n: int,
    samples: int,
    seed: int,
    *,
    rank: Optional[int] = None,
) -> IdentitySuiteReport:
    """Run the randomized identity and inequality checks.

    Per sample: a normalized strongly positive functional is drawn and the
    quadratic identity, vanishing triple interference, Cauchy-Schwarz and
    sandwich bounds, and kernel/null-event agreement are evaluated; two
    more draws annihilate a random disjoint union (resp. one part of it)
    to exercise the equal-measure and removable-null-part consequences of
    strong positivity.

    The pair and triple checks cover every disjoint pair and triple of
    nonempty events without a 2^n x 2^n table of block sums: measures come
    from ``mu_table``, each pair's cross term D(A, B) from two tables of
    2^n x 2^(n/2) entries that split B's labels in half, and each triple's
    interference from the pair interference I2(A, B) =
    mu(A u B) - mu(A) - mu(B) as I2(A u B, C) - I2(A, C) - I2(B, C).
    """
    if not 2 <= n <= IDENTITY_SUITE_MAX_N:
        raise ResourceLimitError(
            f"identity suite is capped at 2 <= n <= {IDENTITY_SUITE_MAX_N}"
        )
    if samples < 1:
        raise ValueError("samples must be positive")
    r = n if rank is None else rank
    plan = _suite_plan(n)
    pa, pb = plan.pair_a, plan.pair_b
    punion = pa | pb
    t_union, t_a, t_b = plan.triple_pairs

    max_identity = 0.0
    max_triple = 0.0
    max_pair_zero = 0.0
    max_single_zero = 0.0
    min_cs = math.inf
    min_lower = math.inf
    min_upper = math.inf
    kernel_bad = 0

    for i in range(samples):
        d = sample_spd(n, r, (seed, i, 0), normalize=True)
        table = mu_table(d)

        max_identity = max(max_identity, _identity_residual(d, table))

        raw_a = table[pa]
        raw_b = table[pb]
        mu_ab = table[punion]
        if t_union.size:
            i2 = mu_ab - raw_a - raw_b
            i3 = i2[t_union] - i2[t_a] - i2[t_b]
            max_triple = max(max_triple, float(np.abs(i3).max()))

        rows = _subset_sums(d.entries)
        cross = _pair_cross_terms(rows, plan)
        mu_a = np.clip(raw_a, 0.0, None)
        mu_b = np.clip(raw_b, 0.0, None)
        cs = mu_a * mu_b - np.abs(cross) ** 2
        min_cs = min(min_cs, float(cs.min()))
        root_a = np.sqrt(mu_a)
        root_b = np.sqrt(mu_b)
        min_lower = min(min_lower, float((mu_ab - (root_a - root_b) ** 2).min()))
        min_upper = min(min_upper, float(((root_a + root_b) ** 2 - mu_ab).min()))

        kernel_bad += _kernel_disagreements(d, table, rows)

        rng = np.random.default_rng((seed, i, 1))
        am, bm = _random_disjoint_pair(rng, n)
        space = d.space
        ev_a = Event(am, space)
        ev_b = Event(bm, space)
        ev_ab = Event(am | bm, space)

        d_pair = sample_spd(n, r, (seed, i, 2), annihilate=[ev_ab])
        max_pair_zero = max(
            max_pair_zero, abs(mu(d_pair, ev_a) - mu(d_pair, ev_b))
        )
        kernel_bad += _kernel_disagreements(
            d_pair, mu_table(d_pair), _subset_sums(d_pair.entries)
        )

        d_single = sample_spd(n, r, (seed, i, 3), annihilate=[ev_a])
        max_single_zero = max(
            max_single_zero, abs(mu(d_single, ev_ab) - mu(d_single, ev_b))
        )

    return IdentitySuiteReport(
        n=n,
        samples=samples,
        seed=seed,
        max_identity_residual=max_identity,
        max_triple_interference=max_triple,
        max_pair_zero_dev=max_pair_zero,
        max_single_zero_dev=max_single_zero,
        min_cauchy_schwarz_slack=min_cs,
        min_sandwich_lower_slack=min_lower,
        min_sandwich_upper_slack=min_upper,
        kernel_disagreements=kernel_bad,
    )


@dataclass(frozen=True)
class ValidationReport(JsonRecord):
    """Outcome of validating a decoherence functional."""

    n: int
    hermitian: bool
    herm_residual: float
    strongly_positive: bool
    min_eigenvalue: float
    weakly_positive: Optional[bool]
    min_measure: Optional[float]
    normalized: bool
    total_measure: float
    level: Optional[int]


def validate(
    d: DecoherenceFunctional,
    *,
    weak_max_n: int = 12,
    max_level: Optional[int] = None,
    level_budget: int = 500_000,
) -> ValidationReport:
    """Check Hermiticity, strong and weak positivity, and normalization.

    Each check takes one bound relative to D's own size, so scaling D by
    a positive constant moves no verdict but ``normalized``: the
    Hermiticity residual against ``TOL_ZERO * d.scale``, the smallest
    eigenvalue against ``TOL_ZERO`` times the largest eigenvalue
    magnitude, and the smallest event measure against n times that.
    ``normalized`` compares mu(Omega) with its target 1, so its bound is
    ``TOL_ZERO`` itself.  Weak positivity (every event measure
    nonnegative) enumerates all 2^n events and is only attempted for
    n <= ``weak_max_n``; pass ``max_level`` to also locate the
    interference level.
    """
    arr = d.entries
    herm_residual = float(np.abs(arr - arr.conj().T).max())
    hermitian = herm_residual <= TOL_ZERO * d.scale
    eigs = np.linalg.eigvalsh(arr)
    spectral = float(np.abs(eigs).max())
    strongly = bool(eigs[0] >= -TOL_ZERO * spectral)
    weakly: Optional[bool] = None
    min_measure: Optional[float] = None
    if d.n <= weak_max_n:
        table = mu_table(d)
        min_measure = float(table.min())
        weakly = bool(min_measure >= -TOL_ZERO * spectral * d.n)
    total = float(arr.sum().real)
    # the unit of this comparison is its target, 1, not the scale of D
    normalized = abs(total - 1.0) <= TOL_ZERO
    level = None
    if max_level is not None:
        level = measure_level(d, max_level, budget=level_budget)
    return ValidationReport(
        n=d.n,
        hermitian=hermitian,
        herm_residual=herm_residual,
        strongly_positive=strongly,
        min_eigenvalue=float(eigs[0]),
        weakly_positive=weakly,
        min_measure=min_measure,
        normalized=normalized,
        total_measure=total,
        level=level,
    )
