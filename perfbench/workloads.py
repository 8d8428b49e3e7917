"""Seeded inputs for each workload.

``build(name, seed)`` returns the input files to write, the warm-up
requests and one round: a list of items, each with the CLI requests that
answer it, how many work items it counts for, and what the checks need.
Every round of a run repeats the same items.  The make-up of a round is
fixed; the seed only draws the contents.
"""

from __future__ import annotations

import random

import oracle

NAMES = ("scan-n6", "cover-check", "preclusion", "identities")

SCAN_N6_TOTAL = 31_745  # OEIS A326358 at n=6, less the antichain {empty set}

# cover-check: per n in 6..12, (members, kind) slots; kinds are "cover",
# "noncover" (union is Omega, chi_Omega outside the span) and "uncovered"
COVER_SLOTS = {
    n: [(n, "cover"), (n, "cover"), (n + 3, "cover"), (n + 6, "cover"),
        (n - 3, "noncover"), (n - 1, "noncover")]
    + ([(n - 2, "uncovered")] if n in (7, 9, 11) else [])
    for n in range(6, 13)
}
PKS_REQUESTS = (("search",), ("search",), ("witness",))
COVER_DRAWS = 2  # families drawn per slot, so a round averages over more

# preclusion: functionals per n, and the integer-matrix shape
PRECLUSION_SIZES = (10, 11, 12)
PRECLUSION_PER_N = 6
PRECLUSION_SCALED = 2  # copies of the fixed scaled functional per round
PRECLUSION_RANK = 3
SCALE_EXPONENT = -40

IDENTITY_N = 10
IDENTITY_REQUESTS = 4
IDENTITY_SAMPLES = 10


def build(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    return {
        "scan-n6": _scan,
        "cover-check": _cover_check,
        "preclusion": _preclusion,
        "identities": _identities,
    }[name](rng)


def _scan(rng: random.Random) -> dict:
    item = {"kind": "scan", "argvs": [["scan", "--n", "6", "--workers", "1"]],
            "items": SCAN_N6_TOTAL, "sample_seed": rng.randrange(1 << 30)}
    return {"files": {}, "warmup": [], "round": [item]}


def _random_family(rng: random.Random, n: int, m: int, avoid: int = 0) -> list[int]:
    full = (1 << n) - 1
    allowed = full & ~avoid
    masks: set[int] = set()
    while len(masks) < m:
        mask = 0
        for h in range(n):
            if allowed >> h & 1 and rng.random() < 0.4:
                mask |= 1 << h
        if mask:
            masks.add(mask)
    return sorted(masks)


def _family_of_kind(rng: random.Random, n: int, m: int, kind: str) -> list[int]:
    full = (1 << n) - 1
    while True:
        if kind == "uncovered":
            return _random_family(rng, n, m, avoid=1 << rng.randrange(n))
        fam = _random_family(rng, n, m)
        union = 0
        for mask in fam:
            union |= mask
        if union != full:
            continue
        if oracle.omega_in_span(n, fam) == (kind == "cover"):
            return fam


def _cover_check(rng: random.Random) -> dict:
    files = {}
    items = []
    for _ in range(COVER_DRAWS):
        for n, slots in COVER_SLOTS.items():
            for m, kind in slots:
                fam = _family_of_kind(rng, n, m, kind)
                path = f"family{len(files)}.json"
                files[path] = {"n": n,
                               "elements": [oracle.labels_of(x) for x in fam]}
                items.append({"kind": "cover-check", "argvs": [
                    ["cover-check", "--antichain", path]],
                    "items": 1, "n": n, "masks": fam})
        for sub in PKS_REQUESTS:
            items.append({"kind": "pks-" + sub[0], "argvs": [["pks", *sub]],
                          "items": 1})
    rng.shuffle(items)
    warm = {"cover-check": None, "pks-search": None, "pks-witness": None}
    for item in items:
        if warm[item["kind"]] is None:
            warm[item["kind"]] = item["argvs"][0]
    return {"files": files, "warmup": list(warm.values()), "round": items}


def _integer_functional(rng: random.Random, n: int) -> list[list[int]]:
    """W with columns orthogonal to a few random null events, W^T 1 != 0."""
    while True:
        nulls = _random_family(rng, n, rng.randint(1, 3))
        basis = oracle.integer_kernel(n, nulls)
        coef = [[rng.randint(-3, 3) for _ in range(PRECLUSION_RANK)]
                for _ in basis]
        w = [[sum(c[j] * vec[h] for c, vec in zip(coef, basis))
              for j in range(PRECLUSION_RANK)] for h in range(n)]
        if any(sum(row[j] for row in w) for j in range(PRECLUSION_RANK)):
            return w


def _functional_json(n: int, w: list, scale: float) -> dict:
    entries = [[[float(sum(a * b for a, b in zip(w[i], w[j]))) * scale, 0.0]
                for j in range(n)] for i in range(n)]
    return {"n": n, "entries": entries}


def scaled_functional() -> tuple[int, list]:
    """The fixed functional kept scaled by 2**-40 in every round.

    Its measures are at most 1099, so after scaling every event falls
    under the absolute zero tolerance 1e-9 while the zero sets are
    unchanged.  It does not depend on the seed.
    """
    rng = random.Random("preclusion:scaled")
    n = PRECLUSION_SIZES[-1]
    while True:
        w = _integer_functional(rng, n)
        if max(oracle.measure_table(w)) * 2.0 ** SCALE_EXPONENT <= 1e-9:
            return n, w


def _preclusion(rng: random.Random) -> dict:
    files = {}
    items = []
    specs = [(n, _integer_functional(rng, n), False)
             for n in PRECLUSION_SIZES for _ in range(PRECLUSION_PER_N)]
    specs += [(*scaled_functional(), True)] * PRECLUSION_SCALED
    for n, w, scaled in specs:
        path = f"functional{len(files)}.json"
        scale = 2.0 ** SCALE_EXPONENT if scaled else 1.0
        files[path] = _functional_json(n, w, scale)
        items.append({"kind": "preclusion", "items": 1, "n": n, "w": w,
                      "known_fault": scaled, "argvs": [
                          ["coevents", "--dmatrix", path],
                          ["coevents", "--dmatrix", path, "--exact"]]})
    return {"files": files, "warmup": items[0]["argvs"], "round": items}


def _identities(rng: random.Random) -> dict:
    items = []
    for _ in range(IDENTITY_REQUESTS):
        seed = rng.randrange(1 << 31)
        items.append({"kind": "identities", "items": IDENTITY_SAMPLES,
                      "n": IDENTITY_N, "seed": seed, "argvs": [[
                          "identities", "--n", str(IDENTITY_N),
                          "--samples", str(IDENTITY_SAMPLES),
                          "--seed", str(seed)]]})
    return {"files": {}, "warmup": items[0]["argvs"], "round": items}
