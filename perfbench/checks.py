"""Output checks against the independent computations in ``oracle.py``.

``check(item, outputs)`` returns the list of problems found in the
outputs of one item (empty when every answer is right).  ``outputs``
holds one ``(exit code, report text)`` pair per request of the item.
Nothing here is compared with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import random

import numpy as np

import oracle

# bounds the identity suite states in tests/test_acceptance.py
IDENTITY_BOUNDS = {
    "max_identity_residual": ("<=", 1e-10),
    "max_triple_interference": ("<=", 1e-10),
    "max_pair_zero_dev": ("<=", 1e-7),
    "max_single_zero_dev": ("<=", 1e-7),
    "min_cauchy_schwarz_slack": (">=", -1e-9),
    "min_sandwich_lower_slack": (">=", -1e-9),
    "min_sandwich_upper_slack": (">=", -1e-9),
}
PERES_COUNTS = (33, 16, 72)  # rays, orthogonal bases, orthogonal pairs
SCAN_SAMPLE = 200
TOL = 1e-9  # float checks of witnesses: nullity, positivity, mu(Omega) > 0


def check(item: dict, outputs: list[tuple[int, str]]) -> list[str]:
    reports = []
    for (code, text), argv in zip(outputs, item["argvs"]):
        if code != 0:
            return [f"{' '.join(argv)}: exit code {code}"]
        try:
            reports.append(json.loads(text)["report"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{' '.join(argv)}: unreadable output ({exc})"]
    try:
        return CHECKS[item["kind"]](item, reports)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{item['kind']}: malformed report ({exc!r})"]


def _masks(label_lists) -> list[int]:
    return [oracle.mask_of(labels) for labels in label_lists]


def _check_scan(item: dict, reports: list) -> list[str]:
    rep = reports[0]
    bad = []
    total = item["items"]
    if rep["n"] != 6 or rep["total"] != total:
        bad.append(f"scan: n={rep['n']} total={rep['total']}, want 6 and {total}")
    if rep["covers"] != rep["total"] or rep["counterexamples"]:
        bad.append("scan: not every inextendible antichain is a cover")
    uncertified = rep["uncertified"]
    if sum(rep["certificate_counts"].values()) + len(uncertified) != total:
        bad.append("scan: certificate counts and uncertified do not add up")
    keys = [frozenset(_masks(ac["elements"])) for ac in uncertified]
    if len(set(keys)) != len(keys):
        bad.append("scan: an uncertified antichain is listed twice")
    rng = random.Random(item["sample_seed"])
    for listed in rng.sample(uncertified, min(SCAN_SAMPLE, len(uncertified))):
        ac = listed["elements"]
        masks = _masks(ac)
        if listed["n"] != 6 or not all(0 < m < 64 for m in masks):
            bad.append(f"scan: {ac} has a label outside 1..6")
        elif not oracle.is_antichain(masks):
            bad.append(f"scan: {ac} is not an antichain")
        elif not oracle.is_inextendible(6, masks):
            bad.append(f"scan: {ac} is extendible")
        elif not oracle.omega_in_span(6, masks):
            bad.append(f"scan: {ac} is listed as a cover but is not one")
    return bad


def _check_cover(item: dict, reports: list) -> list[str]:
    rep = reports[0]
    n = item["n"]
    full = (1 << n) - 1
    masks = _masks(rep["events"])
    if sorted(masks) != item["masks"]:
        return ["cover-check: the report lists other events than the input"]
    union = 0
    for m in masks:
        union |= m
    if rep["union_is_omega"] != (union == full):
        return ["cover-check: wrong union_is_omega"]
    if union != full:
        lab = rep["uncovered_label"]
        ok = (not rep["is_cover"] and rep["coefficients"] is None
              and rep["witness"] is None and isinstance(lab, int)
              and 1 <= lab <= n and not union >> (lab - 1) & 1)
        return [] if ok else ["cover-check: bad verdict for an uncovered family"]
    want = oracle.omega_in_span(n, masks)
    if rep["is_cover"] != want:
        return [f"cover-check: verdict {rep['is_cover']}, the rank test says {want}"]
    if rep["uncovered_label"] is not None:
        return ["cover-check: an uncovered label on a family covering Omega"]
    if want:
        coeffs = rep["coefficients"]
        if rep["witness"] is not None or len(coeffs) != len(masks):
            return ["cover-check: a cover needs one coefficient per member"]
        if not oracle.coefficients_hit_omega(n, masks, coeffs):
            return ["cover-check: the coefficients do not sum to chi_Omega"]
        return []
    if rep["coefficients"] is not None:
        return ["cover-check: a non-cover carries coefficients"]
    return _check_witness(n, masks, rep["witness"])


def _check_witness(n: int, masks: list[int], wit: dict) -> list[str]:
    if wit["n"] != n:
        return ["cover-check: witness over the wrong space"]
    arr = np.array([[complex(re, im) for re, im in row]
                    for row in wit["entries"]], dtype=np.complex128)
    if arr.shape != (n, n):
        return ["cover-check: witness has the wrong shape"]
    scale = max(1.0, float(np.abs(arr).max()))
    bad = []
    if float(np.abs(arr - arr.conj().T).max()) > 1e-12 * scale:
        bad.append("cover-check: witness is not Hermitian")
    eig = np.linalg.eigvalsh(arr)
    if eig[0] < -TOL * max(1.0, float(eig[-1])):
        bad.append("cover-check: witness is not positive semidefinite")

    def mu(mask):
        x = np.array([mask >> h & 1 for h in range(n)], dtype=np.float64)
        return float((x @ arr @ x).real)

    if any(abs(mu(m)) > TOL * scale for m in masks):
        bad.append("cover-check: witness does not annihilate every member")
    if not mu((1 << n) - 1) > TOL:
        bad.append("cover-check: witness gives Omega no measure")
    return bad


def _check_pks_search(item: dict, reports: list) -> list[str]:
    rep = reports[0]
    if rep["satisfiable"] != oracle.peres_colorable():
        return ["pks search: wrong satisfiability"]
    if rep["coloring"] is not None or rep["stats"]["nodes"] < 1:
        return ["pks search: an UNSAT answer needs no coloring and a search"]
    return []


def _check_pks_witness(item: dict, reports: list) -> list[str]:
    rep = reports[0]
    st = oracle.peres_structure()
    counts = (len(st["rays"]), len(st["bases"]), len(st["pairs"]))
    if counts != PERES_COUNTS:
        return [f"pks witness: the reference structure has counts {counts}"]
    want = oracle.peres_witness_counts()
    bad = [f"pks witness: {k}={rep[k]!r}, want {v!r}"
           for k, v in want.items() if rep[k] != v]
    basis = rep["canonical_basis"]
    if len(set(basis)) != 3 or not all(0 <= i < 33 for i in basis):
        bad.append("pks witness: the canonical basis is not three rays")
    return bad


def _expected_preclusion(item: dict) -> dict:
    if "_expected" not in item:
        item["_expected"] = oracle.preclusion(item["n"], item["w"])
    return item["_expected"]


def _check_preclusion(item: dict, reports: list) -> list[str]:
    want = _expected_preclusion(item)
    n = item["n"]
    bad = []
    for path, rep in zip(("float", "exact"), reports):
        if rep.get("no_coevent"):
            bad.append(f"coevents {path}: answered no_coevent")
            continue
        for key, label in (("zero_sets", "zero_sets"),
                           ("ppc_supports", "supports"),
                           ("derived", "derived"), ("m_part", "m_part")):
            got = _masks(rep[key])
            if sorted(got) != sorted(want[label]):
                bad.append(f"coevents {path}: wrong {key}")
        derived = _masks(rep["derived"])
        if not (oracle.is_antichain(derived)
                and oracle.is_inextendible(n, derived)):
            bad.append(f"coevents {path}: derived is not an inextendible antichain")
        coatom = rep.get("nontriviality")
        if coatom is None:
            bad.append(f"coevents {path}: nontriviality is null")
        elif oracle.mask_of(coatom) != want["coatom"]:
            bad.append(f"coevents {path}: wrong largest-measure coatom")
    return bad


def _check_identities(item: dict, reports: list) -> list[str]:
    rep = reports[0]
    bad = []
    if (rep["n"], rep["samples"], rep["seed"]) != (
            item["n"], item["items"], item["seed"]):
        bad.append("identities: report echoes the wrong n, samples or seed")
    for key, (op, bound) in IDENTITY_BOUNDS.items():
        val = rep[key]
        if not (val <= bound if op == "<=" else val >= bound):
            bad.append(f"identities: {key}={val} outside {op} {bound}")
    if rep["kernel_disagreements"] != 0:
        bad.append("identities: kernel disagreements")
    return bad


CHECKS = {
    "scan": _check_scan,
    "cover-check": _check_cover,
    "pks-search": _check_pks_search,
    "pks-witness": _check_pks_witness,
    "preclusion": _check_preclusion,
    "identities": _check_identities,
}
