"""Self-test of the output checks: honest reports pass, tampered ones fail.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Real reports come from ``qcover.cli.main`` on one seed of the
``cover-check``, ``preclusion`` and ``identities`` inputs.  The scan check
is fed a report assembled from ``qcover antichain enumerate --n 6``, so
the self-test does not run the 40-second scan.  Each tampering (a flipped
verdict, a dropped zero set, a perturbed coefficient, and more) must be
rejected; the exit code is the number of checks that misjudged a report.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import qcover.cli  # noqa: E402
import workloads  # noqa: E402


def answer(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qcover.cli.main(list(argv))
    return code, buf.getvalue()


def edit(text: str, change) -> str:
    env = json.loads(text)
    change(env["report"])
    return json.dumps(env)


class SelfTest:
    def __init__(self) -> None:
        self.judged = 0
        self.misjudged = 0

    def expect(self, label: str, item: dict, outputs: list, ok: bool,
               want: str = "") -> None:
        """``want``: text the rejection must contain, naming its reason."""
        found = checks.check(item, outputs)
        self.judged += 1
        if bool(found) == ok or want not in " ".join(found):
            self.misjudged += 1
            verdict = "rejected" if found else "accepted"
            print(f"MISJUDGED {label}: {verdict} {found[:2]}")
        elif not ok:
            print(f"rejected  {label}: {found[0]}")

    def tampered(self, label: str, item: dict, outputs: list, index: int,
                 change, want: str = "") -> None:
        bad = list(outputs)
        code, text = bad[index]
        bad[index] = (code, edit(text, change))
        self.expect(label, item, bad, ok=False, want=want)


def first(items: list, pred) -> dict:
    return next(i for i in items if pred(i))


def cover_check(t: SelfTest) -> None:
    spec = workloads.build("cover-check", 1)
    for name, data in spec["files"].items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    runs = [(item, [answer(a) for a in item["argvs"]]) for item in spec["round"]]
    for item, outputs in runs:
        t.expect(f"honest {item['kind']}", item, outputs, ok=True)

    def report(item_outputs):
        return json.loads(item_outputs[1][0][1])["report"]

    cover = first(runs, lambda r: r[0]["kind"] == "cover-check"
                  and report(r)["is_cover"])
    noncover = first(runs, lambda r: r[0]["kind"] == "cover-check"
                     and report(r)["witness"] is not None)
    uncovered = first(runs, lambda r: r[0]["kind"] == "cover-check"
                      and not report(r)["union_is_omega"])

    def flip(rep):
        rep["is_cover"] = not rep["is_cover"]

    def perturb_coefficient(rep):
        num, _, den = rep["coefficients"][0].partition("/")
        d = int(den or 1)
        rep["coefficients"][0] = f"{int(num) * 7 + d}/{d * 7}"  # plus 1/7

    def drop_member(rep):
        rep["events"].pop()

    def break_nullity(rep):
        rep["witness"]["entries"][0][0][0] += 1e-3

    def break_hermitian(rep):
        rep["witness"]["entries"][0][1][1] += 1e-3

    def covered_label(rep):
        rep["uncovered_label"] = rep["events"][0][0]

    def no_witness(rep):
        rep["witness"] = None

    t.tampered("cover: flipped verdict", *cover, 0, flip)
    t.tampered("cover: perturbed coefficient", *cover, 0, perturb_coefficient)
    t.tampered("cover: dropped member", *cover, 0, drop_member)
    t.tampered("non-cover: flipped verdict", *noncover, 0, flip)
    t.tampered("non-cover: witness not null on a member", *noncover, 0,
               break_nullity)
    t.tampered("non-cover: witness not Hermitian", *noncover, 0,
               break_hermitian)
    t.tampered("non-cover: witness missing", *noncover, 0, no_witness)
    t.tampered("uncovered: label inside the union", *uncovered, 0,
               covered_label)
    t.tampered("uncovered: flipped verdict", *uncovered, 0, flip)

    search = first(runs, lambda r: r[0]["kind"] == "pks-search")
    witness = first(runs, lambda r: r[0]["kind"] == "pks-witness")
    t.tampered("pks search: SAT", *search, 0,
               lambda rep: rep.update(satisfiable=True))
    t.tampered("pks witness: wrong basis count", *witness, 0,
               lambda rep: rep.update(bases_in_complement=5))
    t.tampered("pks witness: inextendible", *witness, 0,
               lambda rep: rep.update(inextendible=True))
    t.expect("cover: exit code 2", cover[0], [(2, "")], ok=False)
    t.expect("cover: unreadable output", cover[0], [(0, "{")], ok=False)


def preclusion(t: SelfTest) -> None:
    spec = workloads.build("preclusion", 1)
    for name, data in spec["files"].items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    item = first(spec["round"], lambda i: not i["known_fault"])
    outputs = [answer(a) for a in item["argvs"]]
    t.expect("honest preclusion", item, outputs, ok=True)
    scaled = first(spec["round"], lambda i: i["known_fault"])
    t.expect("scaled preclusion (known fault) fails", scaled,
             [answer(a) for a in scaled["argvs"]], ok=False)

    def drop_zero_set(rep):
        rep["zero_sets"].pop()

    def drop_derived(rep):
        rep["derived"].pop()

    def drop_support(rep):
        rep["ppc_supports"].pop()

    def other_coatom(rep):
        n = item["n"]
        missing = (set(range(1, n + 1)) - set(rep["nontriviality"])).pop()
        rep["nontriviality"] = [x for x in range(1, n + 1)
                                if x != missing % n + 1]

    def null_coatom(rep):
        rep["nontriviality"] = None

    for index, path in enumerate(("float", "exact")):
        t.tampered(f"preclusion {path}: dropped zero set", item, outputs,
                   index, drop_zero_set)
        t.tampered(f"preclusion {path}: dropped derived element", item,
                   outputs, index, drop_derived)
        t.tampered(f"preclusion {path}: dropped support", item, outputs,
                   index, drop_support)
        t.tampered(f"preclusion {path}: other coatom", item, outputs, index,
                   other_coatom)
        t.tampered(f"preclusion {path}: null nontriviality", item, outputs,
                   index, null_coatom)


def identities(t: SelfTest) -> None:
    spec = workloads.build("identities", 1)
    item = dict(spec["round"][0])
    item["items"] = 2
    item["argvs"] = [["identities", "--n", str(item["n"]), "--samples", "2",
                      "--seed", str(item["seed"])]]
    outputs = [answer(a) for a in item["argvs"]]
    t.expect("honest identities", item, outputs, ok=True)
    t.tampered("identities: residual over bound", item, outputs, 0,
               lambda rep: rep.update(max_identity_residual=1e-6))
    t.tampered("identities: negative slack", item, outputs, 0,
               lambda rep: rep.update(min_cauchy_schwarz_slack=-1e-6))
    t.tampered("identities: kernel disagreement", item, outputs, 0,
               lambda rep: rep.update(kernel_disagreements=1))


def scan(t: SelfTest) -> None:
    code, text = answer(["antichain", "enumerate", "--n", "6"])
    acs = json.loads(text)["report"]["antichains"]
    report = {"n": 6, "total": len(acs), "covers": len(acs),
              "counterexamples": [],
              "uncertified": [{"n": 6, "elements": ac} for ac in acs],
              "certificate_counts": {}, "elapsed_ms": 0.0}
    honest = json.dumps({"report": report})
    item = workloads.build("scan-n6", 1)["round"][0]
    t.expect("honest scan (from the enumeration)", item, [(code, honest)],
             ok=True)

    def shrink_all(rep):
        for ac in rep["uncertified"]:
            ac["elements"] = ac["elements"][:-1] or ac["elements"]

    def comparable_members(rep):
        for ac in rep["uncertified"]:
            ac["elements"].append([1, 2, 3, 4, 5, 6])

    t.tampered("scan: extendible antichains listed", item, [(code, honest)],
               0, shrink_all, want="is extendible")
    t.tampered("scan: a counterexample", item, [(code, honest)], 0,
               lambda rep: rep.update(covers=rep["total"] - 1))
    t.tampered("scan: wrong total", item, [(code, honest)], 0,
               lambda rep: rep.update(total=rep["total"] - 1))
    t.tampered("scan: counts do not add up", item, [(code, honest)], 0,
               lambda rep: rep.update(certificate_counts={"full_level": 1}))
    t.tampered("scan: listed twice", item, [(code, honest)], 0,
               lambda rep: rep["uncertified"].append(rep["uncertified"][0]),
               want="listed twice")
    t.tampered("scan: comparable members listed", item, [(code, honest)],
               0, comparable_members, want="not an antichain")


def main() -> int:
    t = SelfTest()
    work = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        cover_check(t)
        preclusion(t)
        identities(t)
        scan(t)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print(f"{t.judged} reports judged, {t.misjudged} misjudged")
    return min(t.misjudged, 100)


if __name__ == "__main__":
    sys.exit(main())
