"""Command line interface.

Every subcommand prints one JSON envelope to stdout (or --out) holding
the command, the effective configuration, a timestamp, and the report.
A fixed seed gives byte-identical reports apart from the timestamp and
elapsed-time fields.

Exit codes: 0 success, 2 invalid input or resource limit, 3 the report
lists a mathematical counterexample (only a scan's can), 4 an internal
invariant failed, 141 (a shell's status for SIGPIPE) the reader of
stdout closed it early, as ``head`` does: the rest goes unwritten, silently.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from functools import lru_cache
from typing import Optional, Sequence, TextIO

from .antichain import (
    Antichain,
    GENERATOR_KINDS,
    GENERATOR_PARAMS,
    _inextendible_bitsets,
    _label_table,
    _members,
    classify,
    generate,
)
from .coevent import derived_antichain, nontriviality
from .cover import certificate_class_C, decide, scan
from .errors import (
    ConsistencyError,
    InfeasibleNormalizationError,
    NoCoeventError,
    ResourceLimitError,
    SpaceMismatchError,
)
from .histories import Event, HistorySpace, _write_json
from .measure import identity_suite, load_functional, measure_level, mu, validate
from .pks import (
    peres_rays,
    peres_structure,
    sample_coverage,
    search_consistent_coloring,
    witness_check,
)


# built once per process: parse_args leaves the parser as it was, so one
# tree serves every call to main
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcover",
        description=(
            "Verification toolkit for quantum measures on finite history"
            " spaces: cover decisions, antichain scans, preclusion"
            " structures, and the 33-ray coloring obstruction."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, run, *, n=False, seed=False, samples=None, workers=False,
               dmatrix=False, antichain=False, exact=False, k=False):
        sp.set_defaults(func=run)
        if n:
            sp.add_argument("--n", type=int, required=(n == "required"),
                            default=None if n == "required" else n,
                            help="number of histories")
        if k:
            sp.add_argument("--k", type=int, default=None,
                            help="level / family parameter")
        if seed:
            sp.add_argument("--seed", type=int, default=42, help="RNG seed")
        if samples is not None:
            sp.add_argument("--samples", type=int, default=samples,
                            help="number of random samples")
        if workers:
            sp.add_argument("--workers", type=int, default=1,
                            help="worker count, at least 1; the scan runs"
                            " in one process")
        if dmatrix:
            sp.add_argument("--dmatrix", required=True,
                            help="path to a functional JSON file")
        if antichain:
            sp.add_argument("--antichain", required=(antichain == "required"),
                            default=None,
                            help="path to an antichain JSON file")
        if exact:
            sp.add_argument("--exact", action="store_true",
                            help="exact rational zero detection")
        sp.add_argument("--out", default=None, help="write the report here")

    sp = sub.add_parser("identities", help="randomized identity suite")
    common(sp, _run_identities, n=4, seed=True, samples=100)

    sp = sub.add_parser("validate", help="validate a functional")
    common(sp, _run_validate, dmatrix=True, k=True)

    sp = sub.add_parser("measure", help="measures of events under a functional")
    common(sp, _run_measure, dmatrix=True, antichain=True, k=True)

    sp = sub.add_parser("cover-check", help="exact quantum-cover decision")
    common(sp, _run_cover_check, antichain="required")

    sp = sub.add_parser("scan", help="decide every inextendible antichain")
    common(sp, _run_scan, n="required", workers=True)

    sp = sub.add_parser("coevents", help="preclusion structure of a functional")
    common(sp, _run_coevents, dmatrix=True, exact=True)

    ap = sub.add_parser("antichain", help="antichain utilities")
    asub = ap.add_subparsers(dest="sub", required=True)
    sp = asub.add_parser("enumerate", help="all inextendible antichains")
    common(sp, _run_enumerate, n="required")
    sp = asub.add_parser("classify", help="pivot decompositions and certificate")
    common(sp, _run_classify, antichain="required")
    sp = asub.add_parser("generate", help="structured antichain families")
    sp.add_argument("kind", choices=GENERATOR_KINDS)
    common(sp, _run_generate, n="required", k=True)

    pp = sub.add_parser("pks", help="the 33-ray coloring construction")
    psub = pp.add_subparsers(dest="sub", required=True)
    sp = psub.add_parser("rays", help="the 33 canonical rays")
    common(sp, _run_rays)
    sp = psub.add_parser("bases", help="orthogonal bases and pairs")
    common(sp, _run_bases)
    sp = psub.add_parser("search", help="consistent-coloring search")
    common(sp, _run_search)
    sp = psub.add_parser("witness", help="antichain / inextendibility verdict")
    common(sp, _run_witness)
    sp = psub.add_parser("sample", help="random-coloring coverage check")
    common(sp, _run_sample, seed=True, samples=100_000)
    return p


def _load_event_family(path: str) -> tuple[HistorySpace, list[Event]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    space = HistorySpace(data["n"])
    events = [space.event(labels) for labels in data["elements"]]
    if not events:
        raise ValueError("the file lists no events")
    return space, events


def _run_identities(args) -> dict:
    rep = identity_suite(args.n, args.samples, args.seed)
    return rep.to_json()


def _run_validate(args) -> dict:
    d = load_functional(args.dmatrix)
    rep = validate(d, max_level=args.k)
    return rep.to_json()


def _run_measure(args) -> dict:
    d = load_functional(args.dmatrix)
    space = d.space
    out = {
        "n": d.n,
        "mu_omega": mu(d, space.omega()),
        "singletons": [mu(d, s) for s in space.singletons()],
    }
    if args.antichain is not None:
        sp, events = _load_event_family(args.antichain)
        if sp != space:
            raise SpaceMismatchError(
                "the antichain and the functional have different sizes"
            )
        out["events"] = [
            {"event": e.to_json(), "mu": mu(d, e)} for e in events
        ]
    if args.k is not None:
        out["level"] = measure_level(d, args.k)
    return out


def _run_cover_check(args) -> dict:
    space, events = _load_event_family(args.antichain)
    return decide(space, events).to_json()


def _run_scan(args) -> dict:
    if args.workers < 1:
        raise ValueError("workers must be positive")
    return scan(HistorySpace(args.n)).to_json()


def _run_coevents(args) -> dict:
    d = load_functional(args.dmatrix)
    try:
        ps = derived_antichain(d, exact=args.exact)
    except NoCoeventError as exc:
        return {"no_coevent": True, "detail": str(exc)}
    out = ps.to_json()
    out["no_coevent"] = False
    try:
        ev = nontriviality(d)
        out["nontriviality"] = ev.to_json()
    except (ValueError, NoCoeventError, ConsistencyError) as exc:
        out["nontriviality"] = None
        out["nontriviality_detail"] = str(exc)
    return out


def _run_enumerate(args) -> dict:
    n = HistorySpace(args.n).n
    found = _members(_inextendible_bitsets(n), _label_table(n))
    return {"n": n, "count": len(found), "antichains": found}


def _run_classify(args) -> dict:
    with open(args.antichain, encoding="utf-8") as fh:
        ac = Antichain.from_json(json.load(fh))
    cert = certificate_class_C(ac)
    return {
        "antichain": ac.to_json(),
        "decompositions": [d.to_json() for d in classify(ac)],
        "certificate": None if cert is None else cert.to_json(),
    }


def _run_generate(args) -> dict:
    space = HistorySpace(args.n)
    params = {}
    if args.kind in GENERATOR_PARAMS:
        name, meaning = GENERATOR_PARAMS[args.kind]
        if args.k is None:
            hint = f" ({meaning})" if meaning else ""
            raise ValueError(f"kind {args.kind!r} needs --k{hint}")
        params[name] = args.k
    elif args.k is not None:
        raise ValueError(f"kind {args.kind!r} takes no --k")
    ac = generate(space, args.kind, **params)
    return {"kind": args.kind, "params": params, "antichain": ac.to_json()}


def _run_rays(args) -> dict:
    rays = peres_rays()
    return {"count": len(rays), "rays": [r.to_json() for r in rays]}


def _run_bases(args) -> dict:
    st = peres_structure()
    return {**st.to_json(), "basis_count": len(st.bases),
            "pair_count": len(st.pairs)}


def _run_search(args) -> dict:
    return search_consistent_coloring().to_json()


def _run_witness(args) -> dict:
    return witness_check().to_json()


def _run_sample(args) -> dict:
    return sample_coverage(samples=args.samples, seed=args.seed).to_json()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.func(args)
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (
        ValueError,
        TypeError,
        KeyError,
        OSError,
        SpaceMismatchError,
        ResourceLimitError,
        InfeasibleNormalizationError,
        NoCoeventError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope = {
        "command": args.command + (f" {args.sub}" if hasattr(args, "sub") else ""),
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("out", "func")},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "report": report,
    }
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_envelope(envelope, fh)
        else:
            _write_envelope(envelope, sys.stdout)
            sys.stdout.flush()
    except BrokenPipeError:  # the rest goes to devnull, not to an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 3 if report.get("counterexamples") else 0


def _write_envelope(envelope: dict, fh: TextIO) -> None:
    # the bytes of json.dump(envelope, fh, indent=2, sort_keys=True) and a
    # newline, streamed by one writer that joins each list of ints in one
    # call: json.dump's pure-Python indenting encoder took longer over an
    # n = 6 scan report (about 20 MB of text) than the scan itself
    _write_json(envelope, fh.write)
    fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
