"""Spans around the public functions of each qcover module.

The tracer replaces each listed function in every ``qcover`` module
namespace that binds it (``qcover.cover.span_solve`` as well as
``qcover.ratspan.span_solve``), so calls made inside the package are
seen too.  Spans (name, start, end, parent, tag) stay in memory until the
run ends.  ``per_layer`` turns them into the per-round metrics listed in
``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

# (module, function) pairs that get a span; cli.main is the request root
TRACED = (
    ("cli", "main"),
    ("antichain", "enumerate_inextendible"),
    ("antichain", "classify"),
    ("antichain", "is_inextendible"),
    ("ratspan", "span_solve"),
    ("cover", "scan"),
    ("cover", "decide"),
    ("cover", "certificate_class_C"),
    ("measure", "mu_table"),
    ("measure", "mu"),
    ("measure", "validate"),
    ("measure", "sample_spd"),
    ("measure", "verify_identity"),
    ("measure", "identity_suite"),
    ("coevent", "derived_antichain"),
    ("coevent", "nontriviality"),
    ("pks", "orthogonal_structure"),
    ("pks", "search_consistent_coloring"),
    ("pks", "witness_check"),
)

# name -> unit; counts and times are per round of the workload
PER_LAYER = {
    "cli.requests": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "antichain.enumerate_inextendible.s": "s",
    "antichain.enumerate_inextendible.yielded": "count",
    "antichain.classify.calls": "count",
    "antichain.classify.s": "s",
    "antichain.is_inextendible.calls": "count",
    "antichain.is_inextendible.s": "s",
    "ratspan.span_solve.calls": "count",
    "ratspan.span_solve.s": "s",
    "ratspan.span_solve.us_p50": "us",
    "ratspan.span_solve.in_span": "count",
    "cover.scan.s": "s",
    "cover.scan.self_s": "s",
    "cover.decide.calls": "count",
    "cover.decide.s": "s",
    "cover.decide.self_s": "s",
    "cover.decide.witnesses": "count",
    "cover.decide.witness_s": "s",
    "cover.certificate_class_C.calls": "count",
    "cover.certificate_class_C.s": "s",
    "cover.certificate_class_C.certified": "count",
    "cover.certified_ratio": "ratio",
    "measure.mu_table.calls": "count",
    "measure.mu_table.s": "s",
    "measure.mu.calls": "count",
    "measure.mu.s": "s",
    "measure.validate.calls": "count",
    "measure.validate.s": "s",
    "measure.sample_spd.calls": "count",
    "measure.sample_spd.s": "s",
    "measure.verify_identity.s": "s",
    "measure.identity_suite.s": "s",
    "measure.identity_suite.self_s": "s",
    "coevent.derived_antichain.float_calls": "count",
    "coevent.derived_antichain.float_s": "s",
    "coevent.derived_antichain.exact_calls": "count",
    "coevent.derived_antichain.exact_s": "s",
    "coevent.nontriviality.s": "s",
    "coevent.zero_sets_found": "count",
    "pks.orthogonal_structure.s": "s",
    "pks.search_consistent_coloring.s": "s",
    "pks.search.nodes": "count",
    "pks.witness_check.s": "s",
}


def _tag(name: str, result, kwargs) -> object:
    """Per-call detail kept on the span, read back by ``per_layer``.

    ``result`` is None when the call raised.
    """
    if name in ("ratspan.span_solve", "cover.certificate_class_C"):
        return result is not None
    if name == "cover.decide":
        return result is not None and result.witness is not None
    if name == "coevent.derived_antichain":
        return ["exact" if kwargs.get("exact") else "float",
                0 if result is None else len(result.zero_sets)]
    if name == "pks.search_consistent_coloring":
        return 0 if result is None else result.stats.nodes
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, tag]
        self._stack: list[int] = []
        self.absent: list[str] = []

    def reset(self) -> None:
        self.spans.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's time between
            # items is not charged to the generator; the tag counts items
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(span)
                        return
                    except BaseException:
                        self._close(span)
                        raise
                    self._close(span)
                    span[4] = 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                span[4] = _tag(name, result, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a qcover module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "qcover" or k.startswith("qcover.")) and m]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"qcover.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)


def per_layer(spans: list, rounds: int, output_bytes: float) -> dict[str, float]:
    """Per-round per-layer metrics from the spans of one traced run.

    A function the program no longer has leaves no spans, so its metrics
    read 0; ``Tracer.absent`` names it.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    tags: dict[str, list] = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        tags.setdefault(name, []).append((tag, dur))

    def tagged(name):
        return tags.get(name, [])

    durations = [d for _, d in tagged("ratspan.span_solve")]
    r = float(rounds)
    m = {
        "cli.requests": calls.get("cli.main", 0) / r,
        "cli.self_s": self_s.get("cli.main", 0.0) / r,
        "cli.output_bytes": output_bytes / r,
        "antichain.enumerate_inextendible.s":
            total.get("antichain.enumerate_inextendible", 0.0) / r,
        "antichain.enumerate_inextendible.yielded":
            sum(1 for t, _ in tagged("antichain.enumerate_inextendible") if t) / r,
        "ratspan.span_solve.us_p50":
            statistics.median(durations) * 1e6 if durations else 0.0,
        "ratspan.span_solve.in_span":
            sum(1 for t, _ in tagged("ratspan.span_solve") if t) / r,
        "cover.decide.witnesses":
            sum(1 for t, _ in tagged("cover.decide") if t) / r,
        "cover.decide.witness_s":
            sum(d for t, d in tagged("cover.decide") if t) / r,
        "cover.certificate_class_C.certified":
            sum(1 for t, _ in tagged("cover.certificate_class_C") if t) / r,
        "coevent.zero_sets_found":
            sum(t[1] for t, _ in tagged("coevent.derived_antichain")) / r,
        "pks.search.nodes":
            sum(t for t, _ in tagged("pks.search_consistent_coloring")) / r,
    }
    cert_calls = calls.get("cover.certificate_class_C", 0)
    m["cover.certified_ratio"] = (
        m["cover.certificate_class_C.certified"] * r / cert_calls
        if cert_calls else 0.0
    )
    for path in ("float", "exact"):
        runs = [d for t, d in tagged("coevent.derived_antichain")
                if t[0] == path]
        m[f"coevent.derived_antichain.{path}_calls"] = len(runs) / r
        m[f"coevent.derived_antichain.{path}_s"] = sum(runs) / r
    for key in PER_LAYER:
        if key not in m:
            name, _, quantity = key.rpartition(".")
            source = {"calls": calls, "s": total, "self_s": self_s}[quantity]
            m[key] = source.get(name, 0) / r
    return {key: m[key] for key in PER_LAYER}
