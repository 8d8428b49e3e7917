"""The serving process: answers one workload's requests in process.

Usage: ``python3 perfbench/serve.py <run-dir>``, started by ``run.py``
with BLAS pinned to one thread.  The run directory holds ``job.json``
and the input files the requests name; the process runs there, so the
paths inside each report are the same in every run.

It imports ``qcover.cli`` from the checkout's ``src``, runs the warm-up
requests, then repeats whole rounds of ``qcover.cli.main(argv)`` calls
until ``seconds`` have passed.  Reports go to ``out.txt`` as the CLI
writes them; ``result.json`` records the exit code and byte range of
each request, the start and end of each round, the samples of the speed
probe (``calibrate.py``), the peak RSS and, when tracing, the spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

import calibrate


def main(run_dir: str) -> int:
    os.chdir(run_dir)
    with open("job.json", encoding="utf-8") as fh:
        job = json.load(fh)
    src = job["src"]
    sys.path.insert(0, src)
    import qcover.cli

    where = os.path.realpath(qcover.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print(f"qcover was imported from {where}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in job["warmup"]:
            qcover.cli.main(list(argv))
    if tracer is not None:
        tracer.reset()

    requests = job["round"]
    records = []
    rounds = []  # [start, end] of each round
    with open("out.txt", "w", encoding="utf-8") as out, \
            open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink), \
            calibrate.Probe() as probe:
        t0 = time.perf_counter()
        while True:
            start_round = time.perf_counter()
            for argv in requests:
                start = out.tell()
                code = qcover.cli.main(list(argv))
                records.append([code, start, out.tell()])
            end_round = time.perf_counter()
            rounds.append([start_round, end_round])
            if end_round - t0 >= job["seconds"]:
                break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "rounds": rounds,
        "probe": probe.samples,
        "peak_rss_kb": peak_rss_kb,
        "records": records,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
