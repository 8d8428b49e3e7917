"""qcover benchmark: one workload, one run, one JSON line of results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cover-check --seed 1 \
        --seconds 10 --trace 0

The run builds the workload's inputs from the seed, times a fresh
interpreter importing ``qcover.cli`` (``setup_s``), then starts one
serving process (``serve.py``) that answers whole rounds of requests
through ``qcover.cli.main`` for ``--seconds``.  Every answer is then
checked against the independent computations in ``oracle.py``.  With
``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` the serving process wraps the public functions of each
module and the line carries the per-layer metrics instead.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread, for the serving process and for the checks here
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

# glibc's malloc raises its mmap threshold as large blocks are freed, so a
# 16 MB numpy array lands in mmap or in the heap depending on allocation
# history: identities moved between 90 and 104 MB peak RSS, and by up to
# 20% in speed, from run to run.  Fixing the two thresholds at the values
# that policy settles at (32 MiB, and twice that for trimming) removes the
# dependence on history.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}

import calibrate  # noqa: E402
import checks  # noqa: E402  (imports numpy)
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SERVE = os.path.join(HERE, "serve.py")

SETUP_PROBES = 7  # fresh interpreters timed per run; the median is reported
DEADLINE_S = 170.0  # the whole run ends inside this
PROBLEMS_SHOWN = 10


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)  # carries BLAS_ENV
    env.update(MALLOC_ENV)
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(env: dict) -> float:
    """Median time for a fresh interpreter to import qcover.cli, each
    probe scaled to the reference host speed by the kernel timed just
    before it on the same CPU.

    One untimed probe first, so byte-compiling a fresh checkout is not
    counted.
    """
    code = "import qcover.cli as c; print(c.__file__, flush=True)"
    times = []
    for probe in range(SETUP_PROBES + 1):
        kernel_s = calibrate.measure()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        where = os.path.realpath(line.strip() or "?")
        if proc.returncode != 0 or not where.startswith(
                os.path.realpath(SRC) + os.sep):
            raise BenchError(f"qcover.cli did not import from {SRC}: {err.strip()}")
        if probe:
            times.append(elapsed * calibrate.REFERENCE_S / kernel_s)
    return statistics.median(times)


def serve(run_dir: str, job: dict, env: dict, deadline: float) -> dict:
    with open(os.path.join(run_dir, "job.json"), "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    try:
        proc = subprocess.run([sys.executable, SERVE, run_dir], env=env,
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the serving process ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"the serving process failed: {proc.stderr.strip()}")
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(run_dir: str, items: list, result: dict) -> tuple[int, int, bool]:
    """Check every answer of every round; returns attempted, failed, correct."""
    with open(os.path.join(run_dir, "out.txt"), "rb") as fh:
        out = fh.read()
    records = iter(result["records"])
    attempted = failed = 0
    correct = True
    problems: list[str] = []
    for _ in result["rounds"]:
        for item in items:
            outputs = []
            for _argv in item["argvs"]:
                code, start, end = next(records)
                outputs.append((code, out[start:end].decode("utf-8")))
            found = checks.check(item, outputs)
            attempted += item["items"]
            if found:
                failed += item["items"]
                if not item.get("known_fault"):
                    correct = False
                    problems.extend(found)
    for line in problems[:PROBLEMS_SHOWN]:
        print(f"wrong answer: {line}", file=sys.stderr)
    return attempted, failed, correct


def rate(items: list, result: dict) -> float:
    """Median over the rounds of items per second at the reference speed.

    The work between two probe samples is timed at the speed the samples
    at its ends show: each stretch counts for its length times
    ``REFERENCE_S`` over their mean kernel time.  The probe's own time is
    not work.
    """
    per_round = sum(item["items"] for item in items)
    probe = result["probe"]
    rates = []
    for start, end in result["rounds"]:
        inside = [s for s in probe if start <= s[0] < end]
        # a round shorter than the probe's interval takes the nearest sample
        t, kernel = start, (inside or [min(
            probe, key=lambda s: abs(s[0] - start))])[0][2]
        ref_s = 0.0
        for s_start, s_end, s_kernel in inside:
            ref_s += (s_start - t) * 2 / (kernel + s_kernel)
            t, kernel = s_end, s_kernel
        ref_s += (end - t) / kernel
        rates.append(per_round / (ref_s * calibrate.REFERENCE_S))
    return statistics.median(rates)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # one CPU for this process and its children, so the speed the kernel
    # gauges here is the speed the probes and the serving process get
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = workloads.build(workload, seed)
    run_dir = os.path.join(OUT, f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        for name, data in spec["files"].items():
            with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        env = child_env()
        setup_s = None if trace else measure_setup(env)
        items = spec["round"]
        job = {"src": SRC, "trace": trace, "seconds": seconds,
               "warmup": spec["warmup"],
               "round": [argv for item in items for argv in item["argvs"]]}
        result = serve(run_dir, job, env, deadline)
        attempted, failed, correct = check_outputs(run_dir, items, result)
        items_per_s = rate(items, result)
        if trace:
            out_bytes = result["records"][-1][2]
            metrics = tracing.per_layer(result["spans"],
                                        len(result["rounds"]), out_bytes)
            summary = {"workload": workload, "seed": seed,
                       "rounds": len(result["rounds"]),
                       "traced_items_per_s": items_per_s,
                       "absent": result["absent"], "metrics": metrics}
            for fn in result["absent"]:
                print(f"traced function absent: {fn}", file=sys.stderr)
            with open(os.path.join(OUT, f"trace-{workload}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({**summary, "spans": result["spans"]}, fh)
            units = tracing.PER_LAYER
        else:
            metrics = {"setup_s": setup_s, "items_per_s": items_per_s,
                       "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
            units = {"setup_s": "s", "items_per_s": "items/s",
                     "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
