"""End-to-end and per-layer benchmark of conjparse.

One workload, one process:

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 60 --trace 0

prints the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or the
per-layer metrics from a traced run (``--trace 1``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, prefixed ``INFO``, holds
the workload-specific figures (dev LAS, conj F1, p90 latency, fingerprint,
machine facts).  The exit code is 1 when a correctness check fails.

Every workload, untraced and traced, each in its own process, with a
summary table and the layer checks:

    python3 perfbench/run.py --all [--seed 1] [--seconds 60]

See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS is pinned to one thread, below the core-count cap: every matrix
# product here is matrix-vector sized, and on a 2-core machine one thread
# parsed 45% more tokens per second than two.  ``main`` sets it before
# numpy is first imported.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc's malloc hands large freed blocks back to the kernel, so that each
# train_short job faulted in about 40 MB of fresh pages (10,000 faults).  On
# the shared reference machine the cost of those faults changed by the
# hour: train_short read 26 sent/s in one set of runs and 18 in the next,
# and 22-25 with this setting in the same hour as the 18.  ``main`` keeps
# freed memory in the heap (no mmap, no trim), so that what is timed is the
# program's own work; the peak resident memory stays the same.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4


def keep_freed_memory() -> bool:
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc
        return False
    return bool(libc.mallopt(M_MMAP_MAX, 0) and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30))


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

# Set-up repeats after the jobs: at least SETUP_REPS of them, for at least
# SETUP_SECONDS of the run's ``--seconds``.
SETUP_REPS = 11
SETUP_SECONDS = 3.0
# End-to-end metric -> unit; BENCHMARK.json lists the same names.
END_TO_END = {"setup_s": "s", "sent_per_s": "sent/s", "tok_per_s": "tok/s",
              "job_ms_p50": "ms", "peak_rss_mb": "MB"}
FINGERPRINTS = HERE / "fingerprints.json"


def machine_facts() -> dict:
    import platform

    import numpy

    from conjparse import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy too old for mode="dicts"
        blas_name = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "kernel_backend": kernels.BACKEND,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 hp: dict | None = None) -> tuple:
    """Run one workload in this process; returns (result, info)."""
    import statistics
    from time import perf_counter

    from layers import Counters, per_layer_metrics, unit_of
    from tracer import Tracer
    from workloads import WORKLOADS, Quality, Run, quantile

    hp = dict(hp or {})
    workload = WORKLOADS[name]
    counters = Counters()
    tracer = Tracer(counters.hooks())
    if trace:
        tracer.install()
    start = perf_counter()
    state = workload.setup(seed, hp)
    setup_s = perf_counter() - start
    tracer.uninstall()
    run = Run(workload, state)
    info = {"workload": name, "seed": seed, "conj_arc_frac": state.conj_arc_frac}
    if not trace:
        setup_window = min(SETUP_SECONDS, seconds)
        run.loop(seconds - setup_window, min_jobs=2 * state.keys)
        # Before the set-up repeats below, so that it is the peak of one
        # set-up and the jobs.
        rss_mb = peak_rss_mb()
        measured = run.whole_passes()
        busy = sum(job.seconds for job in measured)
        latencies = [job.seconds * 1000.0 for job in measured] or [0.0]
        quality = Quality()
        for job in run.best_jobs():  # one job of each input
            quality.add(job.quality)
        info.update({
            "jobs": len(run.jobs),
            "job_ms_p90": quantile(latencies, 90),
            "las": quality.las,
            "conj_f1": quality.conj_f1,
            "failed_frac": run.failed / run.attempted if run.attempted else None,
            "fingerprint": fingerprint_of(run),
        })
        # The set-up repeats come after the jobs, so that the jobs run in a
        # process that has set up once, as ``conjparse train`` does.
        setups = [setup_s]
        fingerprint, run.state, state = state.fingerprint, None, None
        began = perf_counter()
        while len(setups) < SETUP_REPS or perf_counter() - began < setup_window:
            start = perf_counter()
            again = workload.setup(seed, hp)
            setups.append(perf_counter() - start)
            if again.fingerprint != fingerprint:
                run.problems.append("set-up is not deterministic")
            again = None  # free it before the next set-up
        values = {
            "setup_s": statistics.median(setups),
            "sent_per_s": sum(job.sentences for job in measured) / busy if busy else 0.0,
            "tok_per_s": sum(job.tokens for job in measured) / busy if busy else 0.0,
            "job_ms_p50": statistics.median(latencies),
            "peak_rss_mb": rss_mb,
        }
        metrics = {metric: (value, END_TO_END[metric]) for metric, value in values.items()}
    else:
        # The set-up above was traced.  Untraced jobs next: every input at
        # least twice, so that the fastest repeat of each is past the first
        # pass's warm-up.  Then every input twice more, traced; Run checks
        # each traced job against its untraced twin.
        run.loop(seconds / 2, min_jobs=2 * state.keys)
        untraced_s = sum(job.seconds for job in run.best_jobs())
        jobs = len(run.jobs)
        run.jobs = []  # so that best_jobs() below sees the traced jobs alone
        run.unmeasured = tracer.pause
        tracer.install()
        try:
            start = perf_counter()
            for key in list(range(state.keys)) * 2:
                counters.new_job()
                run.do(key)
            wall_s = setup_s + perf_counter() - start - tracer.paused_s
        finally:
            tracer.uninstall()
        # The fastest traced job of each input against its fastest untraced one.
        traced_s = sum(job.seconds for job in run.best_jobs())
        overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        values = per_layer_metrics(tracer, counters, wall_s, overhead)
        metrics = {metric: (value, unit_of(metric)) for metric, value in values.items()}
        for metric in ("conj_features.extract_calls", "model.conj_score_calls"):
            if values[metric] <= 0:
                run.problems.append(f"{metric} is 0: the conj scorer never ran")
        info.update({"jobs": jobs + len(run.jobs), "fingerprint": fingerprint_of(run)})
    info["machine"] = machine_facts()
    info["problems"] = run.problems[:20]
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info


def fingerprint_of(run) -> dict:
    """Output fingerprint of a run.  With several distinct inputs, each field
    is a sha256 over every input's hash, or the list of every input's value."""
    import hashlib

    prints = run.fingerprints()
    if len(prints) == 1:
        return dict(prints[0], inputs=1)
    combined = {"inputs": len(prints)}
    for field in prints[0] if prints else ():
        values = [fingerprint[field] for fingerprint in prints]
        if field.endswith("sha256"):
            combined[field] = hashlib.sha256("".join(values).encode()).hexdigest()
        else:
            combined[field] = values
    return combined


# ----------------------------------------------------------------------
# --all


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple:
    import subprocess

    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{name} --trace {trace} printed no result "
                           f"(exit code {done.returncode})")
    info = {}
    if len(lines) > 1 and lines[-2].startswith("INFO "):
        info = json.loads(lines[-2][5:])
    return json.loads(lines[-1]), info


def layer_checks(traced: dict) -> list:
    """(description, passed) for the properties the workloads are built to show."""
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    checks = []
    for name in traced:
        checks.append((f"{name}: conj_features.extract_calls > 0",
                       value(name, "conj_features.extract_calls") > 0))
        checks.append((f"{name}: model.conj_score_calls > 0",
                       value(name, "model.conj_score_calls") > 0))
        checks.append((f"{name}: trace.coverage >= 0.9",
                       value(name, "trace.coverage") >= 0.9))
    if {"train_short", "train_long"} <= set(traced):
        checks.append(("network.adam_step_share: train_short > train_long",
                       value("train_short", "network.adam_step_share")
                       > value("train_long", "network.adam_step_share")))
        checks.append(("network.bilstm_backward_share: train_long > train_short",
                       value("train_long", "network.bilstm_backward_share")
                       > value("train_short", "network.bilstm_backward_share")))
    if "parse_docs" in traced:
        checks.append(("parse_docs: no Adam or backward calls",
                       value("parse_docs", "network.adam_step_calls") == 0
                       and value("parse_docs", "network.lstm_backward_calls") == 0
                       and value("parse_docs", "kernels.cell_backward_calls") == 0))
    return checks


def run_all(args) -> int:
    from workloads import WORKLOADS

    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    ok = True
    traced = {}
    for name in WORKLOADS:
        plain, plain_info = run_child(name, args.seed, args.seconds, 0)
        layered, layered_info = run_child(name, args.seed, args.seconds, 1)
        traced[name] = layered
        print(f"\n== {name} (seed {args.seed}, {plain_info.get('jobs')} jobs)")
        for metric, entry in plain["metrics"].items():
            print(f"  {metric:<24} {entry['value']:>14.4f} {entry['unit']}")
        for key in ("job_ms_p90", "las", "conj_f1", "failed_frac", "conj_arc_frac"):
            if plain_info.get(key) is not None:
                print(f"  {key:<24} {plain_info[key]:>14.4f}")
        for problem in plain_info.get("problems", []) + layered_info.get("problems", []):
            print(f"  problem: {problem}")
        same = plain_info.get("fingerprint") == layered_info.get("fingerprint")
        print(f"  fingerprint {plain_info.get('fingerprint')}")
        print(f"  traced run reproduces it: {'yes' if same else 'NO'}")
        want = recorded.get(name, {})
        if want.get("seed") == args.seed:
            matches = want.get("fingerprint") == plain_info.get("fingerprint")
            print(f"  matches {FINGERPRINTS.name}: "
                  f"{'yes' if matches else 'NO (results changed)'}")
            ok &= matches
        ok &= plain["correct"] and layered["correct"] and same
    print("\n== layer checks")
    checks = layer_checks(traced)
    for description, passed in checks:
        print(f"  {'ok  ' if passed else 'FAIL'} {description}")
        ok &= passed
    print("\n== per-layer metrics (traced runs)")
    names = list(next(iter(traced.values()))["metrics"])
    print(f"  {'metric':<36}" + "".join(f"{n:>14}" for n in traced))
    for metric in names:
        print(f"  {metric:<36}" + "".join(
            f"{traced[n]['metrics'][metric]['value']:>14.6g}" for n in traced))
    print(f"\n{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="train_short, train_long or parse_docs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    kept = keep_freed_memory()

    import conjparse

    if Path(conjparse.__file__).resolve().parent != ROOT / "src" / "conjparse":
        print(f"error: imported conjparse from {conjparse.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info["machine"]["malloc_keeps_freed_memory"] = kept
    print("INFO " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
