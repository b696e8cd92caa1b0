"""Benchmark of the crosslex pipeline, one workload per run.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 40 --trace 0

Run from anywhere; it measures the source tree of the checkout it sits in
(``src/crosslex``) and exits with code 2, printing no result, when that tree
is missing. Inputs come from ``--seed`` alone.

Load shape: a closed loop with one client. A pass runs the workload's CLI
commands in sequence; one process repeats passes for about ``--seconds``.
Set-up (generation and, where the workload needs one, model
fitting) runs ``SETUPS[workload]`` times in another process, so it never
counts towards ``peak_rss_mb``. Every figure is a median over set-ups or
passes.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` an untraced and a traced process each get half the time,
and the last line carries the per-layer metrics, which include the tracing
overhead. The lines before it give every metric with its unit, and the
environment. A record of the run with every pass, and the spans of traced
passes, go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

from checkout import ROOT, SRC, MissingSourceError, require_source
from tracing import LAYER_METRICS
from workloads import PARTS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
# Set-ups per run. More of them make their median steadier, but an evaluate
# set-up takes about 6.5 s against about 0.6 s for train-align.
SETUPS = {"train-align": 9, "evaluate": 3}
MIN_PASSES = 2
BLAS_THREADS = 1
# A child counts as hung after SETUP_TIMEOUT_S per set-up (one takes at
# most about 6 s), or, running passes, after twice its seconds plus
# PASS_TIMEOUT_S for the last pass and the output checks.
SETUP_TIMEOUT_S = 30
PASS_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Figures of the commands a workload runs; 0 on a workload that does not run
# them. Reported with the per-layer metrics (see NOTES.md).
WORKLOAD_METRICS = {
    "train_tokens_per_s": "1/s", "bli_queries_per_s": "1/s", "knn_s": "s",
    "contextsim_records_per_s": "1/s", "classify_docs_per_s": "1/s",
    "bli_p_at_10": "ratio", "zero_shot_f1": "ratio", "failed_ratio": "ratio",
}
TRACE_METRICS = {"trace.overhead_s": "s"}


class ChildError(RuntimeError):
    pass


def child(script, args, env, log, timeout):
    """Run a benchmark script in a fresh interpreter; return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *args],
            env=env, stdout=subprocess.PIPE, stderr=log, text=True,
            timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{script} ran over {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise ChildError(f"{script} exited {proc.returncode} without a result; "
                     f"see {log.name}")


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # Peak RSS should follow what the passes keep alive. Hugepage advice lets
    # the kernel collapse pages in the background, and glibc's adaptive mmap
    # threshold makes freed arrays linger in the heap depending on earlier
    # passes; either made identical passes differ by up to 16 MB.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment(args, sizes):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "crosslex", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the checkout need not be a git repository
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "sizes": sizes,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run(args):
    base = args.workdir or WORK
    workdir = os.path.join(base, f"{args.workload}-{args.seed}")
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env()
    log_path = os.path.join(results, f"{tag}.log")
    # The smoke test's tiny scale sets up once and runs one pass per process.
    setups, min_passes = ((1, 1) if args.scale == "tiny"
                          else (SETUPS[args.workload], MIN_PASSES))
    spans = os.path.join(results, f"{tag}.spans.jsonl.gz")
    # Trace 1 splits the time between an untraced and a traced process.
    plan = [(0, args.seconds)] if not args.trace else [
        (0, args.seconds / 2), (1, args.seconds / 2)]
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            setup_times = child("workloads.py", [
                "--workload", args.workload, "--seed", str(args.seed),
                "--workdir", workdir, "--scale", args.scale,
                "--repeat", str(setups)], env, log,
                timeout=SETUP_TIMEOUT_S * setups)["setup_s"]
            with open(os.path.join(workdir, "workload.json"), encoding="utf-8") as fh:
                sizes = json.load(fh)["sizes"]
            runs = [child("pipeline.py", [
                "--workdir", workdir, "--seconds", str(seconds),
                "--trace", str(trace), "--min-passes", str(min_passes),
                *(["--spans", spans] if trace else [])], env, log,
                timeout=2 * seconds + PASS_TIMEOUT_S)
                for trace, seconds in plan]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain, traced = runs[0]["passes"], (runs[1]["passes"] if args.trace else [])
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    figures = {
        "setup_s": median(setup_times),
        "wall_s": median([p["wall_s"] for p in plain]),
        "peak_rss_mb": runs[0]["peak_rss_mb"],
    }
    knn = [s for p in plain for s in p["metrics"]["knn_samples"]]
    for name in WORKLOAD_METRICS:
        values = knn if name == "knn_s" else [
            p["metrics"][name] for p in plain if name in p["metrics"]]
        figures[name] = median(values)
    figures["failed_ratio"] = failed / attempted
    if traced:
        for name in LAYER_METRICS:
            figures[name] = median([p["layers"][name] for p in traced])
        figures["trace.overhead_s"] = (
            median([p["wall_s"] for p in traced]) - figures["wall_s"])

    env_record = environment(args, sizes)
    units = {**END_TO_END, **WORKLOAD_METRICS}
    if traced:
        units.update(LAYER_METRICS)
        units.update(TRACE_METRICS)
    record = {"environment": env_record, "figures": figures, "units": units,
              "setup_s": setup_times, "runs": runs,
              "knn_samples": len(knn), "attempted": attempted, "failed": failed}
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, unit in units.items():
        note = f"  (median of {len(knn)} knn commands)" if name == "knn_s" else ""
        print(f"{name} {figures[name]!r} {unit}{note}")
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED pass {p['pass_id']}: {failure}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    reported = (END_TO_END if not args.trace
                else {**WORKLOAD_METRICS, **LAYER_METRICS, **TRACE_METRICS})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in reported.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", default="full", choices=["full", "tiny"],
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--workdir", help="directory for inputs and results "
                        "(default: .bench_work in the checkout)")
    args = parser.parse_args(argv)
    try:
        require_source()
        run(args)
    except (MissingSourceError, ChildError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
