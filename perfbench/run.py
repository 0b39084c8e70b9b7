"""Benchmark of the densecap pipeline: one workload per run, closed loop.

    python3 perfbench/run.py --workload {propose,evaluate,concepts}
                             [--seed 7] [--seconds 20] [--trace 0|1]

Set-up generates the inputs from the seed and writes them under
``.perfbench/`` in the checkout; the run then repeats passes over them for
``--seconds`` seconds, checks every output and prints one metric per line,
then one JSON object as the last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced passes with ``--trace 1``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# One library caller and single-threaded BLAS/OpenMP: the matrices are
# small, and a second thread only adds scheduling noise on a shared host.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
WARMUP_VIDEOS = 4
MIN_PASSES = 2             # untraced passes per run, so each video has a median
LOOP_SHARE = 0.25          # of --seconds, spent in per-video loops of untraced passes
MAX_RUN_FACTOR = 3         # stop after this many times --seconds regardless

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("video_ms_p50", "ms"),
              ("video_ms_p99", "ms"), ("peak_rss_mb", "MB"))
PASS_LAYERS = ("core", "intervals", "fusion", "contexts", "concepts", "metrics",
               "rerank")
BUSY = ("fusion.enumerate_sliding_windows", "fusion.from_windows", "fusion.fuse_select",
        "intervals.precision_recall", "metrics.dense_eval", "metrics.diversity_report",
        "concepts.train", "concepts.predict_proposal", "concepts.save_model",
        "concepts.load_model", "contexts.build_bundle", "contexts.pool_features",
        "rerank.proposal_rerank", "rerank.augment", "rerank.caption_rerank",
        "core.load_ground_truth", "core.load_predictions", "core.save_predictions",
        "core.load_features")
COUNTS = (("fusion.windows", "count"), ("fusion.pool_candidates", "count"),
          ("fusion.selected", "count"), ("fusion.selected_per_candidate", "ratio"),
          ("intervals.tiou_pairs", "count"), ("metrics.matched", "count"),
          ("metrics.unmatched", "count"), ("metrics.match_ratio", "ratio"),
          ("metrics.self_bleu_pairs", "count"), ("concepts.bag_passes", "count"),
          ("contexts.bundles", "count"), ("contexts.empty_views", "count"),
          ("rerank.augment_kept_ratio", "ratio"), ("core.bytes_read", "B"),
          ("core.bytes_written", "B"))
PER_LAYER = (tuple((f"{name}.busy_s", "s") for name in BUSY + PASS_LAYERS)
             + (("synthetic.busy_s", "s"),) + COUNTS
             + tuple((f"{layer}.errors", "count") for layer in PASS_LAYERS)
             + (("bench.unattributed_s", "s"), ("bench.traced_run_s", "s"),
                ("trace.overhead_ratio", "ratio")))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("propose", "evaluate", "concepts"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed, sizes):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "sizes": sizes}


def measure(wl, inp, seconds, traced, check):
    """Passes until ``seconds`` of pass time have been measured.

    Untraced runs make at least ``MIN_PASSES`` passes and spend at least
    ``LOOP_SHARE * seconds`` in the per-video loop, so the per-video
    latencies, like ``run_s``, average over several seconds of host load
    even where the loop is a small part of a pass. Traced runs
    alternate untraced and traced passes and end after a traced one. Each
    pass is checked as soon as it ends, outside its timing, and its outputs
    are then dropped.
    """
    from spans import NullTracer, Tracer
    untraced, traced_passes = [], []
    elapsed = 0.0
    while True:
        use_trace = traced and len(traced_passes) < len(untraced)
        tracer = Tracer() if use_trace else NullTracer()
        gc.collect()
        res = wl.run_pass(inp, tracer)
        check(res, first=not (untraced or traced_passes))
        res.outputs, res.videos, res.tracer = {}, {}, tracer
        (traced_passes if use_trace else untraced).append(res)
        elapsed += res.seconds
        if elapsed >= MAX_RUN_FACTOR * seconds and (traced_passes or not traced):
            break
        if elapsed < seconds:
            continue
        if traced and use_trace:
            break
        loop_s = sum(sum(r.video_seconds.values()) for r in untraced)
        if not traced and len(untraced) >= MIN_PASSES and loop_s >= LOOP_SHARE * seconds:
            break
    return untraced, traced_passes


def video_latencies_ms(passes):
    """Each video's median iteration time over the passes, in ms.

    Every pass runs the same videos, so a burst of host load that slows one
    iteration is outvoted by the other passes, while a video that is slow
    on every pass keeps its latency.
    """
    per_video = defaultdict(list)
    for res in passes:
        for vid, seconds in res.video_seconds.items():
            per_video[vid].append(seconds)
    return [1e3 * statistics.median(v) for v in per_video.values()]


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def run_workload(name, seed=7, seconds=20.0, traced=False, sizes=None,
                 workroot=WORK):
    """Set up, measure and check one workload; returns the full result dict."""
    from spans import NullTracer, Tracer, busy_seconds
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[name]
    sizes = dict(SIZES[name] if sizes is None else sizes)
    workroot.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
    try:
        setup_times, synthetic_times = [], []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            setup_tracer = Tracer()
            inp = wl.setup(seed, sizes, workdir, setup_tracer)
            wl.run_pass(inp, NullTracer(), limit=WARMUP_VIDEOS)
            setup_times.append(perf_counter() - start)
            synthetic_times.append(busy_seconds(setup_tracer.spans).get("synthetic", 0.0))
        untraced, traced_passes = measure(
            wl, inp, seconds, traced,
            lambda res, first: wl.check(inp, res, first, seed, sizes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced_passes
    attempted = sum(r.attempted for r in passes)
    failed_ops = [(i, op, layers) for i, r in enumerate(passes)
                  for op, layers in r.failures.items()]
    latencies = video_latencies_ms(untraced)
    run_s = statistics.median(r.seconds for r in untraced)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "video_ms_p50": percentile(latencies, 50),
        "video_ms_p99": percentile(latencies, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer = {}
    if traced_passes:
        busy = [busy_seconds(r.tracer.spans) for r in traced_passes]
        for key in BUSY + PASS_LAYERS:
            layer[f"{key}.busy_s"] = statistics.median(b.get(key, 0.0) for b in busy)
        layer["synthetic.busy_s"] = statistics.median(synthetic_times)
        counts = untraced[0].counts
        for key, _ in COUNTS:
            layer[key] = counts.get(key, 0)
        for name_ in PASS_LAYERS:
            layer[f"{name_}.errors"] = sum(name_ in layers for _, _, layers in failed_ops)
        layer["bench.unattributed_s"] = statistics.median(
            b.get("bench.unattributed", 0.0) for b in busy)
        traced_run_s = statistics.median(r.seconds for r in traced_passes)
        layer["bench.traced_run_s"] = traced_run_s
        layer["trace.overhead_ratio"] = traced_run_s / run_s - 1.0
    return {
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "videos": len(latencies),
        "attempted": attempted,
        "failed": len(failed_ops),
        "failures": failed_ops,
        "end_to_end": e2e,
        "per_layer": layer,
        "traced_passes": traced_passes,
    }


def write_trace(path, traced_passes):
    with open(path, "w") as f:
        for k, res in enumerate(traced_passes):
            for span in res.tracer.spans:
                f.write(json.dumps({"pass": k, **span.to_dict()}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not ((ROOT / "src" / "densecap" / "__init__.py").is_file()
            and (ROOT / "tests" / "oracles.py").is_file()):
        print(f"perfbench: {ROOT} has no src/densecap or tests/oracles.py to measure",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    start = perf_counter()
    import densecap  # noqa: F401  (import time is part of set-up)
    import_s = perf_counter() - start
    from workloads import SIZES

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["end_to_end"]["setup_s"] += import_s
    env = environment(args.seed, SIZES[args.workload])
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"passes {json.dumps(result['passes'])} videos {result['videos']}")
    units = dict(END_TO_END + PER_LAYER)
    for key, value in {**result["end_to_end"], **result["per_layer"]}.items():
        print(f"{key} {value:.6g} {units[key]}")
    error_rate = result["failed"] / max(1, result["attempted"])
    print(f"error_rate {error_rate:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for pass_index, op, layers in result["failures"][:10]:
        print(f"FAILED pass {pass_index} {op}: {layers}", file=sys.stderr)
    if result["traced_passes"]:
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_trace(trace_path, result["traced_passes"])
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
