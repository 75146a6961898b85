"""Run one ntkms benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports ntkms from
``src/``.  Metric lines go to stdout, the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Full results (machine, input digest, per-pass times, failures) are
written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_TIMEOUT_S = 120
# untraced runs make at least two passes, so every item has two samples
# and set-up (timed once before each pass and once after the last) has
# at least three
MIN_PASSES = 2


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print 'ready' and exit (set-up timing)")
    return ap.parse_args(argv)


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the first timed item;
    the child builds the workload, prints 'ready' and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return elapsed


def run_passes(wl, state, budget: float, tracer=None, min_passes: int = 1, setup=None):
    """Passes until the next one would overrun ``budget`` seconds, and at
    least ``min_passes``.

    With ``setup`` (a function returning one set-up time), set-up is
    timed before each pass and once after the last, inside the budget, so
    its samples span the run as the passes do; returns (passes, samples).
    """
    from workloads import Pass

    passes, samples = [], []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        if setup is not None:
            samples.append(setup())
        if passes and wl.fresh_state_per_pass:
            state = wl.build()
        gc.collect()  # every pass starts from the same collector state
        p = Pass(tracer)
        wl.run_pass(p, state)
        passes.append(p)
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - c0) > budget:
            if setup is not None:
                samples.append(setup())
            return passes, samples


def summarize(passes) -> dict:
    """Means over the whole run: of the pass times, and of each item's
    latency, with p50/p90 then taken over the items (every pass runs the
    same items in the same order).

    The host switches between two speeds for tens of seconds at a time,
    so pass times are bimodal, and a median over a few passes jumps
    between the modes while the mean weighs them by the time spent in
    each (perfbench/README.md, "Machine and noise").
    """
    latencies = [statistics.fmean(xs) for xs in zip(*(p.latencies for p in passes))]
    return {
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "wall_s": statistics.fmean(p.wall for p in passes),
        "items": len(latencies),
        "item_p50_ms": quantile(latencies, 0.5) * 1e3,
        "item_p90_ms": quantile(latencies, 0.9) * 1e3,
        "attempted": sum(p.attempted for p in passes),
        "failures": [f for p in passes for f in p.failures],
        "tail_violations": [p.tail_violations for p in passes],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ntkms" / "__init__.py").is_file():
        print(f"error: no ntkms sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl_cls = WORKLOADS[args.workload]
    if args.setup_only:
        wl_cls(args.seed).build()
        print("ready", flush=True)
        return 0

    info = machine()
    wl = wl_cls(args.seed)
    state = wl.build()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items_digest": wl.digest,
        "machine": info,
    }

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        from tracing import Tracer

        plain, _ = run_passes(wl, state, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.phase("setup")
            tracer.active = True
            state = wl.build()
            tracer.active = False
            tracer.phase("pass")
            tracer.reset_keys()
            traced, _ = run_passes(wl, state, args.seconds / 2, tracer)
        finally:
            tracer.active = False
            tracer.uninstall()
        base, over = summarize(plain), summarize(traced)
        failures = base["failures"] + over["failures"]
        attempted = base["attempted"] + over["attempted"]
        metrics = tracer.layer_metrics(len(traced), max(over["tail_violations"]))
        metrics["trace_overhead_frac"] = over["wall_s"] / base["wall_s"] - 1.0
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
        tracer.write_spans(spans)
        result.update(untraced=base, traced=over, spans=str(spans.relative_to(ROOT)),
                      spans_stored=len(tracer.span_start),
                      spans_dropped=tracer.spans_dropped)
    else:
        passes, setup_samples = run_passes(
            wl, state, args.seconds, min_passes=MIN_PASSES,
            setup=lambda: measure_setup(args.workload, args.seed))
        summary = summarize(passes)
        failures, attempted = summary["failures"], summary["attempted"]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": summary["wall_s"],
            "item_p50_ms": summary["item_p50_ms"],
            "item_p90_ms": summary["item_p90_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result.update(summary, setup_s_samples=setup_samples)
        result["failed_frac"] = len(failures) / attempted

    result["stdout_sha256"] = sorted(set(getattr(wl, "stdout_digests", [])))
    result["metrics"] = metrics
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    shown = result if not args.trace else result["untraced"]
    print(f"workload {args.workload} seed {args.seed} digest {wl.digest[:16]} "
          f"passes {shown['passes']} items per pass {shown['items']}")
    if not args.trace:
        print(f"metric failed_frac {result['failed_frac']:.6g} ratio")
        print(f"tail violations per pass {result['tail_violations']}")
    for f in failures[:10]:
        print(f"FAILED {f}")
    for k, v in metrics.items():
        print(f"metric {k} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
