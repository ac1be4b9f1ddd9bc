"""Run one workload of the Lixto benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload monitor_server --seed 1 --seconds 30 --trace 0

``--trace 0`` measures one window of requests and prints the end-to-end
metrics.  ``--trace 1``
measures an untraced round, replays it with the layer boundaries wrapped,
prints the per-layer metrics plus the tracing overhead, and writes the spans
to ``.bench_traces/``.  Every line before the last is for people; the last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, pace, tracing  # noqa: E402  (needs the path above)

#: Builds are repeated at least this often and for at least this long; a
#: build takes 1 ms (``ebay_extract``) to 100 ms (``monitor_server``).
SETUP_REPEATS = 21
SETUP_SECONDS = 1.0
#: String hashing is salted per process unless this is fixed, and the salt
#: reorders every dict and set of strings: four processes running the same
#: ``tree_query`` seed spread by 16% with random salts, 6% with one salt.
HASH_SEED = "0"
WARMUP_REQUESTS = 8
WORKLOADS = ("ebay_extract", "tree_query", "monitor_server")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(window, setups) -> dict:
    """The gated metrics.  Timings are on the reference host (``pace``);
    the wall-clock figures and the median are printed for people only."""
    wall = window.latencies
    latencies = window.reference_latencies()
    p95, samples, beyond = harness.percentile(latencies, 95)
    print(f"latency samples: {samples} (p95 leaves {beyond} beyond it)")
    print(f"host probe: median {window.pace.overall() * 1000.0:.4g} ms over "
          f"{len(window.pace.probes)} probes (reference {pace.REFERENCE_S * 1000.0:.4g} ms)")
    # The median of a narrow latency distribution jumps between the host's
    # phases (see the README); with one client in a closed loop, throughput
    # is the inverse of the mean latency.
    print(f"latency_p50_ms (not gated): {harness.percentile(latencies, 50)[0] * 1000.0:.6g} ms")
    print(f"wall latency mean/p50/p95: {statistics.fmean(wall) * 1000.0:.6g} / "
          f"{harness.percentile(wall, 50)[0] * 1000.0:.6g} / "
          f"{harness.percentile(wall, 95)[0] * 1000.0:.6g} ms; "
          f"throughput {window.throughput_rps:.6g} 1/s")
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p95; lengthen --seconds",
              file=sys.stderr)
    wall_setups, reference_setups = setups
    print(f"wall setup_s: {statistics.median(wall_setups):.6g} s")
    return {
        "setup_s": _metric(statistics.median(reference_setups), "s"),
        "latency_mean_ms": _metric(statistics.fmean(latencies) * 1000.0, "ms"),
        "latency_p95_ms": _metric(p95 * 1000.0, "ms"),
        "ok_share": _metric(harness.ok_share([window]), "ratio"),
        "fresh_share": _metric(window.fresh_share(), "ratio"),
        "rss_peak_mb": _metric(harness.peak_rss_mb(), "MB"),
    }


def per_layer(layers, untraced, traced, tracer) -> dict:
    requests = max(traced.attempted, 1)
    metrics = {}
    totals = tracing.summarise(tracer.spans)
    for name in layers.SPANS:
        calls, seconds = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = _metric(calls / requests, "1/req")
        metrics[f"{name}.self_ms"] = _metric(seconds * 1000.0 / requests, "ms/req")
    request_s = tracing.root_seconds(tracer.spans)
    elog_s = sum(totals.get(name, (0, 0.0))[1] for name in ("elog.extract", "elog.find_targets"))
    metrics["elog.self_share"] = _metric(elog_s / request_s if request_s else 0.0, "ratio")
    scanned = tracer.sums.get("elog.find_targets.scanned", 0.0)
    returned = tracer.sums.get("elog.find_targets.returned", 0.0)
    metrics["elog.find_targets.hit_ratio"] = _metric(returned / scanned if scanned else 0.0, "ratio")
    for name in layers.COUNTERS:
        metrics[name] = _metric(traced.deltas.get(name, 0) / requests, "1/req")
    for prefix in layers.HIT_RATES:
        hits = traced.deltas.get(f"{prefix}.hits", 0)
        lookups = hits + traced.deltas.get(f"{prefix}.misses", 0)
        metrics[f"{prefix}.hit_rate"] = _metric(hits / lookups if lookups else 0.0, "ratio")
    metrics["trace.request_ms"] = _metric(request_s * 1000.0 / requests, "ms/req")
    metrics["trace.untraced_throughput_rps"] = _metric(untraced.throughput_rps, "1/s")
    metrics["trace.traced_throughput_rps"] = _metric(traced.throughput_rps, "1/s")
    metrics["trace.slowdown_x"] = _metric(
        untraced.throughput_rps / traced.throughput_rps if traced.throughput_rps else 0.0, "x"
    )
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    layers = import_module("perfbench.layers")
    workload = import_module(f"perfbench.workloads.{args.workload}").Workload(args.seed)
    # The pre-generated inputs stay alive for the whole run, where a real
    # server holds one request's input at a time.  Freezing them keeps the
    # collector from re-scanning the pool on every full collection, which
    # added 20-70% to tree_query and drifted from run to run.
    gc.freeze()
    setups = harness.timed_setups(workload, SETUP_REPEATS, SETUP_SECONDS)
    if args.trace:
        # The traced round replays the untraced round's requests on a fresh
        # build, so the throughput ratio of the two is the tracing overhead.
        tracer = tracing.Tracer()
        rounds = harness.run_rounds(workload, args.seconds / 2, 2, WARMUP_REQUESTS,
                                    tracer, layers.boundary_patches())
        metrics = per_layer(layers, rounds[0], rounds[1], tracer)
        out = ROOT / ".bench_traces"
        out.mkdir(exist_ok=True)
        spans_path = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(str(spans_path))
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        rounds = harness.run_rounds(workload, args.seconds, 1, WARMUP_REQUESTS)
        metrics = end_to_end(rounds[0], setups)
    workload.final_checks()

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"inputs: {json.dumps(workload.summary, sort_keys=True)}")
    print(f"setup_s per build ({len(setups[0])} builds): "
          f"{[round(value, 4) for value in setups[0][:21]]}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for problem in workload.problems[:20]:
        print(f"check failed: {problem}")
    correct = not workload.problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(window.attempted for window in rounds),
        "failed": sum(window.failed for window in rounds),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _with_fixed_hash_seed() -> None:
    """Replace this process with itself under ``PYTHONHASHSEED=HASH_SEED``
    (``exec``, so no second process is left to wait for)."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})


if __name__ == "__main__":
    _with_fixed_hash_seed()
    sys.exit(main())
