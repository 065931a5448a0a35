"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload topk-wire --seed 1 --seconds 55 \\
        --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it runs the workload twice (untraced, then with layer spans, each for
half the time) and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any wrong answer makes the exit code 1.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _bootstrap() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {src}")
    sys.path[:0] = [src, ROOT]


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _median(values: List[float]) -> float:
    # Empty only when nothing succeeded, and then the run fails.
    return statistics.median(values) if values else 0.0


def units() -> Dict[str, str]:
    """Each metric's unit, as ``BENCHMARK.json`` declares it."""
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _rate(latencies_ms: List[float]) -> float:
    """Queries per second of one closed-loop client."""
    return len(latencies_ms) / (sum(latencies_ms) / 1000.0)


def measured(res: Any) -> Dict[str, float]:
    """The run's timings as measured.  ``setup_s`` is the median of the
    run's set-ups; the query figures come from each query's best over
    the rounds, as :meth:`~perfbench.workloads.Result.query_ms` gives
    it."""
    from perfbench.workloads import percentile

    lat = res.query_ms()
    return {
        "setup_s": statistics.median(res.setup_s),
        # lat is empty only when every query failed, and then the run
        # fails
        "qps": _rate(lat) if lat else 0.0,
        "query_p50_ms": _median(lat),
        "query_p90_ms": percentile(lat, 90),
    }


def end_to_end(res: Any) -> Dict[str, float]:
    """The measured timings at reference speed (see
    ``perfbench/calibration.py``), and the peak memory."""
    from perfbench.calibration import scale

    k = scale(res.calib_ms)
    raw = measured(res)
    return {
        "setup_s": raw["setup_s"] * k,
        "qps": raw["qps"] / k,
        "query_p50_ms": raw["query_p50_ms"] * k,
        "query_p90_ms": raw["query_p90_ms"] * k,
        "peak_rss_mb": res.peak_rss_mb,
    }


def per_layer(tracer: Any, res: Any, plain: Any) -> Dict[str, float]:
    """Every per-layer metric from one traced run (``plain`` is the
    untraced run it is compared with for the tracing overhead)."""
    from perfbench.tracing import wire_overhead_ms

    n = max(1, res.completed)

    def per_query(span: str) -> float:
        return tracer.self_ms(span)[0] / n

    def per_call(span: str) -> float:
        ms, calls = tracer.self_ms(span, window=False)
        return ms / calls if calls else 0.0

    def count(name: str) -> float:
        return tracer.total(name) / n

    evaluate_ns = sum(end - start for _i, _p, name, start, end, _s, _r
                      in tracer.spans
                      if name == "query.evaluate" and tracer.in_window(start))
    query_ms = sum(res.latencies_ms)
    qerrors = tracer.samples("qerror")
    scanned = tracer.total("scan_rows")
    writes = res.writes
    # Every store built builds the index once; all other builds were
    # paid by writes.
    rebuilds = tracer.total_all("index_builds") - res.builds
    # Both rates from per-query bests, like qps: a rate over all rounds
    # would carry the machine's slow stretches into the difference.
    traced_qps = _rate(res.query_ms()) if res.completed else 0.0
    untraced_qps = _rate(plain.query_ms()) if plain.completed else 0.0
    return {
        "query.parse_ms": per_query("query.parse"),
        "query.compile_ms": per_query("query.compile"),
        "query.prefix_ms": per_query("query.prefix"),
        "query.prefix_calls": count("prefix_calls"),
        "query.evaluate_ms": per_query("query.evaluate"),
        "query.evaluate_calls": count("evaluate_calls"),
        "query.evaluate_time_frac": (
            evaluate_ns / 1e6 / query_ms if query_ms else 0.0),
        "plan.estimate_ms": per_query("plan.estimate"),
        "plan.choose_ms": per_query("plan.choose"),
        "plan.qerror_p50": statistics.median(qerrors) if qerrors else 0.0,
        "plan.qerror_max": max(qerrors) if qerrors else 0.0,
        "access.termjoin_ms": per_query("access.termjoin"),
        "access.postings_read": count("postings_read"),
        "access.phrasejoin_ms": per_query("access.phrasejoin"),
        "access.pick_ms": per_query("access.pick"),
        "engine.execute_ms": per_query("engine.execute"),
        "engine.rows_out": count("rows_out"),
        "engine.filter_pass_frac": (
            tracer.total("filter_rows") / scanned if scanned else 0.0),
        "engine.materialize_ms": per_query("engine.materialize"),
        "engine.nodes_materialized": count("nodes_materialized"),
        "perf.batch_query_sum_s": _mean(res.batch_sum_s),
        "perf.batch_wall_s": _mean(res.batch_wall_s),
        "server.queue_ms": _mean(tracer.samples("queued_ms")),
        "server.gate_wait_ms": per_query("server.gate_wait"),
        "server.serialize_ms": per_query("server.serialize"),
        "server.response_kb": _mean(tracer.samples("response_kb")),
        "server.wire_overhead_ms": _mean(wire_overhead_ms(tracer)),
        "xmldb.parse_ms": per_call("xmldb.parse"),
        "index.inverted_build_ms": per_call("index.inverted_build"),
        "index.structure_build_ms": per_call("index.structure_build"),
        "xmldb.stats_build_ms": per_call("xmldb.stats_build"),
        "index.rebuilds": rebuilds / writes if writes else 0.0,
        # From the untraced run: the spans the tracer keeps in memory
        # would lengthen the collector's passes.
        "gc.pause_ms": plain.gc_ms / max(1, plain.completed),
        "trace.overhead_frac": (1.0 - traced_qps / untraced_qps
                                if untraced_qps else 0.0),
    }


def attempted(res: Any) -> int:
    """Queries sent plus volume replacements."""
    return res.attempted + res.writes


def summary(workload: str, res: Any) -> List[str]:
    """Human-readable lines printed before the JSON result."""
    from perfbench.calibration import scale
    from perfbench.workloads import percentile

    failed = len(res.failures)
    per_round = len(res.rounds[0]) if res.rounds else 0
    lat = res.latencies_ms
    lines = [
        f"workload {workload}: {len(res.rounds)} rounds, "
        f"{res.attempted} queries and {res.writes} writes attempted, "
        f"{res.completed} queries completed, {failed} failed, "
        f"{res.checked} answers checked against the reference",
        f"  failed_frac {failed / attempted(res):.4f} ratio",
        f"  queries per round: {per_round}, above p90: "
        f"{per_round - int(per_round * 0.9)}",
        f"  round qps: {[round(x, 2) for x in res.per_round(_rate)]}",
        f"  round p50 (ms): "
        f"{[round(x, 2) for x in res.per_round(statistics.median)]}",
        "  latency over all rounds (ms): "
        + ", ".join(f"p{q} {percentile(lat, q):.2f}"
                    for q in (50, 75, 90, 95, 99)),
        f"  collector pauses per round (ms): "
        f"{[round(sum(p), 1) for p in res.pause_rounds]}",
        f"  setups (s): {[round(x, 3) for x in res.setup_s]}",
        f"  calibration task, best of each round (ms): "
        f"{[round(x, 2) for x in res.calib_ms]}",
        f"  scale to reference speed: {scale(res.calib_ms):.4f}",
        "  as measured: " + ", ".join(
            f"{name} {value:.4g}" for name, value in measured(res).items()),
        f"  writes (ms): {[round(x, 1) for x in res.write_ms]}",
        f"  store: {res.info}",
        f"  caches: {json.dumps(res.cache_stats, sort_keys=True)}",
    ]
    lines.extend(f"  FAILED {f}" for f in res.failures[:20])
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.tracing import Tracer, install
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    run = WORKLOADS[args.workload]
    if not args.trace:
        runs = [run(args.seed, args.seconds, None)]
        metrics = end_to_end(runs[0])
    else:
        half = args.seconds / 2.0
        plain = run(args.seed, half, None)
        tracer = install(Tracer())
        try:
            traced = run(args.seed, half, tracer)
        finally:
            tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz"))
        runs = [plain, traced]
        metrics = per_layer(tracer, traced, plain)
    for i, res in enumerate(runs):
        label = args.workload + (" (traced)" if i else "")
        for line in summary(label, res):
            print(line)
    failed = sum(len(r.failures) for r in runs)
    unit = units()
    out = {
        "correct": failed == 0,
        "attempted": sum(attempted(r) for r in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(out, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
