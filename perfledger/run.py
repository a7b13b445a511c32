#!/usr/bin/env python3
"""The repo benchmark: an end-to-end and per-layer performance ledger.

Usage (from the checkout root)::

    python3 perfledger/run.py --workload inproc-suite --seed 1 --seconds 30 --trace 0

Workloads: ``inproc-suite``, ``service-mixed``, ``shard-processes``
(``wl_*.py``; each run prints its loop shape, classes, dims and SLA, and
``perfledger/README.md`` tabulates them).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
is repeated and its median reported, then passes of the workload's
fixed, seeded job list run back to back (closed loop) until
``--seconds`` have passed.  ``--trace 1`` alternates untraced and
traced passes, records spans around the benchmark's calls into each
layer, runs one probe per layer function, writes the spans to
``perfledger/_out/spans-<workload>-seed<seed>.json`` and reports the
per-layer metrics.

Every result is checked (products against scipy to 1e-9 relative,
solves to their tolerance, service results by CRC and against the
in-process and scipy products).  The human-readable ledger goes to stdout; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong or failed operation makes the
command exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (stdlib-only; numpy is imported after pinning)

WORKLOADS = ("inproc-suite", "service-mixed", "shard-processes")
#: Set-ups per untraced run, and the least total set-up time: a short
#: set-up is repeated more, so ``setup_s`` (their median) stays steady.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
#: Minimum passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Minimum traced (and untraced) passes of a traced run.
MIN_TRACED_PASSES = 2


def load_catalogue() -> dict[str, Any]:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def make_workload(name: str, seed: int) -> Any:
    if name == "inproc-suite":
        import wl_inproc as module
    elif name == "service-mixed":
        import wl_service as module
    else:
        import wl_shard as module
    return module.Workload(seed)


def run_passes(
    workload: Any, seconds: float, spans: harness.Spans | None
) -> list[harness.PassResult]:
    """Closed loop: passes back to back until ``seconds`` have elapsed.

    With ``spans`` (a traced run) untraced and traced passes alternate,
    so both sides see the same host conditions.
    """
    passes: list[harness.PassResult] = []
    traced = spans is not None
    start = time.perf_counter()
    index = 0
    while True:
        enough = time.perf_counter() - start >= seconds
        if traced:
            traced_n = sum(1 for p in passes if p.traced)
            if enough and min(traced_n, len(passes) - traced_n) >= MIN_TRACED_PASSES:
                break
        elif enough and len(passes) >= MIN_PASSES:
            break
        # A traced pass repeats the inputs of the untraced pass before it,
        # so the overhead ratio compares equal work.
        workload.prepare_pass(index // 2 if traced else index)
        if spans is not None and index % 2 == 1:
            spans.trace_id = f"pass{index}"
            with spans.span("bench.pass", index=index):
                passes.append(workload.run_pass(index, spans))
        else:
            passes.append(workload.run_pass(index, harness.NullSpans()))
        index += 1
    return passes


def tally(passes: list[harness.PassResult]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors: list[str] = []
    for result in passes:
        for op in result.ops:
            attempted += 1
            if not op.ok:
                failed += 1
                errors.append(f"pass {result.index} {op.kind} {op.key}: {op.error}")
    return attempted, failed, errors


# -- end-to-end -----------------------------------------------------------------


def end_to_end(
    workload: Any,
    setup_s: list[float],
    passes: list[harness.PassResult],
    teardown: dict[str, Any],
) -> tuple[
    dict[str, float],
    list[tuple[str, float, str, int, str]],
    dict[tuple[str, str], list[float]],
]:
    """Every end-to-end metric, the ledger rows (name, value, unit, n, note)
    and each job's latency samples."""
    med, q = harness.median, harness.quantile
    system = [op for p in passes for op in p.ops if op.kind in workload.system_kinds and op.ok]
    job_times = [op.seconds for op in system]
    solves = [op for op in system if op.kind == "solve"]
    solve_times = [op.seconds for op in solves]
    scipy_cg = [op.extra["scipy_cg_s"] for op in solves if "scipy_cg_s" in op.extra]
    vs_scipy, n_scipy = harness.ratio_metric(passes, "scipy_s")
    vs_gemm, n_gemm = harness.ratio_metric(passes, "gemm_s")
    attempted, failed, _ = tally(passes)
    per_job: dict[tuple[str, str], list[float]] = {}
    for op in system:
        per_job.setdefault((op.kind, op.key), []).append(op.seconds)
    values = {
        "setup_s": med(setup_s),
        "pass_s": med([p.seconds for p in passes]),
        "job_s_geomean": harness.geomean([med(v) for v in per_job.values()]),
        "multiply_vs_scipy_x": vs_scipy,
        "multiply_vs_gemm_x": vs_gemm,
        "peak_rss_mb": float(teardown["peak_rss_mb"]),
    }
    rows = [
        ("setup_s", values["setup_s"], "s", len(setup_s), "median set-up"),
        ("pass_s", values["pass_s"], "s", len(passes), "median pass wall time"),
        ("job_s_geomean", values["job_s_geomean"], "s", len(job_times),
         f"geo-mean over the {len(per_job)} jobs of a pass of each job's median latency"),
        ("job_s_p50", med(job_times), "s", len(job_times), "median operation latency"),
        ("job_s_p90", q(job_times, 0.9), "s", len(job_times),
         "p90 operation latency (fewer than 100 samples: indicative only)"),
        ("multiply_vs_scipy_x", vs_scipy, "x", n_scipy, "geo-mean of median product ÷ median scipy CSR@CSR"),
        ("multiply_vs_gemm_x", vs_gemm, "x", n_gemm, "geo-mean of median product ÷ median numpy GEMM"),
        ("failed_ratio", failed / attempted if attempted else 0.0, "ratio", attempted,
         "operations failed or wrong ÷ attempted"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", teardown.get("rss_samples", 1),
         teardown["rss_note"]),
    ]
    if solves:
        rows.insert(4, ("solve_s_p50", med(solve_times), "s", len(solve_times),
                        workload.solve_note))
        if scipy_cg:
            rows.insert(5, ("solve_vs_scipy_x", med(solve_times) / med(scipy_cg), "x",
                            len(scipy_cg), "median solve ÷ median scipy cg"))
    return values, rows, per_job


# -- per-layer ------------------------------------------------------------------


def layer_metrics(
    workload: Any,
    spans: harness.Spans,
    passes: list[harness.PassResult],
    probes: dict[str, float],
    teardown: dict[str, Any],
) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    roots = [r for r in spans.records if r.name == "bench.pass"]
    root_total = sum(r.seconds for r in roots)
    unattributed = sum(spans.self_seconds(r) for r in roots)

    def per_pass(*names: str) -> float:
        total = sum(
            r.seconds for r in spans.records
            if r.name in names and r.trace_id.startswith("pass")
        )
        return total / max(1, len(roots))

    builds_in_passes = per_pass("core.build")
    setup_builds = sum(
        r.seconds for r in spans.records
        if r.name == "core.build" and r.trace_id == "setup"
    )
    values: dict[str, float] = {
        "core.partition_s": builds_in_passes or setup_builds,
        "observe.overhead_ratio": (
            harness.median([p.seconds for p in traced])
            / harness.median([p.seconds for p in untraced])
        ),
        "unattributed_share": unattributed / root_total if root_total else 0.0,
        "bench.baseline_s": per_pass(
            "baseline.scipy", "baseline.gemm", "baseline.scipy_cg",
            "baseline.session", "baseline.threads",
        ),
        "bench.check_s": per_pass("check.product", "check.solve", "check.matvec", "check.job"),
    }
    for metric, span_name in (
        ("service.submit_s", "service.submit"),
        ("service.wait_s", "service.wait"),
        ("service.result_s", "service.result"),
    ):
        if any(r.name == span_name for r in spans.records):
            values[metric] = per_pass(span_name)
    by_key: dict[str, tuple[list[float], list[float]]] = {}
    for op in (op for p in untraced for op in p.ops if op.ok):
        if op.kind in ("multiply", "threads"):
            by_key.setdefault(op.key, ([], []))[op.kind == "threads"].append(op.seconds)
    if any(threads for _, threads in by_key.values()):
        values["shard.vs_threads_x"] = harness.geomean(
            [harness.median(procs) / harness.median(threads) for procs, threads in by_key.values()]
        )
    values.update(probes)
    values.update(workload.layer_metrics())
    values.update(teardown.get("layer", {}))
    return values


def layer_ledger(spans: harness.Spans) -> list[tuple[str, float, float]]:
    """Self seconds per traced pass of every span name, and their share of
    the pass; the pass roots' own self time is the ``unattributed`` row."""
    roots = [r for r in spans.records if r.name == "bench.pass"]
    total = sum(r.seconds for r in roots) or 1.0
    per_layer: dict[str, float] = {}
    for record in spans.records:
        if not record.trace_id.startswith("pass"):
            continue
        layer = "unattributed" if record.name == "bench.pass" else record.name
        per_layer[layer] = per_layer.get(layer, 0.0) + spans.self_seconds(record)
    passes = max(1, len(roots))
    rows = [(layer, seconds / passes, seconds / total) for layer, seconds in per_layer.items()]
    return sorted(rows, key=lambda row: -row[1])


def fill_catalogue(
    computed: dict[str, float], catalogue: list[dict[str, Any]]
) -> tuple[dict[str, dict[str, Any]], list[str]]:
    """The catalogue's metrics with their values; names the workload does not
    exercise are reported as 0 and listed."""
    metrics: dict[str, dict[str, Any]] = {}
    idle: list[str] = []
    for entry in catalogue:
        name = entry["name"]
        if name in computed:
            value = float(computed[name])
            if not math.isfinite(value):
                value = 0.0  # only when every sample failed; the run exits 1
        else:
            value = 0.0
            idle.append(name)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics, idle


# -- main -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro").is_dir():
        print(f"error: no program source at {harness.SRC}", file=sys.stderr)
        return 2
    # A stopped benchmark still tears down what it started (the server).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    threads = harness.pin_environment()
    catalogue = load_catalogue()
    host = harness.host_record(threads)

    workload = make_workload(args.workload, args.seed)
    traced = bool(args.trace)
    setup_s: list[float] = []
    spans = harness.Spans()
    try:
        while not setup_s or not traced and (
            len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS
        ):
            if setup_s:
                workload.teardown()
                workload = make_workload(args.workload, args.seed)
                gc.collect()
            begin = time.perf_counter()
            workload.setup(spans if traced else harness.NullSpans())
            setup_s.append(time.perf_counter() - begin)
        workload.prepare_checks()
        passes = run_passes(workload, args.seconds, spans if traced else None)
        probes: dict[str, float] = {}
        if traced:
            spans.trace_id = "probes"
            probes = workload.probes(spans)
    finally:
        teardown = workload.teardown()
    attempted, failed, errors = tally(passes)
    correct = failed == 0

    print(f"perfledger {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    print("workload: " + json.dumps(workload.spec, sort_keys=True))
    for line in errors:
        print(f"FAILED {line}")
    if traced:
        computed = layer_metrics(workload, spans, passes, probes, teardown)
        metrics, idle = fill_catalogue(computed, catalogue["per_layer"])
        span_file = harness.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write(span_file)
        print(f"spans: {len(spans.records)} -> {span_file.relative_to(harness.ROOT)}")
        print(f"traced passes: {sum(p.traced for p in passes)}, "
              f"untraced: {sum(not p.traced for p in passes)}")
        for name, entry in metrics.items():
            note = "  (layer not exercised by this workload)" if name in idle else ""
            print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}{note}")
        print("self seconds per traced pass, by span (layer.call):")
        for name, seconds, share in layer_ledger(spans):
            print(f"  {name:<22} {seconds:>10.4f} s  {100 * share:6.2f} %")
    else:
        values, rows, per_job = end_to_end(workload, setup_s, passes, teardown)
        print(f"{'metric':<22} {'value':>12} {'unit':<6} {'n':>5}  definition")
        for name, value, unit, count, note in rows:
            print(f"{name:<22} {value:>12.6g} {unit:<6} {count:>5}  {note}")
        print("pass seconds: " + " ".join(f"{p.seconds:.3f}" for p in passes))
        print("job medians: " + " ".join(
            f"{kind}:{key}={harness.median(times):.4f}" for (kind, key), times in per_job.items()))
        metrics, idle = fill_catalogue(values, catalogue["end_to_end"])
        if idle:
            raise SystemExit(f"end-to-end metrics not computed: {idle}")
    shutil.rmtree(harness.OUT / "tmp", ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
