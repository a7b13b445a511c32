"""``shard-processes``: warm-plan ``parallel_atmult`` on 2 worker processes.

Closed loop, one caller.  Each pass multiplies the R7- and R2-class
matrices with ``MultiplyOptions(execution="processes", workers=2)`` on a
warm plan, then runs the same plan under ``execution="threads"`` as the
in-workload baseline, then scipy CSR@CSR and numpy GEMM.  Operand
shipping as v2 archives, the journal as transport and heartbeats
dominate, which is what ``engine.shard`` and ``resilience.supervisor``
cost.
"""

from __future__ import annotations

import operator
import time
from collections import defaultdict
from typing import Any

from repro import MultiplyOptions, Session, SystemConfig, SystemTopology, build_at_matrix
from repro.core.parallel import parallel_atmult
from repro.observe import Observation

from probes import (
    CounterDelta, add_into, archive_probe, checkpoint_probe, crc_probe, planning_probe,
    tile_metrics,
)
from harness import (
    REL_TOL, NullSpans, Op, PassResult, ProgramPeakRss, Spans, baseline_seconds,
    sparse_rel_error,
)
from inputs import sub_seed, suite_class, to_csr

#: Product classes and dimensions.
PRODUCTS = (("R7", 2544), ("R2", 640))
WORKERS = 2

SPEC: dict[str, Any] = {
    "loop": "closed, 1 caller, 1 thread; 2 shard worker processes per multiply",
    "products": [{"class": k, "dims": n} for k, n in PRODUCTS],
    "execution": {"processes": WORKERS, "baseline": f"threads x{WORKERS}"},
    "heartbeat_s": MultiplyOptions().heartbeat_interval_seconds,
    "sla": None,
}


class Workload:
    name = "shard-processes"
    spec = SPEC
    system_kinds = ("multiply",)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, spans: Spans | NullSpans) -> None:
        self.config = SystemConfig()
        self.session = Session(config=self.config)
        self.topology = SystemTopology(sockets=WORKERS, cores_per_socket=1)
        base = MultiplyOptions(
            config=self.config,
            plan_cache=self.session.plan_cache,
            workers=WORKERS,
        )
        self.processes = base.replace(execution="processes")
        self.threads = base.replace(execution="threads")
        self.products: list[dict[str, Any]] = []
        for key, n in PRODUCTS:
            with spans.span("input.generate", key=key):
                coo = suite_class(key, n, sub_seed(self.seed, "shard", key))
                csr = to_csr(coo)
            with spans.span("core.build", key=key):
                at = build_at_matrix(coo, self.config)
            with spans.span("engine.warm", key=key):
                parallel_atmult(at, at, topology=self.topology, options=self.threads)
            self.products.append({"key": key, "at": at, "csr": csr})
        self.obs: Observation | None = None
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.traced_passes = 0
        self.rss = ProgramPeakRss()

    def prepare_checks(self) -> None:
        for product in self.products:
            csr = product["csr"]
            product["reference"] = csr @ csr

    def teardown(self) -> dict[str, Any]:
        return {
            "peak_rss_mb": self.rss.peak_mb,
            "rss_samples": sum(len(v) for v in self.rss.samples.values()),
            "rss_note": "peak RSS of the bench process (the supervisor, holds the result) "
                        "during the program's calls",
        }

    def prepare_pass(self, inputs: int) -> None:
        """Every pass repeats the same job list: nothing to generate."""

    def run_pass(self, index: int, spans: Spans | NullSpans) -> PassResult:
        traced = isinstance(spans, Spans)
        if traced and self.obs is None:
            self.obs = Observation()
        start = time.perf_counter()
        ops = []
        for product in self.products:
            ops.extend(self._product(product, spans))
        seconds = time.perf_counter() - start
        self.traced_passes += traced
        return PassResult(index, seconds, ops, traced)

    def _run(
        self, product: dict[str, Any], options: MultiplyOptions, spans: Spans | NullSpans, name: str
    ) -> tuple[float, float]:
        """One ``parallel_atmult``; returns its seconds and relative error."""
        at = product["at"]
        traced = isinstance(spans, Spans) and self.obs is not None
        if traced:
            options = options.replace(observer=self.obs)
            delta = CounterDelta(self.obs)
            dispatched = len(self.obs.tracer.find("shard.dispatch"))
        window = self.rss.window(spans, f"{name}:{product['key']}")
        with window, spans.span(name, key=product["key"]):
            begin = time.perf_counter()
            result, _ = parallel_atmult(at, at, topology=self.topology, options=options)
            seconds = time.perf_counter() - begin
        with spans.span("check.product", key=product["key"]):
            error = sparse_rel_error(result, product["reference"])
        if traced and name == "shard.processes":
            add_into(self.totals, delta.done())
            self.totals["bench.processes_s"] += seconds
            fresh = self.obs.tracer.find("shard.dispatch")[dispatched:]
            self.totals["bench.dispatch_s"] += sum(span.duration for span in fresh)
        return seconds, error

    def _product(self, product: dict[str, Any], spans: Spans | NullSpans) -> list[Op]:
        proc_s, proc_err = self._run(product, self.processes, spans, "shard.processes")
        thr_s, thr_err = self._run(product, self.threads, spans, "baseline.threads")
        csr = product["csr"]
        with spans.span("baseline.scipy", key=product["key"]):
            scipy_s = baseline_seconds(operator.matmul, csr, csr)
        with spans.span("baseline.gemm", key=product["key"]):
            dense = csr.toarray()
            gemm_s = baseline_seconds(operator.matmul, dense, dense)
            del dense
        key = product["key"]
        return [
            Op("multiply", key, proc_s, proc_err <= REL_TOL,
               "" if proc_err <= REL_TOL else f"processes: relative error {proc_err:.3e}",
               scipy_s=scipy_s, gemm_s=gemm_s),
            Op("threads", key, thr_s, thr_err <= REL_TOL,
               "" if thr_err <= REL_TOL else f"threads: relative error {thr_err:.3e}"),
        ]

    def probes(self, spans: Spans) -> dict[str, float]:
        """One timed call per layer function on this workload's operands."""
        ats = [p["at"] for p in self.products]
        out = planning_probe(spans, self.config, ats)
        out.update(archive_probe(spans, ats))
        out.update(crc_probe(spans, self.products[-1]["reference"].toarray()))
        out.update(checkpoint_probe(spans, self.session, self.products[0]["at"]))
        return out

    def layer_metrics(self) -> dict[str, float]:
        passes = max(1, self.traced_passes)
        totals = self.totals
        busy = sum(v for k, v in totals.items() if k.startswith("worker.busy_seconds."))
        processes_s = totals["bench.processes_s"]
        out = {
            "supervisor.worker_deaths": totals["supervisor.worker_deaths"] / passes,
            "supervisor.pairs_reassigned": totals["supervisor.pairs_reassigned"] / passes,
            "shard.worker_busy_share": busy / (WORKERS * processes_s) if processes_s else 0.0,
            "shard.dispatch_s": totals["bench.dispatch_s"] / passes,
        }
        out.update(tile_metrics([p["at"] for p in self.products]))
        return out
