"""``inproc-suite``: one in-process Session, warm products and cold solves.

Closed loop, one caller.  Each pass runs, in order:

* ``Session.multiply(A, A)`` on the R2, R3, R4, R6 and R7-class
  matrices, each followed by the same product as scipy CSR@CSR and as a
  numpy dense GEMM on the same operands;
* one CG solve (tolerance 1e-8) on a freshly seeded, strictly diagonally
  dominant SPD power-network system: COO → ``build_at_matrix`` → a new
  ``Session.solve``, followed by scipy ``cg`` on the same system.

The products are kernel- and accumulate-bound on a warm plan cache;
the solves miss the cache every time, so partition, estimation,
planning and the per-call cost of the pinned n×1 matvecs dominate.
"""

from __future__ import annotations

import operator
import time
from collections import defaultdict
from typing import Any

import numpy as np
import scipy.sparse.linalg as sla

from repro import Session, SystemConfig, build_at_matrix
from repro.engine.api import execute
from repro.observe import Observation

from harness import (
    CG_TOL, REL_TOL, NullSpans, Op, PassResult, ProgramPeakRss, Spans, baseline_seconds,
    sparse_rel_error,
)
from inputs import spd_system, sub_seed, suite_class, to_csr
from probes import (
    CounterDelta, add_into, archive_probe, checkpoint_probe, crc_probe,
    kernel_layer_metrics, kernel_seconds, planning_probe, tile_metrics,
)

#: Product classes and their dimensions (0.75 x the suite's).
PRODUCTS = (("R2", 960), ("R3", 1536), ("R4", 1920), ("R6", 1536), ("R7", 2544))
#: The solve class, its dimension, and the diagonal-dominance margin
#: (about 250 CG iterations).
SOLVE_CLASS, SOLVE_DIM, SOLVE_MARGIN = "R3", 1536, 0.01

SPEC: dict[str, Any] = {
    "loop": "closed, 1 caller, 1 thread, no service connection",
    "products": [{"class": k, "dims": n} for k, n in PRODUCTS],
    "solve": {
        "class": SOLVE_CLASS, "dims": SOLVE_DIM, "margin": SOLVE_MARGIN,
        "systems": "one freshly seeded system per pass", "tolerance": CG_TOL,
    },
    "sla": None,
}


def useful_flops(csr: Any) -> float:
    """Multiply-adds of ``A @ A`` counted from the sparsity structure, x2."""
    col_counts = np.bincount(csr.indices, minlength=csr.shape[1]).astype(np.float64)
    row_counts = np.diff(csr.indptr).astype(np.float64)
    return 2.0 * float(col_counts @ row_counts)


class Workload:
    name = "inproc-suite"
    spec = SPEC
    #: Operation kinds that count as the system's (job latency) operations.
    system_kinds = ("multiply", "solve")
    solve_note = "median COO → build_at_matrix → converged Session.solve"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # -- set-up ------------------------------------------------------------
    def setup(self, spans: Spans | NullSpans) -> None:
        self.config = SystemConfig()
        self.session = Session(config=self.config)
        self.products: list[dict[str, Any]] = []
        for key, n in PRODUCTS:
            with spans.span("input.generate", key=key):
                coo = suite_class(key, n, sub_seed(self.seed, key))
                csr = to_csr(coo)
            with spans.span("core.build", key=key):
                at = build_at_matrix(coo, self.config)
            with spans.span("engine.warm", key=key):
                self.session.multiply(at, at)
            self.products.append({
                "key": key, "at": at, "csr": csr, "flops": useful_flops(csr),
            })
        self.system: dict[str, Any] = {}
        self.first_iterations = 0
        self.obs: Observation | None = None
        self.traced_session: Session | None = None
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.traced_passes = 0
        self.rss = ProgramPeakRss()

    def prepare_checks(self) -> None:
        """Reference products for the checks (scipy CSR, computed once, untimed)."""
        for product in self.products:
            csr = product["csr"]
            product["reference"] = csr @ csr

    def teardown(self) -> dict[str, Any]:
        return {
            "peak_rss_mb": self.rss.peak_mb,
            "rss_samples": sum(len(v) for v in self.rss.samples.values()),
            "rss_note": "peak RSS of the bench process during the program's calls",
        }

    # -- one pass ----------------------------------------------------------
    def prepare_pass(self, inputs: int) -> None:
        """Generate the solve system of a pass (untimed): system ``inputs``
        of this seed's sequence."""
        base = suite_class(SOLVE_CLASS, SOLVE_DIM, sub_seed(self.seed, "solve", inputs))
        coo, rhs = spd_system(base, sub_seed(self.seed, "rhs", inputs), margin=SOLVE_MARGIN)
        self.system = {"index": inputs, "coo": coo, "rhs": rhs, "csr": to_csr(coo)}

    def run_pass(self, index: int, spans: Spans | NullSpans) -> PassResult:
        traced = isinstance(spans, Spans)
        if traced and self.obs is None:
            self.obs = Observation()
            self.traced_session = Session(
                config=self.config, plan_cache=self.session.plan_cache, observer=self.obs,
            )
        start = time.perf_counter()
        ops = [self._product(product, spans) for product in self.products]
        ops.append(self._solve(spans))
        seconds = time.perf_counter() - start
        self.traced_passes += traced
        return PassResult(index, seconds, ops, traced)

    def _product(self, product: dict[str, Any], spans: Spans | NullSpans) -> Op:
        key = product["key"]
        with self.rss.window(spans, key):
            begin = time.perf_counter()
            result = self._multiply(product, spans)
            seconds = time.perf_counter() - begin
        with spans.span("check.product", key=key):
            error = sparse_rel_error(result, product["reference"])
        csr = product["csr"]
        with spans.span("baseline.scipy", key=key):
            scipy_s = baseline_seconds(operator.matmul, csr, csr)
        with spans.span("baseline.gemm", key=key):
            dense = csr.toarray()
            gemm_s = baseline_seconds(operator.matmul, dense, dense)
            del dense
        ok = error <= REL_TOL
        return Op(
            "multiply", key, seconds, ok,
            "" if ok else f"relative error {error:.3e} > {REL_TOL:g}",
            scipy_s=scipy_s, gemm_s=gemm_s,
        )

    def _multiply(self, product: dict[str, Any], spans: Spans | NullSpans) -> Any:
        at, key = product["at"], product["key"]
        if isinstance(spans, Spans):
            # Session.multiply is execute(plan(A, B), A, B): split it so the
            # plan lookup and the execution are timed apart.
            assert self.traced_session is not None and self.obs is not None
            with spans.span("engine.plan", key=key):
                plan = self.traced_session.plan(at, at)
            delta = CounterDelta(self.obs)
            with spans.span("engine.execute", key=key) as record:
                result, _ = execute(plan, at, at, options=self.traced_session.options)
            gained = delta.done()
            add_into(self.totals, gained)
            spans.derived(record, "kernels.products", kernel_seconds(gained))
            self.totals["bench.execute_s"] += record.seconds
            self.totals["bench.product_kernel_s"] += kernel_seconds(gained)
            self.totals["bench.flops"] += product["flops"]
        else:
            result, _ = self.session.multiply(at, at)
        return result

    def _solve(self, spans: Spans | NullSpans) -> Op:
        system, traced = self.system, isinstance(spans, Spans)
        delta = CounterDelta(self.obs) if traced and self.obs is not None else None
        with self.rss.window(spans, "solve"):
            begin = time.perf_counter()
            with spans.span("core.build", key="solve"):
                at = build_at_matrix(system["coo"], self.config)
            session = Session(config=self.config, observer=self.obs if traced else None)
            with spans.span("solve.cg") as record:
                outcome = session.solve(at, system["rhs"], method="cg", tolerance=CG_TOL)
            seconds = time.perf_counter() - begin
        if delta is not None:
            gained = delta.done()
            add_into(self.totals, gained)
            spans.derived(record, "kernels.matvec", kernel_seconds(gained))
            stats = session.cache_stats()
            self.totals["bench.solve_s"] += record.seconds
            self.totals["bench.solve_iterations"] += outcome.iterations
            self.totals["bench.solve_cache_hits"] += stats.hits
            self.totals["bench.solve_cache_misses"] += stats.misses
        if system["index"] == 0:
            self.first_iterations = outcome.iterations
        csr, rhs = system["csr"], system["rhs"]
        with spans.span("baseline.scipy_cg"):
            b0 = time.perf_counter()
            _, info = sla.cg(csr, rhs, rtol=CG_TOL, maxiter=20 * csr.shape[0])
            scipy_s = time.perf_counter() - b0
        with spans.span("check.solve"):
            residual = float(np.linalg.norm(rhs - csr @ outcome.solution) / np.linalg.norm(rhs))
        ok = bool(outcome.converged) and residual <= CG_TOL and info == 0
        return Op(
            "solve", f"{SOLVE_CLASS}-spd", seconds, ok,
            "" if ok else (
                f"converged={outcome.converged} residual {residual:.3e} scipy info {info}"
            ),
            extra={"scipy_cg_s": scipy_s},
        )

    # -- traced-run layer readings -----------------------------------------
    def probes(self, spans: Spans) -> dict[str, float]:
        """One timed call per layer function on this workload's operands."""
        ats = [p["at"] for p in self.products]
        out = planning_probe(spans, self.config, ats)
        band = next(p for p in self.products if p["key"] == "R7")
        result, _ = self.session.multiply(band["at"], band["at"])
        out.update(archive_probe(spans, [band["at"], result]))
        out.update(crc_probe(spans, result.to_dense()))
        out.update(checkpoint_probe(spans, self.session, band["at"]))
        return out

    def layer_metrics(self) -> dict[str, float]:
        passes = max(1, self.traced_passes)
        totals = self.totals
        execute_s = totals["bench.execute_s"]
        iterations = totals["bench.solve_iterations"]
        stats = self.session.cache_stats()
        hits = stats.hits + totals["bench.solve_cache_hits"]
        lookups = hits + stats.misses + totals["bench.solve_cache_misses"]
        out = {
            "engine.execute_s": execute_s / passes,
            "engine.matvec_ms": 1000.0 * totals["bench.solve_s"] / iterations if iterations else 0.0,
            "engine.plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "kernels.share": totals["bench.product_kernel_s"] / execute_s if execute_s else 0.0,
            "kernels.mflops": totals["bench.flops"] / execute_s / 1e6 if execute_s else 0.0,
            "solve.iterations": float(self.first_iterations),
        }
        out.update(tile_metrics([p["at"] for p in self.products]))
        out.update(kernel_layer_metrics(totals, passes))
        return out
