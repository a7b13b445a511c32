"""``service-mixed``: a ``repro serve`` subprocess and one ``ServiceClient``.

Closed loop, one caller, one connection, one job in flight.  The server
runs one serve worker with its job directory inside the checkout and a
memory SLA that admits every job while the water level binds on the
multiply jobs.

The job list mixes multiply jobs (A×A on a power-network, a clustered
and a hypersparse-band matrix, 512–768 dims, whose dense results are
2–5 MB) with small-result ``matvec`` and ``solve`` (CG) jobs on the same
registered matrices.  Checksums, the result store, JSON encoding, the
wire and status polling dominate; the small jobs cross the same layers
with tiny payloads.  Every result is CRC-verified by the client and
compared with the same operation computed in-process.

Each multiply job is kept to a few seconds, so this workload does not
reach results over the 64 MiB frame cap.
"""

from __future__ import annotations

import operator
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy as np

from repro import MultiplyOptions, Session, SystemConfig, build_at_matrix
from repro.core.operands import operand_density_map
from repro.density import estimate_product_density, water_level_threshold
from repro.formats import save_at_matrix
from repro.service import ServiceClient

from harness import (
    CG_TOL, OUT, REL_TOL, NullSpans, Op, PassResult, ProgramPeakRss, Spans,
    baseline_seconds, median, rel_error,
)
from inputs import spd_system, sub_seed, suite_class, to_csr
from probes import archive_probe, checkpoint_probe, crc_probe, planning_probe, tile_metrics

#: Registered matrices: name -> (suite class, dims).  Symmetrized and made
#: strictly diagonally dominant so the same matrices serve every job kind.
MATRICES = {"P": ("R3", 512), "C": ("R4", 512), "B": ("R7", 512)}
MARGIN = 0.01
#: The server's memory SLA: admits every job; binds the multiply water level.
SLA_MB = 1.75
SLA_BYTES = SLA_MB * 1024 * 1024
#: The job list of one pass (operation, matrix), in a seeded order.
JOBS = (
    ("multiply", "P"), ("multiply", "C"), ("multiply", "B"),
    ("matvec", "P"), ("matvec", "C"), ("matvec", "B"),
    ("solve", "P"), ("solve", "B"),
)
TENANT = "bench"
#: Bound on one job (submit → result); a slower job counts as failed.
JOB_TIMEOUT_S = 120.0
SERVER_START_TIMEOUT_S = 60.0

SPEC: dict[str, Any] = {
    "loop": "closed, 1 caller, 1 connection, 1 job in flight",
    "server": "repro serve, 1 serve worker, job dir on local disk",
    "matrices": [
        {"name": name, "class": cls, "dims": n, "spd_margin": MARGIN}
        for name, (cls, n) in MATRICES.items()
    ],
    "jobs_per_pass": [f"{op}:{name}" for op, name in JOBS],
    "sla_mb": SLA_MB,
}


def count_shutdown_errors(text: str) -> int:
    """asyncio error records on a server's stderr.

    One record is an "Exception in callback" block (its traceback ending
    in the exception it logged), or a traceback ending in a
    ``CancelledError`` outside such a block.
    """
    count = 0
    in_block = in_traceback = False
    for line in text.splitlines():
        if line.startswith("Exception in callback"):
            count += 1
            in_block = True
        elif line.startswith("Traceback (most recent call last)"):
            in_traceback = True
        elif in_traceback and line and not line.startswith(" "):
            # The exception line that ends a traceback.
            if "CancelledError" in line and not in_block:
                count += 1
            in_traceback = in_block = False
    return count


class Workload:
    name = "service-mixed"
    spec = SPEC
    system_kinds = ("multiply", "matvec", "solve")
    solve_note = "median solve job, submit → verified solution"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.process: subprocess.Popen[bytes] | None = None
        self.client: ServiceClient | None = None
        self.run_dir: Path | None = None
        self.rss: ProgramPeakRss | None = None

    # -- set-up ------------------------------------------------------------
    def setup(self, spans: Spans | NullSpans) -> None:
        self.config = SystemConfig()
        OUT.mkdir(parents=True, exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix="service-", dir=OUT))
        self.matrices: dict[str, dict[str, Any]] = {}
        arguments: list[str] = []
        for name, (cls, n) in MATRICES.items():
            with spans.span("input.generate", key=name):
                base = suite_class(cls, n, sub_seed(self.seed, "service", name))
                coo, _ = spd_system(base, sub_seed(self.seed, "svc-rhs", name), margin=MARGIN)
            with spans.span("core.build", key=name):
                at = build_at_matrix(coo, self.config)
            path = self.run_dir / f"{name}.npz"
            with spans.span("formats.save", key=name):
                save_at_matrix(at, path)
            arguments += ["--matrix", f"{name}={path}"]
            csr = to_csr(coo)
            self.matrices[name] = {"at": at, "csr": csr, "dense": csr.toarray()}
        rng = np.random.default_rng(sub_seed(self.seed, "service-jobs"))
        order = rng.permutation(len(JOBS))
        self.jobs = [JOBS[i] for i in order]
        self.vectors = {
            name: rng.uniform(-1.0, 1.0, size=entry["csr"].shape[0])
            for name, entry in self.matrices.items()
        }
        with spans.span("service.start"):
            self._start_server(arguments)
        assert self.client is not None
        with spans.span("service.warm"):
            for name in self.matrices:
                self._round_trip("matvec", name, NullSpans())

    def _start_server(self, arguments: list[str]) -> None:
        assert self.run_dir is not None
        self.stdout_path = self.run_dir / "server.out"
        self.stderr_path = self.run_dir / "server.err"
        command = [
            sys.executable, "-m", "repro", "serve", *arguments,
            "--job-dir", str(self.run_dir / "jobs"),
            "--serve-workers", "1",
            "--memory-sla-mb", str(SLA_MB),
            "--host", "127.0.0.1", "--port", "0",
        ]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(command, stdout=out, stderr=err)
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            text = self.stdout_path.read_text()
            match = re.search(r"serving on ([\d.]+):(\d+)", text)
            if match:
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "server did not start: " + self.stderr_path.read_text()[-2000:]
                )
            time.sleep(0.01)
        self.client = ServiceClient(match.group(1), int(match.group(2)), request_timeout=JOB_TIMEOUT_S)
        self.client.ping()
        self.rss = ProgramPeakRss(self.process.pid)

    def prepare_checks(self) -> None:
        """In-process references, under the server's own SLA (untimed)."""
        session = Session(
            config=self.config,
            options=MultiplyOptions(memory_limit_bytes=SLA_BYTES),
        )
        self.session = session
        binds: dict[str, bool] = {}
        for name, entry in self.matrices.items():
            result, _ = session.multiply(entry["at"], entry["at"])
            entry["reference"] = result.to_dense()
            entry["scipy_reference"] = (entry["csr"] @ entry["csr"]).toarray()
            entry["reference_at_bytes"] = result.memory_bytes()
            dmap = operand_density_map(entry["at"], self.config, structural=True)
            estimate = estimate_product_density(dmap, dmap)
            free = water_level_threshold(estimate, None, self.config)
            bound = water_level_threshold(estimate, SLA_BYTES, self.config)
            binds[name] = bound.threshold > free.threshold
        if not all(binds.values()):
            raise RuntimeError(f"the SLA does not bind every multiply job: {binds}")
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.traced_passes = 0

    # -- one pass ----------------------------------------------------------
    def prepare_pass(self, inputs: int) -> None:
        """Every pass repeats the same job list: nothing to generate."""

    def run_pass(self, index: int, spans: Spans | NullSpans) -> PassResult:
        """The job list; a traced pass also reads the server's metrics and
        times the in-process Session, both outside the pass's seconds so
        ``observe.overhead_ratio`` compares equal work."""
        traced = isinstance(spans, Spans)
        if traced:
            with spans.span("observe.metrics_rpc"):
                before = self._latency_sum()
        assert self.rss is not None
        with self.rss.window(spans, "pass"):
            start = time.perf_counter()
            ops = [self._job(op, name, spans) for op, name in self.jobs]
            seconds = time.perf_counter() - start
        if traced:
            with spans.span("observe.metrics_rpc"):
                self.totals["service.execute_s"] += self._latency_sum() - before
            for op in ops:
                if op.kind == "multiply":
                    entry = self.matrices[op.key]
                    with spans.span("baseline.session", key=op.key) as record:
                        self.session.multiply(entry["at"], entry["at"])
                    self.totals["bench.session_s"] += record.seconds
                    self.totals["bench.job_multiply_s"] += op.seconds
            self.traced_passes += 1
        return PassResult(index, seconds, ops, traced)

    def _latency_sum(self) -> float:
        assert self.client is not None
        exported = self.client.metrics()["metrics"]
        histogram = exported.get(f"service.latency_seconds.{TENANT}", {})
        return float(histogram.get("sum", 0.0))

    def _round_trip(self, op: str, name: str, spans: Spans | NullSpans) -> np.ndarray:
        assert self.client is not None
        job: dict[str, Any] = {"a": name}
        if op == "multiply":
            job["b"] = name
        else:
            job["rhs"] = [float(x) for x in self.vectors[name]]
        if op == "solve":
            job["params"] = {"tolerance": CG_TOL}
        with spans.span("service.submit", op=op, key=name):
            job_id = self.client.submit(tenant=TENANT, op=op, **job)
        with spans.span("service.wait", op=op, key=name):
            status = self.client.wait(job_id, timeout=JOB_TIMEOUT_S)
        if status.get("state") != "done":
            raise RuntimeError(f"job {job_id} ended {status.get('state')}: {status.get('error')}")
        with spans.span("service.result", op=op, key=name):
            return self.client.result(job_id)  # CRC-verified by the client

    def _job(self, op: str, name: str, spans: Spans | NullSpans) -> Op:
        entry = self.matrices[name]
        begin = time.perf_counter()
        try:
            values = self._round_trip(op, name, spans)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            return Op(op, name, time.perf_counter() - begin, False, f"{type(error).__name__}: {error}")
        seconds = time.perf_counter() - begin
        csr = entry["csr"]
        if op == "multiply":
            with spans.span("check.job", op=op, key=name):
                # Against the in-process product and against scipy's.
                error = max(
                    rel_error(values, entry["reference"]),
                    rel_error(values, entry["scipy_reference"]),
                )
            ok, note = error <= REL_TOL, f"relative error {error:.3e}"
        elif op == "matvec":
            with spans.span("check.job", op=op, key=name):
                error = rel_error(values.ravel(), csr @ self.vectors[name])
            ok, note = error <= REL_TOL, f"relative error {error:.3e}"
        else:
            with spans.span("check.job", op=op, key=name):
                rhs = self.vectors[name]
                residual = float(np.linalg.norm(rhs - csr @ values.ravel()) / np.linalg.norm(rhs))
            ok, note = residual <= CG_TOL, f"residual {residual:.3e}"
        scipy_s = gemm_s = None
        if op == "multiply":
            with spans.span("baseline.scipy", key=name):
                scipy_s = baseline_seconds(operator.matmul, csr, csr)
            dense = entry["dense"]
            with spans.span("baseline.gemm", key=name):
                gemm_s = baseline_seconds(operator.matmul, dense, dense)
        return Op(op, name, seconds, ok, "" if ok else note, scipy_s=scipy_s, gemm_s=gemm_s)

    # -- traced-run layer readings -----------------------------------------
    def probes(self, spans: Spans) -> dict[str, float]:
        """One timed call per layer function on this workload's operands."""
        ats = [entry["at"] for entry in self.matrices.values()]
        out = planning_probe(spans, self.config, ats, SLA_BYTES)
        first = self.matrices["P"]
        result, _ = self.session.multiply(first["at"], first["at"])
        out.update(archive_probe(spans, [first["at"], result]))
        out.update(crc_probe(spans, first["reference"]))
        out.update(checkpoint_probe(spans, self.session, first["at"]))
        return out

    def layer_metrics(self) -> dict[str, float]:
        passes = max(1, self.traced_passes)
        totals = self.totals
        dense_bytes = sum(e["reference"].nbytes for e in self.matrices.values())
        at_bytes = sum(e["reference_at_bytes"] for e in self.matrices.values())
        session_s = totals["bench.session_s"]
        out = {
            "service.execute_s": totals["service.execute_s"] / passes,
            "service.dense_to_at_bytes": dense_bytes / at_bytes,
            "service.vs_session_x": totals["bench.job_multiply_s"] / session_s if session_s else 0.0,
        }
        out.update(tile_metrics([e["at"] for e in self.matrices.values()]))
        return out

    # -- tear-down ---------------------------------------------------------
    def teardown(self) -> dict[str, Any]:
        """Stop the server with the client still connected, as a caller would
        leave it, then count asyncio error records on its stderr."""
        errors = 0
        process = self.process
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self.client is not None:
            self.client.close()
        if process is not None:
            errors = count_shutdown_errors(self.stderr_path.read_text(errors="replace"))
        if self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        self.process = None
        self.client = None
        samples = self.rss.samples.get("pass", []) if self.rss is not None else []
        self.rss = None
        return {
            "peak_rss_mb": median(samples) if samples else 0.0,
            "rss_samples": len(samples),
            "rss_note": "median over passes of the server's peak RSS (VmHWM) in the pass",
            "layer": {
                "service.server_rss_mb": max(samples, default=0.0),
                "service.shutdown_errors": float(errors),
            },
        }
