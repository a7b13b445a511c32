"""Chaos acceptance: retried client + mangled wire + SIGKILLed server.

The end-to-end resilience guarantee of this PR, exercised in one test:
a :class:`repro.ServiceClient` drives a workload through the seeded
fault-injecting :class:`~tests.service.chaos.ChaosProxy` (dropped
connections, garbage bytes, mid-frame truncation, resets, latency)
against a server in another process that SIGKILLs itself mid-multiply.
After a restart on the same job directory the client retries through —
and every job has executed exactly once, with results bit-identical to
an unfaulted in-process run.

Set ``REPRO_CHAOS_METRICS=/path/to/metrics.json`` to export the injected
fault schedule and job outcomes (the CI chaos job uploads this file).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import CircuitOpenError, TransportError
from repro.resilience.retry import RetryPolicy
from repro.service.client import CircuitBreaker, Deadline, ServiceClient

from .chaos import ChaosProxy

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: seeds chosen so the first dozen connections of each phase walk all
#: six fault kinds (see chaos._fault_for) while staying mostly liveable
CHAOS_SEED_PHASE1 = 20260834
CHAOS_SEED_PHASE2 = 20260846
KILL_AFTER_FLUSHES = 4
DOOMED_JOB = "chaos-doomed"
#: matvec jobs are checkpoint-free, so they never trip the kill switch
VECTOR_JOBS = {"chaos-vec-a": ("A", 72), "chaos-vec-b": ("B", 88)}

#: generous budgets: each retry dials a fresh connection, i.e. a fresh
#: fault draw, so attempts bound the worst run of lossy connections.
CHAOS_RETRY = RetryPolicy(
    max_attempts=15, backoff_base_seconds=0.01, backoff_max_seconds=0.1
)

WORKLOAD = '''\
"""Deterministic workload shared by the killed and the restarted server."""
import numpy as np

from repro import COOMatrix, SystemConfig
from repro.service import MatrixRegistry

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


def build_registry():
    rng = np.random.default_rng(20260808)

    def heterogeneous(rows, cols):
        mask = rng.random((rows, cols)) < 0.06
        array = np.where(mask, rng.uniform(0.1, 1.0, (rows, cols)), 0.0)
        block = min(rows, cols) // 3
        array[:block, :block] = rng.uniform(0.1, 1.0, (block, block))
        return array

    registry = MatrixRegistry(config=CONFIG)
    registry.register("A", COOMatrix.from_dense(heterogeneous(96, 72)))
    registry.register("B", COOMatrix.from_dense(heterogeneous(72, 88)))
    return registry
'''

SERVER = '''\
"""Serve the chaos workload; optionally SIGKILL ourselves after N flushes."""
import asyncio
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workload import CONFIG, build_registry

from repro import CheckpointStore, MultiplyOptions
from repro.service import MatrixService, serve

job_dir, kill_after = sys.argv[1], int(sys.argv[2])

if kill_after:
    original_flush = CheckpointStore.flush

    def killing_flush(self):
        written = original_flush(self)
        if self.flushes >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        return written

    CheckpointStore.flush = killing_flush


async def main():
    service = MatrixService(
        build_registry(),
        job_dir=job_dir,
        workers=1,
        options=MultiplyOptions(config=CONFIG, checkpoint_flush_pairs=1),
    )
    await service.start()
    server = await serve(service, port=0)
    port = server.sockets[0].getsockname()[1]
    print(f"PORT {port}", flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with server:
        await stop.wait()
    server.close()
    await server.wait_closed()
    await service.drain(timeout=10.0)


asyncio.run(main())
'''


@pytest.fixture
def scripts(tmp_path):
    (tmp_path / "workload.py").write_text(WORKLOAD, encoding="utf-8")
    server = tmp_path / "server.py"
    server.write_text(SERVER, encoding="utf-8")
    return server


def load_workload(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "chaos_workload", tmp_path / "workload.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def start_server(scripts, job_dir, kill_after: int):
    """Launch the server child; returns (process, listening port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    stderr_log = scripts.parent / f"server-stderr-{kill_after}.log"
    process = subprocess.Popen(
        [sys.executable, str(scripts), str(job_dir), str(kill_after)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=stderr_log.open("w"),
        text=True,
    )
    banner = process.stdout.readline()
    if not banner.startswith("PORT "):
        process.kill()
        process.wait(timeout=30)
        raise AssertionError(
            f"server never came up: {banner!r}\n{stderr_log.read_text()}"
        )
    return process, int(banner.split()[1])


def chaos_client(proxy: ChaosProxy) -> ServiceClient:
    return ServiceClient(
        "127.0.0.1",
        proxy.port,
        retry=CHAOS_RETRY,
        breaker=CircuitBreaker(failure_threshold=1_000_000),
    )


class TestChaosExactlyOnce:
    def test_mangled_wire_and_sigkill_yield_exactly_once_results(
        self, scripts, tmp_path
    ):
        from repro import MultiplyOptions, Session, atmult
        from repro.service import JobState, JobStore

        job_dir = tmp_path / "jobs"
        report: dict = {}

        # ---- phase 1: chaos-retried workload, server SIGKILLs mid-job --
        process, port = start_server(scripts, job_dir, KILL_AFTER_FLUSHES)
        phase1: dict[str, np.ndarray] = {}
        with ChaosProxy(port, seed=CHAOS_SEED_PHASE1) as proxy:
            with chaos_client(proxy) as client:
                deadline = Deadline(120.0)
                for name, (matrix, width) in VECTOR_JOBS.items():
                    submitted = client.submit(
                        tenant="chaos", op="matvec", a=matrix,
                        rhs=[1.0] * width, job_id=name,
                        idempotency_key=f"chaos-key-{name}",
                        deadline=deadline,
                    )
                    assert submitted == name
                for name in VECTOR_JOBS:
                    status = client.wait(name, timeout=120.0)
                    assert status["state"] == "done", status
                    phase1[name] = client.result(name)
                # The checkpointed multiply trips the kill switch at its
                # fourth flush; the submit ack itself may be lost to the
                # crash, which is exactly what the fixed job id is for.
                try:
                    client.submit(
                        tenant="chaos", op="multiply", a="A", b="B",
                        job_id=DOOMED_JOB,
                        idempotency_key="chaos-key-doomed",
                    )
                except (TransportError, CircuitOpenError):
                    pass
            assert process.wait(timeout=120) == -signal.SIGKILL
            report["phase1"] = proxy.snapshot()

        # The crash left a resumable scene: RUNNING record, journal intact.
        store = JobStore(job_dir)
        assert store.load(DOOMED_JOB).state is JobState.RUNNING
        survivors = sorted(
            store.checkpoint_dir(DOOMED_JOB).glob("pairs/pair-*.npz")
        )
        assert len(survivors) == KILL_AFTER_FLUSHES

        # ---- phase 2: restart on the same job dir, retry through ------
        process, port = start_server(scripts, job_dir, 0)
        try:
            phase2: dict[str, np.ndarray] = {}
            with ChaosProxy(port, seed=CHAOS_SEED_PHASE2) as proxy:
                with chaos_client(proxy) as client:
                    status = client.wait(DOOMED_JOB, timeout=120.0)
                    assert status["state"] == "done", status
                    doomed_values = client.result(DOOMED_JOB)
                    # Replaying every idempotent submit maps back to the
                    # original jobs — across the crash, none re-executes.
                    for name, (matrix, width) in VECTOR_JOBS.items():
                        replayed = client.submit(
                            tenant="chaos", op="matvec", a=matrix,
                            rhs=[1.0] * width, job_id=f"{name}-replay",
                            idempotency_key=f"chaos-key-{name}",
                        )
                        assert replayed == name
                        phase2[name] = client.result(name)
                    metrics = client.metrics()
                report["phase2"] = proxy.snapshot()
        finally:
            process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0  # drained cleanly
        stderr = (scripts.parent / "server-stderr-0.log").read_text()
        assert "Exception in callback" not in stderr, stderr

        # ---- the proxy really injected faults -------------------------
        injected = {
            kind: report["phase1"]["faults"][kind]
            + report["phase2"]["faults"][kind]
            for kind in report["phase1"]["faults"]
        }
        lossy = sum(
            count for kind, count in injected.items()
            if kind not in ("clean", "delay")
        )
        assert sum(injected.values()) >= 6, injected  # reconnect churn
        assert lossy >= 2, injected  # at least two mangled connections

        # ---- exactly once ---------------------------------------------
        assert metrics["jobs"] == {"done": 3}
        assert sorted(record.spec.job_id for record in store.load_all()) == sorted(
            [DOOMED_JOB, *VECTOR_JOBS]
        )

        # ---- bit-identical to an unfaulted in-process run -------------
        workload = load_workload(tmp_path)
        registry = workload.build_registry()
        reference, _ = atmult(
            registry.get("A"),
            registry.get("B"),
            options=MultiplyOptions(config=workload.CONFIG),
        )
        assert np.array_equal(doomed_values, reference.to_dense())
        session = Session(
            config=workload.CONFIG,
            options=MultiplyOptions(
                config=workload.CONFIG, checkpoint_flush_pairs=1
            ),
        )
        for name, (matrix, width) in VECTOR_JOBS.items():
            expected = session.matvec(registry.get(matrix), [1.0] * width)
            assert np.array_equal(phase1[name], expected)
            assert np.array_equal(phase2[name], phase1[name])

        report["jobs"] = {
            "done": metrics["jobs"]["done"],
            "journal_pairs_at_kill": len(survivors),
        }
        metrics_path = os.environ.get("REPRO_CHAOS_METRICS")
        if metrics_path:
            Path(metrics_path).write_text(
                json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
            )
