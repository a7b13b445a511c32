"""Shared machinery of the performance ledger.

Everything here is workload-agnostic: the environment pinning that must
happen before numpy is imported, the in-memory span recorder used by
traced runs, the statistics the ledger reports, the host record, and
the shape of one workload's result.

A workload (``wl_*.py``) is a ``Workload(seed)`` class that :mod:`run`
drives in this order: ``setup(spans)`` (timed, repeated),
``prepare_checks()`` (untimed references), then per pass
``prepare_pass(inputs)`` (untimed) and ``run_pass(index, spans)``; a
traced run then calls ``probes(spans)`` and ``layer_metrics()``; last
``teardown()``, which returns the peak RSS and any per-layer readings
taken at shutdown.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: The benchmark's own directory and the checkout root it sits in.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes (span files, job dirs, temp files) goes here.
OUT = HERE / "_out"

#: Relative tolerance of every product and matvec check.
REL_TOL = 1e-9
#: CG tolerance of every solve (relative residual).
CG_TOL = 1e-8


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pin_environment() -> int:
    """Pin BLAS threads to ``nproc`` and keep temp files in the checkout.

    Must run before numpy is imported anywhere in the process; child
    processes (the server, shard workers) inherit the same settings.
    Returns the pinned thread count.
    """
    threads = cpu_count()
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[name] = str(threads)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    src = str(SRC)
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])
    if src not in sys.path:
        sys.path.insert(0, src)
    return threads


# -- spans -------------------------------------------------------------------


@dataclass
class SpanRecord:
    """One closed interval around a call into a layer.

    ``derived`` spans are not timed by the benchmark: their duration is
    read from a counter the program exports (kernel histograms, the
    service's ``metrics`` verb) and they are placed at their parent's
    start.
    """

    span_id: int
    parent_id: int | None
    trace_id: str
    name: str
    start: float
    end: float
    derived: bool = False
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "derived": self.derived,
            "attrs": self.attrs,
        }


class Spans:
    """In-memory span recorder (single-threaded by construction).

    Spans of one pass share the pass's trace id; the open-span stack
    gives every span its parent.  Nothing is written until
    :meth:`write` at the end of the run.

    This deliberately does not reuse ``repro.observe``'s ``Tracer``: the
    benchmark measures that layer (``observe.overhead_ratio``), so its
    own bookkeeping must not change when the code under test changes.
    """

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []
        self._next_id = 1
        self.trace_id = "setup"

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        parent = self._stack[-1].span_id if self._stack else None
        record = SpanRecord(
            self._next_id, parent, self.trace_id, name,
            time.perf_counter(), 0.0, attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.records.append(record)

    def derived(self, parent: SpanRecord, name: str, seconds: float, **attrs: Any) -> None:
        """Attach a counter-derived child of ``parent`` lasting ``seconds``."""
        seconds = max(0.0, min(seconds, parent.seconds))
        self.records.append(
            SpanRecord(
                self._next_id, parent.span_id, parent.trace_id, name,
                parent.start, parent.start + seconds, derived=True,
                attrs=dict(attrs),
            )
        )
        self._next_id += 1

    def children(self, record: SpanRecord) -> list[SpanRecord]:
        return [r for r in self.records if r.parent_id == record.span_id]

    def self_seconds(self, record: SpanRecord) -> float:
        covered = sum(child.seconds for child in self.children(record))
        return max(0.0, record.seconds - covered)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": [r.as_dict() for r in self.records]}
        path.write_text(json.dumps(payload))


class NullSpans:
    """Stand-in for :class:`Spans` in untraced passes: records nothing."""

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        yield None

    def derived(self, parent: Any, name: str, seconds: float, **attrs: Any) -> None:
        return None


#: A baseline call shorter than this is repeated and the median call
#: taken, so millisecond scipy products are neither timed at clock
#: resolution nor swayed by one preempted call.
BASELINE_MIN_SECONDS = 0.05


def baseline_seconds(fn: Any, *args: Any) -> float:
    """Median wall seconds of ``fn(*args)``, repeated for at least
    :data:`BASELINE_MIN_SECONDS` of total time (one call if it is longer)."""
    calls: list[float] = []
    while sum(calls) < BASELINE_MIN_SECONDS:
        begin = time.perf_counter()
        fn(*args)
        calls.append(time.perf_counter() - begin)
    return median(calls)


# -- operation records ---------------------------------------------------------


@dataclass
class Op:
    """One operation of a workload's job list, as one pass ran it.

    ``seconds`` is the system's time (in-process call, or service job
    submit → verified result); ``scipy_s``/``gemm_s`` are the same
    product by the baselines, measured right after it on the same
    operands.
    """

    kind: str
    key: str
    seconds: float
    ok: bool
    error: str = ""
    scipy_s: float | None = None
    gemm_s: float | None = None
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class PassResult:
    index: int
    seconds: float
    ops: list[Op]
    traced: bool = False


# -- statistics ----------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio_metric(passes: list[PassResult], baseline: str) -> tuple[float, int]:
    """Geometric mean over product keys of median system ÷ median baseline.

    ``baseline`` is ``"scipy_s"`` or ``"gemm_s"``.  Returns the ratio and
    the number of (system, baseline) sample pairs behind it.
    """
    system: dict[str, list[float]] = {}
    base: dict[str, list[float]] = {}
    for result in passes:
        for op in result.ops:
            value = getattr(op, baseline)
            if op.kind != "multiply" or value is None or not op.ok:
                continue
            system.setdefault(op.key, []).append(op.seconds)
            base.setdefault(op.key, []).append(value)
    ratios = [median(system[k]) / median(base[k]) for k in system]
    return geomean(ratios), sum(len(v) for v in system.values())


# -- host record -----------------------------------------------------------------


def filesystem_of(path: Path) -> str:
    """The filesystem type holding ``path`` (from /proc/mounts)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, kind = "", "unknown"
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and target.startswith(parts[1]) and len(parts[1]) > len(best):
            best, kind = parts[1], parts[2]
    return kind


def host_record(blas_threads: int) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "job_dir_fs": filesystem_of(OUT),
        "machine": platform.machine(),
    }


class ProgramPeakRss:
    """Peak resident set of a process during the program's calls only.

    The process is this one, or the one with ``pid`` (the server).
    :meth:`window` returns this process's freed heap pages to the system
    and resets the kernel's high-water mark (``VmHWM``, via
    ``/proc/<pid>/clear_refs``) on entry, and reads the mark on exit.
    So the benchmark's own transient arrays (baseline operands and
    outputs, checks) between program calls do not count, and neither
    does memory the allocator merely kept.  What the process holds
    across a call (operands, references) still does.

    :attr:`peak_mb` is the largest, over operations, of an operation's
    median peak across passes, so one pass disturbed by the host does
    not set it.
    """

    def __init__(self, pid: int | None = None) -> None:
        self.pid = os.getpid() if pid is None else pid
        self.samples: dict[str, list[float]] = {}
        try:
            self._trim = ctypes.CDLL("libc.so.6").malloc_trim
        except (OSError, AttributeError):  # pragma: no cover - not glibc
            self._trim = None

    @property
    def peak_mb(self) -> float:
        return max((median(values) for values in self.samples.values()), default=0.0)

    @contextmanager
    def window(self, spans: Spans | NullSpans, key: str) -> Iterator[None]:
        with spans.span("bench.rss_reset"):
            if self._trim is not None and self.pid == os.getpid():
                self._trim(0)
            Path(f"/proc/{self.pid}/clear_refs").write_text("5")
        try:
            yield
        finally:
            peak = pid_peak_rss_mb(self.pid)
            self.samples.setdefault(key, []).append(peak)


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def sparse_rel_error(result: Any, reference: Any) -> float:
    """max |result - reference| relative to max |reference|, for an AT
    Matrix ``result`` and a scipy sparse ``reference``, without densifying."""
    import scipy.sparse as sp

    coo = result.to_coo()
    actual = sp.csr_matrix((coo.values, (coo.row_ids, coo.col_ids)), shape=result.shape)
    if actual.shape != reference.shape:
        return float("inf")
    diff = abs(actual - reference).max()
    scale = abs(reference).max()
    return float(diff / scale) if scale > 0 else float(diff)


def rel_error(actual: Any, reference: Any) -> float:
    """max |actual - reference| relative to max |reference|."""
    import numpy as np

    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if actual.shape != reference.shape:
        return float("inf")
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    diff = float(np.max(np.abs(actual - reference))) if reference.size else 0.0
    return diff / scale if scale > 0 else diff
