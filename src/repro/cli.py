"""Command-line interface: inspect, partition and multiply .mtx matrices.

Usage (also via ``python -m repro``):

    repro info matrix.mtx
    repro partition matrix.mtx --llc-kib 384
    repro multiply a.mtx b.mtx -o c.mtx --memory-limit-mb 64
    repro multiply a.mtx b.mtx --checkpoint-dir ckpt/ --resume
    repro verify matrix.npz
    repro generate R3 -o r3.mtx
    repro calibrate
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from .formats.coo import COOMatrix
    from .resilience import FaultPlan, RetryPolicy

from .config import (
    SystemConfig,
    validate_non_negative,
    validate_positive,
    validate_unit_interval,
)
from .core.atmult import atmult
from .core.builder import ATMatrixBuilder
from .cost.calibrate import calibrate, describe
from .errors import ConfigError, ReproError
from .formats.matrix_market import read_matrix_market, write_matrix_market
from .generate.suite import SUITE, load_matrix
from .kinds import StorageKind
from .viz.ascii_map import render_density_map, render_tile_layout


def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    kwargs = {}
    if args.llc_kib is not None:
        kwargs["llc_bytes"] = args.llc_kib * 1024
    if getattr(args, "b_atomic", None) is not None:
        kwargs["b_atomic"] = args.b_atomic
    return SystemConfig(**kwargs)


def _validate_args(args: argparse.Namespace) -> None:
    """Reject out-of-domain values before they produce garbage downstream.

    ``SystemConfig`` validates ``--llc-kib``/``--b-atomic`` (positive,
    power of two) on construction; thresholds, limits, and the
    resilience flags are checked here so every command fails with a
    clean ``ConfigError`` message instead of a deep stack trace.
    """
    threshold = getattr(args, "read_threshold", None)
    if threshold is not None:
        validate_unit_interval(threshold, "--read-threshold")
    limit = getattr(args, "memory_limit_mb", None)
    if limit is not None:
        validate_non_negative(limit, "--memory-limit-mb")
    retries = getattr(args, "max_retries", None)
    if retries is not None and retries < 1:
        raise ConfigError(f"--max-retries must be >= 1, got {retries}")
    deadline = getattr(args, "task_deadline", None)
    if deadline is not None:
        validate_positive(deadline, "--task-deadline")
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None:
        validate_positive(tolerance, "--tolerance")
    flush = getattr(args, "checkpoint_flush", None)
    if flush is not None and flush < 1:
        raise ConfigError(f"--checkpoint-flush must be >= 1, got {flush}")
    if getattr(args, "resume", False) and not getattr(args, "checkpoint_dir", None):
        raise ConfigError("--resume requires --checkpoint-dir")
    worker_count = getattr(args, "workers", None)
    if worker_count is not None:
        if worker_count < 1:
            raise ConfigError(f"--workers must be >= 1, got {worker_count}")
        if getattr(args, "execution", None) is None:
            raise ConfigError("--workers requires --execution")
    heartbeat = getattr(args, "heartbeat_interval", None)
    if heartbeat is not None:
        validate_positive(heartbeat, "--heartbeat-interval")
    grace = getattr(args, "startup_grace", None)
    if grace is not None:
        validate_positive(grace, "--startup-grace")
    drain_timeout = getattr(args, "drain_timeout", None)
    if drain_timeout is not None:
        validate_positive(drain_timeout, "--drain-timeout")
    sla = getattr(args, "memory_sla_mb", None)
    if sla is not None:
        validate_positive(sla, "--memory-sla-mb")
    for name in ("serve_workers", "tenant_quota", "queue_depth"):
        bound = getattr(args, name, None)
        if bound is not None and bound < 1:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be >= 1, got {bound}")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--llc-kib", type=int, default=None,
        help="last-level cache size in KiB (default: library default)",
    )
    parser.add_argument(
        "--b-atomic", type=int, default=None,
        help="atomic block edge (power of two; default: derived from LLC)",
    )
    parser.add_argument(
        "--read-threshold", type=float, default=0.25,
        help="density above which a tile is stored dense (paper rho0_R)",
    )


def cmd_info(args: argparse.Namespace) -> int:
    staged = read_matrix_market(args.matrix).sum_duplicates()
    config = _config_from_args(args)
    print(f"{args.matrix}: {staged.rows} x {staged.cols}, nnz={staged.nnz}, "
          f"density={100 * staged.density:.4f}%")
    print(f"COO binary size: {staged.memory_bytes() / 1e6:.2f} MB")
    from .density.map import DensityMap

    assert config.b_atomic is not None
    dm = DensityMap.from_coordinates(
        staged.rows, staged.cols, staged.row_ids, staged.col_ids, config.b_atomic
    )
    print(f"\nblock density map (b_atomic={config.b_atomic}):")
    print(render_density_map(dm, max_cells=48))
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    staged = read_matrix_market(args.matrix).sum_duplicates()
    config = _config_from_args(args)
    builder = ATMatrixBuilder(config, args.read_threshold)
    matrix, report = builder.build_with_report(staged)
    dense = matrix.num_tiles(StorageKind.DENSE)
    sparse = matrix.num_tiles(StorageKind.SPARSE)
    print(f"partitioned into {len(matrix.tiles)} tiles "
          f"({dense} dense, {sparse} sparse) in {report.total_seconds:.3f} s")
    for component, seconds in report.as_dict().items():
        print(f"  {component:>24}: {seconds * 1e3:8.2f} ms")
    print(f"memory: {matrix.memory_bytes() / 1e6:.2f} MB "
          f"(plain CSR would be {staged.nnz * 16 / 1e6:.2f} MB)")
    print(f"\ntile layout ('/' = dense):")
    print(render_tile_layout(matrix, max_cells=48))
    return 0


def _resilience_from_args(
    args: argparse.Namespace,
) -> tuple[RetryPolicy | None, FaultPlan | None]:
    """Build the (policy, fault plan) pair from the multiply flags."""
    from .resilience import FaultPlan, RetryPolicy

    policy = None
    if (
        args.max_retries is not None
        or args.task_deadline is not None
        or args.inject_faults is not None
    ):
        policy = RetryPolicy(
            max_attempts=args.max_retries if args.max_retries is not None else 3,
            task_deadline_seconds=args.task_deadline,
        )
    plan = None
    if args.inject_faults is not None:
        plan = FaultPlan(args.inject_faults, kernel_error_rate=0.1)
    return policy, plan


def cmd_multiply(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .observe import activate, Observation, write_chrome_trace, write_json
    from .resilience import inject_faults

    config = _config_from_args(args)
    observer = (
        Observation() if args.trace_out or args.metrics_out else None
    )
    # Activate before partitioning so the partition spans land in the
    # trace alongside the multiplication phases.
    observe_context = activate(observer) if observer is not None else nullcontext()
    with observe_context:
        a_staged = read_matrix_market(args.a).sum_duplicates()
        b_staged = (
            a_staged if args.b == args.a
            else read_matrix_market(args.b).sum_duplicates()
        )
        builder = ATMatrixBuilder(config, args.read_threshold)
        a = builder.build(a_staged)
        b = a if b_staged is a_staged else builder.build(b_staged)
        limit = args.memory_limit_mb * 1e6 if args.memory_limit_mb else None
        policy, plan = _resilience_from_args(args)
        context = inject_faults(plan) if plan is not None else nullcontext()
        from .engine import MultiplyOptions

        checkpoint = None
        if args.checkpoint_dir:
            from .resilience.checkpoint import CheckpointStore

            checkpoint = CheckpointStore(args.checkpoint_dir, resume=args.resume)
        options = MultiplyOptions(
            config=config,
            memory_limit_bytes=limit,
            resilience=policy,
            checkpoint=checkpoint,
            checkpoint_flush_pairs=args.checkpoint_flush,
            execution=args.execution or "threads",
            workers=args.workers,
            heartbeat_interval_seconds=args.heartbeat_interval,
            startup_grace_seconds=args.startup_grace,
        )
        start = time.perf_counter()
        with context:
            if args.execution is not None:
                from .core.parallel import parallel_atmult
                from .topology.system import SystemTopology

                topology = SystemTopology.scaled_default()
                result, report = parallel_atmult(
                    a, b, topology=topology, options=options
                )
            else:
                result, report = atmult(a, b, options=options)
        elapsed = time.perf_counter() - start
    print(f"C = A x B: {result.rows} x {result.cols}, nnz={result.nnz}, "
          f"{elapsed:.3f} s")
    print(f"  estimation {report.estimate_fraction:.1%}, "
          f"optimization {report.optimize_fraction:.1%}, "
          f"{report.conversions} tile conversions")
    print(f"  kernels: {report.kernel_counts}")
    print(f"  output memory: {result.memory_bytes() / 1e6:.2f} MB")
    if args.execution is not None:
        print(f"  execution: {args.execution}, {report.workers} workers, "
              f"parallel efficiency {report.parallel_efficiency:.1%}")
    if policy is not None:
        injected = f", {plan.injected} faults injected" if plan is not None else ""
        print(f"  resilience: {report.failure.summary()}{injected}")
    if checkpoint is not None:
        print(f"  checkpoint: {report.failure.pairs_resumed} pairs resumed, "
              f"{report.pairs_executed} executed, "
              f"{report.checkpoint_flushes} flushes -> {args.checkpoint_dir}")
    if observer is not None:
        if args.trace_out:
            write_chrome_trace(observer, args.trace_out)
            print(f"  trace written to {args.trace_out} "
                  f"({len(observer.tracer)} spans; load in Perfetto)")
        if args.metrics_out:
            write_json(observer, args.metrics_out)
            print(f"  metrics written to {args.metrics_out}")
    if args.output:
        write_matrix_market(result.to_coo(), args.output,
                            comment="produced by repro ATMULT")
        print(f"  written to {args.output}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Deep integrity verification of persisted matrices (exit 4 on damage)."""
    from pathlib import Path

    from .errors import ParseError
    from .resilience.integrity import verify_archive

    total = 0
    for target in args.targets:
        if not Path(target).exists():
            raise FileNotFoundError(f"no such file: {target}")
        if target.endswith(".mtx"):
            try:
                matrix = read_matrix_market(target).sum_duplicates()
            except ParseError as error:
                print(f"{target}: parse-error: {error}")
                total += 1
                continue
            print(f"{target}: OK ({matrix.rows} x {matrix.cols}, "
                  f"nnz={matrix.nnz})")
            continue
        violations = verify_archive(target)
        if violations:
            for violation in violations:
                print(f"{target}: {violation.render()}")
            total += len(violations)
        else:
            print(f"{target}: OK")
    if total:
        print(f"{total} integrity violation(s) found", file=sys.stderr)
        return 4
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from .advisor import recommend

    staged = read_matrix_market(args.matrix).sum_duplicates()
    config = _config_from_args(args)
    recommendation = recommend(staged, config)
    print(recommendation.summary())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.key not in SUITE:
        print(f"unknown suite key {args.key!r}; known: {', '.join(sorted(SUITE))}",
              file=sys.stderr)
        return 2
    matrix = load_matrix(args.key)
    entry = SUITE[args.key]
    write_matrix_market(
        matrix, args.output,
        comment=f"repro suite {args.key}: {entry.name} ({entry.domain})",
    )
    print(f"{args.key} ({entry.name}): {matrix.rows} x {matrix.cols}, "
          f"nnz={matrix.nnz} -> {args.output}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    import numpy as np

    from .solve import conjugate_gradient, jacobi

    staged = read_matrix_market(args.matrix).sum_duplicates()
    config = _config_from_args(args)
    matrix = ATMatrixBuilder(config, args.read_threshold).build(staged)
    if args.rhs:
        rhs_matrix = read_matrix_market(args.rhs)
        rhs = rhs_matrix.to_dense().ravel()
    else:
        rhs = np.ones(matrix.rows)
    solver = conjugate_gradient if args.method == "cg" else jacobi
    session = None
    if args.planned:
        from .engine import Session

        session = Session(config=config)
    result = solver(
        matrix,
        rhs,
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        options=session.options if session is not None else None,
    )
    status = "converged" if result.converged else "NOT converged"
    print(f"{args.method}: {status} after {result.iterations} iterations "
          f"(residual {result.residual_norm:.3e})")
    if session is not None:
        stats = session.cache_stats()
        print(f"plan cache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.entries} plans ({stats.bytes / 1e3:.1f} kB)")
    if args.output:
        solution = _vector_as_coo(result.solution)
        write_matrix_market(solution, args.output, comment="repro solve solution")
        print(f"solution written to {args.output}")
    return 0 if result.converged else 3


def _vector_as_coo(vector: np.ndarray) -> COOMatrix:
    """A length-n vector as an n x 1 COO matrix (for .mtx output)."""
    import numpy as np

    from .formats.coo import COOMatrix

    nz = np.flatnonzero(vector)
    return COOMatrix(
        len(vector), 1, nz, np.zeros(len(nz), dtype=np.int64), vector[nz]
    )


def cmd_calibrate(args: argparse.Namespace) -> int:
    coefficients = calibrate(size=args.size, repeats=args.repeats)
    print(describe(coefficients))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant matrix service (see docs/SERVICE.md).

    SIGTERM triggers a graceful drain: the listener closes, queued jobs
    stay journaled on disk for the next server, running jobs get
    ``--drain-timeout`` seconds to finish before being checkpoint-
    cancelled, and the process exits 0.
    """
    import asyncio
    import contextlib
    import signal

    from .engine import MultiplyOptions
    from .service import MatrixRegistry, MatrixService
    from .service import serve as serve_endpoint

    config = _config_from_args(args)
    registry = MatrixRegistry(config=config)
    for assignment in args.matrix:
        name, _, path = assignment.partition("=")
        if not name or not path:
            raise ConfigError(
                f"--matrix expects NAME=PATH, got {assignment!r}"
            )
        registry.register_file(name, path)
    limit = (
        args.memory_sla_mb * 1024 * 1024 if args.memory_sla_mb is not None else None
    )
    service = MatrixService(
        registry,
        job_dir=args.job_dir,
        memory_limit_bytes=limit,
        workers=args.serve_workers,
        tenant_quota=args.tenant_quota,
        max_queue_depth=args.queue_depth,
        options=MultiplyOptions(
            config=config, startup_grace_seconds=args.startup_grace
        ),
    )

    async def run() -> None:
        server = await serve_endpoint(service, host=args.host, port=args.port)
        sockets = server.sockets or []
        for sock in sockets:
            host, port = sock.getsockname()[:2]
            print(f"serving on {host}:{port}", flush=True)
        print(
            f"matrices: {', '.join(registry.names()) or '(none)'}; "
            f"job dir: {args.job_dir}",
            flush=True,
        )
        drain_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError):  # non-Unix loops
            loop.add_signal_handler(signal.SIGTERM, drain_requested.set)
        async with server:
            # start_server already accepts connections; block until the
            # drain signal (SIGINT surfaces as KeyboardInterrupt → 130).
            await drain_requested.wait()
            print(
                f"SIGTERM: draining (timeout {args.drain_timeout:g}s)...",
                flush=True,
            )
            server.close()
            await server.wait_closed()
            await service.drain(timeout=args.drain_timeout)
        print("drained; queued jobs will resume on the next server", flush=True)

    asyncio.run(run())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive Tile Matrix toolkit (ICDE'16 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="matrix statistics + density map")
    info.add_argument("matrix", help="Matrix Market (.mtx) file")
    _add_config_arguments(info)
    info.set_defaults(handler=cmd_info)

    partition = commands.add_parser("partition", help="build and show an AT Matrix")
    partition.add_argument("matrix", help="Matrix Market (.mtx) file")
    _add_config_arguments(partition)
    partition.set_defaults(handler=cmd_partition)

    multiply = commands.add_parser("multiply", help="C = A x B with ATMULT")
    multiply.add_argument("a", help="left operand (.mtx)")
    multiply.add_argument("b", help="right operand (.mtx); pass the same "
                                    "path as A for a self-product")
    multiply.add_argument("-o", "--output", help="write the result (.mtx)")
    multiply.add_argument("--memory-limit-mb", type=float, default=None,
                          help="memory SLA for the output matrix")
    multiply.add_argument("--max-retries", type=int, default=None,
                          help="retry each tile-pair task up to N attempts "
                               "(enables the resilience layer)")
    multiply.add_argument("--task-deadline", type=float, default=None,
                          help="per-task deadline in seconds; slow attempts "
                               "are discarded and re-run")
    multiply.add_argument("--inject-faults", type=int, default=None,
                          metavar="SEED",
                          help="inject deterministic transient kernel faults "
                               "(10%% rate) from SEED, for chaos testing")
    multiply.add_argument("--trace-out", default=None, metavar="FILE",
                          help="write a Chrome trace-event JSON of the run "
                               "(open in Perfetto / chrome://tracing)")
    multiply.add_argument("--metrics-out", default=None, metavar="FILE",
                          help="write the full observation (metrics, spans, "
                               "cost-model accuracy) as JSON")
    multiply.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                          help="journal each completed tile-pair to DIR so an "
                               "interrupted run can be resumed")
    multiply.add_argument("--resume", action="store_true",
                          help="restore completed pairs from --checkpoint-dir "
                               "and execute only the unfinished ones")
    multiply.add_argument("--checkpoint-flush", type=int, default=1, metavar="N",
                          help="flush the checkpoint journal every N completed "
                               "pairs (default 1: after every pair)")
    multiply.add_argument("--execution", choices=["threads", "processes"],
                          default=None,
                          help="run the tile-pair schedule in parallel with "
                               "the given backend (default: sequential)")
    multiply.add_argument("--workers", type=int, default=None, metavar="N",
                          help="worker count for --execution (default: the "
                               "simulated topology's socket count)")
    multiply.add_argument("--heartbeat-interval", type=float, default=0.25,
                          metavar="SECONDS",
                          help="worker heartbeat cadence under "
                               "--execution=processes (default 0.25)")
    multiply.add_argument("--startup-grace", type=float, default=10.0,
                          metavar="SECONDS",
                          help="grace before a silent worker process counts "
                               "as dead during startup (default 10; raise on "
                               "slow spawn-platform imports)")
    _add_config_arguments(multiply)
    multiply.set_defaults(handler=cmd_multiply)

    verify = commands.add_parser(
        "verify", help="deep integrity check of .npz archives / .mtx files"
    )
    verify.add_argument("targets", nargs="+", metavar="FILE",
                        help=".npz AT Matrix archives (checksums + structural "
                             "invariants) or .mtx files (parseability)")
    verify.set_defaults(handler=cmd_verify)

    advise = commands.add_parser(
        "advise", help="recommend storage/strategy for a matrix"
    )
    advise.add_argument("matrix", help="Matrix Market (.mtx) file")
    _add_config_arguments(advise)
    advise.set_defaults(handler=cmd_advise)

    generate = commands.add_parser("generate", help="emit a Table-I suite matrix")
    generate.add_argument("key", help="suite key, e.g. R3 or G5")
    generate.add_argument("-o", "--output", required=True, help="target .mtx")
    generate.set_defaults(handler=cmd_generate)

    solve = commands.add_parser("solve", help="solve A x = b iteratively")
    solve.add_argument("matrix", help="system matrix (.mtx)")
    solve.add_argument("--rhs", help="right-hand side (.mtx vector); default ones")
    solve.add_argument("--method", choices=["cg", "jacobi"], default="cg")
    solve.add_argument("--tolerance", type=float, default=1e-10)
    solve.add_argument("--max-iterations", type=int, default=2000)
    solve.add_argument("--planned", action="store_true",
                       help="drive matrix-vector products through the "
                            "plan-and-execute engine: iteration 1 builds an "
                            "ExecutionPlan, iterations 2..N replay it from "
                            "the session's plan cache")
    solve.add_argument("-o", "--output", help="write the solution (.mtx)")
    _add_config_arguments(solve)
    solve.set_defaults(handler=cmd_solve)

    calibrate_cmd = commands.add_parser(
        "calibrate", help="fit cost-model coefficients on this machine"
    )
    calibrate_cmd.add_argument("--size", type=int, default=256)
    calibrate_cmd.add_argument("--repeats", type=int, default=3)
    calibrate_cmd.set_defaults(handler=cmd_calibrate)

    serve = commands.add_parser(
        "serve", help="run the multi-tenant matrix job service"
    )
    serve.add_argument("--matrix", action="append", default=[],
                       metavar="NAME=PATH",
                       help="register a matrix under NAME from a .mtx file "
                            "or .npz archive (repeatable)")
    serve.add_argument("--job-dir", required=True, metavar="DIR",
                       help="job journal/checkpoint/result directory; reuse "
                            "a previous server's DIR to recover its "
                            "unfinished jobs")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: ephemeral, printed on start)")
    serve.add_argument("--serve-workers", dest="serve_workers", type=int,
                       default=2, metavar="N",
                       help="concurrent job workers (default 2)")
    serve.add_argument("--memory-sla-mb", type=float, default=None,
                       help="memory SLA enforced by water-level admission "
                            "control (default: no SLA)")
    serve.add_argument("--tenant-quota", type=int, default=8, metavar="N",
                       help="max queued-or-running jobs per tenant (default 8)")
    serve.add_argument("--queue-depth", type=int, default=64, metavar="N",
                       help="global pending-job bound before load shedding "
                            "(default 64)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="on SIGTERM, seconds running jobs get to finish "
                            "before being checkpoint-cancelled (default 30)")
    serve.add_argument("--startup-grace", type=float, default=10.0,
                       metavar="SECONDS",
                       help="worker-process startup heartbeat grace for "
                            "process-backend jobs (default 10)")
    _add_config_arguments(serve)
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        return args.handler(args)
    except KeyboardInterrupt:
        checkpoint_dir = getattr(args, "checkpoint_dir", None)
        hint = (
            f"; flushed pairs are preserved in {checkpoint_dir} "
            "(rerun with --resume)"
            if checkpoint_dir
            else ""
        )
        print(f"interrupted{hint}", file=sys.stderr)
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
