"""Every chain execution path against dense numpy, plus chain checkpoints.

All chains of two or more operands run through one engine entry point
(``repro.engine.api.run_chain``); what differs between the paths is the
options they run under.  The differential test drives each path on the
``repro.generate`` topology classes and compares the product with the
dense numpy chain:

* ``cold`` — the first run of a session (hop by hop, records the plan);
* ``fused`` — the second run of the same session (one cache hit, fused
  interleaved replay);
* ``no_cache`` — plain ``multiply_chain`` without a plan cache;
* ``resilience`` — a session with a retry policy (never fused);
* ``memory_limit`` — a session with a memory SLA (never fused).

The matvec half holds every ``A @ x`` path to the compiled replay a
session runs for a cached ``n x 1`` plan (:mod:`repro.engine.replay`):
the pair loop under a retry policy, under threads, under a checkpoint
and under an active (zero-rate) fault plan, and the plain
:func:`~repro.core.atmv.atmv` tile loop must all return its bits
exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    COOMatrix,
    CheckpointStore,
    FaultPlan,
    MultiplyOptions,
    PlanCache,
    RetryPolicy,
    Session,
    SystemConfig,
    atmult,
    build_at_matrix,
    inject_faults,
    multiply_chain,
    parallel_atmult,
)
from repro.core.atmv import atmv
from repro.engine.api import plan as plan_product
from repro.errors import ConfigError
from repro.formats.convert import dense_to_csr
from repro.formats.csr import CSRMatrix
from repro.formats.dense import DenseMatrix
from repro.observe import observe
from repro.solve import conjugate_gradient
from repro.topology import SystemTopology
from repro.generate import (
    banded_matrix,
    block_diagonal_matrix,
    clustered_matrix,
    power_network_matrix,
    rmat_matrix,
    uniform_random_matrix,
)

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
N = 96

#: one small instance of every generator class, keyed by a readable name
CLASSES = {
    "uniform": lambda seed: uniform_random_matrix(N, 600, seed=seed),
    "banded": lambda seed: banded_matrix(N, 900, seed=seed),
    "clustered": lambda seed: clustered_matrix(N, 900, seed=seed),
    "block_diagonal": lambda seed: block_diagonal_matrix(
        N, num_blocks=4, seed=seed
    ),
    "power_network": lambda seed: power_network_matrix(
        N, block_size=24, seed=seed
    ),
    "rmat": lambda seed: rmat_matrix(N, 700, 0.57, 0.19, 0.19, 0.05, seed=seed),
}

PATHS = ("cold", "fused", "no_cache", "resilience", "memory_limit")


def chain_operands(left: str, right: str):
    """A three-operand chain mixing two generator classes."""
    staged = [CLASSES[left](1), CLASSES[right](2), CLASSES[left](3)]
    return [build_at_matrix(coo, CONFIG) for coo in staged]


def dense_chain(operands) -> np.ndarray:
    result = operands[0].to_dense()
    for operand in operands[1:]:
        result = result @ operand.to_dense()
    return result


def run_path(path: str, operands):
    """Run the chain on one execution path; returns (product, report)."""
    if path == "no_cache":
        return multiply_chain(list(operands), options=MultiplyOptions(config=CONFIG))
    if path == "resilience":
        options = MultiplyOptions(
            config=CONFIG,
            resilience=RetryPolicy(max_attempts=2, backoff_base_seconds=0.0),
        )
    elif path == "memory_limit":
        # Four dense square products' worth: satisfiable for every
        # class, while still routing every hop through the SLA repair.
        options = MultiplyOptions(config=CONFIG, memory_limit_bytes=4 * 8.0 * N * N)
    else:
        options = MultiplyOptions(config=CONFIG)
    session = Session(options=options)
    product, report = session.multiply_chain(list(operands))
    if path == "fused":
        product, report = session.multiply_chain(list(operands))
    return product, report


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "left,right",
    [
        ("uniform", "banded"),
        ("clustered", "block_diagonal"),
        ("power_network", "rmat"),
    ],
)
def test_chain_path_matches_numpy(path, left, right):
    operands = chain_operands(left, right)
    product, report = run_path(path, operands)
    np.testing.assert_allclose(
        product.to_dense(), dense_chain(operands), rtol=1e-10, atol=1e-10
    )
    assert len(report.steps) == 2
    assert report.fused == (path == "fused")
    assert report.plan_cache_hit == (path == "fused")


class TestChainCheckpoint:
    def test_multi_hop_checkpoint_is_rejected_before_any_kernel(self, tmp_path):
        operands = chain_operands("uniform", "banded")
        store = CheckpointStore(tmp_path, resume=True)
        with pytest.raises(ConfigError, match="2 hops"):
            multiply_chain(
                list(operands),
                options=MultiplyOptions(config=CONFIG, checkpoint=store),
            )
        assert store.records_written == 0
        assert not list(tmp_path.glob("pairs/*"))

    def test_single_hop_checkpoint_journals_and_resumes(self, tmp_path):
        operands = chain_operands("clustered", "block_diagonal")[:2]
        first, first_report = multiply_chain(
            list(operands),
            options=MultiplyOptions(
                config=CONFIG, checkpoint=CheckpointStore(tmp_path, resume=False)
            ),
        )
        (step,) = first_report.steps
        assert step.pairs_executed > 0

        resumed, resumed_report = multiply_chain(
            list(operands),
            options=MultiplyOptions(
                config=CONFIG, checkpoint=CheckpointStore(tmp_path, resume=True)
            ),
        )
        (step,) = resumed_report.steps
        assert step.pairs_executed == 0
        assert step.failure.pairs_resumed == first_report.steps[0].pairs_executed
        assert np.array_equal(resumed.to_dense(), first.to_dense())


# ---------------------------------------------------------------------------
# matvec paths: compiled replay against every other A @ x path
# ---------------------------------------------------------------------------
MATVEC_PATHS = ("resilience", "threads", "checkpoint", "faults", "atmv")


def column(x: np.ndarray) -> DenseMatrix:
    return DenseMatrix(np.asarray(x, dtype=np.float64).reshape(-1, 1))


def compiled_matvec(session: Session, matrix, x: np.ndarray) -> np.ndarray:
    """``A @ x`` through the session, asserting its plan runs compiled."""
    resolved = session.plan(matrix, column(x))
    assert resolved.program is not None
    return session.matvec(matrix, x)


def other_matvec(path: str, matrix, x: np.ndarray, tmp_path) -> np.ndarray:
    """``A @ x`` on one of the pair-loop paths, or through ``atmv``."""
    if path == "atmv":
        return atmv(matrix, x)
    cache = PlanCache()  # the cached plan carries a program all the same
    if path == "resilience":
        options = MultiplyOptions(
            config=CONFIG, plan_cache=cache, resilience=RetryPolicy(max_attempts=2)
        )
        result, _ = atmult(matrix, column(x), options=options)
    elif path == "threads":
        result, _ = parallel_atmult(
            matrix,
            column(x),
            topology=SystemTopology(sockets=2, cores_per_socket=1),
            options=MultiplyOptions(config=CONFIG, plan_cache=cache),
        )
    elif path == "checkpoint":
        options = MultiplyOptions(
            config=CONFIG, plan_cache=cache, checkpoint=CheckpointStore(tmp_path)
        )
        result, report = atmult(matrix, column(x), options=options)
        assert report.pairs_executed > 0
    else:
        assert path == "faults"
        with inject_faults(FaultPlan(seed=0, kernel_error_rate=0.0)):
            result, _ = atmult(
                matrix, column(x), options=MultiplyOptions(config=CONFIG, plan_cache=cache)
            )
    (resolved,) = [entry for entry in cache._plans.values()]
    assert resolved.program is not None
    return result.to_dense().ravel()


@pytest.mark.parametrize("path", MATVEC_PATHS)
@pytest.mark.parametrize("name", sorted(CLASSES))
def test_matvec_path_matches_compiled_replay(path, name, tmp_path):
    matrix = build_at_matrix(CLASSES[name](1), CONFIG)
    x = np.random.default_rng(7).uniform(-1.0, 1.0, matrix.cols)
    compiled = compiled_matvec(Session(config=CONFIG), matrix, x)
    assert np.array_equal(compiled, other_matvec(path, matrix, x, tmp_path))
    np.testing.assert_allclose(compiled, matrix.to_dense() @ x, rtol=1e-12, atol=1e-12)


class TestCompiledReplay:
    def test_in_place_mutation_reaches_the_next_call(self):
        matrix = build_at_matrix(CLASSES["banded"](2), CONFIG)
        x = np.random.default_rng(8).random(matrix.cols)
        session = Session(config=CONFIG)
        before = compiled_matvec(session, matrix, x)
        for tile in matrix.tiles:  # values change, the structure does not
            if isinstance(tile.data, CSRMatrix):
                tile.data.values *= -3.0
            else:
                tile.data.array *= 0.5
        after = session.matvec(matrix, x)
        assert session.cache_stats().misses == 1  # the same cached plan
        assert not np.array_equal(before, after)
        assert np.array_equal(after, atmv(matrix, x))

    def test_same_structure_matrices_share_one_plan(self):
        coo = CLASSES["power_network"](3)
        scaled = COOMatrix(
            coo.rows, coo.cols, coo.row_ids, coo.col_ids, coo.values * 2.5 + 1.0
        )
        first = build_at_matrix(coo, CONFIG)
        second = build_at_matrix(scaled, CONFIG)
        x = np.random.default_rng(9).random(first.cols)
        session = Session(config=CONFIG)
        y_first = compiled_matvec(session, first, x)
        y_second = compiled_matvec(session, second, x)
        stats = session.cache_stats()
        assert (stats.entries, stats.misses) == (1, 1)
        assert np.array_equal(y_first, atmv(first, x))
        assert np.array_equal(y_second, atmv(second, x))
        assert not np.array_equal(y_first, y_second)

    def test_sparse_vector_plan_is_not_lowered(self):
        matrix = build_at_matrix(CLASSES["clustered"](4), CONFIG)
        x = np.zeros(matrix.cols)
        x[::9] = np.arange(1.0, len(x[::9]) + 1.0)
        sparse_x = dense_to_csr(column(x))
        session = Session(config=CONFIG)
        resolved = session.plan(matrix, sparse_x)
        assert session.cache_stats().entries == 1
        assert resolved.program is None  # x is read as CSR or converted
        result, _ = session.multiply(matrix, sparse_x)
        np.testing.assert_allclose(
            result.to_dense().ravel(), matrix.to_dense() @ x, rtol=1e-12, atol=1e-12
        )

    def test_sparse_target_plan_is_not_lowered(self):
        matrix = build_at_matrix(CLASSES["uniform"](4), CONFIG)
        x = np.random.default_rng(13).random(matrix.cols)
        # without estimation every target is sparse
        session = Session(options=MultiplyOptions(config=CONFIG, use_estimation=False))
        assert session.plan(matrix, column(x)).program is None
        np.testing.assert_allclose(
            session.matvec(matrix, x), matrix.to_dense() @ x, rtol=1e-12, atol=1e-12
        )

    def test_program_bytes_count_in_the_cache_and_leave_on_eviction(self):
        matrix = build_at_matrix(CLASSES["banded"](5), CONFIG)
        x = column(np.random.default_rng(10).random(matrix.cols))
        bare = plan_product(matrix, x, options=MultiplyOptions(config=CONFIG))
        assert bare.program is None  # no cache, nothing lowered
        cache = PlanCache()
        cached = plan_product(
            matrix, x, options=MultiplyOptions(config=CONFIG, plan_cache=cache)
        )
        assert cached.program is not None and cached.program.nbytes > 0
        assert cached.memory_bytes() == bare.memory_bytes() + cached.program.nbytes
        assert cache.current_bytes == cached.memory_bytes()

        other = build_at_matrix(CLASSES["uniform"](5), CONFIG)
        other_bytes = plan_product(
            other, x, options=MultiplyOptions(config=CONFIG, plan_cache=PlanCache())
        ).memory_bytes()
        # room for either plan, not for both
        small = PlanCache(max_bytes=cached.memory_bytes() + other_bytes - 1)
        options = MultiplyOptions(config=CONFIG, plan_cache=small)
        plan_product(matrix, x, options=options)
        replacement = plan_product(other, x, options=options)
        stats = small.stats()
        assert (stats.entries, stats.evictions) == (1, 1)
        assert stats.bytes == replacement.memory_bytes() == other_bytes
        assert all(entry is replacement for entry in small._plans.values())

    def test_session_and_plain_cg_solves_are_bit_identical(self):
        dense = build_at_matrix(CLASSES["clustered"](6), CONFIG).to_dense()
        symmetric = -np.abs(dense + dense.T)
        np.fill_diagonal(symmetric, 0.0)
        spd = symmetric + np.diag(np.abs(symmetric).sum(axis=1) * 1.05 + 0.05)
        matrix = build_at_matrix(COOMatrix.from_dense(spd), CONFIG)
        rhs = np.random.default_rng(11).uniform(-1.0, 1.0, matrix.rows)
        session_solve = Session(config=CONFIG).solve(matrix, rhs, method="cg")
        plain_solve = conjugate_gradient(matrix, rhs)
        assert session_solve.converged and session_solve.iterations > 2
        assert session_solve.iterations == plain_solve.iterations
        assert np.array_equal(session_solve.solution, plain_solve.solution)

    def test_traced_run_counts_the_plan_and_opens_one_replay_span(self):
        matrix = build_at_matrix(CLASSES["block_diagonal"](7), CONFIG)
        x = np.random.default_rng(12).random(matrix.cols)
        session = Session(config=CONFIG)
        resolved = session.plan(matrix, column(x))
        with observe() as obs:
            session.matvec(matrix, x)
        histogram = resolved.kernel_histogram()
        counters = obs.metrics.as_dict()
        dispatched = {
            name.removeprefix("kernel.dispatch."): payload["value"]
            for name, payload in counters.items()
            if name.startswith("kernel.dispatch.")
        }
        assert dispatched == histogram
        for name in histogram:
            assert counters[f"kernel.seconds.{name}"]["count"] == 1
        names = [span.name for span in obs.tracer.spans()]
        assert names.count("replay") == 1 and "pair" not in names
        (replay,) = [span for span in obs.tracer.spans() if span.name == "replay"]
        assert replay.attrs == {
            "pairs": len(resolved.pairs),
            "products": resolved.num_products,
        }
        assert counters["accumulator.writes"]["value"] == resolved.program.writes
