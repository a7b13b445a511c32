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
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CheckpointStore,
    MultiplyOptions,
    RetryPolicy,
    Session,
    SystemConfig,
    build_at_matrix,
    multiply_chain,
)
from repro.errors import ConfigError
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
