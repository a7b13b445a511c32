"""Tests for the storage/execution advisor."""

import numpy as np
import pytest

from repro import COOMatrix, SystemConfig, profile_topology, recommend
from repro.advisor import _gini
from repro.generate import banded_matrix, power_network_matrix, uniform_random_matrix
from repro.kinds import StorageKind

from .conftest import heterogeneous_array

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


class TestGini:
    def test_uniform_is_zero(self):
        assert _gini(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_is_high(self):
        counts = np.zeros(100)
        counts[0] = 1000.0
        assert _gini(counts) > 0.9

    def test_empty_and_singleton(self):
        assert _gini(np.array([])) == 0.0
        assert _gini(np.array([5.0])) == 0.0


class TestProfile:
    def test_heterogeneous_detected(self, rng):
        staged = COOMatrix.from_dense(heterogeneous_array(rng, 96, 96))
        profile = profile_topology(staged, CONFIG)
        assert profile.topology_class == "heterogeneous"
        assert profile.dense_block_fraction > 0

    def test_banded_detected(self):
        staged = banded_matrix(512, 3000, bandwidth=4, seed=1)
        profile = profile_topology(staged, CONFIG)
        assert profile.topology_class == "banded"
        assert profile.normalized_bandwidth < 0.02

    def test_uniform_detected(self):
        staged = uniform_random_matrix(256, 4000, seed=2)
        profile = profile_topology(staged, CONFIG)
        assert profile.topology_class == "uniform"
        assert profile.block_skew < 0.4

    def test_dense_detected(self, rng):
        staged = COOMatrix.from_dense(rng.random((32, 32)))
        profile = profile_topology(staged, CONFIG)
        assert profile.topology_class == "dense"

    def test_empty_matrix(self):
        profile = profile_topology(COOMatrix.empty(64, 64), CONFIG)
        assert profile.nnz == 0
        assert profile.block_skew == 0.0


class TestRecommend:
    def test_power_network_partitions(self):
        staged = power_network_matrix(
            512, block_size=48, block_fill=0.9, background_density=0.001, seed=3
        )
        # Default config: under CONFIG's 8 KB LLC the tiled run really is
        # slower than one spspd pass, so "partition wins" would be false.
        rec = recommend(staged, SystemConfig())
        assert rec.partition_worthwhile
        assert rec.profile.topology_class == "heterogeneous"
        assert any("dense regions" in note for note in rec.notes)

    def test_banded_does_not_partition(self):
        staged = banded_matrix(512, 2000, bandwidth=4, seed=4)
        rec = recommend(staged, CONFIG)
        assert not rec.partition_worthwhile
        assert any("hypersparse" in note for note in rec.notes)

    def test_plain_storage_follows_density(self, rng):
        dense = recommend(COOMatrix.from_dense(rng.random((32, 32))), CONFIG)
        assert dense.plain_storage is StorageKind.DENSE
        sparse = recommend(uniform_random_matrix(128, 200, seed=5), CONFIG)
        assert sparse.plain_storage is StorageKind.SPARSE

    def test_all_strategies_costed(self, rng):
        rec = recommend(COOMatrix.from_dense(heterogeneous_array(rng, 64, 64)), CONFIG)
        assert set(rec.predicted_costs) == {
            "spspsp_gemm", "spspd_gemm", "ddd_gemm", "atmult",
        }
        assert all(cost >= 0 for cost in rec.predicted_costs.values())

    def test_summary_renders(self, rng):
        rec = recommend(COOMatrix.from_dense(heterogeneous_array(rng, 64, 64)), CONFIG)
        text = rec.summary()
        assert "topology class" in text
        assert "predicted" in text

    def test_prediction_matches_reality_on_contrast_pair(self):
        """The advisor's verdicts must match the measured Fig. 8 outcome:
        partition wins on the power-network class, loses on the band.
        Measured under the default config, as the advisor is asked here."""
        config = SystemConfig()
        win = recommend(
            power_network_matrix(
                512, block_size=48, block_fill=0.9,
                background_density=0.001, seed=6,
            ),
            config,
        )
        lose = recommend(banded_matrix(512, 2000, bandwidth=4, seed=7), config)
        assert win.partition_worthwhile and not lose.partition_worthwhile
