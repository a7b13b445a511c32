"""Tests for the cost-model calibration micro-benchmarks."""

import pytest

from repro.cost import CostModel, calibrate
from repro.cost.calibrate import describe


class TestCalibration:
    @pytest.fixture(scope="class")
    def coefficients(self):
        # Small size keeps the calibration run fast in CI.
        return calibrate(size=64, density=0.08, repeats=1)

    def test_all_coefficients_positive(self, coefficients):
        for name, value in vars(coefficients).items():
            assert value > 0, name

    def test_dense_flops_cheapest_per_unit(self, coefficients):
        """BLAS flops must be cheaper per scalar than sparse expansion."""
        assert coefficients.dense_flop < coefficients.sparse_expand

    def test_calibrated_model_usable(self, coefficients):
        model = CostModel(coefficients)
        turnaround = model.solve_write_turnaround(64, 64, 64, 0.05, 0.05)
        assert 0.0 < turnaround <= 1.0

    def test_calibrated_write_turnaround_below_read(self, coefficients):
        """The read/write asymmetry survives fitting the sparse terms from
        spspd (expansion only) and spspsp's excess over it (the sort)."""
        model = CostModel(coefficients)
        write = model.solve_write_turnaround(64, 64, 64, 0.05, 0.05)
        read = model.solve_read_turnaround(64, 64, 64, 0.05, 0.3)
        assert write < read

    def test_describe_lists_every_coefficient(self, coefficients):
        text = describe(coefficients)
        for name in vars(coefficients):
            assert name in text

    def test_deterministic_workload(self):
        # Same seed -> same matrices; timings differ but must stay sane.
        a = calibrate(size=32, repeats=1)
        assert a.dense_flop < 1.0
