"""Quantum order, quantum factor and classification tests."""

import math

import pytest

from hoqiga.theory import (
    AlgorithmClass,
    classify,
    log2_quantum_factor,
    order_profile,
    profile_grid,
    quantum_factor,
    relative_order,
)


class TestRelativeOrder:
    def test_three_of_sixty(self):
        assert relative_order(3, 60) == 0.05

    def test_single_qubit_of_hundred(self):
        assert relative_order(1, 100) == 0.01

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_full_register_is_one(self, n):
        assert relative_order(n, n) == 1.0

    @pytest.mark.parametrize("r,n", [(0, 10), (11, 10), (-3, 10)])
    def test_rejects_out_of_range(self, r, n):
        with pytest.raises(ValueError):
            relative_order(r, n)


@pytest.mark.parametrize("function", [relative_order, log2_quantum_factor, order_profile])
@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_order_and_problem_size_must_be_integers(function, value):
    with pytest.raises(ValueError, match="^order must be an integer, got "):
        function(value, 4)
    with pytest.raises(ValueError, match="^problem size must be an integer, got "):
        function(1, value)


class TestQuantumFactor:
    def test_ten_independent_qubits(self):
        # 2 * 10 / 2**10 = 20/1024
        assert quantum_factor(1, 10) == pytest.approx(0.01953125, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 40])
    def test_full_register_factor_is_one(self, n):
        assert quantum_factor(n, n) == 1.0

    def test_fifty_qubits_below_threshold(self):
        value = quantum_factor(1, 50)
        assert value < 1e-10
        assert value == pytest.approx(100 / 2**50, rel=1e-12)

    def test_underflow_clamps_linear_scale_only(self):
        assert quantum_factor(1, 2000) == 0.0
        assert math.isfinite(log2_quantum_factor(1, 2000))

    def test_order_one_equals_order_two(self):
        # Both chromosome spaces have dimension 2N.
        for n in range(2, 41):
            assert log2_quantum_factor(1, n) == log2_quantum_factor(2, n)
            assert quantum_factor(1, n) == quantum_factor(2, n)

    def test_nondecreasing_in_order(self):
        for n in (8, 17, 33):
            values = [log2_quantum_factor(r, n) for r in range(2, n + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_vanishes_with_problem_size(self):
        for n in range(2, 60):
            assert quantum_factor(1, n + 1) < quantum_factor(1, n)

    def test_log_form_matches_direct_ratio(self):
        for n in range(1, 41):
            for r in range(1, n + 1):
                direct = (2**r * (n / r)) / 2**n
                assert quantum_factor(r, n) == pytest.approx(direct, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantum_factor(0, 5)
        with pytest.raises(ValueError):
            quantum_factor(6, 5)


class TestClassify:
    def test_classical_marker(self):
        assert classify(None) is AlgorithmClass.CLASSICAL

    def test_true_quantum(self):
        assert classify(0.0) is AlgorithmClass.TRUE_QUANTUM
        assert classify(log2_quantum_factor(7, 7)) is AlgorithmClass.TRUE_QUANTUM

    def test_quantum_inspired(self):
        assert classify(log2_quantum_factor(2, 100)) is AlgorithmClass.QUANTUM_INSPIRED

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            classify(0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            classify(-math.inf)
        with pytest.raises(ValueError):
            classify(math.nan)


class TestProfiles:
    def test_profile_fields_consistent(self):
        profile = order_profile(3, 60)
        assert profile.relative_order == 0.05
        assert profile.quantum_factor == 2.0**profile.log2_quantum_factor
        assert profile.algorithm_class is AlgorithmClass.QUANTUM_INSPIRED

    def test_grid_skips_invalid_pairs(self):
        profiles = profile_grid([2, 4], [1, 3])
        pairs = {(p.order, p.problem_size) for p in profiles}
        assert pairs == {(1, 2), (1, 4), (3, 4)}
