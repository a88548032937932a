"""Register construction, observation and randomness-contract tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoqiga.core import (
    QuantumChromosome,
    QuantumRegister,
    RandomSource,
    bits_from_string,
    bits_to_group,
    bits_to_string,
    chromosome_layout,
    chromosome_uniform,
    group_to_bits,
    observe_chromosome,
    observe_register,
    observe_register_many,
    register_basis,
    register_uniform,
)


class FixedDraws:
    """RandomSource stand-in replaying a scripted uniform sequence."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)

    def uniforms(self, n):
        return np.array([self.values.pop(0) for _ in range(n)])


def random_register(order, rng):
    """Normalized register with random signed amplitudes."""
    amps = rng.gen.normal(size=2**order)
    return QuantumRegister(order, amps / np.sqrt(np.sum(amps**2)))


class TestRegisterConstruction:
    def test_uniform_order_2(self):
        reg = register_uniform(2)
        assert np.array_equal(reg.amplitudes, [0.5, 0.5, 0.5, 0.5])

    def test_uniform_order_1(self):
        reg = register_uniform(1)
        assert reg.amplitudes == pytest.approx([0.7071067811865476] * 2, abs=1e-15)

    def test_uniform_order_3(self):
        reg = register_uniform(3)
        assert len(reg.amplitudes) == 8
        assert reg.amplitudes == pytest.approx([0.35355339059327373] * 8, abs=1e-15)

    @pytest.mark.parametrize("order", [0, -1, 31])
    def test_uniform_rejects_bad_order(self, order):
        with pytest.raises(ValueError):
            register_uniform(order)

    def test_basis_examples(self):
        assert np.array_equal(register_basis(2, 2).amplitudes, [0, 0, 1, 0])
        assert np.array_equal(register_basis(1, 0).amplitudes, [1, 0])
        assert np.array_equal(register_basis(2, 3).amplitudes, [0, 0, 0, 1])

    @pytest.mark.parametrize("index", [-1, 4])
    def test_basis_rejects_bad_index(self, index):
        with pytest.raises(ValueError):
            register_basis(2, index)

    def test_register_requires_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            QuantumRegister(1, np.array([1.0, 1.0]))

    def test_register_requires_matching_length(self):
        with pytest.raises(ValueError):
            QuantumRegister(2, np.array([1.0, 0.0]))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
    def test_random_registers_normalized(self, order, seed):
        reg = random_register(order, RandomSource(seed))
        assert abs(np.sum(reg.amplitudes**2) - 1.0) <= 1e-9


class TestChromosome:
    def test_layout_divisible(self):
        assert chromosome_layout(8, 2) == [2, 2, 2, 2]

    def test_layout_ragged_tail(self):
        assert chromosome_layout(5, 2) == [2, 2, 1]
        assert chromosome_layout(7, 3) == [3, 3, 1]
        assert chromosome_layout(2, 3) == [2]

    def test_uniform_chromosome(self):
        chrom = chromosome_uniform(6, 2)
        assert chrom.length == 6
        assert chrom.layout == [2, 2, 2]

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            QuantumChromosome(4, (register_uniform(1), register_uniform(3)))

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            QuantumChromosome(5, (register_uniform(2), register_uniform(2)))


class TestObservation:
    def test_basis_state_deterministic(self):
        reg = register_basis(2, 0)
        rng = RandomSource(123)
        assert all(observe_register(reg, rng) == 0 for _ in range(20))

    def test_cumulative_scan_hand_trace(self):
        # Thresholds for the uniform register are 0.25, 0.5, 0.75:
        # a draw of 0.3 lands in the second branch.
        reg = register_uniform(2)
        assert observe_register(reg, FixedDraws([0.3])) == 1
        assert observe_register(reg, FixedDraws([0.2])) == 0
        assert observe_register(reg, FixedDraws([0.74])) == 2
        assert observe_register(reg, FixedDraws([0.76])) == 3

    def test_final_branch_is_catch_all(self):
        # A draw at or past the last threshold still yields the last outcome.
        reg = register_uniform(2)
        assert observe_register(reg, FixedDraws([1.0])) == 3

    def test_uniform_frequencies(self):
        reg = register_uniform(2)
        outcomes = observe_register_many(reg, 10_000, RandomSource(11))
        freqs = np.bincount(outcomes, minlength=4) / 10_000
        assert np.all(freqs >= 0.225) and np.all(freqs <= 0.275)

    def test_many_matches_sequential(self):
        reg = random_register(3, RandomSource(5))
        batch = observe_register_many(reg, 64, RandomSource(99))
        rng = RandomSource(99)
        single = [observe_register(reg, rng) for _ in range(64)]
        assert np.array_equal(batch, single)

    def test_chi_square_observation_law(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        reg = random_register(3, RandomSource(17))
        n = 50_000
        outcomes = observe_register_many(reg, n, RandomSource(29))
        observed = np.bincount(outcomes, minlength=8)
        _, p = scipy_stats.chisquare(observed, f_exp=n * reg.probabilities)
        assert p >= 0.001

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30)
    def test_outcomes_in_range(self, seed, order):
        reg = random_register(order, RandomSource(seed))
        outcomes = observe_register_many(reg, 32, RandomSource(seed + 1))
        assert np.all(outcomes >= 0) and np.all(outcomes < 2**order)


class TestChromosomeObservation:
    def test_basis_chromosome(self):
        chrom = QuantumChromosome(4, (register_basis(2, 0), register_basis(2, 0)))
        bits = observe_chromosome(chrom, RandomSource(0))
        assert bits_to_string(bits) == "0000"

    def test_big_endian_groups(self):
        chrom = QuantumChromosome(4, (register_basis(2, 2), register_basis(2, 3)))
        bits = observe_chromosome(chrom, RandomSource(0))
        assert bits_to_string(bits) == "1011"

    def test_ragged_tail_observation(self):
        chrom = QuantumChromosome(3, (register_basis(2, 2), register_basis(1, 1)))
        assert bits_to_string(observe_chromosome(chrom, RandomSource(4))) == "101"

    def test_uniform_bitstring_frequencies(self):
        chrom = chromosome_uniform(4, 2)
        rng = RandomSource(37)
        counts = np.zeros(16)
        for _ in range(10_000):
            counts[bits_to_group(observe_chromosome(chrom, rng))] += 1
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 0.0625) <= 0.008)

    def test_matches_per_register_observation(self):
        # One batched draw per chromosome consumes the stream exactly like
        # observing each register in turn.
        chrom = QuantumChromosome(
            5,
            (
                random_register(2, RandomSource(1)),
                random_register(2, RandomSource(2)),
                random_register(1, RandomSource(3)),
            ),
        )
        via_chromosome = observe_chromosome(chrom, RandomSource(55))
        rng = RandomSource(55)
        via_registers = np.concatenate(
            [group_to_bits(observe_register(reg, rng), reg.order) for reg in chrom.registers]
        )
        assert np.array_equal(via_chromosome, via_registers)

    def test_seed_determinism(self):
        chrom = chromosome_uniform(12, 2)
        first = observe_chromosome(chrom, RandomSource(42))
        second = observe_chromosome(chrom, RandomSource(42))
        assert np.array_equal(first, second)


class TestBitHelpers:
    def test_group_to_bits_big_endian(self):
        assert bits_to_string(group_to_bits(2, 2)) == "10"
        assert bits_to_string(group_to_bits(5, 3)) == "101"

    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_group_bits_round_trip(self, order, data):
        value = data.draw(st.integers(min_value=0, max_value=2**order - 1))
        assert bits_to_group(group_to_bits(value, order)) == value

    def test_string_round_trip(self):
        assert bits_to_string(bits_from_string("10011")) == "10011"

    @pytest.mark.parametrize("bits", [
        np.array([1, 0, 1, 1], dtype=bool), np.array([0, 1, 1, 0, 0], dtype=np.uint8),
        np.array([3, 0, -2, 1], dtype=np.int64), [True, False, True], [0, 2, 0, 7],
        np.array([255, 0, 128], dtype=np.uint8), np.array([], dtype=np.uint8),
    ], ids=["bool", "uint8", "int64", "bool-list", "int-list", "above-1", "empty"])
    def test_string_matches_the_per_bit_join(self, bits):
        assert bits_to_string(bits) == "".join("1" if b else "0" for b in bits)

    def test_bits_from_string_rejects_junk(self):
        with pytest.raises(ValueError):
            bits_from_string("10x1")
        with pytest.raises(ValueError):
            bits_from_string("")


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(9), RandomSource(9)
        assert a.uniforms(16) == pytest.approx(b.uniforms(16), abs=0)

    def test_batch_equals_scalar_draws(self):
        a, b = RandomSource(13), RandomSource(13)
        assert np.array_equal(a.uniforms(8), [b.uniform() for _ in range(8)])

    @pytest.mark.parametrize("seed, message", [
        (2.7, "seed must be an integer, got 2.7"),
        (True, "seed must be an integer, got True"),
        ("5", "seed must be an integer, got '5'"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_a_seed_that_is_not_a_nonnegative_int(self, seed, message):
        with pytest.raises(ValueError) as raised:
            RandomSource(seed)
        assert str(raised.value) == message
