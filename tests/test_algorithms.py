"""Contraction operator, evolvers, budget and determinism tests."""

import dataclasses
import logging
import math
import re
import typing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoqiga.algorithms import (
    BATCH_ROWS,
    Qiga1Config,
    _BestTracker,
    _PackedRegisters,
    _clamp_poles,
    _lockstep,
    QigaConfig,
    SgaConfig,
    contraction_update,
    default_rotation_table,
    qiga1_evolve,
    qiga1_lockstep,
    qiga_evolve,
    qiga_lockstep,
    sga_evolve,
    sga_lockstep,
    single_point_crossover,
    update_quantum_population,
)
from hoqiga.core import (
    MAX_ORDER,
    QuantumChromosome,
    QuantumRegister,
    RandomSource,
    bits_from_string,
    bits_to_string,
    chromosome_uniform,
    observe_chromosome,
    register_basis,
    register_uniform,
)
from hoqiga.problems import FitnessFunction, load_problem, onemax, pair_trap


class ConstantProblem(FitnessFunction):
    def __init__(self, size, value=1.0):
        super().__init__(size=size, name="constant")
        self.value = value

    def __call__(self, bits):
        return self.value


class NegatedOneMax(FitnessFunction):
    def __init__(self, size):
        super().__init__(size=size, name="negated")

    def __call__(self, bits):
        return -float(np.count_nonzero(bits))

    def batch(self, bits2d):
        return -np.count_nonzero(bits2d, axis=1).astype(float)


class ConstantBatchProblem(FitnessFunction):
    """Scores every row the same, e.g. NaN or -inf, through batch."""

    def __init__(self, size, value):
        super().__init__(size=size, name="constant-batch")
        self.value = value

    def batch(self, bits):
        return np.full(np.shape(bits)[:-1], self.value)


class CyclingBatchProblem(FitnessFunction):
    """Scores the rows of each batch by cycling through fixed values."""

    def __init__(self, size, values):
        super().__init__(size=size, name="cycling-batch")
        self.values = np.asarray(values, dtype=np.float64)

    def batch(self, bits):
        return np.resize(self.values, np.shape(bits)[:-1])


class RecordingProblem(FitnessFunction):
    """Wraps another problem and logs every evaluated bitstring."""

    def __init__(self, inner):
        super().__init__(size=inner.size, name=f"recorded-{inner.name}")
        self.inner = inner
        self.calls = []

    def __call__(self, bits):
        self.calls.append(np.array(bits))
        return self.inner(bits)


class CallCountingProblem(FitnessFunction):
    """Wraps a problem that defines batch; counts scalar calls and logs each batch shape."""

    def __init__(self, inner):
        super().__init__(size=inner.size, name=f"counted-{inner.name}")
        self.inner = inner
        self.scalar_calls = 0
        self.batch_shapes = []

    def __call__(self, bits):
        self.scalar_calls += 1
        return super().__call__(bits)  # float(self.batch(bits)) on the one row

    def batch(self, bits):
        self.batch_shapes.append(np.shape(bits))
        return self.inner.batch(bits)


class TestContractionUpdate:
    def test_uniform_register_hand_trace(self):
        updated = contraction_update(register_uniform(2), 2, 0.99)
        # Non-best entries scale to 0.495; the best becomes
        # sqrt(1 - 3 * 0.495**2) = sqrt(0.264925) = 0.51470865545471449746...
        # (value cross-checked with exact decimal arithmetic).
        expected = [0.495, 0.495, 0.5147086554547146, 0.495]
        assert updated.amplitudes == pytest.approx(expected, abs=1e-12)

    def test_absorbing_basis_state(self):
        reg = register_basis(2, 2)
        updated = contraction_update(reg, 2, 0.99)
        assert np.array_equal(updated.amplitudes, reg.amplitudes)

    def test_mu_one_fixed_point(self):
        reg = QuantumRegister(2, np.array([0.5, -0.5, 0.5, 0.5]))
        updated = contraction_update(reg, 1, 1.0)
        # Non-best entries untouched; the best entry becomes its magnitude.
        assert updated.amplitudes == pytest.approx([0.5, 0.5, 0.5, 0.5], abs=1e-15)

    def test_best_amplitude_never_decreases(self):
        rng = RandomSource(3)
        reg = register_uniform(3)
        for _ in range(50):
            best = int(rng.gen.integers(0, 8))
            updated = contraction_update(reg, best, 0.9)
            assert updated.amplitudes[best] >= reg.amplitudes[best] - 1e-15
            reg = updated

    def test_normalization_after_many_updates(self):
        rng = RandomSource(9)
        reg = register_uniform(2)
        for _ in range(10_000):
            reg = contraction_update(reg, int(rng.gen.integers(0, 4)), 0.997)
        assert abs(float(np.sum(reg.amplitudes**2)) - 1.0) <= 1e-12

    def test_closed_form_after_t_updates(self):
        reg = register_uniform(2)
        mu, t = 0.99, 100
        for _ in range(t):
            reg = contraction_update(reg, 2, mu)
        non_best = np.delete(reg.amplitudes, 2)
        assert non_best == pytest.approx([0.5 * mu**t] * 3, abs=1e-12)
        expected_best = math.sqrt(1 - 3 * (0.5 * mu**t) ** 2)
        assert reg.amplitudes[2] == pytest.approx(expected_best, abs=1e-12)

    @given(st.integers(min_value=1, max_value=4), st.sampled_from([0.5, 0.95, 0.9918, 0.999]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_is_elitist_pbil_in_probability_space(self, order, mu, seed):
        # p' = mu**2 * p + (1 - mu**2) * onehot(best): PBIL (Baluja, CMU-CS-94-163, 1994)
        # toward the best value with learning rate 1 - mu**2, from a random register, over
        # 600 steps whose best changes every 50.  Measured: at most 2.5 ulps of 1.0.
        draws = np.random.default_rng(seed)
        amplitudes = draws.normal(size=2**order)
        reg = QuantumRegister(order, amplitudes / np.sqrt(np.sum(amplitudes**2)))
        for step in range(600):
            if step % 50 == 0:
                best = int(draws.integers(2**order))
            pbil = mu**2 * reg.probabilities + (1 - mu**2) * (np.arange(2**order) == best)
            reg = contraction_update(reg, best, mu)
            assert np.abs(reg.probabilities - pbil).max() <= 8 * np.finfo(np.float64).eps

    def test_rejects_bad_best_group(self):
        with pytest.raises(ValueError):
            contraction_update(register_uniform(2), 4, 0.99)

    @pytest.mark.parametrize("mu", [0.0, -0.5, 1.01])
    def test_rejects_bad_mu(self, mu):
        with pytest.raises(ValueError):
            contraction_update(register_uniform(2), 0, mu)


class TestUpdateQuantumPopulation:
    def test_single_register_composition(self):
        chrom = chromosome_uniform(2, 2)
        updated = update_quantum_population([chrom], bits_from_string("10"), 0.99)
        expected = contraction_update(register_uniform(2), 2, 0.99)
        assert np.array_equal(updated[0].registers[0].amplitudes, expected.amplitudes)

    def test_identical_chromosomes_stay_identical(self):
        population = [chromosome_uniform(4, 2) for _ in range(3)]
        updated = update_quantum_population(population, bits_from_string("1001"), 0.95)
        first = updated[0]
        for chrom in updated[1:]:
            for a, b in zip(first.registers, chrom.registers):
                assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_geometric_closed_form(self):
        population = [chromosome_uniform(4, 2)]
        b = bits_from_string("0111")
        mu, t = 0.97, 40
        for _ in range(t):
            population = update_quantum_population(population, b, mu)
        for reg, group in zip(population[0].registers, (1, 3)):
            non_best = np.delete(reg.amplitudes, group)
            assert non_best == pytest.approx([0.5 * mu**t] * 3, abs=1e-12)

    def test_ragged_tail_partition(self):
        population = [chromosome_uniform(5, 2)]
        updated = update_quantum_population(population, bits_from_string("10111"), 0.9)
        tail = updated[0].registers[-1]
        assert tail.order == 1
        # Tail register contracted toward bit value 1.
        assert tail.amplitudes[1] > tail.amplitudes[0]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            update_quantum_population([chromosome_uniform(4, 2)], bits_from_string("101"), 0.9)


class FixedDraws:
    """A random source whose uniforms are given values, consumed in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def uniforms(self, n):
        drawn, self.values = self.values[:n], self.values[n:]
        return drawn


def reference_qiga_evolve(problem, config, rng):
    """Plain composition of the public per-register operations."""
    population = [
        chromosome_uniform(problem.size, config.order)
        for _ in range(config.quantum_population_size)
    ]
    best_bits, best_fitness = None, -math.inf
    trajectory = []
    while len(trajectory) < config.max_fitness_evaluations:
        for chromosome in population:
            if len(trajectory) >= config.max_fitness_evaluations:
                break
            bits = observe_chromosome(chromosome, rng)
            fitness = problem(bits)
            if fitness > best_fitness:
                best_fitness, best_bits = fitness, bits.copy()
            trajectory.append(best_fitness)
        if len(trajectory) >= config.max_fitness_evaluations:
            break
        population = update_quantum_population(
            population, best_bits, config.contraction_factor
        )
    return best_bits, best_fitness, np.array(trajectory)


class TestQigaEvolve:
    def test_matches_public_operation_composition(self):
        # The packed fast path must be float-identical to composing
        # observe_chromosome and update_quantum_population.
        cases = [
            (onemax(5), QigaConfig(order=2, quantum_population_size=4, max_fitness_evaluations=200)),
            (pair_trap(3), QigaConfig(order=2, quantum_population_size=4, max_fitness_evaluations=200)),
            (onemax(7), QigaConfig(order=3, quantum_population_size=4, max_fitness_evaluations=200)),
            (onemax(6), QigaConfig(order=2, quantum_population_size=6, max_fitness_evaluations=100)),
            # 203 leaves a ragged final generation of 3 samples from individuals 0 to 2.
            (pair_trap(4), QigaConfig(order=3, quantum_population_size=8,
                                      max_fitness_evaluations=203)),
            # Order 1, and orders 4 and 5 ending on a 2-bit register: shapes where padding
            # a register with zeros would change its sums.
            (onemax(5), QigaConfig(order=1, quantum_population_size=4, max_fitness_evaluations=200)),
            (onemax(10), QigaConfig(order=4, quantum_population_size=4, max_fitness_evaluations=200)),
            (onemax(12), QigaConfig(order=5, quantum_population_size=4, max_fitness_evaluations=200)),
        ]
        for problem, config in cases:
            result = qiga_evolve(problem, config, RandomSource(31))
            ref_bits, ref_fitness, ref_trajectory = reference_qiga_evolve(
                problem, config, RandomSource(31)
            )
            assert result.best_fitness == ref_fitness
            assert np.array_equal(result.best_bits, ref_bits)
            assert np.array_equal(result.trajectory, ref_trajectory)

    def test_onemax_success_rate(self):
        # Regression bound measured over seeds 0..99 and frozen.
        problem = onemax(8)
        config = QigaConfig()
        hits = sum(
            qiga_evolve(problem, config, RandomSource(seed)).best_fitness == 8.0
            for seed in range(100)
        )
        assert hits >= 95

    def test_constant_fitness_keeps_first_individual(self):
        problem = RecordingProblem(ConstantProblem(6))
        config = QigaConfig(quantum_population_size=5, max_fitness_evaluations=100)
        result = qiga_evolve(problem, config, RandomSource(2))
        assert np.array_equal(result.best_bits, problem.calls[0])
        assert np.all(result.trajectory == result.trajectory[0])

    @pytest.mark.parametrize("n, order", [(250, 1), (250, 2), (251, 2), (24, 6), (26, 6), (12, 8)])
    def test_packed_observe_matches_observe_chromosome(self, n, order):
        # Many short registers (orders 1 and 2) and few long ones (orders 6 and 8); 251
        # and 26 genes add a short final register, whose unused thresholds are +inf.
        runs, k = 3, 7
        packed = _PackedRegisters(n, order, runs)
        draws = np.random.default_rng(n + order)
        for mu in (0.8, 0.6, 0.9):  # contract toward varied bests: uneven, non-uniform registers
            packed.contract(draws.integers(0, 2, size=(runs, n), dtype=np.uint8), mu)
        chromosomes = [
            QuantumChromosome(n, tuple(QuantumRegister(len(shifts), amps)
                                       for shifts, amplitudes in packed.blocks
                                       for amps in amplitudes[s]))
            for s in range(runs)
        ]
        assert any(len(set(np.round(r.probabilities, 12))) > 1 for r in chromosomes[0].registers)
        samples = packed.observe(k, [RandomSource(s) for s in range(runs)])
        assert samples.shape == (runs, k, n) and samples.dtype == np.uint8
        for s, chromosome in enumerate(chromosomes):
            rng = RandomSource(s)
            expected = [observe_chromosome(chromosome, rng) for _ in range(k)]
            assert samples[s].tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n, order", [(250, 2), (24, 6), (26, 4)],
                             ids=["order-2", "order-6", "order-4-short-register"])
    def test_packed_observe_counts_a_draw_equal_to_a_threshold(self, n, order):
        # Uniform registers have the exact thresholds j / 2**order, and a draw equal to
        # one of them counts it, as searchsorted(side="right") does in observe_chromosome.
        # 26 genes end on an order-2 register, whose thresholds j / 4 the draws also hit.
        dim, k = 2**order, 3
        draws = (np.arange(k * -(-n // order)) % dim) / dim
        samples = _PackedRegisters(n, order).observe(k, [FixedDraws(draws)])
        source, chromosome = FixedDraws(draws), chromosome_uniform(n, order)
        expected = [observe_chromosome(chromosome, source) for _ in range(k)]
        assert samples[0].tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("t", [1, 10, 100, 300])
    def test_packed_contraction_closed_form(self, t):
        # From uniform, t contractions toward a fixed best b = (1, 0) scale every
        # non-best probability by mu**(2t).  With q = mu**(2t) / 2, a pair of order-1
        # registers comes out with exactly its first bit wrong with probability q(1 - q),
        # and one order-2 register gives (not b1, b2) = 0b00 with probability q / 2; the
        # ratio 1 / (2(1 - q)) of that single-bit repair tends to 1/2 (README).
        mu, best = 0.9918, np.array([[1, 0]], dtype=np.uint8)
        q = mu ** (2 * t) / 2
        bit_pair, group = _PackedRegisters(2, 1), _PackedRegisters(2, 2)
        for _ in range(t):
            bit_pair.contract(best, mu)
            group.contract(best, mu)
        [(_, bits)], [(_, groups)] = bit_pair.blocks, group.blocks  # (runs, registers, values)
        assert abs(bits[0, 0, 0] ** 2 * bits[0, 1, 0] ** 2 - q * (1 - q)) <= 1e-15
        assert abs(groups[0, 0, 0b00] ** 2 - q / 2) <= 1e-15

    def test_scalar_only_problem_sees_samples_in_order(self):
        # A __call__-only problem is scored one row per sample, in the order
        # the samples were drawn.
        config = QigaConfig(order=2, quantum_population_size=8, max_fitness_evaluations=203)
        problem = RecordingProblem(pair_trap(4))
        result = qiga_evolve(problem, config, RandomSource(12))
        reference = RecordingProblem(pair_trap(4))
        reference_qiga_evolve(reference, config, RandomSource(12))
        assert len(problem.calls) == 203
        assert np.array_equal(np.array(problem.calls), np.array(reference.calls))
        fitness = [problem.inner(bits) for bits in problem.calls]
        assert np.array_equal(result.best_bits, problem.calls[int(np.argmax(fitness))])

    def test_best_sampling_probability_increases(self):
        # Contracting toward a fixed best strictly grows its amplitude until
        # saturation, so the chance of observing it grows every generation.
        reg = register_uniform(2)
        previous = reg.probabilities[2]
        for _ in range(200):
            reg = contraction_update(reg, 2, 0.99)
            current = reg.probabilities[2]
            assert current > previous or current == pytest.approx(1.0, abs=1e-12)
            previous = current

    def test_budget_and_generations(self):
        config = QigaConfig(quantum_population_size=7, max_fitness_evaluations=100)
        result = qiga_evolve(onemax(6), config, RandomSource(0))
        assert result.evaluations == 100
        assert len(result.trajectory) == 100
        assert result.generations == math.ceil(100 / 7)

    def test_trajectory_nondecreasing(self):
        result = qiga_evolve(pair_trap(4), QigaConfig(max_fitness_evaluations=500), RandomSource(8))
        assert np.all(np.diff(result.trajectory) >= 0)

    def test_seed_determinism(self):
        config = QigaConfig(max_fitness_evaluations=400)
        a = qiga_evolve(pair_trap(5), config, RandomSource(77))
        b = qiga_evolve(pair_trap(5), config, RandomSource(77))
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_bits, b.best_bits)
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_order_must_fit_problem(self):
        with pytest.raises(ValueError, match="order"):
            qiga_evolve(onemax(2), QigaConfig(order=3, max_fitness_evaluations=50), RandomSource(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QigaConfig(contraction_factor=1.0)
        with pytest.raises(ValueError):
            QigaConfig(contraction_factor=0.0)
        with pytest.raises(ValueError):
            QigaConfig(quantum_population_size=0)
        with pytest.raises(ValueError):
            QigaConfig(max_fitness_evaluations=5)


def reference_qiga1_evolve(problem, config, rng):
    """The rotation-gate baseline one individual at a time."""
    n, pop = problem.size, config.quantum_population_size
    table = np.reshape(config.rotation_table, (2, 2, 2))  # [x, b, comparison]
    state = np.full((pop, n, 2), math.sqrt(0.5))
    best_bits, best_fitness = None, -math.inf
    trajectory = []
    while len(trajectory) < config.max_fitness_evaluations:
        observed = []
        for i in range(pop):
            if len(trajectory) >= config.max_fitness_evaluations:
                break
            bits = (rng.uniforms(n) >= state[i, :, 0] ** 2).astype(np.uint8)
            fitness = problem(bits)
            if fitness > best_fitness:
                best_fitness, best_bits = fitness, bits.copy()
            trajectory.append(best_fitness)
            observed.append((i, bits, fitness))
        if len(trajectory) >= config.max_fitness_evaluations:
            break
        for i, bits, fitness in observed:
            delta = table[bits, best_bits, int(fitness >= best_fitness)]
            cos_d, sin_d = np.cos(delta), np.sin(delta)
            alpha = state[i, :, 0].copy()
            beta = state[i, :, 1].copy()
            state[i, :, 0] = cos_d * alpha - sin_d * beta
            state[i, :, 1] = sin_d * alpha + cos_d * beta
        if config.epsilon_guard > 0.0:
            _clamp_poles(state, config.epsilon_guard)
    return best_bits, best_fitness, np.array(trajectory)


class TestQiga1Evolve:
    def test_matches_per_individual_loop(self):
        steep = tuple(8 * v for v in default_rotation_table())
        cases = [
            (onemax(9), Qiga1Config(max_fitness_evaluations=300)),
            (pair_trap(5), Qiga1Config(quantum_population_size=7, max_fitness_evaluations=200)),
            (onemax(12), Qiga1Config(rotation_table=steep, epsilon_guard=0.0,
                                     quantum_population_size=6, max_fitness_evaluations=250)),
            (pair_trap(3), Qiga1Config(rotation_table=DISTINCT_TABLE, quantum_population_size=4,
                                       max_fitness_evaluations=203)),
        ]
        for problem, config in cases:
            for seed in (0, 7, 31):
                result = qiga1_evolve(problem, config, RandomSource(seed))
                ref_bits, ref_fitness, ref_trajectory = reference_qiga1_evolve(
                    problem, config, RandomSource(seed)
                )
                assert result.best_fitness == ref_fitness
                assert np.array_equal(result.best_bits, ref_bits)
                assert result.trajectory.tobytes() == ref_trajectory.tobytes()

    def test_scalar_only_problem_sees_samples_in_order(self):
        config = Qiga1Config(quantum_population_size=6, max_fitness_evaluations=203)
        problem = RecordingProblem(pair_trap(4))
        result = qiga1_evolve(problem, config, RandomSource(4))
        reference = RecordingProblem(pair_trap(4))
        reference_qiga1_evolve(reference, config, RandomSource(4))
        assert len(problem.calls) == 203
        assert np.array_equal(np.array(problem.calls), np.array(reference.calls))
        fitness = [problem.inner(bits) for bits in problem.calls]
        assert np.array_equal(result.best_bits, problem.calls[int(np.argmax(fitness))])

    def test_rotation_preserves_norm(self):
        config = Qiga1Config(max_fitness_evaluations=300)
        # Indirect check: a long run ends without tripping any normalization
        # guard, and the evolver stays deterministic.
        result = qiga1_evolve(onemax(10), config, RandomSource(5))
        assert result.evaluations == 300

    def test_rotation_matrix_direct(self):
        # One rotation step: [cos -sin; sin cos] applied to [1/sqrt2, 1/sqrt2].
        delta = 0.01 * math.pi
        alpha = beta = math.sqrt(0.5)
        expected = (
            math.cos(delta) * alpha - math.sin(delta) * beta,
            math.sin(delta) * alpha + math.cos(delta) * beta,
        )
        assert expected[0] ** 2 + expected[1] ** 2 == pytest.approx(1.0, abs=1e-12)
        # Positive angles move mass toward bit value 1.
        assert expected[1] > beta

    def test_pole_guard_by_hand(self):
        # With eps = 0.1 an amplitude below 0.1 in magnitude becomes +-0.1 and its
        # partner +-sqrt(1 - 0.1 * 0.1) = +-0.99499, each keeping its own sign.
        eps = 0.1
        big = math.sqrt(1.0 - eps * eps)
        cases = [
            ((0.05, 0.9987), (eps, big)),  # alpha below eps
            ((-0.05, -0.9987), (-eps, -big)),  # alpha below eps, both negative
            ((-0.0, 1.0), (-eps, big)),  # -0.0 clamps to -eps
            ((0.9987, 0.05), (big, eps)),  # beta below eps
            ((-0.9987, -0.0), (-big, -eps)),  # beta -0.0, alpha negative
            ((0.01, -0.02), (eps, -big)),  # both below: alpha is clamped first, lifting beta
            ((0.1, 0.3), (0.1, 0.3)),  # exactly at the guard: left alone
            ((0.6, -0.8), (0.6, -0.8)),  # far from the poles
        ]
        state = np.array([before for before, _ in cases]).reshape(2, 4, 2)
        _clamp_poles(state, eps)
        assert state.reshape(-1, 2).tolist() == [list(after) for _, after in cases]
        # eps = 0 touches nothing, not even the sign of a zero.
        poles = np.array([[0.0, 1.0], [-0.0, -1.0], [1e-300, -1.0], [1.0, -0.0]])
        clamped = poles.copy()
        _clamp_poles(clamped, 0.0)
        assert clamped.tobytes() == poles.tobytes()

    def test_zero_table_equals_random_sampling(self):
        config = Qiga1Config(rotation_table=(0.0,) * 8, quantum_population_size=5,
                             max_fitness_evaluations=200)
        problem = onemax(9)
        result = qiga1_evolve(problem, config, RandomSource(21))
        # With no rotation the quantum state never moves, so the run is pure
        # repeated sampling at the uniform threshold.
        rng = RandomSource(21)
        threshold = math.sqrt(0.5) ** 2
        best = max(
            problem((rng.uniforms(9) >= threshold).astype(np.uint8)) for _ in range(200)
        )
        assert result.best_fitness == best

    def test_onemax_success_rate(self):
        # Regression bound measured over seeds 0..99 and frozen.
        problem = onemax(8)
        config = Qiga1Config()
        hits = sum(
            qiga1_evolve(problem, config, RandomSource(seed)).best_fitness == 8.0
            for seed in range(100)
        )
        assert hits >= 80

    def test_seed_determinism(self):
        config = Qiga1Config(max_fitness_evaluations=300)
        a = qiga1_evolve(pair_trap(4), config, RandomSource(13))
        b = qiga1_evolve(pair_trap(4), config, RandomSource(13))
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_budget_parity(self):
        config = Qiga1Config(max_fitness_evaluations=250)
        result = qiga1_evolve(onemax(6), config, RandomSource(1))
        assert result.evaluations == 250
        assert len(result.trajectory) == 250

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^rotation table must hold 8 angles, got 1$"):
            Qiga1Config(rotation_table=(0.0,))
        with pytest.raises(ValueError, match="^rotation table must hold 8 angles, got 9$"):
            Qiga1Config(rotation_table=(0.0,) * 9)
        with pytest.raises(ValueError, match="pi/2"):
            Qiga1Config(rotation_table=(0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        # A mapping, the table's old form, yields its keys as angles.
        old_form = {(x, b, c): 0.0 for x in (0, 1) for b in (0, 1) for c in (False, True)}
        with pytest.raises(ValueError, match=re.escape("rotation angle must be a finite real "
                                                       "number, got (0, 0, False)")):
            Qiga1Config(rotation_table=old_form)
        with pytest.raises(ValueError, match="epsilon"):
            Qiga1Config(epsilon_guard=0.3)

    def test_default_table_by_hand(self):
        # Entry 4x + 2b + c: only a worse individual whose bit x differs from the best's b
        # moves, toward b; index 2 is (x=0, b=1, worse), index 4 is (x=1, b=0, worse).
        a = 0.3
        assert default_rotation_table(a) == (0.0, 0.0, a, 0.0, -a, 0.0, 0.0, 0.0)
        assert Qiga1Config().rotation_table == default_rotation_table()
        assert all(type(angle) is float for angle in Qiga1Config().rotation_table)

    def test_table_survives_replace(self):
        config = dataclasses.replace(Qiga1Config(rotation_table=DISTINCT_TABLE), epsilon_guard=0.0)
        assert config.rotation_table == DISTINCT_TABLE
        assert Qiga1Config(rotation_table=list(DISTINCT_TABLE)).rotation_table == DISTINCT_TABLE


def reference_sga_evolve(problem, config, rng):
    """sga_evolve with one crossover pass per pair: the bitwise reference for the fast path."""
    n = problem.size
    pop_size = config.population_size
    tracker = _BestTracker(config.max_fitness_evaluations, 1)
    population = rng.gen.integers(0, 2, size=(pop_size, n), dtype=np.uint8)
    while tracker.remaining:
        fitnesses = problem.batch(population)
        k = min(pop_size, tracker.remaining)
        tracker.record(population[None, :k], fitnesses[None, :k])
        if not tracker.remaining:
            break
        selection = fitnesses.astype(np.float64, copy=True)
        low = selection.min()
        if low < 0:
            selection += -low + 1.0
        total = selection.sum()
        probabilities = selection / total if total > 0 else np.full(pop_size, 1.0 / pop_size)
        parents = population[rng.gen.choice(pop_size, size=pop_size, p=probabilities)]
        children = parents.copy()
        if n >= 2:
            pairs = pop_size // 2
            crossed = rng.gen.random(pairs) < config.crossover_probability
            cuts = rng.gen.integers(1, n, size=pairs)
            for k in np.flatnonzero(crossed):
                cut = cuts[k]
                children[2 * k, cut:] = parents[2 * k + 1, cut:]
                children[2 * k + 1, cut:] = parents[2 * k, cut:]
        flips = rng.gen.random((pop_size, n)) < config.mutation_probability
        children ^= flips.astype(np.uint8)
        population = children
    return tracker.results()[0]


class TestSgaEvolve:
    def test_crossover_example(self):
        a, b = single_point_crossover(
            bits_from_string("00000000"), bits_from_string("11111111"), 3
        )
        assert bits_to_string(a) == "00011111"
        assert bits_to_string(b) == "11100000"

    def test_crossover_rejects_bad_cut(self):
        with pytest.raises(ValueError):
            single_point_crossover(bits_from_string("0000"), bits_from_string("1111"), 0)
        with pytest.raises(ValueError):
            single_point_crossover(bits_from_string("0000"), bits_from_string("1111"), 4)

    def test_crossover_stacked_rows_cut_at_their_own_cut(self):
        draws = np.random.default_rng(3)
        a = draws.integers(0, 2, size=(6, 9), dtype=np.uint8)
        b = draws.integers(0, 2, size=(6, 9), dtype=np.uint8)
        cuts = np.array([1, 8, 4, 4, 2, 7])
        child_a, child_b = single_point_crossover(a, b, cuts)
        assert child_a.dtype == np.uint8 and child_a.shape == (6, 9)
        for row, cut in enumerate(cuts):
            assert np.array_equal(child_a[row], np.concatenate([a[row, :cut], b[row, cut:]]))
            assert np.array_equal(child_b[row], np.concatenate([b[row, :cut], a[row, cut:]]))

    def test_crossover_rejects_any_bad_cut_in_a_stack(self):
        zeros, ones = np.zeros((2, 4), dtype=np.uint8), np.ones((2, 4), dtype=np.uint8)
        for bad in (0, 4):
            with pytest.raises(ValueError, match="cut must be in"):
                single_point_crossover(zeros, ones, np.array([2, bad]))
        with pytest.raises(ValueError, match="equal length"):
            single_point_crossover(zeros, np.ones((2, 5), dtype=np.uint8), np.array([1, 1]))

    @pytest.mark.parametrize("cut", [2.5, True, np.int64(2), np.array([2.0, 1.0]),
                                     np.array([True, True])],
                             ids=["float", "bool", "numpy-int", "float-array", "bool-array"])
    def test_crossover_rejects_a_non_integer_cut_by_name(self, cut):
        zeros, ones = np.zeros((2, 4), dtype=np.uint8), np.ones((2, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="cut must be an int or an integer array"):
            single_point_crossover(zeros, ones, cut)

    @pytest.mark.parametrize(
        "source", ["onemax:48", "trap:12", "3sat:60:258:7", "onemax:2", "onemax:1"]
    )
    def test_matches_per_pair_crossover_reference(self, source):
        problem = load_problem(source)
        configs = [
            SgaConfig(population_size=20, max_fitness_evaluations=20 * 12),
            SgaConfig(population_size=10, max_fitness_evaluations=10 * 15,
                      crossover_probability=0.0),
            SgaConfig(population_size=16, max_fitness_evaluations=16 * 10,
                      crossover_probability=1.0, mutation_probability=0.01),
        ]
        for config in configs:
            for seed in range(5):
                rng, ref_rng = RandomSource(seed), RandomSource(seed)
                result = sga_evolve(problem, config, rng)
                reference = reference_sga_evolve(problem, config, ref_rng)
                assert result.best_bits.tobytes() == reference.best_bits.tobytes()
                assert result.best_fitness == reference.best_fitness
                assert result.trajectory.tobytes() == reference.trajectory.tobytes()
                assert result.generations == reference.generations
                assert rng.gen.bit_generator.state == ref_rng.gen.bit_generator.state

    def test_onemax_mean_best(self):
        # Regression bound measured over seeds 0..99 and frozen.
        problem = onemax(8)
        config = SgaConfig()
        bests = [
            sga_evolve(problem, config, RandomSource(seed)).best_fitness
            for seed in range(100)
        ]
        assert np.mean(bests) >= 7.5

    def test_no_variation_operators(self):
        # Without crossover or mutation the best never improves past the
        # initial population's best.
        config = SgaConfig(
            population_size=20,
            max_fitness_evaluations=20 * 10,
            crossover_probability=0.0,
            mutation_probability=0.0,
        )
        result = sga_evolve(onemax(12), config, RandomSource(3))
        first_generation_best = result.trajectory[19]
        assert result.best_fitness == first_generation_best
        assert np.all(np.diff(result.trajectory) >= 0)

    def test_negative_fitness_shifted_for_selection(self, caplog):
        config = SgaConfig(population_size=10, max_fitness_evaluations=10 * 5)
        with caplog.at_level(logging.WARNING, logger="hoqiga.algorithms"):
            result = sga_evolve(NegatedOneMax(6), config, RandomSource(4))
        assert "shifted for roulette" in caplog.text
        assert result.best_fitness <= 0.0
        assert result.evaluations == 50

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fitness_names_the_cause(self, value):
        config = SgaConfig(population_size=10, max_fitness_evaluations=10 * 3)
        rng = RandomSource(5)
        message = r"generation 1: non-finite fitness \(NaN, inf or -inf\)"
        with pytest.raises(ValueError, match=message):
            sga_evolve(ConstantBatchProblem(6, value), config, rng)
        # Raised before the roulette draws: only the initial population was drawn.
        expected = RandomSource(5)
        expected.gen.integers(0, 2, size=(10, 6), dtype=np.uint8)
        assert rng.gen.bit_generator.state == expected.gen.bit_generator.state

    @pytest.mark.parametrize("values", [[1e308], [-1e308, 1e308]], ids=["sum", "shift"])
    def test_overflowing_selection_weights_name_the_cause(self, values):
        config = SgaConfig(population_size=10, max_fitness_evaluations=10 * 3)
        rng = RandomSource(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning may escape
            with pytest.raises(ValueError, match="generation 1: roulette weights overflow to inf"):
                sga_evolve(CyclingBatchProblem(6, values), config, rng)
        # Raised before the roulette draws: only the initial population was drawn.
        expected = RandomSource(5)
        expected.gen.integers(0, 2, size=(10, 6), dtype=np.uint8)
        assert rng.gen.bit_generator.state == expected.gen.bit_generator.state

    def test_all_zero_fitness_uniform_fallback(self, caplog):
        config = SgaConfig(population_size=10, max_fitness_evaluations=10 * 3)
        with caplog.at_level(logging.WARNING, logger="hoqiga.algorithms"):
            result = sga_evolve(ConstantProblem(5, value=0.0), config, RandomSource(6))
        assert "uniform selection fallback" in caplog.text
        assert result.best_fitness == 0.0

    def test_budget_parity_and_determinism(self):
        config = SgaConfig(population_size=10, max_fitness_evaluations=10 * 20)
        a = sga_evolve(pair_trap(6), config, RandomSource(17))
        b = sga_evolve(pair_trap(6), config, RandomSource(17))
        assert a.evaluations == 200
        assert len(a.trajectory) == 200
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="even"):
            SgaConfig(population_size=7)
        with pytest.raises(ValueError):
            SgaConfig(crossover_probability=1.5)
        with pytest.raises(ValueError):
            SgaConfig(mutation_probability=-0.1)


class TestSeparabilityInvariant:
    def test_orders_indistinguishable_on_separable_problem(self, epistasis_runs):
        # Separable landscape: gene grouping is supposed not to matter, so the
        # mean best fitness of order-1 and order-2 contraction should be
        # statistically indistinguishable over 200 runs (two-sided, alpha=0.01).
        scipy_stats = pytest.importorskip("scipy.stats")
        order1 = epistasis_runs[("onemax48", 1)]
        order2 = epistasis_runs[("onemax48", 2)]
        p = scipy_stats.ttest_ind(order1, order2, equal_var=False).pvalue
        assert p >= 0.01, (
            f"order-1 vs order-2 mean best fitness on onemax48: "
            f"{order1.mean():.4f} vs {order2.mean():.4f}, Welch p={p:.3g}; "
            "the separability claim does not hold at these defaults "
            "(see README, Tests section, for the mechanism)"
        )


FOLD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -math.inf, math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestBestTracker:
    @given(
        # 1-4 runs, each with its own values, all cut at the same generation boundaries.
        values=st.integers(1, 60).flatmap(lambda k: st.lists(
            st.lists(FOLD_VALUES, min_size=k, max_size=k), min_size=1, max_size=4)),
        cuts=st.lists(st.integers(1, 60), max_size=60),
    )
    @example(values=[[math.nan], [1.0]], cuts=[])
    @example(values=[[-math.inf, math.nan], [0.0, -0.0]], cuts=[1])
    # In the second record, one run improves while the other holds a -0.0 best.
    @example(values=[[-0.0, -0.0, 0.0], [1.0, 0.5, 2.0]], cuts=[1])
    @example(values=[[-0.0, 5.0, 0.0], [-0.0, 0.0, math.nan]], cuts=[1])
    @settings(max_examples=200, deadline=None)
    def test_chunked_record_matches_sequential_fold(self, values, cuts):
        runs, k = len(values), len(values[0])
        tracker = _BestTracker(k, runs)
        rows = np.zeros((runs, k, 2), dtype=np.uint8)  # row i of run s holds [i, s]
        rows[..., 0], rows[..., 1] = np.arange(k), np.arange(runs)[:, None]
        start = 0
        for size in cuts + [k]:
            stop = min(start + size, k)
            if stop > start:
                tracker.record(rows[:, start:stop], np.array(values)[:, start:stop])
            start = stop
        assert tracker.count == k

        best_rows, trajectories = [], []
        for s, run_values in enumerate(values):
            best, best_row, rises, trajectory = -math.inf, None, [], []
            for row, value in enumerate(run_values):
                if value > best:
                    best, best_row = value, row
                    rises.append((row, value))
                trajectory.append(best)
            # The tracker's steps: (0, -inf), then the fold's rises, each rising strictly.
            pairs = np.array(tracker.steps[s], dtype=np.float64)
            assert pairs.tobytes() == np.array([(0, -math.inf), *rises]).tobytes()
            assert (np.diff(pairs[1:], axis=0) > 0).all()
            trajectories.append(np.array(trajectory, dtype=np.float64))
            best_rows.append(best_row)
            if best_row is not None:
                assert tracker.best_bits[s].tolist() == [best_row, s]
                assert np.float64(tracker.best_fitness[s]).tobytes() == np.float64(best).tobytes()
        if None in best_rows:  # one run without a best leaves the group without one
            with pytest.raises(ValueError, match="all NaN or -inf"):
                tracker.best
        else:
            assert tracker.best.tolist() == [[row, s] for s, row in enumerate(best_rows)]
            for result, pairs, trajectory in zip(tracker.results(), tracker.steps, trajectories):
                assert result.steps.shape == (2, len(pairs) + 1)
                assert result.steps[:, :-1].T.tobytes() == np.array(pairs).tobytes()
                end = np.array([k, result.best_fitness])
                assert result.steps[:, -1].tobytes() == end.tobytes()
                assert result.trajectory.tobytes() == trajectory.tobytes()

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    @pytest.mark.parametrize(
        "evolve, config",
        [(qiga_evolve, QigaConfig(max_fitness_evaluations=20)),
         (qiga1_evolve, Qiga1Config(max_fitness_evaluations=20))],
        ids=["qiga", "qiga1"],
    )
    def test_no_best_after_first_generation_names_the_cause(self, evolve, config, value):
        with pytest.raises(ValueError, match=r"no fitness above -inf in 10 evaluations"):
            evolve(ConstantBatchProblem(6, value), config, RandomSource(0))

    def test_result_without_best_raises(self):
        tracker = _BestTracker(2, 1)
        tracker.record(np.zeros((1, 2, 3), dtype=np.uint8), [[math.nan, -math.inf]])
        with pytest.raises(ValueError, match="all NaN or -inf"):
            tracker.results()


class TestLockstepLoop:
    def test_budget_gates_every_sample_and_update(self):
        runs, k, budget = 2, 3, 7
        sizes, updates = [], []

        def sample(rows):
            sizes.append(rows)
            return np.arange(runs * rows * 4, dtype=np.uint8).reshape(runs, rows, 4) % 2

        def update(bits, fitness, tracker):
            assert bits.shape == (runs, k, 4) and fitness.shape == (runs, k)
            updates.append(tracker.count)

        results = _lockstep(lambda rows: rows.sum(axis=1).astype(float), budget, runs, k,
                            sample, update)
        assert sizes == [3, 3, 1]  # the last generation is cut to the remaining budget
        assert updates == [3, 6]
        assert [(r.evaluations, r.generations) for r in results] == [(7, 3)] * runs
        assert [len(r.trajectory) for r in results] == [7] * runs


class TestBudgetParityAcrossEvolvers:
    def test_all_consume_same_budget(self):
        problem = onemax(10)
        budget = 600
        results = [
            qiga_evolve(problem, QigaConfig(max_fitness_evaluations=budget), RandomSource(1)),
            qiga_evolve(
                problem,
                QigaConfig(order=1, max_fitness_evaluations=budget),
                RandomSource(1),
            ),
            qiga1_evolve(problem, Qiga1Config(max_fitness_evaluations=budget), RandomSource(1)),
            sga_evolve(
                problem, SgaConfig(population_size=20, max_fitness_evaluations=20 * 30),
                RandomSource(1)
            ),
        ]
        assert [r.evaluations for r in results] == [budget] * 4
        assert all(len(r.trajectory) == budget for r in results)

    def test_empty_problem_rejected(self):
        with pytest.raises(ValueError):
            FitnessFunction(size=0)


def same_run(a, b) -> bool:
    return (a.best_bits.tobytes() == b.best_bits.tobytes() and a.best_fitness == b.best_fitness
            and a.trajectory.tobytes() == b.trajectory.tobytes()
            and (a.evaluations, a.generations) == (b.evaluations, b.generations))


class BatchSpy(FitnessFunction):
    """Forwards batch() to a problem and records the shape of every call."""

    def __init__(self, inner):
        super().__init__(size=inner.size, name=f"spied-{inner.name}")
        self.inner = inner
        self.shapes = []

    def batch(self, bits):
        self.shapes.append(np.shape(bits))
        return self.inner.batch(bits)


class TestQigaLockstep:
    @given(
        runs=st.integers(1, 6),
        order=st.integers(1, 4),
        extra=st.integers(0, 9),
        kind=st.sampled_from(["onemax", "trap", "3sat"]),
        pop=st.integers(1, 12),
        budget=st.sampled_from([12, 50, 203]),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_run_matches_its_own_qiga_evolve(self, runs, order, extra, kind, pop, budget,
                                                  seed):
        # n = order + extra covers n below, at and between multiples of the order.
        n = max(order + extra, 3)
        source = {"onemax": f"onemax:{n}", "trap": f"trap:{(n + 1) // 2}",
                  "3sat": f"3sat:{n}:{4 * n}:{seed}"}[kind]
        problem = load_problem(source)
        config = QigaConfig(order=order, quantum_population_size=pop,
                            max_fitness_evaluations=budget)
        seeds = range(seed, seed + runs)
        results = qiga_lockstep(problem, config, [RandomSource(s) for s in seeds])
        assert len(results) == runs
        for s, result in zip(seeds, results):
            assert same_run(result, qiga_evolve(problem, config, RandomSource(s)))


DISTINCT_TABLE = tuple(0.01 * (1 + x + 2 * b + 4 * c)
                       for x in (0, 1) for b in (0, 1) for c in (0, 1))  # entry 4x + 2b + c


class TestQiga1Lockstep:
    @given(
        runs=st.integers(1, 6),
        pop=st.integers(1, 7),
        n=st.integers(1, 12),
        kind=st.sampled_from(["onemax", "3sat"]),
        budget=st.sampled_from(["one", "short", 50, 203]),
        guard=st.sampled_from([0.0, Qiga1Config().epsilon_guard]),
        distinct=st.booleans(),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_run_matches_its_own_qiga1_evolve_and_the_reference(
        self, runs, pop, n, kind, budget, guard, distinct, seed
    ):
        # "short" is one full generation plus a ragged one: shorter than two generations.
        problem = load_problem(f"onemax:{n}" if kind == "onemax" else f"3sat:{max(n, 3)}:12:{seed}")
        budget = {"one": pop, "short": 2 * pop - 1}.get(budget, budget)
        table = DISTINCT_TABLE if distinct else default_rotation_table()
        config = Qiga1Config(rotation_table=table, epsilon_guard=guard,
                             quantum_population_size=pop, max_fitness_evaluations=budget)
        seeds = range(seed, seed + runs)
        results = qiga1_lockstep(problem, config, [RandomSource(s) for s in seeds])
        assert len(results) == runs
        for s, result in zip(seeds, results):
            assert same_run(result, qiga1_evolve(problem, config, RandomSource(s)))
            ref_bits, ref_fitness, ref_trajectory = reference_qiga1_evolve(
                problem, config, RandomSource(s)
            )
            assert result.best_bits.tobytes() == ref_bits.tobytes()
            assert result.best_fitness == ref_fitness
            assert result.trajectory.tobytes() == ref_trajectory.tobytes()
            assert (result.evaluations, result.generations) == (budget, -(-budget // pop))

    def test_batch_problem_is_scored_by_one_scalar_call_per_row(self):
        # `benchmarks/run.py --trace 1` divides fitness time by the number of scalar
        # FitnessFunction.__call__ calls and fails when there are none, so qiga1 keeps
        # scoring row by row even when the problem defines batch.  This test changes
        # together with qiga1's scoring once that script copes with no scalar calls.
        problem = CallCountingProblem(onemax(5))
        config = Qiga1Config(quantum_population_size=4, max_fitness_evaluations=203)
        qiga1_lockstep(problem, config, [RandomSource(s) for s in (1, 2, 3)])
        assert problem.scalar_calls == 3 * 203
        assert problem.batch_shapes == [(5,)] * (3 * 203)  # each from one scalar call


SGA_PROBLEMS = {
    "onemax": lambda n, seed: onemax(n),
    "trap": lambda n, seed: pair_trap((n + 1) // 2),
    "3sat": lambda n, seed: load_problem(f"3sat:{max(n, 3)}:{4 * max(n, 3)}:{seed}"),
    "negated": lambda n, seed: NegatedOneMax(n),
    "zero": lambda n, seed: ConstantProblem(n, 0.0),
}


class TestSgaLockstep:
    @given(
        pop=st.integers(2, 200),
        rows=st.lists(st.sampled_from(["uniform", "zeros", "sparse", "random"]), min_size=1,
                      max_size=4),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=100, deadline=None)
    def test_group_cdf_spin_matches_generator_choice(self, pop, rows, seed):
        # Selection weights as sga builds them: an all-zero row is the uniform fallback.
        source = np.random.default_rng(seed)
        selection = np.zeros((len(rows), pop))
        for s, kind in enumerate(rows):
            if kind == "sparse":  # mostly zero weights, at least one positive
                selection[s, source.integers(pop, size=1 + pop // 10)] = source.random()
            elif kind == "random":
                selection[s] = source.random(pop) * source.choice([1e-300, 1.0, 1e300])
        totals = selection.sum(axis=1, keepdims=True)
        probabilities = np.full(selection.shape, 1.0 / pop)
        np.divide(selection, totals, out=probabilities, where=totals > 0)
        cdf = probabilities.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        for s in range(len(rows)):
            spun, chosen = RandomSource(seed + s), RandomSource(seed + s)
            got = cdf[s].searchsorted(spun.gen.random(pop), side="right")
            want = chosen.gen.choice(pop, size=pop, p=probabilities[s])
            assert got.tolist() == want.tolist()
            assert spun.gen.bit_generator.state == chosen.gen.bit_generator.state

    @given(
        runs=st.integers(1, 6),
        half_pop=st.integers(1, 10),
        n=st.integers(1, 12),
        kind=st.sampled_from(sorted(SGA_PROBLEMS)),
        crossover=st.sampled_from([0.0, 1.0, SgaConfig().crossover_probability]),
        generations=st.integers(1, 6),
        extra=st.integers(0, 19),
        seed=st.integers(0, 2**20),
    )
    # The paper's 5000 evaluations at a population of 30: 166 generations and one of 20.
    @example(runs=2, half_pop=15, n=20, kind="3sat", crossover=SgaConfig().crossover_probability,
             generations=166, extra=20, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_each_run_matches_its_own_sga_evolve_and_the_reference(
        self, runs, half_pop, n, kind, crossover, generations, extra, seed
    ):
        # "negated" takes the negative-shift path and "zero" the all-zero fallback;
        # n = 1 draws no crossover numbers.  A nonzero extra % pop cuts the last generation.
        problem = SGA_PROBLEMS[kind](n, seed)
        pop = 2 * half_pop
        budget = pop * generations + extra % pop
        config = SgaConfig(population_size=pop, max_fitness_evaluations=budget,
                           crossover_probability=crossover)
        rngs = [RandomSource(seed + i) for i in range(runs)]
        results = sga_lockstep(problem, config, rngs)
        assert len(results) == runs
        for i, (rng, result) in enumerate(zip(rngs, results)):
            single, reference = RandomSource(seed + i), RandomSource(seed + i)
            assert same_run(result, sga_evolve(problem, config, single))
            assert same_run(result, reference_sga_evolve(problem, config, reference))
            assert (result.evaluations, result.generations) == (budget, -(-budget // pop))
            state = rng.gen.bit_generator.state
            assert state == single.gen.bit_generator.state == reference.gen.bit_generator.state


@pytest.mark.parametrize("lockstep, evolve, config, evaluations", [
    pytest.param(qiga_lockstep, qiga_evolve,
                 QigaConfig(order=3, quantum_population_size=6, max_fitness_evaluations=203), 203,
                 id="qiga"),
    pytest.param(qiga1_lockstep, qiga1_evolve,
                 Qiga1Config(quantum_population_size=6, max_fitness_evaluations=203), 203,
                 id="qiga1"),
    pytest.param(sga_lockstep, sga_evolve,
                 SgaConfig(population_size=6, max_fitness_evaluations=6 * 5 + 2), 32, id="sga"),
])
def test_scalar_only_problem_sees_each_runs_rows_in_sample_order(lockstep, evolve, config,
                                                                  evaluations):
    # Each generation of 6 rows is scored run after run, each run's rows in the order drawn.
    problem = RecordingProblem(pair_trap(4))
    lockstep(problem, config, [RandomSource(s) for s in (7, 8, 9)])
    per_run = []
    for s in (7, 8, 9):
        single = RecordingProblem(pair_trap(4))
        evolve(single, config, RandomSource(s))
        per_run.append(single.calls)
    expected = [row for first in range(0, evaluations, 6) for calls in per_run
                for row in calls[first : first + 6]]
    assert len(problem.calls) == 3 * evaluations
    assert np.array_equal(np.array(problem.calls), np.array(expected))


@pytest.mark.parametrize("lockstep, evolve, config, shapes", [
    # 25 runs x 10 samples = 250 rows a generation: calls of 100, 100 and 50 rows;
    # the last of 10 generations has 5 samples a run, 125 rows.
    pytest.param(qiga_lockstep, qiga_evolve, QigaConfig(max_fitness_evaluations=95),
                 [(100, 20), (100, 20), (50, 20)] * 9 + [(100, 20), (25, 20)], id="qiga"),
    # 25 runs x 10 individuals = 250 rows a generation; the last of 4 has 5 a run.
    pytest.param(sga_lockstep, sga_evolve,
                 SgaConfig(population_size=10, max_fitness_evaluations=35),
                 [(100, 20), (100, 20), (50, 20)] * 3 + [(100, 20), (25, 20)], id="sga"),
])
def test_batch_calls_are_two_dimensional_and_capped(lockstep, evolve, config, shapes):
    problem = BatchSpy(load_problem("3sat:20:80:4"))
    results = lockstep(problem, config, [RandomSource(s) for s in range(25)])
    assert problem.shapes == shapes
    assert max(rows for rows, _ in problem.shapes) == BATCH_ROWS
    for s in (0, 24):
        assert same_run(results[s], evolve(problem.inner, config, RandomSource(s)))


@pytest.mark.parametrize("engine, config", [
    pytest.param(qiga_lockstep, QigaConfig(max_fitness_evaluations=20), id="qiga"),
    pytest.param(qiga1_lockstep, Qiga1Config(max_fitness_evaluations=20), id="qiga1"),
    pytest.param(sga_lockstep, SgaConfig(population_size=4, max_fitness_evaluations=4 * 5),
                 id="sga"),
])
def test_lockstep_without_random_sources_names_the_cause(engine, config):
    with pytest.raises(ValueError, match="at least one random source, got none"):
        engine(onemax(4), config, [])


INT_FIELDS = [
    (QigaConfig, name) for name in
    ("order", "quantum_population_size", "max_fitness_evaluations")
] + [(Qiga1Config, "quantum_population_size"), (Qiga1Config, "max_fitness_evaluations"),
     (SgaConfig, "population_size"), (SgaConfig, "max_fitness_evaluations")]


@pytest.mark.parametrize("config_type, name", INT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 10.0, True, "2", None])
def test_integer_config_fields_reject_other_types_by_name(config_type, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        config_type(**{name: value})


@pytest.mark.parametrize("config_type, population", [(QigaConfig, "quantum_population_size"),
                                                     (Qiga1Config, "quantum_population_size"),
                                                     (SgaConfig, "population_size")])
def test_budget_below_one_generation_names_both_counts(config_type, population):
    message = "evaluation budget 5 cannot cover one generation of 10 samples"
    with pytest.raises(ValueError, match=f"^{message}$"):
        config_type(**{population: 10, "max_fitness_evaluations": 5})


REAL_FIELDS = [(QigaConfig, "contraction_factor"), (Qiga1Config, "epsilon_guard"),
               (SgaConfig, "crossover_probability"), (SgaConfig, "mutation_probability")]
NOT_FINITE_REALS = ["0.5", None, True, math.nan, math.inf]


@pytest.mark.parametrize("config_type, name", REAL_FIELDS)
@pytest.mark.parametrize("value", NOT_FINITE_REALS)
def test_real_config_fields_reject_other_values_by_name(config_type, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number, got "):
        config_type(**{name: value})


@pytest.mark.parametrize("value", NOT_FINITE_REALS)
def test_rotation_angles_reject_other_values_by_name(value):
    with pytest.raises(ValueError, match="^angle must be a finite real number, got "):
        default_rotation_table(value)
    table = list(default_rotation_table())
    table[2] = value
    with pytest.raises(ValueError, match="^rotation angle must be a finite real number, got "):
        Qiga1Config(rotation_table=table)


def test_every_scalar_config_field_is_checked_by_name():
    scalar = {(config_type, name) for config_type in (QigaConfig, Qiga1Config, SgaConfig)
              for name, hint in typing.get_type_hints(config_type).items() if hint in (int, float)}
    assert scalar == set(INT_FIELDS + REAL_FIELDS)


def test_qiga_order_above_the_register_limit_rejected():
    with pytest.raises(ValueError, match=re.escape(f"order must be in [1, {MAX_ORDER}], got 31")):
        QigaConfig(order=MAX_ORDER + 1)
