"""The three evolvers behind one interface.

* qiga_evolve: order-r contraction search.  Registers are observed to sample
  classical individuals; after each generation every non-best amplitude is
  scaled by the contraction factor and the amplitude matching the best-so-far
  individual absorbs the freed probability mass.  The quantum population
  stays identical, so qiga keeps one chromosome and its two population
  knobs only set the generation size; qiga_lockstep advances many seeds at once.
* qiga1_evolve: the classic order-1 baseline with per-qubit rotation gates
  driven by a lookup table; each quantum individual keeps its own state, and
  qiga1_lockstep advances many seeds at once on one alpha and one beta plane.
* sga_evolve: generational GA with roulette selection, single-point crossover
  and per-bit mutation; sga_lockstep advances many seeds at once.

All evolvers consume exactly the configured fitness-evaluation budget and
record the best-so-far fitness at every evaluation, so runs with different
generation sizes plot on a common axis.  The three lockstep engines share one
generation loop, _lockstep: until the budget is spent it samples a generation
of every run, scores its rows, folds them into one _BestTracker per group in
sample order (so results match sampling one bitstring at a time), and, while
budget remains, updates the model.  Each engine supplies only its two steps:
qiga observes its registers, then contracts them toward the best; qiga1
compares draws with its alpha plane, then rotates and clamps its qubits; sga
hands over its population, then selects, crosses and mutates.  qiga and sga
score a generation with problem.batch; qiga1 still calls problem(row) once per
row, because the benchmark's per-layer trace divides by that call count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (BitString, QuantumChromosome, QuantumRegister, RENORM_TRIGGER, RandomSource,
                   bits_to_group, check_int, check_order, check_real, chromosome_layout)
from .problems import FitnessFunction

logger = logging.getLogger(__name__)

BATCH_ROWS = 100  # most rows one problem.batch call scores, which bounds its temporaries

RotationTable = dict[tuple[int, int, bool], float]


def default_rotation_table(angle: float = 0.01 * math.pi) -> RotationTable:
    """Rotate toward the best individual's bit only where there is a direction.

    No move when the observed bit already agrees with the best individual's,
    or when the observed individual is at least as fit (nothing better to
    steer toward).  Positive angles move probability toward bit value 1.
    """
    check_real("angle", angle)
    table: RotationTable = {}
    for x in (0, 1):
        for b in (0, 1):
            for at_least_best in (False, True):
                if x == b or at_least_best:
                    delta = 0.0
                else:
                    delta = angle if b == 1 else -angle
                table[(x, b, at_least_best)] = delta
    return table


@dataclass(frozen=True)
class QigaConfig:
    """Knobs of the order-r contraction evolver."""

    order: int = 2
    quantum_population_size: int = 10
    samples_per_individual: int = 1
    contraction_factor: float = 0.9918
    max_fitness_evaluations: int = 5000

    def __post_init__(self):
        check_order(self.order)
        for name in ("quantum_population_size", "samples_per_individual"):
            check_int(name, getattr(self, name), 1)
        check_int("max_fitness_evaluations", self.max_fitness_evaluations, 1)
        check_real("contraction_factor", self.contraction_factor)
        if not 0.0 < self.contraction_factor < 1.0:
            raise ValueError(f"contraction factor must be in (0, 1), got {self.contraction_factor}")
        per_generation = self.quantum_population_size * self.samples_per_individual
        if self.max_fitness_evaluations < per_generation:
            raise ValueError(f"evaluation budget {self.max_fitness_evaluations} cannot cover one "
                             f"generation of {per_generation} samples")


@dataclass(frozen=True)
class Qiga1Config:
    """Knobs of the rotation-gate order-1 baseline."""

    rotation_table: tuple[tuple[tuple[int, int, bool], float], ...] = tuple(
        sorted(default_rotation_table().items())
    )
    epsilon_guard: float = 0.01
    quantum_population_size: int = 10
    max_fitness_evaluations: int = 5000

    def __post_init__(self):
        table = dict(self.rotation_table)
        expected = {(x, b, c) for x in (0, 1) for b in (0, 1) for c in (False, True)}
        if set(table) != expected:
            raise ValueError("rotation table must define all 8 (x, b, comparison) entries")
        for angle in table.values():
            check_real("rotation angle", angle)
            if abs(angle) >= math.pi / 2:
                raise ValueError("rotation angles must satisfy |angle| < pi/2")
        object.__setattr__(self, "rotation_table", tuple(sorted(table.items())))
        check_real("epsilon_guard", self.epsilon_guard)
        if not 0.0 <= self.epsilon_guard < 0.3:
            raise ValueError(f"epsilon guard must be in [0, 0.3), got {self.epsilon_guard}")
        check_int("quantum_population_size", self.quantum_population_size, 1)
        check_int("max_fitness_evaluations", self.max_fitness_evaluations, 1)
        if self.max_fitness_evaluations < self.quantum_population_size:
            raise ValueError("evaluation budget cannot cover one generation")

    @classmethod
    def with_table(cls, table: RotationTable, **kwargs) -> "Qiga1Config":
        return cls(rotation_table=tuple(sorted(table.items())), **kwargs)

    def table_array(self) -> np.ndarray:
        """Angles as a (2, 2, 2) array indexed [x, b, comparison]."""
        arr = np.zeros((2, 2, 2))
        for (x, b, cmp_), delta in self.rotation_table:
            arr[x, b, int(cmp_)] = delta
        return arr


@dataclass(frozen=True)
class SgaConfig:
    """Knobs of the classical generational GA, budgeted in whole generations."""

    population_size: int = 100
    crossover_probability: float = 0.65
    mutation_probability: float = 0.05
    max_fitness_evaluations: int = 5000

    def __post_init__(self):
        check_int("population_size", self.population_size)
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ValueError(f"population size must be even and >= 2, got {self.population_size}")
        check_int("max_fitness_evaluations", self.max_fitness_evaluations, 1)
        if self.max_fitness_evaluations % self.population_size:
            raise ValueError(f"budget {self.max_fitness_evaluations} is not a whole number of "
                             f"sga generations of {self.population_size} evaluations")
        for name, p in (("crossover_probability", self.crossover_probability),
                        ("mutation_probability", self.mutation_probability)):
            check_real(name, p)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name.replace('_', ' ')} must be in [0, 1], got {p}")


@dataclass
class RunResult:
    """One evolver run: the best individual found and how it was reached."""

    best_bits: BitString
    best_fitness: float
    trajectory: np.ndarray
    evaluations: int
    generations: int


class _BestTracker:
    """Evaluation-budget bookkeeping of one lockstep group of runs, shared by every evolver.

    The runs share one evaluation and one generation count, since their generations are
    equal in size.  Each run records its best-so-far fitness after each evaluation; ties
    keep the earliest individual, so the trajectory is nondecreasing and the winner is
    the first to reach the top fitness.  A NaN fitness never becomes best.  best_fitness
    is a float64 (runs,) array and the best bits one (runs, n) uint8 array, allocated by
    the first record; a run whose best fitness is still -inf has no best yet.
    """

    def __init__(self, budget: int, runs: int):
        self.budget = budget
        self.count = 0
        self.generations = 0
        self.best_bits: np.ndarray | None = None
        self.best_fitness = np.full(runs, -math.inf)
        self.trajectory = np.empty((runs, budget), dtype=np.float64)

    @property
    def remaining(self) -> int:
        return self.budget - self.count

    @property
    def best(self) -> np.ndarray:
        """The (runs, n) best bits so far; ValueError when a run has no fitness above -inf."""
        if (self.best_fitness == -math.inf).any():
            raise ValueError(f"no fitness above -inf in {self.count} evaluations (all NaN or -inf)")
        return self.best_bits

    def record(self, bits: np.ndarray, fitness) -> None:
        """Fold run s's rows bits[s], scored fitness[s], in order; only a fitter row is best.

        Only runs with a score above their best (np.fmax skips NaN) are folded row by row.
        """
        fitness = np.asarray(fitness, dtype=np.float64)
        if self.best_bits is None:
            self.best_bits = np.zeros((len(self.best_fitness), bits.shape[-1]), dtype=np.uint8)
        window = self.trajectory[:, self.count : self.count + fitness.shape[1]]
        window[:] = self.best_fitness[:, None]
        for s in (np.fmax.reduce(fitness, axis=1) > self.best_fitness).nonzero()[0].tolist():
            best, best_row, run_best = float(self.best_fitness[s]), None, []
            for row, value in enumerate(fitness[s].tolist()):
                if value > best:
                    best, best_row = value, row
                run_best.append(best)
            window[s] = run_best
            self.best_bits[s], self.best_fitness[s] = bits[s, best_row], best
        self.count += fitness.shape[1]
        self.generations += 1

    def results(self) -> list[RunResult]:
        return [RunResult(best_bits=bits, best_fitness=fitness, trajectory=trajectory[: self.count],
                          evaluations=self.count, generations=self.generations)
                for bits, fitness, trajectory in zip(self.best, self.best_fitness.tolist(),
                                                     self.trajectory)]


def contraction_update(reg: QuantumRegister, best_group: int, mu: float) -> QuantumRegister:
    """Scale every non-best amplitude by mu; the best one absorbs the slack.

    The amplitude at best_group becomes sqrt(1 - sum of the scaled others
    squared), so the register stays normalized and (for nonnegative inputs)
    the best amplitude never decreases.
    """
    dim = len(reg.amplitudes)
    if not 0 <= best_group < dim:
        raise ValueError(f"best group must be in [0, {dim}), got {best_group}")
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"contraction factor must be in (0, 1], got {mu}")
    scaled = reg.amplitudes * mu
    squares = scaled**2
    others = squares.sum() - squares[best_group]
    scaled[best_group] = math.sqrt(max(0.0, 1.0 - others))
    norm2 = float(np.sum(scaled**2))
    if abs(norm2 - 1.0) > RENORM_TRIGGER:
        scaled /= math.sqrt(norm2)
    return QuantumRegister(reg.order, scaled)


def update_quantum_population(
    population: list[QuantumChromosome], b: BitString, mu: float
) -> list[QuantumChromosome]:
    """Contract every register of every chromosome toward its group value in b."""
    updated = []
    for chrom in population:
        if len(b) != chrom.length:
            raise ValueError(
                f"best individual has {len(b)} bits, chromosome covers {chrom.length}"
            )
        starts = np.cumsum([0, *chrom.layout])
        regs = tuple(contraction_update(reg, bits_to_group(b[start : start + reg.order]), mu)
                     for reg, start in zip(chrom.registers, starts))
        updated.append(QuantumChromosome(chrom.length, regs))
    return updated


class _PackedRegisters:
    """The quantum chromosomes of `runs` lockstep qiga runs as dense amplitude arrays.

    One chromosome per run stands for its whole quantum population, which
    starts uniform and is contracted toward one best by one factor, so it
    stays identical.  `blocks` holds one (shifts, bit_table, amplitudes) triple
    per run of equal-order registers in chromosome_layout: the full-order
    registers, then the shorter final register if the order does not divide
    the gene count.  amplitudes has shape (runs, count, 2**order); shifts
    order a register's bits high bit first, and bit_table row v holds value v's.
    All operations are float-identical to the per-register public operations,
    and each run's observation draws consume its own random stream exactly
    like observe_chromosome.
    """

    OBSERVE_CHUNK = 1 << 16  # most thresholds compared per observe step; a larger row goes alone
    LOCKSTEP_AMPLITUDES = 1 << 16  # most amplitudes (sga: bits) of one lockstep group

    def __init__(self, n_bits: int, order: int, runs: int = 1):
        layout = chromosome_layout(n_bits, order)
        self.registers_per_individual = len(layout)
        self.blocks = []
        for block_order in dict.fromkeys(layout):
            dim = 2**block_order
            amplitudes = np.full((runs, layout.count(block_order), dim), math.sqrt(1.0 / dim))
            shifts = np.arange(block_order - 1, -1, -1)
            bit_table = ((np.arange(dim)[:, None] >> shifts) & 1).astype(np.uint8)
            self.blocks.append((shifts, bit_table, amplitudes))
        self.chunk = max(1, self.OBSERVE_CHUNK // sum(a.size for *_, a in self.blocks))

    def observe(self, k: int, rngs: list[RandomSource]) -> np.ndarray:
        """A (runs, k, n) array of samples; run s draws as k observe_chromosome calls on rngs[s]."""
        runs = len(rngs)
        draws = np.concatenate([rng.uniforms(k * self.registers_per_individual) for rng in rngs])
        draws = draws.reshape(runs, k, -1)
        parts = []
        first = 0
        for _, bit_table, amplitudes in self.blocks:
            count, dim = amplitudes.shape[1:]
            # Thresholds never decrease, so counting all but the last caps a value at dim - 1.
            thresholds = np.cumsum(amplitudes**2, axis=2)[:, None, :, :-1]
            block_draws, axis = draws[:, :, first : first + count, None], 3
            if count >= dim:  # value-major: the longer register axis innermost
                thresholds = np.ascontiguousarray(thresholds.swapaxes(2, 3))
                block_draws, axis = block_draws.swapaxes(2, 3), 2
            values = np.concatenate([
                np.sum(thresholds <= block_draws[:, i : i + self.chunk], axis=axis,
                       dtype=np.min_scalar_type(dim - 1))
                for i in range(0, k, self.chunk)
            ], axis=1)
            parts.append(bit_table.take(values, axis=0).reshape(runs, k, -1))
            first += count
        return np.concatenate(parts, axis=2)

    def contract(self, best: np.ndarray, mu: float) -> None:
        """Contract run s's registers toward best[s], in place; best has shape (runs, n)."""
        pos = 0
        for shifts, _, amplitudes in self.blocks:
            runs, count, _ = amplitudes.shape
            order = len(shifts)
            groups = best[:, pos : pos + count * order].reshape(runs, count, order) @ (1 << shifts)
            pos += count * order
            index = (np.arange(runs)[:, None], np.arange(count), groups)
            amplitudes *= mu
            squares = amplitudes**2
            others = squares.sum(axis=2) - squares[index]
            amplitudes[index] = np.sqrt(np.maximum(0.0, 1.0 - others))
            norm2 = (amplitudes**2).sum(axis=2)
            drift = np.abs(norm2 - 1.0) > RENORM_TRIGGER
            if drift.any():
                amplitudes[drift] /= np.sqrt(norm2[drift])[:, None]


def _check_problem(problem: FitnessFunction, runs: int = 1) -> int:
    if runs < 1:
        raise ValueError("a lockstep call needs at least one random source, got none")
    n = getattr(problem, "size", 0)
    if not n or n < 1:
        raise ValueError("problem has no genes to optimize (size must be >= 1)")
    return n


def _score(problem: FitnessFunction, rows: np.ndarray) -> np.ndarray:
    """problem.batch over rows, in order, by calls of at most BATCH_ROWS rows."""
    starts = range(0, len(rows), BATCH_ROWS)
    return np.concatenate([problem.batch(rows[i : i + BATCH_ROWS]) for i in starts])


def _lockstep(score, budget: int, runs: int, sample, update) -> list[RunResult]:
    """The generation loop of every lockstep engine, under one _BestTracker.

    sample(remaining) returns the next (runs, k, n) generation, k <= remaining; score
    returns the values of its run-major (runs * k, n) rows, in order.  After each
    generation is recorded, update(bits, fitness, tracker) advances the engine's model,
    only while budget remains, so a final ragged generation is never followed by one.
    """
    tracker = _BestTracker(budget, runs)
    while tracker.remaining:
        bits = sample(tracker.remaining)
        fitness = score(bits.reshape(-1, bits.shape[-1])).reshape(runs, -1)
        tracker.record(bits, fitness)
        if tracker.remaining:
            update(bits, fitness, tracker)
    return tracker.results()


def qiga_evolve(
    problem: FitnessFunction, config: QigaConfig, rng: RandomSource
) -> RunResult:
    """Order-r contraction search under a fixed fitness-evaluation budget.

    Starts from uniform registers, samples a generation of
    quantum_population_size * samples_per_individual strings from one
    chromosome (the quantum individuals would all stay identical), folds them
    into the global best b, then contracts every register toward b's groups.
    The one-run call of qiga_lockstep.
    """
    return qiga_lockstep(problem, config, [rng])[0]


def lockstep_group_size(config: QigaConfig | Qiga1Config | SgaConfig, n_bits: int) -> int:
    """Most lockstep runs of config whose state fits _PackedRegisters.LOCKSTEP_AMPLITUDES."""
    if isinstance(config, SgaConfig):  # one per bit of the population
        per_run = config.population_size * n_bits
    elif isinstance(config, Qiga1Config):
        per_run = 2 * config.quantum_population_size * n_bits
    else:  # a missing tail register counts 1
        per_run = n_bits // config.order * 2**config.order + 2 ** (n_bits % config.order)
    return max(1, _PackedRegisters.LOCKSTEP_AMPLITUDES // per_run)


def qiga_lockstep(
    problem: FitnessFunction, config: QigaConfig, rngs: list[RandomSource]
) -> list[RunResult]:
    """qiga_evolve on each random source, all runs advanced one generation at a time.

    The runs share generation boundaries and one _BestTracker; each generation's rows,
    run-major in sample order, are scored by problem.batch calls of at most BATCH_ROWS
    rows.  Result s equals qiga_evolve(problem, config, rngs[s]) byte for byte.
    """
    n = _check_problem(problem, len(rngs))
    check_order(config.order, n)
    packed = _PackedRegisters(n, config.order, len(rngs))
    per_generation = config.quantum_population_size * config.samples_per_individual
    mu = config.contraction_factor
    return _lockstep(lambda rows: _score(problem, rows), config.max_fitness_evaluations, len(rngs),
                     lambda remaining: packed.observe(min(per_generation, remaining), rngs),
                     lambda bits, fitness, tracker: packed.contract(tracker.best, mu))


def qiga1_evolve(
    problem: FitnessFunction, config: Qiga1Config, rng: RandomSource
) -> RunResult:
    """Order-1 rotation-gate baseline under the same budget bookkeeping.

    Each gene is an independent qubit [alpha, beta].  After evaluating a
    generation, every qubit is rotated by the table angle for (observed bit,
    best bit, observed-at-least-best), then clamped away from the poles by
    the epsilon guard so no outcome ever becomes unreachable; the one-run call of qiga1_lockstep.
    """
    return qiga1_lockstep(problem, config, [rng])[0]


def qiga1_lockstep(
    problem: FitnessFunction, config: Qiga1Config, rngs: list[RandomSource]
) -> list[RunResult]:
    """qiga1_evolve on each random source, all runs advanced one generation at a time.

    The qubits of all runs form one (2, runs, pop, n) state, an alpha plane then a beta
    plane, and one _BestTracker folds each sampled row's problem(row) score, run-major in
    sample order.  Result s equals qiga1_evolve(problem, config, rngs[s]) byte for byte.
    """
    n = _check_problem(problem, len(rngs))
    runs, pop = len(rngs), config.quantum_population_size
    table = config.table_array()
    cos_table, sin_table = np.cos(table).ravel(), np.sin(table).ravel()
    state = np.full((2, runs, pop, n), math.sqrt(0.5))

    def observe(remaining: int) -> np.ndarray:
        k = min(pop, remaining)
        draws = np.concatenate([rng.uniforms(k * n) for rng in rngs]).reshape(runs, k, n)
        return (draws >= state[0, :, :k] ** 2).astype(np.uint8)

    def rotate(bits: np.ndarray, fitness: np.ndarray, tracker: _BestTracker) -> None:
        # Only a full generation gets here, so every individual rotates.
        at_least_best = fitness >= tracker.best_fitness[:, None]
        index = 4 * bits + 2 * tracker.best[:, None] + at_least_best[..., None]  # flat [x, b, cmp]
        cos_d, sin_d = cos_table.take(index), sin_table.take(index)
        alpha, beta = state
        state[0], state[1] = cos_d * alpha - sin_d * beta, sin_d * alpha + cos_d * beta
        _clamp_poles(np.moveaxis(state, 0, -1), config.epsilon_guard)

    return _lockstep(lambda rows: np.array([problem(row) for row in rows]),
                     config.max_fitness_evaluations, runs, observe, rotate)


def _clamp_poles(state: np.ndarray, eps: float) -> None:
    """Keep both qubit amplitudes at magnitude >= eps, preserving signs."""
    big = math.sqrt(1.0 - eps * eps)
    for small, other in ((state[..., 0], state[..., 1]), (state[..., 1], state[..., 0])):
        near = np.abs(small) < eps
        small[near] = np.copysign(eps, small[near])
        other[near] = np.copysign(big, other[near])


def sga_evolve(
    problem: FitnessFunction, config: SgaConfig, rng: RandomSource
) -> RunResult:
    """Generational GA: roulette selection, single-point crossover, bit mutation.

    Roulette needs nonnegative fitness; a generation containing negatives is
    shifted up for selection only, and an all-zero generation falls back to
    uniform selection.  Both fallbacks are logged, never fatal.  A generation
    that must select and holds a non-finite score (NaN, inf or -inf), or finite
    scores whose selection weights sum to inf, raises a ValueError that names
    the cause.  The one-run call of sga_lockstep.
    """
    return sga_lockstep(problem, config, [rng])[0]


def sga_lockstep(
    problem: FitnessFunction, config: SgaConfig, rngs: list[RandomSource]
) -> list[RunResult]:
    """sga_evolve on each random source, all runs advanced one generation at a time.

    The runs' populations form one (runs, pop, n) array, scored and folded like qiga_lockstep's.
    Each run draws its roulette spin, crossover coins and cuts, then mutation coins from
    its own stream, in that order; the operators then apply to the whole group at once.
    A spin is pop uniforms mapped through the group's normalised cumulative selection
    probabilities, as Generator.choice(pop, pop, p=row) maps them.
    Result s equals sga_evolve(problem, config, rngs[s]) byte for byte.
    """
    n = _check_problem(problem, len(rngs))
    runs, pop, pairs = len(rngs), config.population_size, config.population_size // 2
    population = np.stack([rng.gen.integers(0, 2, size=(pop, n), dtype=np.uint8) for rng in rngs])
    chosen, flips = np.empty((runs, pop), dtype=np.int64), np.empty((runs, pop, n), dtype=bool)
    coins, cuts = np.empty((runs, pairs)), np.empty((runs, pairs), dtype=np.int64)

    def breed(bits: np.ndarray, fitness: np.ndarray, tracker: _BestTracker) -> None:
        nonlocal population
        if not np.isfinite(fitness).all():
            raise ValueError(f"generation {tracker.generations}: non-finite fitness "
                             "(NaN, inf or -inf) cannot weight roulette selection")
        selection = fitness.astype(np.float64, copy=True)
        low = selection.min(axis=1, keepdims=True)
        for value in low[low < 0]:
            logger.warning("generation %d: negative fitness %g; shifted for roulette selection",
                           tracker.generations, value)
        with np.errstate(over="ignore"):  # weights that overflow raise below, before any draw
            np.add(selection, -low + 1.0, out=selection, where=low < 0)
            totals = selection.sum(axis=1, keepdims=True)
        if np.isinf(totals).any():
            raise ValueError(f"generation {tracker.generations}: roulette weights overflow to inf")
        probabilities = np.full((runs, pop), 1.0 / pop)
        np.divide(selection, totals, out=probabilities, where=totals > 0)
        for _ in range(np.count_nonzero(totals <= 0)):
            logger.warning("generation %d: all-zero fitness; uniform selection fallback",
                           tracker.generations)
        cdf = probabilities.cumsum(axis=1)  # what Generator.choice(pop, pop, p=row) spins
        cdf /= cdf[:, -1:]
        for s, rng in enumerate(rngs):
            chosen[s] = cdf[s].searchsorted(rng.gen.random(pop), side="right")
            if n >= 2:
                coins[s], cuts[s] = rng.gen.random(pairs), rng.gen.integers(1, n, size=pairs)
            flips[s] = rng.gen.random((pop, n)) < config.mutation_probability
        children = bits[np.arange(runs)[:, None], chosen]
        if n >= 2:  # pair j of run s is rows 2i and 2i + 1 of the group, i = s * pairs + j
            crossed = np.flatnonzero(coins < config.crossover_probability)
            rows = children.reshape(-1, n)  # a view, so crossing rows crosses children
            rows[2 * crossed], rows[2 * crossed + 1] = single_point_crossover(
                rows[2 * crossed], rows[2 * crossed + 1], cuts.ravel()[crossed])
        population = children ^ flips.astype(np.uint8)

    return _lockstep(lambda rows: _score(problem, rows), config.max_fitness_evaluations, runs,
                     lambda remaining: population, breed)  # the budget is whole generations


def single_point_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, cut: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Swap the suffixes of two equal-shape parents at cut in [1, N-1].

    Parents may be single bitstrings or stacked (k, N) rows with one cut each.
    """
    if np.shape(parent_a) != np.shape(parent_b):
        raise ValueError("parents must have equal length")
    n = np.shape(parent_a)[-1]
    cut = np.asarray(cut)
    if np.any(cut < 1) or np.any(cut > n - 1):
        raise ValueError(f"cut must be in [1, {n - 1}], got {cut}")
    suffix = np.arange(n) >= cut[..., None]
    return np.where(suffix, parent_b, parent_a), np.where(suffix, parent_a, parent_b)
