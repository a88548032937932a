"""The three evolvers behind one interface.

* qiga_evolve: order-r contraction search.  Registers are observed to sample
  classical individuals; after each generation every non-best amplitude is
  scaled by the contraction factor and the amplitude matching the best-so-far
  individual absorbs the freed probability mass.  The quantum population
  stays identical, so qiga keeps one chromosome and quantum_population_size
  is its generation size; qiga_lockstep advances many seeds at once.
* qiga1_evolve: the classic order-1 baseline with per-qubit rotation gates
  driven by a table of 8 angles; each quantum individual keeps its own state, and
  qiga1_lockstep advances many seeds at once on one alpha and one beta plane.
* sga_evolve: generational GA with roulette selection, single-point crossover
  and per-bit mutation; sga_lockstep advances many seeds at once.

All evolvers consume exactly the configured fitness-evaluation budget and
record the best-so-far fitness as its steps: one (evaluation, value) pair per
strict rise, expanded on demand to one value per evaluation, so runs with
different generation sizes plot on a common axis.  The three lockstep engines
share one generation loop, _lockstep: until the budget is spent it samples a
generation of every run (the last one cut to the remaining budget), scores its
rows, folds them into one _BestTracker per group in sample order (so results
match sampling one bitstring at a time), and, while budget remains, updates
the model.  Each engine supplies its generation size and only its two steps:
qiga observes its registers, then contracts them toward the best; qiga1
compares draws with its alpha plane, then rotates and clamps its qubits; sga
hands over its population, then selects, crosses and mutates.  qiga and sga
score a generation with problem.batch; qiga1 still calls problem(row) once per
row, because the benchmark's per-layer trace divides by that call count, which
only qiga1 makes on the sat-protocol workload (ROADMAP item 2 waits for item 1's
mended trace).  qiga and qiga1 draw each run's uniforms many generations per
RandomSource.uniforms call (item 3): fewer calls, but never none, since the trace
divides by that count too.
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
LOCKSTEP_CELLS = 1 << 16  # most amplitudes (sga: bits) of one lockstep group

def default_rotation_table(angle: float = 0.01 * math.pi) -> tuple[float, ...]:
    """The 8 angles of qiga1's table; entry 4x + 2b + c is the rotation for observed
    bit x, best bit b, and c = 1 when the observed individual is at least as fit.

    No move when the observed bit already agrees with the best individual's,
    or when the observed individual is at least as fit (nothing better to
    steer toward).  Positive angles move probability toward bit value 1, so
    default_rotation_table(a) == (0, 0, a, 0, -a, 0, 0, 0).
    """
    check_real("angle", angle)
    return tuple(0.0 if x == b or c else (angle if b else -angle)
                 for x in (0, 1) for b in (0, 1) for c in (0, 1))


def _check_budget(quantum_population_size, max_fitness_evaluations) -> None:
    """The generation size and the budget are ints >= 1, and the budget covers one generation."""
    check_int("quantum_population_size", quantum_population_size, 1)
    check_int("max_fitness_evaluations", max_fitness_evaluations, 1)
    if max_fitness_evaluations < quantum_population_size:
        raise ValueError(f"evaluation budget {max_fitness_evaluations} cannot cover one "
                         f"generation of {quantum_population_size} samples")


@dataclass(frozen=True)
class QigaConfig:
    """Knobs of the order-r contraction evolver."""

    order: int = 2
    quantum_population_size: int = 10  # the generation size
    contraction_factor: float = 0.9918
    max_fitness_evaluations: int = 5000

    def __post_init__(self):
        check_order(self.order)
        _check_budget(self.quantum_population_size, self.max_fitness_evaluations)
        check_real("contraction_factor", self.contraction_factor)
        if not 0.0 < self.contraction_factor < 1.0:
            raise ValueError(f"contraction factor must be in (0, 1), got {self.contraction_factor}")


@dataclass(frozen=True)
class Qiga1Config:
    """Knobs of the rotation-gate order-1 baseline.

    rotation_table holds 8 angles, each |angle| < pi/2, in the order the engine reads
    them: entry 4x + 2b + c for observed bit x, best bit b and c = observed-at-least-best,
    as default_rotation_table() builds it; any sequence of 8 is stored as a tuple.
    """

    rotation_table: tuple[float, ...] = default_rotation_table()
    epsilon_guard: float = 0.01
    quantum_population_size: int = 10
    max_fitness_evaluations: int = 5000

    def __post_init__(self):
        table = tuple(self.rotation_table)
        if len(table) != 8:
            raise ValueError(f"rotation table must hold 8 angles, got {len(table)}")
        for angle in table:
            check_real("rotation angle", angle)
            if abs(angle) >= math.pi / 2:
                raise ValueError("rotation angles must satisfy |angle| < pi/2")
        object.__setattr__(self, "rotation_table", table)
        check_real("epsilon_guard", self.epsilon_guard)
        if not 0.0 <= self.epsilon_guard < 0.3:
            raise ValueError(f"epsilon guard must be in [0, 0.3), got {self.epsilon_guard}")
        _check_budget(self.quantum_population_size, self.max_fitness_evaluations)


@dataclass(frozen=True)
class SgaConfig:
    """Knobs of the classical generational GA."""

    population_size: int = 100
    crossover_probability: float = 0.65
    mutation_probability: float = 0.05
    max_fitness_evaluations: int = 5000

    def __post_init__(self):
        check_int("population_size", self.population_size)
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ValueError(f"population size must be even and >= 2, got {self.population_size}")
        _check_budget(self.population_size, self.max_fitness_evaluations)
        for name, p in (("crossover_probability", self.crossover_probability),
                        ("mutation_probability", self.mutation_probability)):
            check_real(name, p)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name.replace('_', ' ')} must be in [0, 1], got {p}")


@dataclass
class RunResult:
    """One evolver run: the best individual found and how it was reached.

    steps is the best-so-far fitness as a (2, m) float64 array of (evaluation, value)
    columns: (0, -inf), one column per strict rise of the best at the 0-based evaluation
    that reached it, then (evaluations, best_fitness).
    """

    best_bits: BitString
    best_fitness: float
    steps: np.ndarray
    evaluations: int
    generations: int

    @property
    def trajectory(self) -> np.ndarray:
        """The best-so-far fitness after each evaluation, expanded from steps (read-only)."""
        return np.repeat(self.steps[1, :-1], np.diff(self.steps[0]).astype(int))


class _BestTracker:
    """Evaluation-budget bookkeeping of one lockstep group of runs, shared by every evolver.

    The runs share one evaluation and one generation count, since their generations are
    equal in size.  steps[s] lists run s's (evaluation, value) pairs: (0, -inf), then one
    pair for each strict rise of its best-so-far fitness, at the 0-based evaluation of the
    row that rose.  Ties keep the earliest individual, so the winner is the first to reach
    the top fitness.  A NaN fitness never becomes best.  best_fitness is a float64 (runs,)
    array and the best bits one (runs, n) uint8 array, allocated by the first record; a
    run whose best fitness is still -inf has no best yet.  No state is sized by the budget:
    a run's steps grow only with its rises.
    """

    def __init__(self, budget: int, runs: int):
        self.budget = budget
        self.count = 0
        self.generations = 0
        self.best_bits: np.ndarray | None = None
        self.best_fitness = np.full(runs, -math.inf)
        self.steps = [[(0, -math.inf)] for _ in range(runs)]

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

        Only runs with a score above their best (np.fmax skips NaN) are folded row by row,
        and each strict rise appends one step.
        """
        fitness = np.asarray(fitness, dtype=np.float64)
        if self.best_bits is None:
            self.best_bits = np.zeros((len(self.best_fitness), bits.shape[-1]), dtype=np.uint8)
        for s in (np.fmax.reduce(fitness, axis=1) > self.best_fitness).nonzero()[0].tolist():
            best, best_row = float(self.best_fitness[s]), None
            for row, value in enumerate(fitness[s].tolist()):
                if value > best:
                    best, best_row = value, row
                    self.steps[s].append((self.count + row, value))
            self.best_bits[s], self.best_fitness[s] = bits[s, best_row], best
        self.count += fitness.shape[1]
        self.generations += 1

    def results(self) -> list[RunResult]:
        return [RunResult(bits, fitness, np.array([*steps, (self.count, fitness)]).T, self.count,
                          self.generations)
                for bits, fitness, steps in zip(self.best, self.best_fitness.tolist(), self.steps)]


def contraction_update(reg: QuantumRegister, best_group: int, mu: float) -> QuantumRegister:
    """Scale every non-best amplitude by mu; the best one absorbs the slack.

    The amplitude at best_group becomes sqrt(1 - sum of the scaled others
    squared), so the register stays normalized and (for nonnegative inputs)
    the best amplitude never decreases.
    """
    check_int("best group", best_group)
    if not 0 <= best_group < 2**reg.order:
        raise ValueError(f"best group must be in [0, {2**reg.order}), got {best_group}")
    check_real("contraction factor", mu)
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
    stays identical.  `blocks` holds one (shifts, amplitudes) pair per run of
    equal-order registers in chromosome_layout: the full-order registers, then
    the shorter final register if the order does not divide the gene count.
    amplitudes has shape (runs, count, 2**block_order), and shifts order a
    register's bits high bit first.  Observation reads one value-major table,
    `thresholds` of shape (runs, 2**order - 1, registers): register j's column
    holds its cumulative probabilities but the last, and a short register's
    unused entries stay +inf, which no draw in [0, 1) reaches; a register's value is
    the count of its thresholds at or below its draw, found for a whole generation by
    one comparison.  All operations are float-identical to the per-register public
    operations, and each run's observation draws consume its own random stream exactly
    like observe_chromosome.
    """

    def __init__(self, n_bits: int, order: int, runs: int = 1):
        layout = chromosome_layout(n_bits, order)
        shifts = np.arange(order - 1, -1, -1)  # high bit first; a shorter register takes the tail
        self.blocks = []
        for block_order in dict.fromkeys(layout):
            dim = 2**block_order
            amplitudes = np.full((runs, layout.count(block_order), dim), math.sqrt(1.0 / dim))
            self.blocks.append((shifts[order - block_order :], amplitudes))
        self.thresholds = np.full((runs, 2**order - 1, len(layout)), math.inf)
        self.bit_table = ((np.arange(2**order)[:, None] >> shifts) & 1).astype(np.uint8)
        # A short final register's value sets only its low bits, the last columns of its row.
        self.columns = np.r_[: n_bits - layout[-1], -layout[-1] : 0] if layout[-1] < order else None

    def observe(self, draws: np.ndarray) -> np.ndarray:
        """(runs, k, n) samples from (runs, k, registers) draws in [0, 1).

        Run s's sample j reads draws[s, j] as observe_chromosome reads its uniforms.  The one
        comparison holds k bytes per threshold, at most about k * LOCKSTEP_CELLS per lockstep
        group (0.66 MB at k = 10), beside 8 bytes per float64 draw, so at orders <= 3 it is
        smaller than the generation's draws.
        """
        runs, top, _ = self.thresholds.shape  # top: the largest value, 2**order - 1
        first = 0
        for _, amplitudes in self.blocks:
            count, dim = amplitudes.shape[1:]
            # Thresholds never decrease, so leaving out the last caps a value at dim - 1.
            # One contiguous cumsum; summing into the transposed view would loop per register.
            self.thresholds[:, : dim - 1, first : first + count] = np.cumsum(
                amplitudes[..., :-1] ** 2, axis=2).transpose(0, 2, 1)
            first += count
        values = np.sum(self.thresholds[:, None] <= draws[:, :, None], axis=2,
                        dtype=np.min_scalar_type(top))
        bits = self.bit_table.take(values, axis=0).reshape(*draws.shape[:2], -1)
        return bits if self.columns is None else bits.take(self.columns, axis=2)

    def contract(self, best: np.ndarray, mu: float) -> None:
        """Contract run s's registers toward best[s], in place; best has shape (runs, n)."""
        pos = 0
        for shifts, amplitudes in self.blocks:
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


def _drawer(rngs: list[RandomSource], width: int, budget: int, generation: int):
    """draw(k), the next k samples' (runs, k, width) uniforms, run s's from rngs[s].

    An empty block refills by one uniforms call per run of the most whole generations that
    fit LOCKSTEP_CELLS floats (at least one), capped at the budget's samples left; since
    uniforms(a + b) is uniforms(a) then uniforms(b), the draws and every stream's final state
    match one uniforms(k * width) call per generation, as long as k never runs past a block.
    """
    size = max(1, LOCKSTEP_CELLS // (len(rngs) * generation * width)) * generation
    block, left = np.empty((len(rngs), 0, width)), budget

    def draw(k: int) -> np.ndarray:
        nonlocal block, left
        if not block.shape[1]:
            count = min(size, left)
            left -= count
            block = np.stack([r.uniforms(count * width) for r in rngs]).reshape(-1, count, width)
        rows, block = block[:, :k], block[:, k:]
        return rows

    return draw


def _lockstep(score, budget: int, runs: int, generation: int, sample, update) -> list[RunResult]:
    """The generation loop of every lockstep engine, under one _BestTracker.

    sample(k) returns the next (runs, k, n) generation: k is the generation size, cut to
    the remaining budget in the last generation.  score returns the values of its
    run-major (runs * k, n) rows, in order.  After each generation is recorded,
    update(bits, fitness, tracker) advances the engine's model, only while budget
    remains, so every update sees a whole generation.
    """
    tracker = _BestTracker(budget, runs)
    while tracker.remaining:
        bits = sample(min(generation, tracker.remaining))
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
    quantum_population_size strings from one chromosome (the quantum
    individuals would all stay identical, so each is observed once), folds
    them into the global best b, then contracts every register toward b's groups.
    The one-run call of qiga_lockstep.
    """
    return qiga_lockstep(problem, config, [rng])[0]


def lockstep_group_size(config: QigaConfig | Qiga1Config | SgaConfig, n_bits: int) -> int:
    """Most lockstep runs of config whose state fits LOCKSTEP_CELLS."""
    if isinstance(config, SgaConfig):  # one per bit of the population
        per_run = config.population_size * n_bits
    elif isinstance(config, Qiga1Config):
        per_run = 2 * config.quantum_population_size * n_bits
    else:  # every amplitude of the chromosome
        per_run = sum(2**o for o in chromosome_layout(n_bits, config.order))
    return max(1, LOCKSTEP_CELLS // per_run)


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
    budget, pop = config.max_fitness_evaluations, config.quantum_population_size
    draw = _drawer(rngs, packed.thresholds.shape[2], budget, pop)
    mu = config.contraction_factor
    return _lockstep(lambda rows: _score(problem, rows), budget, len(rngs), pop,
                     lambda k: packed.observe(draw(k)),
                     lambda bits, fitness, tracker: packed.contract(tracker.best, mu))


def qiga1_evolve(
    problem: FitnessFunction, config: Qiga1Config, rng: RandomSource
) -> RunResult:
    """Order-1 rotation-gate baseline under the same budget bookkeeping.

    Each gene is an independent qubit [alpha, beta].  After evaluating a
    generation, every qubit is rotated by rotation_table[4x + 2b + c] for observed
    bit x, best bit b and c = observed-at-least-best, then clamped away from the poles by
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
    angles = np.array(config.rotation_table)  # indexed 4x + 2b + c, as rotate computes it
    gates = np.stack([np.cos(angles), -np.sin(angles), np.sin(angles)])
    state = np.full((2, runs, pop, n), math.sqrt(0.5))
    draw = _drawer(rngs, n, config.max_fitness_evaluations, pop)
    # Reused by every rotation: the flat index and the cos, -sin and sin planes it selects.
    index, rotation = np.empty((runs, pop, n), dtype=np.intp), np.empty((3, runs, pop, n))

    def observe(k: int) -> np.ndarray:
        return (draw(k) >= state[0, :, :k] ** 2).astype(np.uint8)

    def rotate(bits: np.ndarray, fitness: np.ndarray, tracker: _BestTracker) -> None:
        # Only a full generation gets here, so every individual rotates.
        at_least_best = fitness >= tracker.best_fitness[:, None]
        np.add(4 * bits + 2 * tracker.best[:, None], at_least_best[..., None], out=index)
        gates.take(index, axis=1, out=rotation, mode="clip")  # "raise" would buffer out
        # In place, bit for bit: (alpha, beta) = (cos alpha - sin beta, sin alpha + cos beta).
        rotation[1:] *= state[::-1]  # -sin * beta, sin * alpha
        np.multiply(state, rotation[0], out=state)
        np.add(state, rotation[1:], out=state)
        _clamp_poles(np.moveaxis(state, 0, -1), config.epsilon_guard)

    return _lockstep(lambda rows: np.array([problem(row) for row in rows]),
                     config.max_fitness_evaluations, runs, pop, observe, rotate)


def _clamp_poles(state: np.ndarray, eps: float) -> None:
    """Keep both qubit amplitudes at magnitude >= eps, preserving signs."""
    big = math.sqrt(1.0 - eps * eps)
    for small, other in ((state[..., 0], state[..., 1]), (state[..., 1], state[..., 0])):
        near = np.abs(small) < eps
        np.copysign(eps, small, out=small, where=near)
        np.copysign(big, other, out=other, where=near)


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
                     pop, lambda k: population[:, :k], breed)


def single_point_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, cut: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Swap the suffixes of two equal-shape parents at cut in [1, N-1].

    Parents may be single bitstrings or stacked (k, N) rows with one cut each; cut is an
    int, or an integer-dtype array for stacked rows.
    """
    if np.shape(parent_a) != np.shape(parent_b):
        raise ValueError("parents must have equal length")
    n = np.shape(parent_a)[-1]
    if not (type(cut) is int or isinstance(cut, np.ndarray) and cut.dtype.kind in "iu"):
        raise ValueError(f"cut must be an int or an integer array, got {cut!r}")
    if np.any(cut < 1) or np.any(cut > n - 1):
        raise ValueError(f"cut must be in [1, {n - 1}], got {cut}")
    suffix = np.arange(n) >= np.asarray(cut)[..., None]
    return np.where(suffix, parent_b, parent_a), np.where(suffix, parent_a, parent_b)
