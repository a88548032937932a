"""Fitness backends: DIMACS (W)CNF MAX-SAT plus synthetic test landscapes,
onemax and the pair trap, each one table of the block-table landscape."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .core import BitString, RandomSource, check_int, check_real


def _check_weight(weight: float) -> None:
    """Reject a clause weight that is not positive and finite (NaN fails both)."""
    if not 0 < weight < np.inf:
        raise ValueError(f"clause weights must be positive and finite, got {weight}")


class DimacsParseError(ValueError):
    """Malformed DIMACS input, with the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass
class CnfFormula:
    """A CNF formula in DIMACS convention.

    Clauses are tuples of nonzero signed integers: positive k is variable k,
    negative k its negation.  Variable k reads bit k-1 of an assignment.
    Optional per-clause weights, each positive and finite, make the
    satisfied-clause count weighted.
    """

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        self.clauses = tuple(tuple(c) for c in self.clauses)
        check_int("variable count", self.variable_count, 1)
        if not self.clauses:
            raise ValueError("formula has no clauses, so every assignment would score 0")
        for i, clause in enumerate(self.clauses):
            if not clause:
                raise ValueError(f"clause {i} is empty")
            for lit in clause:
                check_int(f"clause {i} literal", lit)
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(
                        f"clause {i} literal {lit} out of range for "
                        f"{self.variable_count} variables"
                    )
        if self.weights is not None:
            self.weights = tuple(float(w) for w in self.weights)
            if len(self.weights) != len(self.clauses):
                raise ValueError(
                    f"{len(self.weights)} weights for {len(self.clauses)} clauses"
                )
            for w in self.weights:
                _check_weight(w)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @cached_property
    def _packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """Literal matrix for vectorised evaluation.

        Returns (var_index, negated, weight, literal): all but weight (None if unweighted)
        have shape (width, clauses), so the OR over a clause runs along the short leading
        axis; negated is uint8, the dtype of sampled bits.  literal = var_index + variables
        * negated (summed from the bool mask, so it cannot wrap) indexes the gene-major table
        [genes != 0, genes != 1].  Short clauses repeat their first literal (OR unchanged).
        """
        width = max(len(c) for c in self.clauses)
        lits = np.array([c + c[:1] * (width - len(c)) for c in self.clauses]).T.copy()
        var, neg = np.abs(lits) - 1, lits < 0
        w = None if self.weights is None else np.array(self.weights)
        return var, neg.astype(np.uint8), w, var + self.variable_count * neg


def parse_dimacs(source: str | IO[str]) -> CnfFormula:
    """Parse DIMACS CNF or WCNF text.

    Comment lines start with 'c'; a line starting with '%' ends the input
    (common end-of-file marker in benchmark archives).  The header is
    "p cnf <vars> <clauses>" or "p wcnf <vars> <clauses> [top]"; in wcnf each
    clause starts with its weight.  Clauses are 0-terminated and may span
    lines.  The clause count must match the header.
    """
    text = source if isinstance(source, str) else source.read()
    header: tuple[str, int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    weights: list[float] = []
    current: list[int] = []
    pending_weight: float | None = None
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        last_line = lineno
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if header is None:
            parts = line.split()
            if len(parts) < 4 or parts[0] != "p" or parts[1] not in ("cnf", "wcnf"):
                raise DimacsParseError(
                    f"expected 'p cnf <vars> <clauses>' header, got {line!r}", lineno
                )
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError(f"non-integer header counts in {line!r}", lineno)
            header = (parts[1], n_vars, n_clauses)
            continue

        fmt, n_vars, n_clauses = header
        for token in line.split():
            if fmt == "wcnf" and pending_weight is None and not current:
                try:
                    pending_weight = float(token)
                except ValueError:
                    raise DimacsParseError(f"expected clause weight, got {token!r}", lineno)
                try:
                    _check_weight(pending_weight)
                except ValueError as exc:
                    raise DimacsParseError(str(exc), lineno) from None
                continue
            try:
                lit = int(token)
            except ValueError:
                raise DimacsParseError(f"expected literal, got {token!r}", lineno)
            if lit == 0:
                if not current:
                    raise DimacsParseError("empty clause", lineno)
                clauses.append(tuple(current))
                if fmt == "wcnf":
                    weights.append(pending_weight)  # type: ignore[arg-type]
                current = []
                pending_weight = None
            else:
                if abs(lit) > n_vars:
                    raise DimacsParseError(
                        f"literal {lit} out of range for {n_vars} variables", lineno
                    )
                current.append(lit)

    if header is None:
        raise DimacsParseError("missing 'p cnf' header")
    if current or pending_weight is not None:
        raise DimacsParseError("unterminated final clause", last_line)
    fmt, n_vars, n_clauses = header
    if len(clauses) != n_clauses:
        raise DimacsParseError(
            f"header declares {n_clauses} clauses, found {len(clauses)}", last_line
        )
    return CnfFormula(n_vars, tuple(clauses), tuple(weights) if fmt == "wcnf" else None)


def to_dimacs(formula: CnfFormula) -> str:
    """Serialize back to DIMACS; parse(to_dimacs(f)) reproduces f."""
    fmt = "wcnf" if formula.is_weighted else "cnf"
    lines = [f"p {fmt} {formula.variable_count} {formula.clause_count}"]
    for i, clause in enumerate(formula.clauses):
        body = " ".join(str(lit) for lit in clause)
        if formula.is_weighted:
            w = formula.weights[i]
            wtext = str(int(w)) if w == int(w) else repr(w)
            lines.append(f"{wtext} {body} 0")
        else:
            lines.append(f"{body} 0")
    return "\n".join(lines) + "\n"


class FitnessFunction:
    """A pure objective over fixed-length bitstrings, maximised.

    A subclass defines one evaluator and inherits the other form from it:

    * ``batch(bits)`` over an array of shape ``(..., size)``, returning one
      float64 per bitstring (a scalar for a single bitstring); ``__call__``
      is then ``float(batch(bits))``.  The value for a bitstring must not
      depend on the rows it is batched with, so ``batch(X)[i] == f(X[i])``
      holds bitwise.
    * or ``__call__(bits)`` over one bitstring; ``batch`` then loops over the
      rows of a ``(k, size)`` array.

    Defining neither is a TypeError at construction.
    """

    def __init__(self, size: int, optimum: float | None = None, name: str = ""):
        check_int("problem size", size, 1)
        cls = type(self)
        if cls.__call__ is FitnessFunction.__call__ and cls.batch is FitnessFunction.batch:
            raise TypeError(f"{cls.__name__} must define batch() or __call__()")
        self.size = size
        self.optimum = optimum
        self.name = name or cls.__name__

    def __call__(self, bits: BitString) -> float:
        return float(self.batch(bits))

    def batch(self, bits2d: np.ndarray) -> np.ndarray:
        return np.array([self(row) for row in bits2d])

    def _rows(self, bits: np.ndarray) -> np.ndarray:
        """bits as an array whose last axis has the problem size."""
        bits = np.asarray(bits)
        if bits.ndim == 0 or bits.shape[-1] != self.size:
            raise ValueError(f"expected {self.size} bits, got shape {bits.shape}")
        return bits

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.size}, name={self.name!r})"


class MaxSat(FitnessFunction):
    """(Weighted) satisfied-clause count of a CNF formula: unweighted batches count exactly,
    gathered gene-major; a weighted formula sums each row's weights row-major."""

    def __init__(self, formula: CnfFormula, name: str = ""):
        super().__init__(
            size=formula.variable_count,
            optimum=None,
            name=name or f"maxsat-{formula.variable_count}v{formula.clause_count}c",
        )
        self.formula = formula

    def batch(self, bits: np.ndarray) -> np.ndarray:
        var, neg, w, lit = self.formula._packed
        bits = self._rows(bits)
        if w is None and bits.ndim > 1:  # a count is exact in any order
            table = np.concatenate([bits.T != 0, bits.T != 1])  # (2n, ...): take() copies rows
            satisfied = np.logical_or.reduce(table.take(lit, axis=0))  # (clauses, ...)
            flat = satisfied.reshape(len(satisfied), -1).astype(np.float64)
            # Every partial sum is an integer below 2**53, so the dot counts exactly.
            return (np.ones(len(flat)) @ flat).reshape(satisfied.shape[1:]).T
        # take() keeps every intermediate C-contiguous, so each row's weighted
        # sum runs in the same order at any batch shape.
        satisfied = np.logical_or.reduce(bits.take(var, axis=-1) != neg, axis=-2)
        return np.float64(np.count_nonzero(satisfied)) if w is None else (satisfied * w).sum(-1)


def maxsat_fitness(formula: CnfFormula, bits: BitString) -> float:
    """Sum of weights of clauses with at least one true literal."""
    return MaxSat(formula)(bits)


class BlockTable(FitnessFunction):
    """Sum of table[ones in the block] over blocks of k = len(table) - 1 consecutive genes.

    table is a flat sequence of at least 2 finite reals, bools excluded; blocks
    score independently, so the optimum is the float blocks * max(table).  Each
    block's value is one float, summed in block order.  Rows must be 0/1 and
    are not checked: a block that sums above k raises IndexError.
    """

    def __init__(self, blocks: int, table, name: str = ""):
        check_int("block count", blocks, 1)
        if len(table) < 2:
            raise ValueError(f"block table must hold at least 2 values, got {len(table)}")
        for value in table:
            check_real("block table value", value)
        self.table = np.array(table, dtype=np.float64)
        self.block_size = len(self.table) - 1
        super().__init__(blocks * self.block_size, blocks * float(self.table.max()), name)

    def batch(self, bits: np.ndarray) -> np.ndarray:
        bits, k = self._rows(bits), self.block_size
        # Count in intp (bool + bool is or); strided slices beat a sum over a short axis.
        ones = bits[..., ::k].astype(np.intp)
        for j in range(1, k):
            ones += bits[..., j::k]
        return np.add.reduce(self.table.take(ones), axis=-1)


def onemax(n: int) -> BlockTable:
    """Count of 1-bits; separable, optimum is the all-ones string."""
    check_int("problem size", n, 1)
    return BlockTable(n, (0.0, 1.0), f"onemax-{n}")


def pair_trap(pairs: int, optimum_value: float = 1.0, attractor_value: float = 0.9,
              mixed_value: float = 0.0) -> BlockTable:
    """Deceptive adjacent-pair trap.

    Each gene pair scores optimum_value for 00, attractor_value for 11 and
    mixed_value for 01/10, so single-bit moves away from 00 are punished and
    the all-ones string is a strong but strictly suboptimal attractor.
    Requires finite reals with optimum_value > attractor_value > mixed_value.
    """
    check_int("pair count", pairs, 1)
    check_real("optimum_value", optimum_value)
    check_real("attractor_value", attractor_value)
    check_real("mixed_value", mixed_value)
    if not optimum_value > attractor_value > mixed_value:
        raise ValueError(
            "trap needs optimum_value > attractor_value > mixed_value, got "
            f"{optimum_value}, {attractor_value}, {mixed_value}"
        )
    return BlockTable(pairs, (optimum_value, mixed_value, attractor_value), f"pairtrap-{pairs}")


def generate_uniform_3sat(n_vars: int, clause_count: int, rng: RandomSource) -> CnfFormula:
    """Random 3-SAT: three distinct variables per clause, each sign a coin flip."""
    check_int("variable count", n_vars)
    if n_vars < 3:
        raise ValueError(f"uniform 3-SAT needs at least 3 variables, got {n_vars}")
    check_int("clause count", clause_count, 1)
    if clause_count > 10**6:
        raise ValueError(f"clause count must be <= 1000000, got {clause_count}")
    clauses = []
    for _ in range(clause_count):
        variables = rng.gen.choice(n_vars, size=3, replace=False) + 1
        signs = np.where(rng.gen.random(3) < 0.5, -1, 1)
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return CnfFormula(n_vars, tuple(clauses))


def _spec_ints(form: str, rest: str) -> list[int]:
    """The integer fields after a spec's kind, one per field of form, each plain ASCII digits."""
    fields = rest.split(":")
    if len(fields) != form.count(":"):
        raise ValueError(f"expected {form}, got {rest!r}")
    for text in fields:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"expected a decimal integer, got {text!r}")
    return [int(text) for text in fields]


def load_problem(source: str, name: str = "") -> FitnessFunction:
    """Resolve a problem reference to a fitness function.

    Synthetic specs: "onemax:N", "trap:PAIRS" (pair_trap's default values)
    and "3sat:VARS:CLAUSES:SEED" (generated on the fly, deterministic in
    SEED), each integer field in plain ASCII digits.  Anything else is read
    as a DIMACS CNF/WCNF file path.  Failures raise "cannot load problem ...".
    """
    kind, _, rest = source.partition(":")
    try:
        if kind == "onemax":
            problem = onemax(*_spec_ints("onemax:N", rest))
        elif kind == "trap":
            problem = pair_trap(*_spec_ints("trap:PAIRS", rest))
        elif kind == "3sat":
            n_vars, clause_count, seed = _spec_ints("3sat:VARS:CLAUSES:SEED", rest)
            formula = generate_uniform_3sat(n_vars, clause_count, RandomSource(seed))
            problem = MaxSat(formula, name=f"3sat-{n_vars}v{clause_count}c-s{seed}")
        else:
            with open(source, "r", encoding="ascii") as handle:
                problem = MaxSat(parse_dimacs(handle))
    except (ValueError, OSError) as exc:
        raise ValueError(f"cannot load problem {source!r}: {exc}") from exc
    if name:
        problem.name = name
    return problem
