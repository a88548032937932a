"""Grid-search tuning of the contraction factor over a problem suite.

The grid runs as one experiment plan, one qiga-r candidate per value on seeds
base_seed + r, so jobs spread over every candidate x problem cell.  Per-problem
mean best fitnesses are min-max normalized across candidates so no single
large problem dominates, and the candidate with the best mean normalized
score wins.  Ties go to the smaller (less greedy) value and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import check_order, check_real
from .harness import (AlgorithmSpec, ExperimentPlan, ProblemSpec, read_plan_document,
                      run_experiment, write_csv)


@dataclass(frozen=True)
class TuningSpec:
    """A contraction-factor grid to score over a problem suite."""

    grid: tuple[float, ...]
    problems: tuple[ProblemSpec, ...]
    runs_per_candidate: int = 20
    base_seed: int = 0
    max_fitness_evaluations: int = 5000
    order: int = 2
    quantum_population_size: int = 10
    jobs: int = 1

    def __post_init__(self):
        grid = tuple(self.grid)
        for value in grid:  # before float(), which takes "0.5" and turns True into 1.0
            check_real("grid value", value)
        object.__setattr__(self, "grid", tuple(float(g) for g in grid))
        object.__setattr__(self, "problems", tuple(self.problems))
        if not self.grid:
            raise ValueError("tuning grid must be non-empty")
        for candidate in self.plan.algorithms:  # the plan checks suite, runs, budget and jobs
            candidate.build(self.max_fitness_evaluations)  # QigaConfig owns mu, order, size, budget
        for name, problem in self.plan.loaded.items():  # one that fails to load fails in tune()
            try:
                check_order(self.order, None if isinstance(problem, Exception) else problem.size)
            except ValueError as exc:
                raise ValueError(f"{exc} of suite problem {name!r}") from exc

    @cached_property
    def plan(self) -> ExperimentPlan:
        """The grid as one plan: candidate i is qiga-r with mu = grid[i], labelled mu[i]."""
        fixed = (("order", self.order), ("quantum_population_size", self.quantum_population_size))
        return ExperimentPlan(
            problems=self.problems,
            algorithms=tuple(
                AlgorithmSpec("qiga-r", (("mu", mu), *fixed), f"mu[{i}]")
                for i, mu in enumerate(self.grid)
            ),
            runs_per_cell=self.runs_per_candidate,
            base_seed=self.base_seed,
            max_fitness_evaluations=self.max_fitness_evaluations,
            jobs=self.jobs,
        )

    @classmethod
    def from_json(cls, text: str) -> "TuningSpec":
        """Spec from a JSON document; see README for its keys."""
        fields, own = read_plan_document(text, 20, ("grid", "order", "quantum_population_size"))
        fields["runs_per_candidate"] = fields.pop("runs_per_cell")
        return cls(grid=own.pop("grid", ()), **fields, **own)


@dataclass
class TuningResult:
    """Scores of every candidate; best_value resolves ties to the smaller one."""

    best_value: float
    best_index: int
    tie: bool
    candidates: tuple[float, ...]
    problems: tuple[str, ...]
    raw_means: np.ndarray
    normalized: np.ndarray
    scores: np.ndarray


def tune(spec: TuningSpec) -> TuningResult:
    """Run spec.plan in one call, jobs over all its cells; results match a call per candidate.

    A suite problem that fails to load or run raises ValueError after every cell has run.
    """
    result = run_experiment(spec.plan)
    if result.failures:
        raise ValueError(f"tuning suite problem failed to load or run: {result.failures[0].error}")
    # Cells are problem-major; a C-order copy keeps each score's sum in per-candidate order.
    raw = np.reshape([cell.mean for cell in result.cells], (len(spec.problems), -1)).T.copy()

    spans = raw.max(axis=0) - raw.min(axis=0)
    normalized = np.divide(raw - raw.min(axis=0), spans, out=np.zeros_like(raw), where=spans > 0)
    scores = normalized.mean(axis=1)

    top = scores.max()
    winners = [i for i, s in enumerate(scores) if s == top]
    best_index = min(winners, key=lambda i: (spec.grid[i], i))
    return TuningResult(
        best_value=spec.grid[best_index],
        best_index=best_index,
        tie=len(winners) > 1,
        candidates=spec.grid,
        problems=tuple(p.name for p in spec.problems),
        raw_means=raw,
        normalized=normalized,
        scores=scores,
    )


def export_tuning_csv(result: TuningResult, path: str | Path) -> Path:
    """One row per candidate: its score plus raw and normalized per-problem means."""
    header = ["mu", "score", "best"]
    header += [f"mean:{p}" for p in result.problems]
    header += [f"norm:{p}" for p in result.problems]
    rows = (
        [repr(mu), repr(float(result.scores[i])), int(i == result.best_index)]
        + [repr(float(v)) for v in (*result.raw_means[i], *result.normalized[i])]
        for i, mu in enumerate(result.candidates)
    )
    return write_csv(path, header, rows)
