"""Grid-search tuning of the contraction factor over a problem suite.

Each candidate value runs the full suite with identical seeds; per-problem
mean best fitnesses are min-max normalized across candidates so no single
large problem dominates, and the candidate with the best mean normalized
score wins.  Ties go to the smaller (less greedy) value and are flagged.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .harness import AlgorithmSpec, ExperimentPlan, ProblemSpec, run_experiment


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
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "problems", tuple(self.problems))
        if not self.grid:
            raise ValueError("tuning grid must be non-empty")
        if any(not 0.0 < g < 1.0 for g in self.grid):
            raise ValueError(f"all grid values must be in (0, 1), got {self.grid}")
        if not self.problems:
            raise ValueError("tuning suite must contain at least one problem")
        if self.runs_per_candidate < 1:
            raise ValueError("runs per candidate must be >= 1")

    @classmethod
    def from_json(cls, text: str) -> "TuningSpec":
        doc = json.loads(text)
        return cls(
            grid=tuple(doc["grid"]),
            problems=tuple(
                ProblemSpec(name=e["name"], source=e["source"]) for e in doc["problems"]
            ),
            runs_per_candidate=doc.get("runs", 20),
            base_seed=doc.get("seed", 0),
            max_fitness_evaluations=doc.get("max_fitness_evaluations", 5000),
            order=doc.get("order", 2),
            quantum_population_size=doc.get("quantum_population_size", 10),
            jobs=doc.get("jobs", 1),
        )


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
    """Score every grid candidate with the harness and pick the best."""
    raw = np.empty((len(spec.grid), len(spec.problems)))
    for c_idx, mu in enumerate(spec.grid):
        plan = ExperimentPlan(
            problems=spec.problems,
            algorithms=(
                AlgorithmSpec(
                    id="qiga-r",
                    params=(
                        ("mu", mu),
                        ("order", spec.order),
                        ("quantum_population_size", spec.quantum_population_size),
                    ),
                ),
            ),
            runs_per_cell=spec.runs_per_candidate,
            base_seed=spec.base_seed,
            max_fitness_evaluations=spec.max_fitness_evaluations,
            jobs=spec.jobs,
        )
        result = run_experiment(plan)
        failed = result.failures
        if failed:
            raise ValueError(f"tuning suite problem failed to load or run: {failed[0].error}")
        raw[c_idx] = [cell.mean for cell in result.cells]

    spans = raw.max(axis=0) - raw.min(axis=0)
    normalized = np.zeros_like(raw)
    informative = spans > 0
    normalized[:, informative] = (raw[:, informative] - raw.min(axis=0)[informative]) / spans[
        informative
    ]
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
    path = Path(path)
    with path.open("w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        header = ["mu", "score", "best"]
        header += [f"mean:{p}" for p in result.problems]
        header += [f"norm:{p}" for p in result.problems]
        writer.writerow(header)
        for i, mu in enumerate(result.candidates):
            row: list[Any] = [repr(mu), repr(float(result.scores[i])), int(i == result.best_index)]
            row += [repr(float(v)) for v in result.raw_means[i]]
            row += [repr(float(v)) for v in result.normalized[i]]
            writer.writerow(row)
    return path
