"""Experiment orchestration: repeated seeded runs, aggregation and export.

A plan is the cross product of problems and algorithms; each cell runs a
fixed number of independent seeded runs under one shared evaluation budget.
Results aggregate into long-form and summary CSV files plus convergence SVG
plots, all byte-stable for identical inputs.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from html import escape
from pathlib import Path
from typing import Any

import numpy as np

from .algorithms import (Qiga1Config, QigaConfig, RunResult, SgaConfig, default_rotation_table,
                         lockstep_group_size, qiga1_lockstep, qiga_lockstep, sga_lockstep)
from .core import RandomSource, bits_to_string, check_int
from .problems import FitnessFunction, load_problem

logger = logging.getLogger(__name__)

# Each algorithm id's config type and the plan parameters it accepts; nothing else lists them.
ALGORITHMS = {
    "qiga2": (QigaConfig, ("mu", "quantum_population_size")),
    "qiga-r": (QigaConfig, ("mu", "order", "quantum_population_size")),
    "qiga1": (Qiga1Config, ("angle", "epsilon_guard", "quantum_population_size")),
    "sga": (SgaConfig, ("population_size", "crossover_probability", "mutation_probability")),
}


@dataclass(frozen=True)
class ProblemSpec:
    """A problem reference: display name plus path or generator spec."""

    name: str
    source: str

    def __post_init__(self):
        for key in ("name", "source"):
            if not getattr(self, key):
                raise ValueError(f"problem {key} must not be empty")

    def load(self) -> FitnessFunction:
        return load_problem(self.source, name=self.name)


@dataclass(frozen=True)
class AlgorithmSpec:
    """An algorithm id with parameter overrides; label defaults to the id."""

    id: str
    params: tuple[tuple[str, Any], ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.id not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.id!r}, expected one of {tuple(ALGORITHMS)}")
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        if not self.label:
            object.__setattr__(self, "label", self.id)

    def build(self, max_fitness_evaluations: int):
        """Materialise the config for this spec under the shared budget.

        Only the given params are passed on, mu as the contraction factor and an angle
        as the rotation table; other knobs keep their defaults.  The config checks
        every value, the budget too; an unaccepted param or a missing order raises naming it.
        """
        config_type, accepted = ALGORITHMS[self.id]
        params = dict(self.params)
        for key in params:
            if key not in accepted:
                raise ValueError(
                    f"{self.id} takes no parameter {key!r}; it accepts {', '.join(accepted)}"
                )
        if "order" in accepted and "order" not in params:  # qiga2 runs at the default order 2
            raise ValueError(f"{self.id} requires an 'order' parameter")
        if "mu" in params:
            params["contraction_factor"] = params.pop("mu")
        if "angle" in params:
            params["rotation_table"] = default_rotation_table(params.pop("angle"))
        return config_type(max_fitness_evaluations=max_fitness_evaluations, **params)

    def run_group(self, problem: FitnessFunction, seeds, config) -> list[RunResult]:
        """One run per seed with a config from build(), advanced together by its lockstep engine."""
        lockstep = {QigaConfig: qiga_lockstep, Qiga1Config: qiga1_lockstep,
                    SgaConfig: sga_lockstep}[type(config)]
        return lockstep(problem, config, [RandomSource(seed) for seed in seeds])


@dataclass(frozen=True)
class ExperimentPlan:
    """Problems x algorithms, runs_per_cell seeded runs each, one shared budget."""

    problems: tuple[ProblemSpec, ...]
    algorithms: tuple[AlgorithmSpec, ...]
    runs_per_cell: int = 50
    base_seed: int = 0
    max_fitness_evaluations: int = 5000
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.problems:
            raise ValueError("plan needs at least one problem")
        if not self.algorithms:
            raise ValueError("plan needs at least one algorithm")
        for name, least in (("runs_per_cell", 1), ("base_seed", 0),
                            ("max_fitness_evaluations", 1), ("jobs", 1)):
            check_int(name, getattr(self, name), least)
        names = [p.name for p in self.problems]
        if len(set(names)) != len(names):
            raise ValueError(f"problem names must be unique, got {names}")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"algorithm labels must be unique, got {labels}")

    @cached_property
    def loaded(self) -> dict[str, FitnessFunction | Exception]:
        """Each problem name's loaded problem, or the exception its load raised; cached per plan."""
        loaded: dict[str, FitnessFunction | Exception] = {}
        for spec in self.problems:
            try:
                loaded[spec.name] = spec.load()
            except Exception as exc:
                logger.warning("problem %s failed to load: %s", spec.name, exc)
                loaded[spec.name] = exc
        return loaded

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        """Plan from a JSON document; see README for the schema."""
        fields, own = read_plan_document(text, 50, ("algorithms",))
        algorithms = []
        for entry in own.get("algorithms", ()):
            params = {key: value for key, value in entry.items() if key not in ("id", "label")}
            algorithms.append(AlgorithmSpec(entry.get("id", ""), params, entry.get("label", "")))
        return cls(algorithms=tuple(algorithms), **fields)


def read_plan_document(text: str, runs: int, own_keys: tuple[str, ...]) -> tuple[dict, dict]:
    """The ExperimentPlan fields ("runs" defaults to runs) and own_keys entries of a document.

    The one reader of the keys plan files and tuning specs share.  An unknown key, a key
    repeated in any object, "problems", "algorithms" or "grid" not a list (of objects,
    but "grid"), or an entry's name, source, id or label not a string raises naming it.
    """
    doc = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(doc, dict):
        raise ValueError(f"plan file must hold a JSON object, got {type(doc).__name__}")
    accepted = ("problems", "runs", "seed", "max_fitness_evaluations", "jobs", *own_keys)
    for key, value in doc.items():
        if key not in accepted:
            raise ValueError(f"unknown top-level key {key!r}; expected {', '.join(accepted)}")
        if key in ("problems", "algorithms", "grid") and not isinstance(value, list):
            raise ValueError(f"{key!r} must be a list, got {value!r}")
        if key in ("problems", "algorithms") and not all(isinstance(e, dict) for e in value):
            raise ValueError(f"{key!r} must be a list of objects, got {value!r}")
        for name in {"problems": ("name", "source"), "algorithms": ("id", "label")}.get(key, ()):
            for entry in value:
                if not isinstance(entry.get(name, ""), str):
                    raise ValueError(f"{name!r} in {key!r} must be a string, got {entry[name]!r}")
    fields = {
        "problems": tuple(ProblemSpec(**entry) for entry in doc.get("problems", ())),
        "runs_per_cell": doc.get("runs", runs),
        "base_seed": doc.get("seed", 0),
        "max_fitness_evaluations": doc.get("max_fitness_evaluations", 5000),
        "jobs": doc.get("jobs", 1),
    }
    return fields, {key: doc[key] for key in own_keys if key in doc}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises a ValueError naming it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


@dataclass
class RunRecord:
    """One run inside a cell; steps and trajectory are RunResult's."""

    seed: int
    best_fitness: float
    best_bits: str
    steps: np.ndarray

    trajectory = RunResult.trajectory


@dataclass
class CellResult:
    """All runs of one (problem, algorithm) cell, or why it failed.

    A cell fails when its problem does not load or any of its runs raises;
    a failed cell keeps no runs.
    """

    problem: str
    algorithm: str
    problem_size: int | None
    runs: list[RunRecord] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def best_fitnesses(self) -> np.ndarray:
        return np.array([r.best_fitness for r in self.runs])

    @property
    def mean(self) -> float:
        return float(self.best_fitnesses.mean())

    @property
    def std(self) -> float:
        return float(self.best_fitnesses.std())

    @property
    def minimum(self) -> float:
        return float(self.best_fitnesses.min())

    @property
    def maximum(self) -> float:
        return float(self.best_fitnesses.max())

    @property
    def mean_trajectory(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # inf and -inf at one evaluation give NaN
            return np.mean([r.trajectory for r in self.runs], axis=0)


@dataclass
class ExperimentResult:
    """Cells in plan order plus the plan parameters that produced them."""

    plan: ExperimentPlan
    cells: list[CellResult]

    @property
    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.failed]

    def cell(self, problem: str, algorithm: str) -> CellResult:
        for c in self.cells:
            if c.problem == problem and c.algorithm == algorithm:
                return c
        raise KeyError(f"no cell ({problem!r}, {algorithm!r})")

    def problems(self) -> list[str]:
        return list(dict.fromkeys(c.problem for c in self.cells))

    def algorithms(self) -> list[str]:
        return list(dict.fromkeys(c.algorithm for c in self.cells))

    @cached_property
    def ranking(self) -> RankingTable | None:
        """rank_algorithms of these cells, computed once; None when no ranking exists."""
        try:
            return rank_algorithms(self)
        except ValueError:
            return None


def _execute_chunk(task: tuple[AlgorithmSpec, FitnessFunction, range, int]) -> list | str:
    """The RunRecords of one chunk of a cell's seeds, or the error that fails its cell.

    The chunk, a contiguous seed range, is the unit of dispatch: its problem is pickled
    once and its config built once.  The chunk runs as lockstep groups of
    lockstep_group_size seeds, one algo.run_group call each, for every id.  Results are
    the same as one run per seed; a failure is logged with its group's seed range.
    """
    algo, problem, seeds, budget = task
    records, group = [], seeds  # the whole chunk, if build raises
    try:
        config = algo.build(budget)
        size = lockstep_group_size(config, problem.size)
        for first in range(0, len(seeds), size):
            group = seeds[first : first + size]
            records += [RunRecord(seed, r.best_fitness, bits_to_string(r.best_bits), r.steps)
                        for seed, r in zip(group, algo.run_group(problem, group, config))]
    except Exception as exc:  # isolated to its cell; bench reports it and exits 3
        span = f"seed {group[0]}" if len(group) == 1 else f"seeds {group[0]}-{group[-1]}"
        logger.debug("run %s %s failed", algo.label, span, exc_info=True)
        return str(exc)
    return records


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Execute every cell of the plan.

    Run r of every cell uses seed base_seed + r.  A problem that fails to load,
    or a run that raises, fails only its cell.  The unit of dispatch is a chunk
    of one cell's seeds (ceil(4 * jobs / cells) per cell, at most one per run):
    each problem is pickled once per chunk, and every chunk runs its seeds in
    lockstep groups bounded by state size.  Neither chunks, groups nor jobs change
    results.
    """
    cells: list[CellResult] = []
    owners: list[CellResult] = []
    tasks = []
    runs = plan.runs_per_cell
    chunks = min(runs, -(-4 * plan.jobs // (len(plan.problems) * len(plan.algorithms))))
    bounds = [plan.base_seed + runs * i // chunks for i in range(chunks + 1)]
    for name, problem in plan.loaded.items():
        for aspec in plan.algorithms:
            if isinstance(problem, Exception):
                cells.append(CellResult(name, aspec.label, None, error=str(problem)))
                continue
            cells.append(CellResult(name, aspec.label, problem.size))
            for lo, hi in zip(bounds, bounds[1:]):
                owners.append(cells[-1])
                tasks.append((aspec, problem, range(lo, hi), plan.max_fitness_evaluations))

    if plan.jobs == 1:
        outcomes = list(map(_execute_chunk, tasks))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=plan.jobs) as pool:
            outcomes = list(pool.map(_execute_chunk, tasks))

    for cell, outcome in zip(owners, outcomes):  # in order, so a cell keeps its first error
        if cell.failed:
            continue
        if isinstance(outcome, list):
            cell.runs.extend(outcome)
        else:
            cell.error, cell.runs = outcome, []
    return ExperimentResult(plan=plan, cells=cells)


@dataclass
class RankingTable:
    """Win counts per algorithm: one win per problem with the top mean.

    winners maps every ranked problem to its sorted winning labels.
    """

    rows: list[tuple[str, int]]
    winners: dict[str, list[str]]

    @property
    def ties(self) -> list[tuple[str, list[str]]]:
        return [(problem, labels) for problem, labels in self.winners.items() if len(labels) > 1]

    @property
    def first(self) -> str:
        return self.rows[0][0]


def rank_algorithms(result: ExperimentResult) -> RankingTable:
    """Count, per problem, which algorithm reached the best mean best-fitness.

    Exact mean ties award a win to every tied algorithm and are flagged.
    Problems with any failed cell are excluded.  Rows sort by wins descending,
    then by label for stable output.
    """
    algorithms = result.algorithms()
    if len(algorithms) < 2:
        raise ValueError("ranking needs at least two algorithms")
    wins = {label: 0 for label in algorithms}
    winners: dict[str, list[str]] = {}
    for problem in result.problems():
        cells = [c for c in result.cells if c.problem == problem]
        if any(c.failed for c in cells):
            continue
        best = max(c.mean for c in cells)
        winners[problem] = sorted(c.algorithm for c in cells if c.mean == best)
        for label in winners[problem]:
            wins[label] += 1
    if not winners:
        raise ValueError("ranking needs at least one fully successful problem")
    rows = sorted(wins.items(), key=lambda kv: (-kv[1], kv[0]))
    return RankingTable(rows=rows, winners=winners)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write header and rows as CSV with "\n" line ends; every export goes through here."""
    path = Path(path)
    with path.open("w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_runs_csv(result: ExperimentResult, path: str | Path) -> Path:
    """Long-form CSV: one row per run."""
    rows = (
        [cell.problem, cell.problem_size, cell.algorithm, record.seed, _fmt(record.best_fitness)]
        for cell in result.cells
        for record in cell.runs
    )
    return write_csv(path, ["problem", "size_N", "algorithm", "run_seed", "best_fitness"], rows)


def export_aggregate_csv(result: ExperimentResult, path: str | Path) -> Path:
    """Summary CSV: one row per cell, with the ranking's per-problem win marker."""
    winners = result.ranking.winners if result.ranking is not None else {}
    rows = (
        [cell.problem, cell.algorithm, "", "", "", "", ""] if cell.failed
        else [cell.problem, cell.algorithm, _fmt(cell.mean), _fmt(cell.std),
              _fmt(cell.minimum), _fmt(cell.maximum),
              int(cell.algorithm in winners[cell.problem]) if cell.problem in winners else ""]
        for cell in result.cells
    )
    return write_csv(path, ["problem", "algorithm", "mean", "std", "min", "max", "wins"], rows)


def export_ranking_csv(ranking: RankingTable, path: str | Path) -> Path:
    tied_counts: dict[str, int] = {}
    for _problem, winners in ranking.ties:
        for label in winners:
            tied_counts[label] = tied_counts.get(label, 0) + 1
    rows = (
        [rank, label, count, tied_counts.get(label, 0)]
        for rank, (label, count) in enumerate(ranking.rows, start=1)
    )
    return write_csv(path, ["rank", "algorithm", "wins", "tied_wins"], rows)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_SVG_W, _SVG_H = 840, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 55
_MAX_POINTS = 400


def _svg_text(x, y, body, size: int, anchor: str = "", extra: str = "") -> str:
    """A sans-serif <text> tag with x and y written as given and body escaped."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    extra = f" {extra}" if extra else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{escape(str(body))}</text>')


def _svg_line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def export_convergence_svg(
    result: ExperimentResult, problem: str, path: str | Path
) -> Path:
    """Mean best-so-far fitness versus evaluation count, one polyline per algorithm."""
    cells = [c for c in result.cells if c.problem == problem and not c.failed]
    if not cells:
        raise ValueError(f"no successful cells for problem {problem!r}")
    curves = [(c.algorithm, c.mean_trajectory) for c in cells]
    length = len(curves[0][1])
    # -inf is a legal score, so a mean can be non-finite: the axes span finite means only.
    finite = np.concatenate([t[np.isfinite(t)] for _, t in curves])
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def x_at(evaluation: float) -> float:
        return _MARGIN_L + plot_w * evaluation / max(length - 1, 1)

    def y_at(value: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (value - lo) / (hi - lo))

    sample = np.unique(np.linspace(0, length - 1, min(_MAX_POINTS, length)).round().astype(int))
    axis_y, mid_y = _MARGIN_T + plot_h, f"{_MARGIN_T + plot_h / 2:.1f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        _svg_text(_SVG_W // 2, 24, problem, 16, "middle"),
        _svg_line(_MARGIN_L, axis_y, _MARGIN_L + plot_w, axis_y, "black", 1),
        _svg_line(_MARGIN_L, _MARGIN_T, _MARGIN_L, axis_y, "black", 1),
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        value = lo + (hi - lo) * frac
        x_tick = f"{_MARGIN_L + plot_w * frac:.1f}"
        parts.append(_svg_text(x_tick, axis_y + 18, int(round(frac * length)), 11, "middle"))
        parts.append(_svg_text(_MARGIN_L - 8, f"{y_at(value) + 4:.1f}", f"{value:.6g}", 11, "end"))
    parts.append(_svg_text(f"{_MARGIN_L + plot_w / 2:.1f}", _SVG_H - 12,
                           "fitness evaluations", 13, "middle"))
    parts.append(_svg_text(18, mid_y, "mean best fitness", 13, "middle",
                           f'transform="rotate(-90 18 {mid_y})"'))
    for k, (label, trajectory) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        shown = sample[np.isfinite(trajectory[sample])]  # a non-finite mean gets no point
        points = " ".join(f"{x_at(i):.2f},{y_at(float(trajectory[i])):.2f}" for i in shown)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = _MARGIN_T + 16 + 18 * k
        lx = _MARGIN_L + plot_w + 12
        parts.append(_svg_line(lx, ly - 4, lx + 22, ly - 4, color, 1.5))
        parts.append(_svg_text(lx + 28, ly, label, 12))
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path


def export_all(result: ExperimentResult, outdir: str | Path) -> list[Path]:
    """Write runs.csv, aggregate.csv, ranking.csv and one SVG per problem.

    SVG file names keep a problem name's letters, digits and "-_."; names
    that map to the same file name get suffixes -2, -3, ... in plan order.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = [
        export_runs_csv(result, outdir / "runs.csv"),
        export_aggregate_csv(result, outdir / "aggregate.csv"),
    ]
    if result.ranking is not None:
        written.append(export_ranking_csv(result.ranking, outdir / "ranking.csv"))
    stems: set[str] = set()
    for problem in result.problems():
        if all(c.failed for c in result.cells if c.problem == problem):
            continue
        safe = stem = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in problem)
        suffix = 1
        while stem in stems:
            suffix += 1
            stem = f"{safe}-{suffix}"
        stems.add(stem)
        written.append(export_convergence_svg(result, problem, outdir / f"{stem}.svg"))
    return written
