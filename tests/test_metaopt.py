"""Contraction-factor grid-search tests."""

import csv
import json

import numpy as np
import pytest

import hoqiga.harness
import hoqiga.metaopt
from hoqiga.harness import AlgorithmSpec, ExperimentPlan, ProblemSpec, run_experiment
from hoqiga.metaopt import TuningSpec, export_tuning_csv, tune


def quick_spec(grid, problems=None, runs=3, maxfe=200):
    return TuningSpec(
        grid=grid,
        problems=problems or (ProblemSpec("om6", "onemax:6"),),
        runs_per_candidate=runs,
        base_seed=5,
        max_fitness_evaluations=maxfe,
    )


def reference_tune(spec):
    """Raw means, normalized means and scores from one run_experiment call per candidate."""
    raw = np.empty((len(spec.grid), len(spec.problems)))
    for c_idx, mu in enumerate(spec.grid):
        params = (
            ("mu", mu),
            ("order", spec.order),
            ("quantum_population_size", spec.quantum_population_size),
        )
        plan = ExperimentPlan(
            problems=spec.problems,
            algorithms=(AlgorithmSpec("qiga-r", params),),
            runs_per_cell=spec.runs_per_candidate,
            base_seed=spec.base_seed,
            max_fitness_evaluations=spec.max_fitness_evaluations,
        )
        raw[c_idx] = [cell.mean for cell in run_experiment(plan).cells]
    spans = raw.max(axis=0) - raw.min(axis=0)
    normalized = np.zeros_like(raw)
    informative = spans > 0
    normalized[:, informative] = (raw[:, informative] - raw.min(axis=0)[informative]) / spans[
        informative
    ]
    return raw, normalized, normalized.mean(axis=1)


class TestTuningSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            quick_spec(())

    def test_rejects_out_of_range_candidates(self):
        with pytest.raises(ValueError):
            quick_spec((0.5, 1.0))

    def test_rejects_empty_suite(self):
        with pytest.raises(ValueError):
            TuningSpec(grid=(0.9,), problems=())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"jobs": 0},
            {"max_fitness_evaluations": 0},
            {"problems": (ProblemSpec("om", "onemax:6"), ProblemSpec("om", "onemax:8"))},
        ],
    )
    def test_rejects_invalid_plan_at_construction(self, overrides):
        fields = {"grid": (0.9,), "problems": (ProblemSpec("om6", "onemax:6"),)}
        with pytest.raises(ValueError):
            TuningSpec(**{**fields, **overrides})

    @pytest.mark.parametrize(
        "overrides, message",
        [({"order": 0}, "order must be >= 1"),
         ({"order": 31}, r"order must be in \[1, 30\], got 31"),
         ({"order": 10}, "order 10 exceeds the gene count 6 of suite problem 'om6'"),
         ({"max_fitness_evaluations": 5}, "cannot cover one generation")],
    )
    def test_rejects_invalid_candidate_config_before_any_run(self, monkeypatch, overrides, message):
        calls = []
        monkeypatch.setattr(hoqiga.metaopt, "run_experiment", calls.append)
        with pytest.raises(ValueError, match=message):
            tune(TuningSpec(grid=(0.5,), problems=(ProblemSpec("om6", "onemax:6"),), **overrides))
        assert calls == []

    @pytest.mark.parametrize("grid, shown", [
        (("0.5", "0.9"), "'0.5'"),  # float() would have turned these into numbers
        ((True,), "True"),  # and this bool into 1.0
        ((0.5, None), "None"),
        ((float("nan"),), "nan"),
    ])
    def test_rejects_a_grid_value_that_is_not_a_finite_real(self, grid, shown):
        message = f"grid value must be a finite real number, got {shown}"
        with pytest.raises(ValueError, match=message):
            quick_spec(grid)

    def test_from_json_rejects_string_grid_values(self):
        doc = {"grid": ["0.5", "0.9"], "problems": [{"name": "t2", "source": "trap:2"}]}
        with pytest.raises(ValueError, match="grid value must be a finite real number, got '0.5'"):
            TuningSpec.from_json(json.dumps(doc))

    def test_from_json(self):
        doc = {
            "grid": [0.5, 0.9],
            "problems": [{"name": "t2", "source": "trap:2"}],
            "runs": 2,
            "seed": 1,
            "max_fitness_evaluations": 100,
        }
        spec = TuningSpec.from_json(json.dumps(doc))
        assert spec.grid == (0.5, 0.9)
        assert spec.runs_per_candidate == 2


class TestTune:
    def test_loads_each_suite_problem_once(self, monkeypatch):
        sources, load = [], hoqiga.harness.load_problem

        def spy(source, **kwargs):
            sources.append(source)
            return load(source, **kwargs)

        monkeypatch.setattr(hoqiga.harness, "load_problem", spy)
        tune(quick_spec((0.5, 0.9), (ProblemSpec("om8", "onemax:8"),
                                     ProblemSpec("sat20", "3sat:20:86:1"))))
        assert sources == ["onemax:8", "3sat:20:86:1"]

    def test_single_candidate_wins_trivially(self):
        result = tune(quick_spec((0.9,)))
        assert result.best_value == 0.9
        assert not result.tie

    def test_identical_candidates_tie_first_returned(self):
        result = tune(quick_spec((0.9, 0.9)))
        assert result.tie
        assert result.best_index == 0

    def test_deterministic(self):
        spec = quick_spec((0.5, 0.9))
        a, b = tune(spec), tune(spec)
        assert np.array_equal(a.scores, b.scores)
        assert a.best_value == b.best_value

    def test_normalization_bounds(self):
        result = tune(quick_spec((0.3, 0.6, 0.9)))
        assert np.all(result.normalized >= 0.0) and np.all(result.normalized <= 1.0)

    def test_paper_scale_grid_prefers_high_contraction(self):
        # Expected-trend check: the winner lands on one of the two
        # near-converging values, consistent with tuning toward ~0.99.
        spec = TuningSpec(
            grid=(0.5, 0.9, 0.99),
            problems=(ProblemSpec("trap24", "trap:24"), ProblemSpec("om48", "onemax:48")),
            runs_per_candidate=20,
            base_seed=0,
            max_fitness_evaluations=5000,
        )
        result = tune(spec)
        assert result.best_value in (0.9, 0.99)

    def test_near_one_never_dominates_deceptive_suite(self):
        # mu ~ 1 barely updates within the budget (exploration only); it must
        # not strictly dominate a converging candidate.
        spec = TuningSpec(
            grid=(0.9, 0.999999),
            problems=(ProblemSpec("trap8", "trap:8"),),
            runs_per_candidate=10,
            base_seed=3,
            max_fitness_evaluations=2000,
        )
        result = tune(spec)
        assert not (result.best_value == 0.999999 and not result.tie)

    def test_runs_the_grid_as_one_plan(self, monkeypatch):
        cell_counts = []

        def counting_run_experiment(plan):
            result = run_experiment(plan)
            cell_counts.append(len(result.cells))
            return result

        monkeypatch.setattr(hoqiga.metaopt, "run_experiment", counting_run_experiment)
        problems = (ProblemSpec("om6", "onemax:6"), ProblemSpec("t2", "trap:2"))
        result = tune(quick_spec((0.5, 0.9, 0.9), problems=problems))
        assert cell_counts == [3 * 2]
        assert result.raw_means.shape == (3, 2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_one_run_per_candidate_bitwise(self, jobs):
        # Nine problems, so each score sums more values than numpy's 8-way
        # unrolled pairwise sum, whose order depends on the memory layout; on
        # this suite a column-major score table changes the scores' last bits.
        sources = ["3sat:30:128:1", "3sat:40:170:2", "onemax:20", "onemax:30", "onemax:40",
                   "trap:8", "trap:10", "trap:12", "trap:14"]
        spec = TuningSpec(
            grid=(0.5, 0.7, 0.8, 0.9, 0.9),
            problems=tuple(ProblemSpec(s, s) for s in sources),
            runs_per_candidate=3,
            base_seed=0,
            max_fitness_evaluations=120,
            jobs=jobs,
        )
        result = tune(spec)
        for got, want in zip(
            (result.raw_means, result.normalized, result.scores), reference_tune(spec)
        ):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_failed_suite_problem_raises(self):
        spec = quick_spec((0.9,), problems=(ProblemSpec("bad", "missing.cnf"),))
        with pytest.raises(ValueError, match="failed to load"):
            tune(spec)


class TestTuningExport:
    def test_csv_structure(self, tmp_path):
        result = tune(quick_spec((0.5, 0.9)))
        path = export_tuning_csv(result, tmp_path / "scores.csv")
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 2
        assert {"mu", "score", "best", "mean:om6", "norm:om6"} <= set(rows[0])
        assert sum(int(r["best"]) for r in rows) == 1

    def test_csv_byte_stable(self, tmp_path):
        spec = quick_spec((0.5, 0.9))
        export_tuning_csv(tune(spec), tmp_path / "a.csv")
        export_tuning_csv(tune(spec), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
