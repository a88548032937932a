"""Experiment orchestration, ranking and export tests."""

import csv
import json
import logging
import pickle
import re
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import hoqiga.algorithms
import hoqiga.harness
import hoqiga.problems
from hoqiga.algorithms import QigaConfig, SgaConfig
from hoqiga.core import bits_to_string
from hoqiga.harness import (
    ALGORITHMS,
    AlgorithmSpec,
    CellResult,
    ExperimentPlan,
    ExperimentResult,
    ProblemSpec,
    RunRecord,
    export_aggregate_csv,
    export_all,
    export_convergence_svg,
    export_ranking_csv,
    export_runs_csv,
    rank_algorithms,
    run_experiment,
)
from hoqiga.metaopt import TuningSpec
from hoqiga.problems import FitnessFunction


class PickleCountingOneMax(FitnessFunction):
    """OneMax that counts, in the pickling process, how often it is pickled."""

    pickles = 0

    def __init__(self, size):
        super().__init__(size=size, name="counted")

    def batch(self, bits):
        return np.count_nonzero(bits, axis=-1).astype(np.float64)

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


class RaisingSpec(AlgorithmSpec):
    """An AlgorithmSpec whose seed groups raise when they hold a seed from 15 on.

    Defined at module level, so pool workers unpickle it by reference under
    any start method.
    """

    def run_group(self, problem, seeds, config):
        raising = [seed for seed in seeds if seed >= 15]
        if raising:
            raise ValueError(f"seed {raising[0]} raised")
        return super().run_group(problem, seeds, config)


def small_plan(**overrides):
    defaults = dict(
        problems=(ProblemSpec("om6", "onemax:6"),),
        algorithms=(
            AlgorithmSpec("qiga2", (("quantum_population_size", 5),)),
            AlgorithmSpec("sga", (("population_size", 10),)),
        ),
        runs_per_cell=3,
        base_seed=11,
        max_fitness_evaluations=100,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def dense_steps(trajectory) -> np.ndarray:
    """The (2, m) steps whose expansion is the given dense trajectory."""
    values = np.asarray(trajectory, dtype=np.float64)
    changes = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    return np.array([np.r_[0, changes, len(values)], np.r_[-np.inf, values[changes], values[-1]]])


def synthetic_result(means_by_cell, runs_per_cell=2, length=5):
    """Handmade ExperimentResult for ranking/export unit tests."""
    plan = ExperimentPlan(
        problems=tuple(
            ProblemSpec(p, "onemax:4") for p in {p for p, _ in means_by_cell}
        ),
        algorithms=tuple(
            AlgorithmSpec("qiga2", label=a) for a in {a for _, a in means_by_cell}
        ),
        runs_per_cell=runs_per_cell,
        max_fitness_evaluations=length,
    )
    cells = []
    for (problem, algorithm), mean in means_by_cell.items():
        runs = [
            RunRecord(
                seed=s,
                best_fitness=mean,
                best_bits="0000",
                steps=dense_steps(np.full(length, mean)),
            )
            for s in range(runs_per_cell)
        ]
        cells.append(
            CellResult(problem=problem, algorithm=algorithm, problem_size=4, runs=runs)
        )
    return ExperimentResult(plan=plan, cells=cells)


class TestPlanValidation:
    def test_duplicate_problem_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            small_plan(
                problems=(ProblemSpec("a", "onemax:4"), ProblemSpec("a", "onemax:6"))
            )

    def test_duplicate_algorithm_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            small_plan(
                algorithms=(AlgorithmSpec("qiga2"), AlgorithmSpec("qiga2"))
            )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            AlgorithmSpec("annealing")

    def test_qiga_r_needs_order(self):
        with pytest.raises(ValueError, match="order"):
            AlgorithmSpec("qiga-r").build(1000)

    @pytest.mark.parametrize(
        "algo_id, param",
        [("qiga2", "order"), ("qiga2", "contraction_factor"), ("qiga-r", "rotation_table"),
         ("qiga1", "mu"), ("qiga1", "max_fitness_evaluations"), ("sga", "generations"),
         ("sga", "order"), ("qiga2", "samples_per_individual"),
         ("qiga-r", "samples_per_individual")],
    )
    def test_parameter_outside_the_table_rejected_by_name(self, algo_id, param):
        spec = AlgorithmSpec(algo_id, {param: 3})
        accepted = ", ".join(ALGORITHMS[algo_id][1])
        with pytest.raises(ValueError, match=re.escape(f"{param!r}; it accepts {accepted}")):
            spec.build(1000)

    @pytest.mark.parametrize("algo_id, param", [(algo_id, param) for algo_id, (_, accepted)
                                                in ALGORITHMS.items() for param in accepted])
    def test_null_parameter_rejected_by_name(self, algo_id, param):
        params = {"order": 2, param: None} if "order" in ALGORITHMS[algo_id][1] else {param: None}
        field = {"mu": "contraction_factor"}.get(param, param)
        with pytest.raises(ValueError, match=f"^{field} must be an? .*, got None$"):
            AlgorithmSpec(algo_id, params).build(1000)

    def test_table_parameters_reach_the_config(self):
        assert AlgorithmSpec("qiga2").build(100).order == 2
        qiga = AlgorithmSpec("qiga-r", {"order": 3, "mu": 0.5}).build(100)
        assert (qiga.order, qiga.contraction_factor) == (3, 0.5)
        qiga1 = AlgorithmSpec("qiga1", {"angle": 0.2}).build(100)
        assert qiga1.rotation_table[2] == 0.2

    def test_readme_parameter_table_matches_code(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", readme, flags=re.MULTILINE)
        documented = {algo_id: tuple(re.findall(r"`([^`]+)`", params)) for algo_id, params in rows}
        assert documented == {algo_id: params for algo_id, (_, params) in ALGORITHMS.items()}

    @pytest.mark.parametrize("population", [0, 7])
    def test_sga_population_validated_before_budget(self, population):
        with pytest.raises(ValueError, match="population size must be even"):
            AlgorithmSpec("sga", {"population_size": population}).build(100)

    def test_readme_plan_keys_match_the_reader(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Plan files", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^- `(\w+)`(?: \((plan file|tuning spec)\))?:", section, re.MULTILINE)
        loaders = ((ExperimentPlan.from_json, "plan file"), (TuningSpec.from_json, "tuning spec"))
        for load, kind in loaders:
            with pytest.raises(ValueError, match="unknown top-level key 'stray'") as raised:
                load(json.dumps({"stray": 1}))
            accepted = str(raised.value).split("; expected ", 1)[1].split(", ")
            assert sorted(accepted) == sorted(key for key, only in rows if only in ("", kind))

    def test_from_json(self):
        doc = {
            "runs": 4,
            "seed": 9,
            "max_fitness_evaluations": 200,
            "problems": [{"name": "t2", "source": "trap:2"}],
            "algorithms": [
                {"id": "qiga2", "mu": 0.95},
                {"id": "sga", "population_size": 10, "label": "sga-small"},
            ],
        }
        plan = ExperimentPlan.from_json(json.dumps(doc))
        assert plan.runs_per_cell == 4
        assert plan.base_seed == 9
        assert plan.algorithms[1].label == "sga-small"
        assert dict(plan.algorithms[0].params)["mu"] == 0.95

    def test_algorithm_configs_share_budget(self):
        for spec in (
            AlgorithmSpec("qiga2"),
            AlgorithmSpec("qiga-r", (("order", 3),)),
            AlgorithmSpec("qiga1"),
            AlgorithmSpec("sga"),
        ):
            assert spec.build(5000).max_fitness_evaluations == 5000


class TestRunExperiment:
    def test_constant_problem_identical_runs(self):
        # All runs of a deterministic-outcome cell agree; std is zero.
        plan = small_plan(
            problems=(ProblemSpec("t1", "trap:1"),),
            algorithms=(AlgorithmSpec("qiga2", (("quantum_population_size", 2),)),),
            runs_per_cell=3,
            max_fitness_evaluations=50,
        )
        result = run_experiment(plan)
        cell = result.cells[0]
        assert len(cell.runs) == 3
        assert cell.maximum == cell.minimum == 1.0
        assert cell.std == 0.0

    def test_seeds_are_base_plus_index(self):
        result = run_experiment(small_plan())
        assert [r.seed for r in result.cells[0].runs] == [11, 12, 13]

    def test_deterministic_repetition(self):
        a, b = run_experiment(small_plan()), run_experiment(small_plan())
        for ca, cb in zip(a.cells, b.cells):
            assert [r.best_fitness for r in ca.runs] == [r.best_fitness for r in cb.runs]
            assert all(
                np.array_equal(ra.trajectory, rb.trajectory)
                for ra, rb in zip(ca.runs, cb.runs)
            )

    def test_parallel_matches_serial(self):
        # 7 runs per cell: the 2, 4 and 6 chunks per cell at jobs 1, 2 and 3
        # all split it unevenly.  The reference is one direct run per seed.
        plan = small_plan(runs_per_cell=7)
        problem = plan.problems[0].load()
        expected = []
        for aspec in plan.algorithms:
            runs = [(seed, aspec.run_group(problem, [seed], aspec.build(100))[0])
                    for seed in range(11, 18)]
            expected.append([
                (seed, r.best_fitness, bits_to_string(r.best_bits), r.trajectory.tobytes())
                for seed, r in runs
            ])
        for jobs in (1, 2, 3):
            result = run_experiment(small_plan(runs_per_cell=7, jobs=jobs))
            got = [
                [(r.seed, r.best_fitness, r.best_bits, r.trajectory.tobytes()) for r in cell.runs]
                for cell in result.cells
            ]
            assert got == expected, jobs

    def test_sga_cell_cuts_its_last_generation(self):
        # 100 evaluations are three sga generations of 30 and a last one cut to 10.
        spec = AlgorithmSpec("sga", {"population_size": 30})
        cells = [run_experiment(small_plan(algorithms=(spec,), jobs=jobs)).cells[0]
                 for jobs in (1, 2)]
        serial, parallel = ([(r.seed, r.best_fitness, r.best_bits, r.trajectory.tobytes())
                             for r in cell.runs] for cell in cells)
        assert not cells[0].failed and serial == parallel
        assert [len(r.trajectory) for r in cells[0].runs] == [100] * 3
        problem = small_plan().problems[0].load()
        assert [spec.run_group(problem, [r.seed], spec.build(100))[0].generations
                for r in cells[0].runs] == [4] * 3

    def test_problem_pickled_once_per_chunk(self, monkeypatch):
        monkeypatch.setattr(
            hoqiga.harness, "load_problem", lambda source, name="": PickleCountingOneMax(6)
        )
        monkeypatch.setattr(PickleCountingOneMax, "pickles", 0)
        # 2 cells x 10 runs at jobs 2: ceil(8 / 2) = 4 chunks per cell, so at
        # most 8 pickles where one task per run would make 20.
        result = run_experiment(small_plan(runs_per_cell=10, jobs=2))
        assert not result.failures
        assert sum(len(cell.runs) for cell in result.cells) == 20
        assert 0 < PickleCountingOneMax.pickles <= 8

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_seed_fails_only_its_cell(self, caplog, jobs):
        caplog.set_level(logging.DEBUG, logger="hoqiga.harness")
        qiga, sga = small_plan().algorithms
        # Seed 15 falls inside a chunk; at jobs 2 the chunk after it fails too,
        # with seed 16, and the cell keeps the first error.
        plan = small_plan(algorithms=(qiga, RaisingSpec(sga.id, sga.params)),
                          runs_per_cell=7, jobs=jobs)
        result = run_experiment(plan)
        qiga, sga = result.cells
        assert [r.seed for r in qiga.runs] == list(range(11, 18))
        assert sga.error == "seed 15 raised" and sga.runs == []
        if jobs == 1:  # pool workers log in their own processes; 2 chunks, one group each
            assert "run sga seeds 14-17 failed" in caplog.text

    def test_failed_problem_marks_cell_and_continues(self):
        plan = small_plan(
            problems=(ProblemSpec("bad", "missing.cnf"), ProblemSpec("om4", "onemax:4")),
        )
        result = run_experiment(plan)
        failed = [c for c in result.cells if c.failed]
        healthy = [c for c in result.cells if not c.failed]
        assert {c.problem for c in failed} == {"bad"}
        assert {c.problem for c in healthy} == {"om4"}
        assert all(len(c.runs) == 3 for c in healthy)
        assert result.failures == failed

    def test_budget_parity_across_cells(self):
        result = run_experiment(small_plan())
        for cell in result.cells:
            for record in cell.runs:
                assert len(record.trajectory) == 100

    def test_run_record_pickles_its_steps_not_one_value_per_evaluation(self):
        # A 5000-evaluation run rises a few dozen times at most, so its record stays small.
        plan = small_plan(problems=(ProblemSpec("om48", "onemax:48"),),
                          algorithms=(AlgorithmSpec("qiga2"),), runs_per_cell=1,
                          max_fitness_evaluations=5000)
        record = run_experiment(plan).cells[0].runs[0]
        assert len(record.trajectory) == 5000
        assert len(pickle.dumps(record)) < 4096

    def test_trajectory_endpoint_equals_best(self):
        result = run_experiment(small_plan())
        for cell in result.cells:
            assert cell.mean_trajectory[-1] == pytest.approx(cell.mean)

    def test_epistasis_trend_qiga2_vs_sga(self):
        # Expected-trend regression check, measured and frozen: on the
        # deceptive pair trap the contraction evolver beats the classical GA.
        plan = ExperimentPlan(
            problems=(ProblemSpec("trap24", "trap:24"),),
            algorithms=(AlgorithmSpec("qiga2"), AlgorithmSpec("sga")),
            runs_per_cell=30,
            base_seed=0,
            max_fitness_evaluations=5000,
        )
        result = run_experiment(plan)
        assert result.cell("trap24", "qiga2").mean >= result.cell("trap24", "sga").mean


class TestRanking:
    def test_single_problem_winner(self):
        result = synthetic_result({("p1", "a"): 5.0, ("p1", "b"): 4.0})
        ranking = rank_algorithms(result)
        assert ranking.rows == [("a", 1), ("b", 0)]
        assert ranking.first == "a"
        assert ranking.ties == []

    def test_exact_tie_awards_both_and_flags(self):
        result = synthetic_result({("p1", "a"): 5.0, ("p1", "b"): 5.0})
        ranking = rank_algorithms(result)
        assert ranking.rows == [("a", 1), ("b", 1)]
        assert ranking.ties == [("p1", ["a", "b"])]

    def test_rows_sorted_by_wins_then_label(self):
        result = synthetic_result(
            {
                ("p1", "a"): 1.0, ("p1", "b"): 2.0, ("p1", "c"): 0.0,
                ("p2", "a"): 1.0, ("p2", "b"): 0.0, ("p2", "c"): 2.0,
                ("p3", "a"): 0.0, ("p3", "b"): 3.0, ("p3", "c"): 1.0,
            }
        )
        ranking = rank_algorithms(result)
        assert ranking.rows == [("b", 2), ("c", 1), ("a", 0)]

    def test_needs_two_algorithms(self):
        result = synthetic_result({("p1", "a"): 1.0})
        with pytest.raises(ValueError):
            rank_algorithms(result)

    def test_failed_problem_excluded(self):
        result = synthetic_result({("p1", "a"): 1.0, ("p1", "b"): 2.0})
        result.cells.append(
            CellResult(problem="p2", algorithm="a", problem_size=None, error="boom")
        )
        result.cells.append(
            CellResult(
                problem="p2", algorithm="b", problem_size=4,
                runs=[RunRecord(0, 9.0, "0000", dense_steps(np.full(5, 9.0)))],
            )
        )
        ranking = rank_algorithms(result)
        assert ranking.rows == [("b", 1), ("a", 0)]


class TestExports:
    def test_runs_csv_row_count(self, tmp_path):
        result = synthetic_result(
            {("p1", "a"): 1.0, ("p1", "b"): 2.0}, runs_per_cell=2
        )
        path = export_runs_csv(result, tmp_path / "runs.csv")
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 4
        assert set(rows[0]) == {"problem", "size_N", "algorithm", "run_seed", "best_fitness"}

    def test_aggregate_matches_long_form(self, tmp_path):
        plan = small_plan()
        result = run_experiment(plan)
        runs_path = export_runs_csv(result, tmp_path / "runs.csv")
        agg_path = export_aggregate_csv(result, tmp_path / "agg.csv")
        runs_rows = list(csv.DictReader(runs_path.open()))
        agg_rows = list(csv.DictReader(agg_path.open()))
        for agg in agg_rows:
            matching = [
                float(r["best_fitness"])
                for r in runs_rows
                if r["problem"] == agg["problem"] and r["algorithm"] == agg["algorithm"]
            ]
            assert float(agg["mean"]) == pytest.approx(np.mean(matching), abs=1e-9)
            assert float(agg["min"]) == min(matching)
            assert float(agg["max"]) == max(matching)

    def test_aggregate_wins_column_sums_to_ranking(self, tmp_path):
        result = synthetic_result(
            {("p1", "a"): 3.0, ("p1", "b"): 1.0, ("p2", "a"): 0.0, ("p2", "b"): 2.0}
        )
        agg_path = export_aggregate_csv(result, tmp_path / "agg.csv")
        rows = list(csv.DictReader(agg_path.open()))
        wins = {}
        for row in rows:
            wins[row["algorithm"]] = wins.get(row["algorithm"], 0) + int(row["wins"])
        ranking = rank_algorithms(result)
        assert wins == dict(ranking.rows)

    def test_svg_one_polyline_per_algorithm(self, tmp_path):
        result = run_experiment(small_plan())
        path = export_convergence_svg(result, "om6", tmp_path / "om6.svg")
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "fitness evaluations" in text
        assert "mean best fitness" in text
        assert "qiga2" in text and "sga" in text

    def test_svg_skips_non_finite_means(self, tmp_path):
        # -inf is a legal score, so a trajectory can start at -inf, and the mean of a
        # -inf and an inf score is NaN.  Neither reaches the axes or a polyline.
        result = synthetic_result({("p", "a"): 1.0, ("p", "b"): 2.0})
        a, b = result.cells
        a.runs[0].steps = dense_steps([-np.inf, -np.inf, 2.0, 3.0, 3.0])
        b.runs[0].steps = dense_steps([np.inf, -np.inf, 1.0, 1.0, 4.0])
        b.runs[1].steps = dense_steps([-np.inf, 0.5, 1.0, 1.0, 4.0])
        assert b.runs[0].trajectory.tolist() == [np.inf, -np.inf, 1.0, 1.0, 4.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf + -inf in the mean warns nothing
            text = export_convergence_svg(result, "p", tmp_path / "p.svg").read_text()
        points = re.findall(r'points="([^"]*)"', text)
        assert [len(p.split()) for p in points] == [3, 3]
        coordinates = [float(v) for p in points for pair in p.split() for v in pair.split(",")]
        assert np.isfinite(coordinates).all()
        assert "nan" not in text and "inf" not in text

    def test_svg_unknown_problem(self, tmp_path):
        result = run_experiment(small_plan())
        with pytest.raises(ValueError):
            export_convergence_svg(result, "nope", tmp_path / "x.svg")

    def test_exports_byte_stable(self, tmp_path):
        plan = small_plan()
        for directory in ("one", "two"):
            export_all(run_experiment(plan), tmp_path / directory)
        for name in ("runs.csv", "aggregate.csv", "ranking.csv", "om6.svg"):
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second, name

    def test_ranking_csv(self, tmp_path):
        ranking = rank_algorithms(
            synthetic_result({("p1", "a"): 1.0, ("p1", "b"): 2.0})
        )
        path = export_ranking_csv(ranking, tmp_path / "ranking.csv")
        rows = list(csv.DictReader(path.open()))
        assert rows[0]["rank"] == "1"
        assert rows[0]["algorithm"] == "b"
        assert rows[0]["wins"] == "1"

    def test_svg_well_formed_for_any_name(self, tmp_path):
        names = ("a<b&c", "a>b&c")
        plan = small_plan(
            problems=tuple(ProblemSpec(name, "onemax:4") for name in names),
            algorithms=(AlgorithmSpec("qiga2", (("quantum_population_size", 5),), "q<&>"),),
            runs_per_cell=1,
        )
        written = export_all(run_experiment(plan), tmp_path)
        svgs = [path for path in written if path.suffix == ".svg"]
        assert len(set(svgs)) == 2
        titles = []
        for path in svgs:
            svg = ElementTree.parse(path)
            texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
            assert "q<&>" in texts
            titles.append(texts[0])
        assert titles == list(names)

    def test_export_all_with_failed_cell(self, tmp_path):
        plan = small_plan(
            problems=(ProblemSpec("bad", "missing.cnf"), ProblemSpec("om4", "onemax:4")),
        )
        result = run_experiment(plan)
        written = export_all(result, tmp_path / "out")
        names = {p.name for p in written}
        assert "runs.csv" in names and "aggregate.csv" in names
        assert "om4.svg" in names and "bad.svg" not in names


class NanOneMax(FitnessFunction):
    """Scores every bitstring NaN, so a run never finds a best individual."""

    def __init__(self, size):
        super().__init__(size=size, name="nan")

    def batch(self, bits):
        return np.full(np.shape(bits)[:-1], np.nan)


class TestLockstepGroups:
    @pytest.mark.parametrize("engine, algorithm, amplitudes", [
        # onemax:6 at order 2 counts 3 * 4 amplitudes per run.
        pytest.param("qiga_lockstep", small_plan().algorithms[0], 36, id="qiga2"),
        # qiga1 with 3 quantum individuals on onemax:6 counts 2 * 3 * 6 = 36 amplitudes per run.
        pytest.param("qiga1_lockstep", AlgorithmSpec("qiga1", (("quantum_population_size", 3),)),
                     108, id="qiga1"),
        # sga with 10 individuals on onemax:6 counts 10 * 6 = 60 bits per run.
        pytest.param("sga_lockstep", small_plan().algorithms[1], 180, id="sga"),
    ])
    def test_small_group_budget_splits_a_chunk_without_changing_results(
        self, monkeypatch, engine, algorithm, amplitudes
    ):
        # Four cells at jobs 1 make one 7-seed chunk per cell, and each budget splits
        # the onemax:6 chunk into groups of 3, 3 and 1 seeds.
        problems = tuple(ProblemSpec(source, source)
                         for source in ("onemax:6", "trap:3", "onemax:5", "trap:2"))
        plan = small_plan(problems=problems, algorithms=(algorithm,), runs_per_cell=7)
        whole = run_experiment(plan)
        groups = []
        lockstep = getattr(hoqiga.algorithms, engine)

        def spy(problem, config, rngs):
            groups.append([rng.seed for rng in rngs])
            return lockstep(problem, config, rngs)

        monkeypatch.setattr(hoqiga.harness, engine, spy)
        monkeypatch.setattr(hoqiga.algorithms, "LOCKSTEP_CELLS", amplitudes)
        split = run_experiment(plan)
        assert groups[:3] == [[11, 12, 13], [14, 15, 16], [17]]

        def records(cell):
            return [(r.seed, r.best_fitness, r.best_bits, r.trajectory.tobytes())
                    for r in cell.runs]

        assert [records(cell) for cell in split.cells] == [records(cell) for cell in whole.cells]
        problem, aspec = problems[0].load(), plan.algorithms[0]
        direct = [aspec.run_group(problem, [seed], aspec.build(100))[0] for seed in range(11, 18)]
        assert records(split.cells[0]) == [
            (seed, r.best_fitness, bits_to_string(r.best_bits), r.trajectory.tobytes())
            for seed, r in zip(range(11, 18), direct)
        ]

    @pytest.mark.parametrize("config, too_many_genes", [
        # 65536 // (2 * 10 * 250) = 13 qiga1 seeds per group on a 250-gene problem.
        pytest.param(AlgorithmSpec("qiga1").build(5000), 10**5, id="qiga1"),
        # 65536 // (20 * 250) = 13 sga seeds per group on a 250-gene problem.
        pytest.param(SgaConfig(population_size=20, max_fitness_evaluations=20 * 250), 10**4,
                     id="sga"),
    ])
    def test_groups_fill_the_amplitude_budget(self, config, too_many_genes):
        assert hoqiga.algorithms.lockstep_group_size(config, 250) == 13
        assert hoqiga.algorithms.lockstep_group_size(config, too_many_genes) == 1

    @pytest.mark.parametrize("genes, order, runs", [
        # 125 order-2 registers count 125 * 4 = 500 amplitudes per run: 65536 // 500 = 131.
        pytest.param(250, 2, 131, id="250-order-2"),
        # 83 order-3 registers and one order-1 tail count 83 * 8 + 2 = 666: 65536 // 666 = 98.
        pytest.param(250, 3, 98, id="250-order-3-short-tail"),
        # onemax:6 at order 2 counts 3 * 4 = 12 amplitudes per run: 65536 // 12 = 5461.
        pytest.param(6, 2, 5461, id="6-order-2"),
    ])
    def test_qiga_groups_count_the_chromosome_amplitudes(self, genes, order, runs):
        assert hoqiga.algorithms.lockstep_group_size(QigaConfig(order=order), genes) == runs

    def test_failing_group_logs_its_seed_range(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="hoqiga.harness")
        monkeypatch.setattr(hoqiga.harness, "load_problem",
                            lambda source, name="": NanOneMax(6) if source == "nan" else
                            hoqiga.problems.load_problem(source, name))
        # Four cells at jobs 1 make one chunk per cell, so qiga2 runs seeds 11-17 as one group.
        plan = small_plan(problems=(ProblemSpec("nan6", "nan"), ProblemSpec("om6", "onemax:6")),
                          runs_per_cell=7)
        result = run_experiment(plan)
        error = result.cell("nan6", "qiga2").error
        assert error.startswith("no fitness above -inf in 5 evaluations")
        assert len(result.cell("om6", "qiga2").runs) == 7
        assert "run qiga2 seeds 11-17 failed" in caplog.text
        assert "run sga seeds 11-17 failed" in caplog.text

    def test_failing_sga_group_logs_its_seed_range(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="hoqiga.harness")
        monkeypatch.setattr(hoqiga.harness, "load_problem",
                            lambda source, name="": NanOneMax(6) if source == "nan" else
                            hoqiga.problems.load_problem(source, name))
        # Two cells at jobs 1 make two chunks per cell, so sga runs seeds 11-13 as one group.
        plan = small_plan(problems=(ProblemSpec("nan6", "nan"),), runs_per_cell=7)
        result = run_experiment(plan)
        assert result.cell("nan6", "sga").error.startswith(
            "generation 1: non-finite fitness (NaN, inf or -inf)")
        assert result.cell("nan6", "sga").runs == []
        assert "run sga seeds 11-13 failed" in caplog.text

    def test_failing_qiga1_group_logs_its_seed_range(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="hoqiga.harness")
        monkeypatch.setattr(hoqiga.harness, "load_problem",
                            lambda source, name="": NanOneMax(6) if source == "nan" else
                            hoqiga.problems.load_problem(source, name))
        # Two cells at jobs 1 make two chunks per cell, so qiga1 runs seeds 11-13 as one group.
        plan = small_plan(problems=(ProblemSpec("nan6", "nan"),), runs_per_cell=7,
                          algorithms=(AlgorithmSpec("qiga1"), AlgorithmSpec("qiga2")))
        result = run_experiment(plan)
        assert result.cell("nan6", "qiga1").error.startswith(
            "no fitness above -inf in 10 evaluations")
        assert "run qiga1 seeds 11-13 failed" in caplog.text
