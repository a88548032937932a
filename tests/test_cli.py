"""CLI surface tests: flags, exit codes, file outputs, determinism."""

import csv
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hoqiga.harness
import hoqiga.metaopt
from hoqiga.algorithms import QigaConfig, qiga_evolve
from hoqiga.cli import main
from hoqiga.core import (QuantumRegister, RandomSource, chromosome_layout, register_basis,
                         register_uniform)
from hoqiga.harness import AlgorithmSpec, ProblemSpec
from hoqiga.metaopt import TuningSpec
from hoqiga.problems import FitnessFunction, onemax, parse_dimacs


class NanProblem(FitnessFunction):
    """Every bitstring scores NaN, so no run ever finds a best individual."""

    def __init__(self, size):
        super().__init__(size=size, name="nan")

    def batch(self, bits):
        return np.full(np.shape(bits)[:-1], np.nan)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_qiga2_onemax(self, capsys):
        code, out, _ = invoke(
            capsys, "run", "--algo", "qiga2", "--problem", "onemax:8", "--seed", "7"
        )
        assert code == 0
        assert "best_fitness 8.0" in out
        assert "evaluations 5000" in out

    def test_deterministic_stdout(self, capsys):
        args = ("run", "--algo", "sga", "--problem", "trap:2", "--seed", "1",
                "--maxfe", "500")
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second
        assert first[0] == 0

    def test_each_algorithm_runs(self, capsys):
        for algo in ("qiga2", "qiga1", "sga"):
            code, out, _ = invoke(
                capsys, "run", "--algo", algo, "--problem", "onemax:6",
                "--maxfe", "200" if algo != "sga" else "200", "--seed", "3",
            )
            assert code == 0, algo
            assert "best_fitness" in out

    def test_qiga_r_with_order(self, capsys):
        code, out, _ = invoke(
            capsys, "run", "--algo", "qiga-r", "--order", "3", "--problem", "onemax:9",
            "--maxfe", "300", "--seed", "2",
        )
        assert code == 0
        assert "best_fitness" in out

    def test_order_zero_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "run", "--algo", "qiga-r", "--order", "0", "--problem", "onemax:8"
        )
        assert code == 1
        assert "order must be >= 1" in err

    def test_order_on_non_r_algo_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "run", "--algo", "sga", "--order", "2", "--problem", "onemax:8"
        )
        assert code == 1

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "run", "--algo", "qiga2", "--problem", "onemax:8", "--turbo"
        )
        assert code == 1

    def test_missing_problem_is_runtime_error(self, capsys):
        code, _, err = invoke(
            capsys, "run", "--algo", "qiga2", "--problem", "ghost.cnf"
        )
        assert code == 2
        assert "cannot load" in err

    def test_lax_integer_in_problem_spec_is_runtime_error(self, capsys):
        code, out, err = invoke(
            capsys, "run", "--algo", "qiga2", "--problem", "onemax:4_0", "--maxfe", "20"
        )
        assert code == 2 and out == ""
        assert "cannot load problem 'onemax:4_0': expected a decimal integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--algo", "sga", "--maxfe", "50"),
            ("--algo", "qiga2", "--maxfe", "5"),
            ("--algo", "qiga2", "--mu", "1.5"),
            ("--algo", "qiga1", "--mu", "0.9"),
            ("--algo", "qiga2", "--seed", "-1"),
        ],
    )
    def test_bad_flag_values_are_usage_errors(self, capsys, argv):
        code, _, err = invoke(capsys, "run", *argv, "--problem", "onemax:8")
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "algo, flag, param",
        [("qiga2", "--order", "order"), ("qiga1", "--mu", "mu"), ("sga", "--order", "order"),
         ("sga", "--mu", "mu")],
    )
    def test_parameter_the_algorithm_does_not_take_is_usage_error(self, capsys, algo, flag, param):
        code, _, err = invoke(
            capsys, "run", "--algo", algo, flag, "2", "--problem", "onemax:8", "--maxfe", "200"
        )
        assert code == 1
        assert f"{algo} takes no parameter {param!r}" in err

    def test_qiga_r_without_order_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "run", "--algo", "qiga-r", "--problem", "onemax:8")
        assert code == 1
        assert "requires an 'order'" in err

    def test_config_built_once(self, capsys, monkeypatch):
        built = []
        build = AlgorithmSpec.build
        monkeypatch.setattr(
            AlgorithmSpec, "build", lambda spec, budget: built.append(budget) or build(spec, budget)
        )
        code, _, _ = invoke(capsys, "run", "--algo", "qiga1", "--problem", "onemax:6",
                            "--maxfe", "120", "--seed", "2")
        assert code == 0
        assert built == [120]

    def test_mu_default_comes_from_config(self, capsys):
        args = ("run", "--algo", "qiga2", "--problem", "trap:3", "--maxfe", "300", "--seed", "5")
        assert invoke(capsys, *args) == invoke(capsys, *args, "--mu", "0.9918")

    def test_trajectory_csv(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = invoke(
            capsys, "run", "--algo", "qiga2", "--problem", "onemax:6",
            "--maxfe", "120", "--seed", "4", "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.open()))
        assert len(rows) == 120
        assert rows[0]["evaluation"] == "1"
        values = [float(r["best_so_far"]) for r in rows]
        assert values == sorted(values)


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["run", "--help"], ["bench", "--help"], ["theory", "--help"],
         ["gen", "--help"], ["meta", "--help"]],
    )
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_python_dash_m_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run([sys.executable, "-m", "hoqiga", "theory", "--n-range", "2:3",
                               "--orders", "1"], env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("N\tr\t")


class TestTheoryCommand:
    def test_table_values(self, capsys):
        code, out, _ = invoke(capsys, "theory", "--n-range", "10:10", "--orders", "1,2,10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["N", "r", "w", "log2_lambda", "lambda", "class"]
        row_one = lines[1].split("\t")
        assert row_one[0] == "10" and row_one[1] == "1"
        assert float(row_one[4]) == pytest.approx(0.01953125, abs=1e-12)
        assert row_one[5] == "quantum-inspired"
        row_full = lines[3].split("\t")
        assert float(row_full[4]) == 1.0
        assert row_full[5] == "true-quantum"

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _, _ = invoke(
            capsys, "theory", "--n-range", "2:6", "--orders", "1,2", "--csv", str(path)
        )
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert all(float(r["lambda"]) <= 1.0 for r in rows)

    def test_fifty_qubit_factor_below_threshold(self, capsys):
        code, out, _ = invoke(capsys, "theory", "--n-range", "50:50", "--orders", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert float(row[4]) < 1e-10

    def test_bad_range_usage_error(self, capsys):
        assert invoke(capsys, "theory", "--n-range", "five:ten")[0] == 1


class TestGenCommand:
    def test_deterministic_and_round_trips(self, capsys, tmp_path):
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        for path in (a, b):
            code, out, _ = invoke(
                capsys, "gen", "--vars", "12", "--clauses", "40", "--seed", "3",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        formula = parse_dimacs(a.read_text())
        assert formula.variable_count == 12
        assert formula.clause_count == 40
        assert a.read_text().startswith("p cnf 12 40\n")

    def test_ratio_flag(self, capsys, tmp_path):
        path = tmp_path / "r.cnf"
        code, _, _ = invoke(
            capsys, "gen", "--vars", "10", "--ratio", "4.3", "--seed", "1",
            "--out", str(path),
        )
        assert code == 0
        assert parse_dimacs(path.read_text()).clause_count == 43

    def test_out_over_an_existing_file_replaces_it(self, capsys, tmp_path):
        # A hard link to the old file keeps the old bytes: gen creates a new file in
        # place of the old one instead of truncating it.
        path, fresh, link = tmp_path / "a.cnf", tmp_path / "fresh.cnf", tmp_path / "link.cnf"
        gen = ("gen", "--vars", "12", "--clauses", "40")
        assert invoke(capsys, *gen, "--seed", "3", "--out", str(path))[0] == 0
        old = path.read_bytes()
        link.hardlink_to(path)
        assert invoke(capsys, *gen, "--seed", "4", "--out", str(path))[0] == 0
        assert invoke(capsys, *gen, "--seed", "4", "--out", str(fresh))[0] == 0
        assert path.read_bytes() == fresh.read_bytes() != old
        assert link.read_bytes() == old

    def test_out_to_a_fifo_writes_through_it(self, capsys, tmp_path):
        # Only a regular file is replaced: a FIFO (like /dev/null or /dev/stdout, which
        # the test must not touch) stays where it is and receives the formula.
        fifo, fresh = tmp_path / "out.cnf", tmp_path / "fresh.cnf"
        os.mkfifo(fifo)
        gen = ("gen", "--vars", "12", "--clauses", "40", "--seed", "3", "--out")
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open at once
        try:
            assert invoke(capsys, *gen, str(fifo))[0] == 0
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert invoke(capsys, *gen, str(fresh))[0] == 0
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert received == fresh.read_bytes()

    def test_requires_exactly_one_size_flag(self, capsys):
        assert invoke(capsys, "gen", "--vars", "10", "--out", "x.cnf")[0] == 1
        assert invoke(
            capsys, "gen", "--vars", "10", "--clauses", "5", "--ratio", "4.0",
            "--out", "x.cnf",
        )[0] == 1

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--vars", "2", "--clauses", "5"), "at least 3 variables"),
            (("--vars", "10", "--ratio", "-1"), "clause count must be >= 1"),
            (("--vars", "10", "--ratio", "nan"), "--ratio must be a finite real number, got nan"),
            (("--vars", "10", "--ratio", "inf"), "--ratio must be a finite real number, got inf"),
            (("--vars", "5", "--ratio", "1e308"), "clause count from --ratio must be a finite"),
            (("--vars", "10", "--clauses", "5", "--seed", "-1"), "seed must be"),
            (("--vars", "5", "--ratio", "1e300"),
             "error: clause count must be <= 1000000, got 5e+300 from --ratio\n"),
        ],
    )
    def test_bad_flag_values_are_usage_errors(self, capsys, tmp_path, argv, named):
        path = tmp_path / "x.cnf"
        code, _, err = invoke(capsys, "gen", *argv, "--out", str(path))
        assert code == 1
        assert err.startswith("error: ") and named in err
        assert not path.exists()


# Each case turns a valid plan file or tuning spec into one the reader rejects,
# with the text naming the key or field that its error message must contain.
MALFORMED_DOCUMENTS = [
    pytest.param(lambda doc: {**doc, "problems": [{"name": "om6"}]},
                 "missing 1 required positional argument: 'source'", id="no-source"),
    pytest.param(
        lambda doc: {**doc, "problems": [{"name": "om6", "source": "onemax:6", "sorce": "x"}]},
        "unexpected keyword argument 'sorce'", id="stray-problem-key",
    ),
    pytest.param(lambda doc: {**doc, "problems": [{"name": "", "source": "onemax:6"}]},
                 "problem name must not be empty", id="empty-name"),
    pytest.param(lambda doc: {**doc, "problems": [{"name": "om6", "source": ""}]},
                 "problem source must not be empty", id="empty-source"),
    pytest.param(lambda doc: {**doc, "runs": "3"}, "runs_per_cell", id="string-runs"),
    pytest.param(lambda doc: {**doc, "runs": True}, "runs_per_cell", id="bool-runs"),
    pytest.param(lambda doc: {**doc, "max_fitness_evaluations": 10.5},
                 "max_fitness_evaluations", id="float-budget"),
    pytest.param(lambda doc: {**doc, "seed": -1}, "base_seed", id="negative-seed"),
    pytest.param(lambda doc: {**doc, "run": 2}, "unknown top-level key 'run'", id="misspelt-runs"),
    pytest.param(lambda doc: [1, 2], "JSON object", id="not-an-object"),
]


class TestBenchCommand:
    @staticmethod
    def write_plan(tmp_path, problems=None):
        plan = {
            "runs": 2,
            "seed": 3,
            "max_fitness_evaluations": 100,
            "problems": problems
            or [{"name": "om6", "source": "onemax:6"}, {"name": "t2", "source": "trap:2"}],
            "algorithms": [
                {"id": "qiga2", "quantum_population_size": 5},
                {"id": "sga", "population_size": 10},
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_bench_writes_outputs(self, capsys, tmp_path):
        plan = self.write_plan(tmp_path)
        outdir = tmp_path / "out"
        code, out, _ = invoke(capsys, "bench", "--plan", str(plan), "--outdir", str(outdir))
        assert code == 0
        for name in ("runs.csv", "aggregate.csv", "ranking.csv", "om6.svg", "t2.svg"):
            assert (outdir / name).exists(), name
        rows = list(csv.DictReader((outdir / "runs.csv").open()))
        assert len(rows) == 2 * 2 * 2
        assert "ranking:" in out

    def test_bench_byte_identical_reruns(self, capsys, tmp_path):
        plan = self.write_plan(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert invoke(capsys, "bench", "--plan", str(plan), "--outdir", str(out1))[0] == 0
        assert invoke(capsys, "bench", "--plan", str(plan), "--outdir", str(out2))[0] == 0
        for child in sorted(out1.iterdir()):
            assert child.read_bytes() == (out2 / child.name).read_bytes(), child.name

    def test_partial_failure_exit_code(self, capsys, tmp_path):
        plan = self.write_plan(
            tmp_path,
            problems=[
                {"name": "om6", "source": "onemax:6"},
                {"name": "bad", "source": "missing.cnf"},
            ],
        )
        outdir = tmp_path / "out"
        code, _, err = invoke(capsys, "bench", "--plan", str(plan), "--outdir", str(outdir))
        assert code == 3
        assert "failed: bad" in err
        assert (outdir / "runs.csv").exists()

    def test_run_time_failure_fails_only_its_cell(self, capsys, tmp_path):
        plan = json.loads(self.write_plan(tmp_path).read_text())
        plan["problems"] = [
            {"name": "om4", "source": "onemax:4"}, {"name": "t3", "source": "trap:3"},
        ]
        plan["algorithms"].append({"id": "qiga-r", "order": 6})
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        outputs = []
        for jobs in ("1", "2"):
            outdir = tmp_path / f"out{jobs}"
            code, _, err = invoke(
                capsys, "bench", "--plan", str(tmp_path / "plan.json"),
                "--outdir", str(outdir), "--jobs", jobs,
            )
            assert code == 3
            assert "failed: om4 / qiga-r" in err
            rows = list(csv.DictReader((outdir / "runs.csv").open()))
            cells = {(r["problem"], r["algorithm"]) for r in rows}
            assert len(rows) == 5 * 2
            assert ("om4", "qiga-r") not in cells and ("t3", "qiga-r") in cells
            outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
        assert outputs[0] == outputs[1]

    def test_problem_without_best_fails_only_its_cells(self, capsys, tmp_path, monkeypatch):
        real_load = hoqiga.harness.load_problem
        monkeypatch.setattr(
            hoqiga.harness, "load_problem",
            lambda source, name="": NanProblem(6) if source == "nan:6" else real_load(source, name),
        )
        plan = json.loads(self.write_plan(tmp_path).read_text())
        plan["problems"].append({"name": "nan6", "source": "nan:6"})
        plan["algorithms"] = [{"id": "qiga2", "quantum_population_size": 5}, {"id": "qiga1"}]
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        for jobs in ("1", "2"):
            outdir = tmp_path / f"out{jobs}"
            code, _, err = invoke(
                capsys, "bench", "--plan", str(tmp_path / "plan.json"),
                "--outdir", str(outdir), "--jobs", jobs,
            )
            assert code == 3
            for algo in ("qiga2", "qiga1"):
                assert f"failed: nan6 / {algo}: no fitness above -inf" in err
            rows = list(csv.DictReader((outdir / "runs.csv").open()))
            assert len(rows) == 2 * 2 * 2
            assert "nan6" not in {r["problem"] for r in rows}

    def test_non_finite_weight_problem_fails_only_its_cells(self, capsys, tmp_path):
        wcnf = tmp_path / "nan.wcnf"
        wcnf.write_text("p wcnf 2 2\nnan 1 2 0\n1 -1 0\n")
        plan = json.loads(self.write_plan(tmp_path).read_text())
        plan["problems"].append({"name": "nanw", "source": str(wcnf)})
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        for jobs in ("1", "2"):
            outdir = tmp_path / f"out{jobs}"
            code, _, err = invoke(
                capsys, "bench", "--plan", str(tmp_path / "plan.json"),
                "--outdir", str(outdir), "--jobs", jobs,
            )
            assert code == 3
            for algo in ("qiga2", "sga"):
                assert f"failed: nanw / {algo}" in err
            assert "line 2: clause weights must be positive and finite" in err
            rows = list(csv.DictReader((outdir / "runs.csv").open()))
            assert len(rows) == 2 * 2 * 2
            assert "nanw" not in {r["problem"] for r in rows}

    def test_formula_without_clauses_fails_only_its_cells(self, capsys, tmp_path):
        cnf = tmp_path / "empty.cnf"
        cnf.write_text("p cnf 3 0\n")
        plan = json.loads(self.write_plan(tmp_path).read_text())
        plan["problems"].append({"name": "empty", "source": str(cnf)})
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        outdir = tmp_path / "out"
        code, _, err = invoke(
            capsys, "bench", "--plan", str(tmp_path / "plan.json"), "--outdir", str(outdir)
        )
        assert code == 3
        failed = [line for line in err.splitlines() if line.startswith("failed: ")]
        assert [line.split(":")[1].strip() for line in failed] == ["empty / qiga2", "empty / sga"]
        for line in failed:
            assert "cannot load problem" in line and "formula has no clauses" in line
        rows = list(csv.DictReader((outdir / "runs.csv").open()))
        assert len(rows) == 2 * 2 * 2
        assert "empty" not in {r["problem"] for r in rows}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("angle, shown", [(float("nan"), "nan"), (None, "None")])
    def test_bad_angle_fails_only_its_cells(self, capsys, tmp_path, jobs, angle, shown):
        plan = json.loads(self.write_plan(tmp_path).read_text())
        plan["algorithms"].append({"id": "qiga1", "angle": angle})
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        assert f'"angle": {json.dumps(angle)}' in (tmp_path / "plan.json").read_text()
        outdir = tmp_path / "out"
        code, _, err = invoke(
            capsys, "bench", "--plan", str(tmp_path / "plan.json"),
            "--outdir", str(outdir), "--jobs", jobs,
        )
        assert code == 3
        failed = [line for line in err.splitlines() if line.startswith("failed: ")]
        assert [line.split(":")[1].strip() for line in failed] == ["om6 / qiga1", "t2 / qiga1"]
        for line in failed:
            assert f"angle must be a finite real number, got {shown}" in line
        rows = list(csv.DictReader((outdir / "runs.csv").open()))
        assert len(rows) == 2 * 2 * 2
        assert "qiga1" not in {r["algorithm"] for r in rows}

    def test_invalid_sga_population_fails_only_its_cell(self, capsys, tmp_path):
        plan = json.loads(self.write_plan(tmp_path).read_text())
        plan["algorithms"].append({"id": "sga", "population_size": 0, "label": "sga-empty"})
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        outdir = tmp_path / "out"
        code, _, err = invoke(
            capsys, "bench", "--plan", str(tmp_path / "plan.json"), "--outdir", str(outdir)
        )
        assert code == 3
        assert "failed: om6 / sga-empty" in err
        assert "population size must be even" in err
        rows = list(csv.DictReader((outdir / "runs.csv").open()))
        assert len(rows) == 2 * 2 * 2
        assert "sga-empty" not in {r["algorithm"] for r in rows}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "entry, param",
        [
            ({"id": "qiga2", "order": 3}, "order"),
            ({"id": "qiga2", "contraction_factor": 0.5}, "contraction_factor"),
            ({"id": "qiga1", "mu": 0.9}, "mu"),
            ({"id": "sga", "generations": 10}, "generations"),
            ({"id": "sga", "order": 2}, "order"),
        ],
        ids=["qiga2-order", "qiga2-contraction_factor", "qiga1-mu", "sga-generations", "sga-order"],
    )
    def test_parameter_the_algorithm_does_not_take_fails_only_its_cells(
        self, capsys, tmp_path, entry, param, jobs
    ):
        plan = json.loads(self.write_plan(tmp_path).read_text())
        plan["algorithms"].append({**entry, "label": "stray"})
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        outdir = tmp_path / "out"
        code, _, err = invoke(
            capsys, "bench", "--plan", str(tmp_path / "plan.json"),
            "--outdir", str(outdir), "--jobs", jobs,
        )
        assert code == 3
        failed = [line for line in err.splitlines() if line.startswith("failed: ")]
        assert [line.split(":")[1].strip() for line in failed] == ["om6 / stray", "t2 / stray"]
        for line in failed:
            assert f"{entry['id']} takes no parameter {param!r}" in line
        rows = list(csv.DictReader((outdir / "runs.csv").open()))
        assert len(rows) == 2 * 2 * 2
        assert "stray" not in {r["algorithm"] for r in rows}

    @pytest.mark.parametrize(
        "drop, message",
        [("problems", "plan needs at least one problem"), ("id", "unknown algorithm")],
    )
    def test_missing_plan_key_is_named_runtime_error(self, capsys, tmp_path, drop, message):
        plan = json.loads(self.write_plan(tmp_path).read_text())
        if drop == "problems":
            del plan["problems"]
        else:
            del plan["algorithms"][0]["id"]
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        code, _, err = invoke(capsys, "bench", "--plan", str(tmp_path / "plan.json"),
                              "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("malform, named", MALFORMED_DOCUMENTS)
    def test_malformed_plan_fails_naming_the_key(self, capsys, tmp_path, malform, named):
        plan = self.write_plan(tmp_path)
        plan.write_text(json.dumps(malform(json.loads(plan.read_text()))))
        code, _, err = invoke(capsys, "bench", "--plan", str(plan),
                              "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert named in err
        assert not (tmp_path / "out").exists()

    def test_jobs_flag_below_one_is_usage_error(self, capsys, tmp_path):
        plan = self.write_plan(tmp_path)
        code, _, err = invoke(capsys, "bench", "--plan", str(plan), "--jobs", "0",
                              "--outdir", str(tmp_path / "out"))
        assert code == 1
        assert "jobs" in err

    def test_missing_plan_usage_error(self, capsys):
        assert invoke(capsys, "bench", "--plan", "nope.json")[0] == 1

    def test_outdir_that_cannot_be_made_fails_before_any_run(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("hoqiga.cli.run_experiment", calls.append)
        plan = self.write_plan(tmp_path)
        (tmp_path / "f").write_text("")
        code, _, err = invoke(capsys, "bench", "--plan", str(plan),
                              "--outdir", str(tmp_path / "f" / "sub"))
        assert code == 2
        assert err.startswith("error: [Errno 20] Not a directory: ")
        assert calls == []

    def test_outdir_env_default(self, capsys, tmp_path, monkeypatch):
        plan = self.write_plan(tmp_path)
        outdir = tmp_path / "envout"
        monkeypatch.setenv("HOQIGA_OUTDIR", str(outdir))
        assert invoke(capsys, "bench", "--plan", str(plan))[0] == 0
        assert (outdir / "runs.csv").exists()


class TestMetaCommand:
    def test_quick_flags(self, capsys, tmp_path):
        out = tmp_path / "scores.csv"
        code, stdout, _ = invoke(
            capsys, "meta", "--grid", "0.5,0.9", "--problems", "onemax:6",
            "--runs", "2", "--maxfe", "100", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert "best mu" in stdout
        assert out.exists()

    def test_spec_file(self, capsys, tmp_path):
        spec = {
            "grid": [0.8, 0.9],
            "problems": [{"name": "om6", "source": "onemax:6"}],
            "runs": 2,
            "max_fitness_evaluations": 100,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert invoke(capsys, "meta", "--spec", str(path))[0] == 0

    def test_needs_grid_or_spec(self, capsys):
        assert invoke(capsys, "meta", "--grid", "0.5")[0] == 1

    @pytest.mark.parametrize("command, flag, kind",
                             [("meta", "--spec", "spec"), ("bench", "--plan", "plan")])
    def test_missing_file_is_usage_error_naming_it(self, capsys, tmp_path, command, flag, kind):
        missing = tmp_path / "nope.json"
        code, _, err = invoke(capsys, command, flag, str(missing))
        assert code == 1
        assert err == f"error: {kind} file not found: {missing}\n"

    @pytest.mark.parametrize(
        "grid, extra", [("0.5", ["--runs", "0"]), ("0.5", ["--jobs", "0"]), ("0.5,1.0", [])]
    )
    def test_rejected_flag_values_are_usage_errors(self, capsys, grid, extra):
        code, _, err = invoke(capsys, "meta", "--grid", grid, "--problems", "onemax:6", *extra)
        assert code == 1
        assert err.startswith("error: ")

    def test_rejected_spec_file_values_are_runtime_errors(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"grid": [0.5], "problems": [], "runs": 2}))
        assert invoke(capsys, "meta", "--spec", str(path))[0] == 2

    @pytest.mark.parametrize("malform, named", MALFORMED_DOCUMENTS)
    def test_malformed_spec_file_fails_naming_the_key(self, capsys, tmp_path, malform, named):
        spec = {"grid": [0.5], "problems": [{"name": "om6", "source": "onemax:6"}],
                "runs": 2, "max_fitness_evaluations": 100}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(malform(spec)))
        code, _, err = invoke(capsys, "meta", "--spec", str(path))
        assert code == 2
        assert named in err

    def test_empty_problem_flag_entry_is_usage_error_before_any_run(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(hoqiga.metaopt, "run_experiment", calls.append)
        code, _, err = invoke(capsys, "meta", "--grid", "0.5", "--problems", "onemax:6,")
        assert (code, err) == (1, "error: problem name must not be empty\n")
        assert calls == []

    def test_budget_flag_below_one_generation_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "meta", "--grid", "0.5", "--problems", "onemax:6",
                              "--maxfe", "5")
        assert code == 1
        assert "cannot cover one generation" in err

    def test_spec_file_without_grid_is_named_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"problems": [{"name": "om6", "source": "onemax:6"}]}))
        code, _, err = invoke(capsys, "meta", "--spec", str(path))
        assert code == 2
        assert "tuning grid must be non-empty" in err


@pytest.mark.parametrize("parent", ["file", "missing"])
@pytest.mark.parametrize("argv, runner", [
    (["run", "--algo", "qiga2", "--problem", "onemax:6"], "hoqiga.harness.AlgorithmSpec.run_group"),
    (["meta", "--grid", "0.5,0.9", "--problems", "onemax:8", "--runs", "3", "--maxfe", "200"],
     "hoqiga.metaopt.run_experiment"),
], ids=["run", "meta"])
def test_out_outside_a_directory_fails_before_any_run(capsys, tmp_path, monkeypatch, argv,
                                                      runner, parent):
    calls = []
    monkeypatch.setattr(runner, lambda *args: calls.append(args))
    (tmp_path / "file").write_text("")
    out = tmp_path / parent / "x.csv"
    code, stdout, err = invoke(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"error: --out {out}: {out.parent} is not a directory\n"
    assert calls == []


def test_demo_plan_and_meta_grid_keep_their_bytes(capsys, tmp_path):
    # sha256 digests of the demo plan's CSVs and convergence SVGs and of one meta grid; a
    # change that keeps results must keep them.  Any two commits can be compared by this
    # test alone.
    plan = Path(__file__).resolve().parents[1] / "plans" / "demo.json"
    assert invoke(capsys, "bench", "--plan", str(plan), "--jobs", "2",
                  "--outdir", str(tmp_path / "demo"))[0] == 0
    assert invoke(capsys, "meta", "--grid", "0.5,0.9,0.99", "--problems", "trap:24,onemax:48",
                  "--runs", "20", "--out", str(tmp_path / "meta.csv"))[0] == 0
    digests = {path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
               for path in ("demo/runs.csv", "demo/aggregate.csv", "demo/sat48.svg",
                            "demo/sat100.svg", "demo/trap24.svg", "demo/onemax48.svg",
                            "meta.csv")}
    assert digests == {
        "demo/runs.csv": "ae83f300e4cecefbe1d98fd6a2bcff79251c134fb12cd52a2b678e95bd6f5bfd",
        "demo/aggregate.csv": "23afed11ec580a63f6d66fb41be4402d49901158400b4f685d8ca987c4988268",
        "demo/sat48.svg": "03397b1fd8e6c2168c1e6c9e8ad28c7d29227ed5a23b6657c8e0c2864c2aba1d",
        "demo/sat100.svg": "6cf3d1d0ed739800927d6392ea1f969d0c7e413bfca9d78b2bf82f0da489a58e",
        "demo/trap24.svg": "a8008044d415edff54fe7f91773c6518639218bc98ddc74722479a24caaade7c",
        "demo/onemax48.svg": "7a6e60b92c5ec39dc6fa3301aec55612af5fd4073d57f9dc79f7cb632d1f96b9",
        "meta.csv": "6a22c45e32561f009af5ec0854e46638310d80ec1b20f8189463e2c119fd6b9d",
    }


@pytest.mark.parametrize("workload", ["sat-protocol", "short-runs-jobs2"])
def test_traced_benchmark_pass_holds(workload):
    # Each declared workload's traced pass checks the seed-0 digests pinned in
    # benchmarks/digests.json and divides by the scalar-fitness and uniforms call
    # counts, so a change that breaks either fails here.  It writes only under
    # benchmarks/out/.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "1"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


class TestConfigTypesAndDocumentShapes:
    SPEC = {"grid": [0.5], "problems": [{"name": "om6", "source": "onemax:6"}],
            "runs": 2, "max_fitness_evaluations": 100}
    PLAN = {"runs": 2, "max_fitness_evaluations": 100,
            "problems": [{"name": "om6", "source": "onemax:6"}], "algorithms": [{"id": "qiga2"}]}

    def test_fractional_order_in_tuning_spec_fails_at_load(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(hoqiga.metaopt, "run_experiment", calls.append)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**self.SPEC, "order": 2.5}))
        code, _, err = invoke(capsys, "meta", "--spec", str(path))
        assert code == 2
        assert "order must be an integer, got 2.5" in err
        assert calls == []

    @pytest.mark.parametrize("source", ["spec", "flags"])
    def test_order_above_a_suite_problem_size_fails_before_any_run(self, capsys, tmp_path,
                                                                   monkeypatch, source):
        calls = []
        monkeypatch.setattr(hoqiga.metaopt, "run_experiment", calls.append)
        if source == "spec":  # order 10 on 6 genes, exit 2 like other bad spec values
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({**self.SPEC, "order": 10}))
            code, _, err = invoke(capsys, "meta", "--spec", str(path))
            assert (code, err) == (2, "error: order 10 exceeds the gene count 6 of suite "
                                      "problem 'om6'\n")
        else:  # the default order 2 on 1 gene, exit 1 like other bad flag values
            code, _, err = invoke(capsys, "meta", "--grid", "0.5", "--problems",
                                  "onemax:6,onemax:1")
            assert (code, err) == (1, "error: order 2 exceeds the gene count 1 of suite "
                                      "problem 'onemax:1'\n")
        assert calls == []

    def test_fractional_order_plan_parameter_fails_its_cell(self, capsys, tmp_path):
        plan = {**self.PLAN, "algorithms": [{"id": "qiga2"}, {"id": "qiga-r", "order": 2.5}]}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code, _, err = invoke(capsys, "bench", "--plan", str(path),
                              "--outdir", str(tmp_path / "out"))
        assert code == 3
        assert "failed: om6 / qiga-r: order must be an integer, got 2.5" in err
        rows = list(csv.DictReader((tmp_path / "out" / "runs.csv").open()))
        assert {r["algorithm"] for r in rows} == {"qiga2"}

    @pytest.mark.parametrize("command, key, value, named", [
        ("bench", "problems", {"name": "om6", "source": "onemax:6"}, "'problems' must be a list"),
        ("bench", "problems", ["onemax:6"], "'problems' must be a list of objects"),
        ("bench", "algorithms", ["qiga2"], "'algorithms' must be a list of objects"),
        ("bench", "algorithms", {"id": "qiga2"}, "'algorithms' must be a list"),
        ("meta", "problems", {"name": "om6", "source": "onemax:6"}, "'problems' must be a list"),
        ("meta", "grid", 0.5, "'grid' must be a list"),
    ])
    def test_malformed_document_shape_fails_naming_the_key(self, capsys, tmp_path, command,
                                                           key, value, named):
        doc = {**(self.PLAN if command == "bench" else self.SPEC), key: value}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        if command == "bench":
            args = ["--plan", str(path), "--outdir", str(tmp_path / "out")]
        else:
            args = ["--spec", str(path)]
        code, _, err = invoke(capsys, command, *args)
        assert code == 2
        assert named in err

    @pytest.mark.parametrize("command, key, entry, name", [
        ("bench", "problems", {"name": 7, "source": "onemax:6"}, "name"),
        ("bench", "problems", {"name": "om6", "source": 6}, "source"),
        ("bench", "algorithms", {"id": ["qiga2"]}, "id"),
        ("bench", "algorithms", {"id": "qiga2", "label": 3}, "label"),
        ("meta", "problems", {"name": "om6", "source": 6}, "source"),
    ], ids=["plan-name", "plan-source", "plan-id", "plan-label", "spec-source"])
    def test_non_string_entry_field_fails_naming_it(self, capsys, tmp_path, monkeypatch,
                                                    command, key, entry, name):
        calls = []
        monkeypatch.setattr("hoqiga.cli.run_experiment", calls.append)
        monkeypatch.setattr(hoqiga.metaopt, "run_experiment", calls.append)
        doc = {**(self.PLAN if command == "bench" else self.SPEC), key: [entry]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        if command == "bench":
            args = ["--plan", str(path), "--outdir", str(tmp_path / "out")]
        else:
            args = ["--spec", str(path)]
        code, _, err = invoke(capsys, command, *args)
        assert code == 2
        assert f"{name!r} in {key!r} must be a string, got {entry[name]!r}" in err
        assert calls == [] and not (tmp_path / "out").exists()

    # json.dumps cannot repeat a key, so these documents are written out by hand.
    @pytest.mark.parametrize("text, key", [
        ('{"runs": 3, "runs": 5, "max_fitness_evaluations": 100, "problems": '
         '[{"name": "om6", "source": "onemax:6"}], "algorithms": [{"id": "qiga2"}]}', "runs"),
        ('{"runs": 2, "max_fitness_evaluations": 100, "problems": [{"name": "om6", '
         '"source": "onemax:6", "source": "trap:3"}], "algorithms": [{"id": "qiga2"}]}', "source"),
        ('{"runs": 2, "max_fitness_evaluations": 100, "problems": [{"name": "om6", '
         '"source": "onemax:6"}], "algorithms": [{"id": "qiga2", "mu": 0.5, "mu": 0.9}]}', "mu"),
    ], ids=["top-level", "problem-entry", "algorithm-entry"])
    def test_repeated_plan_key_fails_naming_it(self, capsys, tmp_path, text, key):
        path = tmp_path / "plan.json"
        path.write_text(text)
        code, _, err = invoke(capsys, "bench", "--plan", str(path),
                              "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert f"repeated key {key!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, key", [
        ('{"grid": [0.5], "problems": [{"name": "om6", "source": "onemax:6"}], '
         '"runs": 2, "runs": 3, "max_fitness_evaluations": 100}', "runs"),
        ('{"grid": [0.5], "grid": [0.9], "problems": [{"name": "om6", "source": "onemax:6"}], '
         '"runs": 2, "max_fitness_evaluations": 100}', "grid"),
        ('{"grid": [0.5], "problems": [{"name": "om6", "name": "t3", "source": "onemax:6"}], '
         '"runs": 2, "max_fitness_evaluations": 100}', "name"),
    ], ids=["top-level", "grid", "problem-entry"])
    def test_repeated_spec_key_fails_naming_it(self, capsys, tmp_path, monkeypatch, text, key):
        calls = []
        monkeypatch.setattr(hoqiga.metaopt, "run_experiment", calls.append)
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, _, err = invoke(capsys, "meta", "--spec", str(path))
        assert code == 2
        assert f"repeated key {key!r}" in err
        assert calls == []


# A bad order and the message each entry point must give for it; `hoqiga run`
# receives the value's repr, which argparse rejects unless it is a whole number.
BAD_ORDERS = [
    (0, "order must be >= 1, got 0"),
    (31, "order must be in [1, 30], got 31"),
    (2.5, "order must be an integer, got 2.5"),
    (True, "order must be an integer, got True"),
    ("2", "order must be an integer, got '2'"),
]
ORDER_ENTRY_POINTS = {
    "QuantumRegister": lambda order: QuantumRegister(order, np.full(4, 0.5)),
    "chromosome_layout": lambda order: chromosome_layout(40, order),
    "register_uniform": register_uniform,
    "register_basis": lambda order: register_basis(order, 0),
    "QigaConfig": lambda order: QigaConfig(order=order),
    "qiga_evolve": lambda order: qiga_evolve(
        onemax(40), QigaConfig(order=order, max_fitness_evaluations=50), RandomSource(0)),
    "TuningSpec": lambda order: TuningSpec(
        grid=(0.5,), problems=(ProblemSpec("om40", "onemax:40"),), order=order),
}


class TestOrderRule:
    @pytest.mark.parametrize("order, message", BAD_ORDERS)
    @pytest.mark.parametrize("entry", [*ORDER_ENTRY_POINTS, "run --order"])
    def test_every_entry_point_rejects_a_bad_order_naming_it(self, capsys, entry, order,
                                                             message):
        if entry == "run --order":
            code, _, err = invoke(capsys, "run", "--algo", "qiga-r", "--order", repr(order),
                                  "--problem", "onemax:40", "--maxfe", "50")
            assert code == 1
            if type(order) is not int:
                message = "argument --order: invalid int value"
            assert err.startswith("error: ") and message in err
        else:
            with pytest.raises(ValueError) as raised:
                ORDER_ENTRY_POINTS[entry](order)
            assert str(raised.value) == message

    def test_run_checks_an_implicit_order_against_the_gene_count(self, capsys):
        code, _, err = invoke(capsys, "run", "--algo", "qiga2", "--problem", "onemax:1")
        assert (code, err) == (1, "error: order 2 exceeds the gene count 1\n")

    @pytest.mark.parametrize("source", ["qiga_evolve", "run", "bench-jobs1", "bench-jobs2",
                                        "meta"])
    def test_order_above_the_gene_count_reads_the_same_everywhere(self, capsys, tmp_path,
                                                                  source):
        message = "order 7 exceeds the gene count 6"
        problems = [{"name": "om6", "source": "onemax:6"}]
        if source == "qiga_evolve":
            with pytest.raises(ValueError) as raised:
                qiga_evolve(onemax(6), QigaConfig(order=7, max_fitness_evaluations=50),
                            RandomSource(0))
            assert str(raised.value) == message
        elif source == "run":
            code, _, err = invoke(capsys, "run", "--algo", "qiga-r", "--order", "7",
                                  "--problem", "onemax:6", "--maxfe", "50")
            assert (code, err) == (1, f"error: {message}\n")
        elif source == "meta":
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"grid": [0.5], "problems": problems, "order": 7}))
            code, _, err = invoke(capsys, "meta", "--spec", str(path))
            assert (code, err) == (2, f"error: {message} of suite problem 'om6'\n")
        else:
            path = tmp_path / "plan.json"
            path.write_text(json.dumps({
                "runs": 2, "max_fitness_evaluations": 50, "problems": problems,
                "algorithms": [{"id": "qiga2"}, {"id": "qiga-r", "order": 7}]}))
            code, _, err = invoke(capsys, "bench", "--plan", str(path), "--outdir",
                                  str(tmp_path / "out"), "--jobs", source[-1])
            assert code == 3
            assert f"failed: om6 / qiga-r: {message}\n" in err
