"""hoqiga benchmark: end-to-end timings, per-layer traces and a results gate.

Usage:
    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S]

``--trace 0`` times ``hoqiga bench`` through ``hoqiga.cli.main``, the path
users take, and reports the end-to-end metrics.  ``--trace 1`` runs the same
plan three ways (evolvers called directly without tracing, the same with
timing proxies, then ``run_experiment``/``export_all``/``rank_algorithms``)
and reports the per-layer metrics.  ``--workload all`` does both for every
workload and keeps going when one of them fails.

Every run checks the results: each seeded run's invariants, the digests
pinned in ``digests.json`` at the default seed, that the timed outputs equal
the verified ones, serial against parallel execution, and traced against
untraced execution.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every check passes, 1 when one fails, 2 on bad usage or missing sources.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = BENCH_DIR / "out"
PINS = BENCH_DIR / "digests.json"

if not (SRC / "hoqiga" / "__init__.py").is_file():
    print(f"error: hoqiga sources not found under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import hoqiga  # noqa: E402
from hoqiga import (  # noqa: E402
    ExperimentPlan,
    RandomSource,
    bits_from_string,
    bits_to_string,
    export_all,
    qiga1_evolve,
    qiga_evolve,
    rank_algorithms,
    run_experiment,
    sga_evolve,
)
from hoqiga.cli import main as hoqiga_main  # noqa: E402
from tracing import TimedFitness, TimedRandomSource, Tracer  # noqa: E402

DEFAULT_SEED = 0
# Run seeds of seed s start at s * RUN_SEED_STRIDE, so seeds never share runs.
RUN_SEED_STRIDE = 1000
SETUP_REPEATS = 7  # fresh interpreters timed for problems.load_s
SAT_RATIO = 4.3
PROBE_ROWS = 100

# ---------------------------------------------------------------- workloads


def write_3sat(path: Path, n_vars: int, rng: np.random.Generator) -> dict:
    """Uniform random 3-SAT at SAT_RATIO, written as a DIMACS file."""
    m = round(SAT_RATIO * n_vars)
    variables = np.argsort(rng.random((m, n_vars)), axis=1)[:, :3] + 1
    literals = variables * rng.choice((-1, 1), size=(m, 3))
    body = "".join(" ".join(map(str, row)) + " 0\n" for row in literals.tolist())
    path.write_text(f"c uniform random 3-SAT\np cnf {n_vars} {m}\n{body}")
    return {"name": f"sat{n_vars}", "source": str(path)}


def sat_problems(seed: int, inputs: Path) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(seed))
    # 250 = 83 * 3 + 1, so order-3 registers leave a ragged tail register.
    return [write_3sat(inputs / f"sat{n}.cnf", n, rng) for n in (250, 100)]


SYNTHETIC = [{"name": "trap24", "source": "trap:24"}, {"name": "onemax48", "source": "onemax:48"}]


def sat_protocol(seed: int, inputs: Path) -> dict:
    """The paper's MAX-SAT protocol: fitness is about half of every run."""
    return {
        "problems": sat_problems(seed, inputs),
        "algorithms": [
            {"id": "qiga2"},
            {"id": "qiga-r", "order": 3, "label": "qiga-r3"},
            {"id": "qiga1"},
            {"id": "sga"},
        ],
        "runs": 1,
        "max_fitness_evaluations": 5000,
        "jobs": 1,
    }


def trap_seeds(seed: int, inputs: Path) -> dict:
    """The epistasis sweep: fitness is nearly free, the evolver loop dominates."""
    return {
        "problems": SYNTHETIC,
        "algorithms": [{"id": "qiga-r", "order": 1, "label": "qiga-r1"}, {"id": "qiga2"}],
        "runs": 3,
        "max_fitness_evaluations": 5000,
        "jobs": 1,
    }


def short_runs_jobs2(seed: int, inputs: Path) -> dict:
    """Many short tasks through the process pool: dispatch and export dominate."""
    return {
        "problems": sat_problems(seed, inputs) + SYNTHETIC,
        "algorithms": [{"id": "qiga2"}, {"id": "qiga1"}, {"id": "sga", "population_size": 20}],
        "runs": 40,
        "max_fitness_evaluations": 200,
        "jobs": 2,
    }


# BENCHMARK.json declares sat-protocol and short-runs-jobs2.  trap-seeds stays
# runnable for traced layer studies, but on a shared 2-core host its wall time
# drifts between runs by more than the end-to-end bounds allow.
WORKLOADS = {
    "sat-protocol": sat_protocol,
    "trap-seeds": trap_seeds,
    "short-runs-jobs2": short_runs_jobs2,
}


def make_plan(workload: str, seed: int, work: Path) -> tuple[ExperimentPlan, Path]:
    doc = WORKLOADS[workload](seed, work)
    doc["seed"] = seed * RUN_SEED_STRIDE
    path = work / "plan.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return ExperimentPlan.from_json(path.read_text()), path


def total_runs(plan: ExperimentPlan) -> int:
    return len(plan.problems) * len(plan.algorithms) * plan.runs_per_cell


# ------------------------------------------------------------ results gate


@dataclasses.dataclass(frozen=True)
class Digests:
    runs_csv: str
    aggregate_csv: str
    runs: str


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digest(records) -> str:
    """sha256 over every run's seed, repr(best_fitness), best_bits and trajectory bytes.

    runs.csv omits best_bits, so this also catches a change to the
    earliest-best tie rule.
    """
    digest = hashlib.sha256()
    for problem, algorithm, seed, fitness, bits, trajectory in records:
        digest.update(f"{problem}\0{algorithm}\0{seed}\0{float(fitness)!r}\0{bits}\0".encode())
        digest.update(np.ascontiguousarray(trajectory, dtype=np.float64).tobytes())
    return digest.hexdigest()


def result_records(result):
    for cell in result.cells:
        for run in cell.runs:
            yield cell.problem, cell.algorithm, run.seed, run.best_fitness, run.best_bits, run.trajectory


def result_digests(result, outdir: Path) -> Digests:
    """Digests of a result whose export_all output is in outdir."""
    return Digests(
        sha256_file(outdir / "runs.csv"),
        sha256_file(outdir / "aggregate.csv"),
        run_digest(result_records(result)),
    )


def failed_runs(result, plan: ExperimentPlan) -> int:
    """Runs in failed cells plus runs that break a result invariant.

    Invariants: problem(best_bits) == best_fitness on a freshly loaded
    problem, one trajectory entry per evaluation of the budget, and a
    nondecreasing trajectory that ends at best_fitness.
    """
    budget = plan.max_fitness_evaluations
    problems = {}
    failed = 0
    for cell in result.cells:
        if cell.failed or len(cell.runs) != plan.runs_per_cell:
            failed += plan.runs_per_cell
            continue
        if cell.problem not in problems:
            spec = next(p for p in plan.problems if p.name == cell.problem)
            problems[cell.problem] = spec.load()
        problem = problems[cell.problem]
        for run in cell.runs:
            t = run.trajectory
            ok = (
                len(t) == budget
                and problem(bits_from_string(run.best_bits)) == run.best_fitness
                and bool(np.all(t[1:] >= t[:-1]))
                and t[-1] == run.best_fitness
            )
            failed += not ok
    return failed


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and which of its checks failed."""

    workload: str
    seed: int
    trace: bool
    manifest: dict
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def fail_runs(self, runs: int, message: str) -> None:
        self.attempted += runs
        self.failed += runs
        self.errors.append(message)


def check_pins(out: Outcome, digests: Digests) -> None:
    """Print the digests at any seed; at the default seed they must match the pins."""
    out.notes.append(f"digests {json.dumps(dataclasses.asdict(digests))}")
    if out.seed != DEFAULT_SEED:
        return
    pinned = json.loads(PINS.read_text()).get(out.workload)
    if pinned != dataclasses.asdict(digests):
        out.errors.append(
            f"results differ from {PINS.name} at seed {DEFAULT_SEED}: pinned {pinned}"
        )


def verified_run(out: Outcome, plan: ExperimentPlan, outdir: Path) -> tuple[Digests, int] | None:
    """Untimed run_experiment: its digests and failed-run count, or None if it raised."""
    try:
        result = run_experiment(plan)
    except Exception as exc:  # a raising plan counts every run failed; other workloads go on
        out.fail_runs(total_runs(plan), f"run_experiment raised {exc!r}")
        return None
    export_all(result, outdir)
    return result_digests(result, outdir), failed_runs(result, plan)


# ----------------------------------------------------------- measurements


def probe_setup(plan_path: Path) -> dict:
    """Set-up and problem-loading seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(plan_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child.

    The children are pool workers, forked from this process and so at least
    its size, and set-up probes, which import less than this process does.
    """
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def measure_end_to_end(out: Outcome, plan: ExperimentPlan, plan_path: Path, work: Path,
                       seconds: int) -> None:
    runs = total_runs(plan)
    verified = verified_run(out, plan, work / "verify")
    if verified is None:
        return
    reference, bad_runs = verified
    out.attempted += runs
    out.failed += bad_runs
    check_pins(out, reference)
    if plan.jobs > 1:
        serial = verified_run(out, dataclasses.replace(plan, jobs=1), work / "serial")
        if serial is not None and serial[0] != reference:
            out.errors.append(f"jobs=1 and jobs={plan.jobs} results differ")

    outdir = work / "bench"
    argv = ["bench", "--plan", str(plan_path), "--outdir", str(outdir)]
    walls = []
    setups = []
    deadline = time.perf_counter() + seconds
    step_s = 0.0
    while not walls or time.perf_counter() + step_s <= deadline:
        sink = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = hoqiga_main(argv)
        walls.append(time.perf_counter() - began)
        if code not in (0, 3):
            out.fail_runs(runs, f"hoqiga bench exited {code}: {sink.getvalue().strip()}")
            return
        outputs = (sha256_file(outdir / "runs.csv"), sha256_file(outdir / "aggregate.csv"))
        if outputs != (reference.runs_csv, reference.aggregate_csv):
            out.fail_runs(runs, "hoqiga bench outputs differ from the verified results")
            return
        out.attempted += runs
        out.failed += bad_runs
        # One probe per bench spreads set-up samples over the whole window.
        setups.append(probe_setup(plan_path)["setup_s"])
        step_s = time.perf_counter() - began
    rss = peak_rss_mb()

    wall = statistics.median(walls)
    out.metrics["wall_s"] = (wall, "s")
    out.metrics["evals_per_s"] = (runs * plan.max_fitness_evaluations / wall, "1/s")
    out.metrics["setup_s"] = (statistics.median(setups), "s")
    out.metrics["peak_rss_mb"] = (rss, "MB")
    out.notes.append(
        f"wall_s and setup_s are medians of {len(walls)} benches and fresh interpreters; "
        f"bench walls {' '.join(f'{w:.4f}' for w in walls)} s"
    )
    out.notes.append(f"failed_frac {out.failed / out.attempted!r} ({out.failed} of {out.attempted} runs)")


EVOLVERS = {"qiga2": qiga_evolve, "qiga-r": qiga_evolve, "qiga1": qiga1_evolve, "sga": sga_evolve}
EVOLVER_SPANS = {f.__name__ for f in EVOLVERS.values()}


@dataclasses.dataclass
class DirectRun:
    problem: str
    algorithm: str
    seed: int
    result: hoqiga.RunResult
    seconds: float


def direct_pass(plan: ExperimentPlan, tracer: Tracer | None = None) -> list[DirectRun]:
    """Every seeded run of the plan with the evolver called directly.

    Mirrors the tasks run_experiment dispatches.  With a tracer, problems
    are wrapped in TimedFitness, each run draws from a TimedRandomSource and
    the load, build and evolver calls become spans.
    """

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    runs = []
    for pspec in plan.problems:
        if tracer:
            tracer.new_trace(("load", pspec.name))
        try:
            with span("ProblemSpec.load"):
                problem = pspec.load()
        except ValueError:  # run_experiment marks this problem's cells failed; so do we
            continue
        if tracer:
            problem = TimedFitness(problem, tracer)
        for aspec in plan.algorithms:
            evolve = EVOLVERS[aspec.id]
            for seed in range(plan.base_seed, plan.base_seed + plan.runs_per_cell):
                if tracer:
                    tracer.new_trace((pspec.name, aspec.label, seed))
                with span("AlgorithmSpec.build"):
                    config = aspec.build(plan.max_fitness_evaluations)
                rng = TimedRandomSource(seed, tracer) if tracer else RandomSource(seed)
                began = time.perf_counter()
                with span(evolve.__name__):
                    result = evolve(problem, config, rng)
                runs.append(DirectRun(pspec.name, aspec.label, seed, result,
                                      time.perf_counter() - began))
    return runs


def direct_digest(runs: list[DirectRun]) -> str:
    return run_digest(
        (r.problem, r.algorithm, r.seed, r.result.best_fitness,
         bits_to_string(r.result.best_bits), r.result.trajectory)
        for r in runs
    )


def batch_probe(plan: ExperimentPlan, tracer: Tracer, seed: int) -> None:
    """One PROBE_ROWS-row batch() per problem through the proxy.

    Only sga calls batch(), so without this a workload with no sga would
    report no batch() time at all.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    tracer.new_trace(("batch-probe",))
    for pspec in plan.problems:
        problem = pspec.load()
        rows = rng.integers(0, 2, size=(PROBE_ROWS, problem.size), dtype=np.uint8)
        problem.batch(rows[:1])  # fills lazy caches outside the span
        TimedFitness(problem, tracer).batch(rows)


def task_bytes(plan: ExperimentPlan) -> float:
    """Mean pickled size of the (spec, problem, seed, budget) tasks the pool receives."""
    sizes = []
    for pspec in plan.problems:
        problem = pspec.load()
        for aspec in plan.algorithms:
            for seed in range(plan.base_seed, plan.base_seed + plan.runs_per_cell):
                task = (aspec, problem, seed, plan.max_fitness_evaluations)
                sizes.append(len(pickle.dumps(task)))
    return statistics.fmean(sizes)


def layer_sample(plan, tracer, plain, traced, tasks, plain_wall, traced_wall) -> dict:
    """Per-layer figures of one iteration; counts are exact, times in seconds."""
    total, calls, own = tracer.durations()
    evals = sum(r.result.evaluations for r in traced)
    evolver_own: dict[str, int] = {}
    for row, own_ns in zip(tracer.spans, own):
        if row[0] in EVOLVER_SPANS:
            label = tracer.traces[row[4]][1]
            evolver_own[label] = evolver_own.get(label, 0) + own_ns
    evals_by_label: dict[str, int] = {}
    for r in traced:
        evals_by_label[r.algorithm] = evals_by_label.get(r.algorithm, 0) + r.result.evaluations
    evolver_total = sum(total[name] for name in EVOLVER_SPANS)
    fitness_ns = total["FitnessFunction.__call__"] + total["FitnessFunction.batch"]
    run_experiment_s = total["run_experiment"] / 1e9
    return {
        "counts": {
            "problems.evals": calls["FitnessFunction.__call__"],
            "problems.batch_rows": tracer.counts["batch_rows"],
            "core.rng_calls": calls["RandomSource.uniforms"],
            "algorithms.generations": sum(r.result.generations for r in plain),
            "harness.tasks": tasks,
        },
        "times": {
            "problems.eval_us": total["FitnessFunction.__call__"] / 1e3 / calls["FitnessFunction.__call__"],
            "problems.batch_row_us": total["FitnessFunction.batch"] / 1e3 / tracer.counts["batch_rows"],
            "core.rng_us": total["RandomSource.uniforms"] / 1e3 / calls["RandomSource.uniforms"],
            "algorithms.self_us_per_eval": sum(evolver_own.values()) / 1e3 / evals,
            "harness.run_experiment_s": run_experiment_s,
            "harness.parallel_efficiency":
                sum(r.seconds for r in plain) / (plan.jobs * run_experiment_s),
            "harness.export_s": total["export_all"] / 1e9,
            "harness.rank_s": total["rank_algorithms"] / 1e9,
            "trace.overhead_frac": traced_wall / plain_wall - 1.0,
            "fitness_share": fitness_ns / evolver_total,
        },
        "self_us_per_eval": {
            label: evolver_own[label] / 1e3 / evals_by_label[label] for label in evolver_own
        },
    }


def measure_layers(out: Outcome, plan: ExperimentPlan, plan_path: Path, work: Path,
                   seconds: int) -> None:
    runs = total_runs(plan)
    samples = []
    run_seconds = []
    deadline = time.perf_counter() + seconds
    iteration_s = 0.0
    while not samples or time.perf_counter() + iteration_s <= deadline:
        began = iteration_start = time.perf_counter()
        plain = direct_pass(plan)
        plain_wall = time.perf_counter() - began
        tracer = Tracer()
        began = time.perf_counter()
        traced = direct_pass(plan, tracer)
        traced_wall = time.perf_counter() - began
        batch_probe(plan, tracer, out.seed)

        tracer.new_trace(("harness",))
        try:
            with tracer.span("run_experiment"):
                result = run_experiment(plan)
        except Exception as exc:  # a raising plan counts every run failed; other workloads go on
            out.fail_runs(runs, f"run_experiment raised {exc!r}")
            return
        with tracer.span("export_all"):
            export_all(result, work / "export")
        with tracer.span("rank_algorithms"):
            rank_algorithms(result)

        out.attempted += runs
        out.failed += failed_runs(result, plan)
        reference = result_digests(result, work / "export")
        if not samples:
            check_pins(out, reference)
        if {direct_digest(plain), direct_digest(traced)} != {reference.runs}:
            out.errors.append("traced, untraced and run_experiment results differ")
        tasks = sum(len(cell.runs) for cell in result.cells)
        samples.append(layer_sample(plan, tracer, plain, traced, tasks, plain_wall, traced_wall))
        run_seconds.extend(r.seconds for r in plain)
        iteration_s = time.perf_counter() - iteration_start

    counts = samples[0]["counts"]
    if any(s["counts"] != counts for s in samples):
        out.errors.append(f"counts differ between iterations: {[s['counts'] for s in samples]}")
    times = {name: statistics.median(s["times"][name] for s in samples) for name in samples[0]["times"]}
    load_s = statistics.median(probe_setup(plan_path)["load_s"] for _ in range(SETUP_REPEATS))
    run_ms = np.array(run_seconds) * 1e3

    m = out.metrics
    m["problems.eval_us"] = (times["problems.eval_us"], "us")
    m["problems.evals"] = (counts["problems.evals"], "count")
    m["problems.batch_row_us"] = (times["problems.batch_row_us"], "us")
    m["problems.batch_rows"] = (counts["problems.batch_rows"], "count")
    m["problems.load_s"] = (load_s, "s")
    m["core.rng_us"] = (times["core.rng_us"], "us")
    m["core.rng_calls"] = (counts["core.rng_calls"], "count")
    m["algorithms.self_us_per_eval"] = (times["algorithms.self_us_per_eval"], "us")
    m["algorithms.run_ms_p50"] = (float(np.percentile(run_ms, 50)), "ms")
    m["algorithms.run_ms_p95"] = (float(np.percentile(run_ms, 95)), "ms")
    m["algorithms.generations"] = (counts["algorithms.generations"], "count")
    m["harness.run_experiment_s"] = (times["harness.run_experiment_s"], "s")
    m["harness.tasks"] = (counts["harness.tasks"], "count")
    m["harness.task_bytes"] = (task_bytes(plan), "B")
    m["harness.parallel_efficiency"] = (times["harness.parallel_efficiency"], "ratio")
    m["harness.export_s"] = (times["harness.export_s"], "s")
    m["harness.rank_s"] = (times["harness.rank_s"], "s")
    m["trace.overhead_frac"] = (times["trace.overhead_frac"], "ratio")
    out.manifest["trace_overhead_frac"] = times["trace.overhead_frac"]

    for label in samples[0]["self_us_per_eval"]:
        value = statistics.median(s["self_us_per_eval"][label] for s in samples)
        out.notes.append(f"algorithms.self_us_per_eval[{label}] {value!r} us")
    out.notes += [
        f"times are medians of {len(samples)} iterations; run_ms percentiles pool "
        f"{len(run_ms)} untraced evolver runs",
        f"fitness share of traced evolver time {times['fitness_share']!r}",
        "core.rng_* covers qiga_evolve and qiga1_evolve only: sga_evolve draws through rng.gen",
        f"problems.batch_* includes one {PROBE_ROWS}-row batch() probe per problem and iteration",
        "harness.task_bytes is computed by pickling each task here, not measured in the pool",
        f"failed_frac {out.failed / out.attempted!r} ({out.failed} of {out.attempted} runs)",
    ]
    path = OUT_ROOT / f"trace-{out.workload}-seed{out.seed}.json"
    path.write_text(json.dumps({"manifest": out.manifest, **tracer.to_json()}))
    out.notes.append(f"spans of the last iteration written to {path.relative_to(ROOT)}")


# ------------------------------------------------------------ entry point


def git_commit() -> str:
    """The checkout's commit read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(workload: str, seed: int, trace: bool) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "loadavg": loadavg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hoqiga": hoqiga.__version__,
        "commit": git_commit(),
        "trace_overhead_frac": None,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome(workload, seed, trace, manifest(workload, seed, trace))
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT_ROOT) as tmp:
        work = Path(tmp)
        plan, plan_path = make_plan(workload, seed, work)
        measure = measure_layers if trace else measure_end_to_end
        try:
            measure(out, plan, plan_path, work, seconds)
        except Exception:  # keep the other workloads running; the traceback says why
            out.fail_runs(total_runs(plan), traceback.format_exc())
    return out


def report(out: Outcome) -> None:
    print(f"== {out.workload} seed {out.seed} trace {int(out.trace)}")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:30s} {value!r} {unit}")
    for note in out.notes:
        print(f"  # {note}")
    for error in out.errors:
        print(f"  FAILED: {error}")
    print(f"manifest {json.dumps(out.manifest)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    every = args.workload == "all"
    outcomes = []
    for workload in WORKLOADS if every else [args.workload]:
        for trace in (False, True) if every else (bool(args.trace),):
            outcomes.append(run_workload(workload, args.seed, args.seconds, trace))
            report(outcomes[-1])
    summary = {
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            (f"{o.workload}/{name}" if every else name): {"value": value, "unit": unit}
            for o in outcomes
            for name, (value, unit) in o.metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
