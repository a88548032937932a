"""Command-line interface.

Subcommands: run (one algorithm on one problem), bench (an experiment plan),
theory (order/factor tables), gen (random 3-SAT instances) and meta
(contraction-factor grid search).  Exit codes: 0 success, 1 usage error,
2 runtime error, 3 partial failure in bench.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .core import RandomSource, bits_to_string, check_int, check_order, check_real
from .harness import (
    ALGORITHMS,
    AlgorithmSpec,
    ExperimentPlan,
    ProblemSpec,
    export_all,
    run_experiment,
    write_csv,
)
from .metaopt import TuningSpec, export_tuning_csv, tune
from .problems import MAX_CLAUSES, generate_uniform_3sat, load_problem, to_dimacs
from .theory import profile_grid

OUTDIR_ENV = "HOQIGA_OUTDIR"


class UsageError(Exception):
    """Bad flags or flag combinations; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hoqiga", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on one problem")
    run.add_argument("--algo", required=True, choices=list(ALGORITHMS))
    run.add_argument("--order", type=int, help="register order for qiga-r")
    run.add_argument("--mu", type=float, help="contraction factor for qiga2 and qiga-r")
    run.add_argument(
        "--problem", required=True,
        help="DIMACS path or spec: onemax:N, trap:PAIRS, 3sat:VARS:CLAUSES:SEED",
    )
    run.add_argument("--maxfe", type=int, default=5000, help="fitness evaluation budget")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", help="write the best-so-far trajectory CSV here")

    bench = sub.add_parser("bench", help="execute an experiment plan file")
    bench.add_argument("--plan", required=True, help="JSON plan path")
    bench.add_argument(
        "--outdir", default=None,
        help=f"output directory (default: ${OUTDIR_ENV} or current directory)",
    )
    bench.add_argument("--jobs", type=int, default=None, help="parallel workers")

    theory = sub.add_parser("theory", help="order / quantum-factor tables")
    theory.add_argument(
        "--n-range", default="2:64",
        help="gene counts N as START:STOP[:STEP], inclusive",
    )
    theory.add_argument("--orders", default="1,2,3,4,5", help="comma-separated orders")
    theory.add_argument("--csv", help="also write the table to this CSV path")

    gen = sub.add_parser("gen", help="generate a uniform random 3-SAT instance")
    gen.add_argument("--vars", type=int, required=True)
    gen.add_argument("--clauses", type=int, help="clause count")
    gen.add_argument("--ratio", type=float, help="clause/variable ratio instead of --clauses")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output DIMACS path")

    meta = sub.add_parser("meta", help="grid-search the contraction factor")
    meta.add_argument("--spec", help="JSON tuning spec path")
    meta.add_argument("--grid", help="comma-separated candidate values")
    meta.add_argument("--problems", help="comma-separated problem specs")
    meta.add_argument("--runs", type=int, default=20)
    meta.add_argument("--seed", type=int, default=0)
    meta.add_argument("--maxfe", type=int, default=5000)
    meta.add_argument("--jobs", type=int, default=1)
    meta.add_argument("--out", help="write the score table CSV here")
    return parser


def _cmd_run(args) -> int:
    problem = load_problem(args.problem)
    params = {"order": args.order, "mu": args.mu}
    spec = AlgorithmSpec(args.algo, {k: v for k, v in params.items() if v is not None})
    try:
        config = spec.build(args.maxfe)
        if hasattr(config, "order"):  # the one rule that needs the loaded problem
            check_order(config.order, problem.size)
        check_int("seed", args.seed, 0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = spec.run_group(problem, [args.seed], config)[0]

    print(f"problem {problem.name} size {problem.size}")
    print(f"best_fitness {result.best_fitness!r}")
    print(f"best_bits {bits_to_string(result.best_bits)}")
    print(f"evaluations {result.evaluations} generations {result.generations}")
    if args.out:
        rows = ([i, repr(float(value))] for i, value in enumerate(result.trajectory, start=1))
        write_csv(args.out, ["evaluation", "best_so_far"], rows)
        print(f"trajectory {args.out}")
    return 0


def _cmd_bench(args) -> int:
    plan_path = Path(args.plan)
    if not plan_path.exists():
        raise UsageError(f"plan file not found: {plan_path}")
    plan = ExperimentPlan.from_json(plan_path.read_text())
    if args.jobs is not None:
        try:
            plan = dataclasses.replace(plan, jobs=args.jobs)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)  # a bad outdir fails before any run
    result = run_experiment(plan)
    for path in export_all(result, outdir):
        print(f"wrote {path}")
    if result.ranking is not None:
        print("ranking:")
        for rank, (label, count) in enumerate(result.ranking.rows, start=1):
            print(f"  {rank}. {label}: {count}")
        for problem, winners in result.ranking.ties:
            print(f"  tie on {problem}: {', '.join(winners)}")
    if result.failures:
        for cell in result.failures:
            print(f"failed: {cell.problem} / {cell.algorithm}: {cell.error}", file=sys.stderr)
        return 3
    return 0


def _parse_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"--n-range must be START:STOP[:STEP], got {text!r}")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--n-range must be integers, got {text!r}")
    start, stop = numbers[0], numbers[1]
    step = numbers[2] if len(numbers) == 3 else 1
    if start < 1 or stop < start or step < 1:
        raise UsageError(f"bad --n-range {text!r}")
    return range(start, stop + 1, step)


def _cmd_theory(args) -> int:
    try:
        orders = [int(p) for p in args.orders.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"--orders must be comma-separated integers, got {args.orders!r}")
    if not orders or any(r < 1 for r in orders):
        raise UsageError(f"orders must be >= 1, got {args.orders!r}")
    profiles = profile_grid(_parse_range(args.n_range), orders)
    header = ["N", "r", "w", "log2_lambda", "lambda", "class"]
    rows = [
        [p.problem_size, p.order, repr(p.relative_order), repr(p.log2_quantum_factor),
         repr(p.quantum_factor), p.algorithm_class.value]
        for p in profiles
    ]
    print("\t".join(header))
    for row in rows:
        print("\t".join(str(v) for v in row))
    if args.csv:
        write_csv(args.csv, header, rows)
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    if (args.clauses is None) == (args.ratio is None):
        raise UsageError("give exactly one of --clauses or --ratio")
    try:
        clause_count = args.clauses
        if clause_count is None:
            check_real("--ratio", args.ratio)
            count = args.ratio * args.vars
            check_real("clause count from --ratio", count)
            clause_count = round(count)
            if clause_count > MAX_CLAUSES:  # name the float, not its many-digit rounding
                raise ValueError(
                    f"clause count must be <= {MAX_CLAUSES}, got {count!r} from --ratio")
        formula = generate_uniform_3sat(args.vars, clause_count, RandomSource(args.seed))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    Path(args.out).write_text(to_dimacs(formula))
    print(f"wrote {args.out} ({formula.variable_count} vars, {formula.clause_count} clauses)")
    return 0


def _cmd_meta(args) -> int:
    if args.spec:
        if not Path(args.spec).exists():
            raise UsageError(f"spec file not found: {args.spec}")
        spec = TuningSpec.from_json(Path(args.spec).read_text())
    else:
        if not args.grid or not args.problems:
            raise UsageError("meta needs either --spec or both --grid and --problems")
        try:
            grid = tuple(float(g) for g in args.grid.split(","))
        except ValueError:
            raise UsageError(f"--grid must be comma-separated floats, got {args.grid!r}")
        try:
            spec = TuningSpec(
                grid=grid,
                problems=tuple(ProblemSpec(name=s, source=s) for s in args.problems.split(",")),
                runs_per_candidate=args.runs,
                base_seed=args.seed,
                max_fitness_evaluations=args.maxfe,
                jobs=args.jobs,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    result = tune(spec)
    print(f"best mu {result.best_value!r}{' (tie)' if result.tie else ''}")
    for i, mu in enumerate(result.candidates):
        marker = " *" if i == result.best_index else ""
        print(f"  mu={mu!r} score={float(result.scores[i])!r}{marker}")
    if args.out:
        export_tuning_csv(result, args.out)
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "bench": _cmd_bench,
    "theory": _cmd_theory,
    "gen": _cmd_gen,
    "meta": _cmd_meta,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
