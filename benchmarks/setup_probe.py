"""Time one fresh interpreter's set-up: import hoqiga, parse a plan, load its problems.

Usage: python3 setup_probe.py SRC_DIR PLAN_JSON

Prints one JSON line: ``setup_s`` covers import, plan parsing and problem
loading; ``load_s`` is the problem-loading part alone (DIMACS parsing or
3-SAT generation).
"""

import json
import sys
import time
from pathlib import Path


def main(src: str, plan_path: str) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import hoqiga

    plan = hoqiga.ExperimentPlan.from_json(Path(plan_path).read_text())
    parsed = time.perf_counter()
    for spec in plan.problems:
        try:
            spec.load()
        except ValueError:  # run_experiment reports it as failed cells and goes on
            pass
    end = time.perf_counter()
    print(json.dumps({"setup_s": end - start, "load_s": end - parsed}))


if __name__ == "__main__":
    main(*sys.argv[1:])
