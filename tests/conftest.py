"""Shared fixtures for expensive statistical comparisons."""

import numpy as np
import pytest

from hoqiga.algorithms import QigaConfig, qiga_lockstep
from hoqiga.core import RandomSource
from hoqiga.problems import onemax, pair_trap

EPISTASIS_RUNS = 200


@pytest.fixture(scope="session")
def epistasis_runs():
    """Best fitnesses of order-1 vs order-2 contraction, 200 seeded runs each.

    Used by both the algorithms-module separability invariant and the
    acceptance epistasis criterion; computed once per session.  The runs of
    one (problem, order) pair advance in lockstep; each result equals its
    own qiga_evolve call.
    """
    problems = {"trap24": pair_trap(24), "onemax48": onemax(48)}
    data = {}
    for key, problem in problems.items():
        for order in (1, 2):
            rngs = [RandomSource(seed) for seed in range(EPISTASIS_RUNS)]
            results = qiga_lockstep(problem, QigaConfig(order=order), rngs)
            data[(key, order)] = np.array([result.best_fitness for result in results])
    data["optimum"] = {key: problems[key].optimum for key in problems}
    return data
