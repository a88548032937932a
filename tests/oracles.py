"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's vectorised code paths: plain Python
loops over clause literals and explicit bit expansion.
"""

import numpy as np


def brute_force_satisfied(formula, bits) -> float:
    """Weighted satisfied-clause count, one literal at a time."""
    total = 0.0
    weights = formula.weights or [1.0] * formula.clause_count
    for clause, weight in zip(formula.clauses, weights):
        for lit in clause:
            value = bits[abs(lit) - 1]
            if (lit > 0 and value == 1) or (lit < 0 and value == 0):
                total += weight
                break
    return total


def all_assignments(n: int):
    """Every length-n bitstring, most significant bit first."""
    for value in range(2**n):
        yield np.array([(value >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def onemax_reference(bits) -> np.ndarray:
    """OneMax as first written: the float64 sum of the bits."""
    return np.add.reduce(bits, axis=-1, dtype=np.float64)


def pair_trap_reference(bits, optimum=1.0, attractor=0.9, mixed=0.0) -> np.ndarray:
    """The pair trap as first written: pair 2a + b scores (optimum, mixed, mixed, attractor)."""
    scores = np.array([optimum, mixed, mixed, attractor])
    pairs = bits.reshape(*bits.shape[:-1], bits.shape[-1] // 2, 2)
    return np.add.reduce(scores.take(2 * pairs[..., 0] + pairs[..., 1]), axis=-1)
