"""Quantum-order bookkeeping for search algorithms over N-bit spaces.

The order r of an algorithm is the size of its largest quantum register.  The
quantum factor compares the dimension of the algorithm's chromosome state
space, 2**r * (N/r), against the 2**N dimension of a register holding all N
bits at once.  Everything is computed in log2 space because the linear ratio
underflows doubles long before problem sizes get interesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import check_int


class AlgorithmClass(Enum):
    """Where an algorithm sits on the classical-to-quantum spectrum."""

    CLASSICAL = "classical"
    QUANTUM_INSPIRED = "quantum-inspired"
    TRUE_QUANTUM = "true-quantum"


def _check_order(r: int, n: int) -> None:
    check_int("problem size", n, 1)
    check_int("order", r, 1)
    if r > n:
        raise ValueError(f"order must satisfy 1 <= r <= N, got r={r}, N={n}")


def relative_order(r: int, n: int) -> float:
    """Ratio r/N in (0, 1]: 1 means a single register holds every gene."""
    _check_order(r, n)
    return r / n


def log2_quantum_factor(r: int, n: int) -> float:
    """log2 of the quantum factor, exact at any problem size.

    The grouped arithmetic keeps the r=1 and r=2 values bit-identical, as
    they must be: both state spaces have dimension 2N.
    """
    _check_order(r, n)
    return (r - n) + (math.log2(n) - math.log2(r))


def quantum_factor(r: int, n: int) -> float:
    """Linear-scale quantum factor in [0, 1]; underflows to 0.0 for large N."""
    return 2.0 ** log2_quantum_factor(r, n)


def classify(log2_lambda: float | None) -> AlgorithmClass:
    """Classify by quantum factor.

    Pass None for an algorithm with no quantum elements at all (the factor is
    0 by definition there, never by computation).  Otherwise pass a finite
    log2 factor: 0 means a true quantum algorithm, negative means
    quantum-inspired.
    """
    if log2_lambda is None:
        return AlgorithmClass.CLASSICAL
    if not math.isfinite(log2_lambda):
        raise ValueError(f"log2 quantum factor must be finite, got {log2_lambda}")
    if log2_lambda > 0:
        raise ValueError(f"quantum factor cannot exceed 1, got log2 value {log2_lambda}")
    if log2_lambda == 0:
        return AlgorithmClass.TRUE_QUANTUM
    return AlgorithmClass.QUANTUM_INSPIRED


@dataclass(frozen=True)
class OrderProfile:
    """The order-related quantities of one (r, N) configuration."""

    problem_size: int
    order: int
    relative_order: float
    log2_quantum_factor: float
    quantum_factor: float

    @property
    def algorithm_class(self) -> AlgorithmClass:
        return classify(self.log2_quantum_factor)


def order_profile(r: int, n: int) -> OrderProfile:
    _check_order(r, n)
    return OrderProfile(
        problem_size=n,
        order=r,
        relative_order=relative_order(r, n),
        log2_quantum_factor=log2_quantum_factor(r, n),
        quantum_factor=quantum_factor(r, n),
    )


def profile_grid(n_values: Iterable[int], orders: Iterable[int]) -> list[OrderProfile]:
    """Profiles for every valid (r, N) pair; pairs with r > N are skipped."""
    orders = list(orders)
    return [order_profile(r, n) for n in n_values for r in orders if 1 <= r <= n]
