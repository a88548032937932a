"""Quantum and classical population primitives.

A quantum register of order r is a unit vector of 2**r real amplitudes; its
squared entries form a probability distribution over the 2**r values an r-bit
gene group can take.  A quantum chromosome covers N binary genes with a run of
such registers.  Observation samples a classical bitstring from that product
distribution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Classical individuals are plain numpy arrays of 0/1 values, dtype uint8.
BitString = np.ndarray

#: Above this register order the dense 2**r amplitude vector stops being
#: practical on a desktop machine.
MAX_ORDER = 30

NORM_TOLERANCE = 1e-9
RENORM_TRIGGER = 1e-12


def check_int(name: str, value, least: int | None = None) -> None:
    """Raise a ValueError naming `name` unless value is an int, not a bool, and >= least."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise a ValueError naming `name` unless value is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def check_order(order, genes: int | None = None) -> None:
    """Raise a ValueError unless order is an int in [1, MAX_ORDER], and <= genes when given."""
    check_int("order", order, 1)
    if order > MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if genes is not None and order > genes:
        raise ValueError(f"order {order} exceeds the gene count {genes}")


class RandomSource:
    """Deterministic random stream: one 64-bit seed, one PCG64 generator.

    PCG64 is a documented, versioned bit generator, so a recorded seed
    reproduces the exact same draws across runs and library versions.  Engines
    observe through ``uniforms``, whose batches split freely: ``uniforms(a + b)``
    equals ``uniforms(a)`` then ``uniforms(b)`` and leaves ``gen`` in the same
    state.  Every other draw goes to ``gen`` directly.
    """

    def __init__(self, seed: int):
        check_int("seed", seed, 0)
        self.seed = seed
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws from [0, 1)."""
        return self.gen.random(n)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


@dataclass(frozen=True)
class QuantumRegister:
    """Unit vector of 2**order real amplitudes over an order-bit gene group."""

    order: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_order(self.order)
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2**self.order,):
            raise ValueError(
                f"order-{self.order} register needs {2**self.order} amplitudes, "
                f"got shape {amps.shape}"
            )
        norm = float(np.sum(amps**2))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"amplitudes are not normalized: sum of squares = {norm!r}")

    @property
    def probabilities(self) -> np.ndarray:
        """Squared amplitudes: the distribution observation samples from."""
        return self.amplitudes**2

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumRegister):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.amplitudes, other.amplitudes)


@dataclass(frozen=True)
class QuantumChromosome:
    """Ordered registers jointly covering `length` binary genes.

    All registers share one order, except possibly a shorter final register
    when the order does not divide the gene count.
    """

    length: int
    registers: tuple[QuantumRegister, ...]

    def __post_init__(self):
        regs = tuple(self.registers)
        object.__setattr__(self, "registers", regs)
        check_int("chromosome length", self.length, 1)
        if not regs:
            raise ValueError("chromosome needs at least one register")
        orders = [r.order for r in regs]
        if sum(orders) != self.length:
            raise ValueError(
                f"register orders {orders} sum to {sum(orders)}, expected {self.length}"
            )
        head = orders[:-1]
        if head and (len(set(head)) != 1 or orders[-1] > head[0]):
            raise ValueError(
                f"registers must share one order except a shorter final one, got {orders}"
            )

    @property
    def layout(self) -> list[int]:
        return [r.order for r in self.registers]


def chromosome_layout(n_bits: int, order: int) -> list[int]:
    """Register orders covering n_bits genes with registers of the given order.

    A trailing remainder becomes one shorter register, so any problem size
    works with any order.
    """
    check_int("gene count", n_bits, 1)
    check_order(order)
    full, tail = divmod(n_bits, order)
    return [order] * full + ([tail] if tail else [])


def register_uniform(order: int) -> QuantumRegister:
    """Register whose observation samples all 2**order group values equally."""
    check_order(order)
    dim = 2**order
    return QuantumRegister(order, np.full(dim, np.sqrt(1.0 / dim)))


def register_basis(order: int, index: int) -> QuantumRegister:
    """Register that deterministically observes the given group value."""
    check_order(order)
    check_int("basis index", index)
    if not 0 <= index < 2**order:
        raise ValueError(f"basis index must be in [0, {2**order}), got {index}")
    amps = np.zeros(2**order)
    amps[index] = 1.0
    return QuantumRegister(order, amps)


def chromosome_uniform(n_bits: int, order: int) -> QuantumChromosome:
    """Chromosome of uniform registers: samples the whole search space evenly."""
    regs = tuple(register_uniform(o) for o in chromosome_layout(n_bits, order))
    return QuantumChromosome(n_bits, regs)


def _scan_outcomes(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Map uniform draws to outcomes by the ascending cumulative-threshold scan.

    Outcome k is the first index whose cumulative probability exceeds the
    draw; a draw at or past the final cumulative value (float round-off)
    falls into the last branch.
    """
    thresholds = np.cumsum(probs)
    idx = np.searchsorted(thresholds, draws, side="right")
    return np.minimum(idx, len(probs) - 1)


def observe_register(reg: QuantumRegister, rng: RandomSource) -> int:
    """Sample one group value: index k with probability amplitudes[k]**2."""
    return int(_scan_outcomes(reg.probabilities, rng.uniforms(1))[0])


def observe_register_many(reg: QuantumRegister, n: int, rng: RandomSource) -> np.ndarray:
    """n observations of one register; identical stream to n single observations."""
    check_int("observation count", n, 0)
    return _scan_outcomes(reg.probabilities, rng.uniforms(n))


def group_to_bits(value: int, order: int) -> BitString:
    """Big-endian bit expansion: the group's first gene is the high bit."""
    check_order(order)
    check_int("group value", value, 0)
    if value >= 2**order:
        raise ValueError(f"group value must be in [0, {2**order}), got {value!r}")
    shifts = np.arange(order - 1, -1, -1)
    return ((value >> shifts) & 1).astype(np.uint8)


def bits_to_group(bits: BitString) -> int:
    """Inverse of group_to_bits: bits is a non-empty 1-D sequence of 0/1 values."""
    array = np.asarray(bits)
    if array.ndim != 1 or not array.size or not ((array == 0) | (array == 1)).all():
        raise ValueError(f"bits must be a non-empty sequence of 0/1 values, got {bits!r}")
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def observe_chromosome(chrom: QuantumChromosome, rng: RandomSource) -> BitString:
    """Sample a full bitstring, register by register in order.

    Draws one uniform per register in a single batch, which consumes the
    stream exactly as per-register observe_register calls would.
    """
    draws = rng.uniforms(len(chrom.registers))
    out = np.empty(chrom.length, dtype=np.uint8)
    pos = 0
    for reg, u in zip(chrom.registers, draws):
        value = int(_scan_outcomes(reg.probabilities, np.asarray(u)))
        out[pos : pos + reg.order] = group_to_bits(value, reg.order)
        pos += reg.order
    return out


def bits_to_string(bits: BitString) -> str:
    return np.where(np.asarray(bits) != 0, b"1", b"0").tobytes().decode("ascii")


def bits_from_string(text: str) -> BitString:
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"bitstring must be nonempty over {{0,1}}, got {text!r}")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
