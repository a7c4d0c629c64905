"""Exact one/two-qubit state vectors: Bell states, CNOT, separability, cloning.

Two-qubit basis order is |00>, |01>, |10>, |11> with the left tensor factor
as the CNOT control, fixed project-wide.  All equality-style checks use the
1e-12 tolerance; success of a clone attempt is judged by fidelity, so global
phase never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TOLERANCE = 1e-12


@dataclass(frozen=True)
class QuantumState:
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) not in (2, 4):
            raise ValueError(f"state must have 2 or 4 amplitudes, got {len(amps)}")
        norm2 = sum(abs(a) ** 2 for a in amps)
        if abs(norm2 - 1.0) > TOLERANCE:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return 1 if len(self.amplitudes) == 2 else 2


def make_qubit(a: complex, b: complex) -> QuantumState:
    """The state a|0> + b|1>; input must be normalized to within 1e-9."""
    a, b = complex(a), complex(b)
    norm2 = abs(a) ** 2 + abs(b) ** 2
    if norm2 == 0:
        raise ValueError("zero vector is not a state")
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"amplitudes not normalized: |a|^2 + |b|^2 = {norm2!r}")
    n = math.sqrt(norm2)
    return QuantumState((a / n, b / n))


def zero() -> QuantumState:
    return QuantumState((1, 0))


def one() -> QuantumState:
    return QuantumState((0, 1))


def cat() -> QuantumState:
    r = 1 / math.sqrt(2)
    return QuantumState((r, r))


def tensor(p: QuantumState, q: QuantumState) -> QuantumState:
    """Product state of two single qubits, c_ij = p_i * q_j."""
    if p.num_qubits != 1 or q.num_qubits != 1:
        raise ValueError("tensor expects two single-qubit states")
    p0, p1 = p.amplitudes
    q0, q1 = q.amplitudes
    return QuantumState((p0 * q0, p0 * q1, p1 * q0, p1 * q1))


def apply_cnot(s: QuantumState) -> QuantumState:
    """Flip the target (right) qubit where the control (left) qubit is |1>."""
    if s.num_qubits != 2:
        raise ValueError("CNOT acts on a two-qubit state")
    c00, c01, c10, c11 = s.amplitudes
    return QuantumState((c00, c01, c11, c10))


_BELL_TABLE = {
    "phi+": (1, 0, 0, 1),
    "phi-": (1, 0, 0, -1),
    "psi+": (0, 1, 1, 0),
    "psi-": (0, 1, -1, 0),
}

BELL_NAMES = tuple(_BELL_TABLE)


def bell_state(which: str) -> QuantumState:
    """One of the four maximally entangled states phi+/phi-/psi+/psi-."""
    key = which.lower()
    if key not in _BELL_TABLE:
        raise ValueError(f"unknown Bell state {which!r}; use one of {BELL_NAMES}")
    r = 1 / math.sqrt(2)
    return QuantumState(tuple(r * x for x in _BELL_TABLE[key]))


def fidelity(p: QuantumState, q: QuantumState) -> float:
    """Squared overlap |<p|q>|^2."""
    if len(p.amplitudes) != len(q.amplitudes):
        raise ValueError("fidelity needs states of equal dimension")
    return abs(sum(a.conjugate() * b for a, b in zip(p.amplitudes, q.amplitudes))) ** 2


def is_separable(s: QuantumState) -> bool:
    """Rank-1 criterion on the 2x2 amplitude matrix."""
    if s.num_qubits != 2:
        raise ValueError("separability is defined for two-qubit states")
    c00, c01, c10, c11 = s.amplitudes
    return abs(c00 * c11 - c01 * c10) <= TOLERANCE


@dataclass(frozen=True)
class CloneOutcome:
    produced: QuantumState
    intended: QuantumState
    success: bool
    fidelity_with_intended: float

    def __post_init__(self):
        if self.success != (self.fidelity_with_intended >= 1 - TOLERANCE):
            raise ValueError("success flag inconsistent with fidelity")


def try_clone(psi: QuantumState) -> CloneOutcome:
    """CNOT copy attempt with a |0> ancilla.

    Basis states (up to phase) duplicate exactly; any genuine superposition
    comes out entangled with the ancilla instead of copied.
    """
    if psi.num_qubits != 1:
        raise ValueError("try_clone expects a single-qubit state")
    produced = apply_cnot(tensor(psi, zero()))
    intended = tensor(psi, psi)
    fid = fidelity(produced, intended)
    return CloneOutcome(produced, intended, fid >= 1 - TOLERANCE, fid)
