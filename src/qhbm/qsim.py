"""Dense statevector simulation for small qubit registers.

Bit convention is big-endian throughout: qubit 0 is the most significant
bit of the basis index, so for a 4-qubit register the bits (0, 1, 0, 1)
address amplitude index 5.  Registers are capped at 10 qubits.

The variational circuit is a staircase of two-qubit blocks.  Within one
layer, blocks act on qubit pairs (0,1), (1,2), ..., (n-2, n-1) in order;
each block applies RY(a) to the lower-index qubit, RY(b) to the
higher-index qubit, then a CNOT with the lower-index qubit as control.
Every angle parametrises exactly one RY gate.

RY and CNOT are real, so the circuit matrix U is orthogonal and the
engine works on real float64 arrays: ``ansatz_unitary`` returns U as a
real matrix, and a gate updates an array of shape (2**n, ...) in place
through a (2**q, 2, rest) view that exposes qubit q as the middle axis.
The same gate-list walker applies U and its inverse U^T (the reversed
gate list with negated angles).  ``StateVector`` stays complex128 at the
API edge; the real gates act on its real and imaginary parts alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .ebm import ModularHamiltonian

MAX_QUBITS = 10


def _check_n_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


@dataclass(frozen=True)
class SpinConfig:
    """An ordered bit sequence addressing one computational basis state."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_n_qubits(len(self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits}")

    @property
    def n_qubits(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """Basis index with qubit 0 as the most significant bit."""
        idx = 0
        for b in self.bits:
            idx = (idx << 1) | b
        return idx

    @classmethod
    def from_index(cls, index: int, n_qubits: int) -> "SpinConfig":
        _check_n_qubits(n_qubits)
        if not 0 <= index < 2**n_qubits:
            raise ValueError(f"index {index} out of range for {n_qubits} qubits")
        return cls(tuple(int(b) for b in index_bits(index, n_qubits)))

    def as_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.float64)


def index_bits(indices: int | Sequence[int] | np.ndarray, n_qubits: int) -> np.ndarray:
    """0/1 float64 bits of basis indices, qubit 0 first: shape (..., n_qubits)."""
    shifts = np.arange(n_qubits - 1, -1, -1)
    return ((np.asarray(indices, dtype=np.int64)[..., None] >> shifts) & 1).astype(np.float64)


@dataclass
class CircuitAnsatz:
    """Staircase circuit: ``n_layers`` layers of RY/RY/CNOT blocks.

    ``angles`` holds 2*(n_qubits-1)*n_layers values.  Block b of layer l
    uses angles[2*((n_qubits-1)*l + b)] on qubit b and the following
    entry on qubit b+1.
    """

    n_qubits: int
    n_layers: int
    angles: np.ndarray

    def __post_init__(self) -> None:
        _check_n_qubits(self.n_qubits)
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if self.angles.ndim != 1 or self.angles.size != self.n_parameters:
            raise ValueError(
                f"expected {self.n_parameters} angles for "
                f"{self.n_qubits} qubits x {self.n_layers} layers, "
                f"got shape {self.angles.shape}"
            )
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("angles must be finite")

    @property
    def n_parameters(self) -> int:
        return 2 * (self.n_qubits - 1) * self.n_layers

    def with_angles(self, angles: Sequence[float]) -> "CircuitAnsatz":
        return CircuitAnsatz(self.n_qubits, self.n_layers, np.asarray(angles))

    def blocks(self) -> Iterator[tuple[int, int, int]]:
        """Yield (lower_qubit, angle_index_lower, angle_index_upper) in order."""
        per_layer = self.n_qubits - 1
        for layer in range(self.n_layers):
            for b in range(per_layer):
                base = 2 * (per_layer * layer + b)
                yield b, base, base + 1


@dataclass
class StateVector:
    """Normalised amplitudes over the computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_n_qubits(self.n_qubits)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got shape "
                f"{self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def prepare_basis_state(config: SpinConfig) -> StateVector:
    """State with amplitude 1 at the index addressed by ``config``."""
    amps = np.zeros(2**config.n_qubits, dtype=np.complex128)
    amps[config.index] = 1.0
    return StateVector(config.n_qubits, amps)


def circuit_gates(ansatz: CircuitAnsatz, adjoint: bool = False) -> list[tuple[int, int, float]]:
    """(qubit, angle index, angle) triples in application order.

    A triple with angle index k >= 0 is RY(angle) on ``qubit``, where
    angle is angles[k]; index -1 is the CNOT with ``qubit`` as control
    and ``qubit + 1`` as target.  With ``adjoint`` the list describes
    U^T: the gates in reverse order with negated angles.
    """
    gates: list[tuple[int, int, float]] = []
    for q, ia, ib in ansatz.blocks():
        gates += [(q, ia, ansatz.angles[ia]), (q + 1, ib, ansatz.angles[ib]), (q, -1, 0.0)]
    if adjoint:
        gates = [(q, k, -angle) for q, k, angle in reversed(gates)]
    return gates


def apply_gate(arr: np.ndarray, qubit: int, k: int, angle: float) -> None:
    """Apply one ``circuit_gates`` triple in place to a C-contiguous (2**n, ...) array.

    Viewing the array as (2**qubit, 2, rest) puts ``qubit`` on the middle
    axis, so RY is one stacked 2x2 product written back through the view
    and CNOT a swap of two slabs.  Applying (qubit, k, -angle) undoes
    (qubit, k, angle).
    """
    if k < 0:
        # CNOT swaps the target's two halves inside the control-1 half.
        v = arr.reshape(2**qubit, 2, 2, -1, copy=False)
        v[:, 1, [0, 1]] = v[:, 1, [1, 0]]
        return
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    v = arr.reshape(2**qubit, 2, -1, copy=False)
    v[...] = np.array([[c, -s], [s, c]]) @ v


def _apply_circuit(arr: np.ndarray, ansatz: CircuitAnsatz, adjoint: bool = False) -> np.ndarray:
    for gate in circuit_gates(ansatz, adjoint):
        apply_gate(arr, *gate)
    return arr


def _check_match(state: StateVector, ansatz: CircuitAnsatz) -> None:
    if state.n_qubits != ansatz.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits but ansatz expects {ansatz.n_qubits}"
        )


def apply_ansatz(state: StateVector, ansatz: CircuitAnsatz) -> StateVector:
    """Return U(angles) |state>; the input state is left untouched."""
    _check_match(state, ansatz)
    return StateVector(state.n_qubits, _apply_circuit(state.amplitudes.copy(), ansatz))


def apply_adjoint_ansatz(state: StateVector, ansatz: CircuitAnsatz) -> StateVector:
    """Return U(angles)^dagger |state>; exact inverse of ``apply_ansatz``."""
    _check_match(state, ansatz)
    return StateVector(
        state.n_qubits, _apply_circuit(state.amplitudes.copy(), ansatz, adjoint=True)
    )


def ansatz_unitary(ansatz: CircuitAnsatz) -> np.ndarray:
    """Real orthogonal 2**n x 2**n matrix of the circuit (column x = U |x>)."""
    return _apply_circuit(np.eye(2**ansatz.n_qubits), ansatz)


def diagonal_expectation(state: StateVector, ham: "ModularHamiltonian") -> float:
    """<state| K |state> for a diagonal operator given on its support.

    Basis states absent from the support contribute zero.
    """
    if ham.n_qubits != state.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits but operator has {ham.n_qubits}"
        )
    return float(ham.energies @ state.probabilities()[ham.support])


def circuit_expectation(
    config: SpinConfig,
    ansatz: CircuitAnsatz,
    ham: "ModularHamiltonian",
    adjoint: bool = False,
) -> float:
    """Diagonal expectation after routing a basis state through the circuit.

    Default orientation embeds |config>, applies the forward circuit and
    measures, i.e. <p| U^dag K U |p>.  With ``adjoint=True`` the inverse
    circuit is applied instead, giving <p| U K U^dag |p>.
    """
    state = prepare_basis_state(config)
    rotated = apply_adjoint_ansatz(state, ansatz) if adjoint else apply_ansatz(state, ansatz)
    return diagonal_expectation(rotated, ham)


def evolve_diagonal(
    state: StateVector,
    ham: "ModularHamiltonian",
    total_time: float,
    dt: float,
) -> tuple[StateVector, float]:
    """Evolve under exp(-i K t) for a diagonal K given on its support.

    The requested time is quantised to N = round(total_time / dt) steps
    and the actual evolved time N * dt is returned alongside the state.
    Because K is diagonal, applying N steps of dt equals the one-shot
    exponential at N * dt to machine precision, so the phases are applied
    in one shot.  Amplitudes outside the support are untouched (their
    energy is zero).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if ham.n_qubits != state.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits but operator has {ham.n_qubits}"
        )
    n_steps = int(round(total_time / dt))
    actual_time = n_steps * dt
    amps = state.amplitudes.copy()
    amps[ham.support] *= np.exp(-1j * actual_time * ham.energies)
    return StateVector(state.n_qubits, amps), actual_time
