"""Real-valued simulation of the staircase circuit on small qubit registers.

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
Applying the gate list in reverse with negated angles undoes it, which
is how the angle gradient sweeps back through the circuit.  Basis states
are int64 indices, so the circuit matrix U is the only state-sized
object this module builds.  Training routes data through U, so the
model state in data space is U^T diag(p) U (``train.model_state``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

MAX_QUBITS = 10


def _check_n_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


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


def circuit_gates(ansatz: CircuitAnsatz) -> list[tuple[int, int, float]]:
    """(qubit, angle index, angle) triples of U in application order.

    A triple with angle index k >= 0 is RY(angle) on ``qubit``, where
    angle is angles[k]; index -1 is the CNOT with ``qubit`` as control
    and ``qubit + 1`` as target.
    """
    gates: list[tuple[int, int, float]] = []
    for q, ia, ib in ansatz.blocks():
        gates += [(q, ia, ansatz.angles[ia]), (q + 1, ib, ansatz.angles[ib]), (q, -1, 0.0)]
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


def ansatz_unitary(ansatz: CircuitAnsatz) -> np.ndarray:
    """Real orthogonal 2**n x 2**n matrix of the circuit (column x = U |x>)."""
    u = np.eye(2**ansatz.n_qubits)
    for gate in circuit_gates(ansatz):
        apply_gate(u, *gate)
    return u
