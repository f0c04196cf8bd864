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
real matrix.  The engine works on fused blocks: ``circuit_blocks`` gives
each block as one real 4x4 M = CNOT.(RY(a) x RY(b)), and ``apply_block``
applies M through a (..., 2**q, 4, rest) view that puts the block's two
qubits on one axis, so a block is one product instead of three gate
passes.  M is orthogonal, so applying the blocks in reverse with M^T
undoes the circuit, which is how the angle gradient sweeps back.
The contiguity rule: the views are reshapes without a copy, so every
array the engine writes must be C-contiguous.  A strided array, such as
a column selection U[:, cols], would be updated in a copy and the result
silently lost, so ``apply_block`` raises on one instead.  Basis states
are int64 indices, so the circuit matrix U is the only state-sized
object this module builds.  Training routes data through U, so the
model state in data space is U^T diag(p) U (``train.model_state``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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

    ``angles`` holds 2*(n_qubits-1)*n_layers values, two per block in the
    order ``circuit_blocks`` gives.
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


def circuit_blocks(ansatz: CircuitAnsatz) -> list[tuple[int, np.ndarray]]:
    """(qubit, M) for every block of U in order.

    Block k acts on qubits (qubit, qubit + 1) with qubit = k mod (n - 1),
    and M is the real 4x4 CNOT.(RY(a) x RY(b)) with a = angles[2k] and
    b = angles[2k + 1], in local index 2*bit(qubit) + bit(qubit + 1): the
    rows of RY(a) x RY(b) with rows 2 and 3 swapped by the CNOT.  All
    blocks are built at once from the half-angle cosines and sines, each
    entry one product.
    """
    half = ansatz.angles.reshape(-1, 2) / 2.0
    c, s = np.cos(half), np.sin(half)
    # ry[k, j] is RY of block k's qubit j (0 the lower index, 1 the next).
    ry = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2, 2)
    kron = ry[:, 0, :, None, :, None] * ry[:, 1, None, :, None, :]
    m = kron.reshape(-1, 4, 4)[:, [0, 1, 3, 2]]
    return [(k % (ansatz.n_qubits - 1), mat) for k, mat in enumerate(m)]


def apply_block(
    arr: np.ndarray, qubit: int, m: np.ndarray, out: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Write ``m`` applied to ``arr`` on qubits (qubit, qubit + 1) into ``out``; return ``out``.

    ``arr`` and ``out`` are C-contiguous arrays of one shape with the 2**n
    basis on ``axis``.  Merging the axes before it with the 2**qubit
    higher bits gives a (..., 2**qubit, 4, rest) view whose middle axis is
    the block's local index, so the block is one stacked product.  A
    non-contiguous array raises, because its view would be a copy and
    the result would be lost.  Applying ``m.T`` undoes ``m``.
    """
    if not (arr.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("apply_block needs C-contiguous arrays")
    shape = (math.prod(arr.shape[:axis]) * 2**qubit, 4, -1)
    np.matmul(m, arr.reshape(shape, copy=False), out=out.reshape(shape, copy=False))
    return out


def ansatz_unitary(ansatz: CircuitAnsatz) -> np.ndarray:
    """Real orthogonal 2**n x 2**n matrix of the circuit (column x = U |x>)."""
    u = np.eye(2**ansatz.n_qubits)
    spare = np.empty_like(u)
    for qubit, m in circuit_blocks(ansatz):
        u, spare = apply_block(u, qubit, m, spare), u
    return u
