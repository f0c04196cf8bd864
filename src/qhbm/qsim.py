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
real matrix.  The engine works on groups of blocks: ``circuit_groups``
splits each layer into runs of two consecutive blocks, each one real 8x8
operator F on its three qubits, and a trailing odd block that stays its
own 4x4 M = CNOT.(RY(a) x RY(b)) (``tests/oracles.circuit_blocks`` builds
each M densely).  ``apply_block`` applies a d x d operator through a (..., 2**q, d,
rest) view that puts its qubits on one axis, so a group is one product
instead of two block passes or six gate passes.  F is orthogonal, so
applying the groups in reverse with F^T undoes the circuit, which is
how the angle gradient sweeps back; each group also carries one
generator per angle, from which that sweep reads the angle's derivative
at the group's input.  The contiguity rule: the views are reshapes
without a copy, so every array the engine writes must be C-contiguous.
A strided array, such as a column selection U[:, cols], would be updated
in a copy and the result silently lost, so ``apply_block`` raises on one
instead.  Basis states are int64 indices, so the circuit matrix U is the
only state-sized object this module builds.  Training routes data
through U, so the model state in data space is U^T diag(p) U
(``train.model_state``).
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

    ``angles`` holds 2*(n_qubits-1)*n_layers values, two per block: block
    k acts on qubits (k mod (n - 1), k mod (n - 1) + 1) with RY(angles[2k])
    and RY(angles[2k + 1]).  ``circuit_groups`` fuses the blocks in this
    order, and ``tests/oracles.circuit_blocks`` lists them one by one.
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


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over the rest."""
    prod = x[..., :, None, :, None] * y[..., None, :, None, :]
    shape = prod.shape
    return prod.reshape(*shape[:-4], shape[-4] * shape[-3], shape[-2] * shape[-1])


def _block_matrices(angles: np.ndarray) -> np.ndarray:
    """(B, 4, 4) stack of every block's M = CNOT.(RY(a) x RY(b)), in block order.

    Block k takes a = angles[2k] and b = angles[2k + 1].  M is in local
    index 2*bit(qubit) + bit(qubit + 1): the rows of RY(a) x RY(b) with
    rows 2 and 3 swapped by the CNOT.
    """
    half = angles.reshape(-1, 2) / 2.0
    c, s = np.cos(half), np.sin(half)
    # ry[k, j] is RY of block k's qubit j (0 the lower index, 1 the next).
    ry = np.empty((len(half), 2, 2, 2))
    ry[..., 0, 0] = ry[..., 1, 1] = c
    ry[..., 1, 0] = s
    np.negative(s, out=ry[..., 0, 1])
    return _kron(ry[:, 0], ry[:, 1])[:, [0, 1, 3, 2]]


# J generates RY: d RY(a)/da = J RY(a) / 2.
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_I = np.eye(2)
_SINGLE_GENERATORS = np.stack([np.kron(_J, _I), np.kron(_I, _J)])
# Slot 2, the second block's first angle, depends on the pair's M1.
_PAIR_GENERATORS = np.stack(
    [np.kron(_J, np.eye(4)), np.kron(np.kron(_I, _J), _I), np.zeros((8, 8)), np.kron(np.eye(4), _J)]
)


def circuit_groups(ansatz: CircuitAnsatz) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(qubit, F, X) for every group of U's blocks, in order.

    Each layer's n - 1 blocks fall into runs of two consecutive blocks,
    on qubits (qubit, qubit + 1, qubit + 2) with qubit = 0, 2, 4, ...; a
    trailing odd block is a group of its own.  F is the group's
    orthogonal operator in local big-endian index: the 8x8
    (I x M2).(M1 x I) of a pair, the block's own 4x4 M of a single.  X
    holds one generator per angle of the group, in angle order, with
    dF/dt = F X_t / 2, so an expectation's derivative over t is <X_t, G>
    for the Gram matrix G = sum Lambda Phi^T at the group's input.  A
    pair's first block has J x I x I and I x J x I, its second
    A^T (I x J x I) A and A^T (I x I x J) A = I x I x J with A = M1 x I;
    a single has J x I and I x J.  Every group is built at once from the
    blocks' matrices, with no per-group product.
    """
    n, n_layers = ansatz.n_qubits, ansatz.n_layers
    m = _block_matrices(ansatz.angles).reshape(n_layers, n - 1, 4, 4)
    n_pairs = (n - 1) // 2
    m1, m2 = m[:, 0 : 2 * n_pairs : 2], m[:, 1 : 2 * n_pairs : 2]
    a = _kron(m1, _I)
    # F = (I x M2) A applies M2 to each half of A's rows, the top qubit's 0 and 1.
    f = (m2[..., None, :, :] @ a.reshape(n_layers, n_pairs, 2, 4, 8)).reshape(n_layers, n_pairs, 8, 8)
    x = np.empty((n_layers, n_pairs, 4, 8, 8))
    x[:] = _PAIR_GENERATORS
    np.matmul(a.swapaxes(-1, -2), _PAIR_GENERATORS[1] @ a, out=x[:, :, 2])
    groups = []
    for layer in range(n_layers):
        groups.extend(zip(range(0, 2 * n_pairs, 2), f[layer], x[layer]))
        if (n - 1) % 2:
            groups.append((n - 2, m[layer, -1], _SINGLE_GENERATORS))
    return groups


def apply_block(
    arr: np.ndarray, qubit: int, m: np.ndarray, out: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Write the d x d ``m`` applied to ``arr`` on qubits qubit, qubit + 1, ... into ``out``; return ``out``.

    ``m`` acts on log2(d) consecutive qubits from ``qubit``, in their local
    big-endian index.  ``arr`` and ``out`` are C-contiguous arrays of one
    shape with the 2**n basis on ``axis``.  Merging the axes before it
    with the 2**qubit higher bits gives a (..., 2**qubit, d, rest) view
    whose middle axis is the local index, so the operator is one stacked
    product.  A non-contiguous array raises, because its view would be a
    copy and the result would be lost.  Applying ``m.T`` undoes an
    orthogonal ``m``.
    """
    if not (arr.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("apply_block needs C-contiguous arrays")
    shape = (math.prod(arr.shape[:axis]) * 2**qubit, len(m), -1)
    np.matmul(m, arr.reshape(shape, copy=False), out=out.reshape(shape, copy=False))
    return out


def ansatz_unitary(ansatz: CircuitAnsatz) -> np.ndarray:
    """Real orthogonal 2**n x 2**n matrix of the circuit (column x = U |x>)."""
    u = np.eye(2**ansatz.n_qubits)
    spare = np.empty_like(u)
    for qubit, f, _ in circuit_groups(ansatz):
        u, spare = apply_block(u, qubit, f, spare), u
    return u
