"""Independent reference implementations used to cross-check the package.

Everything here is written against textbook definitions with dense
matrices and exhaustive enumeration, deliberately avoiding the package's
own computational shortcuts so that agreement is meaningful.  The
parameter-shift gradients are the exception: they differentiate the
package's own expectations (whose circuit matrix is itself checked
against ``staircase_unitary``), so that they isolate the adjoint sweep.
"""

import numpy as np

from qhbm import qsim


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def single_qubit_operator(n_qubits: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    """Embed a 2x2 gate on one qubit; qubit 0 is the most significant bit."""
    op = np.eye(1, dtype=np.complex128)
    for q in range(n_qubits):
        op = np.kron(op, gate if q == qubit else np.eye(2, dtype=np.complex128))
    return op


def cnot_matrix(n_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT as an explicit basis permutation matrix."""
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        bits = [(col >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        if bits[control]:
            bits[target] ^= 1
        row = 0
        for b in bits:
            row = (row << 1) | b
        mat[row, col] = 1.0
    return mat


def staircase_unitary(n_qubits: int, n_layers: int, angles) -> np.ndarray:
    """Dense unitary of the layered adjacent-pair rotation + CNOT circuit.

    Per block: RY(a) on the lower-index qubit, RY(b) on the next one,
    then CNOT with the lower qubit as control.
    """
    angles = np.asarray(angles, dtype=np.float64)
    assert angles.size == 2 * (n_qubits - 1) * n_layers
    u = np.eye(2**n_qubits, dtype=np.complex128)
    k = 0
    for _ in range(n_layers):
        for lower in range(n_qubits - 1):
            a, b = angles[k], angles[k + 1]
            k += 2
            block = single_qubit_operator(n_qubits, lower + 1, ry_matrix(b)) @ (
                single_qubit_operator(n_qubits, lower, ry_matrix(a))
            )
            u = cnot_matrix(n_qubits, lower, lower + 1) @ block @ u
    return u


def diagonal_hamiltonian_matrix(n_qubits: int, basis_indices, energies) -> np.ndarray:
    mat = np.zeros((2**n_qubits, 2**n_qubits), dtype=np.complex128)
    for idx, energy in zip(basis_indices, energies):
        mat[idx, idx] = energy
    return mat


def free_energy_enumerated(weights, visible_bias, hidden_bias, v) -> float:
    """-log sum_h exp(-E(v, h)) by exhaustive enumeration of hidden states."""
    weights = np.asarray(weights, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_hidden = weights.shape[1]
    log_terms = []
    for h_index in range(2**n_hidden):
        h = np.array([(h_index >> (n_hidden - 1 - j)) & 1 for j in range(n_hidden)], dtype=np.float64)
        energy = -float(visible_bias @ v) - float(hidden_bias @ h) - float(v @ weights @ h)
        log_terms.append(-energy)
    log_terms = np.array(log_terms)
    shift = log_terms.max()
    return -float(shift + np.log(np.sum(np.exp(log_terms - shift))))


def boltzmann_distribution(energies) -> np.ndarray:
    energies = np.asarray(energies, dtype=np.float64)
    weights = np.exp(-(energies - energies.min()))
    return weights / weights.sum()


def dft_power(values, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectrum via the direct O(N^2) Fourier sum."""
    x = np.asarray(values, dtype=np.float64)
    x = x - x.mean()
    n = x.size
    total_time = n * dt
    freqs = np.arange(n // 2 + 1) / (n * dt)
    power = np.empty(freqs.size)
    for k in range(freqs.size):
        transform = np.sum(x * np.exp(-2j * np.pi * k * np.arange(n) / n))
        power[k] = 2.0 * dt**2 / total_time * np.abs(transform) ** 2
    return freqs, power


def mann_whitney_auc(signal_scores, background_scores) -> float:
    s = np.asarray(signal_scores, dtype=np.float64)
    b = np.asarray(background_scores, dtype=np.float64)
    greater = np.sum(s[:, None] > b[None, :])
    ties = np.sum(s[:, None] == b[None, :])
    return float((greater + 0.5 * ties) / (s.size * b.size))


def pair_reduced_matrix(rho: np.ndarray, i: int, j: int, n_qubits: int) -> np.ndarray:
    """Two-qubit reduced density matrix by explicit index-pair summation."""
    assert i < j
    reduced = np.zeros((4, 4), dtype=np.complex128)
    rest = [q for q in range(n_qubits) if q not in (i, j)]
    for row in range(2**n_qubits):
        row_bits = [(row >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        for col in range(2**n_qubits):
            col_bits = [(col >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
            if any(row_bits[q] != col_bits[q] for q in rest):
                continue
            r = (row_bits[i] << 1) | row_bits[j]
            c = (col_bits[i] << 1) | col_bits[j]
            reduced[r, c] += rho[row, col]
    return reduced


def fidelity_highprec(a: np.ndarray, b: np.ndarray, dps: int = 50) -> float:
    """Uhlmann fidelity of real symmetric density matrices via mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        ma = mp.matrix(a.tolist())
        mb = mp.matrix(b.tolist())
        ea, qa = mp.eigsy(ma)
        sqrt_a = qa * mp.diag([mp.sqrt(max(x, mp.mpf(0))) for x in ea]) * qa.T
        inner = sqrt_a * mb * sqrt_a
        inner = (inner + inner.T) / 2
        ei, _ = mp.eigsy(inner)
        trace = mp.fsum(mp.sqrt(max(x, mp.mpf(0))) for x in ei)
        return float(trace**2)


def random_density_matrix(dim: int, rng: np.random.Generator, complex_entries: bool = True) -> np.ndarray:
    shape = (dim, dim)
    g = rng.normal(size=shape)
    if complex_entries:
        g = g + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def parameter_shift_gradient(config, ansatz, ham, adjoint: bool = False) -> np.ndarray:
    """Exact gradient of ``qsim.circuit_expectation`` w.r.t. every angle.

    Component k is (f(angle_k + pi/2) - f(angle_k - pi/2)) / 2, which is
    exact for RY rotations (Schuld et al., arXiv:1811.11184).
    """
    grad = np.zeros(ansatz.n_parameters)
    if ham.basis_indices.size == 0:
        return grad
    half_pi = np.pi / 2.0
    for k in range(ansatz.n_parameters):
        up = qsim.circuit_expectation(config, ansatz.shifted(k, +half_pi), ham, adjoint)
        down = qsim.circuit_expectation(config, ansatz.shifted(k, -half_pi), ham, adjoint)
        grad[k] = 0.5 * (up - down)
    return grad


def distribution_expectation(ansatz, ham, q, adjoint: bool = False) -> float:
    """sum_z E(z) sum_x |<z| V |x>|**2 q_x with V = U, or U^T with ``adjoint``."""
    u = qsim.ansatz_unitary(ansatz)
    if adjoint:
        u = u.T
    routed = np.abs(u) ** 2 @ q
    return float(ham.energies @ routed[ham.basis_indices])


def batch_parameter_shift_gradient(ansatz, ham, q, adjoint: bool = False) -> np.ndarray:
    """Parameter-shift gradient of ``distribution_expectation`` over every angle."""
    grad = np.zeros(ansatz.n_parameters)
    if ham.basis_indices.size == 0:
        return grad
    half_pi = np.pi / 2.0
    for k in range(ansatz.n_parameters):
        up = distribution_expectation(ansatz.shifted(k, +half_pi), ham, q, adjoint)
        down = distribution_expectation(ansatz.shifted(k, -half_pi), ham, q, adjoint)
        grad[k] = 0.5 * (up - down)
    return grad
