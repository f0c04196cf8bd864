"""Independent reference implementations used to cross-check the package.

Everything here is written against textbook definitions with dense
matrices and exhaustive enumeration, deliberately avoiding the package's
own computational shortcuts so that agreement is meaningful.  The
parameter-shift gradients differentiate the routed expectation with the
circuit matrix of the per-gate walker (``gate_walk_unitary``, itself
checked against ``staircase_unitary``), so that they isolate the fused
block sweep.  The ``*_reference`` functions are the package's earlier
loops, kept to check that faster paths draw the same numbers.  The last
helpers build test inputs and read outputs the package only writes.
"""

import csv
from pathlib import Path

import numpy as np
from scipy.special import expit

from qhbm import ebm, qsim
from qhbm.embed import JET_NOISE, PROB_FLOOR, pixel_layout
from qhbm.errors import DataError
from qhbm.rng import substream


def hamiltonian_from_energies(n_qubits, support, energies) -> ebm.ModularHamiltonian:
    """A modular Hamiltonian straight from basis indices and their energies."""
    return ebm.ModularHamiltonian(n_qubits, support, energies)


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


def blocks(ansatz) -> list[tuple[int, int, int]]:
    """(lower qubit, angle index on it, angle index on the next qubit) per block, in order.

    Each layer walks the pairs (0, 1), ..., (n-2, n-1), and the angles are
    taken two at a time in that order.
    """
    per_layer = ansatz.n_qubits - 1
    return [
        (b, 2 * (per_layer * layer + b), 2 * (per_layer * layer + b) + 1)
        for layer in range(ansatz.n_layers)
        for b in range(per_layer)
    ]


def circuit_blocks(ansatz) -> list[tuple[int, np.ndarray]]:
    """(lower qubit, M) per block in order, M = CNOT.(RY(a) x RY(b)) as a dense 4x4 product.

    M is in the block's local big-endian index 2*bit(lower) + bit(lower + 1).
    """
    cnot = cnot_matrix(2, 0, 1).real
    return [
        (q, cnot @ np.kron(ry_matrix(ansatz.angles[ia]).real, ry_matrix(ansatz.angles[ib]).real))
        for q, ia, ib in blocks(ansatz)
    ]


def circuit_gates(ansatz) -> list[tuple[int, int, float]]:
    """(qubit, angle index, angle) triples of U in application order, one per gate.

    A triple with angle index k >= 0 is RY(angles[k]) on ``qubit``; index
    -1 is the CNOT with ``qubit`` as control and ``qubit + 1`` as target.
    """
    gates: list[tuple[int, int, float]] = []
    for q, ia, ib in blocks(ansatz):
        gates += [(q, ia, ansatz.angles[ia]), (q + 1, ib, ansatz.angles[ib]), (q, -1, 0.0)]
    return gates


def apply_gate(arr: np.ndarray, qubit: int, k: int, angle: float) -> None:
    """Apply one ``circuit_gates`` triple in place to a C-contiguous (2**n, ...) array.

    Viewing the array as (2**qubit, 2, rest) puts ``qubit`` on the middle
    axis, so RY is one stacked 2x2 product and CNOT a swap of two slabs.
    Applying (qubit, k, -angle) undoes (qubit, k, angle).
    """
    if k < 0:
        v = arr.reshape(2**qubit, 2, 2, -1, copy=False)
        v[:, 1, [0, 1]] = v[:, 1, [1, 0]]
        return
    v = arr.reshape(2**qubit, 2, -1, copy=False)
    v[...] = ry_matrix(angle).real @ v


def gate_walk_unitary(ansatz) -> np.ndarray:
    """The circuit matrix built one RY or CNOT at a time by ``apply_gate``."""
    u = np.eye(2**ansatz.n_qubits)
    for gate in circuit_gates(ansatz):
        apply_gate(u, *gate)
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


def build_hamiltonian_reference(model, samples):
    """``ebm.build_hamiltonian`` by a per-sample loop and hidden-state enumeration.

    Returns (support indices in first-appearance order, energies, log Z).
    """
    n = model.n_visible
    support: list[int] = []
    for s in samples:
        if int(s) not in support:
            support.append(int(s))
    energies = []
    for index in support:
        v = [(index >> (n - 1 - k)) & 1 for k in range(n)]
        energies.append(
            free_energy_enumerated(model.weights, model.visible_bias, model.hidden_bias, v)
        )
    terms = [-e for e in energies]
    shift = max(terms)
    log_z = shift + float(np.log(sum(np.exp(t - shift) for t in terms)))
    return support, np.array(energies), log_z


def conditional_hidden_prob(model, v) -> np.ndarray:
    """p(h_j = 1 | v) = sigmoid((v W + b_hid)_j) for a 0/1 visible vector."""
    return expit(np.asarray(v, dtype=np.float64) @ model.weights + model.hidden_bias)


def conditional_visible_prob(model, h) -> np.ndarray:
    """p(v_i = 1 | h) = sigmoid((h W^T + b_vis)_i) for a 0/1 hidden vector."""
    return expit(np.asarray(h, dtype=np.float64) @ model.weights.T + model.visible_bias)


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


def fidelity_highprec(s, u, p, dps: int = 40) -> float:
    """Uhlmann fidelity of diag(s) and U diag(p) U^T, built and solved in mpmath.

    The float64 inputs are taken as exact, so neither rho nor its square
    root picks up float64 rounding.
    """
    import mpmath as mp

    with mp.workdps(dps):
        root_s = mp.diag([mp.sqrt(mp.mpf(x)) for x in s])
        um = mp.matrix(np.asarray(u).tolist())
        inner = root_s * um * mp.diag([mp.mpf(x) for x in p]) * um.T * root_s
        vals, _ = mp.eigsy((inner + inner.T) / 2)
        return float(mp.fsum(mp.sqrt(max(x, mp.mpf(0))) for x in vals) ** 2)


def _clipped_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part of ``m``, negative rounding clipped to 0."""
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    assert vals.min() >= -1e-8, f"not a state: eigenvalue {vals.min()}"
    return np.clip(vals, 0.0, None), vecs


def dense_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))**2 of two density matrices."""
    vals, vecs = _clipped_eigh(a)
    sqrt_a = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner_vals, _ = _clipped_eigh(sqrt_a @ b @ sqrt_a)
    return float(np.sum(np.sqrt(inner_vals)) ** 2)


def dense_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of a - b."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def dense_entropy(a: np.ndarray) -> float:
    """-sum lambda log lambda over the eigenvalues of ``a`` above 1e-12."""
    vals, _ = _clipped_eigh(a)
    vals = vals[vals > 1e-12]
    return max(float(-np.sum(vals * np.log(vals))), 0.0)


def dense_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr rho (log rho - log sigma), with sigma's spectrum floored at 1e-12."""
    vals, vecs = _clipped_eigh(sigma)
    log_sigma = (vecs * np.log(np.maximum(vals, 1e-12))) @ vecs.conj().T
    return -dense_entropy(rho) - float(np.real(np.trace(rho @ log_sigma)))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_structured_state(dim: int, rng: np.random.Generator):
    """(s, U, p): a Dirichlet s, a QR-orthogonal U and a Dirichlet p on a random support."""
    s = rng.dirichlet(np.ones(dim))
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    support = rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False)
    p = np.zeros(dim)
    p[support] = rng.dirichlet(np.ones(support.size))
    return s, u, p


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def shifted(ansatz, k: int, delta: float):
    """Copy of ``ansatz`` with angle ``k`` shifted by ``delta``."""
    angles = ansatz.angles.copy()
    angles[k] += delta
    return ansatz.with_angles(angles)


def parameter_shift_gradient(index: int, ansatz, ham) -> np.ndarray:
    """Parameter-shift gradient of the routed energy of basis state ``index``.

    This is ``distribution_expectation`` at a one-hot q.  Component k is
    (f(angle_k + pi/2) - f(angle_k - pi/2)) / 2, which is exact for RY
    rotations (Schuld et al., arXiv:1811.11184).
    """
    q = np.zeros(2**ansatz.n_qubits)
    q[index] = 1.0
    return batch_parameter_shift_gradient(ansatz, ham, q)


def distribution_expectation(ansatz, ham, q) -> float:
    """sum_z E(z) sum_x |<z| U |x>|**2 q_x, with U from the per-gate walker."""
    u = gate_walk_unitary(ansatz)
    routed = np.abs(u) ** 2 @ q
    return float(ham.energies @ routed[ham.support])


def batch_parameter_shift_gradient(ansatz, ham, q) -> np.ndarray:
    """Parameter-shift gradient of ``distribution_expectation`` over every angle."""
    grad = np.zeros(ansatz.n_parameters)
    half_pi = np.pi / 2.0
    for k in range(ansatz.n_parameters):
        up = distribution_expectation(shifted(ansatz, k, +half_pi), ham, q)
        down = distribution_expectation(shifted(ansatz, k, -half_pi), ham, q)
        grad[k] = 0.5 * (up - down)
    return grad


def _per_draw_probabilities(state, event, n_draws, rng):
    """(draw, support) routed probabilities and off-support mass, one row per draw."""
    idx = draw_indices(bernoulli_index_samples_reference(event, n_draws, rng))
    u = qsim.ansatz_unitary(state.ansatz)
    on_support = (u * u)[state.hamiltonian.support][:, idx].T
    return on_support, 1.0 - on_support.sum(axis=1)


def time_evolution_series_per_draw(state, event, total_time, dt, rng, n_draws=1):
    """``anomaly.time_evolution_series`` with one complex overlap column per draw.

    Phases come from the direct grid exp(i t E) and every draw is routed
    and averaged separately.
    """
    on_support, off_mass = _per_draw_probabilities(state, event, n_draws, rng)
    times = dt * np.arange(int(round(total_time / dt)) + 1)
    phases = np.exp(1j * np.outer(times, state.hamiltonian.energies))
    per_draw = np.abs(off_mass[None, :] + phases @ on_support.T) ** 2
    return per_draw.mean(axis=1)


def expectation_score_per_draw(state, event, rng, n_draws=1) -> float:
    """``anomaly.expectation_score`` as a mean over every draw's routed energy."""
    on_support, _ = _per_draw_probabilities(state, event, n_draws, rng)
    return float(on_support.mean(axis=0) @ state.hamiltonian.energies)


def evolve_diagonal(amps, ham, total_time: float, dt: float) -> tuple[np.ndarray, float]:
    """exp(-i K t) applied to ``amps``, K diagonal on ``ham``'s support.

    t is ``total_time`` quantised to whole steps of ``dt``; returns the
    evolved amplitudes and t.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    t = int(round(total_time / dt)) * dt
    out = np.array(amps, dtype=np.complex128)
    out[ham.support] *= np.exp(-1j * t * ham.energies)
    return out, t


def roc_rates_reference(signal, background, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """(tpr, fpr): the share of each class at or above every threshold, one mean per threshold."""
    tpr = np.array([(signal >= t).mean() for t in thresholds])
    fpr = np.array([(background >= t).mean() for t in thresholds])
    return tpr, fpr


def metropolis_sample_reference(model, chain, burn_in: int, n_collect: int):
    """``ebm.metropolis_sample`` with NumPy's ``exp`` on each uphill proposal.

    The package's loop before it called ``math.exp``: same draws in the
    same order, so the chain must agree bit for bit.
    """
    table = ebm.free_energies(model, np.arange(2**model.n_visible)).tolist()
    rng = chain.rng
    steps = burn_in + n_collect
    current = int(chain.current)
    current_energy = table[current]
    candidates = rng.integers(0, 2**model.n_visible, size=steps).tolist()
    uniforms = rng.random(steps).tolist()
    path = []
    for cand, uniform in zip(candidates, uniforms):
        delta = current_energy - table[cand]
        if delta >= 0.0 or uniform < np.exp(delta):
            current = cand
            current_energy = table[cand]
        path.append(current)
    return np.array(path[burn_in:], dtype=np.int64), ebm.MarkovChainState(current, rng)


def generate_reference(w, ham, n_events: int, rng) -> np.ndarray:
    """``train.generate`` with one ``np.searchsorted`` call per generated event."""
    latent_probs = np.exp(-ham.energies - ham.log_partition)
    latent_probs = latent_probs / latent_probs.sum()
    out_cum = np.cumsum(w * w, axis=0).T[ham.support]
    latent_draws = rng.choice(ham.support.size, size=n_events, p=latent_probs)
    uniforms = rng.random(n_events)
    out = [np.searchsorted(out_cum[d], u, side="right") for d, u in zip(latent_draws, uniforms)]
    return np.minimum(np.array(out, dtype=np.int64), len(w) - 1)


def bernoulli_index_samples_reference(probs, n_samples: int, rng) -> np.ndarray:
    """``embed.bernoulli_index_samples``: one multinomial over the Kronecker chain of ``probs``."""
    return rng.multinomial(n_samples, kronecker_chain(probs))


def embed_events_reference(probs, n_samples: int, seed: int, tag: str) -> np.ndarray:
    """``train._embed_events`` of an (E, n) stack: one Kronecker chain and multinomial per event.

    The events draw in order from the set's one ``embedding/<tag>`` generator.
    """
    rng = substream(seed, "embedding", tag)
    rows = []
    for event_probs in probs:
        counts = bernoulli_index_samples_reference(event_probs, n_samples, rng)
        rows.append(counts / counts.sum())
    return np.array(rows)


def basis_counts(indices, n_qubits: int) -> np.ndarray:
    """Count of ``indices`` at each of the 2**n_qubits basis states, as the sampler returns."""
    return np.bincount(np.asarray(indices, dtype=np.int64), minlength=2**n_qubits)


def draw_indices(counts) -> np.ndarray:
    """The basis index of every draw that ``counts`` holds, in basis order."""
    return np.repeat(np.arange(len(counts)), counts)


def kronecker_chain(probs) -> np.ndarray:
    """Product-Bernoulli distribution of one event's probabilities, qubit 0 most significant."""
    dist = np.array([1.0])
    for p in probs:
        dist = np.kron(dist, np.array([1.0 - p, p]))
    return dist


def exact_mixed_state_reference(probs) -> np.ndarray:
    """``embed.exact_mixed_state`` of an (E, n) stack by one Kronecker chain per event, mixed uniformly."""
    alpha = 1.0 / len(probs)
    diag = np.zeros(2 ** len(probs[0]))
    for event_probs in probs:
        diag += alpha * kronecker_chain(event_probs)
    return diag


def deposit_blob_reference(grid, row, col, sigma, energy) -> None:
    """Add one Gaussian blob to one canvas, with a coordinate grid of its own."""
    size = grid.shape[0]
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    grid += energy * np.exp(-((rr - row) ** 2 + (cc - col) ** 2) / (2.0 * sigma**2))


def toy_jet_images_reference(n_events: int, kind: str, grid: int, rng) -> np.ndarray:
    """``embed.toy_jet_images`` as a per-image loop: each canvas is built right after its draws."""
    centre = (grid - 1) / 2.0
    canvases = np.zeros((n_events, grid, grid))
    for canvas in canvases:
        energy = 40.0 * rng.lognormal(0.0, 0.1)
        if kind == "background":
            row = centre + 0.3 * rng.standard_normal()
            col = centre + 0.3 * rng.standard_normal()
            sigma = rng.uniform(2.0, 2.2)
            deposit_blob_reference(canvas, row, col, sigma, energy)
        else:
            row = centre + 0.3 * rng.standard_normal()
            col = centre + 0.3 * rng.standard_normal()
            deposit_blob_reference(canvas, row, col, rng.uniform(2.0, 2.5), 0.38 * energy)
            rotation = np.deg2rad(rng.normal(0.0, 9.0))
            fractions = np.array([0.45, 0.275, 0.275]) + 0.03 * rng.standard_normal(3)
            fractions = np.abs(fractions) / np.abs(fractions).sum()
            radii = (rng.uniform(0.18, 0.22), rng.uniform(0.21, 0.26), rng.uniform(0.21, 0.26))
            widths = (rng.uniform(1.6, 2.0), rng.uniform(1.7, 2.1), rng.uniform(1.7, 2.1))
            for base_deg, frac, rad, sigma in zip((90.0, 210.0, 330.0), fractions, radii, widths):
                angle = np.deg2rad(base_deg) + rotation
                row = centre - rad * grid * np.sin(angle)
                col = centre + rad * grid * np.cos(angle)
                deposit_blob_reference(canvas, row, col, sigma, 2.1 * frac * energy)
        canvas += np.abs(rng.normal(0.0, JET_NOISE, size=canvas.shape))
    return canvases


def crop_and_pool_reference(image, crop: int, pool: int, trim_remainder: bool) -> np.ndarray:
    """``embed.pool_images`` of one 2-d image."""
    h, w = image.shape
    if 2 * crop >= h or 2 * crop >= w:
        raise ValueError(f"crop {crop} exceeds image size {h}x{w}")
    grid = image[crop : h - crop, crop : w - crop]
    gh, gw = grid.shape
    if gh % pool or gw % pool:
        if not trim_remainder:
            raise ValueError(f"cropped size {gh}x{gw} is not divisible by pool {pool}")
        grid = grid[: gh - gh % pool, : gw - gw % pool]
        gh, gw = grid.shape
    return grid.reshape(gh // pool, pool, gw // pool, pool).mean(axis=(1, 3))


def images_to_events_reference(
    images, crop, pool, n_qubits, scale_max=None, layout=None, trim_remainder=True
):
    """``embed.images_to_events`` one image at a time: ``(probs, scale_max, layout)``."""
    pooled = [crop_and_pool_reference(im, crop, pool, trim_remainder) for im in images]
    if scale_max is None:
        scale_max = max(float(im.max()) for im in pooled)
    standardised = [np.clip(im / scale_max, 0.0, 1.0) * np.pi for im in pooled]
    if layout is None:
        layout = pixel_layout(standardised[0].shape[0], n_qubits)
    # The package's logistic, 1 / (1 + exp(-x)) with NumPy's exp, as the loop used it.
    probs = [
        np.clip(1.0 / (1.0 + np.exp(-im.reshape(-1)[np.asarray(layout)])), PROB_FLOOR, 1.0 - PROB_FLOOR)
        for im in standardised
    ]
    return np.array(probs), scale_max, list(layout)


def batch_distribution_reference(groups, dim: int) -> np.ndarray:
    """``train._batch_distribution`` over index groups: one bincount per event at every step."""
    if len(groups) == 0:
        raise ValueError("batch must not be empty")
    q = np.zeros(dim)
    for idx in groups:
        if len(idx) == 0:
            raise ValueError("each batch group needs at least one embedded sample")
        q += np.bincount(idx, minlength=dim) / len(idx)
    q /= len(groups)
    return q


def scaled_model(n_visible: int, rng, weight_scale: float) -> ebm.EnergyModel:
    """The model ``EnergyModel.initialize(n, 2 * n, rng)`` builds, at another coupling spread."""
    n_hidden = 2 * n_visible
    weights = weight_scale * rng.standard_normal((n_visible, n_hidden))
    return ebm.EnergyModel(weights, np.zeros(n_visible), np.zeros(n_hidden))


def read_csv_skip_provenance(path) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a CSV from ``io.write_csv_with_provenance``, comments dropped."""
    path = Path(path)
    with path.open() as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        raise DataError(f"{path} has no CSV content")
    return rows[0], rows[1:]
