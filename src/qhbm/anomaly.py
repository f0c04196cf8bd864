"""Anomaly scoring with the trained model's modular Hamiltonian.

A test event is embedded, routed through the trained circuit and evolved
under exp(-i K t).  Background-like events sit close to the sampled
low-energy support and keep a quiet fidelity series; anomalous events
pick up faster phase oscillations and off-support weight.  Scores are
either the integrated high-frequency power of the fidelity series
("spectral") or the plain expectation <K> at t = 0 ("t_zero").
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from . import qsim
from .ebm import ModularHamiltonian
from .embed import bernoulli_index_samples, check_probabilities, frequency_row, product_distributions
from .metrics import PowerSpectrum, RocCurve, power_spectrum, roc_from_scores, von_neumann_entropy
from .train import TrainState

# Reference run shapes for the two anomaly scenarios.
SCENARIOS = {
    "six_qubit": {
        "n_qubits": 6,
        "n_mc_samples": 500,
        "n_embed_samples": 5000,
    },
    "eight_qubit": {
        "n_qubits": 8,
        "n_mc_samples": 1000,
        "n_embed_samples": 5000,
    },
}


def check_time_grid(total_time: float, dt: float) -> int:
    """Number of ``dt`` steps spanning ``total_time``; both must be finite and positive."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(total_time) and total_time > 0.0):
        raise ValueError(f"total_time must be finite and positive, got {total_time}")
    n_steps = total_time / dt
    if not math.isfinite(n_steps):
        raise ValueError(f"total_time / dt overflows: total_time={total_time} dt={dt}")
    n_steps = int(round(n_steps))
    if n_steps < 1:
        raise ValueError(f"need at least one step, got total_time={total_time} dt={dt}")
    return n_steps


# The fill works in tiles of up to _TILE_STATES basis states by a block
# of time steps, whose phases and overlaps take at most 1/_TILE_SHARE of
# the row store's bytes: a 6-qubit table peaks below 1.5 times its row
# store, and a 10-qubit fill gets blocks wide enough for fast products.
_TILE_STATES = 128
_TILE_SHARE = 4
# An event whose draws hit at least 1/_DENSE_SHARE of the basis states is
# dense: its weights are scattered over all rows and read with one
# product.  A sparse event gathers the rows it hits.
_DENSE_SHARE = 4
# Per-class reductions read a stack of series this many events and time
# steps at a time, so no temporary is as large as the stack.
_EVENT_BLOCK = 16
_TIME_BLOCK = 2048


def _coarse_step(n_points: int) -> int:
    """Steps per coarse phase block, m = ceil(sqrt(n_points))."""
    return math.isqrt(n_points - 1) + 1


def _blocks_per_tile(n_states: int, n_phases: int, n_points: int) -> int:
    """Coarse phase blocks per tile of a fill; at least one."""
    m = _coarse_step(n_points)
    # Complex phases of n_phases states and real (Re, Im) overlaps of a
    # state tile, per coarse block of m steps.
    block_bytes = 16 * m * (n_phases + min(_TILE_STATES, n_states))
    return max(1, 8 * n_states * n_points // (_TILE_SHARE * block_bytes))


def _phase_blocks(
    n_points: int, dt: float, energies: np.ndarray, n_blocks: int
) -> Iterator[tuple[int, np.ndarray]]:
    """exp(i k dt E) for k = 0 .. n_points - 1, one block of time steps at a time.

    Yields (k0, phases) in time order, with phases[s, j] = exp(i (k0 + j)
    dt E_s): state-major, so ``.view(np.float64)`` interleaves the real
    and imaginary parts of each state's row.  Each entry is the product
    coarse[b] * fine[j] with k = b m + j and m = ``_coarse_step``, so only
    about 2 sqrt(n_points) S angles go through the exponential.  The
    coarse angles are those of the direct grid at k = b m and the fine
    ones are small, so the product is as accurate as evaluating every
    angle directly.  A block spans ``n_blocks`` coarse steps, and every
    block is written into one buffer: ``phases`` holds until the next
    block is drawn.
    """
    m = _coarse_step(n_points)
    n_coarse = -(-n_points // m)
    e = energies[:, None]
    fine = np.exp(1j * (dt * np.arange(m)) * e)
    buffer = np.empty(e.size * min(n_blocks, n_coarse) * m, dtype=np.complex128)
    for b0 in range(0, n_coarse, n_blocks):
        b1 = min(b0 + n_blocks, n_coarse)
        coarse = np.exp(1j * (dt * np.arange(b0 * m, b1 * m, m)) * e)
        block = buffer[: e.size * (b1 - b0) * m].reshape(e.size, b1 - b0, m)
        # One outer product per state; np.multiply would allocate a
        # buffer for each broadcast operand.
        np.matmul(coarse[:, :, None], fine[:, None, :], out=block)
        k0 = b0 * m
        yield k0, block.reshape(e.size, -1)[:, : n_points - k0]


class RoutingTable:
    """Routing of every basis state through one model, shared by its events.

    Holds, per basis state x, the t = 0 energy sum_z E_z <z|U|x>**2 (one
    circuit unitary for the whole table).  With a time grid it also holds
    the row store: every basis state's fidelity series in basis order,
    filled once when the table is built, from phases streamed in blocks
    of time steps.  A table depends only on the model and the grid and
    never changes, so it can serve every scoring pass of a run, and an
    event's series does not depend on the events read before it.  A
    dense read (an event hitting 1/_DENSE_SHARE or more of the states)
    scatters its weights over all rows; a sparse one gathers its rows.
    """

    def __init__(
        self, state: TrainState, total_time: float | None = None, dt: float | None = None
    ):
        self.state = state
        # (support, basis state); the circuit matrix is freed before the fill.
        probs = qsim.ansatz_unitary(state.ansatz)[state.hamiltonian.support] ** 2
        self.t_zero = state.hamiltonian.energies @ probs
        self.grid = None if dt is None else (check_time_grid(total_time, dt) + 1, dt)
        self._rows = None if dt is None else self._fill(probs)

    def draw(
        self, state: TrainState, event: np.ndarray, n_draws: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(share of draws, basis index) of each distinct state that ``n_draws`` embeddings hit.

        ``event`` is one event's (n,) probability row, checked with its set.
        """
        if state is not self.state:
            raise ValueError("routing table was built for another model")
        probs = np.asarray(event, dtype=np.float64)
        if probs.shape != (n_qubits := state.ansatz.n_qubits,):
            raise ValueError(f"event has shape {probs.shape} but model has {n_qubits} qubits")
        if n_draws < 1:
            raise ValueError(f"n_draws must be >= 1, got {n_draws}")
        distribution = product_distributions(probs[None])[0]
        row = frequency_row(bernoulli_index_samples(distribution, n_draws, rng))
        cols = np.flatnonzero(row)
        return row[cols], cols

    def _fill(self, probs: np.ndarray) -> np.ndarray:
        """The fidelity series of every basis state x from its <z|U|x>**2 in ``probs[:, x]``."""
        n_points, dt = self.grid
        n_states = probs.shape[1]
        rows = np.empty((n_states, n_points))
        # An extra zero-energy state carries the off-support mass, so a
        # state's overlap off_x + sum_z p_zx exp(i t E_z) is one dot
        # product.  The weights are C-contiguous: an F-ordered tile takes
        # another BLAS path and moves rows in their last bits.
        energies = np.append(self.state.hamiltonian.energies, 0.0)
        routed = np.empty((n_states, energies.size))
        routed[:, :-1] = probs.T
        routed[:, -1] = 1.0 - probs.sum(axis=0)
        # Both counts are powers of two, so every tile is whole.
        tile = min(_TILE_STATES, n_states)
        n_blocks = _blocks_per_tile(n_states, routed.shape[1], n_points)
        amp_buffer = None
        for k0, phases in _phase_blocks(n_points, dt, energies, n_blocks):
            k1 = k0 + phases.shape[1]
            # Columns alternate Re, Im of the overlap at each time step.
            pairs = phases.view(np.float64)
            if amp_buffer is None:  # the first block is the widest
                amp_buffer = np.empty(tile * pairs.shape[1])
            amp = amp_buffer[: tile * pairs.shape[1]].reshape(tile, -1)
            for x0 in range(0, n_states, tile):
                np.matmul(routed[x0 : x0 + tile], pairs, out=amp)
                np.square(amp, out=amp)
                np.add(amp[:, 0::2], amp[:, 1::2], out=rows[x0 : x0 + tile, k0:k1])
        rows.flags.writeable = False
        return rows

    def mean_fidelity(self, weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """sum_x w_x F_x(t) over the basis states ``cols`` with weights ``weights``, a new array.

        F_x(t) = |off_x + sum_z p_zx exp(i t E_z)|**2 is the fidelity series of x.
        """
        n_states = self._rows.shape[0]
        if _DENSE_SHARE * cols.size >= n_states:
            scattered = np.zeros(n_states)
            scattered[cols] = weights
            return scattered @ self._rows
        return weights @ self._rows[cols]


def time_evolution_series(
    state: TrainState,
    event: np.ndarray,
    total_time: float,
    dt: float,
    rng: np.random.Generator,
    n_draws: int,
    *,
    table: RoutingTable,
) -> np.ndarray:
    """Fidelity to the initial state along the quantised time grid, an (N,) array.

    The event, one (n,) probability row, is embedded ``n_draws`` times;
    each draw's basis state is routed through the circuit and evolved
    under the diagonal Hamiltonian, and the per-draw series are averaged.
    Because the evolution is diagonal, the overlap at step k is

        off_support_mass + sum_z p_z exp(i k dt E_z)

    which matches step-by-step application of the propagator exactly.
    Draws that hit the same basis state share one series, so the mean
    is weighted by draw counts over the distinct states.  The series
    starts at 1 and stays within [0, 1].

    ``table`` is a routing table of ``state`` on the same time grid,
    shared by the events of a run.
    """
    n_points = check_time_grid(total_time, dt) + 1
    if table.grid != (n_points, dt):
        raise ValueError(f"routing table grid {table.grid} differs from ({n_points}, {dt})")
    weights, cols = table.draw(state, event, n_draws, rng)
    return table.mean_fidelity(weights, cols)


def event_series(
    state: TrainState,
    events: np.ndarray | Sequence[np.ndarray],
    total_time: float,
    dt: float,
    rng: np.random.Generator,
    n_draws: int,
    *,
    table: RoutingTable,
) -> np.ndarray:
    """Fidelity series of each event of an (E, n) probability stack, in order, one row each.

    All are read from one routing table.
    """
    check_probabilities(events, state.ansatz.n_qubits, "scored")
    stack = np.empty((len(events), check_time_grid(total_time, dt) + 1))
    for row, event in zip(stack, events):
        row[:] = time_evolution_series(state, event, total_time, dt, rng, n_draws, table=table)
    return stack


def _check_f_min(f_min: float, nyquist: float) -> None:
    if not 0.0 <= f_min <= nyquist:
        raise ValueError(f"f_min must be within [0, {nyquist}], got {f_min}")


def check_spectral_args(total_time: float, dt: float, f_min: float) -> None:
    """Reject a time grid or frequency cut before any event is scored."""
    n_points = check_time_grid(total_time, dt) + 1
    _check_f_min(f_min, np.fft.rfftfreq(n_points, d=dt)[-1])


def _add_rows(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """``total`` plus each of ``rows`` in turn; with no total, start from the first row.

    This is the order in which NumPy reduces a C-contiguous array over
    axis 0, so the sums match ``np.sum(axis=0)`` bit for bit.
    """
    if total is None:
        total, rows = rows[0].copy(), rows[1:]
    for row in rows:
        total += row
    return total


def spectral_score(stack: np.ndarray, dt: float, f_min: float) -> tuple[np.ndarray, PowerSpectrum]:
    """Each row's integrated spectral power at and above ``f_min``, and the mean spectrum.

    ``stack`` (E, N) holds one series per row, ``dt`` apart.  A score is
    sum_k P(f_k) * df over bins with f_k >= f_min, the variance share of
    fast oscillations; ``f_min`` must not exceed the Nyquist frequency
    1 / (2 dt).  One transform per ``_EVENT_BLOCK`` rows gives both: each
    score is bitwise that of its row alone, and the mean (NaN for no rows)
    is bitwise ``power_spectrum(stack, dt).power.mean(axis=0)``.
    """
    if stack.ndim != 2 or stack.shape[1] < 2 or not dt > 0.0:
        raise ValueError(f"need an (E, N >= 2) stack and dt > 0, got {stack.shape} and {dt}")
    frequencies = np.fft.rfftfreq(stack.shape[1], d=dt)
    _check_f_min(f_min, frequencies[-1])
    mask, resolution = frequencies >= f_min, frequencies[1] - frequencies[0]
    scores, total = np.empty(len(stack)), None
    for e0 in range(0, len(stack), _EVENT_BLOCK):
        power = power_spectrum(stack[e0 : e0 + _EVENT_BLOCK], dt).power
        for i, row in enumerate(power, e0):
            # Summed as 1-d: a 2-d masked sum adds in another order.
            scores[i] = row[mask].sum() * resolution
        total = _add_rows(total, power)
    mean = np.full(frequencies.size, np.nan) if total is None else total / len(stack)
    return scores, PowerSpectrum(frequencies, mean)


def series_moments(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``stack.mean(axis=0)`` and ``stack.std(axis=0)``, bit for bit, taken in blocks."""
    n_events, n_points = stack.shape
    mean, std = np.empty(n_points), np.empty(n_points)
    for c0 in range(0, n_points, _TIME_BLOCK):
        cols = slice(c0, c0 + _TIME_BLOCK)
        mean[cols] = _add_rows(None, stack[:, cols]) / n_events
        squares = None
        for e0 in range(0, n_events, _EVENT_BLOCK):
            dev = stack[e0 : e0 + _EVENT_BLOCK, cols] - mean[cols]
            squares = _add_rows(squares, np.multiply(dev, dev, out=dev))
        std[cols] = np.sqrt(squares / n_events)
    return mean, std


def expectation_score(
    state: TrainState,
    event: np.ndarray,
    rng: np.random.Generator,
    n_draws: int,
    *,
    table: RoutingTable,
) -> float:
    """Mean <K> of the routed event, one (n,) probability row, at t = 0; empty support scores 0.

    ``table`` is a routing table of ``state`` shared by the events of a run.
    """
    weights, cols = table.draw(state, event, n_draws, rng)
    return float(table.t_zero[cols] @ weights)


def _is_spectral(
    mode: str, f_min: float | None, total_time: float | None, dt: float | None
) -> bool:
    """Whether ``mode`` is the spectral one, which needs ``f_min`` and the time grid."""
    if mode not in ("t_zero", "spectral"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "spectral" and None in (f_min, total_time, dt):
        raise ValueError("spectral mode needs f_min, total_time and dt")
    return mode == "spectral"


def score_events(
    state: TrainState,
    events: np.ndarray | Sequence[np.ndarray],
    mode: str,
    rng: np.random.Generator,
    *,
    n_draws: int,
    f_min: float | None = None,
    total_time: float | None = None,
    dt: float | None = None,
    table: RoutingTable | None = None,
) -> np.ndarray:
    """Per-event anomaly scores of an (E, n) probability stack, in order, from one routing table.

    Spectral mode needs ``f_min`` and the ``total_time``/``dt`` grid.
    ``table`` is a routing table of ``state`` (on that grid in spectral
    mode) that may serve other passes of the same run; without it one is
    built for this call.
    """
    spectral = _is_spectral(mode, f_min, total_time, dt)
    check_probabilities(events, state.ansatz.n_qubits, "scored")
    if not spectral:
        if table is None:
            table = RoutingTable(state)
        return np.array([expectation_score(state, e, rng, n_draws, table=table) for e in events])
    # A table built here is freed before the transforms run.
    series = event_series(
        state, events, total_time, dt, rng, n_draws,
        table=RoutingTable(state, total_time, dt) if table is None else table,
    )
    return spectral_score(series, dt, f_min)[0]


def discrimination_report(
    state: TrainState,
    signal_events: np.ndarray | Sequence[np.ndarray],
    background_events: np.ndarray | Sequence[np.ndarray],
    mode: str,
    rng: np.random.Generator,
    *,
    n_draws: int,
    f_min: float | None = None,
    total_time: float | None = None,
    dt: float | None = None,
) -> RocCurve:
    """ROC over per-event scores of the two samples, both read from one routing table."""
    spectral = _is_spectral(mode, f_min, total_time, dt)
    table = RoutingTable(state, total_time, dt) if spectral else RoutingTable(state)
    kwargs = dict(n_draws=n_draws, f_min=f_min, total_time=total_time, dt=dt, table=table)
    signal_scores = score_events(state, signal_events, mode, rng, **kwargs)
    background_scores = score_events(state, background_events, mode, rng, **kwargs)
    return roc_from_scores(signal_scores, background_scores)


def _pair_reduced(phi: np.ndarray, i: int) -> np.ndarray:
    """Reduced state of qubits (i, i + 1) in Phi Phi^T / k, Phi of shape (2**n, k).

    Viewing Phi as (2**i, 4, rest, k) puts the pair on the second axis, so
    tracing out every other qubit is one contraction and the dense state
    is never formed.
    """
    v = phi.reshape(2**i, 4, -1, phi.shape[1])
    return np.einsum("lark,lbrk->ab", v, v) / phi.shape[1]


def site_entropy_profile(ham: ModularHamiltonian, w: np.ndarray | None) -> np.ndarray:
    """Von Neumann entropy of each adjacent qubit pair in the ground state.

    The ground state is the uniform mixture over support states within
    1e-9 of the minimal energy.  With ``w`` None the mixture is taken
    literally over those basis states ("diagonal"); with the model's
    rotation W of ``train.model_state`` each ground state z becomes
    column z of W ("dressed"), i.e. the ground space of W K W^T.
    Returns n_qubits - 1 entropies for pairs (0,1), ..., (n-2, n-1).
    """
    if ham.support.size == 0:
        raise ValueError("hamiltonian support is empty")
    ground_idx = ham.support[ham.energies <= ham.energies.min() + 1e-9]
    # The ground state is Phi Phi^T / k over the k ground states.
    if w is not None:
        phi = w[:, ground_idx]
    else:
        phi = np.zeros((2**ham.n_qubits, ground_idx.size))
        phi[ground_idx, np.arange(ground_idx.size)] = 1.0
    entropies = np.empty(ham.n_qubits - 1)
    for pair in range(ham.n_qubits - 1):
        vals = np.linalg.eigvalsh(_pair_reduced(phi, pair))
        entropies[pair] = von_neumann_entropy(np.clip(vals, 0.0, None))
    return entropies
