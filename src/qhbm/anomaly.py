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
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import qsim
from .ebm import ModularHamiltonian
from .embed import PixelProbabilities, bernoulli_index_samples, frequency_row
from .metrics import RocCurve, power_spectrum, roc_from_scores, von_neumann_entropy
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


@dataclass
class FidelitySeries:
    """|<psi(t)|psi(0)>|**2 sampled on a uniform time grid starting at 0."""

    dt: float
    values: np.ndarray


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

    Holds, per basis state x, the support probabilities <z|U|x>**2 (one
    circuit unitary for the whole table), the off-support mass and the
    t = 0 energy sum_z E_z <z|U|x>**2.  With a time grid it also holds
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
        self.n_qubits = state.ansatz.n_qubits
        # (support, basis state); the circuit matrix is freed before the fill.
        self.probs = qsim.ansatz_unitary(state.ansatz)[state.hamiltonian.support] ** 2
        self.off_mass = 1.0 - self.probs.sum(axis=0)
        self.t_zero = state.hamiltonian.energies @ self.probs
        self.grid = None if dt is None else (check_time_grid(total_time, dt) + 1, dt)
        self._rows = None if dt is None else self._fill()

    def draw(
        self, state: TrainState, event: PixelProbabilities, n_draws: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(share of draws, basis index) of each distinct state ``n_draws`` embeddings hit."""
        if state is not self.state:
            raise ValueError("routing table was built for another model")
        if event.n_qubits != self.n_qubits:
            raise ValueError(f"event has {event.n_qubits} qubits but model has {self.n_qubits}")
        if n_draws < 1:
            raise ValueError(f"n_draws must be >= 1, got {n_draws}")
        row = frequency_row(bernoulli_index_samples(event, n_draws, rng))
        cols = np.flatnonzero(row)
        return row[cols], cols

    def _fill(self) -> np.ndarray:
        """The fidelity series of every basis state, one read-only row each."""
        n_points, dt = self.grid
        n_states = self.off_mass.size
        rows = np.empty((n_states, n_points))
        # An extra zero-energy state carries the off-support mass, so a
        # state's overlap off_x + sum_z p_zx exp(i t E_z) is one dot
        # product.  The weights are C-contiguous: an F-ordered tile takes
        # another BLAS path and moves rows in their last bits.
        energies = np.append(self.state.hamiltonian.energies, 0.0)
        routed = np.empty((n_states, energies.size))
        routed[:, :-1] = self.probs.T
        routed[:, -1] = self.off_mass
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
    event: PixelProbabilities,
    total_time: float,
    dt: float,
    rng: np.random.Generator,
    n_draws: int = 1,
    *,
    table: RoutingTable | None = None,
) -> FidelitySeries:
    """Fidelity to the initial state along the quantised time grid.

    The event is embedded ``n_draws`` times; each draw's basis state is
    routed through the circuit and evolved under the diagonal
    Hamiltonian, and the per-draw series are averaged.  Because the
    evolution is diagonal, the overlap at step k is

        off_support_mass + sum_z p_z exp(i k dt E_z)

    which matches step-by-step application of the propagator exactly.
    Draws that hit the same basis state share one series, so the mean
    is weighted by draw counts over the distinct states.  The series
    starts at 1 and stays within [0, 1].

    ``table`` is a routing table of ``state`` on the same time grid,
    shared by the events of a run.  Without it a table is built for this
    event, which fills the series of every basis state.
    """
    n_points = check_time_grid(total_time, dt) + 1
    if table is None:
        table = RoutingTable(state, total_time, dt)
    elif table.grid != (n_points, dt):
        raise ValueError(f"routing table grid {table.grid} differs from ({n_points}, {dt})")
    weights, cols = table.draw(state, event, n_draws, rng)
    return FidelitySeries(dt, table.mean_fidelity(weights, cols))


def event_series(
    state: TrainState,
    events: Sequence[PixelProbabilities],
    total_time: float,
    dt: float,
    rng: np.random.Generator,
    n_draws: int = 1,
    *,
    table: RoutingTable | None = None,
) -> Iterator[FidelitySeries]:
    """Fidelity series of each event in order, all read from one routing table.

    ``table`` is a routing table of ``state`` on the same time grid; without
    it one is built for this call.
    """
    if table is None:
        table = RoutingTable(state, total_time, dt)
    return (
        time_evolution_series(state, event, total_time, dt, rng, n_draws, table=table)
        for event in events
    )


def _check_f_min(f_min: float, nyquist: float) -> None:
    if not 0.0 <= f_min <= nyquist:
        raise ValueError(f"f_min must be within [0, {nyquist}], got {f_min}")


def check_spectral_args(total_time: float, dt: float, f_min: float) -> None:
    """Reject a time grid or frequency cut before any event is scored."""
    n_points = check_time_grid(total_time, dt) + 1
    _check_f_min(f_min, np.fft.rfftfreq(n_points, d=dt)[-1])


def spectral_score(series: FidelitySeries, f_min: float) -> float:
    """Integrated spectral power of the series at and above ``f_min``.

    The score is sum_k P(f_k) * df over bins with f_k >= f_min, i.e. the
    variance share carried by fast oscillations.  ``f_min`` must not
    exceed the Nyquist frequency 1 / (2 dt).
    """
    spectrum = power_spectrum(series.values, series.dt)
    _check_f_min(f_min, spectrum.frequencies[-1])
    mask = spectrum.frequencies >= f_min
    return float(spectrum.power[mask].sum() * spectrum.resolution)


def expectation_score(
    state: TrainState,
    event: PixelProbabilities,
    rng: np.random.Generator,
    n_draws: int = 1,
    *,
    table: RoutingTable | None = None,
) -> float:
    """Mean <K> of the routed event at t = 0; empty support scores 0.

    ``table`` is a routing table of ``state`` shared by the events of a
    run; without it a one-event table is built.
    """
    if table is None:
        table = RoutingTable(state)
    weights, cols = table.draw(state, event, n_draws, rng)
    return float(table.t_zero[cols] @ weights)


def score_events(
    state: TrainState,
    events: Sequence[PixelProbabilities],
    mode: str,
    rng: np.random.Generator,
    *,
    f_min: float | None = None,
    total_time: float = 500.0,
    dt: float = 0.1,
    n_draws: int = 1,
    table: RoutingTable | None = None,
) -> np.ndarray:
    """Per-event anomaly scores in a fixed order, from one routing table.

    ``table`` is a routing table of ``state`` (on the ``total_time``/``dt``
    grid in spectral mode) that may serve other passes of the same run;
    without it one is built for this call.
    """
    if mode == "t_zero":
        if table is None:
            table = RoutingTable(state)
        return np.array(
            [expectation_score(state, e, rng, n_draws, table=table) for e in events]
        )
    if mode == "spectral":
        if f_min is None:
            raise ValueError("spectral mode needs f_min")
        series = event_series(state, events, total_time, dt, rng, n_draws, table=table)
        return np.array([spectral_score(s, f_min) for s in series])
    raise ValueError(f"unknown mode {mode!r}")


def discrimination_report(
    state: TrainState,
    signal_events: Sequence[PixelProbabilities],
    background_events: Sequence[PixelProbabilities],
    mode: str,
    rng: np.random.Generator,
    *,
    f_min: float | None = None,
    total_time: float = 500.0,
    dt: float = 0.1,
    n_draws: int = 1,
    n_thresholds: int = 200,
) -> RocCurve:
    """ROC over per-event scores of the two samples, both read from one routing table."""
    table = RoutingTable(state, total_time, dt) if mode == "spectral" else RoutingTable(state)
    kwargs = dict(f_min=f_min, total_time=total_time, dt=dt, n_draws=n_draws, table=table)
    signal_scores = score_events(state, signal_events, mode, rng, **kwargs)
    background_scores = score_events(state, background_events, mode, rng, **kwargs)
    return roc_from_scores(signal_scores, background_scores, n_thresholds)


def _pair_reduced(phi: np.ndarray, i: int) -> np.ndarray:
    """Reduced state of qubits (i, i + 1) in Phi Phi^T / k, Phi of shape (2**n, k).

    Viewing Phi as (2**i, 4, rest, k) puts the pair on the second axis, so
    tracing out every other qubit is one contraction and the dense state
    is never formed.
    """
    v = phi.reshape(2**i, 4, -1, phi.shape[1])
    return np.einsum("lark,lbrk->ab", v, v) / phi.shape[1]


def site_entropy_profile(
    ham: ModularHamiltonian,
    w: np.ndarray | None = None,
) -> np.ndarray:
    """Von Neumann entropy of each adjacent qubit pair in the ground state.

    The ground state is the uniform mixture over support states within
    1e-9 of the minimal energy.  Without ``w`` the mixture is taken
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
