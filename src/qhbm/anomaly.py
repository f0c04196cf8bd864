"""Anomaly scoring with the trained model's modular Hamiltonian.

A test event is embedded, routed through the trained circuit and evolved
under exp(-i K t).  Background-like events sit close to the sampled
low-energy support and keep a quiet fidelity series; anomalous events
pick up faster phase oscillations and off-support weight.  Scores are
either the integrated high-frequency power of the fidelity series
("spectral") or the plain expectation <K> at t = 0 ("t_zero").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qsim
from .ebm import ModularHamiltonian
from .embed import PixelProbabilities, bernoulli_index_samples
from .metrics import PowerSpectrum, RocCurve, power_spectrum, roc_from_scores
from .train import TrainState

# Reference run shapes for the two anomaly scenarios.
SCENARIOS = {
    "six_qubit": {
        "n_qubits": 6,
        "n_mc_samples": 500,
        "n_embed_samples": 5000,
        "embed_mode": "presampled",
    },
    "eight_qubit": {
        "n_qubits": 8,
        "n_mc_samples": 1000,
        "n_embed_samples": 5000,
        "embed_mode": "presampled",
    },
}


@dataclass
class FidelitySeries:
    """|<psi(t)|psi(0)>|**2 sampled on a uniform time grid starting at 0."""

    dt: float
    values: np.ndarray
    std: np.ndarray | None = None

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.size)


def _routed_probabilities(
    state: TrainState,
    event: PixelProbabilities,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Support probabilities of each embedded draw after the circuit.

    Returns (per-draw probabilities over the support, off-support mass
    per draw).
    """
    if event.n_qubits != state.ansatz.n_qubits:
        raise ValueError(
            f"event has {event.n_qubits} qubits but model has {state.ansatz.n_qubits}"
        )
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    idx = bernoulli_index_samples(event, n_draws, rng)
    u = qsim.ansatz_unitary(state.ansatz)
    probs = u * u  # probs[z, x] = <z|U|x>**2
    on_support = probs[state.hamiltonian.support][:, idx].T
    off_mass = 1.0 - on_support.sum(axis=1)
    return on_support, off_mass


def time_evolution_series(
    state: TrainState,
    event: PixelProbabilities,
    total_time: float,
    dt: float,
    rng: np.random.Generator,
    n_draws: int = 1,
) -> FidelitySeries:
    """Fidelity to the initial state along the quantised time grid.

    The event is embedded ``n_draws`` times; each draw's basis state is
    routed through the circuit and evolved under the diagonal
    Hamiltonian, and the per-draw series are averaged.  Because the
    evolution is diagonal, the overlap at step k is

        off_support_mass + sum_z p_z exp(i k dt E_z)

    which matches step-by-step application of the propagator exactly.
    The series starts at 1 and stays within [0, 1].
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(round(total_time / dt))
    if n_steps < 1:
        raise ValueError(f"need at least one step, got total_time={total_time} dt={dt}")
    on_support, off_mass = _routed_probabilities(state, event, n_draws, rng)
    times = dt * np.arange(n_steps + 1)
    phases = np.exp(1j * np.outer(times, state.hamiltonian.energies))
    overlaps = off_mass[None, :] + phases @ on_support.T  # (time, draw)
    per_draw = np.abs(overlaps) ** 2
    values = per_draw.mean(axis=1)
    std = per_draw.std(axis=1) if n_draws > 1 else None
    return FidelitySeries(dt, values, std)


def spectral_score(series: FidelitySeries, f_min: float) -> float:
    """Integrated spectral power of the series at and above ``f_min``.

    The score is sum_k P(f_k) * df over bins with f_k >= f_min, i.e. the
    variance share carried by fast oscillations.  ``f_min`` must not
    exceed the Nyquist frequency 1 / (2 dt).
    """
    spectrum = power_spectrum(series.values, series.dt)
    nyquist = spectrum.frequencies[-1]
    if f_min < 0.0 or f_min > nyquist:
        raise ValueError(f"f_min must be within [0, {nyquist}], got {f_min}")
    mask = spectrum.frequencies >= f_min
    return float(spectrum.power[mask].sum() * spectrum.resolution)


def series_spectrum(series: FidelitySeries) -> PowerSpectrum:
    """Power spectrum of the fidelity series (mean removed)."""
    return power_spectrum(series.values, series.dt)


def expectation_score(
    state: TrainState,
    event: PixelProbabilities,
    rng: np.random.Generator,
    n_draws: int = 1,
) -> float:
    """Mean <K> of the routed event at t = 0; empty support scores 0."""
    on_support, _ = _routed_probabilities(state, event, n_draws, rng)
    return float(on_support.mean(axis=0) @ state.hamiltonian.energies)


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
) -> np.ndarray:
    """Per-event anomaly scores in a fixed order."""
    if mode == "t_zero":
        return np.array(
            [expectation_score(state, e, rng, n_draws) for e in events]
        )
    if mode == "spectral":
        if f_min is None:
            raise ValueError("spectral mode needs f_min")
        scores = []
        for event in events:
            series = time_evolution_series(state, event, total_time, dt, rng, n_draws)
            scores.append(spectral_score(series, f_min))
        return np.array(scores)
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
    """ROC over per-event scores of the two samples."""
    signal_scores = score_events(
        state, signal_events, mode, rng,
        f_min=f_min, total_time=total_time, dt=dt, n_draws=n_draws,
    )
    background_scores = score_events(
        state, background_events, mode, rng,
        f_min=f_min, total_time=total_time, dt=dt, n_draws=n_draws,
    )
    return roc_from_scores(signal_scores, background_scores, n_thresholds)


def _two_site_reduced(rho: np.ndarray, i: int, j: int, n_qubits: int) -> np.ndarray:
    """Trace out all qubits except i < j from a dense density matrix."""
    tensor = rho.reshape([2] * (2 * n_qubits))
    keep = (i, j)
    # Pair up row/column axes of every traced-out qubit.
    for q in range(n_qubits - 1, -1, -1):
        if q in keep:
            continue
        tensor = np.trace(tensor, axis1=q, axis2=q + tensor.ndim // 2)
    return tensor.reshape(4, 4)


def site_entropy_profile(
    ham: ModularHamiltonian,
    n_qubits: int,
    ansatz: qsim.CircuitAnsatz | None = None,
    mode: str = "auto",
    tie_tol: float = 1e-9,
) -> np.ndarray:
    """Von Neumann entropy of each adjacent qubit pair in the ground state.

    The ground state is the uniform mixture over support states within
    ``tie_tol`` of the minimal energy.  In "diagonal" mode the mixture
    is taken literally over those basis states; in "dressed" mode each
    is rotated by the circuit first, i.e. the ground space of
    U K U^dag.  "auto" picks "dressed" whenever an ansatz is supplied.
    Returns n_qubits - 1 entropies for pairs (0,1), ..., (n-2, n-1).
    """
    if n_qubits != ham.n_qubits:
        raise ValueError(f"requested {n_qubits} qubits but hamiltonian has {ham.n_qubits}")
    if ham.support.size == 0:
        raise ValueError("hamiltonian support is empty")
    if mode == "auto":
        mode = "dressed" if ansatz is not None else "diagonal"
    if mode not in ("dressed", "diagonal"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "dressed" and ansatz is None:
        raise ValueError("dressed mode needs the circuit ansatz")

    minimal = ham.energies.min()
    ground_idx = ham.support[ham.energies <= minimal + tie_tol]
    dim = 2**n_qubits
    rho = np.zeros((dim, dim), dtype=np.complex128)
    weight = 1.0 / ground_idx.size
    for idx in ground_idx:
        rho[idx, idx] = weight
    if mode == "dressed":
        u = qsim.ansatz_unitary(ansatz)
        rho = u @ rho @ u.T

    entropies = np.empty(n_qubits - 1)
    for pair in range(n_qubits - 1):
        reduced = _two_site_reduced(rho, pair, pair + 1, n_qubits)
        vals = np.clip(np.linalg.eigvalsh((reduced + reduced.conj().T) / 2.0), 0.0, None)
        probs = vals[vals > 1e-12]
        entropies[pair] = max(float(-np.sum(probs * np.log(probs))), 0.0)
    return entropies
