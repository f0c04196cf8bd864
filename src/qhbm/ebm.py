"""Classical energy-based model over visible spin configurations.

A restricted Boltzmann machine with binary visible and hidden units
defines, after summing out the hidden layer, the free energy

    F(v) = -b_vis . v - sum_j log(1 + exp((v W + b_hid)_j)).

Configurations are sampled from p(v) ~ exp(-F(v)) with a Metropolis
chain, and the sampled support together with its energies forms a
diagonal modular Hamiltonian K = sum_z F(z) |z><z|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qsim import MAX_QUBITS, _check_n_qubits, index_bits
from .special import expit, logsumexp, softmax

# Spread of the initial couplings.
WEIGHT_SCALE = 0.01


@dataclass
class EnergyModel:
    """RBM parameters: couplings (n_visible x n_hidden) and two bias vectors."""

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.visible_bias = np.asarray(self.visible_bias, dtype=np.float64)
        self.hidden_bias = np.asarray(self.hidden_bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-d, got shape {self.weights.shape}")
        nv, nh = self.weights.shape
        if not 1 <= nv <= MAX_QUBITS:
            raise ValueError(f"n_visible must be in [1, {MAX_QUBITS}], got {nv}")
        if self.visible_bias.shape != (nv,) or self.hidden_bias.shape != (nh,):
            raise ValueError(
                f"bias shapes {self.visible_bias.shape}/{self.hidden_bias.shape} "
                f"do not match weights {self.weights.shape}"
            )
        for arr in (self.weights, self.visible_bias, self.hidden_bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")

    @property
    def n_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def initialize(cls, n_visible: int, n_hidden: int, rng: np.random.Generator) -> "EnergyModel":
        """Small random couplings (``WEIGHT_SCALE`` standard normals) and zero biases."""
        weights = WEIGHT_SCALE * rng.standard_normal((n_visible, n_hidden))
        return cls(weights, np.zeros(n_visible), np.zeros(n_hidden))


def free_energies(model: EnergyModel, indices: Sequence[int] | np.ndarray) -> np.ndarray:
    """F(v) for each basis index in ``indices``, hidden layer summed out analytically."""
    bits = index_bits(indices, model.n_visible)
    activation = bits @ model.weights + model.hidden_bias
    return -(bits @ model.visible_bias) - np.sum(np.logaddexp(0.0, activation), axis=-1)


def _check_indices(indices: np.ndarray, n_qubits: int, what: str) -> None:
    if indices.size and (indices.min() < 0 or indices.max() >= 2**n_qubits):
        raise ValueError(f"{what} indices must lie in [0, {2**n_qubits}) for {n_qubits} qubits")


@dataclass
class MarkovChainState:
    """Position of a persistent Metropolis chain (a basis index), including its RNG."""

    current: int
    rng: np.random.Generator


def initial_chain(
    model: EnergyModel,
    rng: np.random.Generator,
    start: int | None = None,
) -> MarkovChainState:
    """Fresh chain; by default it starts from the all-ones configuration."""
    if start is None:
        start = 2**model.n_visible - 1
    _check_indices(np.array([start]), model.n_visible, "start")
    return MarkovChainState(int(start), rng)


def metropolis_sample(
    model: EnergyModel,
    chain: MarkovChainState,
    burn_in: int,
    n_collect: int,
) -> tuple[np.ndarray, MarkovChainState]:
    """Run the chain and record one basis index per post-burn-in step.

    Candidates are fresh configurations drawn uniformly over all 2**n
    states.  The draw is symmetric, so a move from v to v' is accepted
    with probability min(exp(F(v) - F(v')), 1).  Drawing the current
    state is possible and always accepted.  Exactly ``n_collect``
    int64 indices are returned, duplicates included, and the returned
    chain state continues from the final accepted state.
    """
    if burn_in < 0 or n_collect < 0:
        raise ValueError("burn_in and n_collect must be non-negative")
    n = model.n_visible
    # Python lists index and compare faster than NumPy scalars in this loop.
    table = free_energies(model, np.arange(2**n)).tolist()
    rng = chain.rng
    steps = burn_in + n_collect
    current = int(chain.current)
    current_energy = table[current]

    candidates = rng.integers(0, 2**n, size=steps).tolist()
    uniforms = rng.random(steps).tolist()

    path = []
    for cand, uniform in zip(candidates, uniforms):
        delta = current_energy - table[cand]
        if delta >= 0.0 or uniform < math.exp(delta):
            current = cand
            current_energy = table[cand]
        path.append(current)
    collected = np.array(path[burn_in:], dtype=np.int64)

    return collected, MarkovChainState(current, rng)


@dataclass(eq=False)
class ModularHamiltonian:
    """Diagonal operator K = sum_z E(z) |z><z| over a sampled support.

    ``support`` holds one or more distinct int64 basis indices and
    ``energies`` the aligned E(z).  ``log_partition`` is derived from
    them: log sum_z exp(-E(z)) over the stored support.
    """

    n_qubits: int
    support: np.ndarray
    energies: np.ndarray

    def __post_init__(self) -> None:
        _check_n_qubits(self.n_qubits)
        self.support = np.asarray(self.support, dtype=np.int64)
        self.energies = np.asarray(self.energies, dtype=np.float64)
        if self.support.ndim != 1 or self.energies.shape != self.support.shape:
            raise ValueError(
                f"support shape {self.support.shape} and energy shape "
                f"{self.energies.shape} do not match"
            )
        if not self.support.size:
            raise ValueError("support must hold at least one state")
        if not np.all(np.isfinite(self.energies)):
            raise ValueError("energies must be finite")
        _check_indices(self.support, self.n_qubits, "support")
        if np.unique(self.support).size != self.support.size:
            raise ValueError("support states must be unique")
        self.log_partition = logsumexp(-self.energies)


def build_hamiltonian(
    model: EnergyModel,
    samples: Sequence[int] | np.ndarray,
) -> ModularHamiltonian:
    """Modular Hamiltonian from Monte Carlo samples (basis indices) of ``model``.

    The support keeps unique indices in first-appearance order, and each
    state enters once at its free energy, however often it was sampled.
    No samples give an empty support, which ``ModularHamiltonian`` refuses.
    """
    samples = np.asarray(samples, dtype=np.int64)
    _check_indices(samples, model.n_visible, "sample")
    unique, first = np.unique(samples, return_index=True)
    support = unique[np.argsort(first)]
    return ModularHamiltonian(model.n_visible, support, free_energies(model, support))


def theta_gradient(
    model: EnergyModel,
    ham: ModularHamiltonian,
    support_weights: Sequence[float] | np.ndarray,
) -> dict[str, np.ndarray]:
    """Analytic gradient of sum_z w_z F(z) + log Z, keyed like the model's ``train.parameters``.

    The support is treated as fixed.  ``support_weights`` holds the data
    weights w_z aligned with ``ham.support``.  The partition term
    contributes through the Boltzmann distribution over the support, so
    the gradient vanishes when the weights equal softmax(-E).
    """
    w = np.asarray(support_weights, dtype=np.float64)
    if w.shape != ham.support.shape:
        raise ValueError(f"{ham.support.size} support states but weight shape {w.shape}")
    bits = index_bits(ham.support, ham.n_qubits)
    boltzmann = softmax(-ham.energies)
    coef = w - boltzmann
    hidden = expit(bits @ model.weights + model.hidden_bias)
    # dF/db_vis = -v, dF/db_hid = -sigmoid(vW + b_hid), dF/dW = outer of the two.
    d_visible = -(bits.T @ coef)
    d_hidden = -(hidden.T @ coef)
    d_weights = -(bits.T @ (coef[:, None] * hidden))
    return {"weights": d_weights, "visible_bias": d_visible, "hidden_bias": d_hidden}


def thermal_state(ham: ModularHamiltonian) -> np.ndarray:
    """Spectrum p of exp(-K) / Z: Boltzmann weights on the support, zero elsewhere."""
    p = np.zeros(2**ham.n_qubits)
    p[ham.support] = np.exp(-ham.energies - ham.log_partition)
    return p
