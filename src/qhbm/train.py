"""Hybrid training loop for the energy model and the circuit.

Each step re-estimates the modular Hamiltonian by continuing a
persistent Metropolis chain, evaluates the bound

    loss = beta * mean <K> + k_beta * log Z

over a batch of embedded events, and applies one Adam update to both
parameter sets: circuit angles through an adjoint-mode sweep of the
real-valued circuit (scaled by beta), model parameters through the
analytic gradient with the support held fixed.  The loss is bounded
below by the von Neumann entropy of the data's mixed state, reached
when the model matches the data.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from . import ebm, qsim
from .embed import DensityMatrix, PixelProbabilities, bernoulli_index_samples
from .errors import ConfigError, NumericError
from .rng import substream


@dataclass
class TrainConfig:
    """Protocol knobs; defaults follow the reference training recipe."""

    n_qubits: int
    n_layers: int = 3
    n_hidden: int | None = None
    n_mc_samples: int = 200
    n_embed_samples: int = 500
    batch_size: int = 25
    beta: float = 1.0
    k_beta: float = 1.0
    learning_rate: float = 1e-2
    lr_halve_patience: int = 25
    early_stop_patience: int = 50
    max_epochs: int = 100
    mc_burn_in: int = 100
    seed: int = 0
    embed_mode: str = "presampled"
    proposal: str = "uniform"
    duplicate_mode: str = "dedupe"
    partition_mode: str = "support"
    adjoint_convention: bool = False
    latent_mode: str = "thermal"
    weight_scale: float = 0.01
    angle_scale: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self) -> "TrainConfig":
        if not 1 <= self.n_qubits <= qsim.MAX_QUBITS:
            raise ConfigError(f"n_qubits must be in [1, {qsim.MAX_QUBITS}]")
        positive = {
            "n_mc_samples": self.n_mc_samples,
            "n_embed_samples": self.n_embed_samples,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "lr_halve_patience": self.lr_halve_patience,
            "early_stop_patience": self.early_stop_patience,
            "max_epochs": self.max_epochs,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.n_layers < 0 or self.mc_burn_in < 0:
            raise ConfigError("n_layers and mc_burn_in must be >= 0")
        if self.n_hidden is not None and self.n_hidden < 1:
            raise ConfigError(f"n_hidden must be >= 1, got {self.n_hidden}")
        if self.embed_mode not in ("presampled", "per_epoch"):
            raise ConfigError(f"unknown embed_mode {self.embed_mode!r}")
        if self.proposal not in ("uniform", "single_flip"):
            raise ConfigError(f"unknown proposal {self.proposal!r}")
        if self.duplicate_mode not in ("dedupe", "multiplicity"):
            raise ConfigError(f"unknown duplicate_mode {self.duplicate_mode!r}")
        if self.partition_mode not in ("support", "full"):
            raise ConfigError(f"unknown partition_mode {self.partition_mode!r}")
        if self.latent_mode not in ("thermal", "maximally_mixed"):
            raise ConfigError(f"unknown latent_mode {self.latent_mode!r}")
        return self

    @property
    def hidden_units(self) -> int:
        return self.n_hidden if self.n_hidden is not None else 2 * self.n_qubits

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class AdamState:
    """First/second-moment accumulators per named parameter array."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )

    def update(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
    ) -> dict[str, np.ndarray]:
        """One step; mutates the moments and returns fresh parameter arrays."""
        self.t += 1
        out: dict[str, np.ndarray] = {}
        for key, p in params.items():
            g = grads[key]
            self.m[key] = beta1 * self.m[key] + (1.0 - beta1) * g
            self.v[key] = beta2 * self.v[key] + (1.0 - beta2) * g**2
            m_hat = self.m[key] / (1.0 - beta1**self.t)
            v_hat = self.v[key] / (1.0 - beta2**self.t)
            out[key] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        return out


@dataclass
class TrainState:
    """Everything live during optimisation; snapshots are deep-copyable."""

    energy_model: ebm.EnergyModel
    ansatz: qsim.CircuitAnsatz
    hamiltonian: ebm.ModularHamiltonian
    chain: ebm.MarkovChainState
    adam_theta: AdamState
    adam_phi: AdamState
    epoch: int = 0
    best_validation_loss: float = np.inf
    lr_current: float = 1e-2


def init_train_state(config: TrainConfig) -> TrainState:
    """Seeded initial state: small random parameters, chain at all-ones."""
    config.validate()
    model = ebm.EnergyModel.initialize(
        config.n_qubits,
        config.hidden_units,
        substream(config.seed, "init", "theta"),
        config.weight_scale,
    )
    angles = config.angle_scale * substream(config.seed, "init", "phi").standard_normal(
        2 * (config.n_qubits - 1) * config.n_layers
    )
    ansatz = qsim.CircuitAnsatz(config.n_qubits, config.n_layers, angles)
    chain = ebm.initial_chain(model, substream(config.seed, "chain"))
    samples, chain = ebm.metropolis_sample(
        model, chain, config.mc_burn_in, config.n_mc_samples, config.proposal
    )
    ham = ebm.build_hamiltonian(
        model, samples, config.duplicate_mode, config.partition_mode
    )
    theta_params = _theta_params(model)
    return TrainState(
        energy_model=model,
        ansatz=ansatz,
        hamiltonian=ham,
        chain=chain,
        adam_theta=AdamState.zeros_like(theta_params),
        adam_phi=AdamState.zeros_like({"angles": angles}),
        lr_current=config.learning_rate,
    )


def _theta_params(model: ebm.EnergyModel) -> dict[str, np.ndarray]:
    return {
        "weights": model.weights,
        "visible_bias": model.visible_bias,
        "hidden_bias": model.hidden_bias,
    }


Batch = Sequence[Sequence[qsim.SpinConfig]]


def _group_distribution(group: Sequence[qsim.SpinConfig] | np.ndarray, dim: int) -> np.ndarray:
    """Empirical distribution of one event's embedded draws over the basis."""
    if isinstance(group, np.ndarray):
        idx = group
    else:
        idx = np.array([c.index for c in group], dtype=np.int64)
    if idx.size == 0:
        raise ValueError("each batch group needs at least one embedded sample")
    return np.bincount(idx, minlength=dim) / idx.size


def _batch_distribution(groups: Batch | Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Mean over events of each event's empirical distribution over the basis."""
    if len(groups) == 0:
        raise ValueError("batch must not be empty")
    q = np.zeros(dim)
    for group in groups:
        q += _group_distribution(group, dim)
    q /= len(groups)
    return q


def _distribution_expectation(
    ansatz: qsim.CircuitAnsatz,
    ham: ebm.ModularHamiltonian,
    q: np.ndarray,
    adjoint: bool,
) -> tuple[float, np.ndarray]:
    """Mean <K> over basis draws distributed as ``q``, plus the routed probabilities.

    Routing every basis state through the circuit at once gives the
    output distribution P @ q with P[z, x] = |<z| U |x>|**2 (or U^dag for
    the adjoint orientation); the expectation is then a support lookup.
    """
    u = qsim.ansatz_unitary(ansatz)
    if adjoint:
        u = u.T
    routed = (u * u) @ q
    if ham.basis_indices.size == 0:
        return 0.0, routed
    return float(ham.energies @ routed[ham.basis_indices]), routed


def batch_objective(
    state: TrainState,
    batch: Batch,
    config: TrainConfig,
) -> tuple[float, float, dict[qsim.SpinConfig, float]]:
    """Loss, mean expectation and per-support data weights for one batch.

    Every event's expectation is the mean over its embedded draws; the
    batch expectation averages events uniformly.  The support weights
    are the routed basis probabilities averaged the same way, so that
    sum_z w_z E(z) reproduces the mean expectation exactly.
    """
    q = _batch_distribution(batch, 2**config.n_qubits)
    return _objective(state, q, config)


def _objective(
    state: TrainState, q: np.ndarray, config: TrainConfig
) -> tuple[float, float, dict[qsim.SpinConfig, float]]:
    """``batch_objective`` for a batch already reduced to its distribution ``q``."""
    mean_exp, routed = _distribution_expectation(
        state.ansatz, state.hamiltonian, q, config.adjoint_convention
    )
    loss = config.beta * mean_exp + config.k_beta * state.hamiltonian.log_partition
    weights = {
        c: float(routed[i])
        for c, i in zip(state.hamiltonian.support, state.hamiltonian.basis_indices)
    }
    return loss, mean_exp, weights


def _phi_gradient(
    ansatz: qsim.CircuitAnsatz,
    ham: ebm.ModularHamiltonian,
    q: np.ndarray,
    adjoint: bool,
) -> np.ndarray:
    """Adjoint-mode gradient of the batch-mean expectation over every angle.

    The expectation is f = tr(Phi^T K Phi) with Phi = V diag(sqrt(q)),
    where V is the circuit matrix (U, or U^T in the adjoint orientation)
    and only the columns with q > 0 are kept.  After one forward sweep
    and Lambda = K Phi, a backward sweep un-applies each gate from Phi
    and Lambda together.  Taking both just before an RY gate with
    applied angle a, df/da = 2 <Lambda, dRY/da Phi> reduces to
    <Lambda, J Phi> with J = [[0, -1], [1, 0]] on the gate's qubit
    (Jones & Gacon, arXiv:2009.02823).
    """
    grad = np.zeros(ansatz.n_parameters)
    cols = np.flatnonzero(q > 0)
    if ham.basis_indices.size == 0 or cols.size == 0:
        return grad
    m = cols.size
    # pair[:, 0] holds Phi and pair[:, 1] holds Lambda, so each gate is one call.
    pair = np.zeros((2**ansatz.n_qubits, 2, m))
    pair[cols, 0, np.arange(m)] = np.sqrt(q[cols])
    gates = qsim.circuit_gates(ansatz, adjoint)
    for gate in gates:
        qsim.apply_gate(pair, *gate)
    pair[ham.basis_indices, 1] = ham.energies[:, None] * pair[ham.basis_indices, 0]
    # The adjoint orientation applies -angles[k], which flips the chain rule.
    sign = -1.0 if adjoint else 1.0
    for qubit, k, angle in reversed(gates):
        qsim.apply_gate(pair, qubit, k, -angle)
        if k >= 0:
            v = pair.reshape(2**qubit, 2, -1, 2, m)
            phi_0, phi_1 = v[:, 0, :, 0], v[:, 1, :, 0]
            lam_0, lam_1 = v[:, 0, :, 1], v[:, 1, :, 1]
            grad[k] = sign * (np.vdot(lam_1, phi_0) - np.vdot(lam_0, phi_1))
    return grad


def train_step(state: TrainState, batch: Batch, config: TrainConfig) -> TrainState:
    """One optimisation step; re-estimates the Hamiltonian first.

    The persistent chain continues from its previous position, the
    support is rebuilt from the fresh samples, and both parameter sets
    receive one Adam update at the shared current learning rate.
    Raises NumericError when the update leaves non-finite parameters or
    free energies.
    """
    samples, chain = ebm.metropolis_sample(
        state.energy_model,
        state.chain,
        config.mc_burn_in,
        config.n_mc_samples,
        config.proposal,
    )
    ham = ebm.build_hamiltonian(
        state.energy_model, samples, config.duplicate_mode, config.partition_mode
    )
    working = TrainState(
        energy_model=state.energy_model,
        ansatz=state.ansatz,
        hamiltonian=ham,
        chain=chain,
        adam_theta=state.adam_theta,
        adam_phi=state.adam_phi,
        epoch=state.epoch,
        best_validation_loss=state.best_validation_loss,
        lr_current=state.lr_current,
    )
    q = _batch_distribution(batch, 2**config.n_qubits)
    _, _, weights = _objective(working, q, config)
    phi_grad = config.beta * _phi_gradient(
        working.ansatz, ham, q, config.adjoint_convention
    )
    theta_grad = ebm.theta_gradient(
        working.energy_model, ham, weights, config.beta, config.k_beta
    )

    new_angles = working.adam_phi.update(
        {"angles": working.ansatz.angles},
        {"angles": phi_grad},
        working.lr_current,
        config.adam_beta1,
        config.adam_beta2,
        config.adam_eps,
    )["angles"]
    new_theta = working.adam_theta.update(
        _theta_params(working.energy_model),
        {
            "weights": theta_grad.weights,
            "visible_bias": theta_grad.visible_bias,
            "hidden_bias": theta_grad.hidden_bias,
        },
        working.lr_current,
        config.adam_beta1,
        config.adam_beta2,
        config.adam_eps,
    )

    updated = {"angles": new_angles, **new_theta}
    blown = [name for name, values in updated.items() if not np.all(np.isfinite(values))]
    if blown:
        raise NumericError(f"update left non-finite {', '.join(blown)}")
    working.energy_model = ebm.EnergyModel(
        new_theta["weights"], new_theta["visible_bias"], new_theta["hidden_bias"]
    )
    # Finite parameters can still overflow the free energies that the next
    # step's sampler and Hamiltonian are built from.
    if not np.all(np.isfinite(ebm.free_energy_table(working.energy_model))):
        raise NumericError("updated model has non-finite free energies")
    working.ansatz = working.ansatz.with_angles(new_angles)
    return working


def _embed_events(
    events: Sequence[PixelProbabilities],
    n_samples: int,
    seed: int,
    *tags: str | int,
) -> list[np.ndarray]:
    groups = []
    for d, event in enumerate(events):
        rng = substream(seed, "embedding", *tags, d)
        groups.append(bernoulli_index_samples(event, n_samples, rng))
    return groups


def _dataset_loss(
    state: TrainState,
    ham: ebm.ModularHamiltonian,
    groups: Sequence[np.ndarray],
    config: TrainConfig,
) -> float:
    q = _batch_distribution(groups, 2**config.n_qubits)
    mean_exp, _ = _distribution_expectation(state.ansatz, ham, q, config.adjoint_convention)
    return config.beta * mean_exp + config.k_beta * ham.log_partition


def _validation_loss(
    state: TrainState,
    groups: Sequence[np.ndarray],
    config: TrainConfig,
    epoch: int,
) -> float:
    """Loss on held-out events under a freshly sampled Hamiltonian.

    The validation chain forks from the training chain's position with
    its own derived RNG, so validating never perturbs training.
    """
    fork = ebm.MarkovChainState(
        state.chain.current,
        state.chain.current_energy,
        substream(config.seed, "validation", epoch),
    )
    samples, _ = ebm.metropolis_sample(
        state.energy_model, fork, config.mc_burn_in, config.n_mc_samples, config.proposal
    )
    ham = ebm.build_hamiltonian(
        state.energy_model, samples, config.duplicate_mode, config.partition_mode
    )
    return _dataset_loss(state, ham, groups, config)


def snapshot(state: TrainState) -> TrainState:
    """Deep copy, including the chain RNG position."""
    return copy.deepcopy(state)


def fit(
    config: TrainConfig,
    train_events: Sequence[PixelProbabilities],
    valid_events: Sequence[PixelProbabilities],
    initial: TrainState | None = None,
    initial_history: Sequence[dict] | None = None,
) -> tuple[TrainState, list[dict]]:
    """Full training run; returns the best-validation snapshot and history.

    Validation runs once per epoch.  The learning rate halves after
    ``lr_halve_patience`` epochs without improvement (counter resets on
    each halving) and training stops early after
    ``early_stop_patience`` epochs without improvement.  Passing
    ``initial`` resumes training, continuing the epoch numbering.  A
    numeric blow-up raises NumericError naming the epoch and step.
    """
    config.validate()
    if not train_events or not valid_events:
        raise ValueError("need non-empty training and validation sets")
    state = initial if initial is not None else init_train_state(config)
    history: list[dict] = list(initial_history) if initial_history else []

    valid_groups = _embed_events(
        valid_events, config.n_embed_samples, config.seed, "valid"
    )
    if config.embed_mode == "presampled":
        train_groups = _embed_events(
            train_events, config.n_embed_samples, config.seed, "train"
        )

    best = snapshot(state)
    since_improve = 0
    since_improve_lr = 0
    for epoch in range(state.epoch, config.max_epochs):
        if config.embed_mode == "per_epoch":
            train_groups = _embed_events(
                train_events, config.n_embed_samples, config.seed, "train", epoch
            )
        order = substream(config.seed, "shuffle", epoch).permutation(len(train_events))
        epoch_losses = []
        for step, start in enumerate(range(0, len(order), config.batch_size), 1):
            batch_idx = order[start : start + config.batch_size]
            batch = [train_groups[i] for i in batch_idx]
            try:
                state = train_step(state, batch, config)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch + 1} step {step}: {exc}") from exc
            loss, _, _ = batch_objective(state, batch, config)
            epoch_losses.append(loss)
        valid_loss = _validation_loss(state, valid_groups, config, epoch)
        state.epoch = epoch + 1
        history.append(
            {
                "epoch": epoch + 1,
                "train_loss": float(np.mean(epoch_losses)),
                "validation_loss": float(valid_loss),
                "learning_rate": state.lr_current,
            }
        )
        if valid_loss < state.best_validation_loss:
            state.best_validation_loss = float(valid_loss)
            best = snapshot(state)
            since_improve = 0
            since_improve_lr = 0
        else:
            since_improve += 1
            since_improve_lr += 1
        if since_improve_lr >= config.lr_halve_patience:
            state.lr_current /= 2.0
            since_improve_lr = 0
        if since_improve >= config.early_stop_patience:
            break
    best.epoch = state.epoch
    best.best_validation_loss = state.best_validation_loss
    return best, history


def model_density_matrix(state: TrainState, latent_mode: str = "thermal") -> DensityMatrix:
    """Circuit-rotated latent state U rho U^dag.

    The latent rho is the thermal state of the current Hamiltonian by
    default, or the maximally mixed state over its support.
    """
    n = state.ansatz.n_qubits
    ham = state.hamiltonian
    if latent_mode == "thermal":
        latent = ebm.thermal_state(ham, n).diagonal()
    elif latent_mode == "maximally_mixed":
        if not ham.support:
            raise ValueError("hamiltonian support is empty")
        latent = np.zeros(2**n)
        latent[ham.basis_indices] = 1.0 / len(ham.support)
    else:
        raise ValueError(f"unknown latent_mode {latent_mode!r}")
    u = qsim.ansatz_unitary(state.ansatz)
    # U diag(latent) U^T with U real orthogonal.
    return DensityMatrix((u * latent) @ u.T)


def generate(
    state: TrainState,
    n_events: int,
    rng: np.random.Generator,
    latent_mode: str = "thermal",
) -> tuple[list[qsim.SpinConfig], DensityMatrix]:
    """Sample configurations from the model and report its density matrix.

    Latent states are drawn from the Boltzmann distribution over the
    support (or uniformly over it), routed through the circuit, and the
    output basis state is sampled from the routed amplitudes.
    """
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")
    ham = state.hamiltonian
    if not ham.support:
        raise ValueError("hamiltonian support is empty")
    n = state.ansatz.n_qubits
    if latent_mode == "thermal":
        latent_probs = np.exp(-ham.energies - ham.log_partition)
        latent_probs = latent_probs / latent_probs.sum()
    elif latent_mode == "maximally_mixed":
        latent_probs = np.full(len(ham.support), 1.0 / len(ham.support))
    else:
        raise ValueError(f"unknown latent_mode {latent_mode!r}")
    u = qsim.ansatz_unitary(state.ansatz)
    # Column x of U**2 is the output distribution for latent state x.
    out_cum = np.cumsum(u * u, axis=0).T[ham.basis_indices]
    latent_draws = rng.choice(len(ham.support), size=n_events, p=latent_probs)
    uniforms = rng.random(n_events)
    configs: list[qsim.SpinConfig] = []
    for draw, point in zip(latent_draws, uniforms):
        out_index = int(np.searchsorted(out_cum[draw], point, side="right"))
        configs.append(qsim.SpinConfig.from_index(min(out_index, 2**n - 1), n))
    return configs, model_density_matrix(state, latent_mode)
