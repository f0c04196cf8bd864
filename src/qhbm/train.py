"""Hybrid training loop for the energy model and the circuit.

Each step re-estimates the modular Hamiltonian by continuing a
persistent Metropolis chain, evaluates the bound

    loss = mean <K> + log Z

over a batch of embedded events, the quantum cross-entropy of the data
against the model state (Verdon et al., arXiv:1910.02071), and applies
one Adam update to both parameter sets: circuit angles through an
adjoint-mode backward sweep of the real-valued circuit, model parameters
through the analytic gradient with the support held fixed.  The step
builds the circuit matrix once and takes the loss, the support weights
and the start of the backward sweep from it; the loss it returns, that
of the incoming parameters under the step's fresh Hamiltonian, is what
``fit`` averages into an epoch's ``train_loss``.  The loss is bounded
below by the von Neumann entropy of the data's mixed state, reached when
the model matches the data.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import ebm, qsim
from .embed import bernoulli_index_samples, check_probabilities, frequency_row, product_distributions
from .errors import ConfigError, NumericError
from .rng import substream

# Adam's (beta1, beta2, eps) and the spread of the initial circuit angles.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ANGLE_SCALE = 0.01


def is_rate(value) -> bool:
    """Whether ``value`` is a finite, positive real number; a bool is not one."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    return real and math.isfinite(value) and value > 0


@dataclass
class TrainConfig:
    """Protocol knobs; defaults follow the reference training recipe."""

    n_qubits: int
    n_layers: int = 3
    n_hidden: int | None = None
    n_mc_samples: int = 200
    n_embed_samples: int = 500
    batch_size: int = 25
    learning_rate: float = 1e-2
    lr_halve_patience: int = 25
    early_stop_patience: int = 50
    max_epochs: int = 100
    mc_burn_in: int = 100
    seed: int = 0

    def validate(self) -> "TrainConfig":
        integers = (
            "n_qubits", "n_layers", "n_hidden", "n_mc_samples", "n_embed_samples", "batch_size",
            "lr_halve_patience", "early_stop_patience", "max_epochs", "mc_burn_in", "seed",
        )
        for name in integers:
            value = getattr(self, name)
            if name == "n_hidden" and value is None:
                continue
            # bool is an int subclass, but a flag where a count belongs is a mistake.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n_qubits <= qsim.MAX_QUBITS:
            raise ConfigError(f"n_qubits must be in [1, {qsim.MAX_QUBITS}]")
        positive = {
            "n_mc_samples": self.n_mc_samples,
            "n_embed_samples": self.n_embed_samples,
            "batch_size": self.batch_size,
            "lr_halve_patience": self.lr_halve_patience,
            "early_stop_patience": self.early_stop_patience,
            "max_epochs": self.max_epochs,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not is_rate(rate := self.learning_rate):
            raise ConfigError(f"learning_rate must be finite and positive, got {rate!r}")
        for name in ("n_layers", "mc_burn_in", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_hidden is not None and self.n_hidden < 1:
            raise ConfigError(f"n_hidden must be >= 1, got {self.n_hidden}")
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
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float
    ) -> dict[str, np.ndarray]:
        """One step; mutates the moments and returns fresh parameter arrays."""
        self.t += 1
        out: dict[str, np.ndarray] = {}
        for key, p in params.items():
            g = grads[key]
            self.m[key] = ADAM_BETA1 * self.m[key] + (1.0 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1.0 - ADAM_BETA2) * g**2
            m_hat = self.m[key] / (1.0 - ADAM_BETA1**self.t)
            v_hat = self.v[key] / (1.0 - ADAM_BETA2**self.t)
            out[key] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        return out


@dataclass
class TrainState:
    """Everything live during optimisation; snapshots are deep-copyable."""

    energy_model: ebm.EnergyModel
    ansatz: qsim.CircuitAnsatz
    hamiltonian: ebm.ModularHamiltonian
    chain: ebm.MarkovChainState
    adam: AdamState
    epoch: int = 0
    best_validation_loss: float = np.inf
    # Starts at ``TrainConfig.learning_rate``, which the caller passes; ``fit`` halves it.
    lr_current: float = dataclasses.field(kw_only=True)


def init_train_state(config: TrainConfig) -> TrainState:
    """Seeded initial state: small random parameters, chain at all-ones."""
    config.validate()
    model = ebm.EnergyModel.initialize(
        config.n_qubits,
        config.hidden_units,
        substream(config.seed, "init", "theta"),
    )
    angles = ANGLE_SCALE * substream(config.seed, "init", "phi").standard_normal(
        2 * (config.n_qubits - 1) * config.n_layers
    )
    ansatz = qsim.CircuitAnsatz(config.n_qubits, config.n_layers, angles)
    chain = ebm.initial_chain(model, substream(config.seed, "chain"))
    samples, chain = ebm.metropolis_sample(model, chain, config.mc_burn_in, config.n_mc_samples)
    ham = ebm.build_hamiltonian(model, samples)
    return TrainState(
        energy_model=model,
        ansatz=ansatz,
        hamiltonian=ham,
        chain=chain,
        adam=AdamState.zeros_like(parameters(model, ansatz)),
        lr_current=config.learning_rate,
    )


def parameters(model: ebm.EnergyModel, ansatz: qsim.CircuitAnsatz) -> dict[str, np.ndarray]:
    """Every trained array by name: the model's three, then the circuit angles."""
    return {
        "weights": model.weights,
        "visible_bias": model.visible_bias,
        "hidden_bias": model.hidden_bias,
        "angles": ansatz.angles,
    }


# One embedded event per row: its draws' frequency at each basis state.
Batch = np.ndarray


def _batch_distribution(rows: Batch) -> np.ndarray:
    """Mean over events of each event's empirical distribution over the basis.

    ``rows`` holds one ``embed.frequency_row`` per event.  NumPy adds the
    rows of a C-contiguous array in batch order, so a seeded run repeats
    q bit for bit.
    """
    if len(rows) == 0:
        raise ValueError("batch must not be empty")
    return rows.mean(axis=0)


def _loss(
    u: np.ndarray, ham: ebm.ModularHamiltonian, q: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Loss, mean <K> and support weights for basis draws distributed as ``q``.

    Routing every basis state through the circuit matrix ``u`` at once
    gives the output distribution P @ q with P[z, x] = <z|U|x>**2.  The
    support weights are that distribution read off at ``ham.support``, so
    the mean expectation is sum_z w_z E(z) = tr(diag(q) U^T K U): the data
    are scored against the model state U^T diag(p) U of ``model_state``.
    """
    weights = ((u * u) @ q)[ham.support]
    mean_exp = float(ham.energies @ weights)
    return mean_exp + ham.log_partition, mean_exp, weights


def batch_objective(state: TrainState, batch: Batch) -> tuple[float, float, np.ndarray]:
    """Loss, mean expectation and support weights for one batch.

    Every event's expectation is the mean over its embedded draws; the
    batch expectation averages events uniformly.  The support weights,
    aligned with ``state.hamiltonian.support``, are the routed basis
    probabilities averaged the same way, so that sum_z w_z E(z)
    reproduces the mean expectation exactly.
    """
    q = _batch_distribution(batch)
    return _loss(qsim.ansatz_unitary(state.ansatz), state.hamiltonian, q)


def _phi_gradient(
    ansatz: qsim.CircuitAnsatz,
    u: np.ndarray,
    ham: ebm.ModularHamiltonian,
    q: np.ndarray,
) -> np.ndarray:
    """Adjoint-mode gradient of the batch-mean expectation over every angle.

    The expectation is f = tr(Phi^T K Phi) with Phi = U[:, cols] diag(sqrt(q[cols])),
    where ``u`` is the circuit matrix of ``ansatz`` and cols are the basis
    states with q > 0.  Phi and Lambda = K Phi are stacked in one
    C-contiguous (2, 2**n, m) array, and a backward sweep un-applies each
    group F of ``qsim.circuit_groups`` from both with one F^T pass.  That
    pair and the spare the sweep writes into are the two halves of one
    block allocated per call: Phi is taken from U straight into it and
    scaled in place, and Lambda's rows are zeroed and filled in place.
    At the group's input, df/dt = <Lambda, X_t Phi> for each of its angles
    t, with X_t the angle's generator from ``circuit_groups`` (Jones &
    Gacon, arXiv:2009.02823).  All of them come from the one d x d Gram
    matrix G = sum_i Lambda_i Phi_i^T over the group's (2**qubit, d, rest)
    views, one batched product per group: df/dt = <G, X_t>.
    """
    grad = np.zeros(ansatz.n_parameters)
    cols = np.flatnonzero(q > 0)
    # pair[0] holds Phi and pair[1] Lambda, so each group is one call.
    pair, spare = np.empty((2, 2, 2**ansatz.n_qubits, cols.size))
    phi, lam = pair
    # cols are in range, so "clip" takes without the buffer "raise" copies through.
    np.take(u, cols, axis=1, out=phi, mode="clip")
    phi *= np.sqrt(q[cols])
    lam.fill(0.0)
    lam[ham.support] = ham.energies[:, None] * phi[ham.support]
    # Groups hold consecutive angles, so the sweep fills grad from its end.
    end = grad.size
    for qubit, f, x in reversed(qsim.circuit_groups(ansatz)):
        pair, spare = qsim.apply_block(pair, qubit, f.T, spare, axis=1), pair
        phi, lam = pair.reshape(2, 2**qubit, len(f), -1, copy=False)
        g = (lam @ phi.transpose(0, 2, 1)).sum(axis=0)
        grad[end - len(x) : end] = x.reshape(len(x), -1) @ g.ravel()
        end -= len(x)
    return grad


def train_step(state: TrainState, batch: Batch, config: TrainConfig) -> tuple[TrainState, float]:
    """One optimisation step and the loss it was taken at.

    The persistent chain continues from its previous position and the
    support is rebuilt from the fresh samples.  One circuit matrix gives
    the loss of the incoming parameters under that fresh Hamiltonian, the
    support weights of the model gradient and the start of the angle
    gradient's backward sweep.  Both parameter sets then take one Adam
    update at the current learning rate.  Raises NumericError when
    the update leaves non-finite parameters or free energies.
    """
    samples, chain = ebm.metropolis_sample(
        state.energy_model, state.chain, config.mc_burn_in, config.n_mc_samples
    )
    ham = ebm.build_hamiltonian(state.energy_model, samples)
    q = _batch_distribution(batch)
    u = qsim.ansatz_unitary(state.ansatz)
    loss, _, weights = _loss(u, ham, q)
    grads = ebm.theta_gradient(state.energy_model, ham, weights)
    grads["angles"] = _phi_gradient(state.ansatz, u, ham, q)
    params = parameters(state.energy_model, state.ansatz)
    updated = state.adam.update(params, grads, state.lr_current)
    blown = [name for name, values in updated.items() if not np.all(np.isfinite(values))]
    if blown:
        raise NumericError(f"update left non-finite {', '.join(blown)}")
    new_angles = updated.pop("angles")
    model = ebm.EnergyModel(**updated)
    # Finite parameters can still overflow the free energies that the next
    # step's sampler and Hamiltonian are built from.
    if not np.all(np.isfinite(ebm.free_energies(model, np.arange(2**config.n_qubits)))):
        raise NumericError("updated model has non-finite free energies")
    stepped = dataclasses.replace(
        state,
        energy_model=model,
        ansatz=state.ansatz.with_angles(new_angles),
        hamiltonian=ham,
        chain=chain,
    )
    return stepped, loss


def _embed_events(probs: np.ndarray, n_samples: int, seed: int, tag: str) -> np.ndarray:
    """One frequency row per event of an (E, n) stack, from ``n_samples`` draws each.

    The whole set draws from one generator, ``substream(seed, "embedding",
    tag)``, event after event, so an event's draws depend on the events
    before it in the set.  The set's product distributions are built in
    one call; the draws go one ``bernoulli_index_samples`` call per event,
    which gives the same counts and leaves the generator where one
    ``rng.multinomial(n_samples, rows)`` over the whole stack would.
    """
    rows = product_distributions(probs)
    rng = substream(seed, "embedding", tag)
    # Each row's distribution gives way to its draws' frequencies.
    for distribution in rows:
        distribution[:] = frequency_row(bernoulli_index_samples(distribution, n_samples, rng))
    return rows


def _validation_loss(
    state: TrainState,
    rows: Batch,
    config: TrainConfig,
    epoch: int,
) -> float:
    """Loss on held-out events under a freshly sampled Hamiltonian.

    The validation chain forks from the training chain's position with
    its own derived RNG, so validating never perturbs training.
    """
    fork = dataclasses.replace(state.chain, rng=substream(config.seed, "validation", epoch))
    samples, _ = ebm.metropolis_sample(state.energy_model, fork, config.mc_burn_in, config.n_mc_samples)
    ham = ebm.build_hamiltonian(state.energy_model, samples)
    return batch_objective(dataclasses.replace(state, hamiltonian=ham), rows)[0]


def snapshot(state: TrainState) -> TrainState:
    """Deep copy, including the chain RNG position."""
    return copy.deepcopy(state)


# The keys of each history row ``fit`` appends, as ``history.csv`` orders them.
HISTORY_KEYS = ("epoch", "train_loss", "validation_loss", "learning_rate")


def fit(
    config: TrainConfig,
    train_events: np.ndarray | Sequence[np.ndarray],
    valid_events: np.ndarray | Sequence[np.ndarray],
    initial: TrainState | None = None,
    initial_history: Sequence[dict] | None = None,
) -> tuple[TrainState, list[dict]]:
    """Full training run; returns the best-validation snapshot and history.

    Each event set is an (E, n_qubits) stack of Bernoulli probabilities
    (or a sequence of its rows), checked once before anything is sampled.
    Validation runs once per epoch.  The learning rate halves after
    ``lr_halve_patience`` epochs without improvement (counter resets on
    each halving) and training stops early after
    ``early_stop_patience`` epochs without improvement.  Passing
    ``initial`` resumes training, continuing the epoch numbering.  A
    numeric blow-up raises NumericError naming the epoch and step.  Each
    epoch appends one history row: ``train_loss`` is the mean of the losses
    ``train_step`` returned in that epoch, and ``validation_loss`` is the
    held-out loss of the parameters at the epoch's end.
    """
    config.validate()
    if not len(train_events) or not len(valid_events):
        raise ValueError("need non-empty training and validation sets")
    train_probs = check_probabilities(train_events, config.n_qubits, "training")
    valid_probs = check_probabilities(valid_events, config.n_qubits, "validation")
    state = initial if initial is not None else init_train_state(config)
    history: list[dict] = list(initial_history) if initial_history else []

    valid_rows = _embed_events(valid_probs, config.n_embed_samples, config.seed, "valid")
    train_rows = _embed_events(train_probs, config.n_embed_samples, config.seed, "train")

    best = snapshot(state)
    since_improve = 0
    since_improve_lr = 0
    for epoch in range(state.epoch, config.max_epochs):
        order = substream(config.seed, "shuffle", epoch).permutation(len(train_rows))
        epoch_losses = []
        for step, start in enumerate(range(0, len(order), config.batch_size), 1):
            batch = train_rows[order[start : start + config.batch_size]]
            try:
                state, loss = train_step(state, batch, config)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch + 1} step {step}: {exc}") from exc
            epoch_losses.append(loss)
        valid_loss = _validation_loss(state, valid_rows, config, epoch)
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
    return best, history


def model_state(state: TrainState) -> tuple[np.ndarray, np.ndarray]:
    """Rotation W and thermal spectrum p of the model state W diag(p) W^T in data space.

    Training routes data through the circuit matrix U (``_loss``), so the
    state it fits is U^T diag(p) U and W = U^T: latent state x sits at
    column x of W.  This is the one place that says so; ``generate`` and
    every model-vs-data measure take W from here.
    """
    return qsim.ansatz_unitary(state.ansatz).T, ebm.thermal_state(state.hamiltonian)


# Cumulative entries compared at once by ``generate``: 8 MB of gathered rows.
_GENERATE_CHUNK = 2**20


def generate(
    w: np.ndarray, ham: ebm.ModularHamiltonian, n_events: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n_events`` basis indices (int64) from the model (W, ``ham``).

    Latent states are drawn from the Boltzmann distribution over the
    support of ``ham``, rotated into data space by the rotation W of
    ``model_state``, and the output basis state is sampled from the
    rotated amplitudes.
    """
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")
    latent_probs = np.exp(-ham.energies - ham.log_partition)
    latent_probs = latent_probs / latent_probs.sum()
    # Column x of W**2 is the output distribution for latent state x.
    out_cum = np.cumsum(w * w, axis=0).T[ham.support]
    latent_draws = rng.choice(ham.support.size, size=n_events, p=latent_probs)
    uniforms = rng.random(n_events)
    # The output state is the count of cumulative entries <= u in the drawn
    # row (searchsorted with side="right"), taken over chunks of rows.
    out = np.empty(n_events, dtype=np.int64)
    chunk = max(1, _GENERATE_CHUNK // len(w))
    for start in range(0, n_events, chunk):
        rows = slice(start, start + chunk)
        out[rows] = np.count_nonzero(out_cum[latent_draws[rows]] <= uniforms[rows, None], axis=1)
    return np.minimum(out, len(w) - 1)
