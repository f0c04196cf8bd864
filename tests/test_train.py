"""Tests for the training loop, objective, optimiser, and generator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhbm import ebm, qsim
from qhbm.embed import PixelProbabilities
from qhbm.errors import ConfigError, NumericError
from qhbm.train import (
    AdamState,
    TrainConfig,
    TrainState,
    batch_objective,
    fit,
    generate,
    init_train_state,
    model_density_matrix,
    snapshot,
    train_step,
    _phi_gradient,
)
from qhbm.rng import substream

from oracles import (
    batch_parameter_shift_gradient,
    diagonal_hamiltonian_matrix,
    staircase_unitary,
)


def small_config(**overrides):
    base = dict(
        n_qubits=2,
        n_layers=1,
        n_mc_samples=40,
        n_embed_samples=30,
        batch_size=4,
        max_epochs=2,
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


def manual_state(model, ansatz, ham, seed=0):
    chain = ebm.initial_chain(model, substream(seed, "chain"))
    return TrainState(
        energy_model=model,
        ansatz=ansatz,
        hamiltonian=ham,
        chain=chain,
        adam_theta=AdamState.zeros_like(
            {
                "weights": model.weights,
                "visible_bias": model.visible_bias,
                "hidden_bias": model.hidden_bias,
            }
        ),
        adam_phi=AdamState.zeros_like({"angles": ansatz.angles}),
    )


def identity_ansatz(n_qubits):
    return qsim.CircuitAnsatz(n_qubits, 0, np.zeros(0))


def index_batch(indices_per_event):
    return [np.asarray(idx, dtype=np.int64) for idx in indices_per_event]


class TestTrainConfig:
    def test_defaults_validate(self):
        cfg = TrainConfig(n_qubits=4)
        assert cfg.validate() is cfg
        assert cfg.hidden_units == 8

    def test_explicit_hidden_units(self):
        assert TrainConfig(n_qubits=4, n_hidden=3).hidden_units == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_qubits": 0},
            {"n_qubits": 11},
            {"n_mc_samples": 0},
            {"n_embed_samples": -1},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"max_epochs": 0},
            {"n_layers": -1},
            {"mc_burn_in": -1},
            {"n_hidden": 0},
            {"embed_mode": "lazy"},
            {"proposal": "gibbs"},
            {"duplicate_mode": "sum"},
            {"partition_mode": "half"},
            {"latent_mode": "pure"},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        cfg = dataclasses.replace(TrainConfig(n_qubits=4), **overrides)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_as_dict_round_trip(self):
        cfg = TrainConfig(n_qubits=3, seed=9)
        d = cfg.as_dict()
        assert d["n_qubits"] == 3
        assert TrainConfig(**d) == cfg


class TestAdamState:
    def test_single_step_formula(self, rng):
        p = rng.standard_normal(5)
        g = rng.standard_normal(5)
        adam = AdamState.zeros_like({"p": p})
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        out = adam.update({"p": p}, {"p": g}, lr, b1, b2, eps)["p"]
        # After bias correction the first step moves by lr * g / (|g| + eps).
        expected = p - lr * g / (np.abs(g) + eps)
        assert np.allclose(out, expected, atol=1e-12)
        assert adam.t == 1

    def test_two_steps_match_manual_recurrence(self, rng):
        p = rng.standard_normal(3)
        adam = AdamState.zeros_like({"p": p})
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        m = np.zeros(3)
        v = np.zeros(3)
        q = p.copy()
        for t in (1, 2):
            g = rng.standard_normal(3)
            p = adam.update({"p": p}, {"p": g}, lr, b1, b2, eps)["p"]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            q = q - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert np.allclose(p, q, atol=1e-12)

    def test_zero_gradient_leaves_params_fixed(self, rng):
        p = rng.standard_normal(4)
        adam = AdamState.zeros_like({"p": p})
        out = adam.update({"p": p}, {"p": np.zeros(4)}, 0.1, 0.9, 0.999, 1e-8)["p"]
        assert np.array_equal(out, p)
        assert adam.t == 1


class TestInitTrainState:
    def test_reproducible(self):
        cfg = small_config()
        a = init_train_state(cfg)
        b = init_train_state(cfg)
        assert np.array_equal(a.energy_model.weights, b.energy_model.weights)
        assert np.array_equal(a.ansatz.angles, b.ansatz.angles)
        assert [c.index for c in a.hamiltonian.support] == [
            c.index for c in b.hamiltonian.support
        ]

    def test_shapes_and_learning_rate(self):
        cfg = small_config(n_qubits=3, n_layers=2, learning_rate=0.02)
        state = init_train_state(cfg)
        assert state.energy_model.n_visible == 3
        assert state.energy_model.n_hidden == 6
        assert state.ansatz.angles.size == 2 * (3 - 1) * 2
        assert state.lr_current == 0.02
        assert state.epoch == 0

    def test_hamiltonian_energies_match_model(self):
        state = init_train_state(small_config())
        for cfg_state, e in zip(state.hamiltonian.support, state.hamiltonian.energies):
            assert e == pytest.approx(
                ebm.free_energy(state.energy_model, cfg_state), abs=1e-12
            )

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            init_train_state(small_config(batch_size=0))


class TestBatchObjective:
    def test_single_support_identity_circuit_cancels(self, rng):
        model = ebm.EnergyModel.initialize(2, rng=rng, weight_scale=0.3)
        z = qsim.SpinConfig((1, 0))
        ham = ebm.build_hamiltonian(model, [z])
        state = manual_state(model, identity_ansatz(2), ham)
        cfg = small_config(n_layers=0)
        batch = index_batch([[z.index] * 10])
        loss, mean_exp, weights = batch_objective(state, batch, cfg)
        # <K> = E(z) and log Z = -E(z), so the two terms cancel exactly.
        assert mean_exp == pytest.approx(ham.energies[0], abs=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert weights[z] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_data_leaves_partition_term(self, rng):
        model = ebm.EnergyModel.initialize(2, rng=rng, weight_scale=0.3)
        z, x = qsim.SpinConfig((1, 0)), qsim.SpinConfig((0, 1))
        ham = ebm.build_hamiltonian(model, [z])
        state = manual_state(model, identity_ansatz(2), ham)
        cfg = small_config(n_layers=0, k_beta=1.3)
        loss, mean_exp, _ = batch_objective(state, index_batch([[x.index] * 5]), cfg)
        assert mean_exp == pytest.approx(0.0, abs=1e-12)
        assert loss == pytest.approx(1.3 * ham.log_partition, abs=1e-12)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_matches_dense_oracle(self, rng, adjoint):
        n = 3
        model = ebm.EnergyModel.initialize(n, rng=rng, weight_scale=0.4)
        support_idx = [0, 3, 5, 6]
        support = [qsim.SpinConfig.from_index(i, n) for i in support_idx]
        ham = ebm.build_hamiltonian(model, support)
        angles = rng.uniform(-np.pi, np.pi, size=2 * (n - 1) * 2)
        ansatz = qsim.CircuitAnsatz(n, 2, angles)
        state = manual_state(model, ansatz, ham)
        cfg = small_config(
            n_qubits=n, n_layers=2, beta=1.1, k_beta=0.7, adjoint_convention=adjoint
        )
        groups = [
            rng.integers(0, 2**n, size=20),
            rng.integers(0, 2**n, size=12),
        ]
        loss, mean_exp, weights = batch_objective(state, index_batch(groups), cfg)

        u = staircase_unitary(n, 2, angles)
        if adjoint:
            u = u.conj().T
        k = diagonal_hamiltonian_matrix(n, support_idx, ham.energies)
        expected_exp = 0.0
        for group in groups:
            probs = np.bincount(group, minlength=2**n) / len(group)
            sigma = np.diag(probs.astype(complex))
            expected_exp += float(np.real(np.trace(u @ sigma @ u.conj().T @ k)))
        expected_exp /= len(groups)
        assert mean_exp == pytest.approx(expected_exp, abs=1e-10)
        assert loss == pytest.approx(
            1.1 * expected_exp + 0.7 * ham.log_partition, abs=1e-10
        )
        recomposed = sum(weights[c] * e for c, e in zip(ham.support, ham.energies))
        assert recomposed == pytest.approx(mean_exp, abs=1e-12)

    def test_config_groups_equal_index_groups(self, rng):
        model = ebm.EnergyModel.initialize(2, rng=rng)
        ham = ebm.build_hamiltonian(model, [qsim.SpinConfig((0, 1))])
        state = manual_state(model, identity_ansatz(2), ham)
        cfg = small_config(n_layers=0)
        idx = [2, 1, 1, 3]
        as_configs = [[qsim.SpinConfig.from_index(i, 2) for i in idx]]
        as_indices = index_batch([idx])
        assert batch_objective(state, as_configs, cfg)[0] == pytest.approx(
            batch_objective(state, as_indices, cfg)[0], abs=1e-15
        )

    def test_empty_batch_raises(self, rng):
        model = ebm.EnergyModel.initialize(2, rng=rng)
        ham = ebm.build_hamiltonian(model, [qsim.SpinConfig((0, 1))])
        state = manual_state(model, identity_ansatz(2), ham)
        with pytest.raises(ValueError):
            batch_objective(state, [], small_config(n_layers=0))
        with pytest.raises(ValueError):
            batch_objective(state, index_batch([[]]), small_config(n_layers=0))


class TestPhiGradient:
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_matches_finite_differences(self, rng, adjoint):
        n = 3
        for _ in range(5):
            support_idx = sorted(rng.choice(2**n, size=4, replace=False))
            energies = rng.standard_normal(4)
            ham = ebm.ModularHamiltonian.from_energies(
                [qsim.SpinConfig.from_index(int(i), n) for i in support_idx], energies
            )
            angles = rng.uniform(-np.pi, np.pi, size=2 * (n - 1))
            ansatz = qsim.CircuitAnsatz(n, 1, angles)
            q = rng.dirichlet(np.ones(2**n))
            grad = _phi_gradient(ansatz, ham, q, adjoint)

            def expectation(a):
                u = staircase_unitary(n, 1, a)
                if adjoint:
                    u = u.conj().T
                k = diagonal_hamiltonian_matrix(n, support_idx, energies)
                sigma = np.diag(q.astype(complex))
                return float(np.real(np.trace(u @ sigma @ u.conj().T @ k)))

            eps = 1e-6
            for j in range(angles.size):
                up = angles.copy()
                up[j] += eps
                down = angles.copy()
                down[j] -= eps
                fd = (expectation(up) - expectation(down)) / (2 * eps)
                assert grad[j] == pytest.approx(fd, abs=1e-5)

    def test_empty_support_gives_zeros(self):
        ansatz = qsim.CircuitAnsatz(2, 1, np.array([0.3, -0.2]))
        grad = _phi_gradient(ansatz, ebm.ModularHamiltonian.empty(2), np.ones(4) / 4, False)
        assert np.array_equal(grad, np.zeros(2))

    @staticmethod
    def random_case(n, n_layers, support_mask, q_mask, rng):
        """Ansatz, Hamiltonian on the masked support, and q zero off ``q_mask``."""
        angles = rng.uniform(-np.pi, np.pi, size=2 * (n - 1) * n_layers)
        ansatz = qsim.CircuitAnsatz(n, n_layers, angles)
        support = np.flatnonzero(support_mask)
        if support.size:
            ham = ebm.ModularHamiltonian.from_energies(
                [qsim.SpinConfig.from_index(int(i), n) for i in support],
                rng.standard_normal(support.size),
            )
        else:
            ham = ebm.ModularHamiltonian.empty(n)
        q = np.where(q_mask, rng.uniform(0.1, 1.0, size=2**n), 0.0)
        if q.sum() > 0:
            q /= q.sum()
        return ansatz, ham, q

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.booleans(), min_size=2**n, max_size=2**n),
                st.lists(st.booleans(), min_size=2**n, max_size=2**n),
            )
        ),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_parameter_shift_oracle(self, masks, n_layers, adjoint, seed):
        n, support_mask, q_mask = masks
        ansatz, ham, q = self.random_case(
            n, n_layers, support_mask, q_mask, np.random.default_rng(seed)
        )
        grad = _phi_gradient(ansatz, ham, q, adjoint)
        oracle = batch_parameter_shift_gradient(ansatz, ham, q, adjoint)
        assert grad.shape == (ansatz.n_parameters,)
        np.testing.assert_allclose(grad, oracle, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_eight_qubits_three_layers_match_parameter_shift_oracle(self, adjoint):
        rng = np.random.default_rng(88)
        support_mask = np.zeros(256, dtype=bool)
        support_mask[rng.choice(256, size=60, replace=False)] = True
        q_mask = np.zeros(256, dtype=bool)
        q_mask[rng.choice(256, size=40, replace=False)] = True
        ansatz, ham, q = self.random_case(8, 3, support_mask, q_mask, rng)
        grad = _phi_gradient(ansatz, ham, q, adjoint)
        oracle = batch_parameter_shift_gradient(ansatz, ham, q, adjoint)
        np.testing.assert_allclose(grad, oracle, rtol=0.0, atol=1e-12)


class TestTrainStep:
    def test_deterministic(self):
        cfg = small_config()
        batch = index_batch([[0, 1, 3, 3, 2], [1, 1, 0, 2, 3]])
        finals = []
        for _ in range(2):
            state = init_train_state(cfg)
            for _ in range(3):
                state = train_step(state, batch, cfg)
            finals.append(state)
        assert np.array_equal(finals[0].energy_model.weights, finals[1].energy_model.weights)
        assert np.array_equal(finals[0].ansatz.angles, finals[1].ansatz.angles)

    def test_hamiltonian_reflects_pre_update_model(self):
        cfg = small_config()
        state = init_train_state(cfg)
        before = state.energy_model
        after = train_step(state, index_batch([[0, 1, 2]]), cfg)
        for cfg_state, e in zip(after.hamiltonian.support, after.hamiltonian.energies):
            assert e == pytest.approx(ebm.free_energy(before, cfg_state), abs=1e-10)

    def test_parameters_move_and_adam_ticks(self):
        cfg = small_config()
        state = init_train_state(cfg)
        after = train_step(state, index_batch([[0, 0, 1, 2]]), cfg)
        assert not np.array_equal(after.energy_model.weights, state.energy_model.weights)
        assert after.adam_theta.t == 1
        assert after.adam_phi.t == 1

    def test_chain_energy_invariant(self):
        cfg = small_config()
        state = init_train_state(cfg)
        after = train_step(state, index_batch([[0, 1]]), cfg)
        # The chain tracks the pre-update model it was sampled from.
        assert after.chain.current_energy == pytest.approx(
            ebm.free_energy(state.energy_model, after.chain.current), abs=1e-10
        )


class TestFit:
    @staticmethod
    def events(n, n_qubits, seed):
        rng = np.random.default_rng(seed)
        return [
            PixelProbabilities(rng.uniform(0.2, 0.8, size=n_qubits))
            for _ in range(n)
        ]

    def test_single_epoch_history(self):
        cfg = small_config(max_epochs=1)
        best, history = fit(cfg, self.events(4, 2, 0), self.events(2, 2, 1))
        assert len(history) == 1
        assert set(history[0]) == {
            "epoch",
            "train_loss",
            "validation_loss",
            "learning_rate",
        }
        assert history[0]["epoch"] == 1
        assert best.epoch == 1

    def test_deterministic_across_runs(self):
        cfg = small_config(max_epochs=3)
        train, valid = self.events(5, 2, 2), self.events(2, 2, 3)
        best_a, hist_a = fit(cfg, train, valid)
        best_b, hist_b = fit(cfg, train, valid)
        assert hist_a == hist_b
        assert np.array_equal(best_a.energy_model.weights, best_b.energy_model.weights)
        assert np.array_equal(best_a.ansatz.angles, best_b.ansatz.angles)

    def test_resume_continues_epoch_numbering(self):
        train, valid = self.events(4, 2, 4), self.events(2, 2, 5)
        cfg2 = small_config(max_epochs=2)
        best, history = fit(cfg2, train, valid)
        cfg4 = small_config(max_epochs=4)
        _, resumed = fit(cfg4, train, valid, initial=best, initial_history=history)
        assert [h["epoch"] for h in resumed] == [1, 2, 3, 4]

    def test_learning_rate_column_follows_schedule(self):
        cfg = small_config(max_epochs=12, lr_halve_patience=2, early_stop_patience=50)
        _, history = fit(cfg, self.events(4, 2, 6), self.events(2, 2, 7))
        lr = cfg.learning_rate
        best = np.inf
        since = 0
        for row in history:
            assert row["learning_rate"] == pytest.approx(lr, abs=0.0)
            if row["validation_loss"] < best:
                best = row["validation_loss"]
                since = 0
            else:
                since += 1
            if since >= cfg.lr_halve_patience:
                lr /= 2.0
                since = 0

    def test_early_stopping_cuts_run_short(self):
        cfg = small_config(max_epochs=50, early_stop_patience=2)
        _, history = fit(cfg, self.events(4, 2, 8), self.events(2, 2, 9))
        assert len(history) < 50

    def test_per_epoch_embedding_runs(self):
        cfg = small_config(max_epochs=2, embed_mode="per_epoch")
        _, history = fit(cfg, self.events(3, 2, 10), self.events(2, 2, 11))
        assert len(history) == 2

    def test_rejects_empty_datasets(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            fit(cfg, [], self.events(2, 2, 0))
        with pytest.raises(ValueError):
            fit(cfg, self.events(2, 2, 0), [])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_raises_numeric_error_with_context(self):
        cfg = small_config(learning_rate=1e308)
        with pytest.raises(NumericError, match=r"^epoch 1 step 1: .*non-finite"):
            fit(cfg, self.events(4, 2, 12), self.events(2, 2, 13))


class TestModelDensityMatrix:
    def test_thermal_mode_matches_dense_oracle(self, rng):
        n = 2
        model = ebm.EnergyModel.initialize(n, rng=rng, weight_scale=0.4)
        support = [qsim.SpinConfig.from_index(i, n) for i in (0, 2, 3)]
        ham = ebm.build_hamiltonian(model, support)
        angles = rng.uniform(-np.pi, np.pi, size=2)
        state = manual_state(model, qsim.CircuitAnsatz(n, 1, angles), ham)
        rho = model_density_matrix(state).entries
        u = staircase_unitary(n, 1, angles)
        latent = ebm.thermal_state(ham, n).entries
        assert np.allclose(rho, u @ latent @ u.conj().T, atol=1e-10)

    def test_maximally_mixed_mode(self, rng):
        n = 2
        model = ebm.EnergyModel.initialize(n, rng=rng)
        support = [qsim.SpinConfig((0, 0)), qsim.SpinConfig((1, 1))]
        ham = ebm.build_hamiltonian(model, support)
        state = manual_state(model, identity_ansatz(n), ham)
        rho = model_density_matrix(state, latent_mode="maximally_mixed")
        assert np.allclose(rho.diagonal(), [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_unknown_mode_raises(self, rng):
        model = ebm.EnergyModel.initialize(2, rng=rng)
        ham = ebm.build_hamiltonian(model, [qsim.SpinConfig((0, 0))])
        state = manual_state(model, identity_ansatz(2), ham)
        with pytest.raises(ValueError):
            model_density_matrix(state, latent_mode="pure")


class TestGenerate:
    def test_identity_circuit_single_support(self, rng):
        model = ebm.EnergyModel.initialize(2, rng=rng)
        z = qsim.SpinConfig((1, 0))
        ham = ebm.build_hamiltonian(model, [z])
        state = manual_state(model, identity_ansatz(2), ham)
        configs, rho = generate(state, 50, np.random.default_rng(0))
        assert all(c == z for c in configs)
        assert rho.diagonal()[z.index] == pytest.approx(1.0, abs=1e-12)

    def test_identity_circuit_degenerate_pair(self):
        a, b = qsim.SpinConfig((0, 0)), qsim.SpinConfig((1, 1))
        ham = ebm.ModularHamiltonian.from_energies([a, b], [2.0, 2.0])
        model = ebm.EnergyModel(np.zeros((2, 4)), np.zeros(2), np.zeros(4))
        state = manual_state(model, identity_ansatz(2), ham)
        configs, _ = generate(state, 2000, np.random.default_rng(12))
        indices = np.array([c.index for c in configs])
        assert set(indices.tolist()) <= {0, 3}
        frac = (indices == 0).mean()
        assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 2000)

    def test_maximally_mixed_ignores_energies(self):
        a, b = qsim.SpinConfig((0, 0)), qsim.SpinConfig((1, 1))
        ham = ebm.ModularHamiltonian.from_energies([a, b], [0.0, 10.0])
        model = ebm.EnergyModel(np.zeros((2, 4)), np.zeros(2), np.zeros(4))
        state = manual_state(model, identity_ansatz(2), ham)
        thermal, _ = generate(state, 500, np.random.default_rng(1))
        uniform, _ = generate(
            state, 500, np.random.default_rng(1), latent_mode="maximally_mixed"
        )
        thermal_frac = np.mean([c == b for c in thermal])
        uniform_frac = np.mean([c == b for c in uniform])
        assert thermal_frac < 0.01
        assert abs(uniform_frac - 0.5) < 0.1

    def test_zero_events(self, rng):
        model = ebm.EnergyModel.initialize(2, rng=rng)
        ham = ebm.build_hamiltonian(model, [qsim.SpinConfig((0, 0))])
        state = manual_state(model, identity_ansatz(2), ham)
        configs, rho = generate(state, 0, np.random.default_rng(0))
        assert configs == []
        rho.validate()

    def test_density_matrix_matches_model(self, rng):
        cfg = small_config()
        state = init_train_state(cfg)
        _, rho = generate(state, 5, np.random.default_rng(3))
        expected = model_density_matrix(state)
        assert np.allclose(rho.entries, expected.entries, atol=1e-12)
        rho.validate()

    def test_error_paths(self, rng):
        model = ebm.EnergyModel.initialize(2, rng=rng)
        ham = ebm.build_hamiltonian(model, [qsim.SpinConfig((0, 0))])
        state = manual_state(model, identity_ansatz(2), ham)
        with pytest.raises(ValueError):
            generate(state, -1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate(state, 5, np.random.default_rng(0), latent_mode="pure")
        empty_state = manual_state(model, identity_ansatz(2), ebm.ModularHamiltonian.empty(2))
        with pytest.raises(ValueError):
            generate(empty_state, 5, np.random.default_rng(0))


class TestSnapshot:
    def test_deep_copy_isolates_chain_rng(self):
        cfg = small_config()
        state = init_train_state(cfg)
        frozen = snapshot(state)
        replay = snapshot(frozen)
        # Advancing the original consumes its chain RNG; the snapshots
        # must still replay the exact same future sample sequence.
        train_step(state, index_batch([[0, 1, 2]]), cfg)
        a, _ = ebm.metropolis_sample(frozen.energy_model, frozen.chain, 0, 20)
        b, _ = ebm.metropolis_sample(replay.energy_model, replay.chain, 0, 20)
        assert [c.index for c in a] == [c.index for c in b]
