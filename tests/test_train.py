"""Tests for the training loop, objective, optimiser, and generator."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.stats import chisquare

from qhbm import ebm, qsim, train
from qhbm.anomaly import SCENARIOS, site_entropy_profile
from qhbm.embed import frequency_row
from qhbm.errors import ConfigError, NumericError
from qhbm.train import (
    AdamState,
    TrainConfig,
    TrainState,
    batch_objective,
    fit,
    generate,
    init_train_state,
    model_state,
    snapshot,
    train_step,
    _batch_distribution,
    _embed_events,
    _loss,
    _phi_gradient,
)
from qhbm.rng import substream

from oracles import (
    basis_counts,
    bernoulli_index_samples_reference,
    batch_distribution_reference,
    batch_parameter_shift_gradient,
    boltzmann_distribution,
    diagonal_hamiltonian_matrix,
    generate_reference,
    hamiltonian_from_energies,
    pair_reduced_matrix,
    scaled_model,
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
        adam=AdamState.zeros_like(train.parameters(model, ansatz)),
        lr_current=TrainConfig(n_qubits=ansatz.n_qubits).learning_rate,
    )


def identity_ansatz(n_qubits):
    return qsim.CircuitAnsatz(n_qubits, 0, np.zeros(0))


def row_batch(indices_per_event, n_qubits):
    """One ``frequency_row`` per event of basis indices: the batch ``fit`` hands a step."""
    return np.array([frequency_row(basis_counts(idx, n_qubits)) for idx in indices_per_event])


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
            {"lr_halve_patience": 0},
            {"early_stop_patience": 0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": -0.01},
            {"learning_rate": True},
            {"learning_rate": "0.01"},
            {"learning_rate": None},
            {"n_qubits": True},
            {"seed": -1},
            {"n_layers": "2"},
            {"n_hidden": -1},
            {"n_hidden": False},
            {"n_mc_samples": None},
            {"batch_size": -4},
            {"max_epochs": 1.0},
            {"mc_burn_in": 0.5},
            {"seed": "7"},
            {"n_qubits": 4.0},
            {"n_layers": 1.5},
            {"n_hidden": 2.0},
            {"n_mc_samples": 10.5},
            {"n_embed_samples": 7.5},
            {"batch_size": 2.5},
            {"lr_halve_patience": "3"},
            {"early_stop_patience": 0.5},
            {"max_epochs": True},
            {"mc_burn_in": False},
            {"seed": 1.0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        cfg = dataclasses.replace(TrainConfig(n_qubits=4), **overrides)
        (name,) = overrides
        with pytest.raises(ConfigError, match=name):
            cfg.validate()

    def test_scenarios_validate(self):
        for name, preset in SCENARIOS.items():
            assert TrainConfig(**preset).validate().n_qubits == preset["n_qubits"], name

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
        lr = 0.05
        out = adam.update({"p": p}, {"p": g}, lr)["p"]
        # After bias correction the first step moves by lr * g / (|g| + eps).
        expected = p - lr * g / (np.abs(g) + 1e-8)
        assert np.allclose(out, expected, atol=1e-12)
        assert adam.t == 1

    def test_two_steps_match_manual_recurrence(self, rng):
        p = rng.standard_normal(3)
        adam = AdamState.zeros_like({"p": p})
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        assert (train.ADAM_BETA1, train.ADAM_BETA2, train.ADAM_EPS) == (b1, b2, eps)
        m = np.zeros(3)
        v = np.zeros(3)
        q = p.copy()
        for t in (1, 2):
            g = rng.standard_normal(3)
            p = adam.update({"p": p}, {"p": g}, lr)["p"]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            q = q - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert np.allclose(p, q, atol=1e-12)

    def test_zero_gradient_leaves_params_fixed(self, rng):
        p = rng.standard_normal(4)
        adam = AdamState.zeros_like({"p": p})
        out = adam.update({"p": p}, {"p": np.zeros(4)}, 0.1)["p"]
        assert np.array_equal(out, p)
        assert adam.t == 1


class TestInitTrainState:
    def test_reproducible(self):
        cfg = small_config()
        a = init_train_state(cfg)
        b = init_train_state(cfg)
        assert np.array_equal(a.energy_model.weights, b.energy_model.weights)
        assert np.array_equal(a.ansatz.angles, b.ansatz.angles)
        assert np.array_equal(a.hamiltonian.support, b.hamiltonian.support)

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
        expected = ebm.free_energies(state.energy_model, state.hamiltonian.support)
        assert np.allclose(state.hamiltonian.energies, expected, rtol=0.0, atol=1e-12)

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            init_train_state(small_config(batch_size=0))


class TestBatchObjective:
    def test_single_support_identity_circuit_cancels(self, rng):
        model = scaled_model(2, rng, 0.3)
        z = 0b10
        ham = ebm.build_hamiltonian(model, [z])
        state = manual_state(model, identity_ansatz(2), ham)
        cfg = small_config(n_layers=0)
        batch = row_batch([[z] * 10], cfg.n_qubits)
        loss, mean_exp, weights = batch_objective(state, batch)
        # <K> = E(z) and log Z = -E(z), so the two terms cancel exactly.
        assert mean_exp == pytest.approx(ham.energies[0], abs=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert weights == pytest.approx([1.0], abs=1e-12)

    def test_orthogonal_data_leaves_partition_term(self, rng):
        model = scaled_model(2, rng, 0.3)
        z, x = 0b10, 0b01
        ham = ebm.build_hamiltonian(model, [z])
        state = manual_state(model, identity_ansatz(2), ham)
        loss, mean_exp, _ = batch_objective(state, row_batch([[x] * 5], 2))
        assert mean_exp == pytest.approx(0.0, abs=1e-12)
        assert loss == pytest.approx(ham.log_partition, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        n = 3
        model = scaled_model(n, rng, 0.4)
        support_idx = [0, 3, 5, 6]
        ham = ebm.build_hamiltonian(model, support_idx)
        angles = rng.uniform(-np.pi, np.pi, size=2 * (n - 1) * 2)
        ansatz = qsim.CircuitAnsatz(n, 2, angles)
        state = manual_state(model, ansatz, ham)
        groups = [
            rng.integers(0, 2**n, size=20),
            rng.integers(0, 2**n, size=12),
        ]
        loss, mean_exp, weights = batch_objective(state, row_batch(groups, n))

        u = staircase_unitary(n, 2, angles)
        k = diagonal_hamiltonian_matrix(n, support_idx, ham.energies)
        expected_exp = 0.0
        for group in groups:
            probs = np.bincount(group, minlength=2**n) / len(group)
            sigma = np.diag(probs.astype(complex))
            expected_exp += float(np.real(np.trace(u @ sigma @ u.conj().T @ k)))
        expected_exp /= len(groups)
        assert mean_exp == pytest.approx(expected_exp, abs=1e-10)
        assert loss == pytest.approx(expected_exp + ham.log_partition, abs=1e-10)
        assert weights.shape == ham.support.shape
        recomposed = sum(w * e for w, e in zip(weights, ham.energies))
        assert recomposed == pytest.approx(mean_exp, abs=1e-12)

    def test_empty_batch_raises(self, rng):
        model = ebm.EnergyModel.initialize(2, 4, rng)
        ham = ebm.build_hamiltonian(model, [0b01])
        state = manual_state(model, identity_ansatz(2), ham)
        with pytest.raises(ValueError):
            batch_objective(state, [])
        with pytest.raises(ValueError):
            batch_objective(state, row_batch([[]], 2))


class TestRowBatches:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_row_sum_matches_index_groups_bitwise(self, n):
        gen = np.random.default_rng(100 + n)
        for batch_size in range(1, 31):
            groups = [
                gen.integers(0, 2**n, size=int(gen.integers(1, 3 * 2**n)))
                for _ in range(batch_size)
            ]
            q = _batch_distribution(row_batch(groups, n))
            assert q.tobytes() == batch_distribution_reference(groups, 2**n).tobytes()

    def test_embedded_rows_are_the_draws_of_one_set_stream(self):
        events = TestFit.events(5, 3, 21)
        rows = _embed_events(events, 40, 9, "train")
        assert rows.shape == (5, 8)
        rng = substream(9, "embedding", "train")
        for row, event in zip(rows, events):
            counts = bernoulli_index_samples_reference(event, 40, rng)
            assert row.tobytes() == (counts / 40).tobytes()
        # An event's draws depend on the events before it in the set, and
        # on nothing after it; the tag names the set's stream.
        assert _embed_events(events[:3], 40, 9, "train").tobytes() == rows[:3].tobytes()
        assert not np.array_equal(_embed_events(events[1:], 40, 9, "train"), rows[1:])
        assert not np.array_equal(_embed_events(events, 40, 9, "valid"), rows)

    def test_fit_memory_does_not_grow_with_embedding_draws(self):
        """Each event is held as one row of 2**n shares, whatever the draw count."""
        events = TestFit.events(40, 6, 22)
        peaks = {}
        for n_draws in (200, 20000):
            cfg = TrainConfig(
                n_qubits=6, n_layers=1, n_mc_samples=50, n_embed_samples=n_draws,
                batch_size=10, max_epochs=1, seed=3,
            )
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                fit(cfg, events[:30], events[30:])
                peaks[n_draws] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        # Holding every draw would add 40 x 20000 int64 indices.
        assert peaks[20000] - peaks[200] < len(events) * 20000 * 8 / 4


class TestPhiGradient:
    def test_matches_finite_differences(self, rng):
        n = 3
        for _ in range(5):
            support_idx = sorted(rng.choice(2**n, size=4, replace=False))
            energies = rng.standard_normal(4)
            ham = hamiltonian_from_energies(n, support_idx, energies)
            angles = rng.uniform(-np.pi, np.pi, size=2 * (n - 1))
            ansatz = qsim.CircuitAnsatz(n, 1, angles)
            q = rng.dirichlet(np.ones(2**n))
            grad = _phi_gradient(ansatz, qsim.ansatz_unitary(ansatz), ham, q)

            def expectation(a):
                u = staircase_unitary(n, 1, a)
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

    @staticmethod
    def random_case(n, n_layers, support_mask, q_mask, rng):
        """Ansatz, Hamiltonian on the masked support, and q zero off ``q_mask``."""
        angles = rng.uniform(-np.pi, np.pi, size=2 * (n - 1) * n_layers)
        ansatz = qsim.CircuitAnsatz(n, n_layers, angles)
        support = np.flatnonzero(support_mask)
        ham = hamiltonian_from_energies(n, support, rng.standard_normal(support.size))
        q = np.where(q_mask, rng.uniform(0.1, 1.0, size=2**n), 0.0)
        if q.sum() > 0:
            q /= q.sum()
        return ansatz, ham, q

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # A Hamiltonian holds at least one state; q may be all zero.
                st.lists(st.booleans(), min_size=2**n, max_size=2**n).filter(any),
                st.lists(st.booleans(), min_size=2**n, max_size=2**n),
            )
        ),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(masks=(3, [True] * 8, [False] * 8), n_layers=2, seed=3)
    def test_matches_parameter_shift_oracle(self, masks, n_layers, seed):
        n, support_mask, q_mask = masks
        ansatz, ham, q = self.random_case(
            n, n_layers, support_mask, q_mask, np.random.default_rng(seed)
        )
        grad = _phi_gradient(ansatz, qsim.ansatz_unitary(ansatz), ham, q)
        oracle = batch_parameter_shift_gradient(ansatz, ham, q)
        assert grad.shape == (ansatz.n_parameters,)
        np.testing.assert_allclose(grad, oracle, rtol=0.0, atol=1e-12)

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=2, n_layers=0, seed=0)
    @example(n=2, n_layers=1, seed=1)
    @example(n=9, n_layers=2, seed=9)
    @example(n=10, n_layers=1, seed=10)
    def test_fused_sweep_relative_error(self, n, n_layers, seed):
        # Dense support and data, so every block's Gram matrix is full.
        rng = np.random.default_rng(seed)
        support_mask, q_mask = rng.random(2**n) < 0.7, rng.random(2**n) < 0.7
        assume(support_mask.any())
        ansatz, ham, q = self.random_case(n, n_layers, support_mask, q_mask, rng)
        grad = _phi_gradient(ansatz, qsim.ansatz_unitary(ansatz), ham, q)
        oracle = batch_parameter_shift_gradient(ansatz, ham, q)
        assert grad.shape == oracle.shape == (2 * (n - 1) * n_layers,)
        if oracle.size:
            scale = max(np.abs(oracle).max(), np.abs(ham.energies).max())
            assert np.abs(grad - oracle).max() <= 1e-12 * scale

    def test_eight_qubits_three_layers_match_parameter_shift_oracle(self):
        rng = np.random.default_rng(88)
        support_mask = np.zeros(256, dtype=bool)
        support_mask[rng.choice(256, size=60, replace=False)] = True
        q_mask = np.zeros(256, dtype=bool)
        q_mask[rng.choice(256, size=40, replace=False)] = True
        ansatz, ham, q = self.random_case(8, 3, support_mask, q_mask, rng)
        grad = _phi_gradient(ansatz, qsim.ansatz_unitary(ansatz), ham, q)
        oracle = batch_parameter_shift_gradient(ansatz, ham, q)
        np.testing.assert_allclose(grad, oracle, rtol=0.0, atol=1e-12)

    def test_alternating_inputs_with_a_shrinking_support_repeat_fresh_bits(self):
        # Two circuits and data sets of one shape, called in turn while the
        # support shrinks: a Lambda row left from an earlier, larger support
        # or a view that writes into the caller's U or q would show here.
        rng = np.random.default_rng(31)
        n = 5
        cases = []
        for _ in range(2):
            q_mask = np.zeros(2**n, dtype=bool)
            q_mask[rng.choice(2**n, size=12, replace=False)] = True
            ansatz, _, q = self.random_case(n, 2, np.ones(2**n, dtype=bool), q_mask, rng)
            cases.append((ansatz, qsim.ansatz_unitary(ansatz), q))
        support = rng.permutation(2**n)
        calls = [
            (*cases[k % 2], hamiltonian_from_energies(n, np.sort(support[:size]), rng.standard_normal(size)))
            for k, size in enumerate([32, 24, 17, 9, 4, 1])
        ]
        # Fresh bits: each call on copies, with the support growing, so no
        # earlier call's support reaches past a later one's.
        fresh = [
            _phi_gradient(ansatz, u.copy(), copy.deepcopy(ham), q.copy())
            for ansatz, u, q, ham in reversed(calls)
        ][::-1]
        for (ansatz, u, q, ham), expected in zip(calls, fresh):
            u_before, q_before = u.copy(), q.copy()
            grad = _phi_gradient(ansatz, u, ham, q)
            assert grad.tobytes() == expected.tobytes()
            assert u.tobytes() == u_before.tobytes() and q.tobytes() == q_before.tobytes()
            np.testing.assert_allclose(
                grad, batch_parameter_shift_gradient(ansatz, ham, q), rtol=0.0, atol=1e-12
            )


class TestTrainStep:
    def test_deterministic(self):
        cfg = small_config()
        batch = row_batch([[0, 1, 3, 3, 2], [1, 1, 0, 2, 3]], cfg.n_qubits)
        finals = []
        for _ in range(2):
            state = init_train_state(cfg)
            for _ in range(3):
                state, _ = train_step(state, batch, cfg)
            finals.append(state)
        assert np.array_equal(finals[0].energy_model.weights, finals[1].energy_model.weights)
        assert np.array_equal(finals[0].ansatz.angles, finals[1].ansatz.angles)

    def test_hamiltonian_reflects_pre_update_model(self):
        cfg = small_config()
        state = init_train_state(cfg)
        before = state.energy_model
        after, _ = train_step(state, row_batch([[0, 1, 2]], cfg.n_qubits), cfg)
        expected = ebm.free_energies(before, after.hamiltonian.support)
        assert np.allclose(after.hamiltonian.energies, expected, rtol=0.0, atol=1e-10)

    def test_state_holds_each_fact_once(self):
        # One optimiser over every parameter, and a chain without its energy.
        cfg = small_config()
        state = init_train_state(cfg)
        assert [f.name for f in dataclasses.fields(TrainState)] == [
            "energy_model", "ansatz", "hamiltonian", "chain", "adam", "epoch",
            "best_validation_loss", "lr_current",
        ]
        assert [f.name for f in dataclasses.fields(ebm.MarkovChainState)] == ["current", "rng"]
        params = train.parameters(state.energy_model, state.ansatz)
        assert list(params) == ["weights", "visible_bias", "hidden_bias", "angles"]
        assert list(state.adam.m) == list(state.adam.v) == list(params)

    def test_parameters_move_and_adam_ticks(self):
        cfg = small_config()
        state = init_train_state(cfg)
        after, _ = train_step(state, row_batch([[0, 0, 1, 2]], cfg.n_qubits), cfg)
        assert not np.array_equal(after.energy_model.weights, state.energy_model.weights)
        assert not np.array_equal(after.ansatz.angles, state.ansatz.angles)
        assert after.adam.t == 1

    def test_returns_loss_of_incoming_state_under_fresh_hamiltonian(self):
        cfg = small_config(n_qubits=3, n_layers=2)
        state = init_train_state(cfg)
        batch = row_batch([[0, 1, 5, 5, 7], [2, 3, 3, 6]], cfg.n_qubits)
        for _ in range(3):
            chain = copy.deepcopy(state.chain)
            after, loss = train_step(state, batch, cfg)
            samples, _ = ebm.metropolis_sample(
                state.energy_model, chain, cfg.mc_burn_in, cfg.n_mc_samples
            )
            ham = ebm.build_hamiltonian(state.energy_model, samples)
            assert np.array_equal(ham.support, after.hamiltonian.support)
            expected, _, _ = batch_objective(dataclasses.replace(state, hamiltonian=ham), batch)
            assert loss == expected
            state = after

    def test_builds_one_circuit_matrix(self, monkeypatch):
        cfg = small_config(n_qubits=3)
        state = init_train_state(cfg)
        calls = []
        unitary = qsim.ansatz_unitary

        def counted(ansatz):
            calls.append(ansatz)
            return unitary(ansatz)

        monkeypatch.setattr(qsim, "ansatz_unitary", counted)
        for expected in (1, 2):
            state, _ = train_step(state, row_batch([[0, 1, 2], [3, 3, 4]], cfg.n_qubits), cfg)
            assert len(calls) == expected


class TestFit:
    @staticmethod
    def events(n, n_qubits, seed):
        """An (n, n_qubits) probability stack, one row drawn per event."""
        rng = np.random.default_rng(seed)
        return np.array([rng.uniform(0.2, 0.8, size=n_qubits) for _ in range(n)])

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

    def test_train_loss_is_mean_of_step_losses(self, monkeypatch):
        cfg = small_config(max_epochs=2, batch_size=2)
        losses = []
        step = train.train_step

        def recorded(*args):
            state, loss = step(*args)
            losses.append(loss)
            return state, loss

        monkeypatch.setattr(train, "train_step", recorded)
        _, history = fit(cfg, self.events(5, 2, 14), self.events(2, 2, 15))
        # Five events in batches of two: three steps per epoch.
        assert len(losses) == 6
        for row, epoch_losses in zip(history, (losses[:3], losses[3:])):
            assert np.isfinite(row["train_loss"])
            assert row["train_loss"] == float(np.mean(epoch_losses))

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

    def test_rejects_empty_datasets(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            fit(cfg, [], self.events(2, 2, 0))
        with pytest.raises(ValueError):
            fit(cfg, self.events(2, 2, 0), [])
        with pytest.raises(ValueError, match="non-empty"):
            fit(cfg, np.empty((0, 2)), self.events(2, 2, 0))
        # Malformed sets are refused up front, naming the set, before any
        # sampling: a set wider than the model, one row, a probability of 1.
        bad = self.events(3, 2, 0)
        bad[1, 0] = 1.0
        cases = [
            (self.events(4, 3, 0), self.events(2, 2, 1), "training: has 3 probabilities per event"),
            (self.events(4, 2, 0), self.events(2, 4, 1), "validation: has 4 probabilities per"),
            (self.events(4, 2, 0), self.events(1, 2, 1)[0], r"validation: need an \(E, 2\)"),
            (bad, self.events(2, 2, 1), "training event 1: probabilities must lie strictly"),
        ]
        for train_events, valid_events, message in cases:
            with pytest.raises(ValueError, match=message):
                fit(cfg, train_events, valid_events)

    def test_substream_calls_do_not_grow_with_the_events(self, monkeypatch):
        """Each event set draws its embedding from one generator.

        A fit builds three generators to initialise, one per embedded set,
        and a shuffle and a validation chain per epoch, however many
        events it trains on.
        """
        calls = []

        def counted(*tags):
            calls.append(tags)
            return substream(*tags)

        monkeypatch.setattr(train, "substream", counted)
        cfg = small_config(max_epochs=2)
        per_size = {}
        for n_events in (3, 30):
            calls.clear()
            fit(cfg, self.events(n_events, 2, 14), self.events(n_events, 2, 15))
            per_size[n_events] = len(calls)
        assert per_size == dict.fromkeys((3, 30), 3 + 2 + 2 * cfg.max_epochs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_raises_numeric_error_with_context(self):
        cfg = small_config(max_epochs=1)
        train_events, valid_events = self.events(4, 2, 12), self.events(2, 2, 13)
        state, history = fit(cfg, train_events, valid_events)
        # One sound epoch, then a rate whose first update overflows the
        # free energies: the blow-up is the resumed run's first step.
        state.lr_current = 1e308
        longer = dataclasses.replace(cfg, max_epochs=2)
        with pytest.raises(NumericError, match=r"^epoch 2 step 1: .*non-finite"):
            fit(longer, train_events, valid_events, state, history)


class TestModelDensityMatrix:
    def test_thermal_mode_matches_dense_oracle(self, rng):
        n = 2
        model = scaled_model(n, rng, 0.4)
        ham = ebm.build_hamiltonian(model, [0, 2, 3])
        angles = rng.uniform(-np.pi, np.pi, size=2)
        state = manual_state(model, qsim.CircuitAnsatz(n, 1, angles), ham)
        w, p = model_state(state)
        # Training routes data through U, so the data-space rotation is U^dag.
        dense = staircase_unitary(n, 1, angles).conj().T
        assert np.allclose(w, dense, atol=1e-12)
        assert p[[0, 2, 3]] == pytest.approx(boltzmann_distribution(ham.energies), abs=1e-12)
        assert p[1] == 0.0
        latent = np.diag(ebm.thermal_state(ham)).astype(complex)
        assert np.allclose((w * p) @ w.T, dense @ latent @ dense.conj().T, atol=1e-10)


class TestModelOrientation:
    """``model_state``'s W is the rotation that training fits."""

    @staticmethod
    def random_state(n, rng, energies):
        model = scaled_model(n, rng, 0.4)
        support = rng.choice(2**n, size=len(energies), replace=False)
        ham = hamiltonian_from_energies(n, support, np.asarray(energies))
        ansatz = qsim.CircuitAnsatz(n, 2, rng.uniform(-np.pi, np.pi, size=4 * (n - 1)))
        return manual_state(model, ansatz, ham)

    def test_loss_scores_data_against_model_state(self, rng):
        # mean <K> = tr(diag(q) W K W^T): the loss and the model state
        # describe the same operator in data space.
        for n in (3, 4):
            for _ in range(5):
                state = self.random_state(n, rng, rng.standard_normal(5))
                ham = state.hamiltonian
                q = rng.dirichlet(np.ones(2**n))
                _, mean_exp, _ = _loss(qsim.ansatz_unitary(state.ansatz), ham, q)
                w, _ = model_state(state)
                k = diagonal_hamiltonian_matrix(n, ham.support, ham.energies)
                expected = np.real(np.trace(np.diag(q) @ w @ k @ w.T))
                assert mean_exp == pytest.approx(expected, abs=1e-12)

    def test_dressed_site_entropy_uses_model_rotation(self, rng):
        # With W from model_state, the dressed profile is that of the
        # ground projector of U^dag K U, the operator the loss scores data
        # against.  Support energies are negative, so the dense ground
        # space is the support's.
        for n in (3, 4):
            state = self.random_state(n, rng, [-2.0, -1.0, -2.0, -0.5, -2.0])
            ham = state.hamiltonian
            u = staircase_unitary(n, 2, state.ansatz.angles)
            k = diagonal_hamiltonian_matrix(n, ham.support, ham.energies)
            vals, vecs = np.linalg.eigh(u.conj().T @ k @ u)
            ground = vecs[:, vals < -2.0 + 1e-9]
            assert ground.shape[1] == 3
            rho = ground @ ground.conj().T / 3
            profile = site_entropy_profile(ham, model_state(state)[0])
            for pair in range(n - 1):
                reduced = np.clip(
                    np.linalg.eigvalsh(pair_reduced_matrix(rho, pair, pair + 1, n)), 0.0, None
                )
                reduced = reduced[reduced > 1e-12]
                assert profile[pair] == pytest.approx(-np.sum(reduced * np.log(reduced)), abs=1e-10)


class TestGenerate:
    def test_identity_circuit_single_support(self, rng):
        model = ebm.EnergyModel.initialize(2, 4, rng)
        z = 0b10
        ham = ebm.build_hamiltonian(model, [z])
        state = manual_state(model, identity_ansatz(2), ham)
        indices = generate(model_state(state)[0], ham, 50, np.random.default_rng(0))
        assert indices.shape == (50,) and indices.dtype == np.int64
        assert np.all(indices == z)

    def test_identity_circuit_degenerate_pair(self):
        ham = hamiltonian_from_energies(2, [0b00, 0b11], [2.0, 2.0])
        model = ebm.EnergyModel(np.zeros((2, 4)), np.zeros(2), np.zeros(4))
        state = manual_state(model, identity_ansatz(2), ham)
        indices = generate(model_state(state)[0], ham, 2000, np.random.default_rng(12))
        assert set(indices.tolist()) <= {0, 3}
        frac = (indices == 0).mean()
        assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 2000)

    def test_zero_events(self, rng):
        model = ebm.EnergyModel.initialize(2, 4, rng)
        ham = ebm.build_hamiltonian(model, [0b00])
        state = manual_state(model, identity_ansatz(2), ham)
        indices = generate(model_state(state)[0], ham, 0, np.random.default_rng(0))
        assert indices.shape == (0,) and indices.dtype == np.int64

    def test_density_matrix_matches_model(self):
        # Generated indices follow the diagonal of W diag(p) W^T.  Angles
        # spread over (-pi, pi) keep W far from symmetric, so W and W^T
        # predict clearly different distributions.
        rng = np.random.default_rng(31)
        n = 3
        model = scaled_model(n, rng, 0.5)
        ham = ebm.build_hamiltonian(model, [0, 2, 5, 7])
        ansatz = qsim.CircuitAnsatz(n, 2, rng.uniform(-np.pi, np.pi, size=2 * (n - 1) * 2))
        state = manual_state(model, ansatz, ham)
        n_draws = 20_000
        w, p = model_state(state)
        indices = generate(w, ham, n_draws, np.random.default_rng(3))
        counts = np.bincount(indices, minlength=2**n)
        assert np.abs((w * w) @ p - (w.T * w.T) @ p).max() > 0.1
        expected = ((w * w) @ p) * n_draws
        keep = expected > 5
        stat = chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
        assert stat.pvalue > 0.01
        assert counts[~keep].sum() <= 20

    @pytest.mark.parametrize("n,n_events", [(1, 50), (3, 0), (3, 1), (6, 2000)])
    def test_matches_per_event_search(self, n, n_events):
        rng = np.random.default_rng(40 + n)
        model = scaled_model(n, rng, 0.5)
        ham = ebm.build_hamiltonian(model, rng.integers(0, 2**n, size=3 * 2**n))
        ansatz = qsim.CircuitAnsatz(n, 2, rng.uniform(-np.pi, np.pi, size=2 * (n - 1) * 2))
        w, _ = model_state(manual_state(model, ansatz, ham))
        got = generate(w, ham, n_events, np.random.default_rng(9))
        expected = generate_reference(w, ham, n_events, np.random.default_rng(9))
        assert got.dtype == np.int64 and np.array_equal(got, expected)

    def test_chunks_match_one_pass(self, monkeypatch):
        rng = np.random.default_rng(12)
        model = scaled_model(3, rng, 0.5)
        ham = ebm.build_hamiltonian(model, np.arange(8))
        ansatz = qsim.CircuitAnsatz(3, 2, rng.uniform(-np.pi, np.pi, size=8))
        w, _ = model_state(manual_state(model, ansatz, ham))
        whole = generate(w, ham, 100, np.random.default_rng(4))
        monkeypatch.setattr(train, "_GENERATE_CHUNK", 24)
        assert np.array_equal(generate(w, ham, 100, np.random.default_rng(4)), whole)

    def test_error_paths(self, rng):
        model = ebm.EnergyModel.initialize(2, 4, rng)
        ham = ebm.build_hamiltonian(model, [0b00])
        state = manual_state(model, identity_ansatz(2), ham)
        with pytest.raises(ValueError):
            generate(model_state(state)[0], ham, -1, np.random.default_rng(0))


class TestSnapshot:
    def test_deep_copy_isolates_chain_rng(self):
        cfg = small_config()
        state = init_train_state(cfg)
        frozen = snapshot(state)
        replay = snapshot(frozen)
        # Advancing the original consumes its chain RNG; the snapshots
        # must still replay the exact same future sample sequence.
        train_step(state, row_batch([[0, 1, 2]], cfg.n_qubits), cfg)
        a, _ = ebm.metropolis_sample(frozen.energy_model, frozen.chain, 0, 20)
        b, _ = ebm.metropolis_sample(replay.energy_model, replay.chain, 0, 20)
        assert np.array_equal(a, b)
