"""Tests for the classical energy model, sampler, and modular Hamiltonian."""

import copy

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import logsumexp, softmax
from scipy.stats import chisquare

from qhbm import ebm
from qhbm.ebm import (
    EnergyModel,
    ModularHamiltonian,
    build_hamiltonian,
    free_energies,
    initial_chain,
    metropolis_sample,
    theta_gradient,
    thermal_state,
)
from qhbm.qsim import _check_n_qubits, index_bits
from qhbm.rng import substream
from qhbm.train import TrainConfig

from oracles import (
    boltzmann_distribution,
    build_hamiltonian_reference,
    conditional_hidden_prob,
    conditional_visible_prob,
    free_energy_enumerated,
    hamiltonian_from_energies,
    metropolis_sample_reference,
    scaled_model,
)
from script_runner import load_bench_module, run_script


def zero_model(n_visible, n_hidden):
    return EnergyModel(
        np.zeros((n_visible, n_hidden)), np.zeros(n_visible), np.zeros(n_hidden)
    )


def random_model(n_visible, n_hidden, rng, scale=0.5):
    return EnergyModel(
        scale * rng.standard_normal((n_visible, n_hidden)),
        scale * rng.standard_normal(n_visible),
        scale * rng.standard_normal(n_hidden),
    )


def assert_chain_matches_reference(model, chain, burn_in, n_collect):
    """Run the sampler and its reference loop from copies of ``chain``; demand equal bits."""
    ref_chain = copy.deepcopy(chain)
    samples, after = metropolis_sample(model, chain, burn_in, n_collect)
    ref_samples, ref_after = metropolis_sample_reference(model, ref_chain, burn_in, n_collect)
    assert samples.dtype == np.int64 and np.array_equal(samples, ref_samples)
    assert after.current == ref_after.current
    assert after.rng.bit_generator.state == ref_after.rng.bit_generator.state
    return samples, after


def free_energy(model, index):
    return float(free_energies(model, [index])[0])


class TestEnergyModel:
    def test_initialize_defaults(self):
        # The hidden width's default, 2 * n_visible, lives in TrainConfig.
        hidden = TrainConfig(n_qubits=3).hidden_units
        model = EnergyModel.initialize(3, hidden, np.random.default_rng(0))
        assert model.n_visible == 3
        assert model.n_hidden == 6
        assert np.all(model.visible_bias == 0.0)
        assert np.all(model.hidden_bias == 0.0)

    def test_initialize_zero_scale(self, monkeypatch):
        monkeypatch.setattr(ebm, "WEIGHT_SCALE", 0.0)
        model = EnergyModel.initialize(2, 3, np.random.default_rng(0))
        assert np.all(model.weights == 0.0)

    def test_initialize_reproducible(self):
        a = EnergyModel.initialize(4, 8, np.random.default_rng(7))
        b = EnergyModel.initialize(4, 8, np.random.default_rng(7))
        assert np.array_equal(a.weights, b.weights)

    def test_rejects_bad_weight_rank(self):
        with pytest.raises(ValueError):
            EnergyModel(np.zeros(4), np.zeros(2), np.zeros(2))

    def test_rejects_bias_shape_mismatch(self):
        with pytest.raises(ValueError):
            EnergyModel(np.zeros((2, 3)), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            EnergyModel(np.zeros((2, 3)), np.zeros(2), np.zeros(2))

    def test_rejects_nonfinite(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(ValueError):
            EnergyModel(w, np.zeros(2), np.zeros(2))

    def test_rejects_too_many_visible_units(self):
        with pytest.raises(ValueError):
            EnergyModel(np.zeros((11, 2)), np.zeros(11), np.zeros(2))


class TestFreeEnergy:
    def test_zero_model_value(self):
        # With all parameters zero every hidden unit contributes log 2.
        model = zero_model(3, 5)
        for idx in range(8):
            assert free_energy(model, idx) == pytest.approx(-5 * np.log(2), abs=1e-12)

    def test_visible_bias_only(self):
        model = EnergyModel(np.zeros((2, 4)), np.array([1.0, 0.0]), np.zeros(4))
        got = free_energy(model, 0b10)
        assert got == pytest.approx(-1.0 - 4 * np.log(2), abs=1e-12)

    def test_matches_hidden_enumeration(self, rng):
        for _ in range(20):
            nv = int(rng.integers(1, 7))
            nh = int(rng.integers(1, 7))
            model = random_model(nv, nh, rng)
            indices = rng.integers(0, 2**nv, size=int(rng.integers(1, 6)))
            got = free_energies(model, indices)
            assert got.shape == indices.shape
            for idx, value in zip(indices, got):
                expected = free_energy_enumerated(
                    model.weights, model.visible_bias, model.hidden_bias, index_bits(idx, nv)
                )
                assert value == pytest.approx(expected, abs=1e-10)

    def test_table_matches_pointwise(self, rng):
        model = random_model(3, 4, rng)
        table = free_energies(model, np.arange(8))
        assert table.shape == (8,)
        for idx in range(8):
            assert table[idx] == pytest.approx(free_energy(model, idx), abs=1e-12)

    def test_accepts_raw_arrays(self, rng):
        model = random_model(2, 3, rng)
        from_list = free_energies(model, [2, 1])
        assert np.array_equal(from_list, free_energies(model, np.array([2, 1])))
        assert free_energies(model, 2) == from_list[0]


class TestConditionals:
    def test_zero_model_is_uniform(self):
        model = zero_model(2, 3)
        assert np.allclose(conditional_hidden_prob(model, [0, 1]), 0.5)
        assert np.allclose(conditional_visible_prob(model, np.zeros(3)), 0.5)

    def test_strong_bias_saturates(self):
        model = EnergyModel(np.zeros((2, 2)), np.zeros(2), np.array([20.0, -20.0]))
        p = conditional_hidden_prob(model, [0, 0])
        assert p[0] > 1 - 1e-8
        assert p[1] < 1e-8

    def test_matches_sigmoid_formula(self, rng):
        model = random_model(3, 4, rng)
        v = np.array([1.0, 0.0, 1.0])
        h = np.array([0.0, 1.0, 1.0, 0.0])
        act_h = v @ model.weights + model.hidden_bias
        act_v = h @ model.weights.T + model.visible_bias
        assert np.allclose(
            conditional_hidden_prob(model, v), 1.0 / (1.0 + np.exp(-act_h)), atol=1e-12
        )
        assert np.allclose(
            conditional_visible_prob(model, h), 1.0 / (1.0 + np.exp(-act_v)), atol=1e-12
        )

    def test_shapes(self, rng):
        model = random_model(2, 5, rng)
        assert conditional_hidden_prob(model, [1, 1]).shape == (5,)
        assert conditional_visible_prob(model, np.zeros(5)).shape == (2,)


class TestInitialChain:
    def test_default_start_all_ones(self):
        model = zero_model(3, 2)
        chain = initial_chain(model, np.random.default_rng(0))
        assert chain.current == 0b111

    def test_custom_start(self, rng):
        model = random_model(2, 2, rng)
        start = 0b01
        chain = initial_chain(model, np.random.default_rng(0), start=start)
        assert chain.current == start

    def test_start_width_mismatch(self, rng):
        model = random_model(2, 2, rng)
        with pytest.raises(ValueError):
            initial_chain(model, np.random.default_rng(0), start=0b111)
        with pytest.raises(ValueError):
            initial_chain(model, np.random.default_rng(0), start=-1)


class TestMetropolis:
    def test_sample_count_and_continuation(self, rng):
        model = random_model(3, 4, rng)
        chain = initial_chain(model, np.random.default_rng(3))
        samples, new_chain = metropolis_sample(model, chain, burn_in=10, n_collect=57)
        assert samples.shape == (57,) and samples.dtype == np.int64
        assert new_chain.current == samples[-1]

    def test_zero_collect_returns_empty(self, rng):
        model = random_model(2, 2, rng)
        chain = initial_chain(model, np.random.default_rng(1))
        samples, _ = metropolis_sample(model, chain, burn_in=5, n_collect=0)
        assert samples.shape == (0,)

    def test_seeded_runs_identical(self, rng):
        model = random_model(3, 4, rng)
        runs = []
        for _ in range(2):
            chain = initial_chain(model, np.random.default_rng(42))
            samples, _ = metropolis_sample(model, chain, burn_in=50, n_collect=500)
            runs.append(samples)
        assert np.array_equal(runs[0], runs[1])

    def test_flat_model_is_uniform(self):
        # Every move has delta = 0, so self-proposals and all others must
        # be accepted; the empirical law is then uniform over 2**n states.
        model = zero_model(4, 3)
        chain = initial_chain(model, np.random.default_rng(8))
        samples, _ = metropolis_sample(model, chain, burn_in=100, n_collect=50_000)
        counts = np.bincount(samples, minlength=16)
        stat = chisquare(counts, np.full(16, 50_000 / 16))
        assert stat.pvalue > 0.01

    def test_engineered_mode_frequency(self):
        # Couplings push the all-ones state to probability e^10/(e^10 + 3).
        model = EnergyModel(
            np.array([[45.0], [45.0]]), np.zeros(2), np.array([-80.0])
        )
        chain = initial_chain(model, np.random.default_rng(6))
        samples, _ = metropolis_sample(model, chain, burn_in=100, n_collect=100_000)
        freq = np.mean(samples == 3)
        expected = np.exp(10.0) / (np.exp(10.0) + 3.0)
        assert expected == pytest.approx(0.9998638187585689, abs=1e-15)
        assert abs(freq - expected) < 0.01

    def test_chi_square_against_exact_boltzmann(self):
        model = scaled_model(3, substream(5, "init"), 0.05)
        chain = initial_chain(model, substream(5, "chain"))
        samples, _ = metropolis_sample(model, chain, burn_in=100, n_collect=100_000)
        counts = np.bincount(samples, minlength=8)
        probs = boltzmann_distribution(free_energies(model, np.arange(2**model.n_visible)))
        stat = chisquare(counts, probs * 100_000)
        assert stat.pvalue > 0.01

    @pytest.mark.parametrize("n_visible,burn_in,n_collect", [(1, 0, 30), (4, 0, 0), (8, 100, 1000)])
    def test_matches_reference_loop_bitwise(self, n_visible, burn_in, n_collect):
        model = scaled_model(n_visible, np.random.default_rng(n_visible), 0.8)
        assert_chain_matches_reference(model, initial_chain(model, np.random.default_rng(5)), burn_in, n_collect)

    @pytest.mark.parametrize("n_visible", range(2, 9))
    @pytest.mark.parametrize("weight_scale", [0.3, 2.0])
    def test_long_chains_match_reference_loop_bitwise(self, n_visible, weight_scale):
        """math.exp decides every uphill proposal as NumPy's exp did."""
        init_rng = substream(n_visible, "init", str(weight_scale))
        model = scaled_model(n_visible, init_rng, weight_scale)
        model.visible_bias[:] = substream(n_visible, "bias", str(weight_scale)).normal(0.0, weight_scale, n_visible)
        chain = initial_chain(model, substream(n_visible, "chain", str(weight_scale)))
        assert_chain_matches_reference(model, chain, 100, 20_000)

    def test_acceptance_sampler_chains_match_reference_loop_bitwise(self):
        """The chains of acceptance check A3, including its peaked control."""
        for n_visible, seed in ((3, 5), (4, 5)):
            model = scaled_model(n_visible, substream(seed, "init"), 0.05)
            assert_chain_matches_reference(model, initial_chain(model, substream(seed, "chain")), 100, 100_000)
        peaked = EnergyModel(np.array([[45.0], [45.0]]), np.zeros(2), np.array([-80.0]))
        assert_chain_matches_reference(peaked, initial_chain(peaked, substream(6, "chain")), 100, 100_000)

    @pytest.mark.parametrize("pipeline", ["a10-sweep", "bench-train-8q"])
    def test_pipeline_chains_match_reference_loop_bitwise(self, pipeline, monkeypatch, tmp_path):
        """Every chain of one A10 run and of the train-8q benchmark fit, step for step."""
        calls = []

        def checked(model, chain, burn_in, n_collect):
            calls.append(burn_in + n_collect)
            return assert_chain_matches_reference(model, chain, burn_in, n_collect)

        monkeypatch.setattr(ebm, "metropolis_sample", checked)
        if pipeline == "a10-sweep":
            assert run_script("run_embedding_sweep", [
                "--samples", "500", "--n-seeds", "1", "--first-seed", "101",
                "--steps", "300", "--n-mc-samples", "500",
                "--grid", "16", "--crop", "2", "--pool", "2", "--synth-seed", "21",
            ]) == 0
            assert len(calls) == 1 + 300  # the initial chain, then one call per step
        else:
            workloads = load_bench_module("workloads")
            outcome = workloads.run_train_8q(workloads.setup_train_8q(11, tmp_path))
            assert outcome.failed_ops == 0 and len(calls) > outcome.ops

    def test_rejects_bad_arguments(self, rng):
        model = random_model(2, 2, rng)
        chain = initial_chain(model, np.random.default_rng(0))
        with pytest.raises(ValueError):
            metropolis_sample(model, chain, burn_in=-1, n_collect=10)
        with pytest.raises(ValueError):
            metropolis_sample(model, chain, burn_in=0, n_collect=-5)


class TestModularHamiltonian:
    def test_from_energies_fields(self):
        ham = hamiltonian_from_energies(2, [0, 3], [0.5, 1.5])
        assert ham.n_qubits == 2
        assert ham.support.dtype == np.int64
        assert np.array_equal(ham.support, [0, 3])
        assert ham.log_partition == pytest.approx(
            logsumexp([-0.5, -1.5]), abs=1e-12
        )

    def test_two_states_at_zero_energy(self):
        ham = hamiltonian_from_energies(1, [0, 1], [0.0, 0.0])
        assert ham.log_partition == pytest.approx(np.log(2), abs=1e-12)

    def test_empty_constructor(self):
        # Every K holds at least one sampled state, so log Z is finite.
        with pytest.raises(ValueError, match="^support must hold at least one state$"):
            ModularHamiltonian(3, np.zeros(0, dtype=np.int64), np.zeros(0))

    @pytest.mark.parametrize("n_qubits", [-1, 0, 11])
    def test_rejects_qubit_count_with_qsims_message(self, n_qubits):
        with pytest.raises(ValueError) as expected:
            _check_n_qubits(n_qubits)
        with pytest.raises(ValueError) as got:
            ModularHamiltonian(n_qubits, [0], [0.0])
        assert str(got.value) == str(expected.value)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            hamiltonian_from_energies(2, [0b10, 0b10], [0.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamiltonian_from_energies(2, [0], [0.0, 1.0])

    def test_rejects_nonfinite_energy(self):
        with pytest.raises(ValueError):
            hamiltonian_from_energies(2, [0], [np.inf])

    def test_rejects_mixed_widths(self):
        # Index 4 addresses a 3-qubit state, outside a 2-qubit register.
        with pytest.raises(ValueError):
            hamiltonian_from_energies(2, [0, 4], [0.0, 1.0])
        with pytest.raises(ValueError):
            hamiltonian_from_energies(2, [-1], [0.0])
        with pytest.raises(ValueError):
            ModularHamiltonian(11, [0], [0.0])

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            hamiltonian_from_energies(2, [], [])

    @given(st.integers(0, 10_000))
    def test_log_partition_shift_covariance(self, shift_milli):
        # Adding a constant to every energy shifts log Z by exactly -c and
        # leaves the thermal state untouched.
        c = shift_milli / 1000.0
        support = [0b00, 0b10, 0b11]
        base = np.array([0.3, -0.7, 1.1])
        ham = hamiltonian_from_energies(2, support, base)
        shifted = hamiltonian_from_energies(2, support, base + c)
        assert shifted.log_partition == pytest.approx(ham.log_partition - c, abs=1e-10)
        assert np.allclose(thermal_state(ham), thermal_state(shifted), atol=1e-10)

    def test_log_partition_permutation_invariance(self, rng):
        energies = rng.standard_normal(8)
        perm = rng.permutation(8)
        a = hamiltonian_from_energies(3, np.arange(8), energies)
        b = hamiltonian_from_energies(3, perm, energies[perm])
        assert a.log_partition == pytest.approx(b.log_partition, abs=1e-12)


class TestBuildHamiltonian:
    def test_repeated_single_sample(self, rng):
        model = random_model(2, 3, rng)
        v = 0b10
        ham = build_hamiltonian(model, [v, v, v])
        assert np.array_equal(ham.support, [v])
        f = free_energy(model, v)
        assert ham.energies[0] == pytest.approx(f, abs=1e-12)
        assert ham.log_partition == pytest.approx(-f, abs=1e-12)

    def test_dedupe_keeps_first_appearance_order(self, rng):
        model = random_model(2, 2, rng)
        a, b, c = 0b11, 0b00, 0b01
        ham = build_hamiltonian(model, [a, b, a, c, b])
        assert np.array_equal(ham.support, [a, b, c])

    def test_energies_are_free_energies(self, rng):
        model = random_model(3, 4, rng)
        ham = build_hamiltonian(model, [5, 2, 7])
        for cfg, e in zip(ham.support, ham.energies):
            assert e == pytest.approx(free_energy(model, cfg), abs=1e-12)

    def test_full_enumeration_matches_brute_force(self, rng):
        model = random_model(3, 5, rng)
        ham = build_hamiltonian(model, np.arange(8))
        brute = logsumexp(-free_energies(model, np.arange(8)))
        assert ham.log_partition == pytest.approx(brute, abs=1e-10)

    def test_zero_model_two_states(self):
        model = zero_model(2, 3)
        ham = build_hamiltonian(model, [0b00, 0b11])
        assert ham.log_partition == pytest.approx(np.log(2) + 3 * np.log(2), abs=1e-12)

    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_sample_reference(self, nv, nh, seed):
        rng = np.random.default_rng(seed)
        model = random_model(nv, nh, rng)
        samples = rng.integers(0, 2**nv, size=int(rng.integers(1, 40)), dtype=np.int64)
        ham = build_hamiltonian(model, samples)
        support, energies, log_z = build_hamiltonian_reference(model, samples)
        assert ham.support.dtype == np.int64
        assert ham.support.tolist() == support
        assert np.allclose(ham.energies, energies, rtol=0.0, atol=1e-12)
        assert ham.log_partition == pytest.approx(log_z, abs=1e-12)

    def test_rejects_bad_inputs(self, rng):
        model = random_model(2, 2, rng)
        with pytest.raises(ValueError):
            build_hamiltonian(model, [])
        with pytest.raises(ValueError):
            build_hamiltonian(model, [0b101])
        with pytest.raises(ValueError):
            build_hamiltonian(model, [-1])


class TestThetaGradient:
    @staticmethod
    def _objective(model, support, weights):
        f = np.array([free_energy(model, c) for c in support])
        return float(weights @ f) + float(logsumexp(-f))

    def test_vanishes_at_boltzmann_weights(self, rng):
        model = random_model(3, 4, rng)
        ham = build_hamiltonian(model, [0, 3, 5, 6])
        grad = theta_gradient(model, ham, softmax(-ham.energies))
        assert np.max(np.abs(grad["weights"])) < 1e-12
        assert np.max(np.abs(grad["visible_bias"])) < 1e-12
        assert np.max(np.abs(grad["hidden_bias"])) < 1e-12

    def test_single_state_analytic(self, rng):
        model = random_model(2, 3, rng)
        v = 0b10
        ham = build_hamiltonian(model, [v])
        w = 0.8
        grad = theta_gradient(model, ham, [w])
        coef = w - 1.0
        bits = np.array([1.0, 0.0])
        sig = conditional_hidden_prob(model, bits)
        assert np.allclose(grad["visible_bias"], coef * (-bits), atol=1e-12)
        assert np.allclose(grad["hidden_bias"], coef * (-sig), atol=1e-12)
        assert np.allclose(grad["weights"], coef * (-np.outer(bits, sig)), atol=1e-12)

    def test_matches_finite_differences(self, rng):
        eps = 1e-6
        for _ in range(10):
            nv = int(rng.integers(2, 4))
            nh = int(rng.integers(1, 4))
            model = random_model(nv, nh, rng)
            idx = rng.choice(2**nv, size=min(3, 2**nv), replace=False)
            support = [int(i) for i in idx]
            weights = np.array([float(rng.random()) for _ in support])
            ham = build_hamiltonian(model, support)
            grad = theta_gradient(model, ham, weights)

            def perturbed(field, i, j, delta):
                w = model.weights.copy()
                bv = model.visible_bias.copy()
                bh = model.hidden_bias.copy()
                if field == "w":
                    w[i, j] += delta
                elif field == "bv":
                    bv[i] += delta
                else:
                    bh[j] += delta
                pert = EnergyModel(w, bv, bh)
                return self._objective(pert, support, weights)

            for i in range(nv):
                for j in range(nh):
                    fd = (perturbed("w", i, j, eps) - perturbed("w", i, j, -eps)) / (
                        2 * eps
                    )
                    assert grad["weights"][i, j] == pytest.approx(fd, abs=1e-5)
            for i in range(nv):
                fd = (perturbed("bv", i, 0, eps) - perturbed("bv", i, 0, -eps)) / (
                    2 * eps
                )
                assert grad["visible_bias"][i] == pytest.approx(fd, abs=1e-5)
            for j in range(nh):
                fd = (perturbed("bh", 0, j, eps) - perturbed("bh", 0, j, -eps)) / (
                    2 * eps
                )
                assert grad["hidden_bias"][j] == pytest.approx(fd, abs=1e-5)

    def test_missing_weights_count_as_zero(self, rng):
        model = random_model(2, 2, rng)
        # A support state without data weight carries an explicit zero in
        # the aligned weight array, wherever it sits in the support.
        first = theta_gradient(model, build_hamiltonian(model, [0b00, 0b11]), [0.4, 0.0])
        last = theta_gradient(model, build_hamiltonian(model, [0b11, 0b00]), [0.0, 0.4])
        assert np.allclose(first["weights"], last["weights"], rtol=0.0, atol=1e-15)
        assert np.allclose(first["visible_bias"], last["visible_bias"], rtol=0.0, atol=1e-15)
        assert np.allclose(first["hidden_bias"], last["hidden_bias"], rtol=0.0, atol=1e-15)

    def test_rejects_misaligned_weights(self, rng):
        model = random_model(2, 2, rng)
        with pytest.raises(ValueError):
            theta_gradient(model, build_hamiltonian(model, [0, 1]), [0.5])


class TestThermalState:
    def test_single_state_is_pure_projector(self):
        ham = hamiltonian_from_energies(2, [0b10], [3.2])
        assert np.allclose(thermal_state(ham), [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_two_degenerate_states(self):
        ham = hamiltonian_from_energies(2, [0b00, 0b11], [1.0, 1.0])
        assert np.allclose(thermal_state(ham), [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_matches_boltzmann_distribution(self, rng):
        energies = rng.standard_normal(3)
        ham = hamiltonian_from_energies(3, [1, 4, 6], energies)
        p = thermal_state(ham)
        assert p.shape == (8,) and p.dtype == np.float64
        assert p[[1, 4, 6]] == pytest.approx(boltzmann_distribution(energies), abs=1e-12)
        off = np.setdiff1d(np.arange(8), [1, 4, 6])
        assert np.all(p[off] == 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
