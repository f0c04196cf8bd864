"""Tests for state distances, divergences, spectra, and ROC curves."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhbm.errors import NumericError
from qhbm.metrics import (
    _sweep,
    bernoulli_marginal_kl,
    fidelity,
    kl_divergence,
    power_spectrum,
    quantum_relative_entropy,
    roc_from_scores,
    trace_distance,
    von_neumann_entropy,
)

from oracles import (
    dense_entropy,
    dense_fidelity,
    dense_relative_entropy,
    dense_trace_distance,
    dft_power,
    fidelity_highprec,
    mann_whitney_auc,
    random_structured_state,
    random_unitary,
    roc_rates_reference,
)


def one_hot(index, dim):
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def random_orthogonal(dim, rng):
    return np.linalg.qr(rng.standard_normal((dim, dim)))[0]


def diagonal_model(s, rng):
    """(U, p) of a model state equal to diag(s): a signed permutation and the permuted s."""
    perm = rng.permutation(s.size)
    u = np.zeros((s.size, s.size))
    u[perm, np.arange(s.size)] = rng.choice([-1.0, 1.0], size=s.size)
    return u, s[perm]


def dense_model(u, p):
    return (u * p) @ u.T


class TestFidelity:
    def test_identical_states(self, rng):
        for _ in range(5):
            s = rng.dirichlet(np.ones(8))
            assert fidelity(s, *diagonal_model(s, rng)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(one_hot(0, 4), np.eye(4), one_hot(2, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_pure_states_overlap_squared(self, rng):
        # Pure diag(e_x) against the pure model state U e_z: F = U[x, z]**2.
        for _ in range(10):
            u = random_orthogonal(4, rng)
            x, z = rng.integers(4, size=2)
            got = fidelity(one_hot(x, 4), u, one_hot(z, 4))
            assert got == pytest.approx(u[x, z] ** 2, abs=1e-12)

    def test_diagonal_states_bhattacharyya(self, rng):
        for _ in range(10):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            got = fidelity(p, np.eye(8), q)
            assert got == pytest.approx(np.sum(np.sqrt(p * q)) ** 2, abs=1e-12)

    def test_matches_high_precision_oracle(self, rng):
        # The dense square-root path is off by up to ~1e-8 here; the
        # structured one agrees with 40-digit arithmetic on the same inputs.
        for n in (2, 3, 4, 5):
            for _ in range(2):
                s, u, p = random_structured_state(2**n, rng)
                assert fidelity(s, u, p) == pytest.approx(fidelity_highprec(s, u, p), abs=1e-12)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(10):
            s, u, p = random_structured_state(4, rng)
            f = fidelity(s, u, p)
            assert f == pytest.approx(dense_fidelity(dense_model(u, p), np.diag(s)), abs=1e-7)
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_rejects_invalid_inputs(self, rng):
        s, u, p = random_structured_state(4, rng)
        with pytest.raises(ValueError):
            fidelity(s, u, np.ones(8) / 8.0)
        with pytest.raises(ValueError):
            fidelity(s, np.eye(8), p)
        with pytest.raises(NumericError):
            fidelity(np.array([1.5, -0.5, 0.0, 0.0]), u, p)
        with pytest.raises(NumericError):
            fidelity(s, u, 2.0 * p)


class TestTraceDistance:
    def test_identical_states(self, rng):
        s = rng.dirichlet(np.ones(8))
        assert trace_distance(s, *diagonal_model(s, rng)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert trace_distance(one_hot(0, 2), np.eye(2), one_hot(1, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_states_half_l1(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        got = trace_distance(p, np.eye(4), q)
        assert got == pytest.approx(0.5 * np.abs(p - q).sum(), abs=1e-12)

    def test_fuchs_van_de_graaf_bounds(self, rng):
        for _ in range(20):
            s, u, p = random_structured_state(4, rng)
            f = fidelity(s, u, p)
            t = trace_distance(s, u, p)
            assert 1.0 - np.sqrt(f) <= t + 1e-12
            assert t <= np.sqrt(max(1.0 - f, 0.0)) + 1e-12


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(one_hot(3, 8)) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.ones(4) / 4.0) == pytest.approx(np.log(4), abs=1e-12)

    def test_binary_entropy_value(self):
        assert von_neumann_entropy([0.7, 0.3]) == pytest.approx(0.6108643020548935, abs=1e-12)

    def test_unitary_invariance(self, rng):
        # The spectrum p gives the entropy of U diag(p) U^T for any unitary.
        p = rng.dirichlet(np.ones(4))
        w = random_unitary(4, rng)
        rotated = (w * p) @ w.conj().T
        assert von_neumann_entropy(p) == pytest.approx(dense_entropy(rotated), abs=1e-12)

    def test_concavity(self, rng):
        for _ in range(10):
            a = rng.dirichlet(np.ones(4))
            b = rng.dirichlet(np.ones(4))
            lam = float(rng.uniform(0.1, 0.9))
            lhs = von_neumann_entropy(lam * a + (1 - lam) * b)
            rhs = lam * von_neumann_entropy(a) + (1 - lam) * von_neumann_entropy(b)
            assert lhs >= rhs - 1e-12

    def test_rejects_invalid_spectra(self):
        with pytest.raises(NumericError):
            von_neumann_entropy([1.2, -0.2])
        with pytest.raises(NumericError):
            von_neumann_entropy([0.5, 0.6])


class TestStructuredMatchesDense:
    """Each measure of (s, U, p) equals the dense-matrix reference on diag(s) and U diag(p) U^T."""

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
    def test_random_states(self, n_qubits, rng):
        for _ in range(10):
            s, u, p = random_structured_state(2**n_qubits, rng)
            sigma, rho = np.diag(s), dense_model(u, p)
            assert fidelity(s, u, p) == pytest.approx(dense_fidelity(sigma, rho), abs=1e-7)
            assert trace_distance(s, u, p) == pytest.approx(
                dense_trace_distance(sigma, rho), abs=1e-12
            )
            assert quantum_relative_entropy(s, u, p) == pytest.approx(
                dense_relative_entropy(sigma, rho), rel=1e-12, abs=1e-12
            )
            assert von_neumann_entropy(p) == pytest.approx(dense_entropy(rho), abs=1e-12)
            assert von_neumann_entropy(s) == pytest.approx(dense_entropy(sigma), abs=1e-12)


class TestKlDivergence:
    def test_identical_distributions(self, rng):
        p = rng.dirichlet(np.ones(6))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_vs_uniform(self):
        got = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert got == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_direct_sum(self, rng):
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        expected = sum(pi * np.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-10)

    @given(st.integers(0, 2**31 - 1))
    def test_non_negative(self, seed):
        r = np.random.default_rng(seed)
        p = r.dirichlet(np.ones(5))
        q = r.dirichlet(np.ones(5))
        assert kl_divergence(p, q) >= -1e-12

    def test_zero_target_bins_stay_finite(self):
        got = kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert np.isfinite(got)
        assert got > 10.0

    def test_error_paths(self):
        with pytest.raises(ValueError):
            kl_divergence(np.ones(2) / 2, np.ones(3) / 3)
        with pytest.raises(NumericError):
            kl_divergence(np.array([1.5, -0.5]), np.array([0.5, 0.5]))
        with pytest.raises(NumericError):
            kl_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))


class TestBernoulliMarginalKl:
    def test_zero_for_equal_marginals(self):
        p = np.array([0.2, 0.7, 0.5])
        assert bernoulli_marginal_kl(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_manual_sum(self):
        p = np.array([0.3, 0.8])
        q = np.array([0.5, 0.6])
        expected = sum(
            a * np.log(a / b) + (1 - a) * np.log((1 - a) / (1 - b))
            for a, b in zip(p, q)
        )
        assert bernoulli_marginal_kl(p, q) == pytest.approx(expected, abs=1e-12)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            bernoulli_marginal_kl(np.array([0.5]), np.array([0.5, 0.5]))


class TestQuantumRelativeEntropy:
    def test_zero_for_identical(self, rng):
        s = rng.dirichlet(np.ones(4))
        assert quantum_relative_entropy(s, *diagonal_model(s, rng)) == pytest.approx(0.0, abs=1e-12)

    def test_non_negative(self, rng):
        for _ in range(20):
            assert quantum_relative_entropy(*random_structured_state(4, rng)) >= -1e-12

    def test_diagonal_case_reduces_to_classical_kl(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        got = quantum_relative_entropy(p, np.eye(4), q)
        assert got == pytest.approx(kl_divergence(p, q), abs=1e-12)

    def test_unitary_conjugation_invariance(self, rng):
        s, u, p = random_structured_state(4, rng)
        w = random_unitary(4, rng)
        sigma = (w * s) @ w.conj().T
        rho = w @ dense_model(u, p) @ w.conj().T
        got = quantum_relative_entropy(s, u, p)
        assert got == pytest.approx(dense_relative_entropy(sigma, rho), abs=1e-8)


class TestPowerSpectrum:
    def test_constant_signal_has_no_power(self):
        spec = power_spectrum(np.full(64, 3.7), dt=0.1)
        assert np.all(spec.power <= 1e-20)

    def test_frequency_grid(self):
        spec = power_spectrum(np.zeros(100), dt=0.5)
        assert spec.frequencies.size == 51
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[-1] == pytest.approx(1.0 / (2 * 0.5), abs=1e-12)
        assert spec.resolution == pytest.approx(1.0 / (100 * 0.5), abs=1e-12)

    def test_sine_localises_to_one_bin(self):
        n, dt, amp = 125, 0.2, 1.7
        t = np.arange(n) * dt
        k = 10
        freq = k / (n * dt)
        spec = power_spectrum(amp * np.sin(2 * np.pi * freq * t), dt)
        peak = int(np.argmax(spec.power))
        assert peak == k
        others = np.delete(spec.power, k)
        assert np.all(others < 1e-15 * spec.power[k])
        # All the variance amp**2 / 2 sits in that single bin.
        assert spec.power[k] * spec.resolution == pytest.approx(
            amp**2 / 2.0, rel=1e-10
        )

    def test_parseval_for_odd_length(self, rng):
        values = rng.standard_normal(251)
        spec = power_spectrum(values, dt=0.3)
        total = np.sum(spec.power) * spec.resolution
        assert total == pytest.approx(np.var(values), rel=1e-10)

    def test_matches_direct_dft_oracle(self, rng):
        values = rng.standard_normal(64)
        spec = power_spectrum(values, dt=0.25)
        freqs, power = dft_power(values, 0.25)
        assert np.allclose(spec.frequencies, freqs, atol=1e-12)
        assert np.allclose(spec.power, power, atol=1e-10)

    def test_quadratic_amplitude_scaling(self, rng):
        values = rng.standard_normal(80)
        base = power_spectrum(values, dt=0.1)
        scaled = power_spectrum(3.0 * values, dt=0.1)
        assert np.allclose(scaled.power, 9.0 * base.power, atol=1e-10)

    def test_error_paths(self):
        with pytest.raises(ValueError):
            power_spectrum(np.array([1.0]), dt=0.1)
        with pytest.raises(ValueError):
            power_spectrum(np.zeros(10), dt=0.0)
        with pytest.raises(ValueError):
            power_spectrum(np.zeros((4, 1)), dt=0.1)
        with pytest.raises(ValueError):
            power_spectrum(np.float64(1.0), dt=0.1)

    @pytest.mark.parametrize("n", [2, 3, 64, 201, 2001])
    def test_stacked_rows_match_single_calls_bitwise(self, rng, n):
        values = rng.uniform(0.0, 1.0, size=(2, 3, n))
        stacked = power_spectrum(values, dt=0.1)
        assert stacked.power.shape == (2, 3, n // 2 + 1)
        for index in np.ndindex(values.shape[:-1]):
            single = power_spectrum(values[index], dt=0.1)
            assert stacked.power[index].tobytes() == single.power.tobytes()
            assert stacked.frequencies.tobytes() == single.frequencies.tobytes()


class TestRocFromScores:
    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(314)
        curve = roc_from_scores(rng.standard_normal(2000), rng.standard_normal(2000))
        assert abs(curve.auc - 0.5) < 0.02

    def test_perfect_separation(self):
        curve = roc_from_scores(np.array([5.0, 6.0, 7.0]), np.array([0.0, 1.0, 2.0]))
        assert curve.auc == pytest.approx(1.0, abs=1e-12)
        assert curve.direction == "high"

    def test_matches_mann_whitney_oracle(self):
        rng = np.random.default_rng(2718)
        signal = rng.standard_normal(800) + 0.8
        background = rng.standard_normal(800)
        curve = roc_from_scores(signal, background, n_thresholds=2001)
        expected = mann_whitney_auc(signal, background)
        assert curve.auc == pytest.approx(expected, abs=5e-3)

    def test_direction_flips_for_low_scores(self):
        rng = np.random.default_rng(55)
        signal = rng.standard_normal(500) - 1.5
        background = rng.standard_normal(500)
        curve = roc_from_scores(signal, background)
        assert curve.direction == "low"
        assert curve.auc > 0.8

    def test_degenerate_constant_scores(self):
        curve = roc_from_scores(np.full(10, 2.0), np.full(10, 2.0))
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_affine_transform_invariance(self):
        rng = np.random.default_rng(77)
        signal = rng.standard_normal(300) + 1.0
        background = rng.standard_normal(300)
        a = roc_from_scores(signal, background)
        b = roc_from_scores(4.0 * signal - 2.0, 4.0 * background - 2.0)
        assert b.auc == pytest.approx(a.auc, abs=1e-12)

    def test_monotone_transform_on_coarse_scores(self):
        rng = np.random.default_rng(123)
        signal = rng.integers(4, 10, size=400) / 10.0
        background = rng.integers(0, 6, size=400) / 10.0
        a = roc_from_scores(signal, background, n_thresholds=4001)
        b = roc_from_scores(np.exp(signal), np.exp(background), n_thresholds=4001)
        assert b.auc == pytest.approx(a.auc, abs=5e-3)

    def test_rates_are_monotone_along_sweep(self):
        rng = np.random.default_rng(9)
        curve = roc_from_scores(
            rng.standard_normal(200) + 0.5, rng.standard_normal(200)
        )
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all(np.diff(curve.fpr) >= 0)

    def test_auc_is_anchored_trapezoid(self):
        rng = np.random.default_rng(31)
        curve = roc_from_scores(
            rng.standard_normal(150) + 1.0, rng.standard_normal(150)
        )
        xs = np.concatenate([[0.0], curve.fpr])
        ys = np.concatenate([[0.0], curve.tpr])
        assert curve.auc == pytest.approx(np.trapezoid(ys, xs), abs=1e-12)

    @given(st.data())
    def test_sweep_matches_per_threshold_means(self, data):
        # Coarse integer scores force ties at the thresholds.
        scores = st.lists(st.integers(-5, 5), min_size=1, max_size=40)
        signal = np.array(data.draw(scores), dtype=np.float64) / 2.0
        background = np.array(data.draw(scores), dtype=np.float64) / 2.0
        n = data.draw(st.integers(2, 30))
        lo, hi = min(signal.min(), background.min()), max(signal.max(), background.max())
        thresholds = np.linspace(hi, lo if lo < hi else hi - 1.0, n)
        for sign in (1.0, -1.0):
            t = thresholds if sign > 0 else -thresholds[::-1]
            got = _sweep(sign * signal, sign * background, t)
            expected = roc_rates_reference(sign * signal, sign * background, t)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)

    def test_error_paths(self):
        with pytest.raises(ValueError):
            roc_from_scores(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError):
            roc_from_scores(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(ValueError):
            roc_from_scores(np.array([1.0]), np.array([0.0]), n_thresholds=1)
