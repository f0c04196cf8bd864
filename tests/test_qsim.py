import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhbm import qsim
from qhbm.ebm import ModularHamiltonian

import oracles


def make_ham(n_qubits, indices, energies):
    return ModularHamiltonian.from_energies(
        n_qubits, indices, np.asarray(energies, dtype=np.float64)
    )


def random_ansatz(n_qubits, n_layers, rng, scale=1.0):
    n_params = 2 * (n_qubits - 1) * n_layers
    return qsim.CircuitAnsatz(n_qubits, n_layers, scale * rng.normal(size=n_params))


def random_state(n_qubits, rng):
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    amps /= np.linalg.norm(amps)
    return qsim.StateVector(n_qubits, amps)


class TestSpinConfig:
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_index_round_trip(self, n_qubits, data):
        index = data.draw(st.integers(min_value=0, max_value=2**n_qubits - 1))
        config = qsim.SpinConfig.from_index(index, n_qubits)
        assert config.index == index
        assert qsim.SpinConfig(config.bits).index == index

    def test_qubit_zero_is_most_significant(self):
        assert qsim.SpinConfig.from_index(5, 4).bits == (0, 1, 0, 1)
        assert qsim.SpinConfig((1, 0, 0, 0)).index == 8

    def test_as_array(self):
        np.testing.assert_array_equal(
            qsim.SpinConfig((1, 0, 1)).as_array(), np.array([1.0, 0.0, 1.0])
        )

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            qsim.SpinConfig((0, 2))
        with pytest.raises(ValueError):
            qsim.SpinConfig.from_index(4, 2)
        with pytest.raises(ValueError):
            qsim.SpinConfig(tuple([0] * (qsim.MAX_QUBITS + 1)))


class TestIndexBits:
    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_matches_bitwise_loop(self, n_qubits, data):
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=2**n_qubits - 1), max_size=6)
        )
        bits = qsim.index_bits(np.array(indices, dtype=np.int64), n_qubits)
        assert bits.shape == (len(indices), n_qubits) and bits.dtype == np.float64
        for index, row in zip(indices, bits):
            assert row.tolist() == [(index >> (n_qubits - 1 - k)) & 1 for k in range(n_qubits)]

    def test_scalar_index_gives_one_row(self):
        np.testing.assert_array_equal(qsim.index_bits(5, 4), [0.0, 1.0, 0.0, 1.0])


class TestCircuitAnsatz:
    def test_parameter_count(self):
        ansatz = qsim.CircuitAnsatz(4, 3, np.zeros(18))
        assert ansatz.n_parameters == 18

    def test_rejects_wrong_angle_count(self):
        with pytest.raises(ValueError):
            qsim.CircuitAnsatz(3, 2, np.zeros(7))
        with pytest.raises(ValueError):
            qsim.CircuitAnsatz(2, 1, np.array([0.0, np.inf]))

    def test_block_order_walks_pairs_within_each_layer(self):
        ansatz = qsim.CircuitAnsatz(3, 2, np.arange(8, dtype=np.float64))
        blocks = list(ansatz.blocks())
        assert blocks == [(0, 0, 1), (1, 2, 3), (0, 4, 5), (1, 6, 7)]

    def test_shifted_touches_single_angle(self):
        ansatz = qsim.CircuitAnsatz(2, 2, np.zeros(4))
        shifted = oracles.shifted(ansatz, 2, 0.5)
        np.testing.assert_allclose(shifted.angles, [0.0, 0.0, 0.5, 0.0])
        np.testing.assert_allclose(ansatz.angles, 0.0)


class TestPrepareBasisState:
    def test_vacuum(self):
        state = qsim.prepare_basis_state(qsim.SpinConfig((0, 0)))
        np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_all_ones(self):
        state = qsim.prepare_basis_state(qsim.SpinConfig((1, 1)))
        assert state.amplitudes[3] == 1.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0

    def test_four_qubit_bit_pattern(self):
        state = qsim.prepare_basis_state(qsim.SpinConfig((0, 1, 0, 1)))
        assert state.amplitudes[5] == 1.0


class TestApplyAnsatz:
    def test_zero_angles_leave_vacuum_fixed(self, rng):
        # RY(0) is the identity but the CNOT cascade stays; the vacuum has
        # all controls at 0 so it passes through unchanged.
        ansatz = qsim.CircuitAnsatz(3, 2, np.zeros(8))
        vacuum = qsim.prepare_basis_state(qsim.SpinConfig((0, 0, 0)))
        out = qsim.apply_ansatz(vacuum, ansatz)
        np.testing.assert_allclose(out.amplitudes, vacuum.amplitudes, atol=1e-12)
        state = random_state(3, rng)
        cascade = oracles.staircase_unitary(3, 2, np.zeros(8))
        permuted = qsim.apply_ansatz(state, ansatz)
        np.testing.assert_allclose(permuted.amplitudes, cascade @ state.amplitudes, atol=1e-12)

    def test_pi_rotation_then_cnot_flips_both_qubits(self):
        # RY(pi)|0> = |1> on qubit 0, then CNOT flips qubit 1: |00> -> |11>.
        ansatz = qsim.CircuitAnsatz(2, 1, np.array([np.pi, 0.0]))
        out = qsim.apply_ansatz(qsim.prepare_basis_state(qsim.SpinConfig((0, 0))), ansatz)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("n_qubits,n_layers", [(2, 1), (3, 2), (4, 3)])
    def test_matches_dense_matrix_product(self, n_qubits, n_layers, rng):
        for _ in range(5):
            ansatz = random_ansatz(n_qubits, n_layers, rng)
            state = random_state(n_qubits, rng)
            dense = oracles.staircase_unitary(n_qubits, n_layers, ansatz.angles)
            out = qsim.apply_ansatz(state, ansatz)
            np.testing.assert_allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-10)

    def test_norm_preserved_and_adjoint_round_trip(self, rng):
        for _ in range(1000):
            n_qubits = int(rng.integers(2, 5))
            ansatz = random_ansatz(n_qubits, int(rng.integers(1, 4)), rng)
            state = random_state(n_qubits, rng)
            forward = qsim.apply_ansatz(state, ansatz)
            assert abs(forward.norm() - 1.0) < 1e-10
            back = qsim.apply_adjoint_ansatz(forward, ansatz)
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    def test_dimension_mismatch(self, rng):
        ansatz = random_ansatz(3, 1, rng)
        with pytest.raises(ValueError):
            qsim.apply_ansatz(random_state(2, rng), ansatz)


class TestAnsatzUnitary:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_dense_oracle_and_is_unitary(self, n_qubits, n_layers, seed):
        # The circuit is real, so U is a real orthogonal matrix.
        ansatz = random_ansatz(n_qubits, n_layers, np.random.default_rng(seed), scale=3.0)
        u = qsim.ansatz_unitary(ansatz)
        assert u.dtype == np.float64
        dense = oracles.staircase_unitary(n_qubits, n_layers, ansatz.angles)
        np.testing.assert_allclose(u, dense, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(2**n_qubits), atol=1e-12)

    def test_adjoint_application_matches_conjugate_transpose(self, rng):
        ansatz = random_ansatz(3, 2, rng)
        dense = oracles.staircase_unitary(3, 2, ansatz.angles)
        state = random_state(3, rng)
        out = qsim.apply_adjoint_ansatz(state, ansatz)
        np.testing.assert_allclose(out.amplitudes, dense.conj().T @ state.amplitudes, atol=1e-10)


class TestDiagonalExpectation:
    def test_support_eigenstate(self):
        ham = make_ham(2, [0], [2.0])
        state = qsim.prepare_basis_state(qsim.SpinConfig((0, 0)))
        assert qsim.diagonal_expectation(state, ham) == pytest.approx(2.0)

    def test_orthogonal_support(self):
        ham = make_ham(2, [0], [2.0])
        state = qsim.prepare_basis_state(qsim.SpinConfig((1, 1)))
        assert qsim.diagonal_expectation(state, ham) == 0.0

    def test_empty_support_scores_zero(self, rng):
        ham = ModularHamiltonian.empty(3)
        assert qsim.diagonal_expectation(random_state(3, rng), ham) == 0.0

    def test_matches_dense_quadratic_form(self, rng):
        for _ in range(20):
            n_qubits = int(rng.integers(2, 5))
            dim = 2**n_qubits
            m = int(rng.integers(1, dim + 1))
            indices = rng.choice(dim, size=m, replace=False)
            energies = rng.normal(size=m)
            ham = make_ham(n_qubits, indices, energies)
            state = random_state(n_qubits, rng)
            dense = oracles.diagonal_hamiltonian_matrix(n_qubits, indices, energies)
            expected = np.real(state.amplitudes.conj() @ dense @ state.amplitudes)
            assert qsim.diagonal_expectation(state, ham) == pytest.approx(expected, abs=1e-10)


class TestCircuitExpectation:
    def test_forward_and_adjoint_orientations(self, rng):
        for _ in range(10):
            n_qubits = 3
            ansatz = random_ansatz(n_qubits, 2, rng)
            indices = rng.choice(8, size=4, replace=False)
            energies = rng.normal(size=4)
            ham = make_ham(n_qubits, indices, energies)
            config = qsim.SpinConfig.from_index(int(rng.integers(8)), n_qubits)
            u = oracles.staircase_unitary(n_qubits, 2, ansatz.angles)
            k = oracles.diagonal_hamiltonian_matrix(n_qubits, indices, energies)
            basis = np.zeros(8)
            basis[config.index] = 1.0
            forward = np.real(basis @ (u.conj().T @ k @ u) @ basis)
            sandwich = np.real(basis @ (u @ k @ u.conj().T) @ basis)
            assert qsim.circuit_expectation(config, ansatz, ham) == pytest.approx(forward, abs=1e-10)
            assert qsim.circuit_expectation(config, ansatz, ham, adjoint=True) == pytest.approx(
                sandwich, abs=1e-10
            )


class TestParameterShiftGradient:
    def test_empty_hamiltonian_gives_zero_vector(self, rng):
        ansatz = random_ansatz(3, 2, rng)
        grad = oracles.parameter_shift_gradient(
            qsim.SpinConfig((0, 0, 0)), ansatz, ModularHamiltonian.empty(3)
        )
        np.testing.assert_array_equal(grad, np.zeros(8))

    def test_matches_central_finite_differences(self, rng):
        step = 1e-5
        for _ in range(10):
            n_qubits = int(rng.integers(2, 4))
            ansatz = random_ansatz(n_qubits, 2, rng)
            dim = 2**n_qubits
            m = int(rng.integers(1, dim + 1))
            indices = rng.choice(dim, size=m, replace=False)
            ham = make_ham(n_qubits, indices, rng.normal(size=m))
            config = qsim.SpinConfig.from_index(int(rng.integers(dim)), n_qubits)
            grad = oracles.parameter_shift_gradient(config, ansatz, ham)
            for k in range(ansatz.n_parameters):
                up = qsim.circuit_expectation(config, oracles.shifted(ansatz, k, step), ham)
                down = qsim.circuit_expectation(config, oracles.shifted(ansatz, k, -step), ham)
                fd = (up - down) / (2 * step)
                if abs(grad[k]) > 1e-8:
                    assert fd == pytest.approx(grad[k], rel=1e-6)
                else:
                    assert fd == pytest.approx(grad[k], abs=1e-6)

    def test_two_qubit_analytic_gradient(self, rng):
        # <K> for a 1-layer 2-qubit circuit on |00> with K = E0|00><00| is
        # E0 cos^2(a/2) cos^2(b/2); its partial derivatives are closed-form.
        e0 = 1.7
        ham = make_ham(2, [0], [e0])
        config = qsim.SpinConfig((0, 0))
        for _ in range(10):
            a, b = rng.uniform(-np.pi, np.pi, size=2)
            ansatz = qsim.CircuitAnsatz(2, 1, np.array([a, b]))
            grad = oracles.parameter_shift_gradient(config, ansatz, ham)
            expected_a = -0.5 * e0 * np.sin(a) * np.cos(b / 2) ** 2
            expected_b = -0.5 * e0 * np.cos(a / 2) ** 2 * np.sin(b)
            np.testing.assert_allclose(grad, [expected_a, expected_b], atol=1e-12)

    def test_stationary_at_zero_angles(self):
        ham = make_ham(2, [0], [3.0])
        ansatz = qsim.CircuitAnsatz(2, 1, np.zeros(2))
        grad = oracles.parameter_shift_gradient(qsim.SpinConfig((0, 0)), ansatz, ham)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)


class TestEvolveDiagonal:
    def test_empty_hamiltonian_is_identity(self, rng):
        state = random_state(2, rng)
        out, actual = qsim.evolve_diagonal(state, ModularHamiltonian.empty(2), 3.0, 0.1)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)
        assert actual == pytest.approx(3.0)

    def test_eigenstate_picks_up_global_phase(self):
        ham = make_ham(2, [3], [np.pi])
        state = qsim.prepare_basis_state(qsim.SpinConfig((1, 1)))
        out, actual = qsim.evolve_diagonal(state, ham, 1.0, 0.1)
        assert actual == pytest.approx(1.0)
        assert out.amplitudes[3] == pytest.approx(np.exp(-1j * np.pi), abs=1e-12)
        overlap = abs(np.vdot(out.amplitudes, state.amplitudes)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_two_level_overlap_follows_interference_formula(self, rng):
        e1, e2 = 0.9, 2.3
        ham = make_ham(2, [0, 3], [e1, e2])
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        state = qsim.StateVector(2, amps)
        for total_time in (0.5, 1.0, 7.3):
            out, actual = qsim.evolve_diagonal(state, ham, total_time, 0.1)
            overlap = abs(np.vdot(state.amplitudes, out.amplitudes)) ** 2
            assert overlap == pytest.approx(np.cos((e2 - e1) * actual / 2) ** 2, abs=1e-12)

    def test_time_quantised_to_step_multiples(self, rng):
        ham = make_ham(2, [0], [1.0])
        state = random_state(2, rng)
        _, actual = qsim.evolve_diagonal(state, ham, 1.04, 0.1)
        assert actual == pytest.approx(1.0)

    def test_repeated_steps_equal_one_shot(self, rng):
        ham = make_ham(3, [0, 2, 5], [0.3, -1.2, 2.8])
        state = random_state(3, rng)
        stepped = state
        for _ in range(100):
            stepped, _ = qsim.evolve_diagonal(stepped, ham, 0.1, 0.1)
        one_shot, _ = qsim.evolve_diagonal(state, ham, 10.0, 0.1)
        np.testing.assert_allclose(stepped.amplitudes, one_shot.amplitudes, atol=1e-12)

    def test_off_support_amplitudes_untouched(self, rng):
        ham = make_ham(2, [1], [5.0])
        state = random_state(2, rng)
        out, _ = qsim.evolve_diagonal(state, ham, 2.0, 0.5)
        for idx in (0, 2, 3):
            assert out.amplitudes[idx] == state.amplitudes[idx]
        assert abs(out.norm() - 1.0) < 1e-10

    def test_rejects_non_positive_dt(self, rng):
        with pytest.raises(ValueError):
            qsim.evolve_diagonal(random_state(2, rng), make_ham(2, [0], [1.0]), 1.0, 0.0)
