import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhbm import qsim, train

import oracles


def make_ham(n_qubits, indices, energies):
    return oracles.hamiltonian_from_energies(
        n_qubits, indices, np.asarray(energies, dtype=np.float64)
    )


def random_ansatz(n_qubits, n_layers, rng, scale=1.0):
    n_params = 2 * (n_qubits - 1) * n_layers
    return qsim.CircuitAnsatz(n_qubits, n_layers, scale * rng.normal(size=n_params))


def random_state(n_qubits, rng):
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return amps / np.linalg.norm(amps)


def run_blocks(blocks, amps):
    """(qubit, M) blocks applied in order to a complex copy of ``amps``."""
    arr = np.array(amps, dtype=np.complex128)
    spare = np.empty_like(arr)
    for qubit, m in blocks:
        arr, spare = qsim.apply_block(arr, qubit, m, spare), arr
    return arr


def apply(ansatz, amps):
    """The circuit applied to ``amps`` block by block."""
    return run_blocks(oracles.circuit_blocks(ansatz), amps)


def apply_inverse(ansatz, amps):
    """The blocks reversed and transposed, as the angle gradient sweeps back."""
    return run_blocks([(q, m.T) for q, m in reversed(oracles.circuit_blocks(ansatz))], amps)


def basis(index, n_qubits):
    amps = np.zeros(2**n_qubits)
    amps[index] = 1.0
    return amps


class TestSpinConfig:
    """Spin configurations are int64 basis indices; ``index_bits`` unpacks them."""

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_index_round_trip(self, n_qubits, data):
        index = data.draw(st.integers(min_value=0, max_value=2**n_qubits - 1))
        bits = qsim.index_bits(index, n_qubits).astype(np.int64)
        assert int("".join(map(str, bits)), 2) == index

    def test_qubit_zero_is_most_significant(self):
        np.testing.assert_array_equal(qsim.index_bits(5, 4), [0, 1, 0, 1])
        np.testing.assert_array_equal(qsim.index_bits(8, 4), [1, 0, 0, 0])

    def test_as_array(self):
        bits = qsim.index_bits(5, 3)
        assert bits.dtype == np.float64
        np.testing.assert_array_equal(bits, np.array([1.0, 0.0, 1.0]))


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
        blocks = oracles.blocks(ansatz)
        assert blocks == [(0, 0, 1), (1, 2, 3), (0, 4, 5), (1, 6, 7)]

    def test_shifted_touches_single_angle(self):
        ansatz = qsim.CircuitAnsatz(2, 2, np.zeros(4))
        shifted = oracles.shifted(ansatz, 2, 0.5)
        np.testing.assert_allclose(shifted.angles, [0.0, 0.0, 0.5, 0.0])
        np.testing.assert_allclose(ansatz.angles, 0.0)


class TestPrepareBasisState:
    """Column x of the circuit matrix is the circuit applied to basis state x."""

    def test_vacuum(self):
        ansatz = qsim.CircuitAnsatz(2, 0, np.zeros(0))
        np.testing.assert_array_equal(qsim.ansatz_unitary(ansatz)[:, 0], [1, 0, 0, 0])

    def test_all_ones(self, rng):
        ansatz = random_ansatz(2, 2, rng)
        np.testing.assert_allclose(
            qsim.ansatz_unitary(ansatz)[:, 3], apply(ansatz, basis(3, 2)), atol=1e-12
        )

    def test_four_qubit_bit_pattern(self, rng):
        ansatz = random_ansatz(4, 1, rng)
        dense = oracles.staircase_unitary(4, 1, ansatz.angles)
        np.testing.assert_allclose(qsim.ansatz_unitary(ansatz)[:, 5], dense[:, 5], atol=1e-12)


class TestApplyAnsatz:
    def test_zero_angles_leave_vacuum_fixed(self, rng):
        # RY(0) is the identity but the CNOT cascade stays; the vacuum has
        # all controls at 0 so it passes through unchanged.
        ansatz = qsim.CircuitAnsatz(3, 2, np.zeros(8))
        np.testing.assert_allclose(apply(ansatz, basis(0, 3)), basis(0, 3), atol=1e-12)
        state = random_state(3, rng)
        cascade = oracles.staircase_unitary(3, 2, np.zeros(8))
        np.testing.assert_allclose(apply(ansatz, state), cascade @ state, atol=1e-12)

    def test_pi_rotation_then_cnot_flips_both_qubits(self):
        # RY(pi)|0> = |1> on qubit 0, then CNOT flips qubit 1: |00> -> |11>.
        ansatz = qsim.CircuitAnsatz(2, 1, np.array([np.pi, 0.0]))
        np.testing.assert_allclose(apply(ansatz, basis(0, 2)), [0, 0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("n_qubits,n_layers", [(2, 1), (3, 2), (4, 3)])
    def test_matches_dense_matrix_product(self, n_qubits, n_layers, rng):
        for _ in range(5):
            ansatz = random_ansatz(n_qubits, n_layers, rng)
            state = random_state(n_qubits, rng)
            dense = oracles.staircase_unitary(n_qubits, n_layers, ansatz.angles)
            np.testing.assert_allclose(apply(ansatz, state), dense @ state, atol=1e-10)
            np.testing.assert_allclose(qsim.ansatz_unitary(ansatz) @ state, dense @ state, atol=1e-10)

    def test_norm_preserved_and_adjoint_round_trip(self, rng):
        for _ in range(1000):
            n_qubits = int(rng.integers(2, 5))
            ansatz = random_ansatz(n_qubits, int(rng.integers(1, 4)), rng)
            state = random_state(n_qubits, rng)
            forward = apply(ansatz, state)
            assert abs(np.linalg.norm(forward) - 1.0) < 1e-10
            np.testing.assert_allclose(apply_inverse(ansatz, forward), state, atol=1e-10)


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
        out = apply_inverse(ansatz, state)
        np.testing.assert_allclose(out, dense.conj().T @ state, atol=1e-10)
        np.testing.assert_allclose(qsim.ansatz_unitary(ansatz).T @ state, out, atol=1e-10)


class TestBlockEngine:
    """The fused-block engine against the dense oracle and the per-gate walker."""

    @pytest.mark.parametrize("n_qubits", range(2, 11))
    def test_unitary_matches_dense_oracle_and_gate_walker(self, n_qubits):
        rng = np.random.default_rng(100 + n_qubits)
        n_layers = 3 if n_qubits <= 8 else 1
        ansatz = random_ansatz(n_qubits, n_layers, rng, scale=3.0)
        u = qsim.ansatz_unitary(ansatz)
        assert u.dtype == np.float64 and u.flags.c_contiguous
        np.testing.assert_allclose(u, oracles.gate_walk_unitary(ansatz), rtol=0.0, atol=1e-13)
        # The dense complex oracle costs seconds at 10 qubits; the walker
        # it checks covers that size.
        if n_qubits <= 9:
            dense = oracles.staircase_unitary(n_qubits, n_layers, ansatz.angles)
            np.testing.assert_allclose(u, dense.real, rtol=0.0, atol=1e-13)
            assert np.abs(dense.imag).max() == 0.0

    def test_block_matrix_is_cnot_after_ry_pair(self, rng):
        ansatz = random_ansatz(3, 2, rng, scale=3.0)
        stack = qsim._block_matrices(ansatz.angles)
        assert stack.shape == (4, 4, 4)
        for (_, expected), m in zip(oracles.circuit_blocks(ansatz), stack):
            np.testing.assert_allclose(m, expected, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(m.T @ m, np.eye(4), atol=1e-15)

    def test_blocks_follow_ansatz_block_order(self):
        # Distinct angles, so a block built from another block's pair shows.
        ansatz = qsim.CircuitAnsatz(3, 2, np.arange(8, dtype=np.float64))
        expected = [m for _, m in oracles.circuit_blocks(ansatz)]
        np.testing.assert_allclose(qsim._block_matrices(ansatz.angles), expected, rtol=0.0, atol=1e-15)
        assert [q for q, _ in oracles.circuit_blocks(ansatz)] == [0, 1, 0, 1]
        assert qsim._block_matrices(np.zeros(0)).shape == (0, 4, 4)

    def test_stacked_axis_matches_each_slice(self, rng):
        ansatz = random_ansatz(4, 2, rng)
        stack = rng.normal(size=(2, 16, 3))
        expected = [qsim.ansatz_unitary(ansatz) @ x for x in stack]
        out = np.empty_like(stack)
        for qubit, m in oracles.circuit_blocks(ansatz):
            stack, out = qsim.apply_block(stack, qubit, m, out, axis=1), stack
        np.testing.assert_allclose(stack, expected, rtol=0.0, atol=1e-13)

    def test_rejects_non_contiguous_arrays(self, rng):
        m = oracles.circuit_blocks(random_ansatz(3, 1, rng))[0][1]
        arr = rng.normal(size=(8, 5))
        with pytest.raises(ValueError, match="C-contiguous"):
            qsim.apply_block(np.asfortranarray(arr), 0, m, np.empty_like(arr))
        with pytest.raises(ValueError, match="C-contiguous"):
            qsim.apply_block(arr, 0, m, np.empty((5, 8)).T)
        # A column selection is a strided copy, as U[:, cols] is.
        cols = arr[:, [0, 2, 4]]
        with pytest.raises(ValueError, match="C-contiguous"):
            qsim.apply_block(cols, 0, m, np.empty(cols.shape))


class TestGroupEngine:
    """``circuit_groups`` against the blocks it fuses."""

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_groups_cover_every_block_once_in_order(self, n_qubits):
        # n = 9 has pairs only, n = 10 a trailing single in every layer.
        rng = np.random.default_rng(200 + n_qubits)
        for n_layers in (0, 1, 3):
            ansatz = random_ansatz(n_qubits, n_layers, rng, scale=3.0)
            blocks = oracles.circuit_blocks(ansatz)
            groups = qsim.circuit_groups(ansatz)
            per_layer = [8] * ((n_qubits - 1) // 2) + [4] * ((n_qubits - 1) % 2)
            assert [len(f) for _, f, _ in groups] == per_layer * n_layers
            covered = []
            for qubit, f, x in groups:
                size = {8: 2, 4: 1}[len(f)]
                assert f.shape == (len(f), len(f)) and x.shape == (2 * size, len(f), len(f))
                mats = [m for _, m in blocks[len(covered) : len(covered) + size]]
                covered.extend(qubit + j for j in range(size))
                # Each block embedded on the group's qubits, applied in order.
                expected = mats[0] if size == 1 else np.kron(np.eye(2), mats[1]) @ np.kron(mats[0], np.eye(2))
                np.testing.assert_allclose(f, expected, rtol=0.0, atol=1e-15)
            assert covered == [q for q, _ in blocks]
            assert sum(len(x) for _, _, x in groups) == ansatz.n_parameters

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 9, 10])
    def test_generators_give_each_angle_derivative(self, n_qubits):
        # F is linear in cos(t/2) and sin(t/2) of each angle t, so
        # dF/dt = (F(t + pi) - F(t - pi)) / 4 exactly, and X_t = 2 F^T dF/dt.
        ansatz = random_ansatz(n_qubits, 2, np.random.default_rng(300 + n_qubits), scale=3.0)
        groups = qsim.circuit_groups(ansatz)
        start = 0
        for index, (_, f, x) in enumerate(groups):
            for j, generator in enumerate(x):
                up = qsim.circuit_groups(oracles.shifted(ansatz, start + j, np.pi))[index][1]
                down = qsim.circuit_groups(oracles.shifted(ansatz, start + j, -np.pi))[index][1]
                np.testing.assert_allclose(2 * f.T @ (up - down) / 4, generator, rtol=0.0, atol=1e-14)
            start += len(x)
        assert start == ansatz.n_parameters

    def test_stacked_axis_matches_each_slice(self, rng):
        ansatz = random_ansatz(5, 2, rng)
        stack = rng.normal(size=(2, 32, 3))
        expected = [qsim.ansatz_unitary(ansatz) @ x for x in stack]
        out = np.empty_like(stack)
        for qubit, f, _ in qsim.circuit_groups(ansatz):
            stack, out = qsim.apply_block(stack, qubit, f, out, axis=1), stack
        np.testing.assert_allclose(stack, expected, rtol=0.0, atol=1e-13)


def mean_energy(ham, q, n_qubits):
    """The objective's mean <K> for basis draws distributed as ``q``, with no circuit."""
    return train._loss(np.eye(2**n_qubits), ham, q)[1]


class TestDiagonalExpectation:
    def test_support_eigenstate(self):
        ham = make_ham(2, [0], [2.0])
        assert mean_energy(ham, basis(0, 2), 2) == pytest.approx(2.0)

    def test_orthogonal_support(self):
        ham = make_ham(2, [0], [2.0])
        assert mean_energy(ham, basis(3, 2), 2) == 0.0

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
            expected = np.real(state.conj() @ dense @ state)
            got = mean_energy(ham, np.abs(state) ** 2, n_qubits)
            assert got == pytest.approx(expected, abs=1e-10)


class TestCircuitExpectation:
    def test_forward_and_adjoint_orientations(self, rng):
        # A one-index batch routes a single basis state forward through the
        # circuit, which scores it against U^dag K U.  The model state's
        # rotation W is the adjoint U^dag, so W K W^T is that same operator.
        config = train.TrainConfig(n_qubits=3, n_layers=2)
        state = train.init_train_state(config)
        for _ in range(10):
            ansatz = random_ansatz(3, 2, rng)
            indices = rng.choice(8, size=4, replace=False)
            energies = rng.normal(size=4)
            ham = make_ham(3, indices, energies)
            index = int(rng.integers(8))
            u = oracles.staircase_unitary(3, 2, ansatz.angles)
            k = oracles.diagonal_hamiltonian_matrix(3, indices, energies)
            forward = np.real(basis(index, 3) @ (u.conj().T @ k @ u) @ basis(index, 3))
            got = train._loss(qsim.ansatz_unitary(ansatz), ham, basis(index, 3))[1]
            assert got == pytest.approx(forward, abs=1e-10)
            w, _ = train.model_state(dataclasses.replace(state, ansatz=ansatz))
            assert basis(index, 3) @ (w @ k.real @ w.T) @ basis(index, 3) == pytest.approx(
                forward, abs=1e-10
            )


def routed_energy(index, ansatz, ham):
    return oracles.distribution_expectation(ansatz, ham, basis(index, ansatz.n_qubits))


class TestParameterShiftGradient:
    def test_matches_central_finite_differences(self, rng):
        step = 1e-5
        for _ in range(10):
            n_qubits = int(rng.integers(2, 4))
            ansatz = random_ansatz(n_qubits, 2, rng)
            dim = 2**n_qubits
            m = int(rng.integers(1, dim + 1))
            indices = rng.choice(dim, size=m, replace=False)
            ham = make_ham(n_qubits, indices, rng.normal(size=m))
            index = int(rng.integers(dim))
            grad = oracles.parameter_shift_gradient(index, ansatz, ham)
            for k in range(ansatz.n_parameters):
                up = routed_energy(index, oracles.shifted(ansatz, k, step), ham)
                down = routed_energy(index, oracles.shifted(ansatz, k, -step), ham)
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
        for _ in range(10):
            a, b = rng.uniform(-np.pi, np.pi, size=2)
            ansatz = qsim.CircuitAnsatz(2, 1, np.array([a, b]))
            grad = oracles.parameter_shift_gradient(0, ansatz, ham)
            expected_a = -0.5 * e0 * np.sin(a) * np.cos(b / 2) ** 2
            expected_b = -0.5 * e0 * np.cos(a / 2) ** 2 * np.sin(b)
            np.testing.assert_allclose(grad, [expected_a, expected_b], atol=1e-12)

    def test_stationary_at_zero_angles(self):
        ham = make_ham(2, [0], [3.0])
        ansatz = qsim.CircuitAnsatz(2, 1, np.zeros(2))
        grad = oracles.parameter_shift_gradient(0, ansatz, ham)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)


class TestEvolveDiagonal:
    """The stepped-evolution reference that A7 and the series tests compare against."""

    def test_eigenstate_picks_up_global_phase(self):
        ham = make_ham(2, [3], [np.pi])
        state = basis(3, 2)
        out, actual = oracles.evolve_diagonal(state, ham, 1.0, 0.1)
        assert actual == pytest.approx(1.0)
        assert out[3] == pytest.approx(np.exp(-1j * np.pi), abs=1e-12)
        assert abs(np.vdot(out, state)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_two_level_overlap_follows_interference_formula(self, rng):
        e1, e2 = 0.9, 2.3
        ham = make_ham(2, [0, 3], [e1, e2])
        state = (basis(0, 2) + basis(3, 2)) / np.sqrt(2)
        for total_time in (0.5, 1.0, 7.3):
            out, actual = oracles.evolve_diagonal(state, ham, total_time, 0.1)
            overlap = abs(np.vdot(state, out)) ** 2
            assert overlap == pytest.approx(np.cos((e2 - e1) * actual / 2) ** 2, abs=1e-12)

    def test_time_quantised_to_step_multiples(self, rng):
        ham = make_ham(2, [0], [1.0])
        _, actual = oracles.evolve_diagonal(random_state(2, rng), ham, 1.04, 0.1)
        assert actual == pytest.approx(1.0)

    def test_repeated_steps_equal_one_shot(self, rng):
        ham = make_ham(3, [0, 2, 5], [0.3, -1.2, 2.8])
        state = random_state(3, rng)
        stepped = state
        for _ in range(100):
            stepped, _ = oracles.evolve_diagonal(stepped, ham, 0.1, 0.1)
        one_shot, _ = oracles.evolve_diagonal(state, ham, 10.0, 0.1)
        np.testing.assert_allclose(stepped, one_shot, atol=1e-12)

    def test_off_support_amplitudes_untouched(self, rng):
        ham = make_ham(2, [1], [5.0])
        state = random_state(2, rng)
        out, _ = oracles.evolve_diagonal(state, ham, 2.0, 0.5)
        for idx in (0, 2, 3):
            assert out[idx] == state[idx]
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_rejects_non_positive_dt(self, rng):
        with pytest.raises(ValueError):
            oracles.evolve_diagonal(random_state(2, rng), make_ham(2, [0], [1.0]), 1.0, 0.0)
