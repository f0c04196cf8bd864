"""Tests for time-evolution scoring, spectra, and site-entropy profiles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhbm import ebm, qsim
from qhbm.anomaly import (
    SCENARIOS,
    RoutingTable,
    _TILE_STATES,
    _blocks_per_tile,
    _coarse_step,
    _pair_reduced,
    _phase_blocks,
    check_spectral_args,
    discrimination_report,
    expectation_score,
    score_events,
    series_moments,
    site_entropy_profile,
    spectral_score,
    time_evolution_series,
)
from qhbm.metrics import RocCurve, power_spectrum, roc_from_scores
from qhbm.rng import substream
from qhbm.train import AdamState, TrainState, parameters

from oracles import (
    bernoulli_index_samples_reference,
    draw_indices,
    empty_hamiltonian,
    evolve_diagonal,
    expectation_score_per_draw,
    hamiltonian_from_energies,
    pair_reduced_matrix,
    staircase_unitary,
    time_evolution_series_per_draw,
)


def make_state(ansatz, ham, rng_seed=0):
    n = ansatz.n_qubits
    model = ebm.EnergyModel.initialize(n, 2 * n, np.random.default_rng(rng_seed))
    chain = ebm.initial_chain(model, np.random.default_rng(rng_seed))
    return TrainState(
        energy_model=model,
        ansatz=ansatz,
        hamiltonian=ham,
        chain=chain,
        adam=AdamState.zeros_like(parameters(model, ansatz)),
        lr_current=1e-2,
    )


def identity_ansatz(n):
    return qsim.CircuitAnsatz(n, 0, np.zeros(0))


def sharp_event(bits):
    return np.array([1.0 - 1e-6 if b else 1e-6 for b in bits])


def ham_from(indices, energies, n):
    return hamiltonian_from_energies(n, indices, energies)


def own_table_series(state, event, total_time, dt, rng, n_draws):
    """One event's series, read from a routing table built for it alone."""
    table = RoutingTable(state, total_time, dt)
    return time_evolution_series(state, event, total_time, dt, rng, n_draws, table=table)


def own_table_score(state, event, rng, n_draws):
    """One event's t_zero score, read from a routing table built for it alone."""
    return expectation_score(state, event, rng, n_draws, table=RoutingTable(state))


def one_score(series, dt, f_min):
    """The spectral score of one series, scored as a one-row stack."""
    return spectral_score(series[None], dt, f_min)[0][0]


class TestTimeEvolutionSeries:
    def test_starts_at_one_and_stays_bounded(self, rng):
        n = 3
        angles = rng.uniform(-np.pi, np.pi, size=2 * (n - 1))
        state = make_state(
            qsim.CircuitAnsatz(n, 1, angles), ham_from([1, 4, 6], rng.standard_normal(3), n)
        )
        event = rng.uniform(0.2, 0.8, size=n)
        series = own_table_series(state, event, 20.0, 0.1, np.random.default_rng(0), 4)
        assert series[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(series >= -1e-9)
        assert np.all(series <= 1.0 + 1e-9)

    def test_eigenstate_is_flat(self):
        state = make_state(identity_ansatz(2), ham_from([2], [1.7], 2))
        rng = np.random.default_rng(1)
        series = own_table_series(state, sharp_event((1, 0)), 50.0, 0.1, rng, 1)
        assert np.allclose(series, 1.0, atol=1e-9)

    def test_empty_support_is_flat(self):
        state = make_state(identity_ansatz(2), empty_hamiltonian(2))
        rng = np.random.default_rng(2)
        series = own_table_series(state, sharp_event((0, 1)), 10.0, 0.1, rng, 1)
        assert np.allclose(series, 1.0, atol=1e-12)

    def test_two_level_beat(self):
        # Angles (pi/2, 0) rotate |00> into (|00> + |11>)/sqrt(2), so the
        # series oscillates as cos^2(dE t / 2).
        e0, e1 = 0.4, 2.9
        ansatz = qsim.CircuitAnsatz(2, 1, np.array([np.pi / 2.0, 0.0]))
        state = make_state(ansatz, ham_from([0, 3], [e0, e1], 2))
        rng = np.random.default_rng(3)
        series = own_table_series(state, sharp_event((0, 0)), 30.0, 0.1, rng, 1)
        times = 0.1 * np.arange(series.size)
        expected = np.cos((e1 - e0) * times / 2.0) ** 2
        assert np.allclose(series, expected, atol=1e-9)

    def test_matches_step_by_step_propagation(self, rng):
        n = 2
        angles = rng.uniform(-np.pi, np.pi, size=2)
        ansatz = qsim.CircuitAnsatz(n, 1, angles)
        ham = ham_from([0, 2, 3], rng.standard_normal(3), n)
        state = make_state(ansatz, ham)
        event = rng.uniform(0.3, 0.7, size=n)
        dt, steps = 0.1, 20
        series = own_table_series(state, event, steps * dt, dt, substream(11, "generation"), 1)
        draw = draw_indices(
            bernoulli_index_samples_reference(event, 1, substream(11, "generation"))
        )[0]
        psi0 = staircase_unitary(n, 1, angles)[:, draw]
        for k in range(steps + 1):
            if k == 0:
                psi_t = psi0
            else:
                psi_t, actual = evolve_diagonal(psi0, ham, k * dt, dt)
                assert actual == pytest.approx(k * dt, abs=1e-12)
            overlap = np.vdot(psi0, psi_t)
            assert series[k] == pytest.approx(abs(overlap) ** 2, abs=1e-9)

    def test_grid_sizes(self):
        state = make_state(identity_ansatz(2), ham_from([0], [0.5], 2))
        event = sharp_event((0, 0))
        series = own_table_series(state, event, 1.04, 0.1, np.random.default_rng(0), 1)
        assert series.shape == (11,)

    def test_error_paths(self):
        state = make_state(identity_ansatz(2), ham_from([0], [0.5], 2))
        event = sharp_event((0, 0))
        table = RoutingTable(state, 10.0, 0.1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            time_evolution_series(state, event, 10.0, 0.0, rng, 1, table=table)
        with pytest.raises(ValueError):
            time_evolution_series(state, event, 0.04, 0.1, rng, 1, table=table)
        with pytest.raises(ValueError):
            time_evolution_series(state, sharp_event((0, 0, 1)), 10.0, 0.1, rng, 1, table=table)
        with pytest.raises(ValueError):
            time_evolution_series(state, event, 10.0, 0.1, rng, 0, table=table)

    @pytest.mark.parametrize(
        "total_time, dt, name",
        [
            (np.inf, 0.1, "total_time"),
            (-np.inf, 0.1, "total_time"),
            (np.nan, 0.1, "total_time"),
            (-1.0, 0.1, "total_time"),
            (10.0, np.nan, "dt"),
            (10.0, np.inf, "dt"),
            (1e300, 1e-300, "total_time / dt"),
        ],
    )
    def test_rejects_non_finite_grid(self, total_time, dt, name):
        state = make_state(identity_ansatz(2), ham_from([0], [0.5], 2))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        table = RoutingTable(state, 10.0, 0.1)
        with pytest.raises(ValueError, match=name):
            time_evolution_series(state, sharp_event((0, 0)), total_time, dt, rng, 1, table=table)
        assert rng.bit_generator.state == before


class TestPhaseGrid:
    """The phase grid, built one block of time steps at a time."""

    # Coarse/fine boundaries m**2 and m**2 + 1, an overhang past the last
    # coarse block, and grids one step around a whole number of tiles
    # (42 = 6 coarse blocks of 7 steps, 2070 = 45 blocks of 46).
    @pytest.mark.parametrize(
        "n_points", [1, 2, 3, 4, 5, 16, 17, 41, 42, 43, 2001, 2025, 2026, 2069, 2070, 2071, 3000]
    )
    def test_matches_direct_exponential(self, rng, n_points):
        dt = 0.1
        energies = rng.uniform(-50.0, 50.0, size=7)
        eps = np.finfo(float).eps
        for n_blocks in (1, 2, 3, 7):
            block_steps = n_blocks * _coarse_step(n_points)
            end = 0
            for k0, phases in _phase_blocks(n_points, dt, energies, n_blocks):
                assert k0 == end
                assert phases.shape == (energies.size, min(block_steps, n_points - k0))
                angles = np.outer(energies, dt * np.arange(k0, k0 + phases.shape[1]))
                direct = np.exp(1j * angles)
                assert np.all(np.abs(phases - direct) <= 8 * eps * (1.0 + np.abs(angles)))
                end = k0 + phases.shape[1]
            assert end == n_points


def random_scoring_state(n, support_size, e_max, seed):
    gen = np.random.default_rng(seed)
    angles = gen.uniform(-np.pi, np.pi, size=2 * 2 * (n - 1))
    support = gen.choice(2**n, size=support_size, replace=False)
    energies = gen.uniform(-e_max, e_max, size=support_size)
    ham = ham_from(support, energies, n) if support_size else empty_hamiltonian(n)
    state = make_state(qsim.CircuitAnsatz(n, 2, angles), ham)
    return state, gen.uniform(0.05, 0.95, size=n)


class TestMatchesPerDrawOracle:
    """Distinct-state scoring against one routed column per draw."""

    @given(
        st.integers(1, 6),
        st.integers(1, 300),
        st.sampled_from([2, 3, 16, 17, 101, 2001, 2025, 2026, 3000]),
        st.floats(0.0, 50.0),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_series_and_t_zero(self, n, n_draws, n_points, e_max, seed, data):
        support_size = data.draw(st.integers(0, 2**n))
        state, event = random_scoring_state(n, support_size, e_max, seed)
        # |t E| stays below 1000, where both phase grids agree to ~1e-13.
        dt = min(0.1, 1000.0 / ((n_points - 1) * max(e_max, 1.0)))
        total_time = (n_points - 1) * dt

        fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        series = own_table_series(state, event, total_time, dt, fast_rng, n_draws)
        values = time_evolution_series_per_draw(state, event, total_time, dt, slow_rng, n_draws)
        assert series.shape == (n_points,)
        # Values lie in [0, 1]; atol covers entries near zero.
        np.testing.assert_allclose(series, values, rtol=1e-12, atol=1e-12)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

        got = own_table_score(state, event, fast_rng, n_draws)
        expected = expectation_score_per_draw(state, event, slow_rng, n_draws)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * (1.0 + e_max))
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class TestSharedTableMatchesPerDrawOracle:
    """One routing table serves a sequence of events, as in a scoring pass."""

    @given(
        st.integers(1, 5),
        st.one_of(st.just(1), st.integers(2, 200)),
        # Grids around the coarse/fine block boundaries of _phase_grid: m**2 and m**2 + 1.
        st.sampled_from([2, 17, 256, 257, 2025, 2026]),
        st.floats(0.0, 50.0),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_events_share_one_table(self, n, n_draws, n_points, e_max, seed, data):
        support_size = data.draw(st.integers(0, 2**n))
        state, first = random_scoring_state(n, support_size, e_max, seed)
        # Repeated events hit the same states again; fresh ones add new states.
        gen = np.random.default_rng(seed + 1)
        events = [first]
        for _ in range(data.draw(st.integers(0, 5))):
            if data.draw(st.booleans()):
                events.append(events[data.draw(st.integers(0, len(events) - 1))])
            else:
                events.append(gen.uniform(0.05, 0.95, size=n))
        dt = min(0.1, 1000.0 / ((n_points - 1) * max(e_max, 1.0)))
        total_time = (n_points - 1) * dt

        table = RoutingTable(state, total_time, dt)
        fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for event in events:
            series = time_evolution_series(
                state, event, total_time, dt, fast_rng, n_draws, table=table
            )
            values = time_evolution_series_per_draw(
                state, event, total_time, dt, slow_rng, n_draws
            )
            np.testing.assert_allclose(series, values, rtol=1e-12, atol=1e-12)
            got = expectation_score(state, event, fast_rng, n_draws, table=table)
            expected = expectation_score_per_draw(state, event, slow_rng, n_draws)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * (1.0 + e_max))
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

        rng_seed = seed + 2
        got = score_events(state, events, "t_zero", np.random.default_rng(rng_seed), n_draws=n_draws)
        slow_rng = np.random.default_rng(rng_seed)
        expected = [expectation_score_per_draw(state, e, slow_rng, n_draws) for e in events]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * (1.0 + e_max))

        f_min = 0.25 / dt
        got = score_events(
            state, events, "spectral", np.random.default_rng(rng_seed),
            f_min=f_min, total_time=total_time, dt=dt, n_draws=n_draws,
        )
        slow_rng = np.random.default_rng(rng_seed)
        expected = [
            one_score(
                time_evolution_series_per_draw(state, e, total_time, dt, slow_rng, n_draws),
                dt, f_min,
            )
            for e in events
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_rejects_another_model_or_grid(self):
        state = make_state(identity_ansatz(2), ham_from([0], [0.5], 2))
        other = make_state(identity_ansatz(2), ham_from([0], [0.5], 2))
        event = sharp_event((0, 0))
        table = RoutingTable(state, 1.0, 0.1)
        with pytest.raises(ValueError, match="another model"):
            expectation_score(other, event, np.random.default_rng(0), 1, table=table)
        with pytest.raises(ValueError, match="grid"):
            time_evolution_series(state, event, 2.0, 0.1, np.random.default_rng(0), 1, table=table)
        with pytest.raises(ValueError, match="grid"):
            time_evolution_series(
                state, event, 1.0, 0.1, np.random.default_rng(0), 1, table=RoutingTable(state)
            )


class TestTiledRowStore:
    """Row fills whose tiles end inside the state or time range."""

    @staticmethod
    def block_end(n, n_phases, limit):
        """Largest grid size up to ``limit`` whose fill ends on a whole time block.

        The block width is the same one step shorter and longer, and the
        grid spans at least two blocks.
        """

        def width(n_points):
            return _blocks_per_tile(2**n, n_phases, n_points) * _coarse_step(n_points)

        return next(
            k for k in range(limit, 2, -1)
            if k % width(k) == 0 and k >= 2 * width(k) and width(k - 1) == width(k) == width(k + 1)
        )

    # Seven and eight qubits fill one or two whole state tiles of 128.
    # Short grids have one coarse block per tile, long ones several.
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("limit", [100, 2100])
    @pytest.mark.parametrize("n, support_size", [(7, 37), (8, 256), (8, 37), (4, 0)])
    def test_series_match_per_draw_oracle(self, n, support_size, limit, offset):
        assert 2**7 == _TILE_STATES
        n_points = self.block_end(n, support_size + 1, limit) + offset
        state, event = random_scoring_state(n, support_size, 20.0, 100 * n + n_points)
        dt = min(0.1, 1000.0 / ((n_points - 1) * 20.0))
        total_time = (n_points - 1) * dt
        table = RoutingTable(state, total_time, dt)
        fast_rng, slow_rng = np.random.default_rng(n_points), np.random.default_rng(n_points)
        for n_draws in (1, 300):
            series = time_evolution_series(
                state, event, total_time, dt, fast_rng, n_draws, table=table
            )
            values = time_evolution_series_per_draw(
                state, event, total_time, dt, slow_rng, n_draws
            )
            np.testing.assert_allclose(series, values, rtol=1e-12, atol=1e-12)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_sparse_and_dense_events_on_one_table_match_per_draw_oracle(self):
        n, n_points, dt = 7, 301, 0.1
        total_time = (n_points - 1) * dt
        state, _ = random_scoring_state(n, 37, 20.0, 11)
        gen = np.random.default_rng(12)
        events = [gen.uniform(0.05, 0.95, size=n) for _ in range(5)]
        # Sparse reads of one or a few states around the one dense read
        # (400 draws).
        events[0] = np.full(n, 0.99)
        events[1] = np.array([0.99] * (n - 1) + [0.5])
        table = RoutingTable(state, total_time, dt)
        fast_rng, slow_rng = np.random.default_rng(13), np.random.default_rng(13)
        for event, n_draws in zip(events, (1, 5, 3, 400, 2)):
            series = time_evolution_series(
                state, event, total_time, dt, fast_rng, n_draws, table=table
            )
            values = time_evolution_series_per_draw(
                state, event, total_time, dt, slow_rng, n_draws
            )
            np.testing.assert_allclose(series, values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_series_do_not_depend_on_earlier_reads(self, seed):
        n, n_points, dt = 7, 301, 0.1
        total_time = (n_points - 1) * dt
        state, event = random_scoring_state(n, 37, 20.0, 200 + seed)
        used = RoutingTable(state, total_time, dt)
        sparse = np.full(n, 0.99)
        time_evolution_series(
            state, sparse, total_time, dt, np.random.default_rng(seed), 1, table=used
        )
        # A sparse read (3 draws) and a dense one (400 draws).
        for n_draws in (3, 400):
            fresh = own_table_series(
                state, event, total_time, dt, np.random.default_rng(seed), n_draws
            )
            again = time_evolution_series(
                state, event, total_time, dt, np.random.default_rng(seed), n_draws, table=used
            )
            assert np.array_equal(fresh, again)

    def test_a_long_grid_has_several_blocks_per_tile(self):
        n_points = self.block_end(8, 38, 2100)
        assert _blocks_per_tile(2**8, 38, n_points) > 1

    def test_table_keeps_only_what_scoring_reads(self):
        # The support probabilities and off-support mass feed the fill alone.
        state, _ = random_scoring_state(5, 20, 20.0, 3)
        assert sorted(vars(RoutingTable(state))) == ["_rows", "grid", "state", "t_zero"]
        table = RoutingTable(state, 50.0, 0.1)
        assert sorted(vars(table)) == ["_rows", "grid", "state", "t_zero"]
        assert table.t_zero.shape == (2**5,) and table._rows.shape == (2**5, 501)
        with pytest.raises(ValueError, match=r"event has shape \(4,\) but model has 5 qubits"):
            table.draw(state, np.full(4, 0.5), 1, np.random.default_rng(0))

    def test_series_is_not_changed_by_the_next_call(self):
        state, event = random_scoring_state(5, 20, 20.0, 3)
        table = RoutingTable(state, 50.0, 0.1)
        rng = np.random.default_rng(4)
        first = time_evolution_series(state, event, 50.0, 0.1, rng, 64, table=table)
        kept = first.copy()
        other = np.full(5, 0.9)
        second = time_evolution_series(state, other, 50.0, 0.1, rng, 64, table=table)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    # Dense reads at 2048 draws per event, sparse ones at 10.
    @pytest.mark.parametrize("n_draws", [2048, 10])
    def test_peak_memory_of_a_scoring_pass(self, n_draws):
        n, n_points = 6, 2001
        state, _ = random_scoring_state(n, 2**n, 20.0, 5)
        gen = np.random.default_rng(6)
        events = [gen.uniform(0.05, 0.95, size=n) for _ in range(12)]
        row_store_bytes = 2**n * n_points * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            score_events(
                state, events, "spectral", np.random.default_rng(7),
                f_min=0.05, total_time=(n_points - 1) * 0.1, dt=0.1, n_draws=n_draws,
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * row_store_bytes


class TestSpectralScore:
    @staticmethod
    def beat_series(f0, dt=0.1, n_values=251):
        t = dt * np.arange(n_values)
        return np.cos(np.pi * f0 * t) ** 2

    def test_flat_series_scores_zero(self):
        assert one_score(np.ones(101), 0.1, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_oscillation_lands_in_one_bin(self):
        dt, n_values = 0.1, 251
        k = 40
        f0 = k / (n_values * dt)
        series = self.beat_series(f0, dt, n_values)
        spec = power_spectrum(series, dt)
        assert int(np.argmax(spec.power)) == k
        # The cos^2 series carries variance 1/8 at frequency f0.
        assert one_score(series, dt, f0 - 0.01) == pytest.approx(0.125, rel=1e-9)
        assert one_score(series, dt, f0 + 0.01) == pytest.approx(0.0, abs=1e-12)

    def test_f_min_zero_recovers_variance(self):
        series = self.beat_series(0.8)
        got = one_score(series, 0.1, 0.0)
        assert got == pytest.approx(float(np.var(series)), rel=1e-10)

    def test_two_level_state_peak_frequency(self):
        # Peak shows up at dE / (2 pi) for a two-level superposition.
        dt, n_values = 0.1, 251
        k = 40
        delta_e = 2 * np.pi * k / (n_values * dt)
        ansatz = qsim.CircuitAnsatz(2, 1, np.array([np.pi / 2.0, 0.0]))
        state = make_state(ansatz, ham_from([0, 3], [0.0, delta_e], 2))
        series = own_table_series(
            state, sharp_event((0, 0)), (n_values - 1) * dt, dt, np.random.default_rng(0), 1
        )
        spec = power_spectrum(series, dt)
        assert int(np.argmax(spec.power)) == k
        assert spec.frequencies[k] == pytest.approx(delta_e / (2 * np.pi), abs=1e-12)

    def test_range_validation(self):
        stack = np.ones((1, 10))
        with pytest.raises(ValueError):
            spectral_score(stack, 0.1, -0.1)
        with pytest.raises(ValueError):
            spectral_score(stack, 0.1, 5.0 + 0.1)
        for f_min in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="f_min"):
                spectral_score(stack, 0.1, f_min)

        with pytest.raises(ValueError, match="dt > 0"):
            spectral_score(stack, 0.0, 0.2)

    @pytest.mark.parametrize("shape", [(10,), (2, 3, 10), (3, 1)])
    def test_takes_only_a_stack_of_series(self, shape):
        with pytest.raises(ValueError, match="stack"):
            spectral_score(np.ones(shape), 0.1, 0.2)

    def test_stack_scores_each_row_as_its_own_call_bitwise(self):
        # 40 rows cross the event blocks, and their magnitudes lie far apart, so
        # that a 2-d masked sum over the stack adds in another order.
        gen = np.random.default_rng(5)
        dt, f_min = 0.1, 0.7
        stack = gen.random((40, 301)) * 10.0 ** gen.integers(-8, 1, (40, 1))
        got, _ = spectral_score(stack, dt, f_min)
        want = np.array([one_score(row, dt, f_min) for row in stack])
        assert got.tobytes() == want.tobytes()
        spectrum = power_spectrum(stack, dt)
        whole = spectrum.power[:, spectrum.frequencies >= f_min].sum(axis=1) * spectrum.resolution
        assert whole.tobytes() != want.tobytes()

    def test_empty_stack_has_no_scores(self):
        scores, mean = spectral_score(np.empty((0, 11)), 0.1, 0.2)
        assert scores.shape == (0,)
        assert mean.frequencies.tobytes() == np.fft.rfftfreq(11, d=0.1).tobytes()
        assert np.isnan(mean.power).all() and mean.power.shape == (6,)

    def test_check_spectral_args(self):
        # 201 points at dt = 0.1 reach the bin 100 / 20.1 = 4.975...
        check_spectral_args(20.0, 0.1, 4.97)
        for args in ((20.0, 0.1, 4.98), (20.0, 0.1, np.nan), (np.inf, 0.1, 0.2), (20.0, np.nan, 0.2)):
            with pytest.raises(ValueError):
                check_spectral_args(*args)


@pytest.mark.parametrize("blocks", [None, (3, 5)], ids=["module_blocks", "small_blocks"])
@pytest.mark.parametrize("n_events, n_points", [(1, 201), (7, 201), (40, 13), (40, 2049)])
def test_class_statistics_match_whole_array_reductions_bitwise(
    monkeypatch, blocks, n_events, n_points
):
    """The blocked per-class series statistics are NumPy's axis-0 ones, bit for bit."""
    if blocks is not None:
        monkeypatch.setattr("qhbm.anomaly._EVENT_BLOCK", blocks[0])
        monkeypatch.setattr("qhbm.anomaly._TIME_BLOCK", blocks[1])
    gen = np.random.default_rng(n_events * n_points)
    # Magnitudes far apart, so that any other order of addition changes low bits.
    stack = gen.random((n_events, n_points)) * 10.0 ** gen.integers(-8, 1, (n_events, 1))
    mean, std = series_moments(stack)
    assert mean.tobytes() == np.mean(stack, axis=0).tobytes()
    assert std.tobytes() == np.std(stack, axis=0).tobytes()
    scores, mean_power = spectral_score(stack, 0.1, 0.5)
    spectrum = power_spectrum(stack, 0.1)
    assert mean_power.frequencies.tobytes() == spectrum.frequencies.tobytes()
    assert mean_power.power.tobytes() == spectrum.power.mean(axis=0).tobytes()
    assert scores.tobytes() == np.array([one_score(row, 0.1, 0.5) for row in stack]).tobytes()


class TestExpectationScore:
    def test_eigenstate_energy(self):
        state = make_state(identity_ansatz(2), ham_from([2], [2.4], 2))
        got = own_table_score(state, sharp_event((1, 0)), np.random.default_rng(0), 1)
        assert got == pytest.approx(2.4, abs=1e-9)

    def test_empty_support_scores_zero(self):
        state = make_state(identity_ansatz(2), empty_hamiltonian(2))
        got = own_table_score(state, sharp_event((0, 1)), np.random.default_rng(0), 1)
        assert got == 0.0

    def test_matches_dense_oracle(self, rng):
        n = 3
        angles = rng.uniform(-np.pi, np.pi, size=4 * (n - 1))
        ansatz = qsim.CircuitAnsatz(n, 2, angles)
        support_idx = [1, 3, 4]
        energies = rng.standard_normal(3)
        state = make_state(ansatz, ham_from(support_idx, energies, n))
        event = rng.uniform(0.2, 0.8, size=n)
        got = own_table_score(state, event, substream(4, "generation"), 16)

        draws = draw_indices(
            bernoulli_index_samples_reference(event, 16, substream(4, "generation"))
        )
        u = staircase_unitary(n, 2, angles)
        probs = np.abs(u) ** 2
        expected = np.mean(
            [sum(e * probs[z, x] for z, e in zip(support_idx, energies)) for x in draws]
        )
        assert got == pytest.approx(expected, abs=1e-10)


class TestScoreEvents:
    def setup_state(self, rng):
        n = 2
        angles = rng.uniform(-np.pi, np.pi, size=2)
        return make_state(
            qsim.CircuitAnsatz(n, 1, angles), ham_from([0, 3], [0.2, 1.4], n)
        )

    def test_t_zero_matches_manual_loop(self, rng):
        state = self.setup_state(rng)
        events = [rng.uniform(0.2, 0.8, size=2) for _ in range(4)]
        got = score_events(state, events, "t_zero", substream(6, "generation"), n_draws=3)
        manual_rng = substream(6, "generation")
        manual = [own_table_score(state, e, manual_rng, 3) for e in events]
        assert np.allclose(got, manual, atol=1e-12)

    def test_spectral_matches_manual_loop(self, rng):
        state = self.setup_state(rng)
        events = [rng.uniform(0.2, 0.8, size=2) for _ in range(3)]
        got = score_events(
            state, events, "spectral", substream(7, "generation"),
            n_draws=1, f_min=0.05, total_time=20.0, dt=0.1,
        )
        manual_rng = substream(7, "generation")
        manual = []
        for e in events:
            series = own_table_series(state, e, 20.0, 0.1, manual_rng, 1)
            manual.append(one_score(series, 0.1, 0.05))
        assert np.allclose(got, manual, atol=1e-12)

    @pytest.mark.parametrize("mode", ["t_zero", "spectral"])
    def test_no_events_score_as_an_empty_array(self, rng, mode):
        state = self.setup_state(rng)
        gen = np.random.default_rng(0)
        grid = dict(f_min=0.05, total_time=20.0, dt=0.1)
        for events in ([], np.empty((0, 2))):
            scores = score_events(state, events, mode, gen, n_draws=1, **grid)
            assert isinstance(scores, np.ndarray) and scores.shape == (0,)
        assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_error_paths(self, rng):
        state = self.setup_state(rng)
        events = [np.array([0.5, 0.5])]
        for missing in ("f_min", "total_time", "dt"):
            grid = dict(f_min=0.05, total_time=20.0, dt=0.1, n_draws=1)
            del grid[missing]
            with pytest.raises(ValueError, match="spectral mode needs"):
                score_events(state, events, "spectral", np.random.default_rng(0), **grid)
        with pytest.raises(ValueError):
            score_events(state, events, "entropy", np.random.default_rng(0), n_draws=1)
        # A malformed set is refused as a whole in both modes, naming the
        # first bad event: too wide for the model, one row, values on or
        # outside the boundary of (0, 1).
        grid = dict(f_min=0.05, total_time=20.0, dt=0.1, n_draws=1)
        bad_sets = [
            (np.full((2, 3), 0.5), "scored: has 3 probabilities per event but the model has 2"),
            (np.full((2, 11), 0.5), r"scored event 0: need 1\.\.10 probabilities, got 11"),
            (np.array([0.5, 0.5]), r"scored: need an \(E, 2\) probability stack"),
            (np.full((1, 2, 2), 0.5), r"scored: need an \(E, 2\) probability stack"),
            ([[0.5, 0.5], [0.0, 0.5]], "scored event 1: probabilities must lie strictly"),
            ([[0.5, 1.0]], "scored event 0: probabilities must lie strictly"),
            ([[0.5, 0.5], [0.5, 0.5], [0.5, np.nan]], "scored event 2: probabilities"),
            ([[0.5, 0.5], [1.5, 0.5]], "scored event 1: probabilities"),
        ]
        for mode in ("t_zero", "spectral"):
            for bad, message in bad_sets:
                gen = np.random.default_rng(0)
                with pytest.raises(ValueError, match=message):
                    score_events(state, bad, mode, gen, **grid)
                assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestDiscriminationReport:
    def test_returns_roc_curve(self, rng):
        n = 2
        state = make_state(
            qsim.CircuitAnsatz(n, 1, rng.uniform(-1, 1, size=2)),
            ham_from([0, 3], [0.1, 2.0], n),
        )
        signal = [rng.uniform(0.6, 0.9, size=n) for _ in range(8)]
        background = [rng.uniform(0.1, 0.4, size=n) for _ in range(8)]
        curve = discrimination_report(
            state, signal, background, "t_zero", np.random.default_rng(0), n_draws=8
        )
        assert isinstance(curve, RocCurve)
        assert 0.5 <= curve.auc <= 1.0
        for grid in (dict(f_min=0.5, dt=0.1), dict(f_min=0.5, total_time=5.0), dict(dt=0.1)):
            with pytest.raises(ValueError, match="spectral mode needs"):
                discrimination_report(
                    state, signal, background, "spectral", np.random.default_rng(0),
                    n_draws=8, **grid,
                )

    @pytest.mark.parametrize("mode", ["t_zero", "spectral"])
    def test_both_classes_share_one_table(self, rng, monkeypatch, mode):
        n = 3
        state, _ = random_scoring_state(n, 5, 10.0, 8)
        signal = [rng.uniform(0.6, 0.9, size=n) for _ in range(6)]
        background = [rng.uniform(0.1, 0.4, size=n) for _ in range(6)]
        kwargs = dict(f_min=0.5, total_time=30.0, dt=0.1, n_draws=16)
        # One table per class, as before the classes shared one.
        separate_rng = np.random.default_rng(9)
        sig = score_events(state, signal, mode, separate_rng, **kwargs)
        bkg = score_events(state, background, mode, separate_rng, **kwargs)
        expected = roc_from_scores(sig, bkg, 200)

        calls = []
        unitary = qsim.ansatz_unitary

        def counted(ansatz):
            calls.append(ansatz)
            return unitary(ansatz)

        monkeypatch.setattr(qsim, "ansatz_unitary", counted)
        curve = discrimination_report(
            state, signal, background, mode, np.random.default_rng(9), **kwargs
        )
        assert len(calls) == 1
        for field in ("tpr", "fpr", "thresholds", "auc", "direction"):
            assert np.array_equal(getattr(curve, field), getattr(expected, field)), field


class TestTwoSiteReduced:
    def test_matches_index_oracle(self, rng):
        # Phi holds k orthonormal columns; the reduction of Phi Phi^T / k
        # must match the dense index-pair sum for every adjacent pair.
        for n in (2, 3, 4, 5):
            dim = 2**n
            for k in (1, 3, dim):
                phi, _ = np.linalg.qr(rng.standard_normal((dim, k)))
                rho = phi @ phi.T / k
                for i in range(n - 1):
                    got = _pair_reduced(phi, i)
                    assert np.allclose(got, pair_reduced_matrix(rho, i, i + 1, n), atol=1e-12)
                    assert np.trace(got) == pytest.approx(1.0, abs=1e-12)


class TestSiteEntropyProfile:
    def test_unique_ground_state_is_product(self):
        ham = ham_from([5, 2, 7], [0.0, 1.0, 2.0], 3)
        profile = site_entropy_profile(ham, None)
        assert np.allclose(profile, 0.0, atol=1e-12)

    def test_pair_of_ground_states_differing_in_first_qubit(self):
        # 000 and 100 mix only qubit 0, entangling nothing else.
        ham = ham_from([0, 4], [0.0, 0.0], 3)
        profile = site_entropy_profile(ham, None)
        assert profile[0] == pytest.approx(np.log(2), abs=1e-12)
        assert profile[1] == pytest.approx(0.0, abs=1e-12)

    def test_jointly_flipped_pair_localises_mixing(self):
        # 0000 and 1100 share the flip across qubits 0 and 1: both pairs
        # touching those qubits mix, the remaining pair stays pure.
        ham = ham_from([0, 12], [0.5, 0.5], 4)
        profile = site_entropy_profile(ham, None)
        assert np.allclose(profile, [np.log(2), np.log(2), 0.0], atol=1e-12)

    def test_full_degenerate_support_is_maximally_mixed(self):
        ham = ham_from(list(range(16)), np.zeros(16), 4)
        profile = site_entropy_profile(ham, None)
        assert np.allclose(profile, np.log(4), atol=1e-12)

    def test_dressed_profile_matches_dense_oracle(self, rng):
        n = 3
        angles = rng.uniform(-np.pi, np.pi, size=2 * (n - 1))
        ansatz = qsim.CircuitAnsatz(n, 1, angles)
        ham = ham_from([1, 6], [0.0, 0.0], n)
        # The model's rotation W is U^T (train.model_state).
        profile = site_entropy_profile(ham, qsim.ansatz_unitary(ansatz).T)

        rho = np.zeros((8, 8), dtype=complex)
        rho[1, 1] = rho[6, 6] = 0.5
        w = staircase_unitary(n, 1, angles).conj().T
        rho = w @ rho @ w.conj().T
        for pair in range(n - 1):
            reduced = pair_reduced_matrix(rho, pair, pair + 1, n)
            vals = np.clip(np.linalg.eigvalsh(reduced), 0.0, None)
            vals = vals[vals > 1e-12]
            expected = -np.sum(vals * np.log(vals))
            assert profile[pair] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("mode", ["dressed", "diagonal"])
    def test_matches_dense_rotated_diagonal(self, rng, mode):
        for n in (2, 3, 5):
            angles = rng.uniform(-np.pi, np.pi, size=4 * (n - 1))
            ansatz = qsim.CircuitAnsatz(n, 2, angles)
            support = rng.choice(2**n, size=min(2**n, 5), replace=False)
            energies = np.where(np.arange(support.size) < 3, 0.0, 1.0)
            w = qsim.ansatz_unitary(ansatz).T
            profile = site_entropy_profile(
                ham_from(support, energies, n), w if mode == "dressed" else None
            )

            diag = np.zeros(2**n)
            diag[support[energies == 0.0]] = 1.0 / np.sum(energies == 0.0)
            dense = staircase_unitary(n, 2, angles).real.T if mode == "dressed" else np.eye(2**n)
            rho = dense @ np.diag(diag) @ dense.T
            for pair in range(n - 1):
                reduced = pair_reduced_matrix(rho, pair, pair + 1, n)
                vals = np.clip(np.linalg.eigvalsh(reduced), 0.0, None)
                vals = vals[vals > 1e-12]
                expected = -np.sum(vals * np.log(vals))
                assert profile[pair] == pytest.approx(expected, abs=1e-12)

    def test_tie_tolerance_selects_ground_set(self):
        # Energies within 1e-9 of the minimum tie into one ground set.
        profile = site_entropy_profile(ham_from([0, 3, 2], [0.0, 5e-10, 1.0], 2), None)
        # Ground set {00, 11}: a perfectly correlated pair.
        assert profile[0] == pytest.approx(np.log(2), abs=1e-12)
        apart = site_entropy_profile(ham_from([0, 3, 2], [0.0, 2e-9, 1.0], 2), None)
        assert apart[0] == pytest.approx(0.0, abs=1e-12)

    def test_mode_selection(self, rng):
        # A rotation selects the dressed ground space, none the diagonal one.
        n = 3
        angles = rng.uniform(-1, 1, size=4)
        w = qsim.ansatz_unitary(qsim.CircuitAnsatz(n, 1, angles)).T
        ham = ham_from([0, 4], [0.0, 0.0], n)
        profiles = {}
        for given, rotation in ((w, staircase_unitary(n, 1, angles).conj().T), (None, np.eye(8))):
            rho = rotation @ np.diag([0.5, 0, 0, 0, 0.5, 0, 0, 0]) @ rotation.conj().T
            profiles[given is None] = site_entropy_profile(ham, given)
            for pair in range(n - 1):
                vals = np.linalg.eigvalsh(pair_reduced_matrix(rho, pair, pair + 1, n))
                vals = vals[vals > 1e-12]
                expected = -np.sum(vals * np.log(vals))
                assert profiles[given is None][pair] == pytest.approx(expected, abs=1e-12)
        assert not np.allclose(profiles[True], profiles[False], atol=1e-3)

    def test_error_paths(self):
        with pytest.raises(ValueError):
            site_entropy_profile(empty_hamiltonian(2), None)


class TestScenarios:
    def test_reference_shapes(self):
        assert set(SCENARIOS) == {"six_qubit", "eight_qubit"}
        assert SCENARIOS["six_qubit"]["n_qubits"] == 6
        assert SCENARIOS["eight_qubit"]["n_qubits"] == 8
        for params in SCENARIOS.values():
            assert params["n_embed_samples"] == 5000
