"""Acceptance gate: ten numbered end-to-end checks with hard budgets.

Each check prints one ``A<k> (...): PASS/FAIL`` line with its measured
numbers so the whole gate can be read off one screen even under output
capture.  The statistical checks (A3-A6, A10) pin every sampling
protocol to fixed seeds; the reference numbers quoted inline were
measured on those exact protocols.  A5/A6 and A10 run the experiment
scripts in ``scripts/`` with every protocol flag written out and read
their JSON reports, so each protocol has one copy.
"""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
import scipy.stats

from qhbm import anomaly, ebm, embed, metrics, qsim, train
from qhbm.cli import main as cli_main
from qhbm.io import read_image_container
from qhbm.rng import substream

from oracles import (
    basis_counts,
    bernoulli_index_samples_reference,
    boltzmann_distribution,
    dense_entropy,
    dense_fidelity,
    dense_relative_entropy,
    dense_trace_distance,
    diagonal_hamiltonian_matrix,
    draw_indices,
    evolve_diagonal,
    hamiltonian_from_energies,
    random_density_matrix,
    random_structured_state,
    scaled_model,
    shifted,
    staircase_unitary,
)
from script_runner import run_script


def _emit(capsys, line):
    # Bypass capture so the one-line verdicts survive a plain pytest run.
    with capsys.disabled():
        print(line)


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _manual_state(model, ansatz, ham, seed=0):
    chain = ebm.initial_chain(model, substream(seed, "chain"))
    return train.TrainState(
        energy_model=model,
        ansatz=ansatz,
        hamiltonian=ham,
        chain=chain,
        adam=train.AdamState.zeros_like(train.parameters(model, ansatz)),
        lr_current=1e-2,
    )


def test_a1_simulator_and_objective_match_dense_oracles(capsys):
    """The circuit matrix and its transpose, the routed energy of single
    basis states, and the batch objective agree with dense matrix algebra
    on every instance up to 4 qubits."""
    t0 = time.monotonic()
    gen = np.random.default_rng(1001)
    worst = 0.0
    for n in (2, 3, 4):
        dim = 2**n
        for trial in range(5):
            n_layers = int(gen.integers(1, 4))
            angles = gen.uniform(-np.pi, np.pi, 2 * (n - 1) * n_layers)
            ansatz = qsim.CircuitAnsatz(n, n_layers, angles)
            u = staircase_unitary(n, n_layers, angles)

            index = int(gen.integers(dim))
            unitary = qsim.ansatz_unitary(ansatz)
            worst = max(worst, float(np.max(np.abs(unitary[:, index] - u[:, index]))))
            worst = max(worst, float(np.max(np.abs(unitary.T[:, index] - u.conj().T[:, index]))))

            support_size = int(gen.integers(1, dim + 1))
            indices = np.sort(gen.choice(dim, size=support_size, replace=False))
            energies = gen.standard_normal(support_size)
            ham = hamiltonian_from_energies(n, indices, energies)
            k_dense = diagonal_hamiltonian_matrix(n, indices, energies)
            model = scaled_model(n, gen, 0.3)
            column = u[:, index]
            expected = np.real(column.conj() @ k_dense @ column)
            state = _manual_state(model, ansatz, ham)
            rows = embed.frequency_row(basis_counts([index], n))[None]
            _, routed, _ = train.batch_objective(state, rows)
            worst = max(worst, abs(routed - expected))

            samples = gen.integers(0, dim, size=6)
            model_ham = ebm.build_hamiltonian(model, samples)
            batch = np.array(
                [
                    embed.frequency_row(basis_counts(gen.integers(0, dim, size=8), n))
                    for _ in range(3)
                ]
            )
            q = np.zeros(dim)
            for row in batch:
                q += row
            q /= len(batch)
            sigma = np.diag(q).astype(complex)
            k_model = diagonal_hamiltonian_matrix(n, model_ham.support, model_ham.energies)
            state = _manual_state(model, ansatz, model_ham)
            loss, mean_exp, _ = train.batch_objective(state, batch)
            dense_exp = float(np.real(np.trace(u @ sigma @ u.conj().T @ k_model)))
            dense_loss = dense_exp + model_ham.log_partition
            worst = max(worst, abs(mean_exp - dense_exp), abs(loss - dense_loss))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _emit(
        capsys,
        f"A1 (dense oracle equivalence, n<=4): {_verdict(ok)} "
        f"max|diff|={worst:.3e} (tol 1e-10), {elapsed:.1f}s of 10s",
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_a2_gradients_match_finite_differences(capsys):
    """Parameter-shift angle gradients and analytic model gradients agree
    with central finite differences of the batch loss on 100 instances."""
    t0 = time.monotonic()
    gen = np.random.default_rng(2002)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 5))
        dim = 2**n
        n_layers = int(gen.integers(1, 3))
        model = scaled_model(n, gen, 0.4)
        n_angles = 2 * (n - 1) * n_layers
        ansatz = qsim.CircuitAnsatz(n, n_layers, gen.uniform(-np.pi, np.pi, n_angles))
        support_size = int(gen.integers(2, dim + 1))
        support = gen.choice(dim, size=support_size, replace=False)
        batch = np.array(
            [embed.frequency_row(basis_counts(gen.integers(0, dim, size=12), n)) for _ in range(2)]
        )

        def loss_of(m, a):
            # The support set is frozen; only the energies move with theta.
            ham = ebm.build_hamiltonian(m, support)
            state = _manual_state(m, a, ham)
            loss, _, weights = train.batch_objective(state, batch)
            return loss, ham, weights

        _, base_ham, base_weights = loss_of(model, ansatz)
        q = np.zeros(dim)
        for row in batch:
            q += row
        q /= len(batch)

        phi_analytic = train._phi_gradient(ansatz, qsim.ansatz_unitary(ansatz), base_ham, q)
        for k in range(n_angles):
            up, _, _ = loss_of(model, shifted(ansatz, k, +eps))
            down, _, _ = loss_of(model, shifted(ansatz, k, -eps))
            fd = (up - down) / (2.0 * eps)
            worst = max(worst, abs(phi_analytic[k] - fd) / max(abs(fd), 1.0))

        theta_analytic = ebm.theta_gradient(model, base_ham, base_weights)
        for field in ("weights", "visible_bias", "hidden_bias"):
            values = getattr(model, field)
            grads = theta_analytic[field]
            for index in np.ndindex(values.shape):
                losses = []
                for sign in (+eps, -eps):
                    perturbed = values.copy()
                    perturbed[index] += sign
                    shifted_model = dataclasses.replace(model, **{field: perturbed})
                    losses.append(loss_of(shifted_model, ansatz)[0])
                fd = (losses[0] - losses[1]) / (2.0 * eps)
                worst = max(worst, abs(grads[index] - fd) / max(abs(fd), 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    _emit(
        capsys,
        f"A2 (gradients vs finite differences, 100 instances): {_verdict(ok)} "
        f"max rel err={worst:.3e} (tol 1e-5), {elapsed:.1f}s of 30s",
    )
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_a3_sampler_matches_boltzmann_weights(capsys):
    """Chi-square agreement between 1e5 chain samples and the exact
    Boltzmann distribution on enumerable models, plus a negative control."""
    t0 = time.monotonic()
    pvalues = []
    for n_visible, seed in ((3, 5), (4, 5)):
        model = scaled_model(n_visible, substream(seed, "init"), 0.05)
        chain = ebm.initial_chain(model, substream(seed, "chain"))
        samples, _ = ebm.metropolis_sample(model, chain, 100, 100_000)
        counts = np.bincount(samples, minlength=2**n_visible)
        probs = boltzmann_distribution(ebm.free_energies(model, np.arange(2**n_visible)))
        _, pvalue = scipy.stats.chisquare(counts, probs * counts.sum())
        pvalues.append(float(pvalue))
    # Negative control: a sharply peaked model must fail a uniform fit.
    peaked = ebm.EnergyModel(np.array([[45.0], [45.0]]), np.zeros(2), np.array([-80.0]))
    chain = ebm.initial_chain(peaked, substream(6, "chain"))
    samples, _ = ebm.metropolis_sample(peaked, chain, 100, 100_000)
    counts = np.bincount(samples, minlength=4)
    _, p_control = scipy.stats.chisquare(counts)
    elapsed = time.monotonic() - t0
    ok = all(p > 0.01 for p in pvalues) and p_control < 1e-6 and elapsed < 60.0
    _emit(
        capsys,
        f"A3 (sampler chi-square vs exact weights): {_verdict(ok)} "
        f"p={pvalues[0]:.3f}/{pvalues[1]:.3f} (need >0.01), "
        f"control p={p_control:.1e} (need <1e-6), {elapsed:.1f}s of 60s",
    )
    for pvalue in pvalues:
        assert pvalue > 0.01
    assert p_control < 1e-6
    assert elapsed < 60.0


def test_a4_two_qubit_training_reaches_data_entropy(capsys):
    """Training on a two-pixel product-Bernoulli dataset drives the
    validation loss to within 0.1 nats of the analytic entropy."""
    t0 = time.monotonic()
    events = np.tile([0.3, 0.8], (50, 1))
    config = train.TrainConfig(
        n_qubits=2, n_mc_samples=250, n_embed_samples=400,
        max_epochs=40, batch_size=25, seed=11,
    )
    state, history = train.fit(config, events, events[:10])
    probs = np.array([0.3, 0.8])
    target = float(-np.sum(probs * np.log(probs) + (1 - probs) * np.log(1 - probs)))
    gap = abs(state.best_validation_loss - target)
    elapsed = time.monotonic() - t0
    ok = gap <= 0.1 and len(history) <= 100 and elapsed < 300.0
    _emit(
        capsys,
        f"A4 (2-qubit loss vs analytic entropy): {_verdict(ok)} "
        f"|loss-{target:.4f}|={gap:.4f} (tol 0.1), "
        f"{len(history)} epochs of 100, {elapsed:.1f}s of 300s",
    )
    assert gap <= 0.1
    assert len(history) <= 100
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def anomaly_study(tmp_path_factory):
    """The anomaly study script's report for 4 and 6 qubits, shared by A5 and A6.

    Every protocol flag is written out, so a change of the script's
    defaults does not move the gate.
    """
    t0 = time.monotonic()
    out = tmp_path_factory.mktemp("anomaly_study") / "study.json"
    assert run_script("run_anomaly_study", [
        "--qubits", "4,6", "--n-train", "300", "--n-valid", "60", "--n-test", "150",
        "--grid", "16", "--crop", "2", "--pool", "2",
        "--epochs", "40", "--batch-size", "25", "--n-embed-samples", "500", "--seed", "5",
        "--n-draws-t-zero", "256", "--n-draws-spectral", "2048",
        "--f-min", "0.05", "--total-time", "200", "--dt", "0.1",
        "--out", str(out),
    ]) == 0
    results = json.loads(out.read_text())["results"]
    return {"results": results, "seconds": time.monotonic() - t0}


def test_a5_time_zero_score_separates_signal(capsys, anomaly_study):
    """The 6-qubit time-zero anomaly score separates held-out signal from
    background, and scores nothing on a background-vs-background null."""
    # Reference run: signal AUC 0.766 (direction low), null AUC 0.521.
    six = anomaly_study["results"]["6"]
    auc, null_auc = six["auc_t_zero"], six["auc_t_zero_null"]
    elapsed = anomaly_study["seconds"]
    ok = auc >= 0.75 and abs(null_auc - 0.5) <= 0.05 and elapsed < 1200.0
    _emit(
        capsys,
        f"A5 (time-zero anomaly AUC, 6 qubits): {_verdict(ok)} "
        f"AUC={auc:.3f} (need >=0.75), null={null_auc:.3f} "
        f"(need 0.5+-0.05), {elapsed:.0f}s of 1200s",
    )
    assert auc >= 0.75
    assert abs(null_auc - 0.5) <= 0.05
    assert elapsed < 1200.0


def test_a6_spectral_score_improves_with_qubits(capsys, anomaly_study):
    """The spectral anomaly score beats chance by a clear margin at 6
    qubits and does not get worse when going up from 4 qubits."""
    # Reference run: spectral AUC 0.536 (4q) -> 0.668 (6q).
    aucs = {n: anomaly_study["results"][str(n)]["auc_spectral"] for n in (4, 6)}
    elapsed = anomaly_study["seconds"]
    ok = aucs[6] >= 0.6 and aucs[6] >= aucs[4] and elapsed < 1800.0
    _emit(
        capsys,
        f"A6 (spectral anomaly AUC, 4q vs 6q): {_verdict(ok)} "
        f"AUC 4q={aucs[4]:.3f}, 6q={aucs[6]:.3f} "
        f"(need 6q>=0.6 and 6q>=4q), {elapsed:.0f}s of 1800s",
    )
    assert aucs[6] >= 0.6
    assert aucs[6] >= aucs[4]
    assert elapsed < 1800.0


def test_a7_stepped_evolution_matches_one_shot(capsys):
    """5000 single steps of dt=0.1 under a diagonal generator, applied to
    a routed basis state, reproduce the library's one-shot fidelity series
    to T=500 at the 1e-9 level."""
    t0 = time.monotonic()
    gen = np.random.default_rng(7007)
    n = 4
    dim = 2**n
    indices = gen.choice(dim, size=10, replace=False)
    ham = hamiltonian_from_energies(n, indices, gen.standard_normal(10))
    angles = gen.uniform(-np.pi, np.pi, 2 * (n - 1) * 2)
    state = _manual_state(
        ebm.EnergyModel.initialize(n, 2 * n, gen), qsim.CircuitAnsatz(n, 2, angles), ham
    )
    event = gen.uniform(0.2, 0.8, size=n)
    table = anomaly.RoutingTable(state, 500.0, 0.1)
    series = anomaly.time_evolution_series(
        state, event, 500.0, 0.1, substream(7, "generation"), 1, table=table
    )
    draw = draw_indices(bernoulli_index_samples_reference(event, 1, substream(7, "generation")))[0]
    psi0 = staircase_unitary(n, 2, angles)[:, draw]
    stepped = psi0
    deviation = abs(series[0] - 1.0)
    for k in range(1, 5001):
        stepped, _ = evolve_diagonal(stepped, ham, 0.1, 0.1)
        deviation = max(deviation, abs(series[k] - abs(np.vdot(psi0, stepped)) ** 2))
    elapsed = time.monotonic() - t0
    ok = deviation <= 1e-9 and series.size == 5001 and elapsed < 10.0
    _emit(
        capsys,
        f"A7 (5000-step vs one-shot evolution, T=500): {_verdict(ok)} "
        f"max|diff|={deviation:.3e} (tol 1e-9), {elapsed:.1f}s of 10s",
    )
    assert deviation <= 1e-9
    assert series.size == 5001
    assert elapsed < 10.0


def test_a8_metric_identities_hold(capsys):
    """Fidelity/trace-distance bounds, entropy range, divergence
    positivity, and the spectrum sum rule on 1000 random instances, for
    the dense references and for the structured measures, which must also
    agree with the references."""
    t0 = time.monotonic()
    gen = np.random.default_rng(8008)
    worst = 0.0

    def check_bounds(fid, dist, ent, n):
        # Ranges and the Fuchs-van de Graaf sandwich.
        return max(
            -fid, fid - 1.0 - 1e-10,
            -dist, dist - 1.0 - 1e-10,
            (1.0 - np.sqrt(fid)) - dist - 1e-7,
            dist - np.sqrt(max(1.0 - fid, 0.0)) - 1e-7,
            -ent - 1e-9, ent - n * np.log(2.0) - 1e-9,
        )

    for instance in range(1000):
        n = 1 + instance % 3
        dim = 2**n
        a = random_density_matrix(dim, gen)
        b = random_density_matrix(dim, gen)
        fid = dense_fidelity(a, b)
        worst = max(worst, abs(fid - dense_fidelity(b, a)) - 1e-8)
        worst = max(worst, check_bounds(fid, dense_trace_distance(a, b), dense_entropy(a), n))

        # A structured pair against the references in both argument orders.
        s, u, p = random_structured_state(dim, gen)
        sigma, rho = np.diag(s), (u * p) @ u.T
        fid = metrics.fidelity(s, u, p)
        dist = metrics.trace_distance(s, u, p)
        ent = metrics.von_neumann_entropy(p)
        rel = metrics.quantum_relative_entropy(s, u, p)
        worst = max(worst, check_bounds(fid, dist, ent, n), -rel - 1e-12)
        worst = max(
            worst,
            abs(fid - dense_fidelity(sigma, rho)) - 1e-7,
            abs(fid - dense_fidelity(rho, sigma)) - 1e-7,
            abs(dist - dense_trace_distance(sigma, rho)) - 1e-12,
            abs(ent - dense_entropy(rho)) - 1e-12,
            # Relative to the value, which reaches ~30 nats where p has zeros.
            abs(rel - dense_relative_entropy(sigma, rho)) - 1e-12 * max(1.0, abs(rel)),
        )

        p = gen.dirichlet(np.ones(dim))
        q = gen.dirichlet(np.ones(dim))
        worst = max(worst, -metrics.kl_divergence(p, q) - 1e-12)

        values = gen.standard_normal(129)
        spec = metrics.power_spectrum(values, dt=0.2)
        total = float(np.sum(spec.power) * spec.resolution)
        worst = max(worst, abs(total - np.var(values)) / np.var(values) - 1e-8)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.0 and elapsed < 60.0
    _emit(
        capsys,
        f"A8 (metric identities, 1000 instances): {_verdict(ok)} "
        f"max violation={worst:.3e} (need <=0), {elapsed:.1f}s of 60s",
    )
    assert worst <= 0.0
    assert elapsed < 60.0


def test_a9_identical_seeds_reproduce_bitwise(capsys, tmp_path):
    """Two command-line training runs with the same seed produce
    bit-identical checkpoint and history files."""
    t0 = time.monotonic()
    raw_train = tmp_path / "raw_train.qhbimg"
    raw_valid = tmp_path / "raw_valid.qhbimg"
    train_data = tmp_path / "train.qhbimg"
    valid_data = tmp_path / "valid.qhbimg"
    assert cli_main([
        "synth", "--kind", "background", "--n-events", "12", "--grid", "12",
        "--seed", "1", "--out", str(raw_train),
    ]) == 0
    assert cli_main([
        "synth", "--kind", "background", "--n-events", "6", "--grid", "12",
        "--seed", "2", "--out", str(raw_valid),
    ]) == 0
    assert cli_main([
        "preprocess", "--input", str(raw_train), "--out", str(train_data),
        "--crop", "2", "--pool", "2", "--n-qubits", "4",
    ]) == 0
    _, _, meta = read_image_container(train_data)
    assert cli_main([
        "preprocess", "--input", str(raw_valid), "--out", str(valid_data),
        "--crop", "2", "--pool", "2", "--n-qubits", "4",
        "--scale-max", str(meta["scale_max"]),
    ]) == 0
    digests = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        assert cli_main([
            "train", "--train-data", str(train_data), "--valid-data", str(valid_data),
            "--outdir", str(outdir), "--n-qubits", "4", "--max-epochs", "3",
            "--n-mc-samples", "50", "--n-embed-samples", "30",
            "--batch-size", "4", "--seed", "20",
        ]) == 0
        digests.append(
            (
                hashlib.sha256((outdir / "checkpoint.qhbm").read_bytes()).hexdigest(),
                hashlib.sha256((outdir / "history.csv").read_bytes()).hexdigest(),
            )
        )
    elapsed = time.monotonic() - t0
    ok = digests[0] == digests[1]
    _emit(
        capsys,
        f"A9 (seeded runs bit-identical): {_verdict(ok)} "
        f"checkpoint sha256={digests[0][0][:12]}.., "
        f"history sha256={digests[0][1][:12]}.., {elapsed:.1f}s",
    )
    assert digests[0] == digests[1]


def test_a10_fidelity_improves_with_embedding_samples(capsys, tmp_path):
    """With a single fixed event, the median fidelity of the trained state
    to the exact embedded state does not decrease, and the median pixel
    divergence does not increase, as the number of embedding samples grows
    through 50, 500, 5000 at a fixed sampler budget."""
    # Reference run: median fidelity (0.9265, 0.9644, 0.9873) and
    # median divergence (0.1578, 0.0273, 0.0191) over seeds 101-109.
    t0 = time.monotonic()
    out = tmp_path / "sweep.json"
    assert run_script("run_embedding_sweep", [
        "--samples", "50,500,5000", "--n-seeds", "9", "--first-seed", "101",
        "--steps", "300", "--n-mc-samples", "500",
        "--grid", "16", "--crop", "2", "--pool", "2", "--synth-seed", "21",
        "--out", str(out),
    ]) == 0
    results = json.loads(out.read_text())["results"]
    median_fid = [results[n]["median_fidelity"] for n in ("50", "500", "5000")]
    median_kl = [results[n]["median_kl"] for n in ("50", "500", "5000")]
    elapsed = time.monotonic() - t0
    fid_ok = median_fid[0] <= median_fid[1] <= median_fid[2]
    kl_ok = median_kl[0] >= median_kl[1] >= median_kl[2]
    ok = fid_ok and kl_ok and elapsed < 2700.0
    _emit(
        capsys,
        f"A10 (embedding-sample sweep N=50/500/5000): {_verdict(ok)} "
        f"median fid=({median_fid[0]:.4f}, {median_fid[1]:.4f}, {median_fid[2]:.4f}) "
        f"median KL=({median_kl[0]:.4f}, {median_kl[1]:.4f}, {median_kl[2]:.4f}), "
        f"{elapsed:.0f}s of 2700s",
    )
    assert fid_ok, f"median fidelity not non-decreasing: {median_fid}"
    assert kl_ok, f"median divergence not non-increasing: {median_kl}"
    assert elapsed < 2700.0
