"""Smoke runs of the experiment scripts at their smallest sizes."""

import json

import numpy as np

from qhbm.embed import product_distributions
from qhbm.rng import substream

from script_runner import load_script, run_script


def test_embedding_sweep_writes_report(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_script("run_embedding_sweep", [
        "--samples", "20,40", "--n-seeds", "1", "--steps", "2",
        "--n-mc-samples", "50", "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    assert set(report["results"]) == {"20", "40"}
    for row in report["results"].values():
        assert set(row) == {"median_fidelity", "median_kl", "fidelities", "kls", "seconds"}
        assert 0.0 <= row["median_fidelity"] <= 1.0
        assert row["median_kl"] >= 0.0


def test_embedding_sweep_samples_are_nested():
    # Each seed's larger samples extend its smaller ones, whatever order
    # the sample counts are given in.  Independent samples of 100 and
    # 101 draws would almost never be elementwise ordered.
    sweep = load_script("run_embedding_sweep")
    (distribution,) = product_distributions(np.array([[0.2, 0.5, 0.7, 0.9]]))
    sizes = [500, 1, 50, 5000, 50, *range(109, 99, -1)]
    for seed in (101, 102, 103):
        counts = sweep.nested_counts(distribution, sizes, substream(seed, "embedding", "sweep", 0))
        assert sorted(counts) == sorted(set(sizes))
        for n, row in counts.items():
            assert row.shape == (16,) and row.sum() == n
        ordered = [counts[n] for n in sorted(counts)]
        for smaller, larger in zip(ordered, ordered[1:]):
            assert np.all(smaller <= larger)


def test_anomaly_study_writes_report(tmp_path):
    out = tmp_path / "study.json"
    assert run_script("run_anomaly_study", [
        "--qubits", "4", "--n-train", "20", "--n-valid", "5", "--n-test", "10",
        "--epochs", "1", "--batch-size", "10", "--n-embed-samples", "20",
        "--n-draws-t-zero", "8", "--n-draws-spectral", "8", "--total-time", "5",
        "--out", str(out),
    ]) == 0
    row = json.loads(out.read_text())["results"]["4"]
    assert set(row) == {
        "epochs", "best_validation_loss", "auc_t_zero", "direction_t_zero",
        "auc_t_zero_null", "auc_spectral", "direction_spectral", "seconds",
    }
    assert row["epochs"] == 1
    for key in ("auc_t_zero", "auc_t_zero_null", "auc_spectral"):
        assert 0.5 <= row[key] <= 1.0
