"""Smoke runs of the experiment scripts at their smallest sizes."""

import json

from script_runner import run_script


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
