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


def test_bench_pairs_summary_on_fixed_numbers():
    pairs = load_script("bench_pairs")
    spec = {"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]}
    parent = {"wall_s": [10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
              "peak_rss_mb": [40.0] * 10,
              "setup_s": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}
    # The change wins nine pairs by 3 s (the parent's IQR is 4.5 s, so the
    # gain is too small) and loses one, holds 45 MB against 40 MB, and
    # spreads its set-up like the parent.
    change = {"wall_s": [7, 8, 9, 10, 11, 12, 13, 14, 15, 20],
              "peak_rss_mb": [45.0] * 10,
              "setup_s": [2, 1, 4, 3, 6, 5, 8, 7, 10, 9]}

    def records(parent, change):
        rows = []
        for i in range(10):
            for side, values in (("parent", parent), ("change", change)):
                metrics = {k: {"value": float(v[i]), "unit": "s"} for k, v in values.items()}
                rows.append({"pair": i + 1, "side": side, "workload": "train-8q", "seed": 5,
                             "result": {"correct": True, "metrics": metrics}})
        return rows

    runs = records(parent, change)
    runs.append({"pair": 11, "side": "change", "workload": "train-8q", "seed": 5,
                 "result": {"correct": False, "error": "exit 1: boom"}})
    lines = pairs.summarise(runs, spec, {("train-8q", "wall_s")})
    assert lines[0] == "FAILED pair 11 train-8q change: exit 1: boom"
    rows = {line.split()[1]: line for line in lines[2:]}
    assert rows["wall_s"].split()[2:4] == ["12.25/14.5/16.75", "9.25/11.5/13.75"]
    assert "9/10 wins; claim NOT met (9/10 wins, gain 3 vs parent IQR 4.5)" in rows["wall_s"]
    assert rows["peak_rss_mb"].endswith("0/10 wins; beyond bound (+12.5% worse, bound 10%)")
    assert rows["setup_s"].endswith("5/10 wins; unresolved (parent IQR 4.5 > bound 0.25 x median)")

    # Ten wins by 5 s clear the parent's IQR; a tighter set-up spread and
    # a small memory rise are within their bounds.
    change["wall_s"] = [v - 5 for v in parent["wall_s"]]
    change["peak_rss_mb"] = [41.0] * 10
    parent["setup_s"] = change["setup_s"] = [1.0] * 10
    lines = pairs.summarise(records(parent, change), spec, {("train-8q", "wall_s")})
    rows = {line.split()[1]: line for line in lines[1:]}
    assert "10/10 wins; claim met (10/10 wins, gain 5 vs parent IQR 4.5)" in rows["wall_s"]
    assert rows["peak_rss_mb"].endswith("0/10 wins; within bound")
    assert rows["setup_s"].endswith("0/10 wins; within bound")
    # Every run of the change beating every run of the parent resolves a wide spread.
    change["setup_s"] = [0.5] * 10
    parent["setup_s"] = [1.0, 10.0] * 5
    lines = pairs.summarise(records(parent, change), spec, set())
    assert lines[-1].endswith("10/10 wins; within bound (change better in every run)")
