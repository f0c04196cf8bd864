"""End-to-end tests of the command-line pipeline."""

import json

import numpy as np
import pytest

from qhbm.cli import main
from qhbm.io import (
    load_checkpoint,
    read_csv_skip_provenance,
    read_image_container,
    read_images_csv,
)


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> preprocess -> train pass shared by the command tests."""
    base = tmp_path_factory.mktemp("pipeline")
    paths = {
        "raw_train": base / "raw_train.qhbimg",
        "raw_valid": base / "raw_valid.qhbimg",
        "raw_signal": base / "raw_signal.qhbimg",
        "train": base / "train.qhbimg",
        "valid": base / "valid.qhbimg",
        "signal": base / "signal.qhbimg",
        "outdir": base / "run",
    }
    for kind, seed, n, out in (
        ("background", 1, 8, paths["raw_train"]),
        ("background", 2, 4, paths["raw_valid"]),
        ("signal", 3, 4, paths["raw_signal"]),
    ):
        assert run(
            "synth", "--kind", kind, "--n-events", str(n), "--grid", "12",
            "--seed", str(seed), "--out", str(out),
        ) == 0
    assert run(
        "preprocess", "--input", str(paths["raw_train"]), "--out", str(paths["train"]),
        "--crop", "2", "--pool", "2", "--n-qubits", "4",
    ) == 0
    _, meta = read_image_container(paths["train"])
    scale = str(meta["scale_max"])
    for raw, out in (
        (paths["raw_valid"], paths["valid"]),
        (paths["raw_signal"], paths["signal"]),
    ):
        assert run(
            "preprocess", "--input", str(raw), "--out", str(out),
            "--crop", "2", "--pool", "2", "--n-qubits", "4", "--scale-max", scale,
        ) == 0
    assert run(
        "train",
        "--train-data", str(paths["train"]),
        "--valid-data", str(paths["valid"]),
        "--outdir", str(paths["outdir"]),
        "--n-qubits", "4", "--max-epochs", "2", "--n-mc-samples", "30",
        "--n-embed-samples", "20", "--batch-size", "4", "--seed", "5",
    ) == 0
    paths["checkpoint"] = paths["outdir"] / "checkpoint.qhbm"
    paths["scale_max"] = scale
    return paths


class TestSynth:
    def test_writes_container_with_meta(self, pipeline):
        images, meta = read_image_container(pipeline["raw_train"])
        assert len(images) == 8
        assert all(im.intensities.shape == (12, 12) for im in images)
        assert all(im.label == "background" for im in images)
        assert meta["kind"] == "raw"
        assert meta["generator"] == "toy_jets"

    def test_deterministic_output(self, tmp_path):
        outs = [tmp_path / "a.qhbimg", tmp_path / "b.qhbimg"]
        for out in outs:
            assert run(
                "synth", "--kind", "signal", "--n-events", "3", "--grid", "10",
                "--seed", "7", "--out", str(out),
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "events.csv"
        assert run(
            "synth", "--kind", "background", "--n-events", "2", "--grid", "8",
            "--seed", "0", "--format", "csv", "--out", str(out),
        ) == 0
        images = read_images_csv(out)
        assert len(images) == 2
        assert images[0].intensities.shape == (8, 8)

    def test_zero_events(self, tmp_path):
        out = tmp_path / "none.qhbimg"
        assert run(
            "synth", "--kind", "signal", "--n-events", "0", "--grid", "8",
            "--seed", "0", "--out", str(out),
        ) == 0
        images, _ = read_image_container(out)
        assert images == []

    def test_invalid_parameters_exit_2(self, tmp_path):
        code = run(
            "synth", "--kind", "signal", "--n-events", "-3", "--grid", "8",
            "--seed", "0", "--out", str(tmp_path / "x.qhbimg"),
        )
        assert code == 2


class TestPreprocess:
    def test_probability_events_and_meta(self, pipeline):
        events, meta = read_image_container(pipeline["train"])
        assert meta["kind"] == "probabilities"
        assert meta["pooled_side"] == 4
        assert meta["layout"] == [5, 6, 9, 10]
        assert meta["scale_max"] == pytest.approx(float(pipeline["scale_max"]))
        assert len(events) == 8
        for event in events:
            assert event.intensities.shape == (1, 4)
            assert np.all(event.intensities > 0.0)
            assert np.all(event.intensities < 1.0)

    def test_custom_layout(self, pipeline, tmp_path):
        out = tmp_path / "custom.qhbimg"
        assert run(
            "preprocess", "--input", str(pipeline["raw_train"]), "--out", str(out),
            "--crop", "2", "--pool", "2", "--layout", "0,1,2",
        ) == 0
        events, meta = read_image_container(out)
        assert meta["layout"] == [0, 1, 2]
        assert events[0].intensities.shape == (1, 3)

    def test_strict_mode_rejects_remainder(self, tmp_path):
        raw = tmp_path / "odd.qhbimg"
        assert run(
            "synth", "--kind", "background", "--n-events", "2", "--grid", "13",
            "--seed", "0", "--out", str(raw),
        ) == 0
        code = run(
            "preprocess", "--input", str(raw), "--out", str(tmp_path / "o.qhbimg"),
            "--crop", "2", "--pool", "2", "--n-qubits", "4", "--strict",
        )
        assert code == 2

    def test_missing_input_exit_3(self, tmp_path):
        code = run(
            "preprocess", "--input", str(tmp_path / "absent.qhbimg"),
            "--out", str(tmp_path / "o.qhbimg"),
        )
        assert code == 3


class TestTrain:
    def test_outputs(self, pipeline):
        assert pipeline["checkpoint"].exists()
        header, rows = read_csv_skip_provenance(pipeline["outdir"] / "history.csv")
        assert header == ["epoch", "train_loss", "validation_loss", "learning_rate"]
        assert [r[0] for r in rows] == ["1", "2"]
        metrics = json.loads((pipeline["outdir"] / "metrics.json").read_text())
        assert {
            "fidelity",
            "trace_distance",
            "quantum_relative_entropy",
            "pixel_kl",
            "data_entropy",
            "model_entropy",
            "n_events",
        } <= set(metrics)
        state, config, history = load_checkpoint(pipeline["checkpoint"])
        assert config.n_qubits == 4
        assert len(history) == 2
        assert state.ansatz.angles.size == 2 * 3 * 3

    def test_print_config_resolves_flags(self, capsys):
        assert run(
            "train", "--print-config", "--n-qubits", "4", "--seed", "9",
            "--train-data", "t.qhbimg",
        ) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["n_qubits"] == 4
        assert resolved["seed"] == 9
        assert resolved["train_data"] == "t.qhbimg"

    def test_scenario_preset_and_override(self, capsys):
        assert run("train", "--print-config", "--scenario", "six_qubit") == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["n_qubits"] == 6
        assert resolved["n_embed_samples"] == 5000
        assert resolved["scenario"] == "six_qubit"
        assert run(
            "train", "--print-config", "--scenario", "six_qubit", "--n-qubits", "4"
        ) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["n_qubits"] == 4

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"learning_rate": 0.005, "n_qubits": 6}))
        assert run(
            "train", "--print-config", "--config", str(cfg), "--n-qubits", "4"
        ) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["learning_rate"] == 0.005
        assert resolved["n_qubits"] == 4

    def test_config_file_errors_exit_2(self, tmp_path):
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"gradient_steps": 5}))
        assert run("train", "--print-config", "--config", str(unknown)) == 2
        invalid = tmp_path / "invalid.json"
        invalid.write_text("{not json")
        assert run("train", "--print-config", "--config", str(invalid)) == 2
        assert run("train", "--print-config", "--config", str(tmp_path / "no.json")) == 2

    def test_missing_required_setting_exit_2(self, pipeline):
        code = run(
            "train", "--train-data", str(pipeline["train"]),
            "--valid-data", str(pipeline["valid"]),
        )
        assert code == 2

    def test_missing_dataset_exit_3(self, tmp_path):
        code = run(
            "train", "--train-data", str(tmp_path / "absent.qhbimg"),
            "--valid-data", str(tmp_path / "absent2.qhbimg"),
            "--outdir", str(tmp_path / "out"),
        )
        assert code == 3

    def test_raw_container_rejected_exit_3(self, pipeline, tmp_path):
        code = run(
            "train", "--train-data", str(pipeline["raw_train"]),
            "--valid-data", str(pipeline["raw_valid"]),
            "--outdir", str(tmp_path / "out"),
            "--n-qubits", "4", "--max-epochs", "1",
        )
        assert code == 3

    def test_identical_runs_bit_identical(self, pipeline, tmp_path):
        outdirs = [tmp_path / "r1", tmp_path / "r2"]
        for outdir in outdirs:
            assert run(
                "train",
                "--train-data", str(pipeline["train"]),
                "--valid-data", str(pipeline["valid"]),
                "--outdir", str(outdir),
                "--n-qubits", "4", "--max-epochs", "2", "--n-mc-samples", "30",
                "--n-embed-samples", "20", "--batch-size", "4", "--seed", "5",
            ) == 0
        assert (outdirs[0] / "checkpoint.qhbm").read_bytes() == (
            outdirs[1] / "checkpoint.qhbm"
        ).read_bytes()
        assert (outdirs[0] / "history.csv").read_bytes() == (
            outdirs[1] / "history.csv"
        ).read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exit_4(self, pipeline, tmp_path, capsys):
        code = run(
            "train",
            "--train-data", str(pipeline["train"]),
            "--valid-data", str(pipeline["valid"]),
            "--outdir", str(tmp_path / "out"),
            "--n-qubits", "4", "--max-epochs", "1", "--n-mc-samples", "30",
            "--n-embed-samples", "20", "--batch-size", "4", "--seed", "5",
            "--learning-rate", "1e308",
        )
        assert code == 4
        assert "epoch 1 step 1:" in capsys.readouterr().err

    def test_resume_extends_history(self, pipeline, tmp_path):
        outdir = tmp_path / "resumed"
        assert run(
            "train", "--resume", str(pipeline["checkpoint"]),
            "--train-data", str(pipeline["train"]),
            "--valid-data", str(pipeline["valid"]),
            "--outdir", str(outdir),
            "--max-epochs", "4",
        ) == 0
        _, rows = read_csv_skip_provenance(outdir / "history.csv")
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]


class TestEvaluate:
    def test_outputs(self, pipeline, tmp_path):
        outdir = tmp_path / "eval"
        assert run(
            "evaluate", "--checkpoint", str(pipeline["checkpoint"]),
            "--test", str(pipeline["valid"]), "--outdir", str(outdir),
            "--batch-size", "2", "--generation-samples", "200",
        ) == 0
        header, rows = read_csv_skip_provenance(outdir / "batch_metrics.csv")
        assert header[0] == "batch"
        assert len(rows) == 2
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["n_events"] == 4
        assert summary["batch_size"] == 2
        assert "background" in summary["label_entropy"]
        assert 0.0 <= summary["fidelity"]["mean"] <= 1.0 + 1e-8
        assert summary["model_entropy"] >= 0.0

    def test_missing_checkpoint_exit_3(self, pipeline, tmp_path):
        code = run(
            "evaluate", "--checkpoint", str(tmp_path / "absent.qhbm"),
            "--test", str(pipeline["valid"]), "--outdir", str(tmp_path / "e"),
        )
        assert code == 3

    def test_wrong_event_width_exit_3(self, pipeline, tmp_path):
        narrow = tmp_path / "narrow.qhbimg"
        assert run(
            "preprocess", "--input", str(pipeline["raw_valid"]), "--out", str(narrow),
            "--crop", "2", "--pool", "2", "--layout", "0,1",
        ) == 0
        code = run(
            "evaluate", "--checkpoint", str(pipeline["checkpoint"]),
            "--test", str(narrow), "--outdir", str(tmp_path / "e"),
        )
        assert code == 3


class TestGenerate:
    def test_generated_events_csv(self, pipeline, tmp_path):
        out = tmp_path / "generated.csv"
        assert run(
            "generate", "--checkpoint", str(pipeline["checkpoint"]),
            "--n-events", "10", "--seed", "4", "--out", str(out),
        ) == 0
        header, rows = read_csv_skip_provenance(out)
        assert header == ["event", "bits", "basis_index"]
        assert len(rows) == 10
        for row in rows:
            assert len(row[1]) == 4
            assert int(row[1], 2) == int(row[2])


class TestAnomaly:
    def test_report_files(self, pipeline, tmp_path):
        outdir = tmp_path / "anomaly"
        assert run(
            "anomaly", "--checkpoint", str(pipeline["checkpoint"]),
            "--signal", str(pipeline["signal"]),
            "--background", str(pipeline["valid"]),
            "--outdir", str(outdir),
            "--total-time", "20", "--dt", "0.1", "--n-draws", "2",
            "--f-min", "0.2", "--n-thresholds", "50", "--seed", "3",
        ) == 0
        for name in (
            "scores_t_zero.csv",
            "scores_spectral.csv",
            "roc_t_zero.csv",
            "roc_spectral.csv",
            "series_signal.csv",
            "series_background.csv",
            "spectrum_signal.csv",
            "spectrum_background.csv",
        ):
            assert (outdir / name).exists()
        summary = json.loads((outdir / "auc_summary.json").read_text())
        assert summary["n_signal"] == 4
        assert summary["n_background"] == 4
        for mode in ("t_zero", "spectral"):
            assert 0.5 <= summary[f"auc_{mode}"] <= 1.0
            assert summary[f"direction_{mode}"] in ("high", "low")
        _, rows = read_csv_skip_provenance(outdir / "scores_t_zero.csv")
        assert [r[1] for r in rows] == ["signal"] * 4 + ["background"] * 4
        _, series_rows = read_csv_skip_provenance(outdir / "series_signal.csv")
        assert len(series_rows) == 201


class TestSiteEntropy:
    @pytest.mark.parametrize("mode", ["dressed", "diagonal"])
    def test_profile_csv(self, pipeline, tmp_path, mode):
        out = tmp_path / f"site_{mode}.csv"
        assert run(
            "site-entropy", "--checkpoint", str(pipeline["checkpoint"]),
            "--mode", mode, "--out", str(out),
        ) == 0
        header, rows = read_csv_skip_provenance(out)
        assert header == ["pair", "entropy"]
        assert [r[0] for r in rows] == ["0-1", "1-2", "2-3"]
        for row in rows:
            assert float(row[1]) >= -1e-12


class TestParser:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2
