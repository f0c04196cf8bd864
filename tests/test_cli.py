"""End-to-end tests of the command-line pipeline."""

import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qhbm import anomaly, cli, metrics, qsim
from qhbm.cli import TRAIN_KEYS, build_parser, main
from qhbm.embed import PixelImage
from qhbm.io import (
    load_checkpoint,
    read_csv_skip_provenance,
    read_image_container,
    write_image_container,
)

from checkpoint_faults import FAULTS, save_with_stored_config, write_corrupt_checkpoint


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

    def test_csv_format_is_unknown_exit_2(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        with pytest.raises(SystemExit) as exc:
            run(
                "synth", "--kind", "background", "--n-events", "2", "--grid", "8",
                "--seed", "0", "--format", "csv", "--out", str(out),
            )
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

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
        assert (meta["crop"], meta["pool"]) == (2, 2)
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

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_bad_scale_max_exit_2_before_output(self, pipeline, tmp_path, capsys, value):
        out = tmp_path / "o.qhbimg"
        code = run(
            "preprocess", "--input", str(pipeline["raw_valid"]), "--out", str(out),
            "--crop", "2", "--pool", "2", "--n-qubits", "4", "--scale-max", value,
        )
        assert code == 2
        assert "scale_max must be finite and positive" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(f"{out}.json").exists()

    def test_non_square_pooled_grid_exit_3(self, tmp_path, capsys):
        raw = tmp_path / "wide.qhbimg"
        write_image_container(raw, [PixelImage(np.ones((12, 16)))], {"kind": "raw"})
        out = tmp_path / "o.qhbimg"
        code = run("preprocess", "--input", str(raw), "--out", str(out), "--n-qubits", "4")
        assert code == 3
        assert "pixel layouts need a square grid" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exit_3(self, tmp_path):
        code = run(
            "preprocess", "--input", str(tmp_path / "absent.qhbimg"),
            "--out", str(tmp_path / "o.qhbimg"),
        )
        assert code == 3

    def test_csv_input_exit_3(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("r0c0,r0c1,label,weight\n0.5,0.25,background,1.0\n")
        out = tmp_path / "o.qhbimg"
        code = run("preprocess", "--input", str(raw), "--out", str(out), "--n-qubits", "4")
        assert code == 3
        assert f"data error: {raw}" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "setting", [{"batch_size": 2.5}, {"n_qubits": 4.0}, {"max_epochs": True}]
    )
    def test_non_integer_config_value_exit_2(self, pipeline, tmp_path, capsys, setting):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_qubits": 4, "max_epochs": 1} | setting))
        code = run(
            "train", "--config", str(cfg), "--train-data", str(pipeline["train"]),
            "--valid-data", str(pipeline["valid"]), "--outdir", str(tmp_path / "run"),
        )
        assert code == 2
        (name,) = setting
        assert f"{name} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--learning-rate", "5"], "--learning-rate"),
            (["--seed", "1", "--n-layers", "2"], "--n-layers, --seed"),
            (["--scenario", "six_qubit"], "--scenario"),
            (["--config", "CONFIG"], "--config"),
        ],
        ids=["flag", "two_flags", "scenario", "config"],
    )
    def test_resume_rejects_ignored_settings(self, pipeline, tmp_path, capsys, extra, named):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"learning_rate": 0.5}))
        outdir = tmp_path / "resumed"
        code = run(
            "train", "--resume", str(pipeline["checkpoint"]),
            "--train-data", str(pipeline["train"]),
            "--valid-data", str(pipeline["valid"]),
            "--outdir", str(outdir), "--max-epochs", "4",
            *[str(config) if a == "CONFIG" else a for a in extra],
        )
        assert code == 2
        assert named in capsys.readouterr().err
        assert not outdir.exists()


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

    @pytest.mark.parametrize("flag", ["--batch-size", "--generation-samples"])
    def test_zero_size_exit_2(self, pipeline, tmp_path, capsys, flag):
        outdir = tmp_path / "eval"
        code = run(
            "evaluate", "--checkpoint", str(pipeline["checkpoint"]),
            "--test", str(pipeline["valid"]), "--outdir", str(outdir), flag, "0",
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not outdir.exists()

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

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_corrupt_checkpoint_exit_3(self, pipeline, tmp_path, capsys, fault):
        bad = tmp_path / "bad.qhbm"
        write_corrupt_checkpoint(pipeline["checkpoint"], bad, fault)
        code = run(
            "generate", "--checkpoint", str(bad),
            "--n-events", "3", "--out", str(tmp_path / "generated.csv"),
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_retired_mode_in_checkpoint_exit_3(self, pipeline, tmp_path, capsys):
        state, config, history = load_checkpoint(pipeline["checkpoint"])
        old = tmp_path / "old.qhbm"
        save_with_stored_config(old, state, config, history, {"latent_mode": "maximally_mixed"})
        code = run(
            "generate", "--checkpoint", str(old),
            "--n-events", "3", "--out", str(tmp_path / "generated.csv"),
        )
        assert code == 3
        assert "latent_mode='maximally_mixed'" in capsys.readouterr().err


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

    def test_one_routing_table_per_run(self, pipeline, tmp_path, monkeypatch):
        """Every pass reads one table, with the outputs of one table per pass.

        The per-pass run drops the ``table`` argument, so each scoring and
        series pass builds its own table as a separate call would.
        """
        def anomaly_run(outdir):
            calls = []
            unitary = qsim.ansatz_unitary

            def counted(ansatz):
                calls.append(ansatz)
                return unitary(ansatz)

            with monkeypatch.context() as patch:
                patch.setattr(qsim, "ansatz_unitary", counted)
                assert run(
                    "anomaly", "--checkpoint", str(pipeline["checkpoint"]),
                    "--signal", str(pipeline["signal"]),
                    "--background", str(pipeline["valid"]),
                    "--outdir", str(outdir),
                    "--total-time", "20", "--dt", "0.1", "--n-draws", "16",
                    "--f-min", "0.2", "--n-thresholds", "50", "--seed", "3",
                ) == 0
            return len(calls)

        def per_pass(fn):
            def call(*args, table=None, **kwargs):
                return fn(*args, **kwargs)

            return call

        assert anomaly_run(tmp_path / "shared") == 1
        with monkeypatch.context() as patch:
            patch.setattr(anomaly, "score_events", per_pass(anomaly.score_events))
            patch.setattr(anomaly, "event_series", per_pass(anomaly.event_series))
            # The run's own table, now unused, then one per pass: t_zero
            # scores, spectral scores and the series, for each class.
            assert anomaly_run(tmp_path / "per_pass") == 1 + 6

        def values(outdir, name):
            header, rows = read_csv_skip_provenance(outdir / name)
            numeric = [i for i, column in enumerate(header) if column not in ("event", "label")]
            return np.array([[float(row[i]) for i in numeric] for row in rows])

        for name in ("scores_t_zero.csv", "roc_t_zero.csv"):
            shared, own = (tmp_path / run_dir / name for run_dir in ("shared", "per_pass"))
            assert shared.read_text() == own.read_text()
        for name in (
            "scores_spectral.csv", "series_signal.csv", "series_background.csv",
            "spectrum_signal.csv", "spectrum_background.csv",
        ):
            got, want = values(tmp_path / "shared", name), values(tmp_path / "per_pass", name)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("blocks", [None, (3, 5)], ids=["module_blocks", "small_blocks"])
    @pytest.mark.parametrize("n_events, n_points", [(1, 201), (7, 201), (40, 13), (40, 2049)])
    def test_class_statistics_match_whole_array_reductions_bitwise(
        self, monkeypatch, blocks, n_events, n_points
    ):
        """The blocked per-class series statistics are NumPy's axis-0 ones, bit for bit."""
        if blocks is not None:
            monkeypatch.setattr(cli, "_EVENT_BLOCK", blocks[0])
            monkeypatch.setattr(cli, "_TIME_BLOCK", blocks[1])
        gen = np.random.default_rng(n_events * n_points)
        # Magnitudes far apart, so that any other order of addition changes low bits.
        stack = gen.random((n_events, n_points)) * 10.0 ** gen.integers(-8, 1, (n_events, 1))
        mean, std = cli._series_moments(stack)
        assert mean.tobytes() == np.mean(stack, axis=0).tobytes()
        assert std.tobytes() == np.std(stack, axis=0).tobytes()
        frequencies, mean_power = cli._mean_power(stack, 0.1)
        spectrum = metrics.power_spectrum(stack, 0.1)
        assert frequencies.tobytes() == spectrum.frequencies.tobytes()
        assert mean_power.tobytes() == spectrum.power.mean(axis=0).tobytes()

    @pytest.mark.parametrize(
        "flag, value",
        [("--total-time", "inf"), ("--total-time", "nan"), ("--dt", "nan"), ("--f-min", "nan")],
    )
    def test_non_finite_grid_exits_2_before_scoring(self, pipeline, tmp_path, capsys, flag, value):
        outdir = tmp_path / "anomaly"
        args = {"--total-time": "20", "--dt": "0.1", "--f-min": "0.2"} | {flag: value}
        code = run(
            "anomaly", "--checkpoint", str(pipeline["checkpoint"]),
            "--signal", str(pipeline["signal"]),
            "--background", str(pipeline["valid"]),
            "--outdir", str(outdir), "--n-draws", "2",
            *(item for pair in args.items() for item in pair),
        )
        assert code == 2
        assert "invalid parameter" in capsys.readouterr().err
        assert not (outdir / "scores_t_zero.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--n-draws", "0"), ("--n-thresholds", "1")])
    def test_bad_counts_exit_2_before_output(self, pipeline, tmp_path, capsys, flag, value):
        outdir = tmp_path / "anomaly"
        args = {"--n-draws": "2", "--n-thresholds": "50"} | {flag: value}
        code = run(
            "anomaly", "--checkpoint", str(pipeline["checkpoint"]),
            "--signal", str(pipeline["signal"]),
            "--background", str(pipeline["valid"]),
            "--outdir", str(outdir), "--total-time", "20", "--dt", "0.1", "--f-min", "0.2",
            *(item for pair in args.items() for item in pair),
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not outdir.exists()


# Probability containers whose rows are not 1..10 probabilities inside
# (0, 1): rows and the index of the first bad event.
BAD_PROBABILITY_ROWS = {
    "no_columns": (np.zeros((2, 0)), 0),
    "out_of_range": (np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 1.5, 0.5, 0.5]]), 1),
    "too_many_columns": (np.full((2, 12), 0.5), 0),
}


@pytest.mark.parametrize("rows", sorted(BAD_PROBABILITY_ROWS))
@pytest.mark.parametrize("command", ["train", "evaluate", "anomaly"])
def test_bad_probability_rows_exit_3(pipeline, tmp_path, capsys, command, rows):
    values, bad_event = BAD_PROBABILITY_ROWS[rows]
    bad = tmp_path / "bad.qhbimg"
    write_image_container(
        bad, [PixelImage(row.reshape(1, -1)) for row in values], {"kind": "probabilities"}
    )
    outdir = tmp_path / "out"
    checkpoint = str(pipeline["checkpoint"])
    argv = {
        "train": ["--train-data", str(bad), "--valid-data", str(pipeline["valid"]),
                  "--n-qubits", "4", "--max-epochs", "1"],
        "evaluate": ["--checkpoint", checkpoint, "--test", str(bad)],
        "anomaly": ["--checkpoint", checkpoint, "--signal", str(bad),
                    "--background", str(pipeline["valid"])],
    }[command]
    assert run(command, *argv, "--outdir", str(outdir)) == 3
    assert f"data error: {bad} event {bad_event}: " in capsys.readouterr().err
    assert not outdir.exists()


# Containers that are not one row of probabilities per event: images and meta.
NOT_PROBABILITY_CONTAINERS = {
    # Probabilities, but 2x2 images: four pixels that are not a preprocessed row.
    "probabilities_2x2": ([PixelImage(np.full((2, 2), 0.5))] * 2, {"kind": "probabilities"}),
    "raw_one_row": ([PixelImage(np.full((1, 4), 0.5))] * 2, {"kind": "raw"}),
}


@pytest.mark.parametrize("container", sorted(NOT_PROBABILITY_CONTAINERS))
@pytest.mark.parametrize("command", ["train", "anomaly"])
def test_non_probability_container_exit_3(pipeline, tmp_path, capsys, command, container):
    images, meta = NOT_PROBABILITY_CONTAINERS[container]
    bad = tmp_path / "bad.qhbimg"
    write_image_container(bad, images, meta)
    outdir = tmp_path / "out"
    argv = {
        "train": ["--train-data", str(bad), "--valid-data", str(pipeline["valid"]),
                  "--n-qubits", "4", "--max-epochs", "1"],
        "anomaly": ["--checkpoint", str(pipeline["checkpoint"]), "--signal", str(bad),
                    "--background", str(pipeline["valid"])],
    }[command]
    assert run(command, *argv, "--outdir", str(outdir)) == 3
    assert f"data error: {bad} is not a preprocessed probability container" in (
        capsys.readouterr().err
    )
    assert not outdir.exists()


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
    def test_parser_is_built_once_and_commands_are_looked_up_per_call(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "bg.qhbimg"
        assert run("synth", "--kind", "background", "--n-events", "1", "--out", str(out)) == 0
        assert build_parser() is build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_generate", lambda args: calls.append(args) or 7)
        argv = ("generate", "--checkpoint", "m.qhbm", "--n-events", "3", "--out", "g.csv")
        assert run(*argv) == 7
        assert [(a.command, a.n_events) for a in calls] == [("generate", 3)]

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_readme_lists_train_flags_and_config_file_keys(self):
        # The README's "Training configuration" section names every
        # TrainConfig field once: as a flag of `train` or as a key that
        # only a config file can set.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Training configuration", 1)[1].split("\n## ", 1)[0]
        flag_text = re.search(r"fields have flags:(.*?)\.\s", section, re.S).group(1)
        key_text = re.search(r"The rest\s+\((.*?)\)\s+are config-file keys only", section, re.S).group(1)

        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flagged = {
            a.dest: a.option_strings[0]
            for a in subparsers.choices["train"]._actions
            if a.dest in TRAIN_KEYS
        }
        assert set(re.findall(r"`(--[a-z-]+)`", flag_text)) == set(flagged.values())
        assert set(re.findall(r"`([a-z_0-9]+)`", key_text)) == TRAIN_KEYS - set(flagged)

    def test_readme_toy_run_parses(self):
        # Every `qhbm` command of the README toy run is accepted by the parser.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A complete toy run:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("qhbm ")]
        assert [argv[0] for argv in commands] == [
            "synth", "synth", "synth", "preprocess", "preprocess", "preprocess",
            "train", "evaluate", "generate", "anomaly", "site-entropy",
        ]
        parser = build_parser()
        for argv in commands:
            parser.parse_args(["1.5" if arg == "$SCALE" else arg for arg in argv])
