"""Tests for containers, checkpoints, and provenance-stamped CSV files."""

import csv
import dataclasses
import json
import re
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qhbm
from qhbm import ebm
from qhbm.embed import frequency_row
from qhbm.errors import DataError
from qhbm.io import (
    CKPT_MAGIC,
    IMAGE_MAGIC,
    config_hash,
    load_checkpoint,
    read_image_container,
    save_checkpoint,
    write_csv_with_provenance,
    write_image_container,
    write_json,
)
from qhbm.train import TrainConfig, fit, init_train_state, snapshot, train_step

from checkpoint_faults import (
    FAULTS,
    read_layout,
    rewrite,
    save_with_stored_config,
    set_field,
    write_corrupt_checkpoint,
    write_version_1,
)
from oracles import read_csv_skip_provenance


def sample_images():
    """An (E, H, W) stack of three 4 x 5 images and their labels."""
    rng = np.random.default_rng(3)
    # Quarter-steps survive the f32 storage format bit-exactly.
    grids = np.round(rng.uniform(0, 8, size=(3, 4, 5)) * 4) / 4.0
    return grids, ["signal", "background", "unlabelled"]


# The retired protocol modes, circuit orientation, loss scales, initial
# scales and Adam constants at the values that are now built in, as
# checkpoints written before their removal store them.
BUILT_IN_MODES = {
    "embed_mode": "presampled",
    "proposal": "uniform",
    "duplicate_mode": "dedupe",
    "partition_mode": "support",
    "latent_mode": "thermal",
    "adjoint_convention": False,
    "beta": 1.0,
    "k_beta": 1.0,
    "weight_scale": 0.01,
    "angle_scale": 0.01,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
}


def _sidecar_text(text):
    return lambda path: path.with_name(path.name + ".json").write_text(text)


def _sidecar_with(**changes):
    def corrupt(path):
        sidecar = path.with_name(path.name + ".json")
        sidecar.write_text(json.dumps(json.loads(sidecar.read_text()) | changes))
    return corrupt


def _set_pixel(path, index, value):
    """Overwrite pixel ``index`` of the flat f32 payload with ``value``."""
    raw = bytearray(path.read_bytes())
    start = len(IMAGE_MAGIC) + 12 + 4 * index
    raw[start : start + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(raw))


def _nan_first_pixel(path):
    _set_pixel(path, 0, np.nan)


def _nonfinite_pixels(*pixels):
    """Set each (flat index, value) of the payload; the images are 4 x 5 = 20 pixels."""
    def corrupt(path):
        for index, value in pixels:
            _set_pixel(path, index, value)
    return corrupt


# Corruption of each malformed image container.
MALFORMED_FILES = {
    "sidecar_not_json": _sidecar_text("{labels: ["),
    "sidecar_not_object": _sidecar_text("[1, 2, 3]"),
    "sidecar_labels_not_list": _sidecar_with(labels=3),
    "sidecar_unknown_label": _sidecar_with(labels=["muon", "signal", "signal"]),
    "sidecar_text_weight": _sidecar_with(weights=["heavy", 1.0, 1.0]),
    "sidecar_nan_weight": _sidecar_with(weights=[float("nan"), 1.0, 1.0]),
    "sidecar_weight_2": _sidecar_with(weights=[1.0, 2.0, 1.0]),
    "nan_pixel": _nan_first_pixel,
}


def sample_events():
    """A (4, 2) probability stack, one row drawn per event."""
    rng = np.random.default_rng(5)
    return np.array([rng.uniform(0.2, 0.8, size=2) for _ in range(4)])


# Events of ``sample_events`` that ``trained_state`` trains on; the rest validate.
N_TRAIN = 3


def trained_state():
    cfg = TrainConfig(
        n_qubits=2,
        n_layers=1,
        n_mc_samples=30,
        n_embed_samples=20,
        batch_size=2,
        max_epochs=2,
        seed=13,
    )
    events = sample_events()
    best, history = fit(cfg, events[:N_TRAIN], events[N_TRAIN:])
    return best, cfg, history


class TestConfigHash:
    def test_stable_and_order_independent(self):
        a = config_hash({"x": 1, "y": [2, 3]})
        b = config_hash({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 16
        assert all(c in "0123456789abcdef" for c in a)

    def test_differs_across_configs(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})


class TestCsvProvenance:
    def test_provenance_line_format(self, tmp_path):
        path = tmp_path / "out.csv"
        cfg = {"seed": 1}
        write_csv_with_provenance(path, ["a", "b"], [[1, 2], [3, 4]], cfg)
        first = path.read_text().splitlines()[0]
        assert first == f"# qhbm {qhbm.__version__} config={config_hash(cfg)}"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_with_provenance(path, ["x", "y"], [[1, "p"], [2, "q"]], {})
        header, rows = read_csv_skip_provenance(path)
        assert header == ["x", "y"]
        assert rows == [["1", "p"], ["2", "q"]]

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_with_provenance(path, ["x"], [[1], [2]], {})
        before = path.read_bytes()

        def rows():
            yield [3]
            raise RuntimeError("interrupted half-way")

        with pytest.raises(RuntimeError):
            write_csv_with_provenance(path, ["x"], rows(), {"seed": 1})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @staticmethod
    def tables(field):
        """(header, rows) of one width, every field drawn from ``field``."""
        return st.integers(min_value=1, max_value=4).flatmap(
            lambda width: st.tuples(
                st.lists(field(width), min_size=width, max_size=width),
                st.lists(st.lists(field(width), min_size=width, max_size=width), max_size=6),
            )
        )

    @staticmethod
    def plain_field(width):
        """A str or int field csv.writer leaves unquoted; empty only beside other fields."""
        text = st.text(
            st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
            min_size=0 if width > 1 else 1,
            max_size=8,
        )
        return st.one_of(text, st.integers(min_value=-(10**20), max_value=10**20))

    @given(table=tables(plain_field))
    def test_bytes_match_csv_writer(self, table):
        header, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "out.csv", Path(tmp) / "reference.csv"
            write_csv_with_provenance(path, header, rows, {"seed": 3})
            with reference.open("w", newline="") as fh:
                fh.write(f"# qhbm {qhbm.__version__} config={config_hash({'seed': 3})}\n")
                csv.writer(fh).writerows([header, *rows])
            assert path.read_bytes() == reference.read_bytes()

    @given(
        table=tables(plain_field),
        bad=st.one_of(
            st.tuples(st.just("field"), st.sampled_from([",", '"', "\r", "\n", "\r\n"]), st.text(max_size=3)),
            st.tuples(st.just("width"), st.sampled_from([-1, 1]), st.just("")),
        ),
        where=st.integers(min_value=0),
    )
    def test_quoted_field_or_ragged_row_raises_and_keeps_earlier_file(self, table, bad, where):
        header, rows = table
        rows = [*rows, [*header]]
        kind, what, extra = bad
        row = rows[where % len(rows)]
        if kind == "field":
            row[where % len(row)] = f"{extra}{what}{extra}"
        elif what < 0:
            row.pop()
        else:
            row.append("1")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            write_csv_with_provenance(path, ["x"], [[1], [2]], {})
            before = path.read_bytes()
            with pytest.raises(ValueError, match="out.csv"):
                write_csv_with_provenance(path, header, rows, {"seed": 1})
            assert path.read_bytes() == before
            assert [p.name for p in Path(tmp).iterdir()] == ["out.csv"]

    def test_short_and_long_rows_do_not_pass_as_one_width(self, tmp_path):
        # Their commas add up to two full rows' worth.
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="2 fields"):
            write_csv_with_provenance(path, ["a", "b"], [["1"], ["2", "3", "4"]], {})
        assert list(tmp_path.iterdir()) == []

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(DataError):
            read_csv_skip_provenance(path)


class TestJson:
    def test_round_trip_is_sorted_and_indented(self, tmp_path):
        path = tmp_path / "summary.json"
        write_json(path, {"b": 1.5, "a": [1, 2]})
        assert path.read_text() == json.dumps({"a": [1, 2], "b": 1.5}, indent=2) + "\n"

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "summary.json"
        write_json(path, {"auc": 0.5})
        before = path.read_bytes()
        # The encoder has streamed "a" before it reaches the unencodable "b".
        with pytest.raises(TypeError):
            write_json(path, {"a": 1.0, "b": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


class TestImageContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.qhbimg"
        images, labels = sample_images()
        write_image_container(path, images, labels, {"note": "round trip"})
        loaded, loaded_labels, meta = read_image_container(path)
        assert meta == {"note": "round trip"}
        assert loaded.shape == (3, 4, 5) and loaded.dtype == np.float64
        assert np.array_equal(loaded, images)
        assert loaded_labels.tolist() == labels

    def test_magic_and_sidecar(self, tmp_path):
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {})
        assert path.read_bytes()[: len(IMAGE_MAGIC)] == IMAGE_MAGIC
        sidecar = json.loads((tmp_path / "events.qhbimg.json").read_text())
        assert sidecar["labels"] == ["signal", "background", "unlabelled"]
        assert sorted(sidecar) == ["height", "labels", "meta", "width"]
        assert sidecar["width"] == 5 and sidecar["height"] == 4

    def test_payload_is_one_row_major_float32_stack(self, tmp_path):
        path = tmp_path / "events.qhbimg"
        images, labels = sample_images()
        write_image_container(path, images, labels, {})
        header = IMAGE_MAGIC + struct.pack("<III", 3, 5, 4)
        assert path.read_bytes() == header + images.astype("<f4").tobytes()

    def test_legacy_unit_weights_load(self, tmp_path):
        # Builds that stored per-event weights wrote 1.0 for every event.
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {"kind": "raw"})
        _sidecar_with(weights=[1.0, 1.0, 1.0])(path)
        _, labels, meta = read_image_container(path)
        assert labels.tolist() == ["signal", "background", "unlabelled"]
        assert meta == {"kind": "raw"}

    def test_empty_container(self, tmp_path):
        path = tmp_path / "none.qhbimg"
        write_image_container(path, np.zeros((0, 4, 4)), [], {"kind": "raw"})
        # An empty dataset stores its shape as 0 x 0.
        assert path.read_bytes() == IMAGE_MAGIC + struct.pack("<III", 0, 0, 0)
        loaded, labels, meta = read_image_container(path)
        assert loaded.shape == (0, 0, 0) and len(labels) == 0
        assert meta == {"kind": "raw"}

    def test_rejects_mixed_shapes(self, tmp_path):
        images = [np.ones((2, 2)), np.ones((3, 3))]
        with pytest.raises(DataError):
            write_image_container(tmp_path / "bad.qhbimg", images, ["signal"] * 2, {})
        with pytest.raises(DataError):
            write_image_container(tmp_path / "bad.qhbimg", np.ones((2, 2)), ["signal"] * 2, {})
        with pytest.raises(DataError):
            write_image_container(tmp_path / "bad.qhbimg", np.ones((2, 2, 2)), ["signal"], {})
        assert list(tmp_path.iterdir()) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_image_container(tmp_path / "absent.qhbimg")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qhbimg"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError):
            read_image_container(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(DataError):
            read_image_container(path)

    def test_sidecar_count_mismatch(self, tmp_path):
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {})
        sidecar_path = tmp_path / "events.qhbimg.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["labels"] = sidecar["labels"][:-1]
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(DataError, match=re.escape(f"{sidecar_path} does not match")):
            read_image_container(path)

    @pytest.mark.parametrize("failure", ["pixels", "meta"])
    def test_failed_write_keeps_earlier_files(self, tmp_path, failure):
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {"note": "first"})
        before = [path.read_bytes(), (tmp_path / "events.qhbimg.json").read_bytes()]
        (images, labels), meta = sample_images(), {"note": "second"}
        if failure == "pixels":
            # The last image cannot be stored as float32.
            images = np.concatenate([images.astype(object), np.full((1, 4, 5), object())])
            labels = [*labels, "signal"]
        else:
            meta["bad"] = object()
        with pytest.raises(TypeError):
            write_image_container(path, images, labels, meta)
        assert [path.read_bytes(), (tmp_path / "events.qhbimg.json").read_bytes()] == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.qhbimg", "events.qhbimg.json"]

    def test_missing_sidecar_uses_defaults(self, tmp_path):
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {})
        (tmp_path / "events.qhbimg.json").unlink()
        _, labels, meta = read_image_container(path)
        assert labels.tolist() == ["unlabelled"] * 3
        assert meta == {}


# Faults that the reader finds in a whole array, and the part of the
# message that must locate them: the first bad image or label, in the
# container or in its sidecar.
LOCATED_FAULTS = {
    "nan_in_images_1_and_2": (
        _nonfinite_pixels((47, np.nan), (21, np.nan)), "{path}: image 1: intensities must be finite"
    ),
    "inf_in_last_image": (
        _nonfinite_pixels((59, -np.inf)), "{path}: image 2: intensities must be finite"
    ),
    "unknown_labels_1_and_2": (
        _sidecar_with(labels=["signal", "muon", "jet"]), "{sidecar}: image 1: label must be one of"
    ),
    "label_not_text": (
        _sidecar_with(labels=["signal", "signal", 3]), "{sidecar}: image 2: label must be one of"
    ),
    "two_labels_for_three_images": (
        _sidecar_with(labels=["signal", "signal"]), "{sidecar} does not match the container image count"
    ),
}


class TestMalformedImageFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_raises_data_error_naming_the_file(self, tmp_path, case):
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {})
        MALFORMED_FILES[case](path)
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_image_container(path)

    @pytest.mark.parametrize("case", sorted(LOCATED_FAULTS))
    def test_names_the_first_bad_image_or_label(self, tmp_path, case):
        corrupt, message = LOCATED_FAULTS[case]
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {})
        corrupt(path)
        with pytest.raises(DataError) as err:
            read_image_container(path)
        assert message.format(path=path, sidecar=f"{path}.json") in str(err.value)


class TestCheckpoint:
    def test_full_round_trip(self, tmp_path):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        loaded, loaded_cfg, loaded_history = load_checkpoint(path)

        assert loaded_cfg == cfg
        assert loaded_history == history
        assert np.array_equal(loaded.energy_model.weights, state.energy_model.weights)
        assert np.array_equal(
            loaded.energy_model.visible_bias, state.energy_model.visible_bias
        )
        assert np.array_equal(
            loaded.energy_model.hidden_bias, state.energy_model.hidden_bias
        )
        assert np.array_equal(loaded.ansatz.angles, state.ansatz.angles)
        assert np.array_equal(
            loaded.hamiltonian.support, state.hamiltonian.support
        )
        assert np.array_equal(loaded.hamiltonian.energies, state.hamiltonian.energies)
        assert loaded.hamiltonian.log_partition == state.hamiltonian.log_partition
        assert loaded.chain.current == state.chain.current
        assert loaded.epoch == state.epoch
        assert loaded.best_validation_loss == state.best_validation_loss
        assert loaded.lr_current == state.lr_current
        orig, back = state.adam, loaded.adam
        assert back.t == orig.t
        assert sorted(back.m) == sorted(orig.m)
        for key in orig.m:
            assert np.array_equal(back.m[key], orig.m[key])
            assert np.array_equal(back.v[key], orig.v[key])

    def test_layout_holds_each_fact_once(self, tmp_path):
        # Nothing derived is stored: no log Z, no chain energy, one optimiser.
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        version, metadata, arrays = read_layout(path)
        assert version == 2
        assert sorted(metadata) == [
            "adam_t", "best_validation_loss", "chain", "config", "epoch", "history",
            "lr_current", "payloads",
        ]
        assert sorted(metadata["chain"]) == ["current_index", "rng_state"]
        # The saved state is the best epoch's, after that many epochs of steps.
        best_epoch = min(history, key=lambda row: row["validation_loss"])["epoch"]
        steps_per_epoch = -(-N_TRAIN // cfg.batch_size)
        assert metadata["adam_t"] == state.adam.t == best_epoch * steps_per_epoch
        params = ["weights", "visible_bias", "hidden_bias", "angles"]
        moments = [f"adam_{kind}_{key}" for key in params for kind in "mv"]
        assert list(arrays) == params + ["support_indices", "support_energies"] + moments

    def test_version_1_loads_as_the_same_state(self, tmp_path):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        write_version_1(path, tmp_path / "legacy.qhbm")
        assert read_layout(tmp_path / "legacy.qhbm")[0] == 1
        loaded, loaded_cfg, loaded_history = load_checkpoint(tmp_path / "legacy.qhbm")
        save_checkpoint(tmp_path / "again.qhbm", loaded, loaded_cfg, loaded_history)
        assert (tmp_path / "again.qhbm").read_bytes() == path.read_bytes()

    def test_chain_rng_resumes_identically(self, tmp_path):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        loaded, _, _ = load_checkpoint(path)
        a, _ = ebm.metropolis_sample(state.energy_model, state.chain, 0, 50)
        b, _ = ebm.metropolis_sample(loaded.energy_model, loaded.chain, 0, 50)
        assert np.array_equal(a, b)

    def test_identical_saves_are_bit_identical(self, tmp_path):
        state, cfg, history = trained_state()
        p1, p2 = tmp_path / "a.qhbm", tmp_path / "b.qhbm"
        save_checkpoint(p1, state, cfg, history)
        save_checkpoint(p2, state, cfg, history)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        before = path.read_bytes()
        # The last payload cannot be stored as float64, so the save fails
        # after the header and the other payloads have been written.
        broken = snapshot(state)
        broken.adam.v["angles"] = np.array(["not a number"], dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(path, broken, cfg, history + [{"epoch": 3}])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.qhbm"]

    def test_works_after_plain_train_steps(self, tmp_path):
        cfg = TrainConfig(
            n_qubits=2, n_layers=1, n_mc_samples=20, batch_size=1, seed=3
        )
        state = init_train_state(cfg)
        for _ in range(2):
            state, _ = train_step(state, frequency_row(np.array([1, 1, 0, 1]))[None], cfg)
        path = tmp_path / "steps.qhbm"
        save_checkpoint(path, state, cfg, [])
        loaded, _, history = load_checkpoint(path)
        assert history == []
        assert np.array_equal(loaded.ansatz.angles, state.ansatz.angles)

    def test_rejects_missing_and_bad_magic(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.qhbm")
        bad = tmp_path / "bad.qhbm"
        bad.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(bad)

    def test_rejects_unknown_version(self, tmp_path):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        raw = bytearray(path.read_bytes())
        head = len(CKPT_MAGIC)
        raw[head : head + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_fault_helper_keeps_framing_valid(self, tmp_path):
        # Re-framing with a no-op edit must give a file that loads as before.
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        write_corrupt_checkpoint(path, tmp_path / "same.qhbm", None)
        loaded, _, _ = load_checkpoint(tmp_path / "same.qhbm")
        assert np.array_equal(loaded.hamiltonian.support, state.hamiltonian.support)

    def test_loads_an_infinite_best_validation_loss(self, tmp_path):
        # +inf is the best loss before any epoch has been validated.
        state, cfg, history = trained_state()
        state.best_validation_loss = np.inf
        save_checkpoint(tmp_path / "model.qhbm", state, cfg, history)
        assert load_checkpoint(tmp_path / "model.qhbm")[0].best_validation_loss == np.inf

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_rejects_corrupt_contents(self, tmp_path, fault):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        bad = tmp_path / "bad.qhbm"
        write_corrupt_checkpoint(path, bad, fault)
        with pytest.raises(DataError, match=r"bad\.qhbm: corrupt checkpoint contents"):
            load_checkpoint(bad)

    def test_loads_stored_config_with_built_in_modes(self, tmp_path):
        state, cfg, history = trained_state()
        save_with_stored_config(tmp_path / "old.qhbm", state, cfg, history, BUILT_IN_MODES)
        loaded, loaded_cfg, loaded_history = load_checkpoint(tmp_path / "old.qhbm")
        assert loaded_cfg == cfg
        save_checkpoint(tmp_path / "again.qhbm", loaded, loaded_cfg, loaded_history)
        save_checkpoint(tmp_path / "direct.qhbm", state, cfg, history)
        assert (tmp_path / "again.qhbm").read_bytes() == (tmp_path / "direct.qhbm").read_bytes()

    def test_stored_config_with_built_in_modes_resumes_like_a_fresh_save(self, tmp_path):
        state, cfg, history = trained_state()
        save_with_stored_config(tmp_path / "old.qhbm", state, cfg, history, BUILT_IN_MODES)
        save_checkpoint(tmp_path / "fresh.qhbm", state, cfg, history)
        events = sample_events()
        for name in ("old", "fresh"):
            loaded, loaded_cfg, loaded_history = load_checkpoint(tmp_path / f"{name}.qhbm")
            longer = dataclasses.replace(loaded_cfg, max_epochs=4)
            best, longer_history = fit(
                longer, events[:N_TRAIN], events[N_TRAIN:], loaded, loaded_history
            )
            save_checkpoint(tmp_path / f"{name}_resumed.qhbm", best, longer, longer_history)
        assert len(longer_history) == 4
        resumed = (tmp_path / "old_resumed.qhbm").read_bytes()
        assert resumed == (tmp_path / "fresh_resumed.qhbm").read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("embed_mode", "per_epoch"),
            ("proposal", "single_flip"),
            ("duplicate_mode", "multiplicity"),
            ("partition_mode", "full"),
            ("latent_mode", "maximally_mixed"),
            ("adjoint_convention", True),
            ("beta", 2.0),
            ("k_beta", 0.5),
            ("weight_scale", 0.1),
            ("angle_scale", 0.0),
            ("adam_beta1", 0.5),
            ("adam_beta2", 0.99),
            ("adam_eps", 1e-6),
        ],
    )
    def test_rejects_stored_config_with_other_mode(self, tmp_path, key, value):
        state, cfg, history = trained_state()
        path = tmp_path / "old.qhbm"
        save_with_stored_config(path, state, cfg, history, BUILT_IN_MODES | {key: value})
        with pytest.raises(DataError, match=re.escape(f"{key}={value!r}")):
            load_checkpoint(path)

    def test_rejects_corrupt_metadata(self, tmp_path):
        state, cfg, history = trained_state()
        path = tmp_path / "model.qhbm"
        save_checkpoint(path, state, cfg, history)
        raw = bytearray(path.read_bytes())
        meta_start = len(CKPT_MAGIC) + 12
        raw[meta_start : meta_start + 4] = b"\xff\xfe\x00\x01"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_checkpoint(path)


# Each metadata or sidecar field the probe below sets, in turn, to each of these.
PROBE_VALUES = [
    None, "x", [], {}, -1, 1.5, True, 1e308, 0, [1], {"a": 1}, "PCG64", "seed", "MT19937",
]


def _probe_fields(metadata):
    """Key paths of every top-level, config, chain and generator field of ``metadata``,
    of the first history row and of the first payload-manifest entry."""
    fields = [(key,) for key in metadata]
    for parent in [("config",), ("chain",), ("chain", "rng_state"),
                   ("chain", "rng_state", "state"), ("history", 0), ("payloads", 0)]:
        target = metadata
        for key in parent:
            target = target[key]
        fields += [(*parent, key) for key in target]
    return fields + [("payloads", 0)]


class TestLoaderProbe:
    """Every probe value in every field loads or is a DataError, never another exception."""

    def test_checkpoint_fields(self, tmp_path):
        cfg = TrainConfig(n_qubits=3, n_layers=1, n_mc_samples=20, n_embed_samples=10,
                          batch_size=2, max_epochs=1, seed=7)
        events = np.random.default_rng(11).uniform(0.2, 0.8, size=(4, 3))
        best, history = fit(cfg, events[:2], events[2:])
        current = tmp_path / "model.qhbm"
        save_checkpoint(current, best, cfg, history)
        legacy = tmp_path / "legacy.qhbm"
        write_version_1(current, legacy)
        probed = tmp_path / "probed.qhbm"
        escapes = []
        for src in (current, legacy):
            for keys in _probe_fields(read_layout(src)[1]):
                for value in PROBE_VALUES:
                    rewrite(src, probed, set_field(*keys, value=value))
                    try:
                        load_checkpoint(probed)
                    except DataError:
                        pass
                    except Exception as exc:
                        escapes.append((src.name, keys, value, repr(exc)))
        assert escapes == []

    def test_sidecar_fields(self, tmp_path):
        path = tmp_path / "events.qhbimg"
        write_image_container(path, *sample_images(), {"kind": "raw"})
        sidecar = path.with_name(path.name + ".json")
        stored = json.loads(sidecar.read_text())
        escapes = []
        # "weights" is the key that earlier builds also wrote.
        for key in [*stored, "weights"]:
            for value in PROBE_VALUES:
                sidecar.write_text(json.dumps(stored | {key: value}))
                try:
                    read_image_container(path)
                except DataError:
                    pass
                except Exception as exc:
                    escapes.append((key, value, repr(exc)))
        assert escapes == []
