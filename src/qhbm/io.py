"""On-disk formats: image containers, checkpoints, provenance-stamped CSV.

Image container layout (all integers little-endian):

    magic  b"QHBIMG1"
    u32    image count
    u32    width
    u32    height
    f32    width * height pixels per image, row-major, count times

Labels and pipeline metadata live in a JSON sidecar next to the
container (same path + ".json").  Every event enters training and the
data state with the same weight, so the sidecar stores none; a legacy
"weights" list loads only when every entry is 1.0.

Checkpoint layout:

    magic  b"QHBMCKPT"
    u32    format version (currently 1)
    u64    metadata length in bytes
    JSON   metadata: config, epoch, chain state, history, payload manifest
    f64    payload arrays, little-endian, in manifest order
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__, ebm, qsim, train
from .embed import PixelImage
from .errors import ConfigError, DataError
from .rng import generator_state, restore_generator
from .special import logsumexp

IMAGE_MAGIC = b"QHBIMG1"
CKPT_MAGIC = b"QHBMCKPT"
CKPT_VERSION = 1


def config_hash(config: dict) -> str:
    """Stable short digest of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@contextmanager
def _replacing(path: Path, mode: str, **kwargs):
    """Write to a temporary file beside ``path`` and move it over ``path`` only on success."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv_with_provenance(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    config: dict,
) -> None:
    """CSV with a leading provenance comment (tool version, config hash), replaced atomically."""
    path = Path(path)
    with _replacing(path, "w", newline="") as fh:
        fh.write(f"# qhbm {__version__} config={config_hash(config)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_json(path: str | Path, data: dict) -> None:
    """Indented, key-sorted JSON with a final newline, replaced atomically."""
    with _replacing(Path(path), "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv_skip_provenance(path: str | Path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    with path.open() as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    rows = list(reader)
    if not rows:
        raise DataError(f"{path} has no CSV content")
    return rows[0], rows[1:]


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _read_image(path: Path, index: int, pixels, shape, label) -> PixelImage:
    """One stored image; malformed pixels or labels are a DataError."""
    try:
        return PixelImage(np.asarray(pixels, dtype=np.float64).reshape(shape), label)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: image {index}: {exc}") from exc


def write_image_container(
    path: str | Path,
    images: Sequence[PixelImage],
    meta: dict | None = None,
) -> None:
    """Write the binary container plus its JSON sidecar, each replaced atomically.

    All images must share one shape; an empty dataset stores its shape
    as 0 x 0.  The sidecar is serialised before either file is written,
    so metadata that cannot be stored leaves both earlier files intact.
    """
    path = Path(path)
    if images:
        height, width = images[0].intensities.shape
        if any(im.intensities.shape != (height, width) for im in images):
            raise DataError("all images in a container must share one shape")
    else:
        height = width = 0
    sidecar = {
        "width": width,
        "height": height,
        "labels": [im.label for im in images],
        "meta": meta or {},
    }
    sidecar_text = json.dumps(sidecar, sort_keys=True, indent=1) + "\n"
    with _replacing(path, "wb") as fh:
        fh.write(IMAGE_MAGIC)
        fh.write(struct.pack("<III", len(images), width, height))
        for im in images:
            fh.write(im.intensities.astype("<f4").tobytes())
    with _replacing(_sidecar_path(path), "w") as fh:
        fh.write(sidecar_text)


def read_image_container(path: str | Path) -> tuple[list[PixelImage], dict]:
    """Read a container; returns the images and the sidecar metadata."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"container not found: {path}")
    raw = path.read_bytes()
    if len(raw) < len(IMAGE_MAGIC) + 12 or raw[: len(IMAGE_MAGIC)] != IMAGE_MAGIC:
        raise DataError(f"{path} is not an image container (bad magic)")
    count, width, height = struct.unpack_from("<III", raw, len(IMAGE_MAGIC))
    offset = len(IMAGE_MAGIC) + 12
    expected = offset + count * width * height * 4
    if len(raw) != expected:
        raise DataError(
            f"{path} truncated: expected {expected} bytes, found {len(raw)}"
        )
    sidecar_file = _sidecar_path(path)
    try:
        sidecar = json.loads(sidecar_file.read_text()) if sidecar_file.exists() else {}
        labels = list(sidecar.get("labels", ["unlabelled"] * count))
        # Builds that stored per-event weights wrote 1.0 for every event.
        legacy_weights = sidecar.get("weights", [1.0] * count)
        meta = dict(sidecar.get("meta", {}))
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"{sidecar_file}: malformed sidecar: {exc}") from exc
    if len(labels) != count:
        raise DataError(f"{sidecar_file} does not match the container image count")
    if legacy_weights != [1.0] * count:
        raise DataError(
            f"{sidecar_file}: per-event weights are not supported; "
            "a stored weights list must hold 1.0 for every image"
        )
    size = width * height
    pixels = np.frombuffer(raw, dtype="<f4", count=count * size, offset=offset)
    images = [
        _read_image(path, i, pixels[i * size : (i + 1) * size], (height, width), labels[i])
        for i in range(count)
    ]
    return images, meta


def _payload_manifest(arrays: dict[str, np.ndarray]) -> list[dict]:
    return [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]


def save_checkpoint(
    path: str | Path,
    state: train.TrainState,
    config: train.TrainConfig,
    history: Sequence[dict],
) -> None:
    """Serialise a training state atomically; bit-identical for identical runs."""
    path = Path(path)
    payloads: dict[str, np.ndarray] = {
        "weights": state.energy_model.weights,
        "visible_bias": state.energy_model.visible_bias,
        "hidden_bias": state.energy_model.hidden_bias,
        "angles": state.ansatz.angles,
        "support_indices": state.hamiltonian.support.astype(np.float64),
        "support_energies": state.hamiltonian.energies,
        "log_partition": np.array([state.hamiltonian.log_partition]),
    }
    for tag, adam in (("theta", state.adam_theta), ("phi", state.adam_phi)):
        for key in sorted(adam.m):
            payloads[f"adam_{tag}_m_{key}"] = adam.m[key]
            payloads[f"adam_{tag}_v_{key}"] = adam.v[key]
    metadata = {
        "config": config.as_dict(),
        "epoch": state.epoch,
        "best_validation_loss": state.best_validation_loss,
        "lr_current": state.lr_current,
        "adam_t": {"theta": state.adam_theta.t, "phi": state.adam_phi.t},
        "chain": {
            "current_index": int(state.chain.current),
            "current_energy": state.chain.current_energy,
            "rng_state": generator_state(state.chain.rng),
        },
        "history": list(history),
        "payloads": _payload_manifest(payloads),
    }
    blob = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in payloads.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[train.TrainState, train.TrainConfig, list[dict]]:
    """Rebuild a training state.

    Raises DataError for a missing file, bad magic, an unknown format
    version, bad framing, and for contents that do not rebuild a valid
    state (missing keys or payloads, wrong types, out-of-range indices).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    head = len(CKPT_MAGIC)
    if len(raw) < head + 12 or raw[:head] != CKPT_MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack_from("<I", raw, head)
    if version != CKPT_VERSION:
        raise DataError(
            f"{path} has format version {version}, this build reads {CKPT_VERSION}"
        )
    (meta_len,) = struct.unpack_from("<Q", raw, head + 4)
    offset = head + 12
    try:
        metadata = json.loads(raw[offset : offset + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt metadata block") from exc
    offset += meta_len
    # A well-framed file can still hold missing keys, wrong types or
    # out-of-range values (the stored config included); rebuilding the
    # state raises those as KeyError/TypeError/ValueError/ConfigError, and
    # an out-of-range generator state as OverflowError.
    try:
        return _rebuild_state(path, raw, offset, metadata)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise DataError(f"{path}: corrupt checkpoint contents: {exc!r}") from exc


def _rebuild_state(
    path: Path, raw: bytes, offset: int, metadata: dict
) -> tuple[train.TrainState, train.TrainConfig, list[dict]]:
    arrays: dict[str, np.ndarray] = {}
    for entry in metadata["payloads"]:
        shape = tuple(entry["shape"])
        n_items = int(np.prod(shape)) if shape else 1
        end = offset + 8 * n_items
        if end > len(raw):
            raise DataError(f"{path}: payload {entry['name']} truncated")
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8", count=n_items, offset=offset).reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes")

    stored = dict(metadata["config"])
    # Older checkpoints store the retired protocol modes, circuit
    # orientation, loss scales, initial scales and Adam constants.  Only the
    # values that are now built in describe a model this build can represent.
    retired = {"embed_mode": "presampled", "proposal": "uniform", "duplicate_mode": "dedupe",
               "partition_mode": "support", "latent_mode": "thermal",
               "adjoint_convention": False, "beta": 1.0, "k_beta": 1.0,
               "weight_scale": 0.01, "angle_scale": 0.01, "adam_beta1": 0.9,
               "adam_beta2": 0.999, "adam_eps": 1e-8}
    for key, built_in in retired.items():
        value = stored.pop(key, built_in)
        if value != built_in:
            raise DataError(
                f"{path}: stored config has {key}={value!r}; this build only runs {built_in!r}"
            )
    config = train.TrainConfig(**stored).validate()
    model = ebm.EnergyModel(
        arrays["weights"], arrays["visible_bias"], arrays["hidden_bias"]
    )
    ansatz = qsim.CircuitAnsatz(config.n_qubits, config.n_layers, arrays["angles"])
    ham = ebm.ModularHamiltonian(
        config.n_qubits,
        arrays["support_indices"].astype(np.int64),
        arrays["support_energies"],
        float(arrays["log_partition"][0]),
    )
    # A saved log_partition is logsumexp(-energies) of the saved energies, bit for bit.
    if ham.log_partition != logsumexp(-ham.energies):
        raise ValueError(f"log_partition {ham.log_partition!r} is not logsumexp(-energies)")
    if not train.is_rate(lr := metadata["lr_current"]):
        raise ValueError(f"lr_current must be finite and positive, got {lr!r}")
    # initial_chain checks the index; the stored energy is kept as saved.
    chain = dataclasses.replace(
        ebm.initial_chain(
            model,
            restore_generator(metadata["chain"]["rng_state"]),
            int(metadata["chain"]["current_index"]),
        ),
        current_energy=float(metadata["chain"]["current_energy"]),
    )
    # Each optimiser holds one first and one second moment per parameter,
    # shaped like it: anything else would fail only when training resumes.
    adam_states = {}
    for tag, params in (("theta", train._theta_params(model)), ("phi", {"angles": ansatz.angles})):
        prefix = f"adam_{tag}_"
        shapes = {name: arr.shape for name, arr in arrays.items() if name.startswith(prefix)}
        expected = {f"{prefix}{kind}_{key}": p.shape for kind in "mv" for key, p in params.items()}
        if shapes != expected:
            raise ValueError(f"optimiser moments {shapes}, expected {expected}")
        m, v = ({key: arrays[f"{prefix}{kind}_{key}"] for key in params} for kind in "mv")
        adam_states[tag] = train.AdamState(m, v, int(metadata["adam_t"][tag]))
    state = train.TrainState(
        energy_model=model,
        ansatz=ansatz,
        hamiltonian=ham,
        chain=chain,
        adam_theta=adam_states["theta"],
        adam_phi=adam_states["phi"],
        epoch=int(metadata["epoch"]),
        best_validation_loss=float(metadata["best_validation_loss"]),
        lr_current=float(metadata["lr_current"]),
    )
    return state, config, list(metadata["history"])
