"""On-disk formats: image containers, checkpoints, provenance-stamped CSV.

Image container layout (all integers little-endian):

    magic  b"QHBIMG1"
    u32    image count
    u32    width
    u32    height
    f32    the count x height x width pixel stack, row-major

Labels and pipeline metadata live in a JSON sidecar next to the
container (same path + ".json").  Every event enters training and the
data state with the same weight, so the sidecar stores none; a legacy
"weights" list loads only when every entry is 1.0.

Checkpoint layout:

    magic  b"QHBMCKPT"
    u32    format version (currently 2; ``_upgrade_v1`` reads version 1)
    u64    metadata length in bytes
    JSON   metadata: config, epoch, chain state, history, payload manifest
    f64    payload arrays, little-endian, in manifest order
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__, ebm, qsim, train
from .embed import LABELS
from .errors import ConfigError, DataError
from .rng import generator_state, restore_generator
from .special import logsumexp

IMAGE_MAGIC = b"QHBIMG1"
CKPT_MAGIC = b"QHBMCKPT"
CKPT_VERSION = 2


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
    """CSV with a leading provenance comment (tool version, config hash), replaced atomically.

    Fields are written with ``str`` (callers pass floats as their ``repr``),
    separated by commas, with CRLF line ends and no quoting: the bytes
    ``csv.writer`` writes for such rows.  The whole text is built and
    checked before the file is touched.  A row whose width differs from the
    header's, a field holding a comma, a double quote or a line break, or an
    empty field in a one-column file (each of which ``csv.writer`` would
    quote) raises ValueError naming the file and leaves the earlier file in
    place.
    """
    path = Path(path)
    table = [header, *rows]
    width, n = len(header), len(table)
    text = "\r\n".join([",".join(map(str, row)) for row in table]) + "\r\n"
    if (
        any(len(row) != width for row in table)
        or '"' in text
        or text.count(",") != (width - 1) * n
        or text.count("\n") != n
        or text.count("\r") != n
        or text.startswith("\r\n")
        or "\r\n\r\n" in text
    ):
        raise ValueError(
            f"{path}: every row must hold {width} fields, none of them empty in a "
            'one-column file or holding a comma, a double quote or a line break'
        )
    with _replacing(path, "w", newline="") as fh:
        fh.write(f"# qhbm {__version__} config={config_hash(config)}\n")
        fh.write(text)


def write_json(path: str | Path, data: dict) -> None:
    """Indented, key-sorted JSON with a final newline, replaced atomically."""
    with _replacing(Path(path), "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def write_image_container(
    path: str | Path,
    images: np.ndarray,
    labels: Sequence[str],
    meta: dict,
) -> None:
    """Write an (E, H, W) stack and its E labels plus the JSON sidecar, each replaced atomically.

    The pixels are stored as one float32 payload; an empty dataset stores
    its shape as 0 x 0.  The payload and the sidecar are serialised before
    either file is written, so pixels or metadata that cannot be stored
    leave both earlier files intact.
    """
    path = Path(path)
    try:
        pixels = np.asarray(images, dtype="<f4")
    except ValueError as exc:
        raise DataError(f"{path}: images must share one shape: {exc}") from exc
    if pixels.ndim != 3 or len(labels) != len(pixels):
        raise DataError(
            f"{path}: need an (E, H, W) stack and E labels, got shape {pixels.shape} "
            f"and {len(labels)} labels"
        )
    height, width = pixels.shape[1:] if len(pixels) else (0, 0)
    sidecar = {
        "width": width,
        "height": height,
        "labels": list(labels),
        "meta": meta,
    }
    sidecar_text = json.dumps(sidecar, sort_keys=True, indent=1) + "\n"
    with _replacing(path, "wb") as fh:
        fh.write(IMAGE_MAGIC)
        fh.write(struct.pack("<III", len(pixels), width, height))
        fh.write(pixels.tobytes())
    with _replacing(_sidecar_path(path), "w") as fh:
        fh.write(sidecar_text)


def read_image_container(path: str | Path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read a container: its (E, H, W) float64 images, its E labels and the sidecar metadata.

    Pixels and labels are checked once per array.  A non-finite pixel is a
    DataError naming the first image that holds one; a label outside
    ``embed.LABELS`` or a label count other than E is one naming the sidecar.
    """
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
    if bad := [i for i, label in enumerate(labels) if label not in LABELS]:
        raise DataError(
            f"{sidecar_file}: image {bad[0]}: label must be one of {LABELS}, "
            f"got {labels[bad[0]]!r}"
        )
    pixels = np.frombuffer(raw, dtype="<f4", count=count * width * height, offset=offset)
    pixels = pixels.reshape(count, height, width)
    finite = np.isfinite(pixels).all(axis=(1, 2))
    if not finite.all():
        raise DataError(f"{path}: image {np.argmin(finite)}: intensities must be finite")
    return pixels.astype(np.float64), np.array(labels, dtype=str), meta


def save_checkpoint(
    path: str | Path,
    state: train.TrainState,
    config: train.TrainConfig,
    history: Sequence[dict],
) -> None:
    """Serialise a training state atomically; bit-identical for identical runs."""
    path = Path(path)
    params = train.parameters(state.energy_model, state.ansatz)
    payloads: dict[str, np.ndarray] = params | {
        "support_indices": state.hamiltonian.support.astype(np.float64),
        "support_energies": state.hamiltonian.energies,
    }
    for key in params:
        payloads[f"adam_m_{key}"] = state.adam.m[key]
        payloads[f"adam_v_{key}"] = state.adam.v[key]
    metadata = {
        "config": config.as_dict(),
        "epoch": state.epoch,
        "best_validation_loss": state.best_validation_loss,
        "lr_current": state.lr_current,
        "adam_t": state.adam.t,
        "chain": {
            "current_index": int(state.chain.current),
            "rng_state": generator_state(state.chain.rng),
        },
        "history": list(history),
        "payloads": [{"name": k, "shape": list(v.shape)} for k, v in payloads.items()],
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
    if version not in (1, CKPT_VERSION):
        raise DataError(
            f"{path} has format version {version}, this build reads 1 and {CKPT_VERSION}"
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
        return _rebuild_state(path, raw, offset, metadata, version)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise DataError(f"{path}: corrupt checkpoint contents: {exc!r}") from exc


def _count(value, what: str, bits: int) -> int:
    """``value`` if it is an integer in [0, 2**bits); a bool or a float is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**bits:
        raise ValueError(f"{what} must be an integer in [0, 2**{bits}), got {value!r}")
    return value


def _check_pcg64(rng_state: dict) -> None:
    """Reject PCG64 fields that are not integers in range.

    PCG64's setter stores True as 1, 2.5 as 2 and a negative ``has_uint32``
    as it is, instead of rejecting them, so a resumed chain would draw
    other numbers.
    """
    fields = rng_state["state"] | {key: rng_state[key] for key in ("has_uint32", "uinteger")}
    for key, bits in (("state", 128), ("inc", 128), ("has_uint32", 1), ("uinteger", 32)):
        _count(fields[key], f"chain.rng_state {key}", bits)


def _upgrade_v1(path: Path, metadata: dict, arrays: dict[str, np.ndarray]) -> None:
    """Rewrite a version-1 layout into version 2 in place.

    Version 1 kept two optimisers with a step count each (they must be equal),
    log Z (it must be the one the energies give) and the chain energy (unread).
    Its config could also hold the retired protocol modes, circuit
    orientation, loss scales, initial scales and Adam constants; only the
    values that are now built in describe a model this build can represent.
    """
    config = metadata["config"] = dict(metadata["config"])
    retired = {"embed_mode": "presampled", "proposal": "uniform", "duplicate_mode": "dedupe",
               "partition_mode": "support", "latent_mode": "thermal",
               "adjoint_convention": False, "beta": 1.0, "k_beta": 1.0,
               "weight_scale": 0.01, "angle_scale": 0.01, "adam_beta1": 0.9,
               "adam_beta2": 0.999, "adam_eps": 1e-8}
    for key, built_in in retired.items():
        if (value := config.pop(key, built_in)) != built_in:
            raise DataError(
                f"{path}: stored config has {key}={value!r}; this build only runs {built_in!r}"
            )
    # A manifest name can be any JSON value; a wrong one fails the shape check.
    legacy = ("adam_theta_", "adam_phi_")
    for name in [n for n in arrays if isinstance(n, str) and n.startswith(legacy)]:
        arrays["adam_" + name.split("_", 2)[2]] = arrays.pop(name)
    steps = metadata["adam_t"]
    if steps != {"theta": steps["theta"], "phi": steps["theta"]}:
        raise ValueError(f"adam_t {steps!r} does not hold one step count")
    metadata["adam_t"] = steps["theta"]
    (log_partition,) = arrays.pop("log_partition")
    # ModularHamiltonian derives log Z the same way, bit for bit.
    if log_partition != logsumexp(-arrays["support_energies"]):
        raise ValueError(f"log_partition {log_partition!r} is not logsumexp(-energies)")


def _rebuild_state(
    path: Path, raw: bytes, offset: int, metadata: dict, version: int
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
    if version == 1:
        _upgrade_v1(path, metadata, arrays)
    config = train.TrainConfig(**metadata["config"]).validate()
    model = ebm.EnergyModel(arrays["weights"], arrays["visible_bias"], arrays["hidden_bias"])
    ansatz = qsim.CircuitAnsatz(config.n_qubits, config.n_layers, arrays["angles"])
    # Checked before the int64 cast, which would load an index of 2.5 as 2
    # and one of inf or 1e300 as an arbitrary integer.
    support = arrays.pop("support_indices")
    in_range = (support == np.trunc(support)) & (0 <= support) & (support < 2**config.n_qubits)
    if not in_range.all():
        raise ValueError(f"support_indices must be integers in [0, 2**{config.n_qubits})")
    ham = ebm.ModularHamiltonian(
        config.n_qubits, support.astype(np.int64), arrays.pop("support_energies")
    )
    if not train.is_rate(lr := metadata["lr_current"]):
        raise ValueError(f"lr_current must be finite and positive, got {lr!r}")
    # +inf is the value before any epoch; NaN and -inf would keep every later epoch from
    # being the best one.
    best = metadata["best_validation_loss"]
    if isinstance(best, bool) or not isinstance(best, (int, float)) or not best > -np.inf:
        raise ValueError(f"best_validation_loss must be a real number above -inf, got {best!r}")
    if not isinstance(history := metadata["history"], list) or not all(
        isinstance(row, dict) and set(row) == set(train.HISTORY_KEYS) for row in history
    ):
        raise ValueError(f"history must be a list of rows with the keys {train.HISTORY_KEYS}")
    # ``fit`` appends one row per epoch and keeps the lowest validation loss
    # as the best, so a resume continues the numbering and the selection.
    if (epoch := _count(metadata["epoch"], "epoch", 63)) != len(history):
        raise ValueError(f"epoch {epoch} does not count the {len(history)} history rows")
    if math.isfinite(best):
        lowest = min((row["validation_loss"] for row in history), default=None)
        if lowest is None or float(lowest).hex() != float(best).hex():
            raise ValueError(f"best_validation_loss {best!r} is not history's lowest, {lowest!r}")
    _check_pcg64(metadata["chain"]["rng_state"])
    chain = ebm.initial_chain(
        model,
        restore_generator(metadata["chain"]["rng_state"]),
        _count(metadata["chain"]["current_index"], "chain.current_index", 63),
    )
    # The other payloads are the parameters, the couplings shaped as the
    # config says, and one first and one second moment of each parameter,
    # shaped like it: anything else would run another model or fail only
    # when training resumes.  Second moments go into a square root.
    params = train.parameters(model, ansatz)
    expected = {key: p.shape for key, p in params.items()}
    expected["weights"] = (config.n_qubits, config.hidden_units)
    expected |= {f"adam_{kind}_{key}": p.shape for kind in "mv" for key, p in params.items()}
    if (shapes := {name: arr.shape for name, arr in arrays.items()}) != expected:
        raise ValueError(f"payloads {shapes}, expected {expected}")
    m, v = ({key: arrays[f"adam_{kind}_{key}"] for key in params} for kind in "mv")
    moments = [*m.values(), *v.values()]
    if not all(np.isfinite(a).all() for a in moments) or any((a < 0).any() for a in v.values()):
        raise ValueError("optimiser moments must be finite, and second moments >= 0")
    state = train.TrainState(
        energy_model=model,
        ansatz=ansatz,
        hamiltonian=ham,
        chain=chain,
        adam=train.AdamState(m, v, _count(metadata["adam_t"], "adam_t", 63)),
        epoch=epoch,
        best_validation_loss=float(best),
        lr_current=float(metadata["lr_current"]),
    )
    return state, config, history
