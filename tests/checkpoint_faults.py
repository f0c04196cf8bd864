"""Well-framed but corrupt checkpoints for the loader's error paths.

Each fault rewrites a valid checkpoint with correct magic, version,
lengths and payload framing, so only the contents are wrong.
``save_with_stored_config`` writes a checkpoint whose stored config holds
extra keys, as builds before the retired settings wrote them.
"""

import json
import struct
from types import SimpleNamespace

import numpy as np

from qhbm.io import CKPT_MAGIC, CKPT_VERSION, save_checkpoint


def _drop_weights_payload(metadata, arrays):
    metadata["payloads"] = [e for e in metadata["payloads"] if e["name"] != "weights"]
    del arrays["weights"]


def _drop_adam_phi_m_angles(metadata, arrays):
    metadata["payloads"] = [e for e in metadata["payloads"] if e["name"] != "adam_phi_m_angles"]
    del arrays["adam_phi_m_angles"]


def _short_adam_theta_v_weights(metadata, arrays):
    entry = next(e for e in metadata["payloads"] if e["name"] == "adam_theta_v_weights")
    entry["shape"] = [3]
    arrays["adam_theta_v_weights"] = arrays["adam_theta_v_weights"][:3]


def _drop_chain(metadata, arrays):
    del metadata["chain"]


def _support_index_out_of_range(metadata, arrays):
    arrays["support_indices"][0] = 1e6


def _config_out_of_range(metadata, arrays):
    metadata["config"]["n_qubits"] = 20


def _config_fractional_batch_size(metadata, arrays):
    metadata["config"]["batch_size"] = 2.5


def _config_boolean_max_epochs(metadata, arrays):
    metadata["config"]["max_epochs"] = True


def _rng_state(key, value):
    def fault(metadata, arrays):
        metadata["chain"]["rng_state"][key] = value

    return fault


def _lr_current(value):
    def fault(metadata, arrays):
        metadata["lr_current"] = value

    return fault


def _log_partition_nan(metadata, arrays):
    arrays["log_partition"][0] = np.nan


FAULTS = {
    "config_batch_size_2.5": _config_fractional_batch_size,
    "config_max_epochs_true": _config_boolean_max_epochs,
    "config_n_qubits_20": _config_out_of_range,
    "no_weights_payload": _drop_weights_payload,
    "no_adam_phi_m_angles": _drop_adam_phi_m_angles,
    "adam_theta_v_weights_3_entries": _short_adam_theta_v_weights,
    "no_chain": _drop_chain,
    "support_index_1e6": _support_index_out_of_range,
    # The generator rejects these as OverflowError, not ValueError.
    "rng_uinteger_-1": _rng_state("uinteger", -1),
    "rng_uinteger_1e308": _rng_state("uinteger", 1e308),
    "rng_has_uint32_1e308": _rng_state("has_uint32", 1e308),
    "lr_current_-1": _lr_current(-1.0),
    "lr_current_0": _lr_current(0.0),
    "lr_current_nan": _lr_current(float("nan")),
    "lr_current_true": _lr_current(True),
    "log_partition_nan": _log_partition_nan,
}


def save_with_stored_config(path, state, config, history, extra) -> None:
    """Save a checkpoint whose stored config also holds the keys in ``extra``."""
    save_checkpoint(path, state, SimpleNamespace(as_dict=lambda: config.as_dict() | extra), history)


def write_corrupt_checkpoint(src, dst, fault: str | None) -> None:
    """Copy the checkpoint at ``src`` to ``dst`` with ``FAULTS[fault]`` applied.

    ``fault=None`` re-frames the contents unchanged.
    """
    raw = src.read_bytes()
    head = len(CKPT_MAGIC)
    (meta_len,) = struct.unpack_from("<Q", raw, head + 4)
    offset = head + 12
    metadata = json.loads(raw[offset : offset + meta_len])
    offset += meta_len
    arrays = {}
    for entry in metadata["payloads"]:
        n_items = int(np.prod(entry["shape"]))
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8", count=n_items, offset=offset).copy()
        offset += 8 * n_items
    if fault is not None:
        FAULTS[fault](metadata, arrays)
    blob = json.dumps(metadata, sort_keys=True).encode("utf-8")
    payload = b"".join(arr.astype("<f8").tobytes() for arr in arrays.values())
    dst.write_bytes(CKPT_MAGIC + struct.pack("<IQ", CKPT_VERSION, len(blob)) + blob + payload)
