"""Well-framed but corrupt checkpoints for the loader's error paths.

Each fault rewrites a valid checkpoint with correct magic, version,
lengths and payload framing, so only the contents are wrong.  The faults
named after the version-1 payloads (``log_partition``, ``adam_theta_*``,
``adam_phi_*``) and step counts first rewrite the file in that layout
(``to_version_1``).  ``write_version_1`` writes a valid version-1 copy,
and ``save_with_stored_config`` writes a version-1 checkpoint whose
stored config holds extra keys, as builds before the retired settings
wrote them: version 1 is the only layout that ever held those keys.
"""

import json
import struct
from types import SimpleNamespace

import numpy as np

from qhbm import ebm
from qhbm.io import CKPT_MAGIC, save_checkpoint
from qhbm.special import logsumexp

# The version-1 optimisers: the model's moments in sorted key order, then the angles'.
_V1_OPTIMISERS = (("theta", ("hidden_bias", "visible_bias", "weights")), ("phi", ("angles",)))


def read_layout(path):
    """(format version, metadata, flat payload arrays in manifest order) of a checkpoint."""
    raw = path.read_bytes()
    head = len(CKPT_MAGIC)
    version, meta_len = struct.unpack_from("<IQ", raw, head)
    offset = head + 12
    metadata = json.loads(raw[offset : offset + meta_len])
    offset += meta_len
    arrays = {}
    for entry in metadata["payloads"]:
        n_items = int(np.prod(entry["shape"]))
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8", count=n_items, offset=offset).copy()
        offset += 8 * n_items
    return version, metadata, arrays


def to_version_1(metadata, arrays) -> int:
    """Rewrite a version-2 layout in place as version 1 stored it; return 1.

    Version 1 kept one optimiser for the model and one for the angles, each
    with its own step count, the chain's current energy and log Z.
    """
    shapes = {e["name"]: e["shape"] for e in metadata["payloads"]}
    model = ebm.EnergyModel(
        *(arrays[k].reshape(shapes[k]) for k in ("weights", "visible_bias", "hidden_bias"))
    )
    chain = metadata["chain"]
    chain["current_energy"] = float(ebm.free_energies(model, [chain["current_index"]])[0])
    metadata["adam_t"] = {"theta": metadata["adam_t"], "phi": metadata["adam_t"]}
    names = ["weights", "visible_bias", "hidden_bias", "angles", "support_indices", "support_energies"]
    legacy = {name: (arrays[name], shapes[name]) for name in names}
    log_z = logsumexp(-arrays["support_energies"])
    legacy["log_partition"] = (np.array([log_z]), [1])
    for tag, keys in _V1_OPTIMISERS:
        for key in keys:
            for kind in "mv":
                name = f"adam_{kind}_{key}"
                legacy[f"adam_{tag}_{kind}_{key}"] = (arrays[name], shapes[name])
    arrays.clear()
    arrays.update({name: values for name, (values, _) in legacy.items()})
    metadata["payloads"] = [{"name": name, "shape": shape} for name, (_, shape) in legacy.items()]
    return 1


def _version_1(fault):
    def legacy_fault(metadata, arrays):
        version = to_version_1(metadata, arrays)
        fault(metadata, arrays)
        return version

    return legacy_fault


def set_field(*keys, value):
    """Set the metadata entry at ``keys`` to ``value``."""
    def fault(metadata, arrays):
        target = metadata
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return fault


def _entry(name, value):
    """Set the first entry of payload ``name`` to ``value``."""
    def fault(metadata, arrays):
        arrays[name][0] = value

    return fault


def _drop(name):
    def fault(metadata, arrays):
        metadata["payloads"] = [e for e in metadata["payloads"] if e["name"] != name]
        del arrays[name]

    return fault


def _truncate(name, n_items):
    def fault(metadata, arrays):
        entry = next(e for e in metadata["payloads"] if e["name"] == name)
        entry["shape"] = [n_items]
        arrays[name] = arrays[name][:n_items]

    return fault


def _drop_chain(metadata, arrays):
    del metadata["chain"]


def _hidden_units_above_payloads(metadata, arrays):
    # The stored couplings keep their hidden units; the config implies one more.
    n_hidden = next(e["shape"][1] for e in metadata["payloads"] if e["name"] == "weights")
    metadata["config"]["n_hidden"] = n_hidden + 1


def _correct_log_partition_payload(metadata, arrays):
    # Version 2 stores no log Z, not even the value the energies give.
    metadata["payloads"].append({"name": "log_partition", "shape": [1]})
    arrays["log_partition"] = np.array([logsumexp(-arrays["support_energies"])])


def _history_row_without_epoch(metadata, arrays):
    del metadata["history"][0]["epoch"]


def _shift_first_support_index(metadata, arrays):
    # A truncating cast would load the first support state at its old index.
    arrays["support_indices"][0] += 0.5


def _unequal_step_counts(metadata, arrays):
    metadata["adam_t"]["phi"] += 1


def _epoch_above_history(metadata, arrays):
    metadata["epoch"] = len(metadata["history"]) + 1


def _empty_support(metadata, arrays):
    for name in ("support_indices", "support_energies"):
        _truncate(name, 0)(metadata, arrays)


def _best_one_ulp_above_lowest(metadata, arrays):
    lowest = min(row["validation_loss"] for row in metadata["history"])
    metadata["best_validation_loss"] = float(np.nextafter(lowest, np.inf))


FAULTS = {
    "config_batch_size_2.5": set_field("config", "batch_size", value=2.5),
    "config_max_epochs_true": set_field("config", "max_epochs", value=True),
    "config_n_qubits_20": set_field("config", "n_qubits", value=20),
    "config_n_hidden_above_payloads": _hidden_units_above_payloads,
    # Only version-1 files held the retired keys; in version 2 one is unknown.
    "config_retired_beta_1.0": set_field("config", "beta", value=1.0),
    "no_weights_payload": _drop("weights"),
    "no_adam_m_angles": _drop("adam_m_angles"),
    "adam_v_weights_3_entries": _truncate("adam_v_weights", 3),
    "adam_v_angles_-1": _entry("adam_v_angles", -1.0),
    "adam_m_angles_nan": _entry("adam_m_angles", np.nan),
    "log_partition_payload": _correct_log_partition_payload,
    "no_chain": _drop_chain,
    "chain_current_index_true": set_field("chain", "current_index", value=True),
    "chain_current_index_2.5": set_field("chain", "current_index", value=2.5),
    "epoch_-1": set_field("epoch", value=-1),
    "epoch_2.5": set_field("epoch", value=2.5),
    "epoch_true": set_field("epoch", value=True),
    "epoch_1e308": set_field("epoch", value=1e308),
    # A resume would number its epochs from the stored epoch.
    "epoch_0": set_field("epoch", value=0),
    "epoch_above_history": _epoch_above_history,
    "adam_t_-1": set_field("adam_t", value=-1),
    "adam_t_2.5": set_field("adam_t", value=2.5),
    "adam_t_true": set_field("adam_t", value=True),
    # Resuming would overflow in the bias correction 0.9**t.
    "adam_t_10**400": set_field("adam_t", value=10**400),
    "history_x": set_field("history", value="x"),
    "history_list_of_1": set_field("history", value=[1]),
    "history_row_without_epoch": _history_row_without_epoch,
    "support_index_1e6": _entry("support_indices", 1e6),
    "support_index_plus_0.5": _shift_first_support_index,
    # No build writes one: every step samples at least one state.
    "support_empty": _empty_support,
    # The generator rejects these as OverflowError, not ValueError.
    "rng_uinteger_-1": set_field("chain", "rng_state", "uinteger", value=-1),
    "rng_uinteger_1e308": set_field("chain", "rng_state", "uinteger", value=1e308),
    "rng_has_uint32_1e308": set_field("chain", "rng_state", "has_uint32", value=1e308),
    # The generator stores these as another position instead of rejecting them.
    "rng_has_uint32_-1": set_field("chain", "rng_state", "has_uint32", value=-1),
    "rng_has_uint32_true": set_field("chain", "rng_state", "has_uint32", value=True),
    "rng_has_uint32_2.5": set_field("chain", "rng_state", "has_uint32", value=2.5),
    "rng_state_true": set_field("chain", "rng_state", "state", "state", value=True),
    "rng_state_2.5": set_field("chain", "rng_state", "state", "state", value=2.5),
    "rng_inc_true": set_field("chain", "rng_state", "state", "inc", value=True),
    "rng_inc_2.5": set_field("chain", "rng_state", "state", "inc", value=2.5),
    # Every build stores PCG64; any other name, a numpy function's included, is corrupt.
    "rng_bit_generator_seed": set_field("chain", "rng_state", "bit_generator", value="seed"),
    "rng_bit_generator_MT19937": set_field("chain", "rng_state", "bit_generator", value="MT19937"),
    "lr_current_-1": set_field("lr_current", value=-1.0),
    "lr_current_0": set_field("lr_current", value=0.0),
    "lr_current_nan": set_field("lr_current", value=float("nan")),
    "lr_current_true": set_field("lr_current", value=True),
    "best_validation_loss_nan": set_field("best_validation_loss", value=float("nan")),
    "best_validation_loss_-inf": set_field("best_validation_loss", value=float("-inf")),
    "best_validation_loss_str_1e3": set_field("best_validation_loss", value="1e3"),
    "best_validation_loss_true": set_field("best_validation_loss", value=True),
    # A finite best is the history's lowest validation loss, bit for bit.
    "best_validation_loss_1e308": set_field("best_validation_loss", value=1e308),
    "best_validation_loss_one_ulp_above_lowest": _best_one_ulp_above_lowest,
    # Version-1 layout.
    "log_partition_nan": _version_1(_entry("log_partition", np.nan)),
    "no_adam_phi_m_angles": _version_1(_drop("adam_phi_m_angles")),
    "adam_theta_v_weights_3_entries": _version_1(_truncate("adam_theta_v_weights", 3)),
    "adam_t_theta_phi_unequal": _version_1(_unequal_step_counts),
}


def save_with_stored_config(path, state, config, history, extra) -> None:
    """Save a version-1 checkpoint whose stored config also holds the keys in ``extra``."""
    save_checkpoint(path, state, SimpleNamespace(as_dict=lambda: config.as_dict() | extra), history)
    rewrite(path, path, to_version_1)


def rewrite(src, dst, edit) -> None:
    """Copy the checkpoint at ``src`` to ``dst`` with ``edit(metadata, arrays)`` applied.

    ``edit`` returns the format version to write, or None for the one ``src`` has.
    """
    version, metadata, arrays = read_layout(src)
    version = (edit(metadata, arrays) if edit else None) or version
    blob = json.dumps(metadata, sort_keys=True).encode("utf-8")
    payload = b"".join(arr.astype("<f8").tobytes() for arr in arrays.values())
    dst.write_bytes(CKPT_MAGIC + struct.pack("<IQ", version, len(blob)) + blob + payload)


def write_corrupt_checkpoint(src, dst, fault: str | None) -> None:
    """Copy the checkpoint at ``src`` to ``dst`` with ``FAULTS[fault]`` applied.

    ``fault=None`` re-frames the contents unchanged.
    """
    rewrite(src, dst, FAULTS[fault] if fault is not None else None)


def write_version_1(src, dst) -> None:
    """Copy the version-2 checkpoint at ``src`` to ``dst`` in the version-1 layout."""
    rewrite(src, dst, to_version_1)
