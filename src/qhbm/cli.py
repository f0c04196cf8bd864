"""Command-line front end.

Subcommands cover the full pipeline: synth -> preprocess -> train ->
evaluate / generate / anomaly / site-entropy.  Training reads a JSON
config file whose keys mirror TrainConfig plus dataset paths; flags
override file values and ``--print-config`` echoes the resolved result.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, anomaly, embed, io, metrics, qsim, train
from .errors import ConfigError, DataError, NumericError
from .rng import substream

TRAIN_KEYS = {f.name for f in dataclasses.fields(train.TrainConfig)}
EXTRA_KEYS = {"train_data", "valid_data", "outdir", "scenario"}


def _load_config_file(path: str) -> dict:
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"config file not found: {file}")
    try:
        data = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {file} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {file} must hold a JSON object")
    unknown = set(data) - TRAIN_KEYS - EXTRA_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve_train_config(args: argparse.Namespace) -> dict:
    """defaults < scenario preset < config file < command-line flags."""
    file_data = _load_config_file(args.config) if args.config else {}
    scenario = args.scenario or file_data.get("scenario")
    resolved: dict = {}
    if scenario:
        if scenario not in anomaly.SCENARIOS:
            raise ConfigError(
                f"unknown scenario {scenario!r}, choose from {sorted(anomaly.SCENARIOS)}"
            )
        resolved.update(anomaly.SCENARIOS[scenario])
    resolved.update({k: v for k, v in file_data.items() if k != "scenario"})
    for key in sorted(TRAIN_KEYS | {"train_data", "valid_data", "outdir"}):
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    if scenario:
        resolved["scenario"] = scenario
    return resolved


def _train_config_from(resolved: dict) -> train.TrainConfig:
    kwargs = {k: v for k, v in resolved.items() if k in TRAIN_KEYS}
    try:
        return train.TrainConfig(**kwargs).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _load_probability_events(path: str | Path, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The (E, n_qubits) probabilities and the E labels of a preprocessed container."""
    images, labels, meta = io.read_image_container(path)
    if not len(images):
        raise DataError(f"{path} holds no events")
    if meta.get("kind") != "probabilities" or images.shape[1] != 1:
        raise DataError(
            f"{path} is not a preprocessed probability container (kind "
            "'probabilities', one row per event); run the preprocess command first"
        )
    try:
        return embed.check_probabilities(images[:, 0], n_qubits, str(path)), labels
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def cmd_synth(args: argparse.Namespace) -> int:
    rng = substream(args.seed, "synthesis", args.kind)
    images = embed.toy_jet_images(args.n_events, args.kind, args.grid, rng)
    meta = {"kind": "raw", "generator": "toy_jets", "grid": args.grid, "seed": args.seed}
    io.write_image_container(args.out, images, [args.kind] * len(images), meta)
    print(f"wrote {len(images)} {args.kind} events to {args.out}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    images, labels, _ = io.read_image_container(args.input)
    if not len(images):
        raise DataError(f"{args.input} holds no images")
    layout = [int(x) for x in args.layout.split(",")] if args.layout else None
    probs, scale_max, layout = embed.images_to_events(
        images, args.crop, args.pool, args.n_qubits,
        scale_max=args.scale_max, layout=layout, trim_remainder=not args.strict,
    )
    meta = {
        "kind": "probabilities",
        "scale_max": scale_max,
        "crop": args.crop,
        "pool": args.pool,
        # pool_images' side (a remainder is trimmed or rejected); the grid is square.
        "pooled_side": (images.shape[1] - 2 * args.crop) // args.pool,
        "layout": layout,
    }
    # One 1 x n image per event.
    io.write_image_container(args.out, probs[:, None], labels, meta)
    print(
        f"preprocessed {len(probs)} events to {args.out} "
        f"(scale_max={scale_max:.6g}, layout={layout})"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if args.resume:
        ignored = [k for k in ("config", "scenario") if getattr(args, k)] + [
            k for k in sorted(TRAIN_KEYS - {"max_epochs"}) if getattr(args, k, None) is not None
        ]
        if ignored:
            flags = ", ".join("--" + k.replace("_", "-") for k in ignored)
            raise ConfigError(f"--resume takes its settings from the checkpoint; it ignores {flags}")
    resolved = _resolve_train_config(args)
    initial = None
    history: list[dict] = []
    if args.resume:
        initial, stored, history = io.load_checkpoint(args.resume)
        # Every setting but --max-epochs comes from the checkpoint.
        resolved = stored.as_dict() | resolved
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return 0
    for key in ("train_data", "valid_data", "outdir"):
        if not resolved.get(key):
            raise ConfigError(f"missing required setting {key!r}")
    for key in ("train_data", "valid_data"):
        if not Path(resolved[key]).exists():
            raise DataError(f"dataset not found: {resolved[key]}")
    config = _train_config_from(resolved)

    train_probs, _ = _load_probability_events(resolved["train_data"], config.n_qubits)
    valid_probs, _ = _load_probability_events(resolved["valid_data"], config.n_qubits)

    best, history = train.fit(config, train_probs, valid_probs, initial, history)

    outdir = Path(resolved["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    io.save_checkpoint(outdir / "checkpoint.qhbm", best, config, history)
    io.write_csv_with_provenance(
        outdir / "history.csv",
        train.HISTORY_KEYS,
        ([h["epoch"], *(repr(h[key]) for key in train.HISTORY_KEYS[1:])] for h in history),
        config.as_dict(),
    )
    snapshot = _metric_snapshot(best, config, valid_probs)
    io.write_json(outdir / "metrics.json", snapshot)
    print(
        f"trained {len(history)} epochs, best validation loss "
        f"{best.best_validation_loss:.6f}; wrote {outdir / 'checkpoint.qhbm'}"
    )
    return 0


def _model_vs_data(
    w: np.ndarray,
    p: np.ndarray,
    generated: np.ndarray,
    probs: np.ndarray,
) -> dict:
    """Model state (W, p) and generated indices against the exact embedded state of ``probs``."""
    s = embed.exact_mixed_state(probs)
    mean_probs = probs.mean(axis=0)
    emitted = qsim.index_bits(generated, probs.shape[1])
    return {
        "fidelity": metrics.fidelity(s, w, p),
        "trace_distance": metrics.trace_distance(s, w, p),
        "quantum_relative_entropy": metrics.quantum_relative_entropy(s, w, p),
        "pixel_kl": metrics.bernoulli_marginal_kl(mean_probs, emitted.mean(axis=0)),
        "data_entropy": metrics.von_neumann_entropy(s),
    }


def _metric_snapshot(
    state: train.TrainState,
    config: train.TrainConfig,
    probs: np.ndarray,
) -> dict:
    """Model-vs-data measures on one (E, n) event set (exact data mixed state)."""
    w, p = train.model_state(state)
    generated = train.generate(w, state.hamiltonian, 2000, substream(config.seed, "generation"))
    return _model_vs_data(w, p, generated, probs) | {
        "model_entropy": metrics.von_neumann_entropy(p),
        "n_events": len(probs),
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    sizes = (("--batch-size", args.batch_size), ("--generation-samples", args.generation_samples))
    for flag, value in sizes:
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    state, config, _ = io.load_checkpoint(args.checkpoint)
    probs, labels = _load_probability_events(args.test, config.n_qubits)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    w, p = train.model_state(state)
    gen_rng = substream(args.seed, "generation")
    rows = []
    per_metric: dict[str, list[float]] = {}
    for start in range(0, len(probs), args.batch_size):
        batch = probs[start : start + args.batch_size]
        generated = train.generate(w, state.hamiltonian, args.generation_samples, gen_rng)
        values = _model_vs_data(w, p, generated, batch)
        rows.append([start // args.batch_size] + [repr(values[k]) for k in sorted(values)])
        for k, v in values.items():
            per_metric.setdefault(k, []).append(v)

    label_entropy = {}
    for label in sorted(set(labels)):
        subset = probs[labels == label]
        label_entropy[label] = metrics.von_neumann_entropy(embed.exact_mixed_state(subset))

    io.write_csv_with_provenance(
        outdir / "batch_metrics.csv",
        ["batch"] + sorted(per_metric),
        rows,
        config.as_dict(),
    )
    summary = {
        "model_entropy": metrics.von_neumann_entropy(p),
        "label_entropy": label_entropy,
        "n_events": len(probs),
        "batch_size": args.batch_size,
    }
    for k, vals in per_metric.items():
        summary[k] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
    io.write_json(outdir / "summary.json", summary)
    print(f"evaluated {len(probs)} events in batches of {args.batch_size}; wrote {outdir}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    state, config, _ = io.load_checkpoint(args.checkpoint)
    rng = substream(args.seed, "generation")
    w, _ = train.model_state(state)
    indices = train.generate(w, state.hamiltonian, args.n_events, rng)
    bits = qsim.index_bits(indices, config.n_qubits).astype(np.int64)
    rows = (
        [i, "".join(map(str, row)), index]
        for i, (row, index) in enumerate(zip(bits, indices))
    )
    io.write_csv_with_provenance(
        args.out, ["event", "bits", "basis_index"], rows, config.as_dict()
    )
    print(f"wrote {args.n_events} generated events to {args.out}")
    return 0


def _repr_rows(*columns: np.ndarray):
    """CSV rows of the ``repr`` of each column's floats, one row per index."""
    return zip(*(map(repr, column.tolist()) for column in columns))


def cmd_anomaly(args: argparse.Namespace) -> int:
    state, config, _ = io.load_checkpoint(args.checkpoint)
    # One row object per event for the whole run: the benchmark traces tell
    # scored events apart by object identity.
    signal = list(_load_probability_events(args.signal, config.n_qubits)[0])
    background = list(_load_probability_events(args.background, config.n_qubits)[0])
    anomaly.check_spectral_args(args.total_time, args.dt, args.f_min)
    if args.n_draws < 1:
        raise ValueError(f"--n-draws must be >= 1, got {args.n_draws}")
    if args.n_thresholds < 2:
        raise ValueError(f"--n-thresholds must be >= 2, got {args.n_thresholds}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run_meta = config.as_dict() | {
        "total_time": args.total_time,
        "dt": args.dt,
        "n_draws": args.n_draws,
        "f_min": args.f_min,
    }

    # The table depends on the model and the time grid only, so every pass
    # below reads the same circuit matrix and row store.
    table = anomaly.RoutingTable(state, args.total_time, args.dt)
    scores: dict = {"t_zero": [], "spectral": []}
    rngs = {mode: substream(args.seed, "embedding", "anomaly", mode) for mode in scores}
    times = args.dt * np.arange(table.grid[0])
    for label, events in (("signal", signal), ("background", background)):
        scores["t_zero"].append(anomaly.score_events(
            state, events, "t_zero", rngs["t_zero"], n_draws=args.n_draws, table=table
        ))
        # The class's one copy of its series, a row per event: its spectral
        # scores, mean series and mean spectrum all come from it.
        stack = anomaly.event_series(
            state, events, args.total_time, args.dt, rngs["spectral"], args.n_draws, table=table
        )
        class_scores, spectrum = anomaly.spectral_score(stack, args.dt, args.f_min)
        scores["spectral"].append(class_scores)
        io.write_csv_with_provenance(
            outdir / f"series_{label}.csv",
            ["time", "mean_fidelity", "std_fidelity"],
            _repr_rows(times, *anomaly.series_moments(stack)),
            run_meta,
        )
        io.write_csv_with_provenance(
            outdir / f"spectrum_{label}.csv",
            ["frequency", "mean_power"],
            _repr_rows(spectrum.frequencies, spectrum.power),
            run_meta,
        )
        # Only one class's stack is held at a time.
        del stack

    summary: dict = {"n_signal": len(signal), "n_background": len(background)}
    for mode, (sig_scores, bkg_scores) in scores.items():
        roc = metrics.roc_from_scores(sig_scores, bkg_scores, args.n_thresholds)
        labels = ["signal"] * len(sig_scores) + ["background"] * len(bkg_scores)
        values = map(repr, np.concatenate([sig_scores, bkg_scores]).tolist())
        io.write_csv_with_provenance(
            outdir / f"scores_{mode}.csv",
            ["event", "label", "score"],
            zip(range(len(labels)), labels, values),
            run_meta,
        )
        io.write_csv_with_provenance(
            outdir / f"roc_{mode}.csv",
            ["threshold", "tpr", "fpr"],
            _repr_rows(roc.thresholds, roc.tpr, roc.fpr),
            run_meta,
        )
        summary[f"auc_{mode}"] = roc.auc
        summary[f"direction_{mode}"] = roc.direction

    io.write_json(outdir / "auc_summary.json", summary)
    print(
        f"anomaly report written to {outdir}: "
        f"AUC(t_zero)={summary['auc_t_zero']:.4f}, "
        f"AUC(spectral)={summary['auc_spectral']:.4f}"
    )
    return 0


def cmd_site_entropy(args: argparse.Namespace) -> int:
    state, config, _ = io.load_checkpoint(args.checkpoint)
    w = train.model_state(state)[0] if args.mode == "dressed" else None
    profile = anomaly.site_entropy_profile(state.hamiltonian, w)
    io.write_csv_with_provenance(
        args.out,
        ["pair", "entropy"],
        ([f"{i}-{i + 1}", repr(float(s))] for i, s in enumerate(profile)),
        config.as_dict() | {"mode": args.mode},
    )
    print(f"wrote {profile.size} pair entropies to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qhbm`` parser, built once per process.

    It binds no command function: ``main`` looks ``cmd_<command>`` up on
    this module at call time, so a replaced command is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="qhbm",
        description="Quantum Hamiltonian-based model training and anomaly detection",
    )
    parser.add_argument("--version", action="version", version=f"qhbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic toy jet images")
    p.add_argument("--kind", choices=("signal", "background"), required=True)
    p.add_argument("--n-events", type=int, required=True)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("preprocess", help="crop, pool, standardise and select pixels")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--crop", type=int, default=2)
    p.add_argument("--pool", type=int, default=2)
    p.add_argument("--n-qubits", type=int, default=6)
    p.add_argument("--layout", help="comma-separated flat pixel indices")
    p.add_argument("--scale-max", type=float, help="reuse a fitted standardisation maximum")
    p.add_argument("--strict", action="store_true", help="reject non-divisible crop sizes")

    p = sub.add_parser("train", help="fit the model on preprocessed events")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--print-config", action="store_true")
    p.add_argument("--scenario", choices=tuple(anomaly.SCENARIOS))
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--train-data", dest="train_data")
    p.add_argument("--valid-data", dest="valid_data")
    p.add_argument("--outdir")
    # One flag per TrainConfig field: the learning rate is a float, every other an int.
    for f in dataclasses.fields(train.TrainConfig):
        kind = float if isinstance(f.default, float) else int
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=kind)

    p = sub.add_parser("evaluate", help="batch metrics of a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--batch-size", type=int, default=25)
    p.add_argument("--generation-samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="sample events from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-events", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("anomaly", help="score signal vs background events")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--background", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--total-time", type=float, default=500.0)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--n-draws", type=int, default=10)
    p.add_argument("--f-min", type=float, default=0.2)
    p.add_argument("--n-thresholds", type=int, default=metrics.N_THRESHOLDS)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("site-entropy", help="adjacent-pair ground-state entropies")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("dressed", "diagonal"), default="dressed")
    p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
