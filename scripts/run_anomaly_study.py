#!/usr/bin/env python3
"""Toy-jet anomaly study: train background models, score signal vs background.

Synthesises calorimeter-style events, trains one model per qubit count on
background only, then reports the AUC of both anomaly scores on held-out
signal/background splits, plus a background-vs-background null for the
time-zero score.  Writes a JSON report next to the printed table.
"""

import argparse
import time

from qhbm import anomaly, embed, io, train
from qhbm.rng import substream


def jet_probs(kind, n_events, seed, n_qubits, grid, crop, pool, scale_max=None):
    images = embed.synth_toy_jets(n_events, kind, grid, substream(seed, "synthesis", kind))
    events, scale_max, _ = embed.images_to_events(images, crop, pool, n_qubits, scale_max=scale_max)
    return events, scale_max


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", default="4,6", help="comma-separated qubit counts")
    parser.add_argument("--n-train", type=int, default=300)
    parser.add_argument("--n-valid", type=int, default=60)
    parser.add_argument("--n-test", type=int, default=150)
    parser.add_argument("--grid", type=int, default=16)
    parser.add_argument("--crop", type=int, default=2)
    parser.add_argument("--pool", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--batch-size", type=int, default=25)
    parser.add_argument("--n-embed-samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--n-draws-t-zero", type=int, default=256)
    parser.add_argument("--n-draws-spectral", type=int, default=2048)
    parser.add_argument("--f-min", type=float, default=0.05)
    parser.add_argument("--total-time", type=float, default=200.0)
    parser.add_argument("--dt", type=float, default=0.1)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args(argv)

    qubit_counts = [int(q) for q in args.qubits.split(",")]
    report = {"config": vars(args), "results": {}}
    t0 = time.monotonic()
    for n_qubits in qubit_counts:
        t_model = time.monotonic()
        common = (args.grid, args.crop, args.pool)
        train_events, scale = jet_probs("background", args.n_train, 1, n_qubits, *common)
        valid_events, _ = jet_probs("background", args.n_valid, 2, n_qubits, *common, scale)
        config = train.TrainConfig(
            n_qubits=n_qubits,
            n_mc_samples=300 if n_qubits <= 4 else 500,
            n_embed_samples=args.n_embed_samples,
            max_epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        model, history = train.fit(config, train_events, valid_events)
        background, _ = jet_probs("background", args.n_test, 3, n_qubits, *common, scale)
        signal, _ = jet_probs("signal", args.n_test, 4, n_qubits, *common, scale)
        null_background, _ = jet_probs("background", args.n_test, 8, n_qubits, *common, scale)

        t_zero = anomaly.discrimination_report(
            model, signal, background, "t_zero",
            substream(7, "generation"), n_draws=args.n_draws_t_zero,
        )
        null = anomaly.discrimination_report(
            model, null_background, background, "t_zero",
            substream(9, "generation"), n_draws=args.n_draws_t_zero,
        )
        spectral = anomaly.discrimination_report(
            model, signal, background, "spectral",
            substream(7, "generation"), f_min=args.f_min,
            total_time=args.total_time, dt=args.dt, n_draws=args.n_draws_spectral,
        )
        report["results"][str(n_qubits)] = {
            "epochs": len(history),
            "best_validation_loss": model.best_validation_loss,
            "auc_t_zero": t_zero.auc,
            "direction_t_zero": t_zero.direction,
            "auc_t_zero_null": null.auc,
            "auc_spectral": spectral.auc,
            "direction_spectral": spectral.direction,
            "seconds": round(time.monotonic() - t_model, 1),
        }
        print(
            f"{n_qubits}q: t_zero AUC={t_zero.auc:.3f} ({t_zero.direction}) "
            f"null={null.auc:.3f} spectral AUC={spectral.auc:.3f} "
            f"({spectral.direction}) [{time.monotonic() - t_model:.0f}s]"
        )
    print(f"total {time.monotonic() - t0:.0f}s")
    if args.out:
        io.write_json(args.out, report)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
