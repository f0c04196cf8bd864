#!/usr/bin/env python3
"""Embedding-sample sweep: reconstruction quality vs number of draws.

Fixes one synthetic event and its exact embedded mixed state, then trains
a fresh model per (sample count, seed) pair on Bernoulli draws of that
event with everything else held constant.  A seed's samples are nested:
its larger samples extend its smaller ones, so sample sizes are compared
on shared draws.  Reports median fidelity to the exact state and median
divergence between the pixel distributions.
"""

import argparse
import dataclasses
import time

import numpy as np

from qhbm import embed, io, metrics, train
from qhbm.rng import substream


def nested_counts(distribution, sample_counts, rng):
    """Draw counts from an event's ``distribution`` at each sample count, nested.

    Each sample extends the smaller ones.

    A larger sample's counts are the running sum of count draws of the
    differences between successive sample counts, all from ``rng``.
    """
    counts = {}
    total, drawn = 0, 0
    for n in sorted(set(sample_counts)):
        total = total + embed.bernoulli_index_samples(distribution, n - drawn, rng)
        counts[n], drawn = total, n
    return counts


def train_on_counts(config, counts, n_steps, anneal):
    state = train.init_train_state(config)
    batch = embed.frequency_row(counts)[None]
    for step in range(n_steps):
        for at, rate in anneal:
            if step == at:
                state = dataclasses.replace(state, lr_current=rate)
        state, _ = train.train_step(state, batch, config)
    return state


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", default="50,500,5000",
                        help="comma-separated embedding sample counts")
    parser.add_argument("--n-seeds", type=int, default=9)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--n-mc-samples", type=int, default=500)
    parser.add_argument("--grid", type=int, default=16)
    parser.add_argument("--crop", type=int, default=2)
    parser.add_argument("--pool", type=int, default=2)
    parser.add_argument("--synth-seed", type=int, default=21)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args(argv)

    images = embed.toy_jet_images(
        1, "background", args.grid, substream(args.synth_seed, "synthesis", "background")
    )
    probs, _, _ = embed.images_to_events(images, args.crop, args.pool, 4)
    target = embed.exact_mixed_state(probs)
    (distribution,) = embed.product_distributions(probs)
    print("event probs:", np.round(probs[0], 4))

    # Learning-rate anneal at 50% and 75% of the step budget.
    anneal = ((args.steps // 2, 5e-3), (args.steps * 3 // 4, 2.5e-3))
    seeds = range(args.first_seed, args.first_seed + args.n_seeds)
    sample_counts = [int(s) for s in args.samples.split(",")]
    report = {"config": vars(args), "results": {}}
    counts = {
        seed: nested_counts(distribution, sample_counts, substream(seed, "embedding", "sweep", 0))
        for seed in seeds
    }
    t0 = time.monotonic()
    for n_embed in sample_counts:
        t_sweep = time.monotonic()
        fids, kls = [], []
        for seed in seeds:
            config = train.TrainConfig(
                n_qubits=4, n_mc_samples=args.n_mc_samples, n_embed_samples=n_embed,
                batch_size=1, max_epochs=1, seed=seed,
            )
            state = train_on_counts(config, counts[seed][n_embed], args.steps, anneal)
            w, p = train.model_state(state)
            fids.append(metrics.fidelity(target, w, p))
            # The model's basis distribution is the diagonal of W diag(p) W^T.
            kls.append(metrics.kl_divergence(target, (w * w) @ p))
        report["results"][str(n_embed)] = {
            "median_fidelity": float(np.median(fids)),
            "median_kl": float(np.median(kls)),
            "fidelities": [round(f, 5) for f in fids],
            "kls": [round(k, 5) for k in kls],
            "seconds": round(time.monotonic() - t_sweep, 1),
        }
        print(
            f"N={n_embed:5d} median fid={np.median(fids):.6f} "
            f"median KL={np.median(kls):.6f} [{time.monotonic() - t_sweep:.0f}s]"
        )
    print(f"total {time.monotonic() - t0:.0f}s")
    if args.out:
        io.write_json(args.out, report)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
