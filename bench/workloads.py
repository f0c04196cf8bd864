"""The three benchmark workloads.

Each workload has a ``setup(seed, workdir)`` that builds its inputs from
the seed alone, a ``run(inputs)`` that is the timed part, and a
``check(inputs, outcome)`` that validates the outputs afterwards
(outside the timed and traced window).  ``run`` returns an ``Outcome``
whose ``exact`` values must repeat bit for bit on every repetition.
"""

from __future__ import annotations

import contextlib
import csv
import io as stdio
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import qhbm
from qhbm import anomaly, embed, metrics, train
from qhbm.rng import substream

GRID, CROP, POOL = 16, 2, 2


@dataclass
class Outcome:
    ops: int
    failed_ops: int = 0
    # Seconds per CLI subcommand, summed over its invocations.
    seconds: dict[str, float] = field(default_factory=dict)
    rates: dict[str, float] = field(default_factory=dict)
    exact: dict[str, float] = field(default_factory=dict)
    # Layer values measured by the workload rather than at a hook.
    layer: dict[str, float] = field(default_factory=dict)
    data: dict = field(default_factory=dict)


def _jet_events(kind, n_events, seed, split, n_qubits, scale_max=None):
    """Toy jets cropped, pooled, standardised and reduced to ``n_qubits`` pixels."""
    rng = substream(seed, "bench", split, kind)
    pooled = [embed.crop_and_pool(im, CROP, POOL) for im in embed.synth_toy_jets(n_events, kind, GRID, rng)]
    if scale_max is None:
        scale_max = embed.fit_scale_max(pooled)
    layout = embed.pixel_layout(pooled[0].height, n_qubits)
    return [embed.select_pixels(embed.standardise(im, scale_max), layout) for im in pooled], scale_max


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# --- train-8q -----------------------------------------------------------

TRAIN8_EVENTS, TRAIN8_VALID, TRAIN8_EPOCHS = 50, 25, 1


def setup_train_8q(seed: int, workdir: Path) -> dict:
    train_events, scale = _jet_events("background", TRAIN8_EVENTS, seed, "train", 8)
    valid_events, _ = _jet_events("background", TRAIN8_VALID, seed, "valid", 8, scale)
    config = train.TrainConfig(
        **anomaly.SCENARIOS["eight_qubit"], max_epochs=TRAIN8_EPOCHS, seed=seed
    ).validate()
    return {"config": config, "train": train_events, "valid": valid_events}


def run_train_8q(inputs: dict) -> Outcome:
    config = inputs["config"]
    steps = config.max_epochs * math.ceil(len(inputs["train"]) / config.batch_size)
    out = Outcome(ops=steps)
    start = time.perf_counter()
    try:
        _, history = train.fit(config, inputs["train"], inputs["valid"])
    except (ValueError, qhbm.NumericError) as exc:
        out.failed_ops = steps
        out.data["error"] = repr(exc)
        return out
    out.rates["steps_per_s"] = steps / (time.perf_counter() - start)
    out.exact["final_validation_loss"] = history[-1]["validation_loss"]
    out.data["history"] = history
    return out


def check_train_8q(inputs: dict, out: Outcome) -> dict[str, bool]:
    history = out.data.get("history", [])
    return {
        "history has one row per epoch": len(history) == inputs["config"].max_epochs,
        "losses are finite": bool(history)
        and all(_finite(h["train_loss"], h["validation_loss"]) for h in history),
    }


# --- score-6q -----------------------------------------------------------

# A short fixed schedule of the A5/A6 background-model recipe.
SCORE_TRAIN, SCORE_VALID, SCORE_EPOCHS = 100, 25, 3
SCORE_SIGNAL, SCORE_BACKGROUND = 12, 12
T_ZERO = {"n_draws": 256}
SPECTRAL = {"n_draws": 2048, "total_time": 200.0, "dt": 0.1, "f_min": 0.05}


def setup_score_6q(seed: int, workdir: Path) -> dict:
    train_events, scale = _jet_events("background", SCORE_TRAIN, seed, "train", 6)
    valid_events, _ = _jet_events("background", SCORE_VALID, seed, "valid", 6, scale)
    config = train.TrainConfig(
        n_qubits=6,
        n_mc_samples=500,
        n_embed_samples=500,
        batch_size=25,
        max_epochs=SCORE_EPOCHS,
        seed=seed,
    )
    model, _ = train.fit(config, train_events, valid_events)
    signal, _ = _jet_events("signal", SCORE_SIGNAL, seed, "test", 6, scale)
    background, _ = _jet_events("background", SCORE_BACKGROUND, seed, "test", 6, scale)
    return {"model": model, "config": config, "signal": signal, "background": background}


def run_score_6q(inputs: dict) -> Outcome:
    model, signal, background = inputs["model"], inputs["signal"], inputs["background"]
    n_events = len(signal) + len(background)
    out = Outcome(ops=2 * n_events)
    for mode, kwargs in (("t_zero", T_ZERO), ("spectral", SPECTRAL)):
        rng = substream(inputs["config"].seed, "bench", "score", mode)
        start = time.perf_counter()
        try:
            sig = anomaly.score_events(model, signal, mode, rng, **kwargs)
            bkg = anomaly.score_events(model, background, mode, rng, **kwargs)
            scored = time.perf_counter()
            roc = metrics.roc_from_scores(sig, bkg)
        except (ValueError, qhbm.NumericError) as exc:
            out.failed_ops += n_events
            out.data[f"error_{mode}"] = repr(exc)
            continue
        out.rates[f"{mode}_events_per_s"] = n_events / (scored - start)
        out.exact[f"auc_{mode}"] = roc.auc
        out.data[mode] = (sig, bkg, roc)
    # No sampling happens here; the ratio is that of the scored model's support.
    out.layer["ebm.support_unique_frac"] = len(model.hamiltonian.support) / inputs["config"].n_mc_samples
    return out


def check_score_6q(inputs: dict, out: Outcome) -> dict[str, bool]:
    checks = {}
    for mode in ("t_zero", "spectral"):
        sig, bkg, roc = out.data.get(mode, ([math.nan], [math.nan], None))
        checks[f"{mode} scores are finite"] = _finite(*sig, *bkg)
        checks[f"{mode} AUC direction recorded"] = roc is not None and roc.direction in ("high", "low")
        checks[f"{mode} AUC in [0.5, 1]"] = roc is not None and 0.5 <= roc.auc <= 1.0
    return checks


# --- cli-6q -------------------------------------------------------------

# The README toy run; ``train`` adds the six_qubit scenario and a short
# fixed epoch count.  README seeds k map to 10 * seed + k.
CLI_EPOCHS = 2
CLI_SYNTH = (("background", 300, 1, "train"), ("background", 60, 2, "valid"), ("signal", 150, 3, "signal"))
CLI_OUTPUTS = (
    "train.qhbimg", "valid.qhbimg", "signal.qhbimg",
    "run/checkpoint.qhbm", "run/history.csv", "run/metrics.json",
    "eval/batch_metrics.csv", "eval/summary.json", "generated.csv",
    "anomaly/scores_t_zero.csv", "anomaly/scores_spectral.csv",
    "anomaly/roc_t_zero.csv", "anomaly/roc_spectral.csv",
    "anomaly/series_signal.csv", "anomaly/series_background.csv",
    "anomaly/spectrum_signal.csv", "anomaly/spectrum_background.csv",
    "anomaly/auc_summary.json", "pairs.csv",
)


def setup_cli_6q(seed: int, workdir: Path) -> dict:
    return {"seed": seed, "workdir": workdir}


def _cli(out: Outcome, argv: list[str]) -> None:
    """One in-process ``qhbm`` command; timed per subcommand."""
    sink = stdio.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = qhbm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    key = f"cli.{argv[0]}.s"
    out.seconds[key] = out.seconds.get(key, 0.0) + elapsed
    if code != 0:
        out.failed_ops += 1
        out.data.setdefault("errors", []).append(f"{argv[0]} exited {code}: {sink.getvalue()[-500:]}")


def run_cli_6q(inputs: dict) -> Outcome:
    s = inputs["seed"]
    d = Path(tempfile.mkdtemp(prefix="rep-", dir=inputs["workdir"]))
    out = Outcome(ops=11, data={"dir": d})
    p = lambda name: str(d / name)  # noqa: E731
    for kind, n_events, k, split in CLI_SYNTH:
        _cli(out, ["synth", "--kind", kind, "--n-events", str(n_events), "--grid", str(GRID),
                   "--seed", str(10 * s + k), "--out", p(f"{split}_raw.qhbimg")])
    prep = ["--crop", str(CROP), "--pool", str(POOL), "--n-qubits", "6"]
    _cli(out, ["preprocess", "--input", p("train_raw.qhbimg"), "--out", p("train.qhbimg"), *prep])
    try:
        scale = json.loads(Path(p("train.qhbimg.json")).read_text())["meta"]["scale_max"]
    except (OSError, ValueError, KeyError):
        scale = 1.0
        out.data.setdefault("errors", []).append("train.qhbimg.json has no scale_max")
    for split in ("valid", "signal"):
        _cli(out, ["preprocess", "--input", p(f"{split}_raw.qhbimg"), "--out", p(f"{split}.qhbimg"),
                   *prep, "--scale-max", repr(scale)])
    _cli(out, ["train", "--train-data", p("train.qhbimg"), "--valid-data", p("valid.qhbimg"),
               "--outdir", p("run"), "--n-qubits", "6", "--max-epochs", str(CLI_EPOCHS),
               "--batch-size", "25", "--seed", str(10 * s + 5), "--scenario", "six_qubit"])
    ckpt = p("run/checkpoint.qhbm")
    _cli(out, ["evaluate", "--checkpoint", ckpt, "--test", p("valid.qhbimg"), "--outdir", p("eval")])
    _cli(out, ["generate", "--checkpoint", ckpt, "--n-events", "20", "--seed", str(10 * s + 4),
               "--out", p("generated.csv")])
    _cli(out, ["anomaly", "--checkpoint", ckpt, "--signal", p("signal.qhbimg"),
               "--background", p("valid.qhbimg"), "--outdir", p("anomaly"), "--total-time", "200",
               "--dt", "0.1", "--n-draws", "256", "--f-min", "0.05", "--seed", str(10 * s + 7)])
    _cli(out, ["site-entropy", "--checkpoint", ckpt, "--out", p("pairs.csv")])

    steps = CLI_EPOCHS * math.ceil(CLI_SYNTH[0][1] / 25)
    out.rates["steps_per_s"] = steps / out.seconds["cli.train.s"]
    history = _csv_rows(d / "run/history.csv")
    summary = _json(d / "anomaly/auc_summary.json")
    if history:
        out.exact["final_validation_loss"] = float(history[-1]["validation_loss"])
    for mode in ("t_zero", "spectral"):
        if f"auc_{mode}" in summary:
            out.exact[f"auc_{mode}"] = float(summary[f"auc_{mode}"])
    out.data.update(history=history, summary=summary)
    return out


def _csv_rows(path: Path) -> list[dict]:
    try:
        with path.open() as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))
    except OSError:
        return []


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def check_cli_6q(inputs: dict, out: Outcome) -> dict[str, bool]:
    d = out.data["dir"]
    try:
        history, summary = out.data["history"], out.data["summary"]
        try:
            qhbm.io.load_checkpoint(d / "run/checkpoint.qhbm")
            loads = True
        except (qhbm.DataError, ValueError, KeyError):
            loads = False
        scores = [
            float(row["score"])
            for mode in ("t_zero", "spectral")
            for row in _csv_rows(d / f"anomaly/scores_{mode}.csv")
        ]
        return {
            "every command exits 0": not out.data.get("errors"),
            "expected output files exist": all((d / name).is_file() for name in CLI_OUTPUTS),
            "checkpoint loads back": loads,
            "history.csv has one row per epoch": len(history) == CLI_EPOCHS,
            "losses are finite": bool(history)
            and all(_finite(h["train_loss"], h["validation_loss"]) for h in history),
            "scores are finite": len(scores) == 2 * (CLI_SYNTH[1][1] + CLI_SYNTH[2][1])
            and _finite(*scores),
            "AUC directions recorded": all(
                summary.get(f"direction_{m}") in ("high", "low") for m in ("t_zero", "spectral")
            ),
            "AUCs in [0.5, 1]": all(
                0.5 <= summary.get(f"auc_{m}", -1.0) <= 1.0 for m in ("t_zero", "spectral")
            ),
        }
    finally:
        shutil.rmtree(d, ignore_errors=True)


WORKLOADS = {
    "train-8q": (setup_train_8q, run_train_8q, check_train_8q),
    "score-6q": (setup_score_6q, run_score_6q, check_score_6q),
    "cli-6q": (setup_cli_6q, run_cli_6q, check_cli_6q),
}
