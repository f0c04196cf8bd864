"""The README toy pipeline's outputs, pinned byte for byte.

``run_recipe`` runs the cli-6q recipe (synth, preprocess, train,
evaluate, generate, anomaly, site-entropy at the six_qubit shapes) in
process, and the test compares the sha256 of every file it writes with
``toy_outputs.json``.  The manifest also records the NumPy and BLAS
builds it was made with, since another BLAS may move last bits.  A
change that moves outputs on purpose rewrites the manifest with
``python scripts/pin_toy_outputs.py`` and says which files moved and why.
"""

import contextlib
import hashlib
import io as stdio
import json
from pathlib import Path

import numpy as np

from qhbm import cli

MANIFEST = Path(__file__).with_name("toy_outputs.json")
SEEDS = (11, 23)
GRID, CROP, POOL, EPOCHS = 16, 2, 2, 2
# (kind, events, seed offset, split); README seeds k map to 10 * seed + k.
SYNTH = (("background", 300, 1, "train"), ("background", 60, 2, "valid"), ("signal", 150, 3, "signal"))


def _run(argv: list[str]) -> None:
    sink = stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qhbm {argv[0]} exited {code}: {sink.getvalue()[-500:]}")


def run_recipe(seed: int, workdir: Path) -> None:
    """Every command of the toy pipeline at ``seed``, writing into ``workdir``."""
    p = lambda name: str(workdir / name)  # noqa: E731
    for kind, n_events, k, split in SYNTH:
        _run(["synth", "--kind", kind, "--n-events", str(n_events), "--grid", str(GRID),
              "--seed", str(10 * seed + k), "--out", p(f"{split}_raw.qhbimg")])
    prep = ["--crop", str(CROP), "--pool", str(POOL), "--n-qubits", "6"]
    _run(["preprocess", "--input", p("train_raw.qhbimg"), "--out", p("train.qhbimg"), *prep])
    scale = json.loads(Path(p("train.qhbimg.json")).read_text())["meta"]["scale_max"]
    for split in ("valid", "signal"):
        _run(["preprocess", "--input", p(f"{split}_raw.qhbimg"), "--out", p(f"{split}.qhbimg"),
              *prep, "--scale-max", repr(scale)])
    _run(["train", "--train-data", p("train.qhbimg"), "--valid-data", p("valid.qhbimg"),
          "--outdir", p("run"), "--n-qubits", "6", "--max-epochs", str(EPOCHS),
          "--batch-size", "25", "--seed", str(10 * seed + 5), "--scenario", "six_qubit"])
    ckpt = p("run/checkpoint.qhbm")
    _run(["evaluate", "--checkpoint", ckpt, "--test", p("valid.qhbimg"), "--outdir", p("eval")])
    _run(["generate", "--checkpoint", ckpt, "--n-events", "20", "--seed", str(10 * seed + 4),
          "--out", p("generated.csv")])
    _run(["anomaly", "--checkpoint", ckpt, "--signal", p("signal.qhbimg"),
          "--background", p("valid.qhbimg"), "--outdir", p("anomaly"), "--total-time", "200",
          "--dt", "0.1", "--n-draws", "256", "--f-min", "0.05", "--seed", str(10 * seed + 7)])
    _run(["site-entropy", "--checkpoint", ckpt, "--out", p("pairs.csv")])


def digests(workdir: Path) -> dict[str, str]:
    """sha256 of every file under ``workdir``, by its relative POSIX path."""
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


def builds() -> dict[str, str]:
    """The NumPy version and the BLAS build it links."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def recipe_digests(root: Path) -> dict[str, dict[str, str]]:
    """Per seed (as a string), the digests of the recipe's outputs, run under ``root``."""
    out = {}
    for seed in SEEDS:
        workdir = root / f"seed-{seed}"
        workdir.mkdir()
        run_recipe(seed, workdir)
        out[str(seed)] = digests(workdir)
    return out


def test_toy_outputs_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    found = recipe_digests(tmp_path)
    moved = [
        f"seed {seed}: {name}"
        for seed in sorted(set(manifest["seeds"]) | set(found))
        for name in sorted(set(manifest["seeds"].get(seed, {})) | set(found.get(seed, {})))
        if manifest["seeds"].get(seed, {}).get(name) != found.get(seed, {}).get(name)
    ]
    assert not moved, (
        f"{len(moved)} toy outputs differ from {MANIFEST.name} (made with numpy "
        f"{manifest['builds']['numpy']}, {manifest['builds']['blas']}; this run: numpy "
        f"{builds()['numpy']}, {builds()['blas']}):\n" + "\n".join(moved)
    )
