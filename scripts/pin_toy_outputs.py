#!/usr/bin/env python3
"""Rewrite tests/toy_outputs.json from the toy pipeline's outputs at this build.

Runs the recipe that ``tests/test_toy_outputs.py`` holds at its seeds and
stores the sha256 of every output file with the NumPy and BLAS builds.
Run it only when a change moves outputs on purpose, and list in
CHANGES.md which files moved and why:

    PYTHONPATH=src python scripts/pin_toy_outputs.py
"""

import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
sys.path.insert(0, str(TESTS))

import test_toy_outputs as recipe  # noqa: E402

from qhbm import io  # noqa: E402


def main(argv=None):
    with tempfile.TemporaryDirectory() as root:
        seeds = recipe.recipe_digests(Path(root))
    io.write_json(recipe.MANIFEST, {"builds": recipe.builds(), "seeds": seeds})
    counts = ", ".join(f"seed {seed}: {len(files)} files" for seed, files in seeds.items())
    print(f"wrote {recipe.MANIFEST} ({counts})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
