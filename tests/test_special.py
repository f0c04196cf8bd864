"""The NumPy special functions against ``scipy.special``, and the import guard."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from qhbm.special import expit, logsumexp, softmax

SRC = Path(__file__).resolve().parents[1] / "src"


def random_vectors(seed, count):
    """1-d vectors of length 1-1024 with spreads up to +-700, many with tied maxima."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(1, 1025))
        spread = float(rng.choice([1e-3, 1.0, 30.0, 700.0]))
        x = rng.uniform(-spread, spread, size) + rng.uniform(-700.0, 700.0)
        kind = rng.integers(3)
        if kind == 1:
            # Tie a random subset at the maximum.
            x[rng.choice(size, int(rng.integers(1, size + 1)), replace=False)] = x.max()
        elif kind == 2:
            # Few distinct values, so ties occur everywhere, the maximum included.
            x = np.round(x / spread * 3.0) * spread / 3.0
        yield x


@pytest.mark.parametrize("seed", range(4))
def test_logsumexp_and_softmax_match_scipy_bitwise(seed):
    for x in random_vectors(seed, 500):
        got = logsumexp(x)
        want = scipy.special.logsumexp(x)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), x
        assert softmax(x).tobytes() == scipy.special.softmax(x).tobytes(), x


def test_logsumexp_edge_cases():
    assert logsumexp([3.5]) == 3.5
    assert logsumexp([0.0, 0.0]) == np.log(2.0)
    # Every other term underflows: s = 0, so the result is log(m) + max.
    assert logsumexp([-1000.0, 0.0, 0.0, 0.0]) == np.log(3.0)


def ulp_distance(a, b):
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_expit_within_four_ulp_of_scipy():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-700.0, 700.0, 200_000), rng.uniform(-40.0, 40.0, 200_000),
                        np.linspace(-700.0, 700.0, 14_001)])
    got = expit(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert ulp_distance(got, scipy.special.expit(x)).max() <= 4


def test_expit_is_silent_and_bounded_beyond_overflow():
    x = np.concatenate([np.linspace(-1000.0, 1000.0, 20_001), [-np.inf, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert got[0] == 0.0 and got[-3] == 1.0
    assert got[-2] == 0.0 and got[-1] == 1.0
    assert expit(0.0) == 0.5


def test_importing_the_cli_loads_only_numpy_and_the_standard_library():
    """Start-up cost guard (README "Install"): the command line pulls no other package in.

    SciPy, the tests' oracle, is the one most likely to slip in.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; before = set(sys.modules); import qhbm, qhbm.cli; "
        "print(qhbm.__file__); "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    path, loaded = proc.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(SRC)
    others = set(loaded.split()) - sys.stdlib_module_names - {"numpy", "qhbm"}
    assert not others, f"importing qhbm.cli loaded {sorted(others)}"
