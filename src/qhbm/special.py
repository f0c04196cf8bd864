"""The three elementwise special functions the package needs, in NumPy.

``logsumexp`` and ``softmax`` follow SciPy's algorithms step for step, so
on 1-d float64 input they give the bits that ``scipy.special`` gives.
``expit`` uses SciPy's formula 1 / (1 + exp(-x)), but NumPy's vectorised
``exp`` can differ from the C library's in the last bit, so its results
can differ from SciPy's by a few ulp.
"""

from __future__ import annotations

import numpy as np


def expit(x) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-x)); exactly 0 below x ~ -709.8, silently."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def logsumexp(a) -> float:
    """log sum_i exp(a_i) of a non-empty 1-d vector of finite values.

    The maximum is taken out of the sum: with m tied maxima and s the sum
    of exp(a_i - max) over the others, the result is
    log1p(s / m) + log(m) + max.  The tied entries stay in place as exact
    zeros, so the pairwise sum adds in the same order as SciPy's.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = a.max()
    ties = a == a_max
    shifted = a - a_max
    shifted[ties] = -np.inf
    m = float(np.count_nonzero(ties))
    return float(np.log1p(np.exp(shifted).sum() / m) + np.log(m) + a_max)


def softmax(x) -> np.ndarray:
    """exp(x) / sum(exp(x)) of a 1-d vector, shifted by its maximum."""
    x = np.asarray(x, dtype=np.float64)
    shifted = np.exp(x - x.max())
    return shifted / shifted.sum()
