"""Distance and spectral measures for states, distributions and signals.

States are real and structured: the data state is sigma = diag(s) and
the model state rho = U diag(p) U^T, with U any orthogonal matrix (for
a trained model, the rotation W of ``train.model_state``).  s and p
must be non-negative and sum to one within 1e-8 (else NumericError);
spectrum values at or below 1e-12 count as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

NORM_TOL = 1e-8
EIG_FLOOR = 1e-12
# Thresholds of an ROC sweep unless the caller asks for another count.
N_THRESHOLDS = 200


def _distribution(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if np.any(v < 0.0):
        raise NumericError("probabilities must be non-negative")
    if abs(v.sum() - 1.0) > NORM_TOL:
        raise NumericError(f"probabilities must sum to 1, got {v.sum()}")
    return v


def _checked_state(s, u, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s, u, p = (np.asarray(x, dtype=np.float64) for x in (s, u, p))
    if s.ndim != 1 or p.shape != s.shape or u.shape != (s.size, s.size):
        raise ValueError(f"need s, p of shape (d,) and U of (d, d), got {s.shape}, {p.shape}, {u.shape}")
    return _distribution(s), u, _distribution(p)


def _shannon(probs: np.ndarray) -> float:
    probs = probs[probs > EIG_FLOOR]
    return float(-np.sum(probs * np.log(probs)))


def fidelity(s, u, p) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(sigma) rho sqrt(sigma)))**2 of diag(s) and U diag(p) U^T.

    rho = V V^T with V = U[:, p > 0] diag(sqrt(p)), so the trace is the sum
    of the singular values of diag(sqrt(s)) V.
    """
    s, u, p = _checked_state(s, u, p)
    keep = p > 0.0
    m = np.sqrt(s)[:, None] * u[:, keep] * np.sqrt(p[keep])
    return float(np.sum(np.linalg.svd(m, compute_uv=False)) ** 2)


def trace_distance(s, u, p) -> float:
    """Half the sum of absolute eigenvalues of diag(s) - U diag(p) U^T."""
    s, u, p = _checked_state(s, u, p)
    diff = np.diag(s) - (u * p) @ u.T
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def von_neumann_entropy(spectrum) -> float:
    """-sum_i p_i log p_i over a state's spectrum, in nats.

    The spectrum of diag(s) is s and that of U diag(p) U^T is p.  Values
    at or below 1e-12 are treated as exact zeros.
    """
    return max(_shannon(_distribution(spectrum)), 0.0)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Classical KL divergence sum_i p_i log(p_i / q_i) in nats.

    Both arguments must sum to one within 1e-8.  Zero-probability q bins
    are floored at 1e-12, so the divergence stays finite.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    p, q = _distribution(p), _distribution(q)
    mask = p > 0.0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(np.maximum(q[mask], EIG_FLOOR)))))


def bernoulli_marginal_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Sum over pixels of KL between the per-pixel Bernoulli marginals."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"need matching 1-d marginals, got {p.shape} and {q.shape}")
    total = 0.0
    for pk, qk in zip(p, q):
        total += kl_divergence(np.array([1.0 - pk, pk]), np.array([1.0 - qk, qk]))
    return total


def quantum_relative_entropy(s, u, p) -> float:
    """S(sigma || rho) = tr sigma (log sigma - log rho), p floored at 1e-12.

    With sigma = diag(s) and rho = U diag(p) U^T, log rho is
    U diag(log p) U^T, so tr sigma log rho = s . ((U o U) log p).
    """
    s, u, p = _checked_state(s, u, p)
    return -_shannon(s) - float(s @ ((u * u) @ np.log(np.maximum(p, EIG_FLOOR))))


@dataclass
class PowerSpectrum:
    """One-sided power spectrum: frequencies in cycles per time unit."""

    frequencies: np.ndarray
    power: np.ndarray

    @property
    def resolution(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


def power_spectrum(values: np.ndarray, dt: float) -> PowerSpectrum:
    """Mean-subtracted one-sided power: 2 * dt**2 / T * |FFT|**2.

    T = N * dt is the record length; the spectrum has floor(N/2) + 1
    bins at frequencies k / T up to the Nyquist frequency 1 / (2 dt).
    ``values`` of shape (..., N) holds one signal per row along the last
    axis; each row's power equals that of its own call.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 1 or values.shape[-1] < 2:
        raise ValueError(
            f"need signals of length >= 2 along the last axis, got shape {values.shape}"
        )
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = values.shape[-1]
    total_time = n * dt
    spectrum = np.fft.rfft(values - values.mean(axis=-1, keepdims=True))
    power = np.real(2.0 * dt**2 / total_time * np.abs(spectrum) ** 2)
    freqs = np.fft.rfftfreq(n, d=dt)
    return PowerSpectrum(freqs, power)


@dataclass
class RocCurve:
    """ROC sweep over linearly spaced thresholds.

    ``direction`` records whether large ("high") or small ("low") scores
    were treated as signal-like; it is chosen so that auc >= 0.5.  The
    thresholds are ordered from most to least exclusive, so tpr and fpr
    are non-decreasing along the sweep.  The trapezoidal ``auc``
    includes the implicit (0, 0) anchor point.
    """

    thresholds: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray
    auc: float
    direction: str


def _sweep(signal: np.ndarray, background: np.ndarray, thresholds: np.ndarray):
    """Share of each class at or above every threshold, by one sorted search."""
    return tuple(
        (x.size - np.searchsorted(np.sort(x), thresholds, side="left")) / x.size
        for x in (signal, background)
    )


def _anchored_auc(tpr: np.ndarray, fpr: np.ndarray) -> float:
    xs = np.concatenate([[0.0], fpr])
    ys = np.concatenate([[0.0], tpr])
    return float(np.trapezoid(ys, xs))


def roc_from_scores(
    signal_scores: np.ndarray,
    background_scores: np.ndarray,
    n_thresholds: int = N_THRESHOLDS,
) -> RocCurve:
    """ROC curve from per-event scores of the two classes.

    Thresholds are linearly spaced over the pooled score range and swept
    from high to low, counting events at or above each threshold.  The
    score direction is flipped automatically if needed so the curve sits
    above the diagonal.
    """
    signal = np.asarray(signal_scores, dtype=np.float64)
    background = np.asarray(background_scores, dtype=np.float64)
    if signal.size == 0 or background.size == 0:
        raise ValueError("both score sets must be non-empty")
    if not (np.all(np.isfinite(signal)) and np.all(np.isfinite(background))):
        raise ValueError("scores must be finite")
    if n_thresholds < 2:
        raise ValueError(f"n_thresholds must be >= 2, got {n_thresholds}")

    pooled_min = min(signal.min(), background.min())
    pooled_max = max(signal.max(), background.max())
    if pooled_max == pooled_min:
        # Degenerate constant scores: undiscriminating diagonal curve.
        pooled_max = pooled_min + 1.0

    thresholds = np.linspace(pooled_max, pooled_min, n_thresholds)
    tpr, fpr = _sweep(signal, background, thresholds)
    auc = _anchored_auc(tpr, fpr)
    direction = "high"
    if auc < 0.5:
        tpr, fpr = _sweep(-signal, -background, -thresholds[::-1])
        thresholds = thresholds[::-1]
        auc = _anchored_auc(tpr, fpr)
        direction = "low"
    return RocCurve(thresholds, tpr, fpr, auc, direction)
