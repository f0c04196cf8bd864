"""Pixel data preparation and basis-state embedding.

Calorimeter-style images are cropped, down-sampled by non-overlapping
block means and linearly standardised into [0, pi] against a fitted
maximum.  Selected pixel intensities are squashed through a logistic
into Bernoulli probabilities, which drive random basis-state draws.
An event's draws are held only as their count at each of the 2**n basis
states, drawn at once as one multinomial over the event's product
distribution; no per-draw array is formed.
The dataset's mixed state is diagonal in the computational basis, so it
is held as its diagonal s, a real length-2**n probability vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .qsim import MAX_QUBITS
from .special import expit

PROB_FLOOR = 1e-6
# Most product distributions exact_mixed_state builds at once, in values.
_MIXED_CHUNK_ENTRIES = 2**16
LABELS = ("signal", "background", "unlabelled")


@dataclass
class PixelImage:
    """A rectangular intensity grid with an event label and weight."""

    intensities: np.ndarray
    label: str = "unlabelled"
    weight: float = 1.0

    def __post_init__(self) -> None:
        self.intensities = np.asarray(self.intensities, dtype=np.float64)
        if self.intensities.ndim != 2:
            raise ValueError(f"intensities must be 2-d, got shape {self.intensities.shape}")
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")
        if not np.all(np.isfinite(self.intensities)):
            raise ValueError("intensities must be finite")

    @property
    def height(self) -> int:
        return self.intensities.shape[0]

    @property
    def width(self) -> int:
        return self.intensities.shape[1]


@dataclass
class PixelProbabilities:
    """Per-qubit Bernoulli probabilities for one event."""

    probs: np.ndarray
    label: str = "unlabelled"
    weight: float = 1.0

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1 or not 1 <= self.probs.size <= MAX_QUBITS:
            raise ValueError(f"need 1..{MAX_QUBITS} probabilities, got shape {self.probs.shape}")
        # Written so that NaN fails too: it compares false both ways.
        if not np.all((self.probs > 0.0) & (self.probs < 1.0)):
            raise ValueError("probabilities must lie strictly inside (0, 1)")

    @property
    def n_qubits(self) -> int:
        return self.probs.size


def crop_and_pool(
    image: PixelImage,
    crop: int,
    pool: int,
    trim_remainder: bool = True,
) -> PixelImage:
    """Strip ``crop`` pixels from every edge, then average ``pool`` x ``pool`` blocks.

    If the cropped size is not divisible by ``pool``, the remainder rows
    and columns are dropped from the high-index side when
    ``trim_remainder`` is set; otherwise the indivisibility is an error.
    """
    if crop < 0:
        raise ValueError(f"crop must be >= 0, got {crop}")
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    h, w = image.height, image.width
    if 2 * crop >= h or 2 * crop >= w:
        raise ValueError(f"crop {crop} exceeds image size {h}x{w}")
    grid = image.intensities[crop : h - crop, crop : w - crop]
    gh, gw = grid.shape
    if gh % pool or gw % pool:
        if not trim_remainder:
            raise ValueError(
                f"cropped size {gh}x{gw} is not divisible by pool {pool}"
            )
        grid = grid[: gh - gh % pool, : gw - gw % pool]
        gh, gw = grid.shape
    pooled = grid.reshape(gh // pool, pool, gw // pool, pool).mean(axis=(1, 3))
    return PixelImage(pooled, image.label, image.weight)


def fit_scale_max(images: Sequence[PixelImage]) -> float:
    """Largest intensity over a calibration set; the standardisation fit."""
    if not images:
        raise ValueError("need at least one calibration image")
    peak = max(float(im.intensities.max()) for im in images)
    if peak <= 0.0:
        raise ValueError(f"calibration peak must be positive, got {peak}")
    return peak


def standardise(image: PixelImage, scale_max: float) -> PixelImage:
    """Linearly map [0, scale_max] onto [0, pi], clipping above the fit."""
    if not (np.isfinite(scale_max) and scale_max > 0.0):
        raise ValueError(f"scale_max must be finite and positive, got {scale_max}")
    scaled = np.clip(image.intensities / scale_max, 0.0, 1.0) * np.pi
    return PixelImage(scaled, image.label, image.weight)


def pixel_layout(side: int, n_qubits: int) -> list[int]:
    """Row-major flat indices of the selected pixels on a ``side`` x ``side`` grid.

    Four qubits read the central 2x2 block; six add the two pixels
    directly above it; eight add the two directly below as well.  Qubit
    order follows row-major order over the selected coordinates.
    """
    if side < 4:
        raise ValueError(f"grid side must be >= 4 for the central layouts, got {side}")
    if n_qubits not in (4, 6, 8):
        raise ValueError(f"layouts are defined for 4, 6 or 8 qubits, got {n_qubits}")
    r0 = (side - 2) // 2
    c0 = (side - 2) // 2
    coords = [(r0, c0), (r0, c0 + 1), (r0 + 1, c0), (r0 + 1, c0 + 1)]
    if n_qubits >= 6:
        coords += [(r0 - 1, c0), (r0 - 1, c0 + 1)]
    if n_qubits == 8:
        coords += [(r0 + 2, c0), (r0 + 2, c0 + 1)]
    coords.sort()
    return [r * side + c for r, c in coords]


def select_pixels(image: PixelImage, layout: Sequence[int]) -> PixelProbabilities:
    """Logistic-squash the selected intensities into Bernoulli probabilities.

    Probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] so no
    basis state is ever impossible.
    """
    if len(layout) == 0 or len(set(layout)) != len(layout):
        raise ValueError("layout must be a non-empty list of distinct indices")
    flat = image.intensities.reshape(-1)
    idx = np.asarray(layout, dtype=np.int64)
    if idx.min() < 0 or idx.max() >= flat.size:
        raise ValueError(f"layout indices out of range for {image.height}x{image.width} image")
    probs = np.clip(expit(flat[idx]), PROB_FLOOR, 1.0 - PROB_FLOOR)
    return PixelProbabilities(probs, image.label, image.weight)


def images_to_events(
    images: Sequence[PixelImage],
    crop: int,
    pool: int,
    n_qubits: int,
    *,
    scale_max: float | None = None,
    layout: Sequence[int] | None = None,
    trim_remainder: bool = True,
) -> tuple[list[PixelProbabilities], float, list[int]]:
    """Crop and pool, standardise and select pixels: ``(events, scale_max, layout)``.

    ``scale_max`` is fitted on the pooled images unless given (held-out
    splits reuse the training fit), and ``layout`` defaults to the
    ``n_qubits`` layout of ``pixel_layout``.  A non-square grid is a data error.
    """
    if not images:
        raise ValueError("need at least one image")
    pooled = [crop_and_pool(im, crop, pool, trim_remainder) for im in images]
    if scale_max is None:
        scale_max = fit_scale_max(pooled)
    standardised = [standardise(im, scale_max) for im in pooled]
    side, width = standardised[0].intensities.shape
    if side != width:
        raise DataError(f"pooled images are {side}x{width}; pixel layouts need a square grid")
    layout = pixel_layout(side, n_qubits) if layout is None else list(layout)
    return [select_pixels(im, layout) for im in standardised], scale_max, layout


def _product_distributions(probs: np.ndarray) -> np.ndarray:
    """(event, 2**n) product-Bernoulli distributions of an (event, n) probability array.

    The products run over the qubits in order, qubit 0 most significant,
    as a chain of Kronecker products does.
    """
    # (event, qubit, bit) factors.
    factors = np.stack([1.0 - probs, probs], axis=-1)
    dists = factors[:, 0]
    for q in range(1, probs.shape[1]):
        dists = (dists[:, :, None] * factors[:, q, None, :]).reshape(dists.shape[0], -1)
    return dists


def bernoulli_index_samples(
    probs: PixelProbabilities, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Count (int64) of ``n_samples`` draws at each of the 2**n basis indices.

    Each draw sets bit k (qubit 0 most significant) with probability
    probs[k].  The counts are one multinomial over the event's product
    distribution: the law of the counts of that many i.i.d. draws, from
    2**n - 1 binomials instead of one uniform per draw and qubit.  The
    name is the layer's name in the benchmark traces, which count
    ``n_samples`` as its draws.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    return rng.multinomial(n_samples, _product_distributions(probs.probs[None])[0])


def frequency_row(counts: np.ndarray) -> np.ndarray:
    """Share of the draws at each basis state, a float64 row, from their ``counts``.

    This is how an event's embedded draws are held: the training objective
    and the anomaly scores read the draws only through this distribution.
    """
    n_draws = counts.sum()
    if n_draws == 0:
        raise ValueError("an event needs at least one embedded draw")
    return counts / n_draws


def _normalised_weights(events: Sequence[PixelProbabilities], weights) -> np.ndarray:
    if weights is None:
        weights = np.array([e.weight for e in events], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(events),):
        raise ValueError(f"{len(events)} events but weight shape {weights.shape}")
    if np.any(weights < 0.0) or weights.sum() <= 0.0:
        raise ValueError("weights must be non-negative with positive total")
    return weights / weights.sum()


def exact_mixed_state(
    events: Sequence[PixelProbabilities],
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Diagonal s of the events' mixed state, a length-2**n vector.

    Each event enters as its exact product-Bernoulli distribution, mixed
    with its normalised weight; this is the limit of its embedded draws.
    """
    if not events:
        raise ValueError("need at least one event")
    n = events[0].n_qubits
    if any(e.n_qubits != n for e in events):
        raise ValueError("all events must have the same qubit count")
    alphas = _normalised_weights(events, weights)
    probs = np.array([e.probs for e in events])
    diag = np.zeros(2**n)
    # Events go in chunks, so the distributions in hand stay within
    # _MIXED_CHUNK_ENTRIES values however many events there are.
    chunk = max(1, _MIXED_CHUNK_ENTRIES >> n)
    for c0 in range(0, len(events), chunk):
        dists = _product_distributions(probs[c0 : c0 + chunk])
        for alpha, dist in zip(alphas[c0 : c0 + chunk], dists):
            diag += alpha * dist
    return diag


def _deposit_blob(
    grid: np.ndarray,
    rr: np.ndarray,
    cc: np.ndarray,
    row: float,
    col: float,
    sigma: float,
    energy: float,
) -> None:
    """Add a Gaussian blob; ``rr`` and ``cc`` are the grid's row and column indices."""
    grid += energy * np.exp(-((rr - row) ** 2 + (cc - col) ** 2) / (2.0 * sigma**2))


def synth_toy_jets(
    n_events: int,
    kind: str,
    grid: int,
    rng: np.random.Generator,
    noise: float = 0.3,
) -> list[PixelImage]:
    """Synthetic jet images: one central blob vs. three displaced prongs.

    Background events deposit a single wide Gaussian blob at the grid
    centre.  Signal events deposit a soft central core plus three
    narrower prongs at fixed base angles (top, lower-left, lower-right)
    with per-event rotation and radial jitter; the core amplitude is
    tuned so the central region looks similar for both kinds, leaving
    the discriminating energy in the off-centre pixels.  Intensities
    are non-negative with additive folded-normal noise.
    """
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")
    if kind not in ("signal", "background"):
        raise ValueError(f"kind must be 'signal' or 'background', got {kind!r}")
    if grid < 8:
        raise ValueError(f"grid must be >= 8, got {grid}")
    centre = (grid - 1) / 2.0
    # Row and column indices as a column and a row; they broadcast to the grid.
    rr, cc = np.ogrid[:grid, :grid]
    images: list[PixelImage] = []
    for _ in range(n_events):
        canvas = np.zeros((grid, grid))
        energy = 40.0 * rng.lognormal(0.0, 0.1)
        if kind == "background":
            row = centre + 0.3 * rng.standard_normal()
            col = centre + 0.3 * rng.standard_normal()
            sigma = rng.uniform(2.0, 2.2)
            _deposit_blob(canvas, rr, cc, row, col, sigma, energy)
        else:
            # A soft wide core matches the background's central block;
            # the prongs carry the discriminating off-centre energy.
            row = centre + 0.3 * rng.standard_normal()
            col = centre + 0.3 * rng.standard_normal()
            _deposit_blob(canvas, rr, cc, row, col, rng.uniform(2.0, 2.5), 0.38 * energy)
            rotation = np.deg2rad(rng.normal(0.0, 9.0))
            fractions = np.array([0.45, 0.275, 0.275]) + 0.03 * rng.standard_normal(3)
            fractions = np.abs(fractions) / np.abs(fractions).sum()
            radii = (rng.uniform(0.18, 0.22), rng.uniform(0.21, 0.26), rng.uniform(0.21, 0.26))
            widths = (rng.uniform(1.6, 2.0), rng.uniform(1.7, 2.1), rng.uniform(1.7, 2.1))
            for base_deg, frac, rad, sigma in zip((90.0, 210.0, 330.0), fractions, radii, widths):
                angle = np.deg2rad(base_deg) + rotation
                row = centre - rad * grid * np.sin(angle)
                col = centre + rad * grid * np.cos(angle)
                _deposit_blob(canvas, rr, cc, row, col, sigma, 2.1 * frac * energy)
        canvas += np.abs(rng.normal(0.0, noise, size=canvas.shape))
        images.append(PixelImage(canvas, label=kind))
    return images
