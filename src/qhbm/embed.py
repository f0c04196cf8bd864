"""Pixel data preparation and basis-state embedding.

An event set is held as arrays: its images as one (E, H, W) float64
stack and its events as one (E, n) stack of Bernoulli probabilities.
Calorimeter-style images are cropped, down-sampled by non-overlapping
block means and linearly standardised into [0, pi] against a fitted
maximum.  Selected pixel intensities are squashed through a logistic
into Bernoulli probabilities, which drive random basis-state draws.
An event's draws are held only as their count at each of the 2**n basis
states, drawn at once as one multinomial over the event's row of
``product_distributions``; no per-draw array is formed.
The dataset's mixed state, the uniform mixture of its events that the
training loss mean <K> + log Z is taken over, is diagonal in the
computational basis, so it is held as its diagonal s, a real
length-2**n probability vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .qsim import MAX_QUBITS
from .special import expit

PROB_FLOOR = 1e-6
# Spread of the folded-normal noise on every synthetic pixel.
JET_NOISE = 0.3
# Most product distributions exact_mixed_state builds at once, in values.
_MIXED_CHUNK_ENTRIES = 2**16
LABELS = ("signal", "background", "unlabelled")


@dataclass
class PixelImage:
    """A rectangular intensity grid with an event label."""

    intensities: np.ndarray
    label: str

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


def check_probabilities(
    events: np.ndarray | Sequence[np.ndarray], n_qubits: int, what: str
) -> np.ndarray:
    """``events`` as a float64 (E, n_qubits) stack with every probability strictly inside (0, 1).

    An empty sequence is the empty stack.  A ValueError names the set
    ``what`` and, for a bad row, the first bad event.
    """
    probs = np.asarray(events, dtype=np.float64)
    if probs.shape == (0,):
        probs = probs.reshape(0, n_qubits)
    if probs.ndim != 2:
        raise ValueError(f"{what}: need an (E, {n_qubits}) probability stack, got shape {probs.shape}")
    if not 1 <= probs.shape[1] <= MAX_QUBITS:
        raise ValueError(f"{what} event 0: need 1..{MAX_QUBITS} probabilities, got {probs.shape[1]}")
    if probs.shape[1] != n_qubits:
        raise ValueError(
            f"{what}: has {probs.shape[1]} probabilities per event but the model has {n_qubits} qubits"
        )
    # Written so that NaN fails too: it compares false both ways.
    inside = ((probs > 0.0) & (probs < 1.0)).all(axis=1)
    if not inside.all():
        raise ValueError(
            f"{what} event {np.argmin(inside)}: probabilities must lie strictly inside (0, 1)"
        )
    return probs


def pool_images(
    images: np.ndarray, crop: int, pool: int, trim_remainder: bool = True
) -> np.ndarray:
    """Strip ``crop`` pixels from every edge of an (E, H, W) stack, then average ``pool`` x ``pool`` blocks.

    If the cropped size is not divisible by ``pool``, the remainder rows
    and columns are dropped from the high-index side when
    ``trim_remainder`` is set; otherwise the indivisibility is an error.
    """
    if crop < 0:
        raise ValueError(f"crop must be >= 0, got {crop}")
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    n_images, h, w = images.shape
    if 2 * crop >= h or 2 * crop >= w:
        raise ValueError(f"crop {crop} exceeds image size {h}x{w}")
    gh, gw = h - 2 * crop, w - 2 * crop
    if gh % pool or gw % pool:
        if not trim_remainder:
            raise ValueError(
                f"cropped size {gh}x{gw} is not divisible by pool {pool}"
            )
        gh, gw = gh - gh % pool, gw - gw % pool
    grid = images[:, crop : crop + gh, crop : crop + gw]
    return grid.reshape(n_images, gh // pool, pool, gw // pool, pool).mean(axis=(2, 4))


def fit_scale_max(images: np.ndarray | Sequence[PixelImage]) -> float:
    """Largest intensity over a calibration set, an (E, H, W) stack or images; the standardisation fit."""
    if len(images) == 0:
        raise ValueError("need at least one calibration image")
    if not isinstance(images, np.ndarray):
        images = [im.intensities.max() for im in images]
    peak = float(np.max(images))
    if peak <= 0.0:
        raise ValueError(f"calibration peak must be positive, got {peak}")
    return peak


def standardise_images(images: np.ndarray, scale_max: float) -> np.ndarray:
    """Linearly map [0, scale_max] onto [0, pi], clipping above the fit, pixel by pixel."""
    if not (np.isfinite(scale_max) and scale_max > 0.0):
        raise ValueError(f"scale_max must be finite and positive, got {scale_max}")
    return np.clip(images / scale_max, 0.0, 1.0) * np.pi


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


def select_probabilities(images: np.ndarray, layout: Sequence[int]) -> np.ndarray:
    """Logistic-squash the ``layout`` pixels of an (E, H, W) stack into (E, n) Bernoulli probabilities.

    Probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] so no
    basis state is ever impossible.
    """
    if len(layout) == 0 or len(set(layout)) != len(layout):
        raise ValueError("layout must be a non-empty list of distinct indices")
    n_images, h, w = images.shape
    idx = np.asarray(layout, dtype=np.int64)
    if idx.min() < 0 or idx.max() >= h * w:
        raise ValueError(f"layout indices out of range for {h}x{w} image")
    return np.clip(expit(images.reshape(n_images, -1)[:, idx]), PROB_FLOOR, 1.0 - PROB_FLOOR)


def images_to_events(
    images: np.ndarray,
    crop: int,
    pool: int,
    n_qubits: int,
    *,
    scale_max: float | None = None,
    layout: Sequence[int] | None = None,
    trim_remainder: bool = True,
) -> tuple[np.ndarray, float, list[int]]:
    """Crop and pool, standardise and select pixels of an (E, H, W) stack: ``(probs, scale_max, layout)``.

    ``probs`` is the (E, n) probability stack.  ``scale_max`` is fitted on
    the pooled images unless given (held-out splits reuse the training
    fit), and ``layout`` defaults to the ``n_qubits`` layout of
    ``pixel_layout``.  A non-square grid is a data error.
    """
    if len(images) == 0:
        raise ValueError("need at least one image")
    pooled = pool_images(images, crop, pool, trim_remainder)
    if scale_max is None:
        scale_max = fit_scale_max(pooled)
    standardised = standardise_images(pooled, scale_max)
    _, side, width = standardised.shape
    if side != width:
        raise DataError(f"pooled images are {side}x{width}; pixel layouts need a square grid")
    layout = pixel_layout(side, n_qubits) if layout is None else list(layout)
    return select_probabilities(standardised, layout), scale_max, layout


def product_distributions(probs: np.ndarray) -> np.ndarray:
    """(E, 2**n) product-Bernoulli distributions of an (E, n) probability stack.

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
    distribution: np.ndarray, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Count (int64) of ``n_samples`` draws at each of the 2**n basis indices.

    ``distribution`` is one event's row of ``product_distributions``, so
    each draw sets bit k (qubit 0 most significant) with that event's
    probability k.  The counts are one multinomial over it: the law of the
    counts of that many i.i.d. draws, from 2**n - 1 binomials instead of
    one uniform per draw and qubit.  The name is the layer's name in the
    benchmark traces, which count ``n_samples`` as its draws.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    return rng.multinomial(n_samples, distribution)


def frequency_row(counts: np.ndarray) -> np.ndarray:
    """Share of the draws at each basis state, a float64 row, from their ``counts``.

    This is how an event's embedded draws are held: the training objective
    and the anomaly scores read the draws only through this distribution.
    """
    n_draws = counts.sum()
    if n_draws == 0:
        raise ValueError("an event needs at least one embedded draw")
    return counts / n_draws


def exact_mixed_state(probs: np.ndarray) -> np.ndarray:
    """Diagonal s of the mixed state of an (E, n) probability stack, a length-2**n vector.

    Each event enters as its exact product-Bernoulli distribution, the
    limit of its embedded draws, and the events are mixed uniformly, as
    training averages them.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or len(probs) == 0:
        raise ValueError(f"need a non-empty (E, n) probability stack, got shape {probs.shape}")
    alpha = 1.0 / len(probs)
    diag = np.zeros(2 ** probs.shape[1])
    # Events go in chunks, so the distributions in hand stay within
    # _MIXED_CHUNK_ENTRIES values however many events there are.
    chunk = max(1, _MIXED_CHUNK_ENTRIES >> probs.shape[1])
    for c0 in range(0, len(probs), chunk):
        for dist in product_distributions(probs[c0 : c0 + chunk]):
            diag += alpha * dist
    return diag


def toy_jet_images(
    n_events: int,
    kind: str,
    grid: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthetic jet images, an (E, grid, grid) stack: one central blob vs. three displaced prongs.

    Background events deposit a single wide Gaussian blob at the grid
    centre.  Signal events deposit a soft central core plus three
    narrower prongs at fixed base angles (top, lower-left, lower-right)
    with per-event rotation and radial jitter; the core amplitude is
    tuned so the central region looks similar for both kinds, leaving
    the discriminating energy in the off-centre pixels.  Intensities
    are non-negative with additive folded-normal noise of scale ``JET_NOISE``.
    Each event draws its blobs and then its noise from ``rng``, event by
    event; the canvases are then built for all events at once.
    """
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")
    if kind not in ("signal", "background"):
        raise ValueError(f"kind must be 'signal' or 'background', got {kind!r}")
    if grid < 8:
        raise ValueError(f"grid must be >= 8, got {grid}")
    centre = (grid - 1) / 2.0
    # (event, blob, (row, column, 2 sigma**2, energy)); 2 sigma**2 is taken
    # in Python floats, as the per-image loop took it, so the canvases keep their bits.
    blobs = np.empty((n_events, 1 if kind == "background" else 4, 4))
    noise = np.empty((n_events, grid, grid))
    for blob, event_noise in zip(blobs, noise):
        energy = 40.0 * rng.lognormal(0.0, 0.1)
        row = centre + 0.3 * rng.standard_normal()
        col = centre + 0.3 * rng.standard_normal()
        if kind == "background":
            sigma = rng.uniform(2.0, 2.2)
            blob[0] = row, col, 2.0 * sigma**2, energy
        else:
            # A soft wide core matches the background's central block;
            # the prongs carry the discriminating off-centre energy.
            sigma = rng.uniform(2.0, 2.5)
            blob[0] = row, col, 2.0 * sigma**2, 0.38 * energy
            rotation = np.deg2rad(rng.normal(0.0, 9.0))
            fractions = np.array([0.45, 0.275, 0.275]) + 0.03 * rng.standard_normal(3)
            fractions = np.abs(fractions) / np.abs(fractions).sum()
            radii = (rng.uniform(0.18, 0.22), rng.uniform(0.21, 0.26), rng.uniform(0.21, 0.26))
            widths = (rng.uniform(1.6, 2.0), rng.uniform(1.7, 2.1), rng.uniform(1.7, 2.1))
            prongs = zip((90.0, 210.0, 330.0), fractions, radii, widths)
            for k, (base_deg, frac, rad, sigma) in enumerate(prongs, 1):
                angle = np.deg2rad(base_deg) + rotation
                row = centre - rad * grid * np.sin(angle)
                col = centre + rad * grid * np.cos(angle)
                blob[k] = row, col, 2.0 * sigma**2, 2.1 * frac * energy
        event_noise[:] = rng.normal(0.0, JET_NOISE, size=(grid, grid))
    # Row and column indices as a column and a row; they broadcast to the grid.
    rr, cc = np.ogrid[:grid, :grid]
    canvases = np.zeros((n_events, grid, grid))
    # One Gaussian blob on every canvas at a time, each parameter an (E, 1, 1) column.
    for row, col, spread, energy in blobs.transpose(1, 2, 0)[..., None, None]:
        canvases += energy * np.exp(-((rr - row) ** 2 + (cc - col) ** 2) / spread)
    canvases += np.abs(noise)
    return canvases


# One image as an object, for the benchmark workloads that still build
# events image by image.  Each function below is the E = 1 case of the
# stacked function it names.


def crop_and_pool(
    image: PixelImage, crop: int, pool: int, trim_remainder: bool = True
) -> PixelImage:
    """``pool_images`` of one image."""
    return PixelImage(pool_images(image.intensities[None], crop, pool, trim_remainder)[0], image.label)


def standardise(image: PixelImage, scale_max: float) -> PixelImage:
    """``standardise_images`` of one image."""
    return PixelImage(standardise_images(image.intensities, scale_max), image.label)


def select_pixels(image: PixelImage, layout: Sequence[int]) -> np.ndarray:
    """``select_probabilities`` of one image: its event's (n,) probability row."""
    return select_probabilities(image.intensities[None], layout)[0]


def synth_toy_jets(
    n_events: int, kind: str, grid: int, rng: np.random.Generator
) -> list[PixelImage]:
    """``toy_jet_images`` as one labelled image per event."""
    return [PixelImage(canvas, kind) for canvas in toy_jet_images(n_events, kind, grid, rng)]
