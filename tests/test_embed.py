"""Tests for image preprocessing, Bernoulli embedding, and toy-jet synthesis."""

import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import maximum_filter
from scipy.special import expit, logit
from scipy.stats import chisquare

from qhbm import embed, metrics
from qhbm.embed import (
    PixelImage,
    PixelProbabilities,
    bernoulli_index_samples,
    crop_and_pool,
    exact_mixed_state,
    fit_scale_max,
    frequency_row,
    images_to_events,
    pixel_layout,
    select_pixels,
    standardise,
    synth_toy_jets,
)
from qhbm.errors import DataError, NumericError
from qhbm.metrics import von_neumann_entropy
from qhbm.qsim import index_bits
from qhbm.rng import substream
from qhbm.train import _batch_distribution

from oracles import (
    bernoulli_index_samples_reference,
    deposit_blob_reference,
    exact_mixed_state_reference,
)


def flat_image(value, shape=(8, 8), label="unlabelled"):
    return PixelImage(np.full(shape, float(value)), label=label)


class TestPixelImage:
    def test_fields_and_shape(self):
        im = PixelImage(np.ones((3, 5)), label="signal")
        assert im.height == 3
        assert im.width == 5
        assert im.label == "signal"

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            PixelImage(np.ones(4))

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            PixelImage(np.ones((2, 2)), label="jet")

    def test_rejects_nonfinite(self):
        grid = np.ones((2, 2))
        grid[0, 0] = np.inf
        with pytest.raises(ValueError):
            PixelImage(grid)


class TestPixelProbabilities:
    def test_basic(self):
        p = PixelProbabilities(np.array([0.2, 0.9]))
        assert p.n_qubits == 2

    def test_rejects_boundary_values(self):
        with pytest.raises(ValueError):
            PixelProbabilities(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            PixelProbabilities(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            PixelProbabilities(np.array([0.5, np.nan]))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            PixelProbabilities(np.zeros((2, 2)) + 0.5)
        with pytest.raises(ValueError):
            PixelProbabilities(np.full(11, 0.5))


class TestDensityMatrix:
    """The data state diag(s) as a length-2**n vector, and the state checks the measures apply."""

    def test_properties(self, rng):
        s = exact_mixed_state([PixelProbabilities(rng.uniform(0.1, 0.9, size=3))])
        assert s.shape == (8,) and s.dtype == np.float64
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_shapes(self):
        s = np.ones(4) / 4.0
        with pytest.raises(ValueError):
            metrics.fidelity(s, np.eye(4), np.ones(8) / 8.0)
        with pytest.raises(ValueError):
            metrics.trace_distance(s, np.eye(2), s)
        with pytest.raises(ValueError):
            metrics.quantum_relative_entropy(np.ones((2, 2)) / 4.0, np.eye(4), s)

    def test_validate_passes_for_valid_state(self):
        s = np.array([0.25, 0.75])
        assert metrics.trace_distance(s, np.eye(2), s) == 0.0

    def test_validate_rejects_bad_trace(self):
        with pytest.raises(NumericError):
            metrics.trace_distance(np.array([0.5, 0.6]), np.eye(2), np.array([0.5, 0.5]))

    def test_validate_rejects_negative_eigenvalue(self):
        with pytest.raises(NumericError):
            metrics.trace_distance(np.array([0.5, 0.5]), np.eye(2), np.array([1.2, -0.2]))


class TestCropAndPool:
    def test_constant_image_unchanged_by_pooling(self):
        out = crop_and_pool(flat_image(3.5, (8, 8)), crop=0, pool=2)
        assert out.intensities.shape == (4, 4)
        assert np.allclose(out.intensities, 3.5)

    def test_block_means_by_hand(self):
        grid = np.arange(16, dtype=float).reshape(4, 4)
        out = crop_and_pool(PixelImage(grid), crop=0, pool=2)
        expected = np.array([[2.5, 4.5], [10.5, 12.5]])
        assert np.allclose(out.intensities, expected)

    def test_crop_then_pool_with_high_side_trim(self):
        grid = np.arange(37 * 37, dtype=float).reshape(37, 37)
        out = crop_and_pool(PixelImage(grid), crop=12, pool=2)
        # 37 - 24 = 13 per side; the odd remainder drops from the high side.
        inner = grid[12:25, 12:25][:12, :12]
        expected = inner.reshape(6, 2, 6, 2).mean(axis=(1, 3))
        assert out.intensities.shape == (6, 6)
        assert np.allclose(out.intensities, expected)

    def test_strict_mode_rejects_remainder(self):
        with pytest.raises(ValueError):
            crop_and_pool(flat_image(1.0, (5, 5)), crop=0, pool=2, trim_remainder=False)

    def test_rejects_bad_arguments(self):
        im = flat_image(1.0, (6, 6))
        with pytest.raises(ValueError):
            crop_and_pool(im, crop=-1, pool=1)
        with pytest.raises(ValueError):
            crop_and_pool(im, crop=0, pool=0)
        with pytest.raises(ValueError):
            crop_and_pool(im, crop=3, pool=1)

    def test_preserves_label(self):
        im = PixelImage(np.ones((4, 4)), label="background")
        assert crop_and_pool(im, crop=1, pool=1).label == "background"


class TestFitScaleMax:
    def test_takes_maximum_over_set(self):
        images = [flat_image(1.0), flat_image(7.25), flat_image(3.0)]
        assert fit_scale_max(images) == 7.25

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            fit_scale_max([])
        with pytest.raises(ValueError):
            fit_scale_max([flat_image(0.0)])


class TestStandardise:
    def test_maps_fit_peak_to_pi(self):
        grid = np.array([[0.0, 2.0], [4.0, 8.0]])
        out = standardise(PixelImage(grid), scale_max=8.0)
        assert np.allclose(out.intensities, grid / 8.0 * np.pi)

    def test_clips_above_fit(self):
        out = standardise(flat_image(20.0, (2, 2)), scale_max=10.0)
        assert np.allclose(out.intensities, np.pi)

    def test_rejects_nonpositive_scale(self):
        for scale_max in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                standardise(flat_image(1.0, (2, 2)), scale_max=scale_max)


class TestPreprocess:
    """crop_and_pool, then standardisation against a fitted maximum, as ``qhbm preprocess`` runs it."""

    def test_composes_pool_and_scale(self):
        grid = np.arange(16, dtype=float).reshape(4, 4)
        out = standardise(crop_and_pool(PixelImage(grid), 0, 2), 25.0)
        assert np.allclose(out.intensities, np.array([[2.5, 4.5], [10.5, 12.5]]) / 25.0 * np.pi)

    def test_self_scaling_puts_own_peak_at_pi(self):
        pooled = crop_and_pool(PixelImage(np.arange(16, dtype=float).reshape(4, 4)), 0, 2)
        out = standardise(pooled, fit_scale_max([pooled]))
        assert out.intensities.max() == pytest.approx(np.pi, abs=1e-12)

    def test_self_scaling_rejects_blank_image(self):
        with pytest.raises(ValueError):
            fit_scale_max([crop_and_pool(flat_image(0.0, (4, 4)), 0, 2)])


class TestImagesToEvents:
    """The one image-to-events recipe against the primitive chain it composes."""

    @staticmethod
    def primitive_chain(images, crop, pool, n_qubits, scale_max=None, layout=None,
                        trim_remainder=True):
        pooled = [crop_and_pool(im, crop, pool, trim_remainder) for im in images]
        if scale_max is None:
            scale_max = fit_scale_max(pooled)
        if layout is None:
            layout = pixel_layout(pooled[0].height, n_qubits)
        events = [select_pixels(standardise(im, scale_max), layout) for im in pooled]
        return events, scale_max, layout

    @pytest.mark.parametrize(
        "grid, kwargs",
        [
            (16, {}),
            (16, {"scale_max": 17.5}),
            (16, {"layout": [0, 7, 20, 35]}),
            (16, {"trim_remainder": False}),
            (13, {}),
        ],
        ids=["fitted_scale", "given_scale", "explicit_layout", "strict", "trimmed"],
    )
    def test_matches_primitive_chain_bitwise(self, grid, kwargs):
        images = synth_toy_jets(5, "signal", grid, substream(3, "synthesis", "signal"))
        events, scale_max, layout = images_to_events(images, 2, 2, 6, **kwargs)
        expected, expected_scale, expected_layout = self.primitive_chain(images, 2, 2, 6, **kwargs)
        assert scale_max == expected_scale
        assert layout == expected_layout
        assert len(events) == len(expected)
        for got, want in zip(events, expected):
            assert np.array_equal(got.probs, want.probs)
            assert got.label == want.label

    def test_rejects_non_square_grid_and_no_images(self):
        with pytest.raises(DataError, match="square grid"):
            images_to_events([flat_image(1.0, (8, 12))], 0, 2, 4)
        with pytest.raises(ValueError):
            images_to_events([], 0, 2, 4)


class TestPixelLayout:
    def test_frozen_layouts_on_side_six(self):
        assert pixel_layout(6, 4) == [14, 15, 20, 21]
        assert pixel_layout(6, 6) == [8, 9, 14, 15, 20, 21]
        assert pixel_layout(6, 8) == [8, 9, 14, 15, 20, 21, 26, 27]

    def test_central_block_on_side_four(self):
        assert pixel_layout(4, 4) == [5, 6, 9, 10]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pixel_layout(3, 4)
        with pytest.raises(ValueError):
            pixel_layout(6, 5)


class TestSelectPixels:
    def test_zero_intensity_gives_half(self):
        probs = select_pixels(flat_image(0.0, (4, 4)), [0, 5])
        assert np.allclose(probs.probs, 0.5)

    def test_pi_intensity_value(self):
        probs = select_pixels(flat_image(np.pi, (4, 4)), [3])
        assert probs.probs[0] == pytest.approx(0.9585761678336371, abs=1e-12)

    def test_elementwise_logistic(self, rng):
        grid = rng.uniform(-3, 3, size=(5, 5))
        layout = [17, 2, 9]
        probs = select_pixels(PixelImage(grid), layout)
        assert np.allclose(probs.probs, expit(grid.reshape(-1)[layout]), atol=1e-12)

    def test_clamps_extreme_intensities(self):
        probs = select_pixels(flat_image(50.0, (2, 2)), [0])
        assert probs.probs[0] == 1.0 - 1e-6
        probs = select_pixels(flat_image(-50.0, (2, 2)), [0])
        assert probs.probs[0] == 1e-6

    def test_rejects_bad_layouts(self):
        im = flat_image(0.0, (3, 3))
        with pytest.raises(ValueError):
            select_pixels(im, [])
        with pytest.raises(ValueError):
            select_pixels(im, [1, 1])
        with pytest.raises(ValueError):
            select_pixels(im, [0, 9])

    def test_logit_inverts_squash(self, rng):
        grid = rng.uniform(-5, 5, size=(4, 4))
        layout = [0, 7, 11, 13]
        probs = select_pixels(PixelImage(grid), layout)
        assert np.allclose(logit(probs.probs), grid.reshape(-1)[layout], atol=1e-10)


class TestBernoulliEmbed:
    def test_near_deterministic_limits(self):
        rng = np.random.default_rng(0)
        low = PixelProbabilities(np.full(4, 1e-6))
        high = PixelProbabilities(np.full(4, 1.0 - 1e-6))
        zeros = bernoulli_index_samples(low, 200, rng)
        ones = bernoulli_index_samples(high, 200, rng)
        assert zeros.dtype == np.int64 and zeros.shape == (16,)
        assert zeros[0] == 200 and ones[15] == 200

    def test_empirical_means(self):
        rng = np.random.default_rng(99)
        probs = PixelProbabilities(np.array([0.3, 0.7]))
        counts = bernoulli_index_samples(probs, 100_000, rng)
        bit_means = counts @ index_bits(np.arange(4), 2) / counts.sum()
        assert np.allclose(bit_means, [0.3, 0.7], atol=0.01)

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    @pytest.mark.parametrize("n_samples", [0, 1, 777, 5000])
    def test_packed_indices_match_shift_and_sum(self, n_qubits, n_samples):
        # The name is that of the index sampler's packing check; the counts
        # over the packed basis indices now match the multinomial over the
        # Kronecker chain, on the same stream and to the same end state.
        probs = PixelProbabilities(np.random.default_rng(n_qubits).uniform(0.0, 1.0, n_qubits))
        rng, ref_rng = substream(n_qubits, "embedding"), substream(n_qubits, "embedding")
        counts = bernoulli_index_samples(probs, n_samples, rng)
        expected = bernoulli_index_samples_reference(probs, n_samples, ref_rng)
        assert counts.dtype == np.int64 and counts.shape == (2**n_qubits,)
        assert counts.sum() == n_samples
        assert np.array_equal(counts, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_pooled_counts_fit_the_product_distribution(self, n_qubits):
        gen = np.random.default_rng(500 + n_qubits)
        event = PixelProbabilities(gen.uniform(0.05, 0.95, n_qubits))
        rng = substream(n_qubits, "embedding", "chi-square")
        pooled = sum(bernoulli_index_samples(event, 2500, rng) for _ in range(40))
        expected = exact_mixed_state([event]) * pooled.sum()
        assert chi_square_pvalue(pooled, expected) > 1e-3
        # The same test rejects the qubit-reversed distribution, which
        # differs whenever the probabilities are not a palindrome.
        if n_qubits > 1:
            flipped = exact_mixed_state([PixelProbabilities(event.probs[::-1])]) * pooled.sum()
            assert chi_square_pvalue(pooled, flipped) < 1e-6

    def test_zero_samples_and_errors(self):
        probs = PixelProbabilities(np.array([0.5]))
        counts = bernoulli_index_samples(probs, 0, np.random.default_rng(0))
        assert np.array_equal(counts, [0, 0])
        with pytest.raises(ValueError):
            frequency_row(counts)
        with pytest.raises(ValueError):
            bernoulli_index_samples(probs, -1, np.random.default_rng(0))


def chi_square_pvalue(counts, expected):
    """Pearson chi-square p-value, states expected below 5 draws pooled into one bin."""
    small = expected < 5.0
    observed, predicted = counts[~small], expected[~small]
    if small.any():
        observed = np.append(observed, counts[small].sum())
        predicted = np.append(predicted, expected[small].sum())
    return chisquare(observed, predicted).pvalue


def sampled_mixed_state(events, n_samples, rng):
    """The training estimate of the dataset state: the mean of the events' draw distributions."""
    rows = np.array(
        [frequency_row(bernoulli_index_samples(e, n_samples, rng)) for e in events]
    )
    return _batch_distribution(rows)


class TestDatasetMixedState:
    def test_single_qubit_coin(self):
        probs = PixelProbabilities(np.array([0.5]))
        q = sampled_mixed_state([probs], 100_000, np.random.default_rng(1))
        assert np.allclose(q, [0.5, 0.5], atol=0.01)

    def test_always_valid_and_diagonal(self, rng):
        events = [
            PixelProbabilities(rng.uniform(0.05, 0.95, size=3)) for _ in range(4)
        ]
        q = sampled_mixed_state(events, 50, np.random.default_rng(2))
        assert q.shape == (8,) and np.all(q >= 0.0)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_exact_state(self):
        events = [
            PixelProbabilities(np.array([0.3, 0.8])),
            PixelProbabilities(np.array([0.6, 0.4])),
        ]
        sampled = sampled_mixed_state(events, 100_000, np.random.default_rng(17))
        assert np.abs(sampled - exact_mixed_state(events)).sum() < 0.02

    def test_rejects_bad_inputs(self):
        probs = PixelProbabilities(np.array([0.5]))
        with pytest.raises(ValueError):
            _batch_distribution([])
        with pytest.raises(ValueError):
            frequency_row(np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            exact_mixed_state([probs, PixelProbabilities(np.array([0.5, 0.5]))])


class TestExactMixedState:
    def test_product_distribution_by_hand(self):
        event = PixelProbabilities(np.array([0.3, 0.8]))
        s = exact_mixed_state([event])
        assert np.allclose(s, [0.14, 0.56, 0.06, 0.24], atol=1e-12)
        assert von_neumann_entropy(s) == pytest.approx(1.1112667255930813, abs=1e-12)

    def test_mixture_weights(self):
        # Events mix uniformly: a repeated event counts once per copy.
        a = PixelProbabilities(np.array([0.2]))
        b = PixelProbabilities(np.array([0.9]))
        s = exact_mixed_state([a, b, b, b])
        expected = 0.25 * np.array([0.8, 0.2]) + 0.75 * np.array([0.1, 0.9])
        assert np.allclose(s, expected, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            exact_mixed_state([])

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_matches_kronecker_chain_bitwise(self, rng, n_qubits):
        events = [
            PixelProbabilities(rng.uniform(0.01, 0.99, size=n_qubits))
            for _ in range(int(rng.integers(1, 40)))
        ]
        assert np.array_equal(exact_mixed_state(events), exact_mixed_state_reference(events))

    def test_chunks_of_events_match_kronecker_chain_bitwise(self, rng):
        # 150 ten-qubit events span three chunks of 64, the last one partial.
        events = [PixelProbabilities(rng.uniform(0.01, 0.99, size=10)) for _ in range(150)]
        assert np.array_equal(exact_mixed_state(events), exact_mixed_state_reference(events))

    def test_peak_memory_stays_within_a_chunk(self, rng):
        events = [PixelProbabilities(rng.uniform(0.01, 0.99, size=10)) for _ in range(1000)]
        all_dists_bytes = len(events) * 2**10 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            exact_mixed_state(events)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= all_dists_bytes / 4


class TestSynthToyJets:
    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synth_toy_jets(-1, "background", 16, rng)
        with pytest.raises(ValueError):
            synth_toy_jets(1, "noise", 16, rng)
        with pytest.raises(ValueError):
            synth_toy_jets(1, "background", 4, rng)

    def test_zero_events(self):
        assert synth_toy_jets(0, "signal", 16, np.random.default_rng(0)) == []

    def test_shapes_labels_nonnegative(self):
        images = synth_toy_jets(3, "signal", 12, np.random.default_rng(4))
        assert len(images) == 3
        for im in images:
            assert im.intensities.shape == (12, 12)
            assert im.label == "signal"
            assert np.all(im.intensities >= 0.0)

    def test_reproducible(self):
        a = synth_toy_jets(2, "background", 16, np.random.default_rng(11))
        b = synth_toy_jets(2, "background", 16, np.random.default_rng(11))
        for x, y in zip(a, b):
            assert np.array_equal(x.intensities, y.intensities)

    @pytest.mark.parametrize("kind", ["signal", "background"])
    def test_matches_per_blob_coordinate_grids_bitwise(self, monkeypatch, kind):
        fast = synth_toy_jets(40, kind, 16, np.random.default_rng(12))
        monkeypatch.setattr(
            embed, "_deposit_blob",
            lambda grid, rr, cc, *blob: deposit_blob_reference(grid, *blob),
        )
        slow = synth_toy_jets(40, kind, 16, np.random.default_rng(12))
        for x, y in zip(fast, slow, strict=True):
            assert np.array_equal(x.intensities, y.intensities)

    def test_background_mean_peaks_centrally(self):
        images = synth_toy_jets(500, "background", 16, substream(1, "synthesis"))
        mean = np.mean([im.intensities for im in images], axis=0)
        peak = np.unravel_index(np.argmax(mean), mean.shape)
        assert peak[0] in (7, 8) and peak[1] in (7, 8)
        # A single dominant blob: no other local maximum close to the peak.
        local_max = mean == maximum_filter(mean, size=3)
        strong = local_max & (mean > 0.5 * mean.max())
        assert strong.sum() == 1

    def test_signal_mean_shows_three_prongs(self):
        images = synth_toy_jets(500, "signal", 16, substream(2, "synthesis"))
        mean = np.mean([im.intensities for im in images], axis=0)
        local_max = mean == maximum_filter(mean, size=3)
        strong = local_max & (mean > 0.5 * mean.max())
        assert strong.sum() >= 3
