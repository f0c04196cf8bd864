"""Tests for image preprocessing, Bernoulli embedding, and toy-jet synthesis."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter
from scipy.special import expit, logit
from scipy.stats import chisquare

from qhbm import metrics
from qhbm.embed import (
    PixelImage,
    bernoulli_index_samples,
    check_probabilities,
    crop_and_pool,
    exact_mixed_state,
    fit_scale_max,
    frequency_row,
    images_to_events,
    pixel_layout,
    product_distributions,
    select_pixels,
    standardise,
    synth_toy_jets,
    toy_jet_images,
)
from qhbm.errors import DataError, NumericError
from qhbm.metrics import von_neumann_entropy
from qhbm.qsim import index_bits
from qhbm.rng import substream
from qhbm.train import _batch_distribution, _embed_events

from oracles import (
    bernoulli_index_samples_reference,
    embed_events_reference,
    exact_mixed_state_reference,
    images_to_events_reference,
    kronecker_chain,
    toy_jet_images_reference,
)


def flat_image(value, shape=(8, 8), label="unlabelled"):
    return PixelImage(np.full(shape, float(value)), label=label)


def distribution(probs):
    """One event's row of ``product_distributions``."""
    return product_distributions(np.asarray(probs, dtype=float)[None])[0]


class TestPixelImage:
    def test_fields_and_shape(self):
        im = PixelImage(np.ones((3, 5)), label="signal")
        assert im.height == 3
        assert im.width == 5
        assert im.label == "signal"

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            PixelImage(np.ones(4), label="unlabelled")

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            PixelImage(np.ones((2, 2)), label="jet")

    def test_rejects_nonfinite(self):
        grid = np.ones((2, 2))
        grid[0, 0] = np.inf
        with pytest.raises(ValueError):
            PixelImage(grid, label="unlabelled")

    def test_label_is_required(self):
        with pytest.raises(TypeError):
            PixelImage(np.ones((2, 2)))


class TestCheckProbabilities:
    def test_accepts_a_valid_stack(self):
        stack = np.full((3, 4), 0.5)
        assert check_probabilities(stack, 4, "set") is stack
        check_probabilities(np.zeros((0, 4)), 4, "set")
        assert check_probabilities([], 4, "set").shape == (0, 4)

    def test_converts_rows_to_a_float64_stack(self):
        # A sequence of rows becomes the float64 stack the set entries use.
        rows = [np.array([0.2, 0.9], dtype=np.float32), [0.5, 0.5]]
        probs = check_probabilities(rows, 2, "set")
        assert probs.dtype == np.float64 and probs.shape == (2, 2)
        assert np.array_equal(probs, np.array(rows, dtype=np.float64))

    # Stacks that are not (E, 2) probabilities strictly inside (0, 1), for a
    # two-qubit model, and the message, naming the set and the first bad event.
    @pytest.mark.parametrize(
        "probs, message",
        [
            (np.zeros((2, 0)), "event 0: need 1..10"),
            (np.full((2, 11), 0.5), "event 0: need 1..10"),
            (np.array([[0.5, 0.5], [0.5, 1.0], [np.nan, 0.5]]), "event 1: "),
            (np.array([[0.5, 0.5], [0.5, 0.5], [np.nan, 0.5]]), "event 2: "),
            pytest.param(
                np.full((2, 4), 0.5), "set: has 4 probabilities per event but the model has 2 qubits",
                id="wider_than_model",
            ),
            pytest.param(
                np.full(2, 0.5), r"set: need an \(E, 2\) probability stack, got shape \(2,\)",
                id="one_row",
            ),
            pytest.param(np.full((1, 2, 2), 0.5), r"set: need an \(E, 2\) probability stack", id="three_d"),
            pytest.param(np.array([[0.0, 0.5]]), "set event 0: probabilities must lie strictly", id="zero"),
            pytest.param(np.array([[0.5, 0.5], [0.5, 1.0]]), "set event 1: probabilities", id="one"),
            pytest.param(np.array([[0.5, 0.5], [0.5, np.nan]]), "set event 1: probabilities", id="nan"),
        ],
    )
    def test_names_the_first_bad_event(self, probs, message):
        with pytest.raises(ValueError, match=message):
            check_probabilities(probs, 2, "set")


class TestDensityMatrix:
    """The data state diag(s) as a length-2**n vector, and the state checks the measures apply."""

    def test_properties(self, rng):
        s = exact_mixed_state(rng.uniform(0.1, 0.9, size=(1, 3)))
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
        out = crop_and_pool(PixelImage(grid, label="unlabelled"), crop=0, pool=2)
        expected = np.array([[2.5, 4.5], [10.5, 12.5]])
        assert np.allclose(out.intensities, expected)

    def test_crop_then_pool_with_high_side_trim(self):
        grid = np.arange(37 * 37, dtype=float).reshape(37, 37)
        out = crop_and_pool(PixelImage(grid, label="unlabelled"), crop=12, pool=2)
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
        assert fit_scale_max(np.array([im.intensities for im in images])) == 7.25

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            fit_scale_max([])
        with pytest.raises(ValueError):
            fit_scale_max([flat_image(0.0)])


class TestStandardise:
    def test_maps_fit_peak_to_pi(self):
        grid = np.array([[0.0, 2.0], [4.0, 8.0]])
        out = standardise(PixelImage(grid, label="unlabelled"), scale_max=8.0)
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
        out = standardise(crop_and_pool(PixelImage(grid, label="unlabelled"), 0, 2), 25.0)
        assert np.allclose(out.intensities, np.array([[2.5, 4.5], [10.5, 12.5]]) / 25.0 * np.pi)

    def test_self_scaling_puts_own_peak_at_pi(self):
        grid = np.arange(16, dtype=float).reshape(4, 4)
        pooled = crop_and_pool(PixelImage(grid, label="unlabelled"), 0, 2)
        out = standardise(pooled, fit_scale_max([pooled]))
        assert out.intensities.max() == pytest.approx(np.pi, abs=1e-12)

    def test_self_scaling_rejects_blank_image(self):
        with pytest.raises(ValueError):
            fit_scale_max([crop_and_pool(flat_image(0.0, (4, 4)), 0, 2)])


class TestImagesToEvents:
    """The stacked image-to-events recipe against the per-image loop it replaced."""

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
        images = toy_jet_images(5, "signal", grid, substream(3, "synthesis", "signal"))
        probs, scale_max, layout = images_to_events(images, 2, 2, 6, **kwargs)
        expected, expected_scale, expected_layout = images_to_events_reference(images, 2, 2, 6, **kwargs)
        assert scale_max == expected_scale
        assert layout == expected_layout
        assert probs.shape == (5, len(layout))
        assert np.array_equal(probs, expected)

    def test_per_image_functions_are_the_one_image_case(self):
        images = synth_toy_jets(4, "background", 16, substream(4, "synthesis"))
        pooled = [crop_and_pool(im, 2, 2) for im in images]
        scale_max = fit_scale_max(pooled)
        layout = pixel_layout(pooled[0].height, 6)
        events = [select_pixels(standardise(im, scale_max), layout) for im in pooled]
        stack = np.array([im.intensities for im in images])
        probs, stack_scale, _ = images_to_events(stack, 2, 2, 6)
        assert stack_scale == scale_max
        assert np.array_equal(np.array(events), probs)
        assert {im.label for im in pooled} == {"background"}

    def test_rejects_non_square_grid_and_no_images(self):
        with pytest.raises(DataError, match="square grid"):
            images_to_events(np.ones((1, 8, 12)), 0, 2, 4)
        with pytest.raises(ValueError):
            images_to_events(np.zeros((0, 8, 8)), 0, 2, 4)


# Qubit counts of the property tests; n = 10 reads an explicit layout,
# since pixel_layout stops at 8.
QUBITS = st.sampled_from([4, 6, 8, 10])


class TestStackedPathsMatchOracles:
    """Every stacked step against the per-image or per-event loop, bit for bit."""

    @given(
        kind=st.sampled_from(["signal", "background"]),
        seed=st.integers(0, 2**16),
        grid=st.integers(8, 20),
        n_events=st.integers(0, 5),
    )
    def test_synthesis(self, kind, seed, grid, n_events):
        got = toy_jet_images(n_events, kind, grid, substream(seed, "synthesis"))
        want = toy_jet_images_reference(n_events, kind, grid, substream(seed, "synthesis"))
        assert got.shape == (n_events, grid, grid)
        assert np.array_equal(got, want)

    @given(
        kind=st.sampled_from(["signal", "background"]),
        seed=st.integers(0, 2**16),
        grid=st.integers(8, 20),
        crop=st.integers(0, 3),
        pool=st.integers(1, 3),
        n_qubits=QUBITS,
        trim_remainder=st.booleans(),
        given_scale=st.booleans(),
    )
    def test_preprocessing(self, kind, seed, grid, crop, pool, n_qubits, trim_remainder, given_scale):
        images = toy_jet_images(3, kind, grid, substream(seed, "synthesis"))
        side = (grid - 2 * crop) // pool
        # An explicit 10-pixel layout needs 10 pixels; an empty grid has no mean.
        assume(side >= (4 if n_qubits == 10 else 1))
        kwargs = {"trim_remainder": trim_remainder, "scale_max": 30.0 if given_scale else None}
        if n_qubits == 10:
            kwargs["layout"] = list(range(0, side * side, max(1, side * side // 10)))[:10]
        try:
            want = images_to_events_reference(images, crop, pool, n_qubits, **kwargs)
        except ValueError as exc:
            # A crop larger than the grid, an indivisible strict crop, or a
            # grid too small for the layout: the stacked path refuses it too.
            with pytest.raises(ValueError, match=str(exc).split()[0]):
                images_to_events(images, crop, pool, n_qubits, **kwargs)
            return
        probs, scale_max, layout = images_to_events(images, crop, pool, n_qubits, **kwargs)
        assert (scale_max, layout) == want[1:]
        assert np.array_equal(probs, want[0])

    @given(n_qubits=QUBITS, n_events=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_product_distributions(self, n_qubits, n_events, seed):
        probs = np.random.default_rng(seed).uniform(1e-6, 1 - 1e-6, size=(n_events, n_qubits))
        got = product_distributions(probs)
        assert np.array_equal(got, np.array([kronecker_chain(p) for p in probs]))

    @given(
        n_qubits=QUBITS,
        n_events=st.integers(1, 6),
        n_samples=st.integers(1, 600),
        seed=st.integers(0, 2**16),
    )
    def test_embedded_draws(self, n_qubits, n_events, n_samples, seed):
        probs = np.random.default_rng(seed).uniform(0.05, 0.95, size=(n_events, n_qubits))
        got = _embed_events(probs, n_samples, seed, "train")
        assert np.array_equal(got, embed_events_reference(probs, n_samples, seed, "train"))


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
        assert probs.shape == (2,) and probs.dtype == np.float64
        assert np.allclose(probs, 0.5)

    def test_pi_intensity_value(self):
        probs = select_pixels(flat_image(np.pi, (4, 4)), [3])
        assert probs[0] == pytest.approx(0.9585761678336371, abs=1e-12)

    def test_elementwise_logistic(self, rng):
        grid = rng.uniform(-3, 3, size=(5, 5))
        layout = [17, 2, 9]
        probs = select_pixels(PixelImage(grid, label="unlabelled"), layout)
        assert np.allclose(probs, expit(grid.reshape(-1)[layout]), atol=1e-12)

    def test_clamps_extreme_intensities(self):
        probs = select_pixels(flat_image(50.0, (2, 2)), [0])
        assert probs[0] == 1.0 - 1e-6
        probs = select_pixels(flat_image(-50.0, (2, 2)), [0])
        assert probs[0] == 1e-6

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
        probs = select_pixels(PixelImage(grid, label="unlabelled"), layout)
        assert np.allclose(logit(probs), grid.reshape(-1)[layout], atol=1e-10)


class TestBernoulliEmbed:
    def test_near_deterministic_limits(self):
        rng = np.random.default_rng(0)
        low = distribution(np.full(4, 1e-6))
        high = distribution(np.full(4, 1.0 - 1e-6))
        zeros = bernoulli_index_samples(low, 200, rng)
        ones = bernoulli_index_samples(high, 200, rng)
        assert zeros.dtype == np.int64 and zeros.shape == (16,)
        assert zeros[0] == 200 and ones[15] == 200

    def test_empirical_means(self):
        rng = np.random.default_rng(99)
        counts = bernoulli_index_samples(distribution([0.3, 0.7]), 100_000, rng)
        bit_means = counts @ index_bits(np.arange(4), 2) / counts.sum()
        assert np.allclose(bit_means, [0.3, 0.7], atol=0.01)

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    @pytest.mark.parametrize("n_samples", [0, 1, 777, 5000])
    def test_packed_indices_match_shift_and_sum(self, n_qubits, n_samples):
        # The name is that of the index sampler's packing check; the counts
        # over the packed basis indices now match the multinomial over the
        # Kronecker chain, on the same stream and to the same end state.
        probs = np.random.default_rng(n_qubits).uniform(0.0, 1.0, n_qubits)
        rng, ref_rng = substream(n_qubits, "embedding"), substream(n_qubits, "embedding")
        counts = bernoulli_index_samples(distribution(probs), n_samples, rng)
        expected = bernoulli_index_samples_reference(probs, n_samples, ref_rng)
        assert counts.dtype == np.int64 and counts.shape == (2**n_qubits,)
        assert counts.sum() == n_samples
        assert np.array_equal(counts, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_pooled_counts_fit_the_product_distribution(self, n_qubits):
        gen = np.random.default_rng(500 + n_qubits)
        event = gen.uniform(0.05, 0.95, (1, n_qubits))
        rng = substream(n_qubits, "embedding", "chi-square")
        pooled = sum(bernoulli_index_samples(distribution(event[0]), 2500, rng) for _ in range(40))
        expected = exact_mixed_state(event) * pooled.sum()
        assert chi_square_pvalue(pooled, expected) > 1e-3
        # The same test rejects the qubit-reversed distribution, which
        # differs whenever the probabilities are not a palindrome.
        if n_qubits > 1:
            flipped = exact_mixed_state(event[:, ::-1]) * pooled.sum()
            assert chi_square_pvalue(pooled, flipped) < 1e-6

    def test_zero_samples_and_errors(self):
        probs = distribution([0.5])
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
    """The training estimate of the dataset state: the mean of the (E, n) events' draw distributions."""
    rows = np.array(
        [frequency_row(bernoulli_index_samples(distribution(e), n_samples, rng)) for e in events]
    )
    return _batch_distribution(rows)


class TestDatasetMixedState:
    def test_single_qubit_coin(self):
        q = sampled_mixed_state(np.array([[0.5]]), 100_000, np.random.default_rng(1))
        assert np.allclose(q, [0.5, 0.5], atol=0.01)

    def test_always_valid_and_diagonal(self, rng):
        events = rng.uniform(0.05, 0.95, size=(4, 3))
        q = sampled_mixed_state(events, 50, np.random.default_rng(2))
        assert q.shape == (8,) and np.all(q >= 0.0)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_exact_state(self):
        events = np.array([[0.3, 0.8], [0.6, 0.4]])
        sampled = sampled_mixed_state(events, 100_000, np.random.default_rng(17))
        assert np.abs(sampled - exact_mixed_state(events)).sum() < 0.02

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            _batch_distribution([])
        with pytest.raises(ValueError):
            frequency_row(np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            exact_mixed_state([np.array([0.5]), np.array([0.5, 0.5])])
        with pytest.raises(ValueError):
            exact_mixed_state(np.array([0.5, 0.5]))


class TestExactMixedState:
    def test_product_distribution_by_hand(self):
        s = exact_mixed_state(np.array([[0.3, 0.8]]))
        assert np.allclose(s, [0.14, 0.56, 0.06, 0.24], atol=1e-12)
        assert von_neumann_entropy(s) == pytest.approx(1.1112667255930813, abs=1e-12)

    def test_mixture_weights(self):
        # Events mix uniformly: a repeated event counts once per copy.
        s = exact_mixed_state(np.array([[0.2], [0.9], [0.9], [0.9]]))
        expected = 0.25 * np.array([0.8, 0.2]) + 0.75 * np.array([0.1, 0.9])
        assert np.allclose(s, expected, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            exact_mixed_state(np.zeros((0, 3)))

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_matches_kronecker_chain_bitwise(self, rng, n_qubits):
        events = rng.uniform(0.01, 0.99, size=(int(rng.integers(1, 40)), n_qubits))
        assert np.array_equal(exact_mixed_state(events), exact_mixed_state_reference(events))

    def test_chunks_of_events_match_kronecker_chain_bitwise(self, rng):
        # 150 ten-qubit events span three chunks of 64, the last one partial.
        events = rng.uniform(0.01, 0.99, size=(150, 10))
        assert np.array_equal(exact_mixed_state(events), exact_mixed_state_reference(events))

    def test_peak_memory_stays_within_a_chunk(self, rng):
        events = rng.uniform(0.01, 0.99, size=(1000, 10))
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
        assert toy_jet_images(0, "signal", 16, np.random.default_rng(0)).shape == (0, 16, 16)

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
    def test_matches_per_blob_coordinate_grids_bitwise(self, kind):
        # The stacked canvases against one canvas and coordinate grid per blob.
        fast = synth_toy_jets(40, kind, 16, np.random.default_rng(12))
        slow = toy_jet_images_reference(40, kind, 16, np.random.default_rng(12))
        assert np.array_equal(np.array([im.intensities for im in fast]), slow)

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
