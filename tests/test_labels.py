import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ouv_classifier import NUM_CLASSES, NUM_CRITERIA
from ouv_classifier.corpus import label_rows
from ouv_classifier.labels import (ALPHA_GRID, MAX_ALPHA, VARIANTS,
                                   SmoothingConfig, cooccurrence,
                                   prior_weights, soft_softmax, soft_targets)
from conftest import make_one_hot, make_sites


# Original label smoothing, and the epsilon at which it equals the vanilla
# variant at a given alpha: oracles for the vanilla variant.
def epsilon_for_alpha(alpha: float, num_classes: int) -> float:
    """Smoothing strength of original label smoothing equivalent to the
    vanilla variant at a given alpha."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if num_classes < 2:
        raise ValueError("need at least two classes")
    k = num_classes
    num = math.expm1(alpha) * k
    denom = math.exp(1 + alpha) + (k - 1) * math.exp(alpha) - k
    return num / denom


def original_ls(one_hot: np.ndarray, epsilon: float,
                num_classes: int) -> np.ndarray:
    """Original label smoothing: (1 - eps) * y + (eps / K) * 1."""
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must be in [0, 1)")
    one_hot = np.asarray(one_hot, dtype=float)
    if one_hot.shape != (num_classes,):
        raise ValueError("one_hot length does not match num_classes")
    return (1 - epsilon) * one_hot + epsilon / num_classes


def identity_mu():
    return np.hstack([np.eye(NUM_CRITERIA), np.ones((NUM_CRITERIA, 1))])


def per_column_prior_weights(counts: np.ndarray) -> np.ndarray:
    """One column at a time: the reference that ``prior_weights`` must
    equal bit for bit, raising for the lowest criterion that never occurs."""
    counts = counts.astype(float)
    col_sums = counts.sum(axis=0)
    mu = np.ones((NUM_CRITERIA, NUM_CLASSES))
    for k in range(NUM_CRITERIA):
        if col_sums[k] <= 0:
            raise ValueError(
                f"criterion {k + 1} never occurs; cannot normalize prior")
        mu[k, :NUM_CRITERIA] = counts[:, k] / col_sums[k]
    return mu


class TestSoftSoftmax:
    def test_worked_example(self):
        got = soft_softmax(np.array([[2.0, 0.0, 1.0, 0.0]]))[0]
        np.testing.assert_allclose(np.round(got, 2), [0.79, 0, 0.21, 0])

    def test_single_positive_entry(self):
        np.testing.assert_allclose(soft_softmax([[1, 0, 0, 0]])[0], [1, 0, 0, 0])

    def test_symmetry(self):
        got = soft_softmax([[0.3] * 5])[0]
        np.testing.assert_allclose(got, [0.2] * 5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            soft_softmax([[0.0, 0.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            soft_softmax([[1.0, -0.1]])

    def test_one_d_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            soft_softmax(np.array([1.0, 0.0]))

    def test_batch_with_one_all_zero_row_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            soft_softmax([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])

    @pytest.mark.parametrize("row", [[709.0] * 3, [707.5] * NUM_CLASSES,
                                     [1.0, math.nan]])
    def test_a_row_whose_sum_is_not_finite_is_rejected(self, row):
        """Not a row of zeros (709 overflows each entry; eleven of 707.5
        overflow only the sum) nor of NaN."""
        with pytest.raises(ValueError,
                           match="^a row's sum of e\\^z - 1 is not a finite "
                                 "float$"):
            soft_softmax([np.ones(len(row)), row])

    @given(st.lists(st.floats(0, 5), min_size=2, max_size=12)
           .filter(lambda xs: max(xs) > 0))
    def test_probability_vector_and_zero_preservation(self, values):
        z = np.array(values)
        out = soft_softmax(z[None])[0]
        assert abs(out.sum() - 1) < 1e-12
        assert np.all(out[z == 0] == 0)
        assert np.all(out >= 0)

    @given(st.lists(st.floats(0.01, 5), min_size=2, max_size=12))
    @example([1.0, 3.625, 0.010000000000000002, 0.01])
    def test_order_preserving(self, values):
        """A non-decreasing map, not a strictly increasing one: inputs one
        ulp apart, as in the example, may round to equal outputs."""
        z = np.array(values)
        out = soft_softmax(z[None])[0]
        assert np.all(np.diff(out[np.argsort(z, kind="stable")]) >= 0)
        assert out[np.argmax(z)] == out.max()


class TestEpsilonForAlpha:
    def test_zero_alpha(self):
        for k in (2, 5, 11):
            assert epsilon_for_alpha(0.0, k) == 0.0

    def test_monotone_on_grid(self):
        values = [epsilon_for_alpha(a, 11) for a in ALPHA_GRID]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_limit(self):
        limit = 11 / (math.e - 1 + 11)
        assert abs(epsilon_for_alpha(50.0, 11) - limit) < 0.01 * limit
        for alpha in ALPHA_GRID:
            assert epsilon_for_alpha(alpha, 11) < limit

    def test_specific_ordering(self):
        assert (epsilon_for_alpha(0.1, 11) < epsilon_for_alpha(0.2, 11)
                < epsilon_for_alpha(1.0, 11))


class TestOriginalLs:
    def test_identity_at_zero(self):
        y = make_one_hot(3)
        np.testing.assert_array_equal(original_ls(y, 0.0, NUM_CLASSES), y)

    def test_arithmetic(self):
        y = make_one_hot(1)
        got = original_ls(y, 0.11, 11)
        np.testing.assert_allclose(got[0], 0.9)
        np.testing.assert_allclose(got[1:], 0.01)

    def test_sums_to_one(self):
        got = original_ls(make_one_hot(5), 0.3, 11)
        assert abs(got.sum() - 1) < 1e-12


class TestVanillaEquivalence:
    @pytest.mark.parametrize("num_classes", [2, 5, 11])
    def test_matches_original_ls(self, num_classes):
        parental = np.ones(num_classes)  # unused by vanilla
        for position in range(num_classes):
            y = np.zeros(num_classes)
            y[position] = 1.0
            for alpha in ALPHA_GRID:
                if num_classes == NUM_CLASSES and position < NUM_CRITERIA:
                    vanilla = soft_targets(
                        np.array([position + 1]), parental[None], None,
                        SmoothingConfig("vanilla", alpha))[0]
                else:  # the vanilla rule at a width soft_targets lacks
                    vanilla = soft_softmax((y + alpha)[None])[0]
                eps = epsilon_for_alpha(alpha, num_classes)
                reference = original_ls(y, eps, num_classes)
                assert np.max(np.abs(vanilla - reference)) < 1e-9


def scalar_smooth_uniform(one_hot, parental, alpha):
    """Independent scalar evaluation of the uniform variant."""
    combined = [y + alpha * g for y, g in zip(one_hot, parental)]
    numerators = [math.exp(c) - 1 for c in combined]
    denom = sum(numerators)
    return [n / denom for n in numerators]


class TestSmooth:
    def test_alpha_zero_is_identity(self):
        y = make_one_hot(4)
        parental = make_one_hot(4)
        for variant in ("none", "vanilla", "uniform", "prior"):
            got = soft_targets(np.array([4]), parental[None], identity_mu(),
                               SmoothingConfig(variant, 0.0))[0]
            np.testing.assert_array_equal(got, y)

    def test_uniform_against_scalar_oracle(self):
        y = make_one_hot(2)
        parental = np.zeros(NUM_CLASSES)
        parental[1] = parental[3] = 1.0
        parental[10] = 0.2
        got = soft_targets(np.array([2]), parental[None], None,
                           SmoothingConfig("uniform", 0.5))[0]
        expected = scalar_smooth_uniform(y, parental, 0.5)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        support = {i for i, v in enumerate(got) if v > 0}
        assert support == {1, 3, 10}
        assert np.argmax(got) == 1

    def test_prior_weights_shape_output(self):
        parental = np.zeros(NUM_CLASSES)
        parental[1] = parental[3] = 1.0
        parental[10] = 0.2
        mu = identity_mu()
        mu[1, 3] = 0.5  # criterion 2 associates with 4
        got = soft_targets(np.array([2]), parental[None], mu,
                           SmoothingConfig("prior", 0.5))[0]
        assert abs(got.sum() - 1) < 1e-9
        support = {i for i, v in enumerate(got) if v > 0}
        assert support == {1, 3, 10}

    def test_prior_requires_mu(self):
        with pytest.raises(ValueError):
            soft_targets(np.array([1]), make_one_hot(1)[None], None,
                         SmoothingConfig("prior", 0.1))

    @pytest.mark.parametrize("config", [SmoothingConfig(),
                                        SmoothingConfig("prior", 0.1)])
    @pytest.mark.parametrize("label", [0, NUM_CLASSES])
    def test_a_label_outside_one_to_ten_is_refused(self, label, config):
        """Not the Others row, which ``np.eye(11)[label - 1]`` gave for
        both."""
        with pytest.raises(ValueError, match=f"out of range: {label}$"):
            soft_targets(np.array([3, label]), label_rows([[3], [3]]),
                         identity_mu(), config)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            SmoothingConfig("vanilla", -0.1)

    @pytest.mark.parametrize("variant", ["vanilla", "uniform", "prior"])
    def test_every_row_sums_to_one_at_the_largest_alpha(self, variant):
        """At ``MAX_ALPHA`` each label's row sums to 1, with every parental
        entry and weight 1, the largest rows ``uniform`` and ``prior``
        build."""
        labels = np.arange(1, NUM_CRITERIA + 1)
        got = soft_targets(labels, np.ones((NUM_CRITERIA, NUM_CLASSES)),
                           np.ones((NUM_CRITERIA, NUM_CLASSES)),
                           SmoothingConfig(variant, MAX_ALPHA))
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_an_alpha_above_the_largest_is_rejected(self):
        """One float above ``MAX_ALPHA`` the vanilla row's sum overflows."""
        above = math.nextafter(MAX_ALPHA, math.inf)
        with pytest.raises(ValueError, match="not a finite float"):
            soft_softmax(np.eye(NUM_CLASSES)[:1] + above)
        with pytest.raises(ValueError, match=(
                f"^alpha must be at most {re.escape(repr(MAX_ALPHA))} "
                rf"\(above it a row's sum overflows\), got {above!r}$")):
            SmoothingConfig("vanilla", above)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError,
                           match=f"^alpha must be finite, got {alpha!r}$"):
            SmoothingConfig("vanilla", alpha)

    def test_others_contribution_identical_across_variants(self):
        # mu[k][others] = 1 makes the Others mass alpha * 0.2 in both variants
        parental = make_one_hot(3)
        parental[10] = 0.2
        uniform = soft_targets(np.array([3]), parental[None], None,
                               SmoothingConfig("uniform", 0.5))[0]
        prior = soft_targets(np.array([3]), parental[None], identity_mu(),
                             SmoothingConfig("prior", 0.5))[0]
        np.testing.assert_allclose(uniform[10], prior[10], atol=1e-12)


def per_row_soft_target(one_hot, parental, mu, config):
    """One row at a time, in the batch routine's operation order: the
    reference that ``soft_targets`` must equal bit for bit."""
    if config.variant == "none" or config.alpha == 0:
        return one_hot.copy()
    if config.variant == "vanilla":
        combined = one_hot + config.alpha
    elif config.variant == "uniform":
        combined = one_hot + config.alpha * parental
    else:
        criterion = int(np.argmax(one_hot)) + 1
        combined = one_hot + config.alpha * (mu[criterion - 1] * parental)
    numerators = np.expm1(combined)
    return numerators / numerators.sum()


class TestSoftTargetsBatch:
    def test_equals_per_row_reference(self):
        rng = np.random.default_rng(2021)
        n = 1200
        labels = rng.integers(1, NUM_CRITERIA + 1, n)
        one_hots = np.stack([make_one_hot(int(c)) for c in labels])
        parentals = np.where(rng.random((n, NUM_CLASSES)) < 0.3, 1.0,
                             one_hots)
        parentals[:, NUM_CLASSES - 1] = 0.2
        mu = np.hstack([rng.uniform(0, 1, size=(NUM_CRITERIA, NUM_CRITERIA)),
                        np.ones((NUM_CRITERIA, 1))])
        for variant in VARIANTS:
            for alpha in ALPHA_GRID:
                config = SmoothingConfig(variant, alpha)
                want = np.stack([per_row_soft_target(y, g, mu, config)
                                 for y, g in zip(one_hots, parentals)])
                got = soft_targets(labels, parentals, mu, config)
                np.testing.assert_array_equal(got, want)


def one_hot_soft_targets(labels, parentals, mu, config):
    """``soft_targets`` as it was when each sample carried a one-hot row:
    the rows built as ``label_rows`` built them (with 0 for Others), and
    the prior read at each row's ``argmax``. The reference that
    ``soft_targets`` of the labels must equal byte for byte."""
    one_hots = np.zeros((len(labels), NUM_CLASSES))
    one_hots[np.arange(len(labels)), np.array(labels, dtype=np.intp) - 1] = 1.0
    if config.variant == "none" or config.alpha == 0:
        return one_hots
    parentals = np.asarray(parentals, dtype=float)
    if config.variant == "vanilla":
        combined = one_hots + config.alpha
    elif config.variant == "uniform":
        combined = one_hots + config.alpha * parentals
    else:
        weights = mu[one_hots.argmax(axis=1)]
        combined = one_hots + config.alpha * (weights * parentals)
    return soft_softmax(combined)


criteria_sets = st.lists(st.integers(1, NUM_CRITERIA), min_size=1,
                         max_size=4, unique=True)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(1, NUM_CRITERIA), criteria_sets),
                min_size=1, max_size=12),
       st.lists(criteria_sets, max_size=8),
       st.sampled_from(VARIANTS),
       st.floats(0, 2))
def test_soft_targets_of_labels_equal_the_one_hot_form(rows, sites, variant,
                                                       alpha):
    """Labels 1-10, parental rows from ``label_rows``, every variant, an
    alpha in [0, 2] and ``mu`` from the prior of random sites (each
    criterion also a site of its own, so that every one occurs)."""
    labels = np.array([label for label, _ in rows])
    parentals = label_rows([sorted({label, *site}) for label, site in rows])
    mu = prior_weights(cooccurrence(make_sites(
        sites + [[k] for k in range(1, NUM_CRITERIA + 1)])))
    config = SmoothingConfig(variant, alpha)
    got = soft_targets(labels, parentals, mu, config)
    want = one_hot_soft_targets(labels.tolist(), parentals, mu, config)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def label_pairs(draw):
    sentence = draw(st.integers(1, NUM_CRITERIA))
    extra = draw(st.sets(st.integers(1, NUM_CRITERIA), max_size=5))
    parental = np.zeros(NUM_CLASSES)
    for k in extra | {sentence}:
        parental[k - 1] = 1.0
    parental[NUM_CLASSES - 1] = 0.2
    return sentence, parental


class TestSoftLabelProperties:
    @settings(max_examples=300)
    @given(label_pairs(),
           st.sampled_from(["uniform", "prior"]),
           st.sampled_from(ALPHA_GRID))
    def test_zero_preservation_and_sum(self, pair, variant, alpha):
        label, parental = pair
        rng = np.random.default_rng(0)
        mu = np.hstack([
            rng.uniform(0.01, 1, size=(NUM_CRITERIA, NUM_CRITERIA)),
            np.ones((NUM_CRITERIA, 1))])
        got = soft_targets(np.array([label]), parental[None], mu,
                           SmoothingConfig(variant, alpha))[0]
        assert abs(got.sum() - 1) < 1e-9
        allowed = set(np.nonzero(parental)[0]) | {label - 1}
        for idx, value in enumerate(got):
            if idx not in allowed:
                assert value == 0.0

    @settings(max_examples=200)
    @given(label_pairs(),
           st.sampled_from(["vanilla", "uniform", "prior"]),
           st.sampled_from([a for a in ALPHA_GRID if a > 0]))
    def test_sentence_label_stays_strict_max(self, pair, variant, alpha):
        label, parental = pair
        mu = identity_mu()
        mu[:, :NUM_CRITERIA] = 0.5
        got = soft_targets(np.array([label]), parental[None], mu,
                           SmoothingConfig(variant, alpha))[0]
        others = np.delete(got, label - 1)
        assert got[label - 1] > others.max()


class TestCooccurrence:
    def test_pair_counts(self):
        counts = cooccurrence(make_sites([{2, 4}]))
        assert counts.shape == (NUM_CRITERIA, NUM_CRITERIA)
        assert counts.dtype == np.int64
        assert counts[1, 3] == 1
        assert counts[3, 1] == 1
        assert np.trace(counts) == 0

    def test_sole_criterion(self):
        counts = cooccurrence(make_sites([{7}]))
        assert counts[6, 6] == 1
        assert counts.sum() == 1

    def test_symmetric(self):
        sites = make_sites([{1, 2, 3}, {2, 4}, {2}, {9, 10}, {4}])
        counts = cooccurrence(sites)
        np.testing.assert_array_equal(counts, counts.T)

    def test_diagonal_counts_singletons(self):
        sites = make_sites([{1}, {1}, {1, 2}, {3}])
        counts = cooccurrence(sites)
        assert counts[0, 0] == 2
        assert counts[2, 2] == 1
        assert counts[0, 1] == 1

    def test_empty_criteria_rejected(self):
        with pytest.raises(ValueError):
            cooccurrence(make_sites([set()]))
        with pytest.raises(ValueError, match="^site 2 has no criteria$"):
            cooccurrence(make_sites([{1}, set(), {2, 3}, set()]))

    @pytest.mark.parametrize("bad", [0, NUM_CLASSES])
    def test_a_criterion_outside_one_to_ten_is_refused(self, bad):
        """Criterion 0 is not counted as criterion 10 (index -1)."""
        with pytest.raises(ValueError, match=f"out of range: {bad}$"):
            cooccurrence(make_sites([{1, 2}, {bad, 3}]))


def per_site_cooccurrence(sites):
    """A loop over the sites: the reference ``cooccurrence`` must equal."""
    counts = np.zeros((NUM_CRITERIA, NUM_CRITERIA), dtype=np.int64)
    for site in sites:
        crits = sorted(site.criteria)
        if len(crits) == 1:
            counts[crits[0] - 1, crits[0] - 1] += 1
        else:
            for a in crits:
                for b in crits:
                    if a != b:
                        counts[a - 1, b - 1] += 1
    return counts


@given(st.lists(st.sets(st.integers(1, NUM_CRITERIA), min_size=1,
                        max_size=5), max_size=30))
def test_cooccurrence_equals_the_per_site_loop(criteria):
    sites = make_sites(criteria)
    got = cooccurrence(sites)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, per_site_cooccurrence(sites))


class TestPriorWeights:
    def test_direct_normalization(self):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts[1, 0] = 3
        counts[2, 0] = 1
        counts[0, 1] = 3
        counts[0, 2] = 1
        counts[5, 5] = 1  # keep other columns normalizable
        for k in range(3, 10):
            if k != 5:
                counts[k, k] = 1
        mu = prior_weights(counts)
        assert mu.shape == (NUM_CRITERIA, NUM_CLASSES)
        assert mu.dtype == np.float64
        expected_col1 = np.zeros(11)
        expected_col1[1] = 0.75
        expected_col1[2] = 0.25
        expected_col1[10] = 1.0
        np.testing.assert_allclose(mu[0], expected_col1)

    def test_rows_sum_to_one(self):
        sites = make_sites([{1, 2}, {2, 3}, {3}, {1, 4}, {5}, {6}, {7},
                            {8}, {9}, {10}, {2, 4, 6}])
        mu = prior_weights(cooccurrence(make_sites(
            [{1, 2}, {2, 3}, {3}, {1, 4}, {5}, {6}, {7}, {8}, {9}, {10},
             {2, 4, 6}])))
        sums = mu[:, :10].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        np.testing.assert_allclose(mu[:, 10], 1.0)

    def test_reconstruct_counts(self):
        sites = make_sites([{1, 2}, {2, 3}, {3}, {1, 4}, {5}, {6}, {7},
                            {8}, {9}, {10}, {2, 4, 6}])
        counts = cooccurrence(sites)
        mu = prior_weights(counts)
        col_sums = counts.sum(axis=0).astype(float)
        rebuilt = (mu[:, :10].T * col_sums).round().astype(np.int64)
        np.testing.assert_array_equal(rebuilt, counts)

    def test_symmetry_transport(self):
        sites = make_sites([{1, 2}, {2, 3}, {3}, {1, 4}, {5}, {6}, {7},
                            {8}, {9}, {10}])
        counts = cooccurrence(sites)
        mu = prior_weights(counts)
        col = counts.sum(axis=0).astype(float)
        for k in range(1, 11):
            for l in range(1, 11):
                lhs = mu[k - 1][l - 1] * col[k - 1]
                rhs = mu[l - 1][k - 1] * col[l - 1]
                assert abs(lhs - rhs) < 1e-9

    def test_zero_column_rejected(self):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts[0, 0] = 1
        with pytest.raises(ValueError, match="criterion 2"):
            prior_weights(counts)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 50) | st.integers(0, 2 ** 40),
                    min_size=NUM_CRITERIA ** 2, max_size=NUM_CRITERIA ** 2),
           st.sets(st.integers(0, NUM_CRITERIA - 1), max_size=3))
    @example(values=[1] * NUM_CRITERIA ** 2, never=set())
    @example(values=[1] * NUM_CRITERIA ** 2, never={0, 9})
    def test_equals_per_column_reference(self, values, never):
        """Bit for bit the per-column reference; counts whose ``never``
        columns are zeroed raise its error, naming the lowest of them."""
        counts = np.array(values, dtype=np.int64).reshape(NUM_CRITERIA,
                                                          NUM_CRITERIA)
        counts[:, sorted(never)] = 0
        try:
            want = per_column_prior_weights(counts)
        except ValueError as exc:
            lowest = min(np.flatnonzero(counts.sum(axis=0) == 0)) + 1
            assert f"criterion {lowest} " in str(exc)
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                prior_weights(counts)
            return
        got = prior_weights(counts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
