"""Acceptance gate.

Criteria 1-9 are self-contained property checks. Criteria 10-13 need the
real syndication CSV (and pretrained word vectors for 13); they are
skipped unless OUV_SYNDICATION_CSV / OUV_EMBEDDINGS point at the data.
Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.
"""

import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ouv_classifier import NUM_CLASSES, OTHERS_NOISE
from ouv_classifier.corpus import (build_dataset, build_sd_set, label_rows,
                                   parse_syndication)
from ouv_classifier.features import fit_tfidf, tfidf_rows
from ouv_classifier.harness import ExperimentConfig, build_featurizer, mine
from ouv_classifier.labels import (ALPHA_GRID, SmoothingConfig, cooccurrence,
                                   prior_weights, soft_softmax, soft_targets)
from ouv_classifier.metrics import evaluate_matches, evaluate_split
from ouv_classifier.model import (TrainConfig, backward, cross_entropy_soft,
                                  forward, init_params, save_checkpoint,
                                  train)
from conftest import StubPredictor, make_one_hot, make_separable_dataset
from test_labels import epsilon_for_alpha, original_ls

SYNDICATION_CSV = os.environ.get("OUV_SYNDICATION_CSV", "")
EMBEDDINGS_PATH = os.environ.get("OUV_EMBEDDINGS", "")
needs_data = pytest.mark.skipif(
    not SYNDICATION_CSV, reason="set OUV_SYNDICATION_CSV to run")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_acceptance_01_softmax_worked_example():
    with criterion(1, "modified and standard softmax worked example"):
        z = np.array([2.0, 0.0, 1.0, 0.0])
        modified = soft_softmax(z[None])[0]
        np.testing.assert_allclose(np.round(modified, 2),
                                   [0.79, 0.0, 0.21, 0.0])
        standard = np.exp(z) / np.exp(z).sum()
        # the reference rounds so that the entries sum to 1; the exact
        # leading entry is 0.6103, asserted to within 0.01 absolute
        np.testing.assert_allclose(standard, [0.62, 0.08, 0.22, 0.08],
                                   atol=0.01)


def test_acceptance_02_vanilla_equals_original_ls():
    with criterion(2, "vanilla smoothing equals classic LS via epsilon map"):
        worst = 0.0
        for num_classes in (2, 5, 11):
            for position in range(num_classes):
                one_hot = np.zeros(num_classes)
                one_hot[position] = 1.0
                for alpha in ALPHA_GRID:
                    vanilla = soft_softmax((one_hot + alpha)[None])[0]
                    eps = epsilon_for_alpha(alpha, num_classes)
                    classic = original_ls(one_hot, eps, num_classes)
                    worst = max(worst,
                                float(np.abs(vanilla - classic).max()))
        assert worst < 1e-9


def test_acceptance_03_epsilon_properties():
    with criterion(3, "epsilon map: zero at 0, increasing, correct limit"):
        assert epsilon_for_alpha(0.0, 11) == 0.0
        values = [epsilon_for_alpha(a, 11) for a in ALPHA_GRID]
        assert all(b > a for a, b in zip(values, values[1:]))
        limit = 11 / (np.e - 1 + 11)
        assert abs(epsilon_for_alpha(50.0, 11) - limit) / limit < 0.01


def _numeric_grads(params, x, targets, l2, step=1e-5):
    def loss_at(p):
        _, probs, _ = forward(p, x)
        reg = 0.5 * l2 * sum(float((a * a).sum())
                             for a in p.arrays().values())
        return cross_entropy_soft(probs, targets) + reg

    grads = {}
    for key, arr in params.arrays().items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_at(params)
            flat[i] = orig - step
            down = loss_at(params)
            flat[i] = orig
            g.ravel()[i] = (up - down) / (2 * step)
        grads[key] = g
    return grads


def test_acceptance_04_gradient_check():
    with criterion(4, "analytic gradients match finite differences"):
        rng = np.random.default_rng(12)
        mu = np.hstack([rng.uniform(0.1, 1.0, size=(10, 10)),
                        np.ones((10, 1))])
        settings = [SmoothingConfig(),
                    SmoothingConfig("vanilla", 0.1),
                    SmoothingConfig("uniform", 0.2),
                    SmoothingConfig("prior", 0.5)]
        worst = 0.0
        for trial in range(50):
            params = init_params(6, 5, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(3, 6))
            labels = rng.integers(1, 11, size=3)
            parentals = np.stack([make_one_hot(int(c)) for c in labels])
            parentals[:, NUM_CLASSES - 1] = OTHERS_NOISE
            config = settings[trial % 4]
            targets = soft_targets(labels, parentals, mu, config)
            l2 = 1e-3
            _, probs, cache = forward(params, x)
            analytic = backward(cache, probs, targets, params, l2)
            numeric = _numeric_grads(params, x, targets, l2)
            for key, arr in analytic.arrays().items():
                denom = np.maximum(np.abs(arr) + np.abs(numeric[key]), 1e-8)
                rel = np.abs(arr - numeric[key]) / denom
                worst = max(worst, float(rel.max()))
        assert worst < 1e-4


def test_acceptance_05_zero_preservation():
    with criterion(5, "uniform/prior smoothing keeps non-support classes "
                      "at exactly zero; soft labels sum to one"):
        rng = np.random.default_rng(77)
        mu = np.hstack([rng.uniform(0.1, 1.0, size=(10, 10)),
                        np.ones((10, 1))])
        for _ in range(1000):
            label = int(rng.integers(1, 11))
            extra = set(rng.choice(np.arange(1, 11),
                                   size=int(rng.integers(0, 4)),
                                   replace=False))
            support = sorted({label} | {int(c) for c in extra})
            parental = np.zeros(NUM_CLASSES)
            for c in support:
                parental[c - 1] = 1.0
            parental[NUM_CLASSES - 1] = OTHERS_NOISE
            outside = [c for c in range(1, 11) if c not in support]
            alpha = float(rng.choice(ALPHA_GRID))
            for config in (SmoothingConfig("uniform", alpha),
                           SmoothingConfig("prior", alpha),
                           SmoothingConfig("vanilla", 0.0),
                           SmoothingConfig("uniform", 0.0),
                           SmoothingConfig("prior", 0.0)):
                soft = soft_targets(np.array([label]), parental[None], mu,
                                    config)[0]
                assert abs(soft.sum() - 1.0) < 1e-9
                for c in outside:
                    assert soft[c - 1] == 0.0


def test_acceptance_06_metric_oracles():
    with criterion(6, "metrics reproduce hand-computed fixture values"):
        def full(first):
            return [first] + [c for c in range(1, 12) if c != first]

        truths = [1, 1, 1, 2, 2, 2, 2, 3, 3, 3]
        rank1 = [1, 1, 2, 2, 2, 2, 1, 3, 3, 1]
        report = evaluate_split([full(p) for p in rank1], truths, k=3)
        assert report.top1_accuracy == pytest.approx(0.7)
        assert report.per_class[1]["f1"] == pytest.approx(4 / 7)
        assert report.per_class[2]["f1"] == pytest.approx(0.75)
        assert report.per_class[3]["f1"] == pytest.approx(0.8)
        assert report.macro_f1 == pytest.approx((4 / 7 + 0.75 + 0.8) / 10)
        assert evaluate_split([full(p) for p in rank1], truths,
                              k=11).topk_accuracy == 1.0

        def parental(*criteria):
            vec = np.zeros(NUM_CLASSES)
            for k in criteria:
                vec[k - 1] = 1.0
            vec[NUM_CLASSES - 1] = OTHERS_NOISE
            return vec

        rankings = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 1, 2],
                    [3, 4, 5], [6, 7, 8]]
        parentals = [parental(3), parental(4, 9), parental(1, 2),
                     parental(10), parental(6), parental(7, 8)]
        matches = evaluate_matches(rankings, parentals, k=3)
        # hand count: top-1 hits on samples 2 and 4; top-3 adds 1 and 6
        assert matches.top1_match == pytest.approx(2 / 6)
        assert matches.topk_match == pytest.approx(4 / 6)


def _toy_features():
    dataset = make_separable_dataset(n_train=300, n_valid=60)
    vocab = fit_tfidf(dataset.train, min_df=1)
    return (tfidf_rows(vocab, [s.tokens for s in dataset.train]),
            np.array([s.sentence_label for s in dataset.train]),
            label_rows([s.parental for s in dataset.train]),
            tfidf_rows(vocab, [s.tokens for s in dataset.valid]),
            np.array([s.sentence_label for s in dataset.valid]))


def _toy_config(smoothing):
    return TrainConfig(hidden=32, batch_size=32, learning_rate=0.01,
                       l2=0.0, dropout=0.1, max_epochs=20, patience=20,
                       seed=1337, k=3, smoothing=smoothing)


def test_acceptance_07_toy_corpus_learning():
    with criterion(7, "separable toy corpus solved with and without LS"):
        start = time.monotonic()
        train_x, train_labels, parentals, valid_x, valid_labels = _toy_features()
        plain = train(train_x, train_labels, parentals, valid_x, valid_labels,
                      _toy_config(SmoothingConfig()))
        best = plain.history[plain.best_epoch - 1]
        assert best["val_top1"] == 1.0
        smoothed = train(train_x, train_labels, parentals, valid_x, valid_labels,
                         _toy_config(SmoothingConfig("uniform", 0.1)))
        best = smoothed.history[smoothed.best_epoch - 1]
        assert best["val_top1"] >= 0.98
        assert time.monotonic() - start < 30


def test_acceptance_08_deterministic_training(tmp_path):
    with criterion(8, "identical configs give byte-identical checkpoints"):
        train_x, train_labels, parentals, valid_x, valid_labels = _toy_features()
        config = _toy_config(SmoothingConfig("uniform", 0.1))
        models = []
        for name in ("a", "b"):
            model = train(train_x, train_labels, parentals, valid_x,
                          valid_labels, config)
            save_checkpoint(model, tmp_path / f"{name}.json")
            models.append(model)
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b.json").read_bytes())
        assert models[0].history == models[1].history


def test_acceptance_09_mining_filter(canned_proba):
    with criterion(9, "agreement mining matches brute-force rules, "
                      "rejecting the IoU = 0.5 boundary"):
        rng = np.random.default_rng(41)
        keys = [f"s{chr(97 + i)}" for i in range(10)]
        sentences = [f"{k} heritage sentence" for k in keys]
        a, b = {}, {}
        for i, key in enumerate(keys):
            classes = list(rng.choice(np.arange(1, 12), size=3,
                                      replace=False))
            conf = 0.3 if i % 3 == 0 else 0.1
            a[key] = [(int(c), conf) for c in classes]
            if i % 2 == 0:
                other = list(classes)
            elif i % 4 == 1:
                # exactly two shared classes: IoU = 2/4 = 0.5
                pool = [c for c in range(1, 12) if c not in classes]
                other = classes[:2] + [int(rng.choice(pool))]
            else:
                pool = [c for c in range(1, 12) if c not in classes]
                other = list(rng.choice(pool, size=3, replace=False))
            b[key] = [(int(c), conf) for c in other]
        kept = mine(sentences, StubPredictor(a), StubPredictor(b),
                    confidence_threshold=0.8, iou_threshold=0.5)
        expected = []
        for key, text in zip(keys, sentences):
            sa, sb = {c for c, _ in a[key]}, {c for c, _ in b[key]}
            iou = len(sa & sb) / len(sa | sb)
            if (sum(v for _, v in a[key]) > 0.8
                    and sum(v for _, v in b[key]) > 0.8 and iou > 0.5):
                expected.append(text)
        assert [k["sentence"] for k in kept] == expected
        # the boundary fixture must actually contain IoU = 0.5 rejections
        boundary = [k for i, k in enumerate(keys)
                    if i % 2 == 1 and i % 4 == 1]
        assert boundary
        for key in boundary:
            sa, sb = {c for c, _ in a[key]}, {c for c, _ in b[key]}
            assert len(sa & sb) / len(sa | sb) == 0.5


# ---------------------------------------------------------------------------
# Data-dependent criteria


@pytest.fixture(scope="module")
def real_sites():
    sites, _ = parse_syndication(SYNDICATION_CSV)
    return sites


@pytest.fixture(scope="module")
def real_dataset(real_sites):
    justified = [s for s in real_sites if s.justification]
    dataset = build_dataset(justified, seed=1337)
    dataset.sd.extend(build_sd_set(real_sites))
    return dataset


@needs_data
def test_acceptance_10_dataset_counts(real_dataset):
    with criterion(10, "split sizes and class ordering match the reference "
                       "corpus within 5%"):
        # ten definition sentences are appended to train after the split
        n_train = len(real_dataset.train) - 10
        assert abs(n_train - 4514) / 4514 <= 0.05
        assert abs(len(real_dataset.valid) - 563) / 563 <= 0.05
        assert abs(len(real_dataset.test) - 564) / 564 <= 0.05
        assert abs(len(real_dataset.sd) - 9361) / 9361 <= 0.05
        counts = {c: 0 for c in range(1, 11)}
        for sample in real_dataset.train:
            if sample.site_id:
                counts[sample.sentence_label] += 1
        assert max(counts, key=counts.get) == 4
        cultural = {c: counts[c] for c in range(1, 7)}
        assert min(cultural, key=cultural.get) == 5


@needs_data
def test_acceptance_11_cooccurrence_distribution(real_sites):
    with criterion(11, "co-occurrence diagonal and criteria-count "
                       "distribution are exact"):
        justified = [s for s in real_sites if s.criteria]
        counts = cooccurrence(justified)
        assert int(np.trace(counts)) == 188
        distribution = {}
        for site in justified:
            distribution[len(site.criteria)] = (
                distribution.get(len(site.criteria), 0) + 1)
        assert [distribution.get(n, 0) for n in range(1, 8)] == [
            188, 468, 304, 103, 34, 4, 2]


def _real_run(dataset, features_fn, smoothing=SmoothingConfig()):
    config = TrainConfig(hidden=200, batch_size=128, learning_rate=2e-4,
                         l2=1e-5, dropout=0.5, max_epochs=100, patience=5,
                         seed=1337, k=3, smoothing=smoothing)
    train_x, valid_x = features_fn(dataset)
    model = train(train_x,
                  np.array([s.sentence_label for s in dataset.train]),
                  label_rows([s.parental for s in dataset.train]),
                  valid_x,
                  np.array([s.sentence_label for s in dataset.valid]),
                  config)
    return model.history[model.best_epoch - 1]


@needs_data
def test_acceptance_12_ngram_baseline_accuracy(real_dataset):
    with criterion(12, "n-gram baseline reaches reference-level validation "
                       "accuracy"):
        def features(dataset):
            vocab = fit_tfidf(dataset.train, min_df=2)
            return (tfidf_rows(vocab, [s.tokens for s in dataset.train]),
                    tfidf_rows(vocab, [s.tokens for s in dataset.valid]))

        start = time.monotonic()
        best = _real_run(real_dataset, features)
        assert best["val_topk"] >= 0.87
        assert best["val_top1"] >= 0.62
        assert time.monotonic() - start < 15 * 60


@needs_data
@pytest.mark.skipif(not EMBEDDINGS_PATH, reason="set OUV_EMBEDDINGS to run")
def test_acceptance_13_boe_baseline_accuracy(real_dataset):
    with criterion(13, "bag-of-embeddings baseline (frozen vectors) reaches "
                       "the top-3 bound"):
        def features(dataset):
            featurizer = build_featurizer(ExperimentConfig(
                baseline="boe", embeddings_path=EMBEDDINGS_PATH), dataset)
            return (featurizer.transform(dataset.train),
                    featurizer.transform(dataset.valid))

        best = _real_run(real_dataset, features)
        assert best["val_topk"] >= 0.87
