import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from ouv_classifier import NUM_CLASSES, model as model_module
from ouv_classifier.features import fit_tfidf, tfidf_rows
from ouv_classifier.labels import SmoothingConfig
from ouv_classifier.metrics import evaluate_split
from ouv_classifier.model import (AdamState, MlpParams, TrainConfig,
                                  TrainingDiverged, adam_step, backward,
                                  cross_entropy_soft, forward,
                                  init_params, load_checkpoint,
                                  predict_proba, rank_classes, read_arrays,
                                  save_checkpoint, soft_targets,
                                  top_classes, train,
                                  TrainedModel, write_arrays)
from conftest import edit_head, make_one_hot, make_separable_dataset


def random_params(input_dim, hidden, seed=0):
    rng = np.random.default_rng(seed)
    return MlpParams(
        # drawn hidden x input, stored input x hidden
        W1=rng.normal(size=(hidden, input_dim)).T.copy() * 0.5,
        b1=rng.normal(size=hidden) * 0.1,
        W2=rng.normal(size=(NUM_CLASSES, hidden)) * 0.5,
        b2=rng.normal(size=NUM_CLASSES) * 0.1,
    )


class TestForward:
    def test_zero_params_uniform(self):
        params = MlpParams(W1=np.zeros((6, 4)), b1=np.zeros(4),
                           W2=np.zeros((NUM_CLASSES, 4)),
                           b2=np.zeros(NUM_CLASSES))
        _, probs, _ = forward(params, np.ones(6)[None])
        np.testing.assert_allclose(probs, 1 / NUM_CLASSES)

    def test_dominant_logit(self):
        params = MlpParams(W1=np.eye(3), b1=np.zeros(3),
                           W2=np.zeros((NUM_CLASSES, 3)),
                           b2=np.zeros(NUM_CLASSES))
        params.W2[4, 0] = 10.0
        _, probs, _ = forward(params, np.array([1.0, 0, 0])[None])
        assert int(np.argmax(probs)) == 4

    def test_against_scalar_recomputation(self):
        params = random_params(5, 4, seed=3)
        x = np.random.default_rng(4).normal(size=5)
        _, (probs,), _ = forward(params, x[None])
        # plain-loop re-evaluation
        hidden = [max(0.0, sum(params.W1[j, i] * x[j] for j in range(5))
                      + params.b1[i]) for i in range(4)]
        logits = [sum(params.W2[t, i] * hidden[i] for i in range(4))
                  + params.b2[t] for t in range(NUM_CLASSES)]
        exps = [math.exp(v) for v in logits]
        expected = [e / sum(exps) for e in exps]
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        params = random_params(5, 4)
        with pytest.raises(ValueError):
            forward(params, np.zeros(6)[None])

    def test_single_vector_rejected(self):
        params = random_params(5, 4)
        with pytest.raises(ValueError, match="2-D"):
            forward(params, np.zeros(5))

    def test_probabilities_sum_to_one(self):
        params = random_params(5, 4)
        _, probs, _ = forward(params, np.random.default_rng(0).normal(size=(7, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestCrossEntropy:
    def test_spike_near_zero(self):
        target = make_one_hot(2)
        probs = target * (1 - 1e-9) + 1e-10
        assert cross_entropy_soft(probs[None], target) < 1e-6

    def test_uniform_gives_log_classes(self):
        probs = np.full(NUM_CLASSES, 1 / NUM_CLASSES)
        target = make_one_hot(5)
        assert cross_entropy_soft(probs[None], target) == pytest.approx(
            math.log(NUM_CLASSES), abs=1e-9)

    def test_scalar_recomputation(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(NUM_CLASSES))
        target = rng.dirichlet(np.ones(NUM_CLASSES))
        expected = -sum(t * math.log(p + 1e-12)
                        for t, p in zip(target, probs))
        assert cross_entropy_soft(probs[None], target) == pytest.approx(
            expected, abs=1e-12)


def numerical_gradients(params, x, target, l2, step=1e-5):
    grads = {}
    for key, arr in params.arrays().items():
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            plus = _loss(params, x, target, l2)
            arr[idx] = orig - step
            minus = _loss(params, x, target, l2)
            arr[idx] = orig
            grad[idx] = (plus - minus) / (2 * step)
            it.iternext()
        grads[key] = grad
    return grads


def _loss(params, x, target, l2):
    _, probs, _ = forward(params, x[None])
    ce = cross_entropy_soft(probs, target)
    reg = 0.5 * l2 * sum(float((a * a).sum())
                         for a in params.arrays().values())
    return ce + reg


def relative_error(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


class TestBackward:
    def test_target_equals_probs_leaves_only_l2(self):
        params = random_params(4, 3, seed=5)
        x = np.random.default_rng(6).normal(size=4)
        _, probs, cache = forward(params, x[None])
        l2 = 0.01
        grads = backward(cache, probs, probs.copy(), params, l2)
        for key, arr in params.arrays().items():
            np.testing.assert_allclose(grads.arrays()[key], l2 * arr,
                                       atol=1e-12)

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_finite_differences(self, l2):
        rng = np.random.default_rng(11)
        for _ in range(5):
            params = random_params(5, 4, seed=int(rng.integers(1e6)))
            x = rng.normal(size=5)
            target = rng.dirichlet(np.ones(NUM_CLASSES))
            _, probs, cache = forward(params, x[None])
            analytic = backward(cache, probs, target, params, l2)
            numeric = numerical_gradients(params, x, target, l2)
            for key in numeric:
                assert relative_error(analytic.arrays()[key],
                                      numeric[key]) < 1e-4

    def test_l2_linearity(self):
        params = random_params(4, 3, seed=7)
        x = np.random.default_rng(8).normal(size=4)
        target = make_one_hot(3)
        _, probs, cache = forward(params, x[None])
        g1 = backward(cache, probs, target, params, 0.01)
        g0 = backward(cache, probs, target, params, 0.0)
        g2 = backward(cache, probs, target, params, 0.02)
        for key in ("W1", "W2"):
            decay1 = g1.arrays()[key] - g0.arrays()[key]
            decay2 = g2.arrays()[key] - g0.arrays()[key]
            np.testing.assert_allclose(decay2, 2 * decay1, atol=1e-12)


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = random_params(3, 2, seed=9)
        before = {k: a.copy() for k, a in params.arrays().items()}
        zero = MlpParams(**{k: np.zeros_like(a)
                            for k, a in params.arrays().items()})
        state = AdamState.for_params(params)
        for _ in range(10):
            adam_step(params, zero, state, 0.1)
        for key, arr in params.arrays().items():
            np.testing.assert_array_equal(arr, before[key])

    def test_first_step_magnitude(self):
        params = random_params(3, 2, seed=10)
        before = {k: a.copy() for k, a in params.arrays().items()}
        grads = MlpParams(**{k: np.full_like(a, 0.3)
                             for k, a in params.arrays().items()})
        state = AdamState.for_params(params)
        adam_step(params, grads, state, 0.05)
        for key, arr in params.arrays().items():
            step = before[key] - arr
            np.testing.assert_allclose(step, 0.05, rtol=1e-6)

    def test_three_step_trajectory_matches_scalar_adam(self):
        # scalar quadratic loss 0.5 * w^2, gradient w
        w = np.array([[2.0]])
        params = MlpParams(W1=w, b1=np.zeros(1),
                           W2=np.zeros((NUM_CLASSES, 1)),
                           b2=np.zeros(NUM_CLASSES))
        state = AdamState.for_params(params)
        ref_w, m, v = 2.0, 0.0, 0.0
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            g = ref_w
            grads = MlpParams(W1=np.array([[g]]), b1=np.zeros(1),
                              W2=np.zeros((NUM_CLASSES, 1)),
                              b2=np.zeros(NUM_CLASSES))
            adam_step(params, grads, state, lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            ref_w -= lr * m_hat / (math.sqrt(v_hat) + eps)
            # model gradient is evaluated at the reference point too
            params.W1[0, 0] = params.W1[0, 0] if True else 0
            assert params.W1[0, 0] == pytest.approx(ref_w, abs=1e-12)
            params.W1[0, 0] = ref_w  # keep trajectories aligned

    def test_matches_unfused_expression_bitwise(self):
        assert_adam_matches_unfused_reference(random_params(37, 9, seed=22),
                                              seed=21)


def unfused_adam_step(p, g, m, v, t, lr):
    """Adam over whole arrays, one expression per line."""
    m = 0.9 * m + (1 - 0.9) * g
    v = 0.999 * v + (1 - 0.999) * g * g
    m_hat = m / (1 - 0.9 ** t)
    v_hat = v / (1 - 0.999 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


def assert_adam_matches_unfused_reference(params, seed):
    rng = np.random.default_rng(seed)
    state = AdamState.for_params(params)
    ref = {k: (a.copy(), np.zeros_like(a), np.zeros_like(a))
           for k, a in params.arrays().items()}
    for t in range(1, 8):
        grads = MlpParams(**{k: rng.normal(size=a.shape) * 10.0 ** -t
                             for k, a in params.arrays().items()})
        lr = float(rng.uniform(1e-4, 1e-1))
        adam_step(params, grads, state, lr)
        for key, (p, m, v) in ref.items():
            ref[key] = unfused_adam_step(p, grads.arrays()[key], m, v, t, lr)
            np.testing.assert_array_equal(params.arrays()[key], ref[key][0])
            np.testing.assert_array_equal(state.m[key], ref[key][1])
            np.testing.assert_array_equal(state.v[key], ref[key][2])


def csr_batch(rows, input_dim, seed):
    """A TF-IDF-like CSR batch with about 5% non-zeros."""
    rng = np.random.default_rng(seed)
    return sparse.random(rows, input_dim, density=0.05, format="csr",
                         random_state=rng, data_rvs=rng.random)


def full_array_dW1(cache, probs, targets, params, l2):
    """``backward``'s dW1 with the l2 term added over the whole array, and
    the ReLU's gradient taken where the pre-activation ``z1`` is positive."""
    z1 = np.asarray(cache["x"] @ params.W1 + params.b1)
    dh = ((probs - targets) / len(probs)) @ params.W2
    if cache["mask"] is not None:
        dh = dh * cache["mask"]
    return np.asarray(cache["x"].T @ (dh * (z1 > 0))) + l2 * params.W1


def dropout_mask(dropout, shape, seed):
    """An inverted-dropout mask as ``train`` draws it, or None."""
    if not dropout:
        return None
    keep = 1.0 - dropout
    return (np.random.default_rng(seed).random(shape) < keep) / keep


class TestBlockedPasses:
    """The blocked passes against full-array expressions. Blocks of 7
    values give every array interior blocks and a ragged last block."""

    @pytest.fixture(autouse=True)
    def seven_value_blocks(self, monkeypatch):
        monkeypatch.setattr(model_module, "_BLOCK", 7)

    def test_blocks_are_matching_views(self):
        a, b = np.arange(30.0).reshape(5, 6), np.zeros((6, 5))
        blocks = list(model_module._blocks(a, b))
        assert [len(x) for x, _ in blocks] == [7, 7, 7, 7, 2]
        for x, y in blocks:
            y += x
        np.testing.assert_array_equal(b.reshape(-1), a.reshape(-1))

    def test_adam_step_equals_unfused_reference(self):
        params = random_params(37, 9, seed=23)
        assert all(a.size > 7 and a.size % 7
                   for a in params.arrays().values())
        assert_adam_matches_unfused_reference(params, seed=24)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_backward_equals_full_array_reference(self, dense, l2):
        params = random_params(40, 9, seed=25)
        x = csr_batch(16, 40, seed=26)
        x = x.toarray() if dense else x
        target = np.random.default_rng(28).dirichlet(np.ones(NUM_CLASSES),
                                                     size=16)
        for dropout in (0.5, 0.0):
            mask = dropout_mask(dropout, (16, 9), seed=27)
            _, probs, cache = forward(params, x, dropout_mask=mask)
            grads = backward(cache, probs, target, params, l2)
            assert grads.W1.flags.c_contiguous
            np.testing.assert_array_equal(
                grads.W1, full_array_dW1(cache, probs, target, params, l2))

    def test_f_ordered_param_raises_and_is_not_updated(self):
        params = random_params(37, 9, seed=29)
        params.W1 = np.asfortranarray(params.W1)
        before = params.W1.copy()
        grads = MlpParams(**{k: np.ones_like(a)
                             for k, a in params.arrays().items()})
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_step(params, grads, state, 0.1)
        np.testing.assert_array_equal(params.W1, before)
        _, probs, cache = forward(params, np.ones((2, 37)))
        with pytest.raises(ValueError, match="C-contiguous"):
            backward(cache, probs, probs, params, 1e-3)


class TestLayoutParity:
    """``W1`` stored input x hidden gives the bits the hidden x input
    layout gave: in the forward pass on a CSR batch, and in ``backward``,
    whose ReLU gradient is gated by ``h > 0`` where it was gated by the
    pre-activation ``z1 > 0``, on CSR and dense batches, with and without
    dropout."""

    def test_forward_z1(self):
        params = random_params(300, 50, seed=30)
        old_W1 = np.ascontiguousarray(params.W1.T)
        x = csr_batch(64, 300, seed=31)
        z1 = np.asarray(x @ old_W1.T + params.b1)
        for dropout in (0.0, 0.5):
            mask = dropout_mask(dropout, (64, 50), seed=37)
            _, _, cache = forward(params, x, dropout_mask=mask)
            h = np.maximum(z1, 0.0)
            if mask is not None:
                h = h * mask
            np.testing.assert_array_equal(cache["h"], h)

    @pytest.mark.parametrize("l2", [0.0, 1e-5])
    def test_backward_dW1(self, l2):
        params = random_params(300, 50, seed=32)
        old_W1 = np.ascontiguousarray(params.W1.T)
        target = np.random.default_rng(34).dirichlet(np.ones(NUM_CLASSES),
                                                     size=128)
        for dense, dropout in itertools.product((False, True), (0.0, 0.5)):
            x = csr_batch(128, 300, seed=33)
            x = x.toarray() if dense else x
            mask = dropout_mask(dropout, (128, 50), seed=38)
            _, probs, cache = forward(params, x, dropout_mask=mask)
            z1 = np.asarray(x @ params.W1 + params.b1)
            dh = ((probs - target) / 128) @ params.W2
            if mask is not None:
                dh = dh * mask
            old_dW1 = np.asarray((x.T @ (dh * (z1 > 0))).T) + l2 * old_W1
            grads = backward(cache, probs, target, params, l2)
            np.testing.assert_array_equal(grads.W1.T, old_dW1)

    def test_init_params_is_the_transposed_old_draw(self):
        params = init_params(300, 50, seed=35)
        rng = np.random.default_rng(35)
        old_W1 = rng.uniform(-np.sqrt(6 / 350), np.sqrt(6 / 350),
                             size=(50, 300))
        old_W2 = rng.uniform(-np.sqrt(6 / 61), np.sqrt(6 / 61),
                             size=(NUM_CLASSES, 50))
        assert params.W1.shape == (300, 50) and params.W1.flags.c_contiguous
        np.testing.assert_array_equal(params.W1, old_W1.T)
        np.testing.assert_array_equal(params.W2, old_W2)

    def test_save_load_save_keeps_the_bytes(self, tmp_path):
        model = TrainedModel(params=random_params(300, 50, seed=36),
                             featurizer_ref="f.json", config=quick_config(),
                             best_epoch=1, history=[{"epoch": 1}])
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, first)
        loaded = load_checkpoint(first)
        assert loaded.params.W1.flags.c_contiguous
        np.testing.assert_array_equal(loaded.params.W1, model.params.W1)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_forward_builds_one_hidden_array_in_place(dense, dropout):
    """The hidden layer is ``x @ W1``, then ``+ b1``, ReLU and the mask in
    place: the bits of the out-of-place expression, and the cache holds
    only what ``backward`` reads."""
    params = random_params(300, 50, seed=39)
    x = csr_batch(64, 300, seed=40)
    x = x.toarray() if dense else x
    mask = dropout_mask(dropout, (64, 50), seed=41)
    logits, _, cache = forward(params, x, dropout_mask=mask)
    h = np.maximum(np.asarray(x @ params.W1 + params.b1), 0.0)
    if mask is not None:
        h = h * mask
    assert cache.keys() == {"x", "h", "mask"}
    np.testing.assert_array_equal(cache["h"], h)
    np.testing.assert_array_equal(logits, h @ params.W2.T + params.b2)


@pytest.mark.parametrize("dense", [False, True])
def test_predict_proba_holds_one_hidden_array(dense):
    """Inference on n rows peaks near one n x hidden array, not two."""
    n, hidden = 2000, 200
    model = TrainedModel(params=random_params(300, hidden, seed=42),
                         featurizer_ref="", config=quick_config(),
                         best_epoch=1, history=[])
    x = csr_batch(n, 300, seed=43)
    x = x.toarray() if dense else x
    tracemalloc.start()
    try:
        predict_proba(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = n * hidden * 8
    assert peak < 1.5 * size, f"peak {peak / size:.2f}x one hidden array"


def featurized(dataset):
    vocab = fit_tfidf(dataset.train, min_df=1)
    return (vocab,
            tfidf_rows(vocab, [s.tokens for s in dataset.train]),
            np.array([s.sentence_label for s in dataset.train]),
            np.stack([s.parental for s in dataset.train]),
            tfidf_rows(vocab, [s.tokens for s in dataset.valid]),
            np.array([s.sentence_label for s in dataset.valid]))


def quick_config(**overrides):
    defaults = dict(hidden=32, batch_size=32, learning_rate=0.01,
                    l2=0.0, dropout=0.1, max_epochs=20, patience=5,
                    seed=1337, k=3)
    defaults.update(overrides)
    return TrainConfig(**defaults)


# trains one dense TrainConfig (300-d input, hidden 200, 3 epochs) and
# prints the SHA-256 of its parameter bytes
DENSE_TRAINING = """
import hashlib
import numpy as np
from ouv_classifier import NUM_CLASSES, NUM_CRITERIA
from ouv_classifier.model import TrainConfig, train
rng = np.random.default_rng(5)
labels = rng.integers(0, NUM_CRITERIA, size=600)
x = rng.normal(size=(600, 300)) + np.eye(NUM_CLASSES, 300)[labels]
one_hots = np.eye(NUM_CLASSES)[labels]
ids = labels + 1  # criterion ids 1-10: Others is never a sentence label
model = train(x[:500], ids[:500], one_hots[:500], x[500:], ids[500:],
              TrainConfig(hidden=200, max_epochs=3, seed=3))
digest = hashlib.sha256()
for array in model.params.arrays().values():
    digest.update(np.ascontiguousarray(array).tobytes())
print(digest.hexdigest())
"""


class TestTrain:
    def test_separable_corpus_reaches_full_accuracy(self, toy_dataset):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        model = train(tx, tl, par, vx, vl, quick_config())
        best = model.history[model.best_epoch - 1]
        assert best["val_top1"] == 1.0

    def test_determinism(self, toy_dataset):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        config = quick_config(max_epochs=5)
        a = train(tx, tl, par, vx, vl, config)
        b = train(tx, tl, par, vx, vl, config)
        assert a.history == b.history
        for key in a.params.arrays():
            np.testing.assert_array_equal(a.params.arrays()[key],
                                          b.params.arrays()[key])

    def test_blas_thread_count_does_not_change_the_bits(self):
        """One dense training, in a process whose BLAS runs 1 thread and
        in one whose BLAS runs 2, gives the same parameter bits. OpenBLAS
        reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads it."""
        path = os.pathsep.join(filter(None, [
            str(Path(model_module.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", DENSE_TRAINING], capture_output=True,
                text=True, timeout=120, env={
                    **os.environ, "PYTHONPATH": path,
                    "OPENBLAS_NUM_THREADS": threads})
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout)
        assert len(digests[0]) == 65
        assert digests[0] == digests[1]

    def test_zero_learning_rate_stops_after_patience(self, toy_dataset):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        config = quick_config(learning_rate=0.0, patience=1, max_epochs=50,
                              dropout=0.0)
        model = train(tx, tl, par, vx, vl, config)
        assert len(model.history) == 2  # epoch 1 sets the best, epoch 2 stops

    @pytest.mark.parametrize("scores, epochs, best_epoch", [
        ([.1, .1, .2, .2, .2, .3, .3], 5, 3),  # the count restarts at 3
        ([.1, .2, .2, .2, .3, .3], 4, 2),  # a tie is not an improvement
    ], ids=["restart", "tie"])
    def test_patience_counts_from_the_best_epoch(
            self, toy_dataset, monkeypatch, scores, epochs, best_epoch):
        """With patience 2, training stops at the second epoch after the
        best one, whatever came before it; ``scores`` are the validation
        top-3 rates of the epochs."""
        scripted = iter(scores)
        monkeypatch.setattr(model_module, "topk_accuracy",
                            lambda rankings, labels, k:
                            next(scripted) if k == 3 else 0.0)
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        model = train(tx, tl, par, vx, vl,
                      quick_config(patience=2, max_epochs=len(scores)))
        assert [row["val_topk"] for row in model.history] == scores[:epochs]
        assert model.best_epoch == best_epoch

    @pytest.mark.parametrize("empty", ["train", "valid"])
    def test_an_empty_split_is_refused(self, toy_dataset, empty):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        if empty == "train":
            tx, tl, par = tx[:0], tl[:0], par[:0]
        else:
            vx, vl = vx[:0], vl[:0]
        with pytest.raises(ValueError, match=(
                "^train and valid splits must be non-empty$")):
            train(tx, tl, par, vx, vl, quick_config())

    @pytest.mark.parametrize("label", [0, NUM_CLASSES])
    def test_a_label_outside_one_to_ten_is_refused(self, toy_dataset, label):
        """A 0-based label or the Others id trains no class as another."""
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        tl = tl.copy()
        tl[5] = label
        with pytest.raises(ValueError, match=f"out of range: {label}$"):
            train(tx, tl, par, vx, vl, quick_config())

    @pytest.mark.parametrize("label", [0, NUM_CLASSES])
    def test_a_valid_label_outside_one_to_ten_is_refused_before_training(
            self, toy_dataset, monkeypatch, label):
        """Validation labels select the best epoch, so a 0-based label or
        the Others id, which would count every Others prediction as a hit,
        is refused before the first Adam step."""
        _, tx, tl, par, vx, _ = featurized(toy_dataset)
        steps = []
        monkeypatch.setattr(model_module, "adam_step",
                            lambda *args: steps.append(args))
        with pytest.raises(ValueError, match=f"out of range: {label}$"):
            train(tx, tl, par, vx[:20], np.full(20, label), quick_config())
        assert steps == []

    def test_best_epoch_is_argmax_of_history(self, toy_dataset):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        model = train(tx, tl, par, vx, vl, quick_config())
        topks = [h["val_topk"] for h in model.history]
        assert model.history[model.best_epoch - 1]["val_topk"] == max(topks)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, toy_dataset):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        bad = tx.toarray()
        bad[0, 0] = np.inf  # poisoned feature forces a non-finite loss
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(bad, tl, par, vx, vl, quick_config(max_epochs=5))

    def test_history_scores_equal_evaluate_split(self, toy_dataset,
                                                 monkeypatch):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        rankings = []

        def recording_rank_classes(probs):
            rankings.append(rank_classes(probs))
            return rankings[-1]

        monkeypatch.setattr(model_module, "rank_classes",
                            recording_rank_classes)
        model = train(tx, tl, par, vx, vl,
                      quick_config(learning_rate=1e-3, max_epochs=4,
                                   patience=4, k=2))
        assert len(rankings) == len(model.history) == 4
        truths = vl.tolist()
        for entry, ranks in zip(model.history, rankings):
            for ids, ts in ((ranks.tolist(), truths), (ranks, vl)):
                report = evaluate_split(ids, ts, k=2)
                assert entry["val_top1"] == report.top1_accuracy
                assert entry["val_topk"] == report.topk_accuracy

    def test_history_rates_are_python_floats(self, toy_dataset):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        model = train(tx, tl, par, vx, vl,
                      quick_config(max_epochs=3, patience=3))
        assert len(model.history) == 3
        assert all(type(entry[key]) is float for entry in model.history
                   for key in ("val_top1", "val_topk"))

    @pytest.mark.parametrize("k", [0, -1, NUM_CLASSES + 1])
    def test_k_outside_one_to_eleven_is_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be in 1..11, got {k}"):
            quick_config(k=k)

    @pytest.mark.parametrize("smoothing, kind", [
        ({"variant": "prior", "alpha": 0.1}, "dict"), (None, "NoneType"),
        (("vanilla", 0.1), "tuple")])
    def test_smoothing_that_is_not_a_smoothing_config_is_rejected(
            self, smoothing, kind):
        """A dict, the form a config file holds, would reach
        ``soft_targets`` and fail there, after featurizing."""
        message = f"smoothing must be a SmoothingConfig, got {kind}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            quick_config(smoothing=smoothing)

    def test_loss_non_increasing_small_lr(self, toy_dataset):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        config = quick_config(learning_rate=1e-3, dropout=0.0,
                              max_epochs=10, patience=10)
        model = train(tx, tl, par, vx, vl, config)
        losses = [h["train_loss"] for h in model.history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_gradient_check_with_all_smoothing_variants(self):
        rng = np.random.default_rng(21)
        mu = np.hstack([rng.uniform(0.05, 1, size=(10, 10)),
                        np.ones((10, 1))])
        configs = [SmoothingConfig(), SmoothingConfig("vanilla", 0.1),
                   SmoothingConfig("uniform", 0.2),
                   SmoothingConfig("prior", 0.5)]
        for smoothing in configs:
            label = int(rng.integers(1, 11))
            parental = make_one_hot(label)
            parental[int(rng.integers(0, 10))] = 1.0
            parental[10] = 0.2
            target = soft_targets(np.array([label]), parental[None], mu,
                                  smoothing)[0]
            params = random_params(6, 5, seed=int(rng.integers(1e6)))
            x = rng.normal(size=6)
            _, probs, cache = forward(params, x[None])
            analytic = backward(cache, probs, target, params, 0.0)
            numeric = numerical_gradients(params, x, target, 0.0)
            for key in numeric:
                assert relative_error(analytic.arrays()[key],
                                      numeric[key]) < 1e-4


class TestPredictTopk:
    def make_model(self, toy_dataset):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        return train(tx, tl, par, vx, vl, quick_config(max_epochs=3))

    def test_tie_break_prefers_lower_class(self):
        params = MlpParams(W1=np.zeros((3, 2)), b1=np.zeros(2),
                           W2=np.zeros((NUM_CLASSES, 2)),
                           b2=np.zeros(NUM_CLASSES))
        from ouv_classifier.model import TrainedModel
        model = TrainedModel(params=params, featurizer_ref="",
                             config=quick_config(), best_epoch=1, history=[])
        ids, confs = top_classes(predict_proba(model, np.zeros((1, 3))),
                                 NUM_CLASSES)
        ranked = list(zip(ids[0].tolist(), confs[0].tolist()))
        assert [cls for cls, _ in ranked] == list(range(1, NUM_CLASSES + 1))

    def test_full_ranking_sums_to_one(self, toy_dataset):
        model = self.make_model(toy_dataset)
        vocab, *_ = featurized(toy_dataset)
        x = tfidf_rows(vocab, [toy_dataset.valid[0].tokens])
        ids, confs = top_classes(predict_proba(model, x), NUM_CLASSES)
        ranked = list(zip(ids[0].tolist(), confs[0].tolist()))
        assert sum(conf for _, conf in ranked) == pytest.approx(1.0)
        confs = [conf for _, conf in ranked]
        assert confs == sorted(confs, reverse=True)


class TestCheckpoint:
    def test_round_trip_and_byte_identity(self, toy_dataset, tmp_path):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        config = quick_config(max_epochs=3)
        model = train(tx, tl, par, vx, vl, config)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1)
        model2 = train(tx, tl, par, vx, vl, config)
        save_checkpoint(model2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_checkpoint(p1)
        assert loaded.best_epoch == model.best_epoch
        assert loaded.config == model.config
        for key in model.params.arrays():
            np.testing.assert_array_equal(loaded.params.arrays()[key],
                                          model.params.arrays()[key])

    def test_round_trip_keeps_negative_zero_and_subnormals(self, tmp_path):
        """The largest magnitudes too; an inf or a NaN is refused on load
        (``test_a_non_finite_param_names_the_file``)."""
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        params = random_params(5, 3, seed=30)
        params.W1[:, 0] = [-0.0, 0.0, 5e-324, -tiny / 3, tiny]
        params.W1[:2, 1] = [huge, -huge]
        params.b2[:3] = [-0.0, -tiny, -5e-324]
        model = TrainedModel(params=params, featurizer_ref="f.json",
                             config=quick_config(), best_epoch=1,
                             history=[{"epoch": 1}])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for key, arr in params.arrays().items():
            got = loaded.params.arrays()[key]
            assert got.shape == arr.shape and got.dtype == np.float64
            assert got.flags.c_contiguous and got.flags.writeable
            np.testing.assert_array_equal(got.view(np.uint64),
                                          arr.view(np.uint64))
        assert np.signbit(loaded.params.W1[0, 0])
        assert loaded.params.W1[0, 1] == 1.7976931348623157e308
        loaded.params.W1 += 1.0  # loaded arrays are writeable

    def test_params_are_raw_float64_le(self, tmp_path):
        """``W1`` is stored input x hidden, its in-memory layout: its
        little-endian float64 bytes in C order open the body, and the value
        at ``W1[1, 0]`` follows a whole row of 3 hidden values."""
        params = random_params(4, 3, seed=31)
        model = TrainedModel(params=params, featurizer_ref="",
                             config=quick_config(), best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        head, body = path.read_bytes().split(b"\n", 1)
        assert json.loads(head)["params"]["W1"] == [4, 3]
        assert body.startswith(params.W1.astype("<f8").tobytes(order="C"))
        assert np.frombuffer(body, "<f8", 1, 8 * 3)[0] == params.W1[1, 0]

    @pytest.mark.parametrize("hidden", [1, 45, 1 << 15])
    def test_file_is_json_dumps_of_the_stored_form(self, tmp_path, hidden):
        """The stored form: one JSON head line with each param's shape,
        ``W1`` input x hidden, then each param's little-endian float64
        bytes in C order: ``W1``, ``W2``, ``b1``, ``b2``. ``W1``'s rows
        hold 1, 45 or 32768 values, so its body is a few bytes or several
        MB."""
        params = random_params(7, hidden, seed=33)
        model = TrainedModel(params=params, featurizer_ref="f.json",
                             config=quick_config(), best_epoch=2,
                             history=[{"epoch": 1, "val_top1": 0.5}])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        head = {"best_epoch": 2, "config": dataclasses.asdict(model.config),
                "featurizer_ref": "f.json", "history": model.history,
                "params": {"W1": [7, hidden], "W2": [11, hidden],
                           "b1": [hidden], "b2": [11]}}
        data = path.read_bytes()
        assert data == b"".join([
            json.dumps(head, sort_keys=True, separators=(",", ":")).encode(),
            b"\n", *(a.astype("<f8").tobytes(order="C") for a in (
                params.W1, params.W2, params.b1, params.b2))])
        assert data.startswith(b'{"best_epoch":2,"config":{"batch_size":')
        assert data[data.index(b'"params"'):data.index(b"\n") + 1] == (
            f'"params":{{"W1":[7,{hidden}],"W2":[11,{hidden}],'
            f'"b1":[{hidden}],"b2":[11]}}}}\n').encode()

    @pytest.mark.parametrize("data", ["AAAA", "not base64!", "AAAAé",
                                      [0.0] * 12])
    def test_bad_param_data_raises_value_error(self, tmp_path, data):
        """A body replaced by bytes too few for the params: text, or
        ``W1``'s 12 values alone."""
        model = TrainedModel(params=random_params(4, 3, seed=32),
                             featurizer_ref="", config=quick_config(),
                             best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        head = path.read_bytes().split(b"\n", 1)[0]
        body = (data.encode() if isinstance(data, str)
                else np.array(data).astype("<f8").tobytes())
        path.write_bytes(head + b"\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                           "the body holds .* bytes, but the shapes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [-1, 1], ids=["byte-short",
                                                  "byte-over"])
    def test_a_body_a_byte_short_or_over_is_named(self, tmp_path, cut):
        model = TrainedModel(params=random_params(4, 3, seed=32),
                             featurizer_ref="", config=quick_config(),
                             best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
        size = 8 * (12 + 3 + 33 + 11) + cut
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: the body holds {size} bytes, but "
                r"the shapes \[\[4, 3\], \[11, 3\], \[3\], \[11\]\] "
                "need 472$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
    def test_a_non_finite_param_names_the_file(self, tmp_path, name, value):
        """Training never writes one (a non-finite loss raises
        ``TrainingDiverged``), so a param with an inf or NaN is a damaged
        file, not one to rank with."""
        params = random_params(4, 3, seed=32)
        getattr(params, name).flat[-1] = value
        path = tmp_path / "m.json"
        save_checkpoint(TrainedModel(params=params, featurizer_ref="",
                                     config=quick_config(), best_epoch=1,
                                     history=[]), path)
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: '{name}' holds a non-finite "
                "value$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("head", [b"{not json", b'{"best_epoch":\xff}',
                                      b""], ids=["not-json", "not-utf8",
                                                 "empty"])
    def test_a_head_that_is_not_json_is_named(self, tmp_path, head):
        model = TrainedModel(params=random_params(4, 3, seed=32),
                             featurizer_ref="", config=quick_config(),
                             best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        body = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(head + b"\n" + body)
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_a_file_of_the_earlier_form_says_to_rebuild_it(self, tmp_path):
        """A checkpoint as written before raw bodies: one JSON object, each
        param base64 in ``{"data", "shape"}``, ``W1`` hidden x input."""
        path = tmp_path / "model_ls.json"
        path.write_text(
            '{"best_epoch":1,"config":{"batch_size":128,"dropout":0.5,'
            '"hidden":1,"k":3,"l2":1e-05,"learning_rate":0.0002,'
            '"max_epochs":100,"patience":5,"seed":1337,"smoothing":'
            '{"alpha":0.0,"variant":"none"}},"featurizer_ref":'
            '"featurizer.json","history":[],"params":{"W1":{"data":'
            '"AAAAAAAA4D8=","shape":[1,1]},"W2":{"data":"' + "A" * 118
            + '==","shape":[11,1]},"b1":{"data":"AAAAAAAAAAA=","shape":[1]},'
            '"b2":{"data":"' + "A" * 118 + '==","shape":[11]}}}')
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: no line break ends the head, as "
                "in a file of an earlier version; rebuild it with "
                "`ouvclf final` or `ouvclf train`$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [
        [1.0, 2.0], {"data": "AAAAAAAAAAA="}, {"shape": [1]},
        {"data": "AAAAAAAAAAA=", "shape": 1}, None, "1", [True], [-1],
        [1, None]])
    def test_read_arrays_rejects_a_malformed_shape(self, tmp_path, shape):
        """The earlier stored form's ``{"data", "shape"}`` included."""
        path = tmp_path / "f.json"
        write_arrays(path, json.dumps({"idf": shape}), [])
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: 'idf' has shape .*, not a list "
                "of integers >= 0$")):
            read_arrays(path, lambda head: {"idf": head["idf"]})

    def test_a_load_allocates_the_params_about_once(self, tmp_path):
        """About 1 MB of params: a load's traced peak stays below 1.25x
        their bytes, so no text, decoded copy or transpose of them is
        held beside them."""
        params = random_params(2500, 50, seed=35)
        model = TrainedModel(params=params, featurizer_ref="f.json",
                             config=quick_config(), best_epoch=1,
                             history=[{"epoch": 1, "val_top1": 0.5}])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        size = sum(a.nbytes for a in params.arrays().values())
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.params.W1.shape == (2500, 50)
        assert peak < 1.25 * size, f"peak {peak / size:.2f}x the params"

    def test_non_checkpoint_file_names_file_and_key(self, tmp_path):
        path = tmp_path / "featurizer.json"
        path.write_text(json.dumps({"type": "ngram", "grams": [],
                                    "idf": [0]}) + "\n")
        with pytest.raises(ValueError, match="'config'") as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)
        path.write_text("[]\n")
        with pytest.raises(ValueError, match="'params'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda p: p["params"].pop("b2"),
         r"params hold \['W1', 'W2', 'b1'\], expected"),
        (lambda p: p["params"].update(W3=p["params"]["W2"]),
         "unknown key\\(s\\) 'params.W3'"),
        (lambda p: p["config"].update(smoothing=5),
         "config.smoothing is int, not a JSON object"),
        (lambda p: p["config"].update(hiden=3),
         "unknown key\\(s\\) 'config.hiden'"),
        (lambda p: p["params"].update(W2=[3, NUM_CLASSES]),
         r"W2 \[3, 11\].* do not agree"),
        (lambda p: p["params"].update(W1=[3, 4]),
         r"W1 \[3, 4\].* do not agree; expected W1 \[input, hidden\]"),
        (lambda p: p["config"].update(hidden="x"),
         "key 'config.hidden' is str, expected int"),
        (lambda p: p["config"].update(k=[3]),
         "key 'config.k' is list, expected int"),
        (lambda p: p["config"].update(learning_rate=True),
         "key 'config.learning_rate' is bool, expected float or int"),
        (lambda p: p["config"]["smoothing"].update(variant="priorr"),
         "config.smoothing: unknown smoothing variant 'priorr'"),
        (lambda p: p.update(best_epoch="one"),
         "key 'best_epoch' is str, expected int"),
        (lambda p: p.update(history=5), "key 'history' is int, expected list"),
        (lambda p: p.update(history=[5]), r"key 'history\[0\]' is int"),
        (lambda p: p.update(featurizer_ref=5),
         "key 'featurizer_ref' is int, expected str"),
        (lambda p: p["config"].update(learning_rate=math.nan),
         "'config': learning_rate must be finite and >= 0, got nan"),
        (lambda p: p["config"].update(l2=-1e-5),
         "'config': l2 must be finite and >= 0, got -1e-05"),
        (lambda p: p["config"]["smoothing"].update(alpha=math.inf),
         "config.smoothing: alpha must be finite, got inf"),
        (lambda p: p["config"]["smoothing"].update(alpha=708.0),
         r"config.smoothing: alpha must be at most 707.2396724209746 \(above "
         r"it a row's sum overflows\), got 708.0"),
        (lambda p: p["params"].update(b2=[11.0]),
         r"'b2' has shape \[11.0\], not a list of integers >= 0"),
        (lambda p: p["params"].update(b2=[True, 11]),
         r"'b2' has shape \[True, 11\], not a list of integers >= 0"),
        (lambda p: p["params"].update(W2=[-11, -4]),
         r"'W2' has shape \[-11, -4\], not a list of integers >= 0"),
        (lambda p: p["config"].update(learning_rate=10 ** 400),
         "key 'config.learning_rate' is an integer too large for a float"),
        (lambda p: p.update(learning_rate=1),
         "unknown key\\(s\\) 'learning_rate'$"),
    ], ids=["missing-b2", "extra-param", "smoothing-not-object",
            "unknown-config-key", "W2-hidden-mismatch", "W1-transposed",
            "hidden-str",
            "k-list", "learning-rate-bool", "variant-typo", "best-epoch-str",
            "history-int", "history-item-int", "featurizer-ref-int",
            "nan-learning-rate", "negative-l2", "infinite-alpha", "huge-alpha",
            "float-shape", "bool-shape", "negative-shape", "huge-learning-rate",
            "unknown-head-key"])
    def test_malformed_checkpoint_names_file_and_fault(self, tmp_path, edit,
                                                       match):
        model = TrainedModel(params=random_params(4, 3, seed=34),
                             featurizer_ref="", config=quick_config(),
                             best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        edit_head(path, edit)
        with pytest.raises(ValueError, match=match) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_failed_save_keeps_old_file(self, tmp_path):
        model = TrainedModel(params=random_params(4, 3, seed=33),
                             featurizer_ref="", config=quick_config(),
                             best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        before = path.read_bytes()
        # fails after the other keys and W1, W2, b1 are in the temp file
        model.params.b2 = np.array([object()] * NUM_CLASSES)
        with pytest.raises(TypeError):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_checkpoint_is_json(self, toy_dataset, tmp_path):
        _, tx, tl, par, vx, vl = featurized(toy_dataset)
        model = train(tx, tl, par, vx, vl, quick_config(max_epochs=2))
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        # the head line is JSON: the model's keys, with the param shapes
        payload = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert set(payload) == {"config", "featurizer_ref", "best_epoch",
                                "history", "params"}


def test_evaluation_has_no_dropout(toy_dataset):
    _, tx, tl, par, vx, vl = featurized(toy_dataset)
    model = train(tx, tl, par, vx, vl, quick_config(max_epochs=2))
    _, p1, _ = forward(model.params, vx)
    _, p2, _ = forward(model.params, vx)
    np.testing.assert_array_equal(p1, p2)
