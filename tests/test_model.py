import base64
import json
import math

import numpy as np
import pytest
from scipy import sparse

from ouv_classifier import NUM_CLASSES, model as model_module
from ouv_classifier.corpus import make_one_hot
from ouv_classifier.features import fit_tfidf, tfidf_rows
from ouv_classifier.labels import SmoothingConfig
from ouv_classifier.metrics import evaluate_split
from ouv_classifier.model import (AdamState, MlpParams, TrainConfig,
                                  TrainingDiverged, adam_step, backward,
                                  cross_entropy_soft, decode_array,
                                  encode_array,
                                  forward,
                                  init_params, load_checkpoint,
                                  predict_proba, rank_classes,
                                  save_checkpoint, soft_targets,
                                  top_classes, train,
                                  TrainedModel)
from conftest import make_separable_dataset


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
    """``backward``'s dW1 with the l2 term added over the whole array."""
    dh = ((probs - targets) / len(probs)) @ params.W2
    if cache["mask"] is not None:
        dh = dh * cache["mask"]
    return np.asarray(cache["x"].T @ (dh * (cache["z1"] > 0))) \
        + l2 * params.W1


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
        mask = (np.random.default_rng(27).random((16, 9)) < 0.5) / 0.5
        target = np.random.default_rng(28).dirichlet(np.ones(NUM_CLASSES),
                                                     size=16)
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
    layout gave, on a CSR batch."""

    def test_forward_z1(self):
        params = random_params(300, 50, seed=30)
        old_W1 = np.ascontiguousarray(params.W1.T)
        x = csr_batch(64, 300, seed=31)
        _, _, cache = forward(params, x)
        np.testing.assert_array_equal(
            cache["z1"], np.asarray(x @ old_W1.T + params.b1))

    @pytest.mark.parametrize("l2", [0.0, 1e-5])
    def test_backward_dW1(self, l2):
        params = random_params(300, 50, seed=32)
        old_W1 = np.ascontiguousarray(params.W1.T)
        x = csr_batch(128, 300, seed=33)
        target = np.random.default_rng(34).dirichlet(np.ones(NUM_CLASSES),
                                                     size=128)
        _, probs, cache = forward(params, x)
        dz1 = (((probs - target) / 128) @ params.W2) * (cache["z1"] > 0)
        old_dW1 = np.asarray((x.T @ dz1).T) + l2 * old_W1
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


def featurized(dataset):
    vocab = fit_tfidf(dataset.train, min_df=1)
    return (vocab,
            tfidf_rows(vocab, [s.tokens for s in dataset.train]),
            np.stack([s.one_hot for s in dataset.train]),
            np.stack([s.parental for s in dataset.train]),
            tfidf_rows(vocab, [s.tokens for s in dataset.valid]),
            np.array([s.sentence_label - 1 for s in dataset.valid]))


def quick_config(**overrides):
    defaults = dict(hidden=32, batch_size=32, learning_rate=0.01,
                    l2=0.0, dropout=0.1, max_epochs=20, patience=5,
                    seed=1337, k=3)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrain:
    def test_separable_corpus_reaches_full_accuracy(self, toy_dataset):
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        model = train(tx, oh, par, vx, vl, quick_config())
        best = model.history[model.best_epoch - 1]
        assert best["val_top1"] == 1.0

    def test_determinism(self, toy_dataset):
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        config = quick_config(max_epochs=5)
        a = train(tx, oh, par, vx, vl, config)
        b = train(tx, oh, par, vx, vl, config)
        assert a.history == b.history
        for key in a.params.arrays():
            np.testing.assert_array_equal(a.params.arrays()[key],
                                          b.params.arrays()[key])

    def test_zero_learning_rate_stops_after_patience(self, toy_dataset):
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        config = quick_config(learning_rate=0.0, patience=1, max_epochs=50,
                              dropout=0.0)
        model = train(tx, oh, par, vx, vl, config)
        assert len(model.history) == 2  # epoch 1 sets the best, epoch 2 stops

    def test_best_epoch_is_argmax_of_history(self, toy_dataset):
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        model = train(tx, oh, par, vx, vl, quick_config())
        topks = [h["val_topk"] for h in model.history]
        assert model.history[model.best_epoch - 1]["val_topk"] == max(topks)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, toy_dataset):
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        bad = tx.toarray()
        bad[0, 0] = np.inf  # poisoned feature forces a non-finite loss
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(bad, oh, par, vx, vl, quick_config(max_epochs=5))

    def test_history_scores_equal_evaluate_split(self, toy_dataset,
                                                 monkeypatch):
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        rankings = []

        def recording_rank_classes(probs):
            rankings.append(rank_classes(probs))
            return rankings[-1]

        monkeypatch.setattr(model_module, "rank_classes",
                            recording_rank_classes)
        model = train(tx, oh, par, vx, vl,
                      quick_config(learning_rate=1e-3, max_epochs=4,
                                   patience=4, k=2))
        assert len(rankings) == len(model.history) == 4
        truths = (vl + 1).tolist()
        for entry, ranks in zip(model.history, rankings):
            for ids, ts in ((ranks.tolist(), truths), (ranks, vl + 1)):
                report = evaluate_split(ids, ts, k=2)
                assert entry["val_top1"] == report.top1_accuracy
                assert entry["val_topk"] == report.topk_accuracy

    def test_history_rates_are_python_floats(self, toy_dataset):
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        model = train(tx, oh, par, vx, vl,
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
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        config = quick_config(learning_rate=1e-3, dropout=0.0,
                              max_epochs=10, patience=10)
        model = train(tx, oh, par, vx, vl, config)
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
            one_hot = make_one_hot(int(rng.integers(1, 11)))
            parental = one_hot.copy()
            parental[int(rng.integers(0, 10))] = 1.0
            parental[10] = 0.2
            target = soft_targets(one_hot[None], parental[None], mu,
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
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        return train(tx, oh, par, vx, vl, quick_config(max_epochs=3))

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
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        config = quick_config(max_epochs=3)
        model = train(tx, oh, par, vx, vl, config)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1)
        model2 = train(tx, oh, par, vx, vl, config)
        save_checkpoint(model2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_checkpoint(p1)
        assert loaded.best_epoch == model.best_epoch
        assert loaded.config == model.config
        for key in model.params.arrays():
            np.testing.assert_array_equal(loaded.params.arrays()[key],
                                          model.params.arrays()[key])

    def test_round_trip_keeps_negative_zero_and_subnormals(self, tmp_path):
        tiny = np.finfo(float).tiny
        params = random_params(5, 3, seed=30)
        params.W1[:, 0] = [-0.0, 0.0, 5e-324, -tiny / 3, np.inf]
        params.b2[:3] = [np.nan, -np.inf, -5e-324]
        model = TrainedModel(params=params, featurizer_ref="f.json",
                             config=quick_config(), best_epoch=1,
                             history=[{"epoch": 1}])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for key, arr in params.arrays().items():
            got = loaded.params.arrays()[key]
            assert got.shape == arr.shape and got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64),
                                          arr.view(np.uint64))
        assert np.signbit(loaded.params.W1[0, 0])
        loaded.params.W1 += 1.0  # loaded arrays are writeable

    def test_params_are_base64_float64_le(self, tmp_path):
        params = random_params(4, 3, seed=31)
        model = TrainedModel(params=params, featurizer_ref="",
                             config=quick_config(), best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))
        spec = json.loads(text)["params"]["W1"]
        assert spec["shape"] == [3, 4]  # hidden x input on disk
        assert base64.b64decode(spec["data"]) == \
            params.W1.T.astype("<f8").tobytes(order="C")

    @pytest.mark.parametrize("data", ["AAAA", "not base64!", "AAAAé",
                                      [0.0] * 12])
    def test_bad_param_data_raises_value_error(self, tmp_path, data):
        model = TrainedModel(params=random_params(4, 3, seed=32),
                             featurizer_ref="", config=quick_config(),
                             best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        payload = json.loads(path.read_text())
        payload["params"]["W1"]["data"] = data
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="W1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec", [
        [1.0, 2.0], {"data": "AAAAAAAAAAA="}, {"shape": [1]},
        {"data": "AAAAAAAAAAA=", "shape": 1}, None])
    def test_decode_array_rejects_a_malformed_spec(self, spec):
        with pytest.raises(ValueError, match="^'idf': not"):
            decode_array("'idf'", spec)

    def test_non_checkpoint_file_names_file_and_key(self, tmp_path):
        path = tmp_path / "featurizer.json"
        path.write_text(json.dumps({"type": "ngram", "grams": [],
                                    "idf": [], "min_df": 1}))
        with pytest.raises(ValueError, match="'config'") as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)
        path.write_text("[]")
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
        (lambda p: p["params"].update(
            W2=encode_array(np.zeros((NUM_CLASSES, 4)))),
         r"W2 \[11, 4\].* do not agree"),
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
    ], ids=["missing-b2", "extra-param", "smoothing-not-object",
            "unknown-config-key", "W2-hidden-mismatch", "hidden-str",
            "k-list", "learning-rate-bool", "variant-typo", "best-epoch-str",
            "history-int", "history-item-int", "featurizer-ref-int",
            "nan-learning-rate", "negative-l2", "infinite-alpha"])
    def test_malformed_checkpoint_names_file_and_fault(self, tmp_path, edit,
                                                       match):
        model = TrainedModel(params=random_params(4, 3, seed=34),
                             featurizer_ref="", config=quick_config(),
                             best_epoch=1, history=[])
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
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
        _, tx, oh, par, vx, vl = featurized(toy_dataset)
        model = train(tx, oh, par, vx, vl, quick_config(max_epochs=2))
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"config", "featurizer_ref", "best_epoch",
                                "history", "params"}


def test_evaluation_has_no_dropout(toy_dataset):
    _, tx, oh, par, vx, vl = featurized(toy_dataset)
    model = train(tx, oh, par, vx, vl, quick_config(max_epochs=2))
    _, p1, _ = forward(model.params, vx)
    _, p2, _ = forward(model.params, vx)
    np.testing.assert_array_equal(p1, p2)
