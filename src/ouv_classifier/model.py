"""Two-layer perceptron with manual backpropagation and Adam.

Trains against soft labels with cross-entropy, inverted dropout on the
hidden layer, L2 regularization folded into the gradients, and early
stopping on validation top-k accuracy. Everything is seeded and
deterministic.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import NUM_CLASSES, atomic_open, input_error, json_fields, json_keys
from .corpus import criterion_columns
from .labels import SmoothingConfig, soft_targets
from .metrics import check_k, topk_accuracy

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_EPS = 1e-12
# float64 values per slice of a blocked pass: Adam's six slices (param,
# gradient, m, v and two work buffers) stay in a core's L2 cache
_BLOCK = 1 << 15
# the commands that write checkpoints and their featurizers
WRITERS = "`ouvclf final` or `ouvclf train`"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class MlpParams:
    W1: np.ndarray  # input x hidden, C-contiguous, in memory and on disk
    b1: np.ndarray  # hidden
    W2: np.ndarray  # 11 x hidden
    b2: np.ndarray  # 11

    def arrays(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 200
    batch_size: int = 128
    learning_rate: float = 2e-4
    l2: float = 1e-5
    dropout: float = 0.5
    max_epochs: int = 100
    patience: int = 5
    seed: int = 1337
    k: int = 3
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)

    def __post_init__(self):
        if not isinstance(self.smoothing, SmoothingConfig):
            raise ValueError("smoothing must be a SmoothingConfig, got "
                             f"{type(self.smoothing).__name__}")
        for key, low in (("patience", 1), ("batch_size", 1),
                         ("max_epochs", 1), ("hidden", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, "
                                 f"got {getattr(self, key)!r}")
        for key in ("learning_rate", "l2"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and >= 0, "
                                 f"got {getattr(self, key)!r}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        check_k(self.k)


@dataclass
class TrainedModel:
    params: MlpParams
    featurizer_ref: str
    config: TrainConfig
    best_epoch: int
    history: list[dict]


def init_params(input_dim: int, hidden: int, seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (input_dim + hidden))
    lim2 = np.sqrt(6.0 / (hidden + NUM_CLASSES))
    return MlpParams(
        W1=np.ascontiguousarray(
            rng.uniform(-lim1, lim1, size=(hidden, input_dim)).T),
        b1=np.zeros(hidden),
        W2=rng.uniform(-lim2, lim2, size=(NUM_CLASSES, hidden)),
        b2=np.zeros(NUM_CLASSES),
    )


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def forward(params: MlpParams, x, dropout_mask: np.ndarray | None = None):
    """Forward pass over a 2-D batch (dense or CSR rows).

    Returns (logits, probabilities, cache). The dropout mask, when given,
    is an inverted-dropout multiplier for the hidden activations.
    """
    if getattr(x, "ndim", None) != 2:
        raise ValueError("expected a 2-D batch of feature rows, got "
                         f"{np.ndim(x)}-D input")
    if x.shape[1] != params.W1.shape[0]:
        raise ValueError(
            f"input dim {x.shape[1]} != expected {params.W1.shape[0]}")
    h = np.asarray(x @ params.W1)
    h += params.b1
    np.maximum(h, 0.0, out=h)
    if dropout_mask is not None:
        h *= dropout_mask
    logits = h @ params.W2.T + params.b2
    probs = _softmax_rows(logits)
    cache = {"x": x, "h": h, "mask": dropout_mask}
    return logits, probs, cache


def cross_entropy_soft(probabilities: np.ndarray,
                       target: np.ndarray) -> float:
    """-sum_t target_t * ln(prob_t + eps), averaged over batch rows."""
    losses = -(target * np.log(probabilities + LOG_EPS)).sum(axis=1)
    return float(losses.mean())


def backward(cache: dict, probs: np.ndarray, targets: np.ndarray,
             params: MlpParams, l2: float) -> MlpParams:
    """Gradients of mean cross-entropy plus (l2/2)*||params||^2."""
    batch = probs.shape[0]
    dlogits = (probs - targets) / batch
    h, x, mask = cache["h"], cache["x"], cache["mask"]
    dW2 = dlogits.T @ h + l2 * params.W2
    db2 = dlogits.sum(axis=0) + l2 * params.b2
    dh = dlogits @ params.W2
    if mask is not None:
        dh = dh * mask
    # ``h > 0`` differs from ``z1 > 0`` only where the mask is 0; there
    # ``dh`` is already +-0, and a factor of 0 or 1 keeps it, sign and all
    dz1 = dh * (h > 0)
    dW1 = np.asarray(x.T @ dz1)
    decay = np.empty(min(_BLOCK, dW1.size))
    for d, w in _blocks(dW1, params.W1):
        np.add(d, np.multiply(w, l2, out=decay[:w.size]), out=d)
    db1 = dz1.sum(axis=0) + l2 * params.b1
    return MlpParams(W1=dW1, b1=db1, W2=dW2, b2=db2)


def _blocks(*arrays: np.ndarray):
    """Matching flat slices of ``_BLOCK`` values of same-size C-contiguous
    arrays. The slices are views, so writing one writes its array; any
    other layout is a ``ValueError``, because its flat form is a copy and
    an in-place update of it would be lost."""
    for a in arrays:
        if not a.flags.c_contiguous:
            raise ValueError(f"blocked pass needs C-contiguous arrays, got "
                             f"shape {a.shape} with strides {a.strides}")
    flat = [a.ravel() for a in arrays]
    for start in range(0, flat[0].size, _BLOCK):
        yield [f[start:start + _BLOCK] for f in flat]


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    # two one-block work buffers, shared by the params, so a step
    # allocates nothing
    scratch: tuple[np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        arrays = params.arrays()
        size = min(_BLOCK, max(a.size for a in arrays.values()))
        return cls(m={k: np.zeros_like(a) for k, a in arrays.items()},
                   v={k: np.zeros_like(a) for k, a in arrays.items()},
                   scratch=(np.empty(size), np.empty(size)))


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState,
              learning_rate: float) -> None:
    """In-place Adam update with the canonical constants.

    Evaluates, in this order, block by block and with no temporaries,
    m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
    p -= (lr * (m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps).
    """
    state.t += 1
    t = state.t
    grad_arrays = grads.arrays()
    for key, param in params.arrays().items():
        for p, g, m, v in _blocks(param, grad_arrays[key], state.m[key],
                                  state.v[key]):
            step = state.scratch[0][:p.size]
            denom = state.scratch[1][:p.size]
            np.multiply(m, ADAM_BETA1, out=m)
            np.multiply(g, 1 - ADAM_BETA1, out=step)
            np.add(m, step, out=m)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(g, 1 - ADAM_BETA2, out=step)
            np.multiply(step, g, out=step)
            np.add(v, step, out=v)
            np.divide(m, 1 - ADAM_BETA1 ** t, out=step)
            np.multiply(step, learning_rate, out=step)
            np.divide(v, 1 - ADAM_BETA2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, ADAM_EPS, out=denom)
            np.divide(step, denom, out=step)
            np.subtract(p, step, out=p)


def train(train_x, train_labels: np.ndarray, train_parentals: np.ndarray,
          valid_x, valid_labels: np.ndarray, config: TrainConfig,
          mu: np.ndarray | None = None) -> TrainedModel:
    """Minibatch training with early stopping on validation top-k.

    ``train_x``/``valid_x`` are feature matrices (dense or CSR);
    ``train_labels``/``valid_labels`` are the splits' sentence labels, as
    criterion ids 1-10.
    """
    n = train_x.shape[0]
    if n == 0 or valid_x.shape[0] == 0:
        raise ValueError("train and valid splits must be non-empty")
    criterion_columns(valid_labels)  # a bad id fails before the first epoch
    targets = soft_targets(train_labels, train_parentals, mu,
                           config.smoothing)
    rng = np.random.default_rng(config.seed)
    params = init_params(train_x.shape[1], config.hidden, config.seed)
    state = AdamState.for_params(params)
    keep = 1.0 - config.dropout

    best_topk = -1.0
    best_epoch = 0
    # epoch 1 always improves on -1.0 and fills it
    best_params = MlpParams(**{key: np.empty_like(array)
                               for key, array in params.arrays().items()})
    history: list[dict] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = train_x[idx]
            yb = targets[idx]
            mask = None
            if config.dropout > 0:
                mask = (rng.random((len(idx), config.hidden)) < keep) / keep
            _, probs, cache = forward(params, xb, dropout_mask=mask)
            loss = cross_entropy_soft(probs, yb)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            epoch_loss += loss * len(idx)
            # no name holds the gradients, so one step's are freed before
            # the next step's are built
            adam_step(params, backward(cache, probs, yb, params, config.l2),
                      state, config.learning_rate)
        epoch_loss /= n

        _, val_probs, _ = forward(params, valid_x)
        rankings = rank_classes(val_probs)
        val_top1 = topk_accuracy(rankings, valid_labels, 1)
        val_topk = topk_accuracy(rankings, valid_labels, config.k)
        history.append({"epoch": epoch, "train_loss": epoch_loss,
                        "val_top1": val_top1, "val_topk": val_topk})

        if val_topk > best_topk:
            best_topk = val_topk
            best_epoch = epoch
            for best, now in zip(best_params.arrays().values(),
                                 params.arrays().values()):
                np.copyto(best, now)
        elif epoch - best_epoch >= config.patience:
            break

    return TrainedModel(params=best_params, featurizer_ref="",
                        config=config, best_epoch=best_epoch, history=history)


def predict_proba(model: TrainedModel, x) -> np.ndarray:
    _, probs, _ = forward(model.params, x)
    return probs


def rank_classes(probs: np.ndarray) -> np.ndarray:
    """Full per-sample class rankings (1-based ids), ties to lower index."""
    order = np.argsort(-probs, axis=1, kind="stable")
    return order + 1


def top_classes(probs: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` columns of ``rank_classes`` and their probabilities,
    both ``rows x k``."""
    ids = rank_classes(probs)[:, :k]
    return ids, np.take_along_axis(probs, ids - 1, axis=1)


# ---------------------------------------------------------------------------
# Checkpoints

def write_arrays(path, head: str, arrays: list[np.ndarray]) -> None:
    """Write the one stored form of a file of float arrays, atomically:
    the JSON text ``head``, which holds each array's shape in its place,
    then a line break (``json.dumps`` writes none), then the little-endian
    float64 bytes of each of ``arrays`` in C order, in the order of their
    shapes in ``head``."""
    with atomic_open(path, "wb") as fh:
        fh.write(head.encode() + b"\n")
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f8"))


def read_arrays(path, shapes_of,
                rebuild: str = WRITERS) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of ``write_arrays``: the head of the file at ``path`` and
    its arrays, named and shaped by ``shapes_of(head)``, a dict in body
    order whose errors name the file themselves. Each array is read with
    one ``np.fromfile``, so it is writable and C-contiguous. A head that
    is not a line of UTF-8 JSON (a file of the earlier one-object form
    says to rebuild it with ``rebuild``, the commands that write it), a
    shape that is not a list of integers >= 0, or a body of another size
    than the shapes give is a ``ValueError`` naming the file."""
    with open(path, "rb") as fh:
        with input_error(path):
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise ValueError("no line break ends the head, as in a file "
                                 "of an earlier version; rebuild it with "
                                 + rebuild)
            head = json.loads(line.decode("utf-8"))
        shapes = shapes_of(head)
        with input_error(path):
            for name, shape in shapes.items():
                if not (isinstance(shape, list)
                        and all(type(n) is int and n >= 0 for n in shape)):
                    raise ValueError(f"{name!r} has shape {shape!r}, not a "
                                     "list of integers >= 0")
            size = os.fstat(fh.fileno()).st_size - len(line)
            counts = [math.prod(shape) for shape in shapes.values()]
            if size != 8 * sum(counts):
                raise ValueError(f"the body holds {size} bytes, but the "
                                 f"shapes {list(shapes.values())} need "
                                 f"{8 * sum(counts)}")
            arrays = {name: np.fromfile(fh, "<f8", count).reshape(shape)
                      for (name, shape), count in zip(shapes.items(),
                                                       counts)}
    return head, arrays


def save_checkpoint(model: TrainedModel, path: str | Path) -> None:
    """Write the model through ``write_arrays``: a head of its best epoch,
    config, featurizer reference, history and param shapes, with sorted
    keys and no spaces, then the params in key order (``W1``, ``W2``,
    ``b1``, ``b2``). ``W1`` is stored input x hidden, its in-memory
    layout."""
    params = dict(sorted(model.params.arrays().items()))
    head = {"best_epoch": model.best_epoch, "config": asdict(model.config),
            "featurizer_ref": model.featurizer_ref, "history": model.history,
            "params": {key: list(a.shape) for key, a in params.items()}}
    write_arrays(path, json.dumps(head, sort_keys=True, separators=(",", ":")),
                 list(params.values()))


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Read a file written by ``save_checkpoint``. A file that
    ``read_arrays`` refuses, without one of the head's keys, with one of
    the wrong JSON type or one ``TrainedModel`` has no field for, with a
    ``config`` that ``json_fields`` or ``TrainConfig`` rejects, or with
    params other than ``W1``, ``b1``, ``W2`` and ``b2`` of agreeing shapes
    is a ``ValueError`` naming it."""
    def param_shapes(head):
        json_keys(path, head, best_epoch=0, config={}, featurizer_ref="",
                  history=[{}], params={})
        json_fields(path, "", head, TrainedModel)
        shapes = json_fields(path, "params", head["params"], MlpParams)
        if len(shapes) != len(MlpParams.__dataclass_fields__):
            raise ValueError(f"{path}: params hold {sorted(shapes)}, "
                             "expected 'W1', 'W2', 'b1' and 'b2'")
        return shapes

    head, arrays = read_arrays(path, param_shapes)
    cfg = json_fields(path, "config", head["config"], TrainConfig)
    with input_error(path, "'config': {}"):
        config = TrainConfig(**cfg)
    w1 = arrays["W1"]
    if w1.ndim != 2 or [arrays[k].shape for k in ("b1", "W2", "b2")] != [
            (w1.shape[1],), (NUM_CLASSES, w1.shape[1]), (NUM_CLASSES,)]:
        shapes = ", ".join(f"{k} {list(a.shape)}"
                           for k, a in sorted(arrays.items()))
        raise ValueError(f"{path}: param shapes {shapes} do not agree; "
                         "expected W1 [input, hidden], W2 "
                         f"[{NUM_CLASSES}, hidden], b1 [hidden], "
                         f"b2 [{NUM_CLASSES}]")
    return TrainedModel(
        params=MlpParams(**arrays),
        featurizer_ref=head["featurizer_ref"],
        config=config,
        best_epoch=head["best_epoch"],
        history=head["history"],
    )
