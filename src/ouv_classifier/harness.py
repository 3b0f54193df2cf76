"""Experiment orchestration: grid search, label-smoothing sweep, final
training/evaluation, corpus mining, and report rendering."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import multiprocessing
import os
import re
import shutil
import tempfile
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import (atomic_open, check_json_type, input_error, json_fields,
               read_json)
from .corpus import Dataset, Sample, preprocess_many, read_sites
from .features import (EmbeddingTable, TfidfVocabulary, boe_rows, fit_tfidf,
                       load_embeddings, tfidf_rows)
from .labels import (ALPHA_GRID, VARIANTS, SmoothingConfig, cooccurrence,
                     prior_weights)
from .metrics import (EvalReport, MatchReport, evaluate_matches,
                      evaluate_split)
from .model import (TrainConfig, TrainedModel, TrainingDiverged,
                    load_checkpoint, predict_proba, rank_classes, read_arrays,
                    save_checkpoint, top_classes, train, write_arrays)

DEFAULT_SEEDS = (0, 1, 2, 42, 100, 233, 1024, 1337, 2333, 4399)
GRID_SEED = 1337
# the sweep's variants, in its tie-break order
VARIANT_ORDER = tuple(v for v in VARIANTS if v != "none")
SETTING_KEYS = ("hidden", "batch_size", "learning_rate", "l2", "dropout")
# each step's artifact -> its path under ``output_dir`` and the keys its
# readers need, as ``read_json`` defaults
STEP_ARTIFACTS = {
    "grid": ("step1_grid/log.json", {"best": {}}),
    "sweep": ("step2_sweep/sweep.json", {"setting": {}, "cells": [{}],
                                         "chosen_variant": "",
                                         "chosen_alpha": 0.0}),
    "final": ("step3_final/final.json", {"baseline": "", "setting": {},
                                         "seed": 0, "rows": {}}),
}
# input lines read, preprocessed, featurized and scored per step of
# ``mine``'s one loop; bounds its text, tokens and features on large inputs
_MINE_BLOCK = 4096


@dataclass
class ExperimentConfig:
    baseline: str = "ngram"
    grid: dict[str, list] = field(default_factory=lambda: {
        "hidden": [50, 100, 150, 200],
        "batch_size": [64, 128, 256],
        "l2": [0.0, 1e-5, 1e-4],
        "dropout": [0.1, 0.2, 0.5],
    })
    learning_rate: float = TrainConfig.learning_rate
    seeds: list[int] = field(default_factory=lambda: list(DEFAULT_SEEDS))
    alpha_grid: list[float] = field(default_factory=lambda: list(ALPHA_GRID))
    variants: list[str] = field(default_factory=lambda: list(VARIANT_ORDER))
    grid_seed: int = GRID_SEED
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    k: int = TrainConfig.k
    min_df: int = 2
    dataset_dir: str = ""
    embeddings_path: str = ""
    output_dir: str = "runs"
    # the one model ``ouvclf train`` fits
    setting: dict = field(default_factory=dict)
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)

    def __post_init__(self):
        """Reject, before any step runs, a value some step would reject:
        the featurizer's ``baseline``, ``embeddings_path`` and ``min_df``;
        ``train_config`` builds each grid value, ``setting`` with
        ``smoothing``, and each seed; a sweep list that is empty or repeats
        a value names its field."""
        if self.baseline not in ("ngram", "boe"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if self.baseline == "boe" and not self.embeddings_path:
            raise ValueError("BoE baseline requires embeddings_path")
        if self.min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {self.min_df!r}")
        if not self.grid or not all(self.grid.values()):
            raise ValueError("grid must be non-empty")
        for setting in [self.setting, *({key: value} for key in self.grid
                                        for value in self.grid[key])]:
            self.train_config(setting, self.smoothing, 0)
        for key, seed in [("grid_seed", self.grid_seed),
                          *(("seeds", seed) for seed in self.seeds)]:
            try:
                self.train_config({}, SmoothingConfig(), seed)
            except ValueError as exc:  # name the seed's field
                raise ValueError(f"{key}: {exc}") from exc
        if len(self.seeds) < 2:
            raise ValueError("the sweep requires at least two seeds")
        for variant in self.variants:
            if variant not in VARIANT_ORDER:
                raise ValueError(f"unknown variant {variant!r}")
        for alpha in self.alpha_grid:
            try:
                SmoothingConfig(alpha=alpha)
            except ValueError as exc:  # name the alpha's field
                raise ValueError(f"alpha_grid: {exc}") from exc
        for key in ("seeds", "variants", "alpha_grid"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must be non-empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{key}: {value!r} is repeated")

    def train_config(self, setting: dict, smoothing: SmoothingConfig,
                     seed: int) -> TrainConfig:
        """The ``TrainConfig`` of one training: this run's ``learning_rate``,
        ``max_epochs``, ``patience`` and ``k``, then ``setting`` and ``seed``,
        each coerced to its field's type. A key not in ``SETTING_KEYS`` or an
        integer field's value that is not whole (16.5, inf, nan) is a
        ``ValueError`` naming it; ``TrainConfig`` checks the rest."""
        values = {"learning_rate": float(self.learning_rate), "k": self.k,
                  "max_epochs": self.max_epochs, "patience": self.patience}
        for key in setting:
            if key not in SETTING_KEYS:
                raise ValueError(f"unknown setting key {key!r}; expected "
                                 "one of " + ", ".join(SETTING_KEYS))
        for key, value in [*setting.items(), ("seed", seed)]:
            kind = type(getattr(TrainConfig, key))
            if (kind is int and type(value) is not int
                    and not float(value).is_integer()):
                raise ValueError(f"setting {key!r} must be an integer, "
                                 f"got {value!r}")
            values[key] = kind(value)
        return TrainConfig(smoothing=smoothing, **values)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        """Load a config file through ``json_fields`` (``smoothing`` is
        built as a ``SmoothingConfig``; setting and grid values are
        numbers), so a typo is a ``ValueError`` naming it, not a default."""
        payload = json_fields(path, "", read_json(path), cls)
        for key, value in payload.get("setting", {}).items():
            check_json_type(path, f"setting.{key}", value, 0.0)
        for key, values in payload.get("grid", {}).items():
            check_json_type(path, f"grid.{key}", values, [0.0])
        return cls(**payload)


def load_prior(config: ExperimentConfig) -> np.ndarray:
    """The 10 x 11 prior weights of ``dataset_dir/sites.json``: the ``mu``
    that ``ouvclf prior`` writes for the same dataset."""
    sites = read_sites(Path(config.dataset_dir) / "sites.json")
    return prior_weights(cooccurrence(sites))


def write_artifact(output_dir: str | Path, step: str, payload: dict) -> None:
    path = Path(output_dir, STEP_ARTIFACTS[step][0])
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=1)


def read_artifact(output_dir: str | Path, step: str) -> dict:
    rel, keys = STEP_ARTIFACTS[step]
    return read_json(Path(output_dir, rel), **keys)


def read_run(output_dir: str | Path, final: bool = False) -> list[dict]:
    """The grid and sweep artifacts of one run, and with ``final`` its final
    artifact: a ``sweep.json`` or ``final.json`` whose ``setting`` is not
    ``log.json``'s best is a ``ValueError`` naming both files, as a rerun of
    ``ouvclf sweep`` leaves them; so is a ``sweep.json`` whose chosen
    variant is not one the sweep tries, or whose chosen alpha
    ``SmoothingConfig`` refuses."""
    steps = ("grid", "sweep", "final") if final else ("grid", "sweep")
    grid, *rest = (read_artifact(output_dir, step) for step in steps)
    best = setting_of(grid["best"])
    variant, alpha = rest[0]["chosen_variant"], rest[0]["chosen_alpha"]
    try:
        if variant not in VARIANT_ORDER:
            raise ValueError(f"unknown chosen_variant {variant!r}")
        SmoothingConfig(variant, alpha)
    except ValueError as exc:
        sweep_path = Path(output_dir, STEP_ARTIFACTS["sweep"][0])
        raise ValueError(f"{sweep_path}: {exc}") from exc
    for step, artifact in zip(steps[1:], rest):
        if artifact["setting"] != best:
            grid_path, path = (Path(output_dir, STEP_ARTIFACTS[name][0])
                               for name in ("grid", step))
            raise ValueError(f"{path} holds setting {artifact['setting']} "
                             f"but {grid_path} holds best setting {best}: "
                             f"they come from different runs; rerun "
                             f"`ouvclf {step}`")
    return [grid, *rest]


# ---------------------------------------------------------------------------
# Featurizers

# the featurizer file of each kind: its names key, listing the rows in
# order, its array key and the array's rank
_FILE_FORM = {"ngram": ("grams", "idf", 1), "boe": ("tokens", "vectors", 2)}
_TWO_SPACES = re.compile(" [^ ]* ")
_OTHER_VERSION = ("not a featurizer file of this version ({}); rebuild it "
                  "with `ouvclf final` or `ouvclf train`")


@dataclass
class Featurizer:
    """Uniform front for the n-gram and bag-of-embeddings featurizers."""
    kind: str  # "ngram" | "boe"
    vocab: TfidfVocabulary | None = None
    table: EmbeddingTable | None = None

    @property
    def dimension(self) -> int:
        return self.vocab.size if self.kind == "ngram" else self.table.dimension

    def transform_token_lists(self, token_lists: list[list[str]]):
        """One feature row per token list: CSR for n-gram, dense for BoE."""
        if self.kind == "ngram":
            return tfidf_rows(self.vocab, token_lists)
        return boe_rows(self.table, token_lists)

    def transform(self, samples: list[Sample]):
        return self.transform_token_lists([s.tokens for s in samples])

    def save(self, path: str | Path) -> None:
        """Write the one featurizer file through ``write_arrays``: a head of
        ``_FILE_FORM``'s keys, as ``json.dumps(head, ensure_ascii=False)``
        gives it, with the type, the names in row order (the grams in index
        order, or the tokens) and the array's shape, then the array
        (``idf``, or ``vectors``)."""
        names_key, key, _ = _FILE_FORM[self.kind]
        index, array = ((self.vocab.gram_to_index, self.vocab.idf)
                        if self.kind == "ngram"
                        else (self.table.token_to_row, self.table.vectors))
        head = {"type": self.kind, names_key: sorted(index, key=index.get),
                key: list(array.shape)}
        write_arrays(path, json.dumps(head, ensure_ascii=False), [array])

    @classmethod
    def load(cls, path: str | Path) -> "Featurizer":
        """Read a file written by ``save``; other keys are ignored. Any
        other file is a ``ValueError`` naming it: one that ``read_arrays``
        refuses, names that are not a list of strings, a repeated name, a
        gram of more than one space, or a BoE file with no ``"<unk>"``
        token."""
        def array_shape(head):
            with input_error(path, _OTHER_VERSION):
                kind = head["type"]
                if kind not in _FILE_FORM:
                    raise ValueError(f"unknown type {kind!r}")
                key = _FILE_FORM[kind][1]
                return {key: head[key]}

        head, arrays = read_arrays(path, array_shape)
        with input_error(path, _OTHER_VERSION):
            kind = head["type"]
            names_key, key, ndim = _FILE_FORM[kind]
            names = head[names_key]
            if not isinstance(names, list):
                raise ValueError(f"{names_key!r} is not a list")
            "".join(names)  # a TypeError unless each name is a str
            array = arrays[key]
            if array.ndim != ndim or len(array) != len(names):
                raise ValueError(f"{len(names)} {names_key} but {key!r} has "
                                 f"shape {list(array.shape)}")
            index = {name: row for row, name in enumerate(names)}
            if len(index) != len(names):
                repeated = next(name for row, name in enumerate(names)
                                if index[name] != row)
                raise ValueError(f"{names_key[:-1]} {repeated!r} is repeated")
            if kind == "ngram":
                spaced = next(filter(_TWO_SPACES.search, names), None)
                if spaced is not None:
                    raise ValueError(f"gram {spaced!r} holds more than one "
                                     "space")
                return cls(kind, vocab=TfidfVocabulary(index, array))
            if "<unk>" not in index:
                raise ValueError("no '<unk>' token")
            return cls(kind, table=EmbeddingTable(index, array))


def build_featurizer(config: ExperimentConfig, dataset: Dataset) -> Featurizer:
    if config.baseline == "ngram":
        return Featurizer(kind="ngram",
                          vocab=fit_tfidf(dataset.train, config.min_df))
    # a token of any split, SD included, keeps its vector
    tokens = {token for name in ("train", "valid", "test", "sd")
              for sample in dataset.split(name) for token in sample.tokens}
    return Featurizer(kind="boe",
                      table=load_embeddings(config.embeddings_path, tokens))


@dataclass
class FeaturizedData:
    train_x: object
    train_one_hots: np.ndarray
    train_parentals: np.ndarray
    valid_x: object
    valid_labels: np.ndarray


def featurize(featurizer: Featurizer, dataset: Dataset) -> FeaturizedData:
    """The training inputs of ``dataset``; an empty train or valid split is
    a ``ValueError`` naming it, raised before any training."""
    for name in ("train", "valid"):
        if not dataset.split(name):
            raise ValueError(f"the {name!r} split is empty; training needs "
                             "train and valid samples")
    return FeaturizedData(
        train_x=featurizer.transform(dataset.train),
        train_one_hots=np.stack([s.one_hot for s in dataset.train]),
        train_parentals=np.stack([s.parental for s in dataset.train]),
        valid_x=featurizer.transform(dataset.valid),
        valid_labels=np.array([s.sentence_label - 1 for s in dataset.valid]),
    )


def setting_of(entry: dict) -> dict:
    """The training setting of a grid log entry: its ``SETTING_KEYS``, in
    entry order."""
    return {k: v for k, v in entry.items() if k in SETTING_KEYS}


def fit(data: FeaturizedData, train_config: TrainConfig,
        mu: np.ndarray | None) -> TrainedModel:
    """The one call that trains: ``train_config`` on ``data``."""
    return train(data.train_x, data.train_one_hots, data.train_parentals,
                 data.valid_x, data.valid_labels, train_config, mu=mu)


def save_models(featurizer: Featurizer, featurizer_path: Path,
                models: dict[str, TrainedModel]) -> None:
    """Write ``featurizer`` to ``featurizer_path`` and each named model beside
    it, its ``featurizer_ref`` naming that file; call after all trainings."""
    featurizer_path.parent.mkdir(parents=True, exist_ok=True)
    featurizer.save(featurizer_path)
    for name, model in models.items():
        model.featurizer_ref = featurizer_path.name
        save_checkpoint(model, featurizer_path.with_name(name))


def training_record(data: FeaturizedData, train_config: TrainConfig,
                    mu: np.ndarray | None) -> dict:
    """``fit`` ``train_config`` and return its best epoch's ``val_top1``,
    ``val_topk`` and ``best_epoch``, or ``{"error": ...}`` if it diverged;
    any other error is not a failed training and propagates."""
    try:
        model = fit(data, train_config, mu)
    except TrainingDiverged as exc:  # the step continues
        return {"error": str(exc)}
    entry = model.history[model.best_epoch - 1]
    return {"val_top1": entry["val_top1"], "val_topk": entry["val_topk"],
            "best_epoch": model.best_epoch}


def worker_count(trainings: int) -> int:
    """The processes a step of ``trainings`` trainings runs on: one per CPU
    this process may run on (``taskset`` limits them), never more than
    ``trainings``."""
    return min(len(os.sched_getaffinity(0)), trainings)


# a pool worker's task, data and mu, set by ``_serve`` in each worker only
_STEP = None


def _serve(task, data: FeaturizedData, mu: np.ndarray | None) -> None:
    global _STEP
    _STEP = (task, data, mu)


def _run(train_config: TrainConfig):
    task, data, mu = _STEP
    return task(data, train_config, mu)


def run_trainings(task: Callable, data: FeaturizedData,
                  train_configs: list[TrainConfig],
                  mu: np.ndarray | None) -> list:
    """``task(data, train_config, mu)`` for each of ``train_configs``, in
    list order, on ``worker_count(len(train_configs))`` processes. One
    process runs them inline. More are forked for the step, so each
    inherits ``data``, ``mu`` and ``task`` without pickling, and
    ``Executor.map`` returns the results in list order, so the count
    changes no output. A worker's exception propagates as itself, and a
    worker that dies is a ``BrokenProcessPool`` (a ``RuntimeError``); the
    trainings not yet started are cancelled, and no worker outlives the
    call."""
    workers = worker_count(len(train_configs))
    if workers <= 1:
        return [task(data, c, mu) for c in train_configs]
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             _serve, (task, data, mu)) as pool:
        return list(pool.map(_run, train_configs))


# ---------------------------------------------------------------------------
# Step 1: grid search

def run_grid_search(config: ExperimentConfig, dataset: Dataset,
                    featurizer: Featurizer | None = None) -> dict:
    """Single-seed grid search; best setting by validation top-k. Every
    ``TrainConfig`` is built before the first training."""
    keys = sorted(config.grid)
    settings = [dict(zip(keys, values))
                for values in itertools.product(*map(config.grid.get, keys))]
    train_configs = [config.train_config(s, SmoothingConfig(),
                                         config.grid_seed) for s in settings]
    if featurizer is None:
        featurizer = build_featurizer(config, dataset)
    data = featurize(featurizer, dataset)
    log = [dict(setting, **record) for setting, record in zip(
        settings, run_trainings(training_record, data, train_configs, None))]
    scored = [entry for entry in log if "error" not in entry]
    if not scored:
        raise RuntimeError("every grid setting failed to train")
    best = max(scored, key=lambda entry: entry["val_topk"])  # first wins
    write_artifact(config.output_dir, "grid",
                   {"log": log, "best": best, "seed": config.grid_seed})
    return setting_of(best)


# ---------------------------------------------------------------------------
# Step 2: label-smoothing sweep

def confidence_lower_bound(values: list[float]) -> float:
    """Lower bound of the normal-approximation 95% CI (sample sd)."""
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values for a confidence interval")
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    return mean - 1.96 * sd / math.sqrt(n)


@dataclass
class SweepResult:
    cells: list[dict]
    chosen_variant: str
    chosen_alpha: float


def run_ls_sweep(best_setting: dict, config: ExperimentConfig,
                 dataset: Dataset, mu: np.ndarray,
                 featurizer: Featurizer | None = None) -> SweepResult:
    """Train every (variant, alpha, seed) cell and pick the configuration
    maximizing the summed 95%-CI lower bounds of val top-1 and top-k.
    Every cell's ``TrainConfig``s are built before the first is trained."""
    plan = [[config.train_config(best_setting,
                                 SmoothingConfig(variant=variant, alpha=alpha),
                                 seed) for seed in config.seeds]
            for variant in config.variants for alpha in config.alpha_grid]
    if featurizer is None:
        featurizer = build_featurizer(config, dataset)
    data = featurize(featurizer, dataset)
    trained = iter(run_trainings(training_record, data,
                                 [c for cell in plan for c in cell], mu))
    cells = []
    for train_configs in plan:
        records = [dict(seed=train_config.seed, **next(trained))
                   for train_config in train_configs]
        runs = [r for r in records if "error" not in r]
        failures = [r for r in records if "error" in r]
        cell = {**dataclasses.asdict(train_configs[0].smoothing),
                "runs": runs, "failures": failures}
        if len(runs) >= 2:
            top1s = [r["val_top1"] for r in runs]
            topks = [r["val_topk"] for r in runs]
            cell.update(
                mean_top1=float(np.mean(top1s)),
                sd_top1=float(np.std(top1s, ddof=1)),
                mean_topk=float(np.mean(topks)),
                sd_topk=float(np.std(topks, ddof=1)),
                score=confidence_lower_bound(top1s)
                + confidence_lower_bound(topks),
            )
        cells.append(cell)

    scored = [c for c in cells if "score" in c]
    if not scored:
        raise RuntimeError("no sweep cell completed at least two seeds")
    # ties: smallest alpha first, then vanilla < uniform < prior
    def sort_key(cell):
        return (-cell["score"], cell["alpha"],
                VARIANT_ORDER.index(cell["variant"]))
    winner = min(scored, key=sort_key)
    result = SweepResult(cells=cells, chosen_variant=winner["variant"],
                         chosen_alpha=winner["alpha"])
    write_artifact(config.output_dir, "sweep",
                   {"setting": best_setting, **dataclasses.asdict(result)})
    return result


# ---------------------------------------------------------------------------
# Step 3: final training and evaluation

def evaluate_model(model: TrainedModel, featurizer: Featurizer,
                   samples: list[Sample], k: int = 3,
                   multilabel: bool = False) -> EvalReport | MatchReport:
    return evaluate_features(model, featurizer.transform(samples), samples,
                             k=k, multilabel=multilabel)


def evaluate_features(model: TrainedModel, x, samples: list[Sample],
                      k: int = 3,
                      multilabel: bool = False) -> EvalReport | MatchReport:
    """``evaluate_model`` on ``x``, the feature rows of ``samples``."""
    rankings = rank_classes(predict_proba(model, x))
    if multilabel:
        return evaluate_matches(rankings, [s.parental for s in samples], k=k)
    return evaluate_split(rankings, [s.sentence_label for s in samples], k=k)


def _final_row(model: TrainedModel, dataset: Dataset, valid_x, test_x, sd_x,
               k: int) -> dict:
    valid_report = evaluate_features(model, valid_x, dataset.valid, k=k)
    test_report = evaluate_features(model, test_x, dataset.test, k=k)
    row = {
        "val_top1": valid_report.top1_accuracy,
        "val_topk": valid_report.topk_accuracy,
        "val_macro_f1": valid_report.macro_f1,
        "test_top1": test_report.top1_accuracy,
        "test_topk": test_report.topk_accuracy,
        "test_macro_f1": test_report.macro_f1,
        "valid_report": valid_report.to_dict(),
        "test_report": test_report.to_dict(),
    }
    if sd_x is not None:
        sd_report = evaluate_features(model, sd_x, dataset.sd, k=k,
                                      multilabel=True)
        row["sd_top1_match"] = sd_report.top1_match
        row["sd_topk_match"] = sd_report.topk_match
    row["smoothing"] = {"variant": model.config.smoothing.variant,
                        "alpha": model.config.smoothing.alpha}
    row["history"] = model.history
    row["best_epoch"] = model.best_epoch
    return row


def _stage_final(staging: Path, dataset: Dataset, test_x, sd_x, k: int,
                 data: FeaturizedData, train_config: TrainConfig,
                 mu: np.ndarray | None) -> tuple[dict, str]:
    """``run_final``'s task: ``fit`` one final model, score it into its
    ``final.json`` row and write its checkpoint, its ``featurizer_ref``
    naming ``featurizer.json``, to a file of its own in ``staging``; return
    the row and that file's name, so the model never leaves the process
    that trained it."""
    model = fit(data, train_config, mu)
    row = _final_row(model, dataset, data.valid_x, test_x, sd_x, k)
    # a name of its own: the two configs are equal when LS is "none"
    handle, path = tempfile.mkstemp(".json", "model_", staging)
    os.close(handle)
    model.featurizer_ref = "featurizer.json"
    save_checkpoint(model, path)
    return row, Path(path).name


def run_final(best_setting: dict, chosen_ls: SmoothingConfig,
              config: ExperimentConfig, dataset: Dataset, mu: np.ndarray,
              featurizer: Featurizer | None = None) -> dict:
    """Train the chosen-LS and no-LS models on the grid seed, evaluate them
    on valid/test plus the SD set when present, then save them and write
    ``final.json``. An empty test split is a ``ValueError``, raised before
    any training. Each split is featurized once, before the trainings
    start, so forked workers inherit the rows. Each model is scored and
    its checkpoint written by the process that trained it (``_stage_final``),
    into a staging directory beside ``step3_final/`` (in its nearest
    existing ancestor); only the rows come back. Once every training
    returns, the featurizer is staged too, the three files are moved into
    ``step3_final/`` and ``final.json`` is written. On any error the
    staging directory is removed, so nothing under ``output_dir``
    changes."""
    train_configs = {label: config.train_config(best_setting, smoothing,
                                                config.grid_seed)
                     for label, smoothing in (("no_ls", SmoothingConfig()),
                                              ("ls", chosen_ls))}
    if not dataset.test:
        raise ValueError("the 'test' split is empty; the final step scores "
                         "the test split")
    if featurizer is None:
        featurizer = build_featurizer(config, dataset)
    data = featurize(featurizer, dataset)
    test_x = featurizer.transform(dataset.test)
    sd_x = featurizer.transform(dataset.sd) if dataset.sd else None

    out = Path(config.output_dir, STEP_ARTIFACTS["final"][0]).parent
    anchor = out.parent
    while not anchor.exists():
        anchor = anchor.parent
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=anchor))
    try:
        task = functools.partial(_stage_final, staging, dataset, test_x,
                                 sd_x, config.k)
        staged = dict(zip(train_configs, run_trainings(
            task, data, list(train_configs.values()), mu)))
        featurizer.save(staging / "featurizer.json")
        out.mkdir(parents=True, exist_ok=True)
        os.replace(staging / "featurizer.json", out / "featurizer.json")
        for label, (_, file) in staged.items():
            os.replace(staging / file, out / f"model_{label}.json")
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    payload = {"baseline": config.baseline, "setting": best_setting,
               "seed": config.grid_seed,
               "rows": {label: row for label, (row, _) in staged.items()},
               "sd_evaluated": sd_x is not None}
    write_artifact(config.output_dir, "final", payload)
    return payload


# ---------------------------------------------------------------------------
# Corpus mining (two-model agreement filter)

@dataclass
class Predictor:
    model: TrainedModel
    featurizer: Featurizer
    # resolved featurizer file, set by ``load``; ``mine`` featurizes once
    # for two predictors that share it
    featurizer_path: Path | None = None

    @classmethod
    def load(cls, checkpoint_path: str | Path,
             featurizers: dict[Path, Featurizer] | None = None) -> "Predictor":
        """Load a checkpoint and its featurizer; a relative
        ``featurizer_ref`` is resolved against the checkpoint's directory.
        ``featurizers``, if given, maps resolved featurizer files to those
        already loaded, so predictors that share one load it once; a file
        not in it is loaded and added. A featurizer whose dimension is not
        the checkpoint's input size is a ``ValueError`` naming both files."""
        model = load_checkpoint(checkpoint_path)
        if not model.featurizer_ref:
            raise ValueError(f"{checkpoint_path} has no featurizer reference")
        path = (Path(checkpoint_path).parent / model.featurizer_ref).resolve()
        featurizers = {} if featurizers is None else featurizers
        if path not in featurizers:
            featurizers[path] = Featurizer.load(path)
        featurizer = featurizers[path]
        if featurizer.dimension != len(model.params.W1):
            raise ValueError(f"{checkpoint_path} takes {len(model.params.W1)} "
                             f"input features but its featurizer {path} "
                             f"gives {featurizer.dimension}; they come from "
                             "different runs")
        return cls(model=model, featurizer=featurizer, featurizer_path=path)

    def topk(self, token_lists: list[list[str]], k: int = 3,
             features=None) -> tuple[np.ndarray, np.ndarray]:
        """``top_classes`` of one batched forward: the ``k`` best criterion
        ids and their confidences per token list, best first, both
        ``len(token_lists) x k``. ``features`` may carry the rows this
        predictor's featurizer gives for ``token_lists``."""
        if features is None:
            features = self.featurizer.transform_token_lists(token_lists)
        return top_classes(predict_proba(self.model, features), k)


def mine(texts: Iterable[str], predictor_a: Predictor, predictor_b: Predictor,
         confidence_threshold: float = 0.8,
         iou_threshold: float = 0.5) -> list[dict]:
    """Keep sentences where both models are confident and agree.

    A sentence passes when each model's top-3 confidence sum exceeds the
    confidence threshold and the IoU of the two top-3 class sets exceeds
    the IoU threshold (both strict). One loop takes ``_MINE_BLOCK`` input
    lines at a time from ``texts``, any iterable, read no further ahead
    than that block: one ``preprocess_many`` call, lines with no tokens
    dropped, then one ``topk`` call per model, both given the block's
    features when the predictors share a featurizer file. The rule runs
    on the block's arrays: the sum adds the three confidences left to
    right, and, as each row's three ids are distinct, the union of two
    top-3 sets has ``6 - intersection`` ids. A threshold that is NaN or
    outside [0, 1] is a ``ValueError``, raised before any line is read.
    """
    for name, value in (("confidence_threshold", confidence_threshold),
                        ("iou_threshold", iou_threshold)):
        if not 0 <= value <= 1:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    shared = (predictor_a.featurizer_path is not None
              and predictor_a.featurizer_path == predictor_b.featurizer_path)
    kept = []
    texts = iter(texts)
    while block := list(itertools.islice(texts, _MINE_BLOCK)):
        lines = [(text, tokens) for text, tokens
                 in zip(block, preprocess_many(block)) if tokens]
        if not lines:
            continue
        token_lists = [tokens for _, tokens in lines]
        x = (predictor_a.featurizer.transform_token_lists(token_lists)
             if shared else None)
        ids_a, confs_a = predictor_a.topk(token_lists, k=3, features=x)
        ids_b, confs_b = predictor_b.topk(token_lists, k=3, features=x)
        conf_a = confs_a[:, 0] + confs_a[:, 1] + confs_a[:, 2]
        conf_b = confs_b[:, 0] + confs_b[:, 1] + confs_b[:, 2]
        inter = (ids_a[:, :, None] == ids_b[:, None, :]).sum(axis=(1, 2))
        iou = inter / (6 - inter)
        passed = ((conf_a > confidence_threshold)
                  & (conf_b > confidence_threshold) & (iou > iou_threshold))
        rows = np.flatnonzero(passed)
        columns = (rows, ids_a[rows], confs_a[rows], ids_b[rows],
                   confs_b[rows], conf_a[rows], conf_b[rows], iou[rows])
        for i, id_a, cf_a, id_b, cf_b, sum_a, sum_b, overlap in zip(
                *(column.tolist() for column in columns)):
            kept.append({"sentence": lines[i][0],
                         "predictions_a": list(zip(id_a, cf_a)),
                         "predictions_b": list(zip(id_b, cf_b)),
                         "confidence_a": sum_a, "confidence_b": sum_b,
                         "iou": overlap})
    return kept


# ---------------------------------------------------------------------------
# Reporting

def report(artifacts_dir: str | Path) -> dict:
    """Render a human-readable summary plus machine JSON and curve CSV.
    Missing artifacts are one ``FileNotFoundError`` listing them all; an
    artifact without a key it needs, or with a key, row or score of the
    wrong JSON type, is a ``ValueError`` naming it, as are artifacts of two
    runs (``read_run``)."""
    root = Path(artifacts_dir)
    missing = [rel for rel, _ in STEP_ARTIFACTS.values()
               if not (root / rel).exists()]
    if missing:
        raise FileNotFoundError("missing artifacts: " + ", ".join(missing))
    grid, sweep, final = read_run(root, final=True)

    final_path, sweep_path = (root / STEP_ARTIFACTS[step][0]
                              for step in ("final", "sweep"))
    wrong = "a missing key or a value of the wrong type ({})"
    with input_error(final_path, wrong):
        row_lines = [
            f"{label:>6} {row['val_top1']:7.4f} {row['val_topk']:7.4f} "
            f"{row['val_macro_f1']:7.4f} {row['test_top1']:7.4f} "
            f"{row['test_topk']:7.4f} {row['test_macro_f1']:7.4f} "
            f"{row.get('sd_top1_match', float('nan')):7.4f} "
            f"{row.get('sd_topk_match', float('nan')):7.4f}"
            for label, row in final["rows"].items()]
        curve_rows = ["row,epoch,train_loss,val_top1,val_topk"] + [
            f"{label},{entry['epoch']},{entry['train_loss']},"
            f"{entry['val_top1']},{entry['val_topk']}"
            for label, row in final["rows"].items()
            for entry in row["history"]]
    with input_error(sweep_path, wrong):
        cell_lines = [
            f"  {cell['variant']:>8} alpha={cell['alpha']:<5} "
            f"top1={cell['mean_top1']:.4f}±{cell['sd_top1']:.4f} "
            f"topk={cell['mean_topk']:.4f}±{cell['sd_topk']:.4f} "
            f"score={cell['score']:.4f}"
            for cell in sweep["cells"] if "score" in cell]
    summary_text = "\n".join([
        f"baseline: {final['baseline']}",
        f"grid best setting: {final['setting']} (seed {final['seed']})",
        f"chosen LS: {sweep['chosen_variant']} alpha={sweep['chosen_alpha']}",
        "",
        f"{'row':>6} {'val1':>7} {'valk':>7} {'valF1':>7} "
        f"{'test1':>7} {'testk':>7} {'testF1':>7} {'SD1':>7} {'SDk':>7}",
        *row_lines,
        "",
        "sweep cells (mean ± 1.96·sd/√n lower bounds):",
        *cell_lines])

    summary = {"grid": grid["best"], "sweep": {
        "chosen_variant": sweep["chosen_variant"],
        "chosen_alpha": sweep["chosen_alpha"]},
        "final": {label: {k: v for k, v in row.items()
                          if k not in ("history", "valid_report",
                                       "test_report")}
                  for label, row in final["rows"].items()}}
    with atomic_open(root / "summary.json") as fh:
        json.dump(summary, fh, indent=1)
    with atomic_open(root / "summary.txt") as fh:
        fh.write(summary_text + "\n")
    with atomic_open(root / "curves.csv") as fh:
        fh.write("\n".join(curve_rows) + "\n")
    return {"text": summary_text, "summary": summary}
