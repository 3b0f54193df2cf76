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
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import (atomic_open, check_json_type, commit_files, gc_paused,
               input_error, json_fields, read_json)
from .corpus import Dataset, Sample, label_rows, preprocess_many, read_sites
from .features import (EmbeddingTable, TfidfVocabulary, boe_rows, fit_tfidf,
                       load_embeddings, tfidf_rows)
from .labels import (ALPHA_GRID, VARIANTS, SmoothingConfig, cooccurrence,
                     prior_weights)
from .metrics import (EvalReport, MatchReport, evaluate_matches,
                      evaluate_split)
from .model import (WRITERS, TrainConfig, TrainedModel, TrainingDiverged,
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
# the featurizer ``ouvclf sweep`` builds and ``ouvclf final`` reuses
GRID_FEATURIZER = "step1_grid/featurizer.json"
# ``input_error``'s message for a key missing inside a run artifact
_WRONG = "a missing key or a value of the wrong type ({})"
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
        ``smoothing``, and each seed; a sweep or grid list that is empty or
        repeats a value names its field."""
        if self.baseline not in ("ngram", "boe"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if self.baseline == "boe" and not self.embeddings_path:
            raise ValueError("BoE baseline requires embeddings_path")
        if self.min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {self.min_df!r}")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        for setting in [self.setting, *({key: value} for key in self.grid
                                        for value in self.grid[key])]:
            self.train_config(setting, self.smoothing, 0)
        for key, seed in [("grid_seed", self.grid_seed),
                          *(("seeds", seed) for seed in self.seeds)]:
            with input_error(key):
                self.train_config({}, SmoothingConfig(), seed)
        if len(self.seeds) < 2:
            raise ValueError("the sweep requires at least two seeds")
        for variant in self.variants:
            if variant not in VARIANT_ORDER:
                raise ValueError(f"unknown variant {variant!r}")
        for alpha in self.alpha_grid:
            with input_error("alpha_grid"):
                SmoothingConfig(alpha=alpha)
        for key, values in [("seeds", self.seeds), ("variants", self.variants),
                            ("alpha_grid", self.alpha_grid),
                            *((f"grid.{k}", v) for k, v in self.grid.items())]:
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
        numbers), so a typo is a ``ValueError`` naming it, not a default;
        a value ``__post_init__`` rejects names the file too."""
        payload = json_fields(path, "", read_json(path), cls)
        for key, value in payload.get("setting", {}).items():
            check_json_type(path, f"setting.{key}", value, 0.0)
        for key, values in payload.get("grid", {}).items():
            check_json_type(path, f"grid.{key}", values, [0.0])
        with input_error(path):
            return cls(**payload)


def load_prior(dataset_dir: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The one prior reader: the criterion counts of ``dataset_dir``'s
    ``sites.json`` and their prior weights ``mu``; a site without criteria,
    or a criterion no site has, is a ``ValueError`` naming the file."""
    path = Path(dataset_dir, "sites.json")
    sites = read_sites(path)
    with input_error(path):
        counts = cooccurrence(sites)
        return counts, prior_weights(counts)


def prior_for(dataset_dir: str | Path,
              smoothings: Iterable[SmoothingConfig]) -> np.ndarray | None:
    """``load_prior``'s ``mu`` if one of ``smoothings`` reads it, as
    ``soft_targets`` does for ``prior`` at an alpha above 0; otherwise None,
    and ``sites.json`` is not read."""
    if any(s.variant == "prior" and s.alpha > 0 for s in smoothings):
        return load_prior(dataset_dir)[1]
    return None


def write_artifact(output_dir: str | Path, step: str, payload: dict) -> None:
    """The one writer of the step artifacts: ``payload`` at ``step``'s path
    under ``output_dir``, through ``atomic_open``."""
    with atomic_open(Path(output_dir, STEP_ARTIFACTS[step][0])) as fh:
        json.dump(payload, fh, indent=1)


def read_run(output_dir: str | Path, final: bool = False):
    """The one reader of a run directory: ``(run, best, chosen)``. ``run``
    maps ``"grid"``, ``"sweep"`` and, with ``final`` (for ``report``),
    ``"final"`` to each artifact's path and JSON value, or without it (for
    ``ouvclf final``) ``"featurizer"`` to ``GRID_FEATURIZER``'s path and
    ``Featurizer``; ``best`` is ``log.json``'s best setting and ``chosen``
    the ``SmoothingConfig`` of ``sweep.json``'s chosen cell. Missing files
    are one ``FileNotFoundError`` naming ``output_dir`` and them all. A
    ``sweep.json`` or ``final.json`` whose ``setting`` is not ``best`` is a
    ``ValueError`` naming both files, as a rerun of ``ouvclf sweep`` leaves
    them, and so is a ``final.json`` whose ``ls`` row was trained at another
    smoothing than the chosen one; a chosen cell that ``sweep.json`` did not
    score names the file."""
    steps = ("grid", "sweep", "final") if final else ("grid", "sweep")
    paths = [Path(output_dir, STEP_ARTIFACTS[step][0]) for step in steps]
    featurizer = Path(output_dir, GRID_FEATURIZER)
    missing = [str(path.relative_to(output_dir)) for path in paths
               + [featurizer] * (not final) if not path.exists()]
    if missing:
        raise FileNotFoundError(f"{output_dir}: missing artifacts: "
                                + ", ".join(missing))
    run = {step: (path, read_json(path, **STEP_ARTIFACTS[step][1]))
           for step, path in zip(steps, paths)}
    best = setting_of(run["grid"][1]["best"])
    sweep = run["sweep"][1]
    with input_error(paths[1]):
        chosen = SmoothingConfig(sweep["chosen_variant"],
                                 sweep["chosen_alpha"])
        if not any("score" in cell and dataclasses.asdict(chosen).items()
                   <= cell.items() for cell in sweep["cells"]):
            raise ValueError(f"chosen {chosen} is not a cell the sweep scored")
    for step, (path, artifact) in list(run.items())[1:]:
        if artifact["setting"] != best:
            raise ValueError(f"{path} holds setting {artifact['setting']} but "
                             f"{paths[0]} holds best setting {best}: they come"
                             f" from different runs; rerun `ouvclf {step}`")
    if final:
        with input_error(paths[2], _WRONG):
            trained = run["final"][1]["rows"]["ls"]["smoothing"]
        if trained != dataclasses.asdict(chosen):
            raise ValueError(f"{paths[2]} holds an ls row trained at "
                             f"{trained} but {paths[1]} chose {chosen}: they "
                             "come from different runs; rerun `ouvclf final`")
    else:
        run["featurizer"] = featurizer, Featurizer.load(
            featurizer, rebuild="`ouvclf sweep`")
    return run, best, chosen


# ---------------------------------------------------------------------------
# Featurizers

# the featurizer file of each kind: its names key, listing the rows in
# order, its array key and the array's rank
_FILE_FORM = {"ngram": ("grams", "idf", 1), "boe": ("tokens", "vectors", 2)}
_TWO_SPACES = re.compile(" [^ ]* ")
_OTHER_VERSION = "not a featurizer file of this version ({}); rebuild it with "


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
    def load(cls, path: str | Path,
             rebuild: str = WRITERS) -> "Featurizer":
        """Read a file written by ``save``; other keys are ignored. Any
        other file is a ``ValueError`` naming it: one that ``read_arrays``
        refuses, names that are not a list of strings, a repeated name, a
        gram of more than one space, or a BoE file with no ``"<unk>"``
        token; one of another version says to rebuild it with ``rebuild``.
        """
        def array_shape(head):
            with input_error(path, _OTHER_VERSION + rebuild):
                kind = head["type"]
                if kind not in _FILE_FORM:
                    raise ValueError(f"unknown type {kind!r}")
                key = _FILE_FORM[kind][1]
                return {key: head[key]}

        head, arrays = read_arrays(path, array_shape, rebuild)
        with input_error(path, _OTHER_VERSION + rebuild):
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
    train_labels: np.ndarray
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
        train_labels=np.array([s.sentence_label for s in dataset.train]),
        train_parentals=label_rows([s.parental for s in dataset.train]),
        valid_x=featurizer.transform(dataset.valid),
        valid_labels=np.array([s.sentence_label for s in dataset.valid]),
    )


def setting_of(entry: dict) -> dict:
    """The training setting of a grid log entry: its ``SETTING_KEYS``, in
    entry order."""
    return {k: v for k, v in entry.items() if k in SETTING_KEYS}


def fit(data: FeaturizedData, train_config: TrainConfig,
        mu: np.ndarray | None) -> TrainedModel:
    """The one call that trains: ``train_config`` on ``data``."""
    return train(data.train_x, data.train_labels, data.train_parentals,
                 data.valid_x, data.valid_labels, train_config, mu=mu)


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
    ``trainings``. Without ``os.sched_getaffinity`` (macOS, Windows, where
    ``fork`` is unsafe or missing) it is one, and the step runs inline."""
    if not hasattr(os, "sched_getaffinity"):
        return min(1, trainings)
    return min(len(os.sched_getaffinity(0)), trainings)


# a pool worker's task, set by ``_serve`` in each worker only
_TASK = None


def _serve(task: Callable) -> None:
    global _TASK
    _TASK = task


def _run(job):
    return _TASK(job)


def run_trainings(task: Callable, jobs: list) -> list:
    """``task(job)`` for each of ``jobs``, in list order, on
    ``worker_count(len(jobs))`` processes. One process runs them inline.
    More are forked for the step, so each inherits ``task`` and what it
    binds without pickling (only the jobs and results cross the pipe), and
    ``Executor.map`` returns the results in list order, so the count
    changes no output. A worker's exception propagates as itself, and a
    worker that dies is a ``BrokenProcessPool`` (a ``RuntimeError``); the
    jobs not yet started are cancelled, and no worker outlives the call."""
    workers = worker_count(len(jobs))
    if workers <= 1:
        return list(map(task, jobs))
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             _serve, (task,)) as pool:
        return list(pool.map(_run, jobs))


# ---------------------------------------------------------------------------
# Step 1: grid search

def grid_log(settings: list[dict], records: list[dict], seed: int) -> dict:
    """``log.json``'s payload from the grid's ``settings`` and their
    ``training_record``s, in job order; no training, no I/O. Each setting
    with its record, the first highest-``val_topk`` entry as ``best``."""
    log = [dict(setting, **record)
           for setting, record in zip(settings, records)]
    scored = [entry for entry in log if "error" not in entry]
    if not scored:
        raise RuntimeError("every grid setting failed to train")
    best = max(scored, key=lambda entry: entry["val_topk"])  # first wins
    return {"log": log, "best": best, "seed": seed}


def run_grid_search(config: ExperimentConfig, dataset: Dataset,
                    featurizer: Featurizer) -> dict:
    """Single-seed grid search on the run's ``featurizer``; best setting by
    val top-k. Every ``TrainConfig`` is built before the first training."""
    keys = sorted(config.grid)
    settings = [dict(zip(keys, values))
                for values in itertools.product(*map(config.grid.get, keys))]
    jobs = [config.train_config(s, SmoothingConfig(), config.grid_seed)
            for s in settings]
    data = featurize(featurizer, dataset)
    task = functools.partial(training_record, data, mu=None)
    payload = grid_log(settings, run_trainings(task, jobs), config.grid_seed)
    write_artifact(config.output_dir, "grid", payload)
    return setting_of(payload["best"])


# ---------------------------------------------------------------------------
# Step 2: label-smoothing sweep

@dataclass
class SweepResult:
    cells: list[dict]
    chosen_variant: str
    chosen_alpha: float


def sweep_result(jobs: list[TrainConfig], records: list[dict]) -> SweepResult:
    """The sweep's cells and choice from its ``jobs`` (each smoothing's
    seeds contiguous) and their ``training_record``s; no training, no I/O.
    A cell of 2+ runs scores the sum over top-1 and top-k of their 95%-CI
    lower bound ``mean - 1.96 * sd / sqrt(n)``; the highest score wins."""
    cells = []
    for smoothing, pairs in itertools.groupby(zip(jobs, records),
                                              lambda pair: pair[0].smoothing):
        seeded = [dict(seed=job.seed, **record) for job, record in pairs]
        runs = [r for r in seeded if "error" not in r]
        cell = {**dataclasses.asdict(smoothing), "runs": runs,
                "failures": [r for r in seeded if "error" in r]}
        if len(runs) >= 2:
            bounds = []
            for key in ("top1", "topk"):
                values = [r[f"val_{key}"] for r in runs]
                cell[f"mean_{key}"] = mean = float(np.mean(values))
                cell[f"sd_{key}"] = sd = float(np.std(values, ddof=1))
                bounds.append(mean - 1.96 * sd / math.sqrt(len(runs)))
            cell["score"] = bounds[0] + bounds[1]
        cells.append(cell)
    scored = [c for c in cells if "score" in c]
    if not scored:
        raise RuntimeError("no sweep cell completed at least two seeds")
    # ties: smallest alpha first, then vanilla < uniform < prior
    winner = min(scored, key=lambda c: (-c["score"], c["alpha"],
                                        VARIANT_ORDER.index(c["variant"])))
    return SweepResult(cells=cells, chosen_variant=winner["variant"],
                       chosen_alpha=winner["alpha"])


def run_ls_sweep(best_setting: dict, config: ExperimentConfig,
                 dataset: Dataset, mu: np.ndarray | None,
                 featurizer: Featurizer) -> SweepResult:
    """Train each (variant, alpha, seed) cell on the run's ``featurizer``;
    pick the cell maximizing the summed 95%-CI lower bounds of val top-1
    and top-k. Every ``TrainConfig`` is built before the first training."""
    jobs = [config.train_config(best_setting, SmoothingConfig(v, a), seed)
            for v in config.variants for a in config.alpha_grid
            for seed in config.seeds]
    data = featurize(featurizer, dataset)
    task = functools.partial(training_record, data, mu=mu)
    result = sweep_result(jobs, run_trainings(task, jobs))
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
        return evaluate_matches(
            rankings, label_rows([s.parental for s in samples]), k=k)
    return evaluate_split(rankings, [s.sentence_label for s in samples], k=k)


def _stage_final(final_dir: Path, dataset: Dataset, data: FeaturizedData,
                 test_x, sd_x, mu: np.ndarray | None,
                 job: tuple[str, TrainConfig]) -> dict:
    """``run_final``'s task: ``fit`` the final model of ``job``, a label
    and its ``TrainConfig``, write its checkpoint, its ``featurizer_ref``
    naming ``featurizer.json``, to ``model_<label>.json`` in ``final_dir``,
    and return its ``final.json`` row, so the model never leaves the
    process that trained it."""
    label, train_config = job
    k = train_config.k
    model = fit(data, train_config, mu)
    valid_report = evaluate_features(model, data.valid_x, dataset.valid, k=k)
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
    row["smoothing"] = dataclasses.asdict(model.config.smoothing)
    row["history"] = model.history
    row["best_epoch"] = model.best_epoch
    model.featurizer_ref = "featurizer.json"
    save_checkpoint(model, final_dir / f"model_{label}.json")
    return row


def run_final(best_setting: dict, chosen_ls: SmoothingConfig,
              config: ExperimentConfig, dataset: Dataset,
              mu: np.ndarray | None, featurizer: Featurizer) -> dict:
    """Train the chosen-LS and no-LS models on the grid seed and the run's
    ``featurizer``, evaluate them on valid/test plus the SD set when
    present, then save them and write ``final.json``. An empty test split
    is a ``ValueError``, raised before any training. Each split is
    featurized once, before the trainings start, so forked workers inherit
    the rows. Each model is scored and its checkpoint written by the
    process that trained it (``_stage_final``), into ``step3_final/`` of
    ``commit_files``' staging tree; only the rows come back. Once
    every training returns, the featurizer and ``final.json`` are staged
    too, and the four files move into ``step3_final/``, ``final.json``
    last, so on any error before the moves nothing under ``output_dir``
    changes."""
    train_configs = {label: config.train_config(best_setting, smoothing,
                                                config.grid_seed)
                     for label, smoothing in (("no_ls", SmoothingConfig()),
                                              ("ls", chosen_ls))}
    if not dataset.test:
        raise ValueError("the 'test' split is empty; the final step scores "
                         "the test split")
    data = featurize(featurizer, dataset)
    test_x = featurizer.transform(dataset.test)
    sd_x = featurizer.transform(dataset.sd) if dataset.sd else None

    final = STEP_ARTIFACTS["final"][0]
    with commit_files(config.output_dir, final) as staging:
        final_dir = Path(staging, final).parent
        task = functools.partial(_stage_final, final_dir, dataset, data,
                                 test_x, sd_x, mu)
        rows = dict(zip(train_configs, run_trainings(
            task, list(train_configs.items()))))
        featurizer.save(final_dir / "featurizer.json")
        payload = {"baseline": config.baseline, "setting": best_setting,
                   "seed": config.grid_seed, "rows": rows,
                   "sd_evaluated": sd_x is not None}
        write_artifact(staging, "final", payload)
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


@gc_paused
def mine(texts: Iterable[str], predictor_a: Predictor, predictor_b: Predictor,
         confidence_threshold: float = 0.8,
         iou_threshold: float = 0.5) -> list[dict]:
    """Keep sentences where both models are confident and agree.

    A sentence passes when each model's top-3 confidence sum exceeds the
    confidence threshold and the IoU of the two top-3 class sets exceeds
    the IoU threshold (both strict). One loop takes ``_MINE_BLOCK`` input
    lines at a time from ``texts``, any iterable, read no further ahead
    than that block: one ``preprocess_many`` call, lines with no tokens
    dropped, the block's rows once per distinct featurizer file, then one
    batched ``predict_proba`` and ``top_classes`` per model. The rule runs
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
        x = predictor_a.featurizer.transform_token_lists(token_lists)
        ids_a, confs_a = top_classes(predict_proba(predictor_a.model, x), 3)
        if not shared:
            del x  # one block's feature matrix at a time
            x = predictor_b.featurizer.transform_token_lists(token_lists)
        ids_b, confs_b = top_classes(predict_proba(predictor_b.model, x), 3)
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
    """Render a human-readable summary plus machine JSON and curve CSV,
    committed together by ``commit_files``.
    ``read_run`` refuses missing artifacts and artifacts of two runs; an
    artifact without a key it needs, or with a key, row or score of the
    wrong JSON type, is a ``ValueError`` naming it."""
    run, _, _ = read_run(artifacts_dir, final=True)
    (_, grid), (sweep_path, sweep), (final_path, final) = run.values()
    with input_error(final_path, _WRONG):
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
    with input_error(sweep_path, _WRONG):
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
    with commit_files(artifacts_dir, "summary.json") as staging:
        with open(staging / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        with open(staging / "summary.txt", "w", encoding="utf-8") as fh:
            fh.write(summary_text + "\n")
        with open(staging / "curves.csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(curve_rows) + "\n")
    return {"text": summary_text, "summary": summary}
