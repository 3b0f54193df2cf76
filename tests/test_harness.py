import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ouv_classifier import NUM_CLASSES, harness
from ouv_classifier.harness import (ExperimentConfig, Featurizer, Predictor,
                                    SETTING_KEYS, VARIANT_ORDER,
                                    build_featurizer, featurize, grid_log,
                                    mine, report, run_final, run_grid_search,
                                    run_ls_sweep, sweep_result, worker_count)
from ouv_classifier.labels import SmoothingConfig
from ouv_classifier.model import (TrainConfig, TrainedModel,
                                  TrainingDiverged, load_checkpoint,
                                  predict_proba, save_checkpoint, top_classes)
from ouv_classifier.corpus import (SiteRecord, build_sd_set, label_rows,
                                   preprocess, preprocess_many)
from ouv_classifier.features import (EmbeddingTable, TfidfVocabulary,
                                     fit_tfidf, load_embeddings)
from conftest import (StubPredictor, edit_head, make_sample,
                      make_separable_dataset, use_cpus)


def toy_config(tmp_path, **overrides):
    defaults = dict(
        baseline="ngram",
        grid={"hidden": [16], "batch_size": [64]},
        learning_rate=0.01,
        seeds=[0, 1],
        alpha_grid=[0.0, 0.1],
        variants=["vanilla", "uniform", "prior"],
        max_epochs=3,
        patience=3,
        min_df=1,
        output_dir=str(tmp_path / "runs"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# any number: ints, floats, zero, negative, infinite and NaN
NUMBERS = st.one_of(st.integers(-3, 40), st.floats(-3, 40),
                    st.sampled_from([0, -1, 0.0, -0.0, -1.0, math.inf,
                                     -math.inf, math.nan]))


def values_of(key):
    """A value ``key`` accepts, twice as likely as any number."""
    valid = {"hidden": st.integers(1, 40), "batch_size": st.integers(1, 40),
             "dropout": st.floats(0, 0.9), "seed": st.integers(0, 40),
             }.get(key, st.floats(0, 1))
    return st.one_of(valid, valid, NUMBERS)


def settings_of(values, max_size):
    """Dicts of up to ``max_size`` setting keys, each to a ``values`` of its
    key's values."""
    return st.lists(st.sampled_from(SETTING_KEYS), max_size=max_size,
                    unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                        {key: values(values_of(key)) for key in keys}))


def toy_mu():
    rng = np.random.default_rng(3)
    return np.hstack([rng.uniform(0.1, 1.0, size=(10, 10)), np.ones((10, 1))])


@pytest.fixture(scope="module")
def dataset():
    return make_separable_dataset(n_train=90, n_valid=30, n_test=30)


@pytest.fixture(scope="module")
def tiny_data():
    tiny = make_separable_dataset(n_train=12, n_valid=6)
    return featurize(Featurizer("ngram", vocab=fit_tfidf(tiny.train, 1)),
                     tiny)


class TestGridSearch:
    def test_single_setting_returned(self, dataset, tmp_path):
        config = toy_config(tmp_path)
        best = run_grid_search(config, dataset,
                               build_featurizer(config, dataset))
        assert best == {"hidden": 16, "batch_size": 64}
        log = json.loads(
            (tmp_path / "runs/step1_grid/log.json").read_text())
        assert len(log["log"]) == 1
        assert log["seed"] == config.grid_seed

    def test_crippled_setting_loses(self, dataset, tmp_path):
        config = toy_config(
            tmp_path, grid={"hidden": [16], "learning_rate": [0.0, 0.01]})
        best = run_grid_search(config, dataset,
                               build_featurizer(config, dataset))
        assert best["learning_rate"] == 0.01

    def test_winner_matches_logged_topk(self, dataset, tmp_path):
        config = toy_config(tmp_path,
                            grid={"hidden": [8, 16], "batch_size": [32, 64]})
        best = run_grid_search(config, dataset,
                               build_featurizer(config, dataset))
        log = json.loads(
            (tmp_path / "runs/step1_grid/log.json").read_text())
        scored = [e for e in log["log"] if "val_topk" in e]
        top = max(scored, key=lambda e: e["val_topk"])
        assert best == {k: top[k] for k in ("hidden", "batch_size")}

    def test_empty_grid_rejected(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            config = toy_config(tmp_path, grid={})
            run_grid_search(config, dataset, build_featurizer(config, dataset))

    def test_tie_goes_to_the_first_setting(self, dataset, tmp_path):
        # at learning rate 0 no weight moves, so both settings score alike
        config = toy_config(tmp_path, grid={
            "hidden": [16], "learning_rate": [0.0], "l2": [0.0, 1e-12]})
        best = run_grid_search(config, dataset,
                               build_featurizer(config, dataset))
        saved = json.loads(
            (tmp_path / "runs/step1_grid/log.json").read_text())
        first, second = saved["log"]
        assert first["val_topk"] == second["val_topk"]
        assert first["l2"] == 0.0 and second["l2"] == 1e-12
        assert saved["best"] == first
        assert best == {"hidden": 16, "l2": 0.0, "learning_rate": 0.0}

    def test_log_entry_key_order(self, dataset, tmp_path, monkeypatch):
        real_train = harness.train

        def diverge_at_high_dropout(*args, **kwargs):
            if args[5].dropout == 0.4:
                raise TrainingDiverged("non-finite loss at epoch 1, batch 0")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train", diverge_at_high_dropout)
        config = toy_config(tmp_path, grid={
            "hidden": [16], "dropout": [0.2, 0.4], "batch_size": [64]})
        run_grid_search(config, dataset, build_featurizer(config, dataset))
        saved = json.loads(
            (tmp_path / "runs/step1_grid/log.json").read_text())
        assert list(saved) == ["log", "best", "seed"]
        scored, failed = saved["log"]
        setting_keys = ["batch_size", "dropout", "hidden"]
        assert list(scored) == setting_keys + ["val_top1", "val_topk",
                                               "best_epoch"]
        assert list(failed) == setting_keys + ["error"]
        assert failed["error"] == "non-finite loss at epoch 1, batch 0"
        assert saved["best"] == scored

    def test_non_integer_int_setting_is_logged_as_error(self, dataset,
                                                        tmp_path,
                                                        monkeypatch):
        # a whole float trains as its int and is logged as given
        config = toy_config(tmp_path, grid={"batch_size": [64],
                                            "hidden": [16.0]})
        featurizer = build_featurizer(config, dataset)
        assert run_grid_search(config, dataset, featurizer) == {
            "batch_size": 64, "hidden": 16.0}
        shutil.rmtree(tmp_path / "runs")
        # any other is rejected when the config is built, before training
        monkeypatch.setattr(harness, "train", None)
        for grid, key, value in [
                ({"batch_size": [64], "hidden": [16.0, 16.5]}, "hidden", 16.5),
                ({"batch_size": [64], "hidden": [math.inf]}, "hidden", "inf"),
                ({"batch_size": [64, 64.9], "hidden": [16.0]}, "batch_size",
                 64.9)]:
            with pytest.raises(ValueError, match=(
                    f"^setting '{key}' must be an integer, got {value}$")):
                toy_config(tmp_path, grid=grid)
        assert not (tmp_path / "runs").exists()


def record(top1, topk):
    """A ``training_record`` of a training that finished."""
    return {"val_top1": top1, "val_topk": topk, "best_epoch": 1}


def sweep_of(cells):
    """``sweep_result`` of ``cells``, ``(variant, alpha, records)`` in job
    order, each record of the next seed from 0, with no training."""
    jobs, records = [], []
    for variant, alpha, cell_records in cells:
        for seed, cell_record in enumerate(cell_records):
            jobs.append(TrainConfig(seed=seed,
                                    smoothing=SmoothingConfig(variant, alpha)))
            records.append(cell_record)
    return sweep_result(jobs, records)


class TestGridLog:
    def test_first_entry_wins_a_tie_and_failures_are_logged(self):
        grid = [{"hidden": 8}, {"hidden": 16}, {"hidden": 32}]
        records = [{"error": "diverged"}, record(0.5, 0.75),
                   record(0.625, 0.75)]
        payload = grid_log(grid, records, 7)
        assert payload == {"log": [{"hidden": 8, "error": "diverged"},
                                   {"hidden": 16, **record(0.5, 0.75)},
                                   {"hidden": 32, **record(0.625, 0.75)}],
                           "best": {"hidden": 16, **record(0.5, 0.75)},
                           "seed": 7}
        assert payload["best"] is payload["log"][1]

    def test_every_setting_failed_raises(self):
        with pytest.raises(RuntimeError,
                           match="^every grid setting failed to train$"):
            grid_log([{"hidden": 8}], [{"error": "diverged"}], 7)


class TestSweepResult:
    def test_score_is_the_summed_ci_lower_bound(self):
        top1s, topks = [0.8, 0.9, 1.0], [0.5, 0.625, 0.875]
        result = sweep_of([("uniform", 0.1, list(map(record, top1s, topks)))])
        cell, = result.cells
        expected = [np.mean(v) - 1.96 * np.std(v, ddof=1) / math.sqrt(3)
                    for v in (top1s, topks)]
        assert cell["score"] == pytest.approx(sum(expected))
        assert cell["mean_topk"] == pytest.approx(np.mean(topks))
        assert cell["sd_top1"] == pytest.approx(np.std(top1s, ddof=1))

    def test_low_variance_can_beat_higher_mean(self):
        steady = [0.9] * 10
        jumpy = list(np.random.default_rng(0).normal(0.91, 0.1, size=10))
        assert np.mean(jumpy) > np.mean(steady)
        result = sweep_of([("prior", 0.1, list(map(record, jumpy, jumpy))),
                           ("uniform", 0.1, list(map(record, steady,
                                                     steady)))])
        assert (result.chosen_variant, result.chosen_alpha) == ("uniform",
                                                                0.1)

    def test_a_one_run_cell_gets_no_score(self):
        result = sweep_of([
            ("vanilla", 0.1, [record(1.0, 1.0), {"error": "diverged"}]),
            ("prior", 0.1, [record(0.5, 0.5), record(0.5, 0.5)])])
        one_run, scored = result.cells
        assert one_run == {"variant": "vanilla", "alpha": 0.1,
                           "runs": [{"seed": 0, **record(1.0, 1.0)}],
                           "failures": [{"seed": 1, "error": "diverged"}]}
        assert scored["score"] == pytest.approx(2 * 0.5)
        assert result.chosen_variant == "prior"
        with pytest.raises(RuntimeError, match=(
                "^no sweep cell completed at least two seeds$")):
            sweep_of([("vanilla", 0.1, [record(1.0, 1.0)])])

    def test_ties_go_to_the_smallest_alpha_first(self):
        # the larger alpha comes first, under the first variant
        runs = [record(0.5, 0.75), record(0.75, 0.5)]
        result = sweep_of([("vanilla", 0.2, runs), ("uniform", 0.2, runs),
                           ("prior", 0.1, runs), ("uniform", 0.1, runs)])
        assert len({cell["score"] for cell in result.cells}) == 1
        assert (result.chosen_variant, result.chosen_alpha) == ("uniform",
                                                                0.1)


def oracle_lower_bound(mean, sd, n):
    """The sweep's 95%-CI lower bound as a function of its own, before the
    bound moved into ``sweep_result``."""
    if n < 2:
        raise ValueError("need at least two values for a confidence interval")
    return mean - 1.96 * sd / math.sqrt(n)


def oracle_grid_log(settings, records, seed):
    """``run_grid_search``'s log loop before ``grid_log``: the oracle."""
    log = [dict(setting, **record) for setting, record
           in zip(settings, records)]
    scored = [entry for entry in log if "error" not in entry]
    if not scored:
        raise RuntimeError("every grid setting failed to train")
    best = max(scored, key=lambda entry: entry["val_topk"])
    return {"log": log, "best": best, "seed": seed}


def oracle_sweep(plan, records):
    """``run_ls_sweep``'s cell loop before ``sweep_result``, over the
    nested ``plan`` of each cell's ``TrainConfig``s: the oracle."""
    trained = iter(records)
    cells = []
    for train_configs in plan:
        seeded = [dict(seed=train_config.seed, **next(trained))
                  for train_config in train_configs]
        runs = [r for r in seeded if "error" not in r]
        failures = [r for r in seeded if "error" in r]
        cell = {**dataclasses.asdict(train_configs[0].smoothing),
                "runs": runs, "failures": failures}
        if len(runs) >= 2:
            for key in ("top1", "topk"):
                values = [r[f"val_{key}"] for r in runs]
                cell[f"mean_{key}"] = float(np.mean(values))
                cell[f"sd_{key}"] = float(np.std(values, ddof=1))
            top1, topk = (oracle_lower_bound(
                cell[f"mean_{key}"], cell[f"sd_{key}"], len(runs))
                for key in ("top1", "topk"))
            cell["score"] = top1 + topk
        cells.append(cell)
    scored = [c for c in cells if "score" in c]
    if not scored:
        raise RuntimeError("no sweep cell completed at least two seeds")

    def sort_key(cell):
        return (-cell["score"], cell["alpha"],
                VARIANT_ORDER.index(cell["variant"]))
    winner = min(scored, key=sort_key)
    return {"cells": cells, "chosen_variant": winner["variant"],
            "chosen_alpha": winner["alpha"]}


def bytes_or_error(build, *args):
    """``build(*args)`` as ``json.dumps(indent=1)`` bytes, or the message of
    the ``RuntimeError`` it raises."""
    try:
        payload = build(*args)
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"
    if not isinstance(payload, dict):
        payload = dataclasses.asdict(payload)
    return json.dumps(payload, indent=1)


# records as ``training_record`` returns them, from few values, so that
# ties and all-failed steps occur
RECORDS = st.one_of(
    st.fixed_dictionaries({"val_top1": st.sampled_from([0.0, 0.5, 0.75, 1.0]),
                           "val_topk": st.sampled_from([0.0, 0.5, 0.75, 1.0]),
                           "best_epoch": st.integers(1, 3)}),
    st.sampled_from([{"error": "non-finite loss at epoch 1, batch 0"},
                     {"error": "non-finite loss at epoch 2, batch 3"}]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       variants=st.lists(st.sampled_from(VARIANT_ORDER), min_size=1,
                         max_size=3, unique=True),
       alphas=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5]), min_size=1,
                       max_size=3, unique=True),
       seeds=st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True),
       settings_=st.lists(st.fixed_dictionaries(
           {"hidden": st.sampled_from([8, 16]),
            "dropout": st.sampled_from([0.1, 0.5])}), min_size=1, max_size=6))
def test_builders_give_the_bytes_of_the_step_loops(data, variants, alphas,
                                                   seeds, settings_):
    """``grid_log`` and ``sweep_result`` give the bytes of the loops they
    replaced, or raise the same ``RuntimeError``, on any records. The sweep
    oracle reads the records cell by cell from a nested plan; the builder
    groups the flat job list. The budget: 300 examples, about 2 s under
    the ``ci`` profile and ``-X dev``."""
    grid_records = data.draw(st.lists(RECORDS, min_size=len(settings_),
                                      max_size=len(settings_)))
    assert (bytes_or_error(grid_log, settings_, grid_records, 1337)
            == bytes_or_error(oracle_grid_log, settings_, grid_records, 1337))
    plan = [[TrainConfig(seed=seed, smoothing=SmoothingConfig(variant, alpha))
             for seed in seeds] for variant in variants for alpha in alphas]
    jobs = [job for cell in plan for job in cell]
    records = data.draw(st.lists(RECORDS, min_size=len(jobs),
                                 max_size=len(jobs)))
    assert (bytes_or_error(sweep_result, jobs, records)
            == bytes_or_error(oracle_sweep, plan, records))


class TestLsSweep:
    def test_sweep_runs_and_selects(self, dataset, tmp_path):
        config = toy_config(tmp_path)
        best = {"hidden": 16, "batch_size": 64}
        result = run_ls_sweep(best, config, dataset, toy_mu(),
                              build_featurizer(config, dataset))
        assert result.chosen_variant in ("vanilla", "uniform", "prior")
        assert result.chosen_alpha in config.alpha_grid
        cells = {(c["variant"], c["alpha"]): c for c in result.cells}
        assert len(cells) == 6  # 3 variants x 2 alphas
        saved = json.loads(
            (tmp_path / "runs/step2_sweep/sweep.json").read_text())
        assert saved["chosen_variant"] == result.chosen_variant

    def test_alpha_zero_cells_identical_across_variants(self, dataset,
                                                        tmp_path):
        config = toy_config(tmp_path, alpha_grid=[0.0])
        result = run_ls_sweep({"hidden": 16, "batch_size": 64}, config,
                              dataset, toy_mu(),
                              build_featurizer(config, dataset))
        runs = [c["runs"] for c in result.cells]
        assert runs[0] == runs[1] == runs[2]
        # degenerate tie resolves to the first variant in canonical order
        assert result.chosen_variant == "vanilla"
        assert result.chosen_alpha == 0.0

    def test_single_seed_rejected(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            config = toy_config(tmp_path, seeds=[0])
            run_ls_sweep({"hidden": 16}, config, dataset, toy_mu(),
                         build_featurizer(config, dataset))

    @staticmethod
    def diverge_when(monkeypatch, fails):
        """Make ``harness.train`` raise ``TrainingDiverged`` for each
        training whose ``TrainConfig`` satisfies ``fails``."""
        real_train = harness.train

        def train(*args, **kwargs):
            if fails(args[5]):
                raise TrainingDiverged(f"diverged at seed {args[5].seed}")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train", train)

    def test_failed_seed_is_recorded_and_left_out(self, dataset, tmp_path,
                                                  monkeypatch):
        self.diverge_when(monkeypatch, lambda c: c.seed == 1)
        config = toy_config(tmp_path, seeds=[0, 1, 2])
        result = run_ls_sweep({"hidden": 16, "batch_size": 64}, config,
                              dataset, toy_mu(),
                              build_featurizer(config, dataset))
        for cell in result.cells:
            assert cell["failures"] == [{"seed": 1,
                                         "error": "diverged at seed 1"}]
            assert [run["seed"] for run in cell["runs"]] == [0, 2]
            assert list(cell) == ["variant", "alpha", "runs", "failures",
                                  "mean_top1", "sd_top1", "mean_topk",
                                  "sd_topk", "score"]
            for run in cell["runs"]:
                assert list(run) == ["seed", "val_top1", "val_topk",
                                     "best_epoch"]
        saved = json.loads(
            (tmp_path / "runs/step2_sweep/sweep.json").read_text())
        assert saved["cells"] == result.cells

    def test_cell_of_one_run_is_never_chosen(self, dataset, tmp_path,
                                             monkeypatch):
        # every cell but (uniform, 0.1) keeps only its seed-0 run
        self.diverge_when(monkeypatch, lambda c: c.seed != 0 and (
            c.smoothing.variant, c.smoothing.alpha) != ("uniform", 0.1))
        config = toy_config(tmp_path, seeds=[0, 1, 2])
        result = run_ls_sweep({"hidden": 16, "batch_size": 64}, config,
                              dataset, toy_mu(),
                              build_featurizer(config, dataset))
        scored = [(c["variant"], c["alpha"]) for c in result.cells
                  if "score" in c]
        assert scored == [("uniform", 0.1)]
        assert (result.chosen_variant, result.chosen_alpha) == ("uniform",
                                                                0.1)
        for cell in result.cells:
            if "score" not in cell:
                assert list(cell) == ["variant", "alpha", "runs", "failures"]
                assert [run["seed"] for run in cell["runs"]] == [0]

    def test_no_scored_cell_raises_and_writes_nothing(self, dataset,
                                                      tmp_path, monkeypatch):
        self.diverge_when(monkeypatch, lambda c: c.seed == 1)
        config = toy_config(tmp_path, seeds=[0, 1])
        with pytest.raises(RuntimeError, match="at least two seeds"):
            run_ls_sweep({"hidden": 16, "batch_size": 64}, config, dataset,
                         toy_mu(), build_featurizer(config, dataset))
        assert not (tmp_path / "runs/step2_sweep/sweep.json").exists()


class TestRunFinal:
    def add_sd(self, dataset):
        site = SiteRecord(
            site_id=1, name="x", justification={},
            short_description="c1w0 c1w1 c1w2 c1w3 c1w4.",
            criteria=frozenset({1}))
        dataset.sd.extend(build_sd_set([site]))

    def test_end_to_end_rows(self, dataset, tmp_path):
        self.add_sd(dataset)
        config = toy_config(tmp_path)
        payload = run_final({"hidden": 16, "batch_size": 64},
                            SmoothingConfig("uniform", 0.1), config,
                            dataset, toy_mu(),
                            build_featurizer(config, dataset))
        assert set(payload["rows"]) == {"no_ls", "ls"}
        for row in payload["rows"].values():
            for key in ("val_top1", "val_topk", "val_macro_f1",
                        "test_top1", "test_topk", "test_macro_f1",
                        "sd_top1_match", "sd_topk_match"):
                assert 0.0 <= row[key] <= 1.0
        assert payload["sd_evaluated"]
        out = tmp_path / "runs/step3_final"
        assert (out / "final.json").exists()
        assert (out / "model_ls.json").exists()
        assert (out / "model_no_ls.json").exists()
        assert (out / "featurizer.json").exists()
        dataset.sd.clear()

    def test_an_empty_test_split_is_refused_before_training(
            self, dataset, tmp_path, monkeypatch):
        """A failed ``final`` leaves ``step3_final/`` as an earlier run
        left it."""
        config = toy_config(tmp_path)
        setting = {"hidden": 16, "batch_size": 64}
        run_final(setting, SmoothingConfig(), config, dataset, toy_mu(),
                  build_featurizer(config, dataset))
        out = tmp_path / "runs/step3_final"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = []
        monkeypatch.setattr(harness, "train",
                            lambda *args, **kwargs: calls.append(args))
        empty = dataclasses.replace(dataset, test=[])
        with pytest.raises(ValueError, match="^the 'test' split is empty"):
            run_final(setting, SmoothingConfig(), config, empty, toy_mu(),
                      build_featurizer(config, empty))
        assert calls == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_nothing_is_written_before_the_last_evaluation(
            self, dataset, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("evaluation failed")

        config = toy_config(tmp_path)
        monkeypatch.setattr(harness, "evaluate_features", fail)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            run_final({"hidden": 16, "batch_size": 64}, SmoothingConfig(),
                      config, dataset, toy_mu(),
                      build_featurizer(config, dataset))
        assert not (tmp_path / "runs").exists()

    def test_final_artifacts_are_relocatable(self, dataset, tmp_path,
                                             monkeypatch):
        config = toy_config(tmp_path)
        run_final({"hidden": 16, "batch_size": 64}, SmoothingConfig(),
                  config, dataset, toy_mu(), build_featurizer(config, dataset))
        moved = tmp_path / "elsewhere/final"
        moved.parent.mkdir()
        shutil.move(str(tmp_path / "runs/step3_final"), str(moved))
        monkeypatch.chdir(moved.parent)
        for path in (moved / "model_ls.json", "final/model_no_ls.json"):
            predictor = Predictor.load(path)
            assert predictor.featurizer.kind == "ngram"
            x = predictor.featurizer.transform_token_lists(
                [dataset.valid[0].tokens])
            ids, confs = top_classes(predict_proba(predictor.model, x), 3)
            assert ids.shape == confs.shape == (1, 3)

    @pytest.mark.parametrize("split", ["train", "valid"])
    def test_featurize_names_an_empty_training_split(self, dataset, tmp_path,
                                                     split):
        featurizer = build_featurizer(toy_config(tmp_path), dataset)
        empty = dataclasses.replace(dataset, **{split: []})
        with pytest.raises(ValueError, match=(
                f"^the '{split}' split is empty; training needs train and "
                "valid samples$")):
            featurize(featurizer, empty)

    def test_train_parentals_are_the_rows_samples_held(self, dataset,
                                                       tmp_path):
        """``featurize`` builds the train split's parental rows from its
        samples' criteria, with the float64 bytes of the rows each sample
        held when it stored its own ``label_rows`` row."""
        criteria = itertools.cycle([[1], [2, 7], [10, 3, 3], [4, 1]])
        mixed = dataclasses.replace(dataset, train=[
            make_sample(s.tokens, s.sentence_label, next(criteria), s.site_id)
            for s in dataset.train])
        got = featurize(build_featurizer(toy_config(tmp_path), mixed), mixed)
        # one row per sample, then stacked, as samples and featurize once did
        want = np.stack([label_rows([s.parental])[0] for s in mixed.train])
        assert got.train_parentals.dtype == np.float64
        assert got.train_parentals.shape == (len(mixed.train), NUM_CLASSES)
        assert got.train_parentals.tobytes() == want.tobytes()

    def test_absolute_featurizer_ref_still_loads(self, dataset, tmp_path,
                                                 monkeypatch):
        config = toy_config(tmp_path)
        payload = run_final({"hidden": 16, "batch_size": 64},
                            SmoothingConfig(), config, dataset, toy_mu(),
                            build_featurizer(config, dataset))
        final_dir = tmp_path / "runs/step3_final"
        model = load_checkpoint(final_dir / "model_ls.json")
        model.featurizer_ref = str(final_dir / "featurizer.json")
        save_checkpoint(model, tmp_path / "abs.json")
        monkeypatch.chdir(final_dir)
        predictor = Predictor.load(tmp_path / "abs.json")
        assert predictor.featurizer.dimension == model.params.W1.shape[0]

    def test_each_split_featurized_once(self, dataset, tmp_path,
                                        monkeypatch):
        self.add_sd(dataset)
        use_cpus(monkeypatch, 1)
        config = toy_config(tmp_path)
        featurizer = build_featurizer(config, dataset)
        events = []
        real_transform, real_train = Featurizer.transform, harness.train

        def transform(self, samples):
            events.append(next(name for name in ("train", "valid", "test",
                                                 "sd")
                               if samples is dataset.split(name)))
            return real_transform(self, samples)

        def train(*args, **kwargs):
            events.append("fit")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(Featurizer, "transform", transform)
        monkeypatch.setattr(harness, "train", train)
        try:
            payload = run_final({"hidden": 16, "batch_size": 64},
                                SmoothingConfig("uniform", 0.1), config,
                                dataset, toy_mu(), featurizer)
            monkeypatch.undo()
            assert events == ["train", "valid", "test", "sd", "fit", "fit"]
            # the shared matrices score as a per-model featurization does
            for label, row in payload["rows"].items():
                model = load_checkpoint(tmp_path / "runs/step3_final"
                                        / f"model_{label}.json")
                for split, key in (("valid", "valid_report"),
                                   ("test", "test_report")):
                    expected = harness.evaluate_model(
                        model, featurizer, dataset.split(split), k=config.k)
                    assert row[key] == expected.to_dict()
                sd = harness.evaluate_model(model, featurizer, dataset.sd,
                                            k=config.k, multilabel=True)
                assert row["sd_top1_match"] == sd.top1_match
                assert row["sd_topk_match"] == sd.topk_match
        finally:
            dataset.sd.clear()

    def test_missing_sd_flagged(self, dataset, tmp_path):
        config = toy_config(tmp_path)
        payload = run_final({"hidden": 16, "batch_size": 64},
                            SmoothingConfig(), config, dataset, toy_mu(),
                            build_featurizer(config, dataset))
        assert not payload["sd_evaluated"]
        assert "sd_top1_match" not in payload["rows"]["no_ls"]


class TestExperimentConfig:
    def test_from_json_reads_every_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"baseline": "boe", "grid_seed": 7,
                                    "embeddings_path": "vectors.txt",
                                    "setting": {"hidden": 8}}))
        config = ExperimentConfig.from_json(path)
        assert (config.baseline, config.grid_seed) == ("boe", 7)
        assert config.embeddings_path == "vectors.txt"
        assert config.setting == {"hidden": 8}
        assert config.smoothing == SmoothingConfig()

    def test_from_json_names_an_unknown_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"baseline": "ngram",
                                    "learning_rte": 0.1}))
        with pytest.raises(ValueError, match="'learning_rte'"):
            ExperimentConfig.from_json(path)

    def test_a_smoothing_dict_is_rejected(self):
        with pytest.raises(ValueError, match="^smoothing must be a "
                           "SmoothingConfig, got dict$"):
            ExperimentConfig(smoothing={"variant": "bogus"})

    @settings(deadline=None)
    @given(grid=settings_of(lambda v: st.lists(v, min_size=1, max_size=2),
                            2).filter(bool),
           setting=settings_of(lambda v: v, 2),
           seeds=st.lists(values_of("seed"), min_size=2, max_size=3,
                          unique_by=float),
           grid_seed=values_of("seed"),
           learning_rate=values_of("learning_rate"),
           alpha=values_of("alpha"))
    @example(grid={"hidden": [8]}, setting={}, seeds=[-1, 0], grid_seed=0,
             learning_rate=0.01, alpha=0.1)
    @example(grid={"l2": [-1.0]}, setting={}, seeds=[0, 1], grid_seed=0,
             learning_rate=0.01, alpha=0.1)
    @example(grid={"hidden": [8]}, setting={}, seeds=[0, 1], grid_seed=0,
             learning_rate=math.nan, alpha=0.1)
    @example(grid={"hidden": [8]}, setting={}, seeds=[0, 1], grid_seed=0,
             learning_rate=0.01, alpha=math.inf)
    @example(grid={"batch_size": [1, 1.0]}, setting={}, seeds=[0, 1],
             grid_seed=0, learning_rate=0.01, alpha=0.1)
    def test_an_accepted_config_trains_and_a_rejected_one_names_its_key(
            self, tiny_data, grid, setting, seeds, grid_seed, learning_rate,
            alpha):
        """``alpha`` is both the ``smoothing`` alpha and the one
        ``alpha_grid`` value; ``learning_rate`` is the run field."""
        def bad(key, value):
            if key == "dropout":
                return not 0 <= value < 1
            if key in ("learning_rate", "l2", "alpha"):
                return not 0 <= value < math.inf
            low = 0 if key == "seed" else 1
            return key in ("hidden", "batch_size", "seed") and not (
                float(value).is_integer() and value >= low)

        # a value equal (==, so 1 and 1.0) to an earlier one is repeated
        named = {key for key, values in grid.items()
                 for i, value in enumerate(values)
                 if bad(key, value) or value in values[:i]}
        named |= {key for key, value in setting.items() if bad(key, value)}
        named |= {"seeds"} if any(bad("seed", s) for s in seeds) else set()
        named |= {"grid_seed"} if bad("seed", grid_seed) else set()
        named |= {key for key, value in [("learning_rate", learning_rate),
                                         ("alpha", alpha)] if bad(key, value)}

        def build():
            return ExperimentConfig(
                grid=grid, setting=setting, seeds=seeds, grid_seed=grid_seed,
                learning_rate=learning_rate, alpha_grid=[alpha],
                smoothing=SmoothingConfig("vanilla", alpha), max_epochs=1)

        if named:
            with pytest.raises(ValueError) as excinfo:
                build()
            assert any(key in str(excinfo.value) for key in named)
            return
        config = build()
        keys = sorted(grid)
        trainings = [(dict(zip(keys, values)), SmoothingConfig(),
                      config.grid_seed)
                     for values in itertools.product(*map(grid.get, keys))]
        trainings += [(setting, config.smoothing, seed)
                      for seed in [grid_seed, *seeds]]
        for values, smoothing, seed in trainings:
            train_config = config.train_config(values, smoothing, seed)
            try:
                with np.errstate(all="ignore"):
                    harness.fit(tiny_data, train_config, None)
            except TrainingDiverged:
                pass

    def test_setting_of_keeps_setting_keys_in_order(self):
        entry = {"l2": 0.0, "batch_size": 64, "hidden": 16,
                 "val_top1": 0.5, "val_topk": 0.9, "best_epoch": 3}
        assert list(harness.setting_of(entry).items()) == [
            ("l2", 0.0), ("batch_size", 64), ("hidden", 16)]


@pytest.mark.usefixtures("canned_proba")
class TestMine:
    def test_identical_top3_passes(self):
        outputs = {"sa": [(1, 0.5), (2, 0.3), (3, 0.1)]}
        kept = mine(["sa text"], StubPredictor(outputs),
                    StubPredictor(outputs))
        assert len(kept) == 1
        assert kept[0]["iou"] == 1.0

    def test_iou_boundary_rejected(self):
        # sharing 2 of 3 classes: IoU = 2/4 = 0.5, strictly-greater fails
        a = {"sa": [(1, 0.5), (2, 0.3), (3, 0.1)]}
        b = {"sa": [(1, 0.5), (2, 0.3), (4, 0.1)]}
        kept = mine(["sa text"], StubPredictor(a), StubPredictor(b))
        assert kept == []

    def test_low_confidence_rejected(self):
        a = {"sa": [(1, 0.3), (2, 0.2), (3, 0.1)]}
        kept = mine(["sa text"], StubPredictor(a), StubPredictor(a))
        assert kept == []

    def test_zero_thresholds_pass_everything(self):
        a = {"sa": [(1, 0.2), (2, 0.1), (3, 0.05)],
             "sb": [(4, 0.1), (5, 0.1), (6, 0.1)]}
        b = {"sa": [(1, 0.2), (8, 0.1), (9, 0.05)],
             "sb": [(4, 0.1), (5, 0.1), (6, 0.1)]}
        kept = mine(["sa a", "sb b"], StubPredictor(a), StubPredictor(b),
                    confidence_threshold=0.0, iou_threshold=0.0)
        assert len(kept) == 2

    def test_empty_input(self):
        assert mine([], StubPredictor({}), StubPredictor({})) == []

    @pytest.mark.parametrize("confidence,iou,name", [
        (math.nan, 0.5, "confidence_threshold"),
        (-0.1, 0.5, "confidence_threshold"),
        (0.8, 1.5, "iou_threshold"),
        (0.8, math.nan, "iou_threshold"),
    ])
    def test_threshold_outside_0_1_is_refused(self, confidence, iou, name):
        """Before any line is read, and on empty input too: such a
        threshold keeps everything or nothing."""
        def unread():
            raise AssertionError("read a line despite a bad threshold")
            yield

        a = {"sa": [(1, 0.5), (2, 0.3), (3, 0.1)]}
        for lines in ([], ["sa text"], unread()):
            with pytest.raises(ValueError, match=f"^{name} must be in "):
                mine(lines, StubPredictor(a), StubPredictor(a),
                     confidence_threshold=confidence, iou_threshold=iou)

    def test_confidence_sum_at_threshold_rejected(self):
        # 0.5 + 0.25 + 0.125 is exactly 0.875: strictly-greater fails
        a = {"sa": [(1, 0.5), (2, 0.25), (3, 0.125)]}
        assert mine(["sa text"], StubPredictor(a), StubPredictor(a),
                    confidence_threshold=0.875) == []
        kept = mine(["sa text"], StubPredictor(a), StubPredictor(a),
                    confidence_threshold=math.nextafter(0.875, 0))
        assert [k["confidence_a"] for k in kept] == [0.875]

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_row_rule_on_top_classes(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        keys = ["".join(chr(97 + int(d)) for d in f"{i:04d}")
                for i in range(n)]
        texts = [f"{key} text" for key in keys]
        # peaked and flat rows, some with tied probabilities; model b is
        # model a plus noise, so both agreement and disagreement occur
        base = rng.normal(size=(n, NUM_CLASSES)) * rng.uniform(
            0.1, 4.0, size=(n, 1))
        tops = []
        for noise in (0.0, 0.5):
            logits = base + noise * rng.normal(size=base.shape)
            logits[::7, 4:8] = logits[::7, [4]]
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            ids, confs = top_classes(probs, 3)
            tops.append({key: list(zip(row_ids, row_confs))
                         for key, row_ids, row_confs
                         in zip(keys, ids.tolist(), confs.tolist())})
        a, b = tops
        # thresholds equal to some rows' sums put rows exactly on the bound
        sums = sorted(map(left_to_right_sum, [*a.values(), *b.values()]))
        sizes = []
        for confidence in (0.0, sums[n // 2], sums[n], 0.6):
            for iou in (0.0, 0.2, 0.5):
                kept = mine(texts, StubPredictor(a), StubPredictor(b),
                            confidence_threshold=confidence,
                            iou_threshold=iou)
                assert kept == per_row_rule(texts, a, b, confidence, iou)
                sizes.append(len(kept))
        assert 0 < min(sizes) and max(sizes) < n

    def test_fixture_against_brute_force(self):
        rng = np.random.default_rng(9)
        sentences = [f"s{chr(97 + i)} filler words" for i in range(10)]
        a, b = {}, {}
        for i in range(10):
            key = f"s{chr(97 + i)}"
            classes_a = list(rng.choice(np.arange(1, 12), size=3,
                                        replace=False))
            # half the time agree fully, otherwise perturb
            if i % 2 == 0:
                classes_b = list(classes_a)
            else:
                classes_b = classes_a[:2] + [int(c) for c in
                                             rng.choice([c for c in range(1, 12)
                                                         if c not in classes_a],
                                                        size=1)]
            conf = float(rng.uniform(0.2, 0.4))
            a[key] = [(int(c), conf) for c in classes_a]
            b[key] = [(int(c), conf) for c in classes_b]
        kept = mine(sentences, StubPredictor(a), StubPredictor(b),
                    confidence_threshold=0.8, iou_threshold=0.5)
        # brute-force application of both rules
        expected = []
        for s in sentences:
            key = s.split()[0]
            sa = {c for c, _ in a[key]}
            sb = {c for c, _ in b[key]}
            ca = sum(v for _, v in a[key])
            cb = sum(v for _, v in b[key])
            iou = len(sa & sb) / len(sa | sb)
            if ca > 0.8 and cb > 0.8 and iou > 0.5:
                expected.append(s)
        assert [k["sentence"] for k in kept] == expected


def left_to_right_sum(top):
    """``sum(c for _, c in top)`` as Python 3.11 and earlier add it (3.12's
    ``sum`` compensates the rounding of float terms)."""
    total = 0
    for _, c in top:
        total += c
    return total


def per_row_rule(texts, tops_a, tops_b, confidence, iou_threshold):
    """Reference: the agreement rule on per-row ``(id, confidence)`` lists,
    keyed by each line's first token."""
    kept = []
    for text in texts:
        top_a, top_b = tops_a[text.split()[0]], tops_b[text.split()[0]]
        conf_a, conf_b = left_to_right_sum(top_a), left_to_right_sum(top_b)
        set_a = {cls for cls, _ in top_a}
        set_b = {cls for cls, _ in top_b}
        iou = len(set_a & set_b) / len(set_a | set_b)
        if conf_a > confidence and conf_b > confidence and iou > iou_threshold:
            kept.append({"sentence": text,
                         "predictions_a": top_a, "predictions_b": top_b,
                         "confidence_a": conf_a, "confidence_b": conf_b,
                         "iou": iou})
    return kept


def featurizer_of(kind: str) -> Featurizer:
    """A small featurizer of each kind: five grams or three 2-d tokens."""
    if kind == "ngram":
        return Featurizer(kind="ngram", vocab=fit_tfidf(
            [make_sample(doc.split(), 1) for doc in ("a b", "a c")],
            min_df=1))
    return Featurizer(kind="boe", table=EmbeddingTable(
        {"a": 0, "b": 1, "<unk>": 2},
        np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0]])))


def write_float_list_featurizer(featurizer: Featurizer, path) -> None:
    """The featurizer file as written before arrays were base64-encoded:
    every float a JSON number."""
    if featurizer.kind == "ngram":
        index = featurizer.vocab.gram_to_index
        payload = {"type": "ngram", "grams": sorted(index, key=index.get),
                   "idf": featurizer.vocab.idf.tolist(), "min_df": 1}
    else:
        payload = {"type": "boe", "dimension": featurizer.table.dimension,
                   "vectors": {tok: vec.tolist() for tok, vec in
                               featurizer.table.word_to_vector.items()}}
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestFeaturizer:
    def test_ngram_round_trip(self, dataset, tmp_path):
        config = toy_config(tmp_path)
        featurizer = build_featurizer(config, dataset)
        path = tmp_path / "feat.json"
        featurizer.save(path)
        loaded = Featurizer.load(path)
        x1 = featurizer.transform_token_lists([dataset.valid[0].tokens])
        x2 = loaded.transform_token_lists([dataset.valid[0].tokens])
        np.testing.assert_allclose(x1.toarray(), x2.toarray())

    def test_ngram_file_is_the_vocabulary_file_plus_type(self, tmp_path):
        vocab = fit_tfidf([make_sample(doc.split(), 1)
                           for doc in ("héritage b", "héritage c")], min_df=1)
        path = tmp_path / "feat.json"
        Featurizer(kind="ngram", vocab=vocab).save(path)
        grams = sorted(vocab.gram_to_index, key=vocab.gram_to_index.get)
        assert "héritage" in grams
        assert path.read_bytes() == json.dumps(
            {"type": "ngram", "grams": grams, "idf": [len(grams)]},
            ensure_ascii=False).encode("utf-8") + b"\n" + (
                vocab.idf.astype("<f8").tobytes())
        loaded = Featurizer.load(path).vocab
        assert loaded.gram_to_index == vocab.gram_to_index
        np.testing.assert_array_equal(loaded.idf, vocab.idf)

    def test_boe_round_trip(self, dataset, tmp_path):
        emb = tmp_path / "emb.txt"
        tokens = sorted({t for s in dataset.train for t in s.tokens})
        rng = np.random.default_rng(0)
        emb.write_text("\n".join(
            f"{t} " + " ".join(f"{v:.4f}" for v in rng.normal(size=5))
            for t in tokens) + "\n")
        config = toy_config(tmp_path, baseline="boe",
                            embeddings_path=str(emb))
        featurizer = build_featurizer(config, dataset)
        assert featurizer.dimension == 5
        path = tmp_path / "feat.json"
        featurizer.save(path)
        loaded = Featurizer.load(path)
        np.testing.assert_allclose(
            featurizer.transform_token_lists([dataset.valid[0].tokens]),
            loaded.transform_token_lists([dataset.valid[0].tokens]))

    def test_round_trips_are_bit_exact(self, tmp_path):
        """Signed zeros, subnormals and the largest magnitudes; an inf or a
        NaN is refused on load (the test below)."""
        tiny, huge = np.finfo(float).tiny, 1.7976931348623157e308
        table = EmbeddingTable({"b": 0, "a": 1, "<unk>": 2}, np.array([
            [-0.0, 5e-324, tiny], [-tiny / 3, 0.1, -5e-324],
            [0.0, huge, -huge]]))
        vocab = fit_tfidf([make_sample(doc.split(), 1)
                           for doc in ("a b c", "a d", "b e f")], min_df=1)
        vocab.idf[:5] = [-0.0, 5e-324, -tiny / 3, huge, -huge]
        boe, ngram = tmp_path / "boe.json", tmp_path / "ngram.json"
        Featurizer(kind="boe", table=table).save(boe)
        Featurizer(kind="ngram", vocab=vocab).save(ngram)
        loaded = Featurizer.load(boe).table
        assert list(loaded.token_to_row.items()) == [("b", 0), ("a", 1),
                                                     ("<unk>", 2)]
        assert loaded.dimension == 3 and loaded.vectors.flags.c_contiguous
        np.testing.assert_array_equal(loaded.vectors.view(np.uint64),
                                      table.vectors.view(np.uint64))
        loaded_vocab = Featurizer.load(ngram).vocab
        assert loaded_vocab.gram_to_index == vocab.gram_to_index
        for array in (loaded.vectors, loaded_vocab.idf):
            assert array.flags.writeable and array.flags.c_contiguous
        np.testing.assert_array_equal(loaded_vocab.idf.view(np.uint64),
                                      vocab.idf.view(np.uint64))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind,key", [("ngram", "idf"),
                                          ("boe", "vectors")])
    def test_a_non_finite_array_names_the_file(self, tmp_path, kind, key,
                                               value):
        """``fit_tfidf`` gives a finite idf and ``load_embeddings`` refuses
        a non-finite vector, so an array with an inf or NaN is a damaged
        file."""
        path = tmp_path / "feat.json"
        featurizer_of(kind).save(path)
        path.write_bytes(path.read_bytes()[:-8]
                         + np.array(value, "<f8").tobytes())
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: '{key}' holds a non-finite "
                "value$")):
            Featurizer.load(path)

    def test_boe_file_is_tokens_plus_one_matrix(self, tmp_path):
        vectors = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0]])
        path = tmp_path / "feat.json"
        Featurizer(kind="boe", table=EmbeddingTable(
            {"zeta": 0, "alpha": 1, "<unk>": 2}, vectors)).save(path)
        head, body = path.read_bytes().split(b"\n", 1)
        payload = json.loads(head)
        assert list(payload) == ["type", "tokens", "vectors"]
        assert payload["type"] == "boe"
        assert payload["tokens"] == ["zeta", "alpha", "<unk>"]
        assert payload["vectors"] == [3, 2]
        assert body == vectors.astype("<f8").tobytes()

    @pytest.mark.parametrize("rows", [1, 4, 1 << 15])
    def test_file_is_json_dump_of_the_stored_form(self, tmp_path, rows):
        """The stored form: ``json.dumps(head, ensure_ascii=False)`` with
        the array's shape, a line break, then the array's little-endian
        float64 bytes in C order; a BoE row holds 7 values, and the table
        and vocabulary hold 1, 4 or 32768 rows."""
        rng = np.random.default_rng(5)
        vectors, idf = rng.normal(size=(rows, 7)), rng.normal(size=rows)
        tokens = [*("héritage" if i == 0 else f"t{i}"
                    for i in range(rows - 1)), "<unk>"]
        grams = [f"g{i}" if i % 3 else f"g{i} é" for i in range(rows)]
        path = tmp_path / "feat.json"
        for featurizer, head, array in (
                (Featurizer("boe", table=EmbeddingTable(
                    {t: i for i, t in enumerate(tokens)}, vectors)),
                 {"type": "boe", "tokens": tokens, "vectors": [rows, 7]},
                 vectors),
                (Featurizer("ngram", vocab=TfidfVocabulary(
                    {g: i for i, g in enumerate(grams)}, idf)),
                 {"type": "ngram", "grams": grams, "idf": [rows]}, idf)):
            featurizer.save(path)
            assert path.read_bytes() == json.dumps(
                head, ensure_ascii=False).encode("utf-8") + b"\n" + b"".join(
                    row.astype("<f8").tobytes() for row in array)

    def test_boe_file_bytes_are_pinned(self, tmp_path):
        """``load_embeddings`` then ``save`` writes these bytes: a repeated
        token keeps its first row and takes its last vector, a kept
        ``"<unk>"`` line keeps its row and takes the mean, and a token
        outside the corpus is dropped."""
        emb = tmp_path / "vectors.txt"
        emb.write_text("héritage 0.5 -0.25 1e-3\n<unk> 9 9 9\nrare 7 7 7\n"
                       "wall -0.0 0.1 3\nhéritage 2 4 8\n"
                       "town 1e300 -1.5 0.30000000000000004\n",
                       encoding="utf-8")
        table = load_embeddings(emb, {"héritage", "<unk>", "wall", "town"})
        path = tmp_path / "feat.json"
        Featurizer(kind="boe", table=table).save(path)
        assert path.read_bytes() == (
            '{"type": "boe", "tokens": ["héritage", "<unk>", "wall", "town"], '
            '"vectors": [4, 3]}\n').encode("utf-8") + bytes.fromhex(
                "000000000000004000000000000010400000000000002040"
                "9c7500883ce4177e3333333333330740cdcccccccc4c1440"
                "00000000000000809a9999999999b93f0000000000000840"
                "9c7500883ce4377e000000000000f8bf343333333333d33f")

    def test_a_file_of_the_earlier_form_says_to_rebuild_it(self, tmp_path):
        """Files as written before raw bodies, one JSON object each with its
        array base64 in ``{"data", "shape"}``: each is a ``ValueError``
        naming it and saying to rebuild it."""
        ngram = ('{"type": "ngram", "grams": ["héritage", "a b", "b"], '
                 '"idf": {"data": "AAAAAAAA+D8AAAAAAAAAQAAAAAAAAPQ/", '
                 '"shape": [3]}}')
        boe = ('{"type": "boe", "tokens": ["wall", "<unk>"], "vectors": '
               '{"data": "AAAAAAAA4D8AAAAAAADwvwAAAAAAANA/mpmZmZmZuT8=", '
               '"shape": [2, 2]}}')
        path = tmp_path / "feat.json"
        for text in (ngram, boe):
            path.write_bytes(text.encode("utf-8"))
            with pytest.raises(ValueError, match=(
                    f"^{re.escape(str(path))}: no line break ends the head, "
                    "as in a file of an earlier version; rebuild it with "
                    "`ouvclf final` or `ouvclf train`$")):
                Featurizer.load(path)

    @pytest.mark.parametrize("kind,edit,match", [
        ("ngram", lambda p: p.update(idf="AAAAAAAA8D8="),
         "'idf' has shape 'AAAAAAAA8D8=', not a list of integers >= 0"),
        ("ngram", lambda p: p.update(idf=[4]),
         r"the body holds 40 bytes, but the shapes \[\[4\]\] need 32"),
        ("ngram", lambda p: p["grams"].pop(), "grams"),
        ("boe", lambda p: p["tokens"].append("extra"), "tokens"),
        ("boe", lambda p: p.update(vectors=[6]), "'vectors' has shape \\[6\\]"),
        ("ngram", lambda p: p.update(type="bpe"), "'bpe'"),
        ("ngram", lambda p: p.update(idf={"data": "AAAA", "shape": [5]}),
         "'idf' has shape {.*}, not a list"),
        ("ngram", lambda p: p["grams"].__setitem__(1, "a b c"),
         "'a b c' holds more than one space"),
        ("ngram", lambda p: p["grams"].__setitem__(4, "c \0d e"),
         r"'c \\x00d e' holds more than one space"),
        ("ngram", lambda p: p["grams"].__setitem__(0, 7), "expected str"),
        ("boe", lambda p: p["tokens"].__setitem__(0, 7), "expected str"),
        ("ngram", lambda p: p.update(grams="ab"),
         "'grams' is not a list"),
        ("boe", lambda p: p["tokens"].__setitem__(1, "a"),
         "token 'a' is repeated"),
        ("boe", lambda p: p["tokens"].__setitem__(2, "c"),
         "no '<unk>' token"),
        ("ngram", lambda p: p["grams"].__setitem__(3, "a"),
         "gram 'a' is repeated"),
        ("ngram", lambda p: p.update(idf=[5.0]),
         r"'idf' has shape \[5.0\], not a list of integers >= 0"),
        ("ngram", lambda p: p.update(idf=[True, 5]),
         r"'idf' has shape \[True, 5\], not a list of integers >= 0"),
        ("boe", lambda p: p.update(vectors=[-3, -2]),
         r"'vectors' has shape \[-3, -2\], not a list of integers >= 0"),
        ("boe", lambda p: p.pop("vectors"), "missing key 'vectors'"),
    ], ids=["bad-base64", "byte-count", "gram-count", "token-count",
            "not-a-matrix", "unknown-type", "shape-an-object",
            "gram-of-two-spaces", "spaced-gram-with-nul", "gram-not-a-str",
            "token-not-a-str", "grams-a-str",
            "repeated-token", "no-unk-token", "repeated-gram",
            "float-shape", "bool-shape", "negative-shape", "no-array"])
    def test_malformed_file_raises_value_error(self, tmp_path, kind, edit,
                                               match):
        path = tmp_path / "feat.json"
        featurizer_of(kind).save(path)
        edit_head(path, edit)
        with pytest.raises(ValueError, match=match) as excinfo:
            Featurizer.load(path)
        assert str(path) in str(excinfo.value)

    def test_load_builds_no_id_tables(self, tmp_path):
        """The n-gram lookup tables are built by the first transform, not
        by ``load``, which the set-up of every mining run pays."""
        path = tmp_path / "feat.json"
        featurizer_of("ngram").save(path)
        loaded = Featurizer.load(path)
        assert "id_tables" not in loaded.vocab.__dict__
        loaded.transform_token_lists([["a", "b"]])
        assert "id_tables" in loaded.vocab.__dict__
        assert [f.name for f in dataclasses.fields(loaded.vocab)] == [
            "gram_to_index", "idf"]
        assert "id_tables" not in repr(loaded.vocab)

    @pytest.mark.parametrize("kind", ["ngram", "boe"])
    def test_two_loads_compare_without_raising(self, tmp_path, kind):
        """Vocabularies and embedding tables hold arrays, so they compare
        by identity: ``==`` gives a bool instead of numpy's ambiguous
        truth value."""
        path = tmp_path / "feat.json"
        featurizer_of(kind).save(path)
        a, b = Featurizer.load(path), Featurizer.load(path)
        part = "vocab" if kind == "ngram" else "table"
        assert (getattr(a, part) == getattr(b, part)) is False
        assert (getattr(a, part) == getattr(a, part)) is True
        assert (a == b) is False

    @pytest.mark.parametrize("kind", ["ngram", "boe"])
    def test_old_float_list_file_is_rejected(self, tmp_path, kind):
        path = tmp_path / "feat.json"
        write_float_list_featurizer(featurizer_of(kind), path)
        with pytest.raises(ValueError, match="rebuild it") as excinfo:
            Featurizer.load(path)
        assert str(path) in str(excinfo.value)

    def test_failed_save_keeps_old_file(self, dataset, tmp_path):
        featurizer = build_featurizer(toy_config(tmp_path), dataset)
        path = tmp_path / "feat.json"
        featurizer.save(path)
        before = path.read_bytes()
        # not JSON-serializable: fails before the temp file is written
        featurizer.vocab.gram_to_index[object()] = featurizer.dimension
        with pytest.raises(TypeError):
            featurizer.save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["feat.json"]


class TestReport:
    def test_missing_artifacts(self, tmp_path):
        with pytest.raises(FileNotFoundError) as excinfo:
            report(tmp_path)
        assert str(excinfo.value) == (
            f"{tmp_path}: missing artifacts: step1_grid/log.json, "
            "step2_sweep/sweep.json, step3_final/final.json")

    def test_full_pipeline_report(self, dataset, tmp_path):
        config = toy_config(tmp_path)
        featurizer = build_featurizer(config, dataset)
        best = run_grid_search(config, dataset, featurizer)
        result = run_ls_sweep(best, config, dataset, toy_mu(), featurizer)
        run_final(best, SmoothingConfig(result.chosen_variant,
                                        result.chosen_alpha),
                  config, dataset, toy_mu(), featurizer)
        out = report(config.output_dir)
        assert "chosen LS" in out["text"]
        assert (tmp_path / "runs/summary.json").exists()
        curves = (tmp_path / "runs/curves.csv").read_text().splitlines()
        assert curves[0] == "row,epoch,train_loss,val_top1,val_topk"
        assert len(curves) > 2
        # sweep table rows cross-check against the stored sweep result
        saved = json.loads(
            (tmp_path / "runs/step2_sweep/sweep.json").read_text())
        scored = [c for c in saved["cells"] if "score" in c]
        for cell in scored:
            assert f"score={cell['score']:.4f}" in out["text"]


def test_pipeline_determinism(dataset, tmp_path):
    config_a = toy_config(tmp_path / "a")
    config_b = toy_config(tmp_path / "b")
    best_a = run_grid_search(config_a, dataset,
                             build_featurizer(config_a, dataset))
    best_b = run_grid_search(config_b, dataset,
                             build_featurizer(config_b, dataset))
    assert best_a == best_b
    log_a = (tmp_path / "a/runs/step1_grid/log.json").read_text()
    log_b = (tmp_path / "b/runs/step1_grid/log.json").read_text()
    assert log_a == log_b


def test_every_step_trains_on_the_featurizer_it_is_given(dataset, tmp_path,
                                                         monkeypatch):
    """No step builds a featurizer of its own: with ``build_featurizer``
    refusing, the three steps featurize with the one given (built at
    another ``min_df`` than the config's), and ``final`` saves it."""
    config = toy_config(tmp_path)
    featurizer = build_featurizer(toy_config(tmp_path, min_df=2), dataset)
    featurized, real_featurize = [], harness.featurize

    def refuse(*args):
        raise AssertionError("a step built its own featurizer")

    def featurize(given, data):
        featurized.append(given)
        return real_featurize(given, data)

    monkeypatch.setattr(harness, "build_featurizer", refuse)
    monkeypatch.setattr(harness, "featurize", featurize)
    best = run_grid_search(config, dataset, featurizer)
    sweep = run_ls_sweep(best, config, dataset, toy_mu(), featurizer)
    run_final(best, SmoothingConfig(sweep.chosen_variant, sweep.chosen_alpha),
              config, dataset, toy_mu(), featurizer)
    assert len(featurized) == 3
    assert all(given is featurizer for given in featurized)
    featurizer.save(tmp_path / "given.json")
    assert ((tmp_path / "runs/step3_final/featurizer.json").read_bytes()
            == (tmp_path / "given.json").read_bytes())


class TestSettingKeys:
    def test_grid_typo_key_fails_before_training(self, dataset, tmp_path,
                                                 monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained despite a bad grid key")

        monkeypatch.setattr(harness, "train", no_training)
        with pytest.raises(ValueError, match="'hiden'"):
            config = toy_config(tmp_path, grid={"hiden": [8, 64]})
            run_grid_search(config, dataset, build_featurizer(config, dataset))
        assert not (tmp_path / "runs").exists()

    def test_sweep_and_final_check_the_setting(self, dataset, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(harness, "train", None)  # never reached
        config = toy_config(tmp_path)
        with pytest.raises(ValueError, match="'batchsize'"):
            run_ls_sweep({"hidden": 16, "batchsize": 64}, config, dataset,
                         toy_mu(), build_featurizer(config, dataset))
        with pytest.raises(ValueError, match="'l_2'"):
            run_final({"l_2": 0.0}, SmoothingConfig(), config, dataset,
                      toy_mu(), build_featurizer(config, dataset))

    @pytest.mark.parametrize("overrides, match", [
        ({"variants": ["vanilla", "unifrom"]}, "'unifrom'"),
        ({"alpha_grid": [0.0, -0.1]}, "alpha must be non-negative"),
        ({"seeds": [0, 1, 0]}, "seeds: 0 is repeated"),
    ] + [pytest.param(overrides, f"^{re.escape(message)}$", id=name)
         for name, overrides, message in [
        ("grid-dropout", {"grid": {"dropout": [0.2, 1.5]}},
         "dropout must be in [0, 1), got 1.5"),
        ("grid-zero-hidden", {"grid": {"hidden": [16, 0]}},
         "hidden must be >= 1, got 0"),
        ("grid-hidden-16.5", {"grid": {"hidden": [16.5]}},
         "setting 'hidden' must be an integer, got 16.5"),
        ("grid-hidden-inf", {"grid": {"hidden": [math.inf]}},
         "setting 'hidden' must be an integer, got inf"),
        ("grid-hidden-nan", {"grid": {"hidden": [math.nan]}},
         "setting 'hidden' must be an integer, got nan"),
        ("grid-zero-batch", {"grid": {"batch_size": [0]}},
         "batch_size must be >= 1, got 0"),
        ("grid-batch-64.9", {"grid": {"batch_size": [64.9]}},
         "setting 'batch_size' must be an integer, got 64.9"),
        ("setting-zero-hidden", {"setting": {"hidden": 0}},
         "hidden must be >= 1, got 0"),
        ("negative-seed", {"seeds": [0, -1]},
         "seeds: seed must be >= 0, got -1"),
        ("fractional-seed", {"seeds": [0, 1.5]},
         "seeds: setting 'seed' must be an integer, got 1.5"),
        ("negative-grid-seed", {"grid_seed": -3},
         "grid_seed: seed must be >= 0, got -3"),
    ]])
    def test_sweep_checks_every_cell_before_training(self, dataset, tmp_path,
                                                     monkeypatch, overrides,
                                                     match):
        def never(*args, **kwargs):
            raise AssertionError("featurized or trained despite a bad cell")

        monkeypatch.setattr(harness, "featurize", never)
        monkeypatch.setattr(harness, "train", never)
        with pytest.raises(ValueError, match=match):
            config = toy_config(tmp_path, **overrides)
            run_ls_sweep({"hidden": 16}, config, dataset, toy_mu(),
                         build_featurizer(config, dataset))
        assert not (tmp_path / "runs").exists()

    def test_value_error_in_training_is_logged(self, dataset, tmp_path,
                                               monkeypatch):
        # only ``TrainingDiverged`` is a failed training; any other error
        # in ``train`` is a fault and stops the step before it writes
        def fault(*args, **kwargs):
            raise ValueError("a fault in train")

        monkeypatch.setattr(harness, "train", fault)
        config = toy_config(tmp_path, grid={"hidden": [16],
                                            "dropout": [0.2, 0.4]})
        with pytest.raises(ValueError, match="^a fault in train$"):
            run_grid_search(config, dataset, build_featurizer(config, dataset))
        assert not (tmp_path / "runs").exists()

    def test_type_error_propagates(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "train", None)  # never reached
        with pytest.raises(TypeError):
            toy_config(tmp_path, grid={"hidden": [None]})
        with pytest.raises(TypeError):
            toy_config(tmp_path, setting={"hidden": None})
        with pytest.raises(TypeError):
            config = toy_config(tmp_path)
            run_ls_sweep({"hidden": None}, config, dataset, toy_mu(),
                         build_featurizer(config, dataset))


class TestAtomicArtifacts:
    @pytest.mark.parametrize("artifact", ["step1_grid/log.json",
                                          "step2_sweep/sweep.json",
                                          "step3_final/final.json",
                                          "summary.json"])
    def test_failed_write_keeps_old_file(self, dataset, tmp_path,
                                         monkeypatch, artifact):
        """The second run differs in every file it writes (another
        ``min_df`` and grid seed), so a file that keeps its bytes was not
        written: a failed write leaves its file and every file beside it.
        ``final.json`` is written in ``final``'s staging directory, so its
        failed write leaves the models and featurizer it describes too."""
        def run_all(config):
            featurizer = build_featurizer(config, dataset)
            best = run_grid_search(config, dataset, featurizer)
            result = run_ls_sweep(best, config, dataset, toy_mu(), featurizer)
            run_final(best, SmoothingConfig(result.chosen_variant,
                                            result.chosen_alpha),
                      config, dataset, toy_mu(), featurizer)
            report(config.output_dir)

        config = toy_config(tmp_path, alpha_grid=[0.0], variants=["vanilla"])
        run_all(config)
        path = tmp_path / "runs" / artifact
        beside = lambda: {p.name: p.read_bytes()
                          for p in path.parent.iterdir() if p.is_file()}
        before = beside()
        assert path.name in before
        real_dump = json.dump

        def dump_then_fail(obj, fh, **kwargs):
            real_dump(obj, fh, **kwargs)
            name = Path(fh.name)
            # the artifact's temp file, or its copy in a staging directory
            if (fh.name.startswith(f"{path}.") or name.name == path.name
                    and name.parent.name.startswith(f".{path.parent.name}.")):
                raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            run_all(dataclasses.replace(config, min_df=2, grid_seed=7))
        assert beside() == before
        assert not list((tmp_path / "runs").rglob("*.tmp"))
        assert not list(tmp_path.rglob(".runs.*"))


def _embeddings_file(dataset, path):
    tokens = sorted({t for s in dataset.train for t in s.tokens})
    rng = np.random.default_rng(0)
    path.write_text("\n".join(
        f"{t} " + " ".join(f"{v:.4f}" for v in rng.normal(size=5))
        for t in tokens) + "\n")
    return path


@pytest.fixture(scope="module")
def mine_dataset():
    """Six-class toy corpus whose words survive ``preprocess`` unchanged
    (digits spelled as letters: "c1w0" -> "cbwa")."""
    dataset = make_separable_dataset(n_train=120, n_valid=30, n_test=30,
                                     n_classes=6, seed=3)
    letters = str.maketrans("0123456789", "abcdefghij")
    for sample in dataset.train + dataset.valid + dataset.test:
        sample.tokens = [t.translate(letters) for t in sample.tokens]
    return dataset


@pytest.fixture(scope="module")
def predictors(mine_dataset, tmp_path_factory):
    """Loaded (no-LS, LS) predictor pairs from n-gram and BoE final runs."""
    root = tmp_path_factory.mktemp("mine")
    pairs = {}
    for baseline in ("ngram", "boe"):
        config = toy_config(root / baseline, baseline=baseline,
                            embeddings_path=str(_embeddings_file(
                                mine_dataset, root / "emb.txt")))
        run_final({"hidden": 16, "batch_size": 32},
                  SmoothingConfig("uniform", 0.1), config, mine_dataset,
                  toy_mu(), build_featurizer(config, mine_dataset))
        final = root / baseline / "runs/step3_final"
        pairs[baseline] = (Predictor.load(final / "model_no_ls.json"),
                           Predictor.load(final / "model_ls.json"))
    return pairs


def _mine_lines(dataset, count=30):
    rng = np.random.default_rng(5)
    words = sorted({t for s in dataset.train for t in s.tokens})
    words += ["unseen", "1850", "Héritage", "!"]
    lines = [" ".join(rng.choice(words, size=int(rng.integers(1, 12))))
             for _ in range(count)]
    lines[3] = ""
    lines[11] = "   "
    return lines


def per_sentence_mine(texts, a, b, confidence, iou_threshold):
    """Reference: a 1-row featurize and forward per model per sentence."""
    kept = []
    for text in texts:
        tokens = preprocess(text)
        if not tokens:
            continue
        tops = []
        for p in (a, b):
            x = p.featurizer.transform_token_lists([tokens])
            probs = np.asarray(predict_proba(p.model, x))[0]
            order = np.argsort(-probs, kind="stable")[:3]
            tops.append([(int(i) + 1, float(probs[i])) for i in order])
        sets = [{c for c, _ in top} for top in tops]
        confs = [sum(c for _, c in top) for top in tops]
        iou = len(sets[0] & sets[1]) / len(sets[0] | sets[1])
        if min(confs) > confidence and iou > iou_threshold:
            kept.append({"sentence": text, "tops": tops, "iou": iou})
    return kept


def assert_matches_reference(kept, expected):
    assert [k["sentence"] for k in kept] == [e["sentence"] for e in expected]
    for got, want in zip(kept, expected):
        assert got["iou"] == want["iou"]
        for side, top in zip("ab", want["tops"]):
            pairs = got[f"predictions_{side}"]
            assert [c for c, _ in pairs] == [c for c, _ in top]
            np.testing.assert_allclose([v for _, v in pairs],
                                       [v for _, v in top], rtol=0,
                                       atol=1e-12)
            assert got[f"confidence_{side}"] == pytest.approx(
                sum(v for _, v in top), rel=0, abs=1e-12)


class TestBatchedMine:
    @pytest.mark.parametrize("kinds", [("ngram", "ngram"), ("boe", "boe"),
                                       ("ngram", "boe")])
    @pytest.mark.parametrize("thresholds", [(0.0, 0.0), (0.3, 0.4)])
    def test_equals_per_sentence_reference(self, mine_dataset, predictors,
                                           monkeypatch, kinds, thresholds):
        monkeypatch.setattr(harness, "_MINE_BLOCK", 7)  # several blocks
        a, b = predictors[kinds[0]][0], predictors[kinds[1]][1]
        lines = _mine_lines(mine_dataset)
        kept = mine(lines, a, b, *thresholds)
        expected = per_sentence_mine(lines, a, b, *thresholds)
        assert_matches_reference(kept, expected)
        if thresholds == (0.0, 0.0):
            assert len(kept) == len(lines) - 2  # all but the blank lines
            assert len({tuple(c for c, _ in k["predictions_a"])
                        for k in kept}) > 5

    def test_default_block_size_matches_reference(self, mine_dataset,
                                                  predictors):
        a, b = predictors["ngram"]
        lines = _mine_lines(mine_dataset)
        assert_matches_reference(mine(lines, a, b, 0.0, 0.0),
                                 per_sentence_mine(lines, a, b, 0.0, 0.0))

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_forward_per_model_per_block(self, mine_dataset, predictors,
                                             monkeypatch, shared):
        calls = {"predict_proba": 0, "featurize": 0}
        real_predict = harness.predict_proba
        real_featurize = Featurizer.transform_token_lists

        def counting_predict(model, x):
            calls["predict_proba"] += 1
            return real_predict(model, x)

        def counting_featurize(self, token_lists):
            calls["featurize"] += 1
            return real_featurize(self, token_lists)

        monkeypatch.setattr(harness, "predict_proba", counting_predict)
        monkeypatch.setattr(Featurizer, "transform_token_lists",
                            counting_featurize)
        monkeypatch.setattr(harness, "_MINE_BLOCK", 8)
        a, b = predictors["ngram"]
        if not shared:  # same featurizer, but not known to be shared
            b = Predictor(model=b.model, featurizer=b.featurizer)
        lines = _mine_lines(mine_dataset, count=26)  # 26 lines: 4 blocks
        mine(lines, a, b, 0.0, 0.0)
        assert calls == {"predict_proba": 8,
                         "featurize": 4 if shared else 8}

    def test_each_block_is_scored_before_the_next_is_read(
            self, mine_dataset, predictors, monkeypatch):
        events = []
        real_preprocess = harness.preprocess_many
        real_predict = harness.predict_proba

        def recording_preprocess(lines):
            events.append(("preprocess", len(lines)))
            return real_preprocess(lines)

        def recording_predict(model, x):
            events.append(("predict", x.shape[0]))
            return real_predict(model, x)

        monkeypatch.setattr(harness, "preprocess_many", recording_preprocess)
        monkeypatch.setattr(harness, "predict_proba", recording_predict)
        monkeypatch.setattr(harness, "_MINE_BLOCK", 8)
        a, b = predictors["ngram"]
        lines = _mine_lines(mine_dataset, count=26)  # lines 3 and 11 blank
        mine(lines, a, b, 0.0, 0.0)
        assert events == [
            ("preprocess", 8), ("predict", 7), ("predict", 7),
            ("preprocess", 8), ("predict", 7), ("predict", 7),
            ("preprocess", 8), ("predict", 8), ("predict", 8),
            ("preprocess", 2), ("predict", 2), ("predict", 2)]

    def test_a_generator_is_read_one_block_at_a_time(
            self, mine_dataset, predictors, monkeypatch):
        """``mine`` takes any iterable and reads no line of the next block
        before the current one is scored; it never asks for a length."""
        events = []
        real_predict = harness.predict_proba

        def recording_predict(model, x):
            events.append(("predict", x.shape[0]))
            return real_predict(model, x)

        def lines():
            for i, line in enumerate(_mine_lines(mine_dataset, count=26)):
                events.append(("read", i))
                yield line

        monkeypatch.setattr(harness, "predict_proba", recording_predict)
        monkeypatch.setattr(harness, "_MINE_BLOCK", 8)
        a, b = predictors["ngram"]
        kept = mine(lines(), a, b, 0.0, 0.0)
        reads = [[("read", i) for i in range(start, min(start + 8, 26))]
                 for start in range(0, 26, 8)]
        assert events == (reads[0] + [("predict", 7)] * 2
                          + reads[1] + [("predict", 7)] * 2
                          + reads[2] + [("predict", 8)] * 2
                          + reads[3] + [("predict", 2)] * 2)
        assert kept == mine(_mine_lines(mine_dataset, count=26), a, b,
                            0.0, 0.0)

    def test_block_size_does_not_change_the_kept_list(self, mine_dataset,
                                                      predictors,
                                                      monkeypatch):
        a, b = predictors["ngram"]
        lines = _mine_lines(mine_dataset) + ["Ünseen 1,850 c0w1.", "\n"]
        expected = mine(lines, a, b, 0.0, 0.0)
        monkeypatch.setattr(harness, "_MINE_BLOCK", 3)
        assert mine(lines, a, b, 0.0, 0.0) == expected

    def test_kept_entries_equal_a_per_row_float_reference(self, mine_dataset,
                                                          predictors):
        """Entries built from the passed rows' arrays equal, types included,
        entries built row by row with ``int()`` and ``float()``."""
        a, b = predictors["ngram"]
        lines = [line for line in _mine_lines(mine_dataset)
                 if preprocess(line)]
        token_lists = preprocess_many(lines)
        (ids_a, confs_a), (ids_b, confs_b) = (top_classes(predict_proba(
            p.model, p.featurizer.transform_token_lists(token_lists)), 3)
            for p in (a, b))
        conf_a = confs_a[:, 0] + confs_a[:, 1] + confs_a[:, 2]
        conf_b = confs_b[:, 0] + confs_b[:, 1] + confs_b[:, 2]
        threshold = float(np.median(np.minimum(conf_a, conf_b)))
        expected = []
        for i, line in enumerate(lines):
            inter = len(set(ids_a[i].tolist()) & set(ids_b[i].tolist()))
            iou = inter / (6 - inter)
            if min(conf_a[i], conf_b[i]) > threshold and iou > 0.0:
                expected.append({
                    "sentence": line,
                    "predictions_a": [(int(c), float(v))
                                      for c, v in zip(ids_a[i], confs_a[i])],
                    "predictions_b": [(int(c), float(v))
                                      for c, v in zip(ids_b[i], confs_b[i])],
                    "confidence_a": float(conf_a[i]),
                    "confidence_b": float(conf_b[i]), "iou": float(iou)})
        kept = mine(lines, a, b, threshold, 0.0)
        assert 0 < len(kept) < len(lines)
        assert kept == expected
        assert {type(v) for entry in kept for key in ("predictions_a",
                                                      "predictions_b")
                for pair in entry[key] for v in pair} == {int, float}
        assert {type(entry[key]) for entry in kept for key in (
            "confidence_a", "confidence_b", "iou")} == {float}

    def test_empty_input_runs_no_model(self, predictors, monkeypatch):
        monkeypatch.setattr(harness, "predict_proba", None)
        a, b = predictors["ngram"]
        assert mine([], a, b) == []
        assert mine(["", "  "], a, b) == []

    def test_predictor_load_builds_no_id_tables(self, predictors):
        final = predictors["ngram"][0].featurizer_path.parent
        loaded = Predictor.load(final / "model_ls.json")
        assert "id_tables" not in loaded.featurizer.vocab.__dict__

    def test_loaded_pair_shares_featurizer_path(self, predictors):
        a, b = predictors["ngram"]
        assert a.featurizer_path == b.featurizer_path
        assert a.featurizer_path.is_absolute()
        assert predictors["boe"][0].featurizer_path != a.featurizer_path

    def test_topk_rows(self, mine_dataset, predictors):
        a, _ = predictors["boe"]
        token_lists = [s.tokens for s in mine_dataset.valid[:4]]
        ids, confs = top_classes(predict_proba(
            a.model, a.featurizer.transform_token_lists(token_lists)), 5)
        assert ids.shape == confs.shape == (4, 5)
        for row_ids, row_confs in zip(ids.tolist(), confs.tolist()):
            assert row_confs == sorted(row_confs, reverse=True)
            assert len(set(row_ids)) == 5
            assert all(1 <= c <= NUM_CLASSES for c in row_ids)
        assert ids.dtype.kind == "i"


# the files the grid, the sweep and the final step write
STEP_FILES = ["step1_grid/log.json", "step2_sweep/sweep.json",
              "step3_final/featurizer.json", "step3_final/final.json",
              "step3_final/model_ls.json", "step3_final/model_no_ls.json"]


def tree(root) -> dict:
    """Every file and directory under ``root``: its path relative to
    ``root``, and its bytes, or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


class TestWorkers:
    """Each step's trainings run on one process per usable CPU, with the
    same bytes for any count; every count here is at most 3."""

    def protocol_files(self, dataset, root, monkeypatch, cpus) -> dict:
        use_cpus(monkeypatch, cpus)
        config = toy_config(root, seeds=[0, 1, 2],
                            grid={"hidden": [8, 16], "batch_size": [32, 64]})
        featurizer = build_featurizer(config, dataset)
        best = run_grid_search(config, dataset, featurizer)
        sweep = run_ls_sweep(best, config, dataset, toy_mu(), featurizer)
        run_final(best, SmoothingConfig(sweep.chosen_variant,
                                        sweep.chosen_alpha),
                  config, dataset, toy_mu(), featurizer)
        runs = root / "runs"
        return {str(p.relative_to(runs)): p.read_bytes()
                for p in sorted(runs.rglob("*")) if p.is_file()}

    def test_every_step_writes_the_same_bytes_for_any_worker_count(
            self, dataset, tmp_path, monkeypatch):
        files = [self.protocol_files(dataset, tmp_path / str(cpus),
                                     monkeypatch, cpus)
                 for cpus in (1, 2, 3)]
        assert list(files[0]) == STEP_FILES
        assert files[1] == files[0] and files[2] == files[0]

    def test_a_diverged_training_is_recorded_alike_for_any_worker_count(
            self, dataset, tmp_path, monkeypatch):
        """The patched ``train`` is set before the pool forks, so the
        workers run it: one grid setting and one sweep seed diverge."""
        real_train = harness.train

        def train(*args, **kwargs):
            config = args[5]
            if ((config.hidden, config.batch_size) == (8, 32)
                    or config.seed == 2):
                raise TrainingDiverged(f"diverged: hidden {config.hidden}, "
                                       f"seed {config.seed}")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train", train)
        files = [self.protocol_files(dataset, tmp_path / str(cpus),
                                     monkeypatch, cpus)
                 for cpus in (1, 2, 3)]
        assert files[1] == files[0] and files[2] == files[0]
        log = json.loads(files[0]["step1_grid/log.json"])["log"]
        assert [entry.get("error") for entry in log] == [
            "diverged: hidden 8, seed 1337", None, None, None]
        cells = json.loads(files[0]["step2_sweep/sweep.json"])["cells"]
        assert all(cell["failures"][0]["seed"] == 2 for cell in cells)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_another_error_in_a_worker_propagates_and_writes_nothing(
            self, dataset, tmp_path, monkeypatch, cpus):
        parent = os.getpid()

        def fault(*args, **kwargs):
            raise ValueError(f"a fault in the test process: "
                             f"{os.getpid() == parent}")

        monkeypatch.setattr(harness, "train", fault)
        use_cpus(monkeypatch, cpus)
        config = toy_config(tmp_path,
                            grid={"hidden": [8, 16], "batch_size": [32, 64]})
        with pytest.raises(ValueError,
                           match="^a fault in the test process: False$"):
            run_grid_search(config, dataset, build_featurizer(config, dataset))
        assert not (tmp_path / "runs").exists()

    def test_the_step_data_reaches_the_workers_unpickled(
            self, dataset, tmp_path, monkeypatch):
        def refuse(self, protocol):
            raise AssertionError("the featurized data was pickled")

        monkeypatch.setattr(harness.FeaturizedData, "__reduce_ex__", refuse)
        use_cpus(monkeypatch, 2)
        config = toy_config(tmp_path, alpha_grid=[0.1], variants=["vanilla"])
        result = run_ls_sweep({"hidden": 16, "batch_size": 64}, config,
                              dataset, toy_mu(),
                              build_featurizer(config, dataset))
        assert [run["seed"] for run in result.cells[0]["runs"]] == [0, 1]

    def final_files(self, dataset, root, monkeypatch, cpus,
                    smoothing=SmoothingConfig("uniform", 0.1),
                    setting=None) -> dict:
        use_cpus(monkeypatch, cpus)
        config = toy_config(root)
        run_final(setting or {"hidden": 16, "batch_size": 64}, smoothing,
                  config, dataset, toy_mu(), build_featurizer(config, dataset))
        return tree(root)

    def test_no_final_model_crosses_the_pipe(self, dataset, tmp_path,
                                             monkeypatch):
        """The patch is set before the pool forks, so a worker that sent
        its model back to the parent would raise."""
        expected = self.final_files(dataset, tmp_path / "1", monkeypatch, 1)

        def refuse(self, protocol):
            raise AssertionError("a final model was pickled")

        monkeypatch.setattr(TrainedModel, "__reduce_ex__", refuse)
        for cpus in (2, 3):
            assert self.final_files(dataset, tmp_path / str(cpus),
                                    monkeypatch, cpus) == expected

    def test_a_failed_final_step_leaves_step3_and_no_staging(
            self, dataset, tmp_path, monkeypatch):
        """An earlier ``step3_final/`` keeps its bytes when the LS worker
        raises, and when a worker dies after the other has staged its
        checkpoint; no staging directory or temp file is left, and a
        failed first run creates no ``runs/``."""
        real_evaluate, real_save = (harness.evaluate_features,
                                    harness.save_checkpoint)
        parent = os.getpid()

        def evaluate(model, *args, **kwargs):
            if model.config.smoothing != SmoothingConfig():
                raise ValueError("the LS model fails to score")
            return real_evaluate(model, *args, **kwargs)

        def save_after_the_other(model, path):
            """The LS worker ends once the no-LS checkpoint is staged."""
            if model.config.smoothing == SmoothingConfig():
                return real_save(model, path)
            if os.getpid() == parent:  # not in a worker: do not end pytest
                raise AssertionError("a checkpoint was written by the parent")
            others = lambda: [p for p in Path(path).parent.glob("model_*")
                              if p.name != Path(path).name
                              and p.stat().st_size]
            deadline = time.monotonic() + 60
            while not others() and time.monotonic() < deadline:
                time.sleep(0.01)
            os._exit(1)

        monkeypatch.setattr(harness, "evaluate_features", evaluate)
        with pytest.raises(ValueError, match="^the LS model fails to score$"):
            self.final_files(dataset, tmp_path, monkeypatch, 2)
        assert tree(tmp_path) == {}
        monkeypatch.setattr(harness, "evaluate_features", real_evaluate)
        before = self.final_files(dataset, tmp_path, monkeypatch, 2)
        # a different setting, so every file this run stages differs
        setting = {"hidden": 8, "batch_size": 32}
        monkeypatch.setattr(harness, "evaluate_features", evaluate)
        with pytest.raises(ValueError, match="^the LS model fails to score$"):
            self.final_files(dataset, tmp_path, monkeypatch, 2,
                             setting=setting)
        assert tree(tmp_path) == before
        monkeypatch.setattr(harness, "evaluate_features", real_evaluate)
        monkeypatch.setattr(harness, "save_checkpoint", save_after_the_other)
        with pytest.raises(BrokenProcessPool):
            self.final_files(dataset, tmp_path, monkeypatch, 2,
                             setting=setting)
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_ls_chosen_gives_two_checkpoints(self, dataset, tmp_path,
                                                monkeypatch, cpus):
        """With "none" chosen the two trainings have equal configs, and
        each still stages a checkpoint of its own, named by its label: a
        first run and a rerun over it leave the same four files and no
        ``.runs.*`` staging directory."""
        for _ in range(2):
            files = self.final_files(dataset, tmp_path, monkeypatch, cpus,
                                     smoothing=SmoothingConfig())
            assert list(files) == ["runs", "runs/step3_final", *(
                f"runs/{name}" for name in STEP_FILES
                if name.startswith("step3_final/"))]
            assert (files["runs/step3_final/model_ls.json"]
                    == files["runs/step3_final/model_no_ls.json"])
            assert not list(tmp_path.rglob(".runs.*"))

    def test_worker_count_is_the_cpus_capped_at_the_trainings(
            self, monkeypatch):
        use_cpus(monkeypatch, 64)
        assert worker_count(108) == 64
        assert worker_count(2) == 2
        assert worker_count(0) == 0
        use_cpus(monkeypatch, 1)
        assert worker_count(108) == 1

    def test_without_sched_getaffinity_a_step_runs_inline(
            self, dataset, tmp_path, monkeypatch):
        """macOS and Windows have no ``os.sched_getaffinity``: there a step
        runs in the calling process and writes a one-CPU run's bytes."""
        def grid_files(root):
            config = toy_config(root, grid={"hidden": [8, 16]})
            run_grid_search(config, dataset, build_featurizer(config, dataset))
            return tree(root)

        use_cpus(monkeypatch, 1)
        expected = grid_files(tmp_path / "one")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count(108) == 1
        assert worker_count(0) == 0
        assert grid_files(tmp_path / "none") == expected
