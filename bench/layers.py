"""What the traced run wraps, and the per-layer metrics derived from it.

``PER_LAYER`` is the set printed on every workload (the same list as
``per_layer`` in BENCHMARK.json). ``EXTRA`` holds finer figures that
exist on some workloads only (``fit_tfidf`` vs ``load_embeddings``, epoch
time per grid corner, per-step times); they go to the human report and
the result file, marked absent where a workload does not exercise them.
"""

from __future__ import annotations

import os
import statistics

from ouv_classifier import corpus, harness, labels, model

from spans import Span, Tracer, mean_ms, total_s
from workloads import GRID


def _rows(x) -> int:
    return 1 if getattr(x, "ndim", 2) == 1 else int(x.shape[0])


def targets():
    """``(owner, attribute, span name, annotate)`` for ``Tracer.install``.

    Each name is patched where its caller looks it up, e.g.
    ``model.forward`` (called by ``train`` and ``predict_proba``) and
    ``harness.train`` (called by the grid, sweep and final cells).
    """
    F, P = harness.Featurizer, harness.Predictor
    return [
        (corpus, "parse_syndication", "corpus.parse_syndication", None),
        (corpus, "build_dataset", "corpus.build_dataset", None),
        (corpus, "build_sd_set", "corpus.build_sd_set", None),
        (corpus, "write_dataset", "corpus.write_dataset", None),
        (corpus, "read_dataset", "corpus.read_dataset", None),
        (corpus, "preprocess", "corpus.preprocess", None),
        (harness, "preprocess", "corpus.preprocess", None),
        (labels, "cooccurrence", "labels.cooccurrence", None),
        (labels, "prior_weights", "labels.prior_weights", None),
        (model, "soft_targets", "labels.soft_targets", None),
        (harness, "build_featurizer", "features.build_featurizer", None),
        (harness, "fit_tfidf", "features.fit_tfidf", None),
        (harness, "load_embeddings", "features.load_embeddings", None),
        (F, "transform", "features.transform",
         lambda a, k, r: {"rows": len(a[1])}),
        (F, "transform_tokens", "features.transform_tokens",
         lambda a, k, r: {"key": " ".join(a[1])}),
        (F, "save", "features.featurizer_save", None),
        (F, "load", "features.featurizer_load", None),
        (harness, "featurize", "harness.featurize",
         lambda a, k, r: {"key": f"{id(a[0])}:{id(a[1])}"}),
        (model, "forward", "model.forward",
         lambda a, k, r: {"rows": _rows(a[1]),
                          "training": k.get("dropout_mask") is not None}),
        (model, "backward", "model.backward", None),
        (model, "adam_step", "model.adam_step", None),
        (harness, "train", "harness.train",
         lambda a, k, r: {"hidden": a[5].hidden, "batch": a[5].batch_size,
                          "epochs": len(r.history)}),
        (harness, "predict_proba", "model.predict_proba",
         lambda a, k, r: {"rows": _rows(a[1])}),
        (harness, "rank_classes", "model.rank_classes", None),
        (harness, "save_checkpoint", "model.save_checkpoint",
         lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
        (harness, "load_checkpoint", "model.load_checkpoint", None),
        (harness, "evaluate_split", "metrics.evaluate_split", None),
        (harness, "evaluate_matches", "metrics.evaluate_matches", None),
        (harness, "evaluate_model", "harness.evaluate_model",
         lambda a, k, r: {"rows": len(a[2])}),
        (harness, "run_grid_search", "harness.run_grid_search", None),
        (harness, "run_ls_sweep", "harness.run_ls_sweep", None),
        (harness, "run_final", "harness.run_final", None),
        (harness, "mine", "harness.mine", lambda a, k, r: {"lines": len(a[0])}),
        (P, "load", "harness.Predictor.load", None),
        (P, "top3", "harness.Predictor.top3", None),
    ]


# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "corpus.parse_syndication_ms": "ms",
    "corpus.build_dataset_ms": "ms",
    "corpus.build_sd_set_ms": "ms",
    "corpus.dataset_io_ms": "ms",
    "corpus.preprocess_us": "us",
    "labels.prior_ms": "ms",
    "labels.soft_targets_ms": "ms",
    "features.build_featurizer_ms": "ms",
    "features.transform_ms_per_1k": "ms",
    "features.transform_tokens_us": "us",
    "features.featurizer_save_ms": "ms",
    "features.featurizer_load_ms": "ms",
    "features.vocab_size": "count",
    "features.nnz_per_row": "count",
    "features.transform_tokens_useful_ratio": "ratio",
    "model.forward_ms": "ms",
    "model.backward_ms": "ms",
    "model.adam_step_ms": "ms",
    "model.epoch_s": "s",
    "model.adam_steps": "count",
    "model.epochs": "count",
    "model.train_calls": "count",
    "model.forward_1row_ms": "ms",
    "model.predict_proba_ms_per_1k": "ms",
    "model.rank_classes_ms": "ms",
    "model.save_checkpoint_ms": "ms",
    "model.checkpoint_mb": "MB",
    "model.load_checkpoint_ms": "ms",
    "metrics.evaluate_split_ms": "ms",
    "metrics.evaluate_matches_ms": "ms",
    "harness.cell_s": "s",
    "harness.featurize_useful_ratio": "ratio",
    "harness.mine_self_us_per_line": "us",
    "harness.eval_sentences_per_s": "1/s",
    "trace.overhead_pct": "%",
}

EXTRA = {
    "features.fit_tfidf_ms": "ms",
    "features.load_embeddings_ms": "ms",
    "model.epoch_s.h50_b64": "s",
    "model.epoch_s.h50_b256": "s",
    "model.epoch_s.h200_b64": "s",
    "model.epoch_s.h200_b256": "s",
    "harness.grid_s": "s",
    "harness.sweep_s": "s",
    "harness.final_s": "s",
}


def _per(spans: list[Span], field: str, scale: float) -> float | None:
    count = sum(s.info.get(field, 0) for s in spans)
    return scale * total_s(spans) / count if count else None


def _ratio(spans: list[Span]) -> float | None:
    return len({s.info.get("key") for s in spans}) / len(spans) if spans else None


def _pair_ms(first: list[Span], second: list[Span]) -> float | None:
    return 1000.0 * (total_s(first) + total_s(second)) / len(first) if first else None


def derive(tracer: Tracer, facts: dict, overhead_pct: float) -> dict[str, float | None]:
    """Per-layer values; None where the run never reached that layer."""
    by = tracer.by_name
    selfs = tracer.self_times()
    fwd = by("model.forward")
    trains = by("harness.train")
    mines = [(s, st) for s, st in zip(tracer.spans, selfs) if s.name == "harness.mine"]
    mined_lines = sum(s.info.get("lines", 0) for s, _ in mines)
    preprocess = by("corpus.preprocess")
    checkpoints = by("model.save_checkpoint")
    predicts = [s for s in by("model.predict_proba") if s.info.get("rows", 0) > 1]
    evals = by("harness.evaluate_model")
    trains = [s for s in trains if s.info]  # a call that raised has no info
    epoch = [(s, (s.end - s.start) / s.info["epochs"]) for s in trains]

    def corner(h, b):
        values = [e for s, e in epoch if (s.info["hidden"], s.info["batch"]) == (h, b)]
        return statistics.median(values) if values else None

    values = {
        "corpus.parse_syndication_ms": mean_ms(by("corpus.parse_syndication")),
        "corpus.build_dataset_ms": mean_ms(by("corpus.build_dataset")),
        "corpus.build_sd_set_ms": mean_ms(by("corpus.build_sd_set")),
        "corpus.dataset_io_ms": _pair_ms(by("corpus.write_dataset"),
                                         by("corpus.read_dataset")),
        "corpus.preprocess_us": (1e6 * total_s(preprocess) / len(preprocess)
                                 if preprocess else None),
        "labels.prior_ms": _pair_ms(by("labels.prior_weights"),
                                    by("labels.cooccurrence")),
        "labels.soft_targets_ms": mean_ms(by("labels.soft_targets")),
        "features.build_featurizer_ms": mean_ms(by("features.build_featurizer")),
        "features.transform_ms_per_1k": _per(by("features.transform"), "rows", 1e6),
        "features.transform_tokens_us": (
            1000.0 * mean_ms(by("features.transform_tokens"))
            if by("features.transform_tokens") else None),
        "features.featurizer_save_ms": mean_ms(by("features.featurizer_save")),
        "features.featurizer_load_ms": mean_ms(by("features.featurizer_load")),
        "features.vocab_size": facts.get("vocab_size"),
        "features.nnz_per_row": facts.get("nnz_per_row"),
        "features.transform_tokens_useful_ratio": _ratio(by("features.transform_tokens")),
        "model.forward_ms": mean_ms([s for s in fwd if s.info.get("training")]),
        "model.backward_ms": mean_ms(by("model.backward")),
        "model.adam_step_ms": mean_ms(by("model.adam_step")),
        "model.epoch_s": statistics.median(e for _, e in epoch) if epoch else None,
        "model.adam_steps": len(by("model.adam_step")),
        "model.epochs": sum(s.info["epochs"] for s in trains),
        "model.train_calls": len(trains),
        "model.forward_1row_ms": mean_ms([s for s in fwd if s.info.get("rows") == 1
                                          and not s.info["training"]]),
        "model.predict_proba_ms_per_1k": _per(predicts, "rows", 1e6),
        "model.rank_classes_ms": mean_ms(by("model.rank_classes")),
        "model.save_checkpoint_ms": mean_ms(checkpoints),
        "model.checkpoint_mb": (statistics.fmean(s.info.get("bytes", 0) for s in checkpoints) / 1e6
                                if checkpoints else None),
        "model.load_checkpoint_ms": mean_ms(by("model.load_checkpoint")),
        "metrics.evaluate_split_ms": mean_ms(by("metrics.evaluate_split")),
        "metrics.evaluate_matches_ms": mean_ms(by("metrics.evaluate_matches")),
        "harness.cell_s": mean_ms(trains) / 1000.0 if trains else None,
        "harness.featurize_useful_ratio": _ratio(by("harness.featurize")),
        "harness.mine_self_us_per_line": (1e6 * sum(st for _, st in mines) / mined_lines
                                          if mined_lines else None),
        "harness.eval_sentences_per_s": (sum(s.info.get("rows", 0) for s in evals) / total_s(evals)
                                         if evals else None),
        "trace.overhead_pct": overhead_pct,
        "features.fit_tfidf_ms": mean_ms(by("features.fit_tfidf")),
        "features.load_embeddings_ms": mean_ms(by("features.load_embeddings")),
        "harness.grid_s": mean_ms(by("harness.run_grid_search")),
        "harness.sweep_s": mean_ms(by("harness.run_ls_sweep")),
        "harness.final_s": mean_ms(by("harness.run_final")),
    }
    for key in ("harness.grid_s", "harness.sweep_s", "harness.final_s"):
        if values[key] is not None:
            values[key] /= 1000.0
    for h in GRID["hidden"]:
        for b in GRID["batch_size"]:
            values[f"model.epoch_s.h{h}_b{b}"] = corner(h, b)
    return values
