"""The benchmark workloads, driven only through the program's public API.

Each workload has four phases:

- ``prepare``: untimed; makes inputs ready (and, for ``ngram_mine``,
  trains the two checkpoints it mines with);
- ``setup``: timed as ``setup_s``, repeated and reported as a median;
- ``run_pass``: one pass of the timed part, repeated until ``--seconds``;
- ``check``: untimed correctness checks on what the passes produced.

Every call into the program goes through a module attribute
(``corpus.parse_syndication``, ``harness.mine``, ...), so the tracer in
``spans.py`` can wrap it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from ouv_classifier import NUM_CLASSES, corpus, harness, labels, model

import synth

# Share of paper scale the workloads run at. One three-step protocol at
# paper scale takes over a minute on 2 cores with this code, which the
# benchmark's time budget cannot hold; 0.3 keeps every layer busy and
# fits two or three n-gram protocol passes in a 30 s run. ``--scale 1``
# reproduces paper scale by hand.
SCALE = 0.3
# Mining lines per timed pass, per unit of scale.
MINE_LINES_PER_SCALE = 6800
MAX_PASSES = 6
# A protocol pass takes about 10 s; more than three would push a run past
# the time the benchmark may spend on all its runs.
PROTOCOL_MAX_PASSES = 3
SETUP_REPS = 3
CHECK_MINE_LINES = 40

# Protocol: four grid corners, one non-zero alpha over all three
# variants and two seeds, then the two final models. Every cell runs a
# fixed number of epochs (patience > max_epochs), so the work done does
# not depend on the data. A dense 300-d epoch costs about a fortieth of
# an n-gram epoch, so the BoE protocol runs more of them; otherwise its
# training would be a tenth of its pass and a slower dense path would
# vanish in the noise.
GRID = {"hidden": [50, 200], "batch_size": [64, 256]}
NGRAM_EPOCHS = 1
BOE_EPOCHS = 16
LEARNING_RATE = 2e-2
SWEEP_ALPHA = 0.2
SWEEP_SEEDS = [0, 1]
# The sweep and the final step train at this fixed setting, not at the
# grid's winner: which corner wins varies with the seed, and the corners'
# epoch times differ ten-fold, so following the winner would make
# protocol time jump between seeds. The grid still runs all four corners.
SETTING = {"hidden": 200, "batch_size": 128}
# Mining models are smaller: a 1-row forward copies all of W1, and at
# hidden 200 those 8 MB copies made mining throughput swing with memory
# traffic from other tenants by up to 40% between runs. They train for
# MINE_EPOCHS, untimed, so they are confident enough for the agreement
# filter to keep a fair share of lines.
MINE_SETTING = {"hidden": 50, "batch_size": 128}
MINE_EPOCHS = 4
MINE_LS = labels.SmoothingConfig(variant="prior", alpha=SWEEP_ALPHA)
CONFIDENCE = 0.8
# The protocols' one-epoch models are rarely 0.8-confident, so their
# 40-line mining check uses a lower threshold to keep some lines.
CHECK_CONFIDENCE = 0.5
IOU = 0.5
K = 3


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class Checks:
    """Correctness checks; each failure counts as a failed operation."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    def guard(self, name: str, fn) -> object:
        """Run ``fn``; an exception fails the check instead of the run."""
        try:
            value = fn()
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            self.add(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.add(name, True)
        return value

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


class Workload:
    baseline = "ngram"
    epochs = NGRAM_EPOCHS
    max_passes = MAX_PASSES

    def __init__(self, work: Path, seed: int, scale: float):
        self.work = work
        self.seed = seed
        self.scale = scale
        self.checks = Checks()
        self.attempted = 0
        self.failed_ops = 0
        self.fingerprints: dict[str, str] = {}
        self.facts: dict = {}

    def config(self, output: str) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            baseline=self.baseline, grid=dict(GRID),
            learning_rate=LEARNING_RATE, seeds=list(SWEEP_SEEDS),
            alpha_grid=[SWEEP_ALPHA], variants=list(harness.VARIANT_ORDER),
            max_epochs=self.epochs, patience=self.epochs + 1, k=K,
            embeddings_path=self.inputs.get("embeddings", ""),
            output_dir=str(self.work / output))

    def generate(self, mine_lines: int) -> None:
        self.inputs = synth.generate(self.work / "inputs", self.seed, self.scale,
                                     mine_lines=mine_lines,
                                     embeddings=self.baseline == "boe")
        with open(self.inputs["mine_txt"], encoding="utf-8") as fh:
            self.lines = [line.rstrip("\n") for line in fh]

    def ingest(self, cfg: harness.ExperimentConfig):
        """CSV -> splits -> JSONL round trip -> prior -> featurizer."""
        sites, errors = corpus.parse_syndication(self.inputs["csv"])
        dataset = corpus.build_dataset(sites)
        dataset.sd = corpus.build_sd_set(sites)
        data_dir = self.work / "data"
        corpus.write_dataset(dataset, data_dir)
        dataset = corpus.read_dataset(data_dir)
        mu = labels.prior_weights(labels.cooccurrence(sites))
        featurizer = harness.build_featurizer(cfg, dataset)
        self.facts["ingest_errors"] = len(errors)
        return dataset, mu, featurizer

    def record_sizes(self, dataset, featurizer) -> None:
        x = featurizer.transform(dataset.train)
        nnz = x.nnz if hasattr(x, "nnz") else int(np.count_nonzero(x))
        vocab = (featurizer.vocab.size if featurizer.kind == "ngram"
                 else len(featurizer.table.word_to_vector))
        self.facts.update(
            splits={name: len(dataset.split(name))
                    for name in ("train", "valid", "test", "sd")},
            input_dim=featurizer.dimension, vocab_size=vocab,
            nnz_per_row=nnz / x.shape[0])

    # -- shared checks -------------------------------------------------

    def check_model(self, predictor, dataset, label: str) -> None:
        """Probability rows sum to 1; test top-1 beats the majority class."""
        probs = model.predict_proba(predictor.model,
                                    predictor.featurizer.transform(dataset.test))
        worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        self.checks.add(f"{label}: probability rows sum to 1", worst < 1e-9,
                        f"max |sum - 1| = {worst:.3g}")
        truths = np.array([s.sentence_label for s in dataset.test])
        chance = float(np.bincount(truths).max() / len(truths))
        top1 = float(np.mean(np.argmax(probs, axis=1) + 1 == truths))
        self.checks.add(f"{label}: test top-1 above the chance floor",
                        top1 > chance, f"top-1 {top1:.4f} vs chance {chance:.4f}")

    def check_mine(self, lines, kept, pa, pb, confidence: float) -> None:
        """``mine``'s kept set equals a brute-force batched reference."""
        expected, undecided = reference_kept(lines, pa, pb, confidence)
        got = [k["sentence"] for k in kept]
        differ = [t for t in set(expected) ^ set(got) if t not in undecided]
        self.checks.add("mine kept set equals the brute-force reference",
                        not differ,
                        f"{len(got)} kept of {len(lines)}; {len(differ)} differ")
        self.facts["mine_kept_share"] = len(got) / len(lines)


def reference_kept(lines, pa, pb, confidence: float) -> tuple[list[str], set[str]]:
    """Kept sentences computed with one batched predict_proba per model.

    Also returns the sentences within 1e-9 of a confidence threshold,
    whose decision may legitimately flip with summation order.
    """
    texts, samples = [], []
    for text in lines:
        tokens = corpus.preprocess(text)
        if tokens:
            texts.append(text)
            samples.append(corpus.Sample(tokens=tokens, sentence_label=None,
                                         one_hot=None,
                                         parental=np.zeros(NUM_CLASSES),
                                         site_id=0, split="sd"))
    tops = []
    for p in (pa, pb):
        probs = model.predict_proba(p.model, p.featurizer.transform(samples))
        order = np.argsort(-probs, axis=1, kind="stable")[:, :3]
        tops.append((order, np.take_along_axis(probs, order, axis=1).sum(axis=1)))
    kept, undecided = [], set()
    for i, text in enumerate(texts):
        sa, sb = set(tops[0][0][i]), set(tops[1][0][i])
        ca, cb = tops[0][1][i], tops[1][1][i]
        if min(abs(ca - confidence), abs(cb - confidence)) < 1e-9:
            undecided.add(text)
        if ca > confidence and cb > confidence and len(sa & sb) / len(sa | sb) > IOU:
            kept.append(text)
    return kept, undecided


class Protocol(Workload):
    """grid search -> label-smoothing sweep -> final, timed as one pass."""

    max_passes = PROTOCOL_MAX_PASSES

    def prepare(self) -> None:
        self.generate(CHECK_MINE_LINES)

    def setup(self):
        cfg = self.config("runs")
        dataset, mu, featurizer = self.ingest(cfg)
        return cfg, dataset, mu, featurizer

    def run_pass(self, state, index: int, between) -> dict:
        """Timed in two segments, grid + sweep and final; ``between()``
        runs untimed between them."""
        cfg, dataset, mu, featurizer = state
        t0 = time.perf_counter()
        best = harness.run_grid_search(cfg, dataset, featurizer)
        t1 = time.perf_counter()
        sweep = harness.run_ls_sweep(SETTING, cfg, dataset, mu, featurizer)
        t2 = time.perf_counter()
        between()
        chosen = labels.SmoothingConfig(sweep.chosen_variant, sweep.chosen_alpha)
        t3 = time.perf_counter()
        final = harness.run_final(SETTING, chosen, cfg, dataset, mu, featurizer)
        t4 = time.perf_counter()

        out = Path(cfg.output_dir)
        with open(out / "step1_grid/log.json", encoding="utf-8") as fh:
            grid_log = json.load(fh)["log"]
        grid_failed = sum("error" in e for e in grid_log)
        sweep_runs = sum(len(c["runs"]) for c in sweep.cells)
        sweep_failed = sum(len(c["failures"]) for c in sweep.cells)
        self.attempted += len(grid_log) + sweep_runs + sweep_failed + 2
        self.failed_ops += grid_failed + sweep_failed
        trained = (len(grid_log) - grid_failed + sweep_runs) * self.epochs
        ls = final["rows"]["ls"]
        return {
            "pass_s": (t2 - t0) + (t4 - t3), "segments_s": [t2 - t0, t4 - t3],
            "grid_s": t1 - t0, "sweep_s": t2 - t1, "final_s": t4 - t3,
            "sentences_per_s": trained * len(dataset.train) / (t2 - t0),
            "test_top1": ls["test_top1"], "test_topk": ls["test_topk"],
            "best": best, "chosen": [sweep.chosen_variant, sweep.chosen_alpha],
            "sweep_sha256": sha256_file(out / "step2_sweep/sweep.json"),
            "final_sha256": sha256_file(out / "step3_final/final.json"),
        }

    def check(self, state, passes: list[dict]) -> None:
        cfg, dataset, mu, featurizer = state
        out = Path(cfg.output_dir)
        for rel in ("step1_grid/log.json", "step2_sweep/sweep.json",
                    "step3_final/final.json"):
            self.checks.guard(f"{rel} exists and loads",
                              lambda rel=rel: json.loads((out / rel).read_text()))
        final_dir = out / "step3_final"
        pa = self.checks.guard("model_no_ls.json loads as a Predictor",
                               lambda: harness.Predictor.load(final_dir / "model_no_ls.json"))
        pb = self.checks.guard("model_ls.json loads as a Predictor",
                               lambda: harness.Predictor.load(final_dir / "model_ls.json"))
        corners = [{"batch_size": b, "hidden": h}
                   for h in GRID["hidden"] for b in GRID["batch_size"]]
        self.checks.add("grid best is one of the corners",
                        all({k: p["best"].get(k) for k in GRID} in corners
                            for p in passes), str(passes[-1]["best"]))
        for key in ("sweep_sha256", "final_sha256"):
            self.checks.add(f"{key} identical across passes",
                            len({p[key] for p in passes}) == 1)
            self.fingerprints[key.replace("_sha256", ".json")] = passes[-1][key]
        if pa is not None and pb is not None:
            self.check_model(pb, dataset, "LS model")
            lines = self.lines[:CHECK_MINE_LINES]
            self.attempted += len(lines)
            kept = harness.mine(lines, pa, pb, CHECK_CONFIDENCE, IOU)
            self.check_mine(lines, kept, pa, pb, CHECK_CONFIDENCE)
            self.fingerprints["mined"] = sha256_json(kept)
        self.record_sizes(dataset, featurizer)


class NgramProtocol(Protocol):
    baseline = "ngram"


class BoeProtocol(Protocol):
    baseline = "boe"
    epochs = BOE_EPOCHS


class NgramMine(Workload):
    """Two-model agreement mining over raw lines, then evaluation."""

    def prepare(self) -> None:
        self.lines_per_pass = max(20, round(MINE_LINES_PER_SCALE * self.scale))
        self.generate(self.lines_per_pass * MAX_PASSES)
        cfg = dataclasses.replace(self.config("prep"), max_epochs=MINE_EPOCHS,
                                  patience=MINE_EPOCHS + 1)
        self.dataset, mu, featurizer = self.ingest(cfg)
        harness.run_final(MINE_SETTING, MINE_LS, cfg, self.dataset, mu, featurizer)
        self.final_dir = Path(cfg.output_dir) / "step3_final"
        self.record_sizes(self.dataset, featurizer)

    def setup(self):
        return (harness.Predictor.load(self.final_dir / "model_no_ls.json"),
                harness.Predictor.load(self.final_dir / "model_ls.json"))

    def run_pass(self, state, index: int, between) -> dict:
        """Timed in two segments, mining and evaluation; ``between()``
        runs untimed between them."""
        pa, pb = state
        lines = self.lines[index * self.lines_per_pass:
                           (index + 1) * self.lines_per_pass]
        t0 = time.perf_counter()
        try:
            kept = harness.mine(lines, pa, pb, CONFIDENCE, IOU)
        except Exception:  # noqa: BLE001 - every line of the call failed
            self.failed_ops += len(lines)
            kept = []
        t1 = time.perf_counter()
        between()
        t2 = time.perf_counter()
        reports = {}
        for label, p in (("no_ls", pa), ("ls", pb)):
            for split in ("valid", "test", "sd"):
                reports[label, split] = harness.evaluate_model(
                    p.model, p.featurizer, self.dataset.split(split), k=K,
                    multilabel=split == "sd")
        t3 = time.perf_counter()
        self.attempted += len(lines)
        evaluated = 2 * sum(len(self.dataset.split(s)) for s in ("valid", "test", "sd"))
        return {
            "pass_s": (t1 - t0) + (t3 - t2), "segments_s": [t1 - t0, t3 - t2],
            "mine_s": t1 - t0, "eval_s": t3 - t2,
            "sentences_per_s": len(lines) / (t1 - t0),
            "eval_sentences_per_s": evaluated / (t3 - t2),
            "test_top1": reports["ls", "test"].top1_accuracy,
            "test_topk": reports["ls", "test"].topk_accuracy,
            "lines": lines, "kept": kept,
        }

    def check(self, state, passes: list[dict]) -> None:
        pa, pb = state
        self.checks.guard("final.json exists and loads",
                          lambda: json.loads((self.final_dir / "final.json").read_text()))
        self.check_model(pb, self.dataset, "LS model")
        self.check_mine(passes[0]["lines"], passes[0]["kept"], pa, pb, CONFIDENCE)
        self.checks.add("evaluation identical across passes",
                        len({(p["test_top1"], p["test_topk"]) for p in passes}) == 1)
        self.fingerprints["mined"] = sha256_json(passes[0]["kept"])
        for p in passes:
            del p["lines"], p["kept"]


WORKLOADS = {
    "ngram_protocol": NgramProtocol,
    "boe_protocol": BoeProtocol,
    "ngram_mine": NgramMine,
}
