"""Command-line interface.

Exit codes: 0 success, 1 fatal error, 2 partial success (e.g. a final run
without SD data).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread per process, unless the user set a count: a step already
# runs one training process per CPU. BLAS reads these when numpy loads, so
# they are set before the imports below load it.
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")

from . import NUM_CRITERIA, atomic_open, commit_files, read_lines
from .corpus import (build_dataset, build_sd_set, parse_syndication,
                     read_dataset, write_dataset, write_sites)
from .harness import (GRID_FEATURIZER, STEP_ARTIFACTS, ExperimentConfig,
                      Predictor, build_featurizer, evaluate_model, featurize,
                      fit, load_prior, mine, prior_for, read_run, report,
                      run_final, run_grid_search, run_ls_sweep)
from .labels import SmoothingConfig
from .metrics import check_k
from .model import save_checkpoint


def cmd_ingest(args) -> int:
    if args.seed < 0:  # ``build_dataset`` would refuse it only at its end
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    sites, errors = parse_syndication(args.csv)
    if errors:
        print(f"{len(errors)} row-level errors:", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
    justified = [s for s in sites if s.justification]
    dataset = build_dataset(justified, seed=args.seed)
    dataset.sd.extend(build_sd_set(sites))
    with commit_files(args.out, "sites.json") as staging:
        write_dataset(dataset, staging)
        write_sites(justified, staging / "sites.json")
    print(f"train={len(dataset.train)} valid={len(dataset.valid)} "
          f"test={len(dataset.test)} sd={len(dataset.sd)} "
          f"sites={len(justified)}")
    return 0


def cmd_prior(args) -> int:
    out = Path(args.out)
    csv_path = out.with_suffix(".csv")
    if csv_path == out:
        raise ValueError(f"--out {out} is the path of its CSV twin; give "
                         f"the JSON path, such as {out.with_suffix('.json')}")
    counts, mu = load_prior(args.dataset)
    payload = {"counts": counts.tolist(), "mu": mu.tolist()}
    # the CSV moves in last: an ``--out`` that is a directory moves nothing
    with commit_files(out.parent, csv_path.name) as staging:
        with open(staging / out.name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        with open(staging / csv_path.name, "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            header = [""] + [str(k) for k in range(1, NUM_CRITERIA + 1)]
            writer.writerow(["counts"] + header[1:])
            for k, row in enumerate(counts.tolist(), start=1):
                writer.writerow([k] + row)
            writer.writerow(["mu"] + header[1:] + ["others"])
            for k, row in enumerate(mu.tolist(), start=1):
                writer.writerow([k] + row)
    print(f"wrote {out} and {csv_path}")
    return 0


def cmd_train(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    train_config = config.train_config(config.setting, config.smoothing,
                                       config.grid_seed)
    dataset = read_dataset(config.dataset_dir)
    mu = prior_for(config.dataset_dir, [config.smoothing])
    featurizer = build_featurizer(config, dataset)
    model = fit(featurize(featurizer, dataset), train_config, mu)
    out = Path(args.out or Path(config.output_dir) / "model.json")
    model.featurizer_ref = out.stem + "_featurizer.json"
    with commit_files(out.parent, out.name) as staging:
        featurizer.save(staging / model.featurizer_ref)
        save_checkpoint(model, staging / out.name)
    last = model.history[model.best_epoch - 1]
    print(f"best_epoch={model.best_epoch} val_top1={last['val_top1']:.4f} "
          f"val_topk={last['val_topk']:.4f} checkpoint={out}")
    return 0


def cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    dataset = read_dataset(config.dataset_dir)
    mu = prior_for(config.dataset_dir, [
        SmoothingConfig(variant, alpha) for variant in config.variants
        for alpha in config.alpha_grid])
    featurizer = build_featurizer(config, dataset)
    # log.json, the featurizer and sweep.json move in once the sweep returns
    sweep = STEP_ARTIFACTS["sweep"][0]
    with commit_files(config.output_dir, sweep) as staging:
        staged = dataclasses.replace(config, output_dir=str(staging))
        best = run_grid_search(staged, dataset, featurizer)
        result = run_ls_sweep(best, staged, dataset, mu, featurizer)
        featurizer.save(staging / GRID_FEATURIZER)
    print(f"best setting: {best}")
    print(f"chosen LS: {result.chosen_variant} alpha={result.chosen_alpha}")
    return 0


def cmd_final(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    run, best, chosen = read_run(config.output_dir)
    path, featurizer = run["featurizer"]
    if featurizer.kind != config.baseline:
        raise ValueError(f"{path} holds a {featurizer.kind!r} featurizer but "
                         f"the config's baseline is {config.baseline!r}; "
                         "rerun `ouvclf sweep`")
    dataset = read_dataset(config.dataset_dir)
    mu = prior_for(config.dataset_dir, [chosen])
    payload = run_final(best, chosen, config, dataset, mu, featurizer)
    for label, row in payload["rows"].items():
        print(f"{label}: val_top1={row['val_top1']:.4f} "
              f"val_topk={row['val_topk']:.4f} "
              f"test_top1={row['test_top1']:.4f} "
              f"test_topk={row['test_topk']:.4f}")
    if not payload["sd_evaluated"]:
        print("warning: no SD data; SD metrics omitted", file=sys.stderr)
        return 2
    return 0


def cmd_evaluate(args) -> int:
    check_k(args.k)
    predictor = Predictor.load(args.model)
    dataset = read_dataset(args.dataset)
    samples = dataset.split(args.split)
    if not samples:
        raise ValueError(f"split {args.split!r} is empty: "
                         f"{Path(args.dataset, args.split + '.jsonl')} is "
                         "missing or holds no samples")
    rep = evaluate_model(predictor.model, predictor.featurizer, samples,
                         k=args.k, multilabel=args.split == "sd")
    print(json.dumps(rep.to_dict(), indent=1))
    return 0


def cmd_mine(args) -> int:
    # the pair loads a featurizer file they share once
    featurizers = {}
    predictor_a, predictor_b = (Predictor.load(path, featurizers)
                                for path in args.models)
    total = itertools.count()
    # the stripped non-blank lines, read as ``mine`` asks for them; ``zip``
    # draws from ``total`` once per line it yields
    lines = filter(None, map(str.strip, read_lines(args.input)))
    texts = (text for text, _ in zip(lines, total))
    kept = mine(texts, predictor_a, predictor_b,
                confidence_threshold=args.confidence, iou_threshold=args.iou)
    with atomic_open(args.out) if args.out else nullcontext(sys.stdout) as fh:
        json.dump(kept, fh, indent=1)
        fh.write("\n")
    print(f"kept {len(kept)} of {next(total)} sentences", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    result = report(args.dir)
    print(result["text"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ouvclf",
        description="OUV selection-criteria sentence classifier pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build the dataset from a syndication CSV")
    p.add_argument("csv")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1337)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("prior", help="emit the co-occurrence prior")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("train", help="train a single model")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid search + label-smoothing sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("final", help="final training and evaluation")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_final)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=["valid", "test", "sd"], required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("mine", help="filter sentences by two-model agreement")
    p.add_argument("--models", nargs=2, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--confidence", type=float, default=0.8)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("report", help="summarize run artifacts")
    p.add_argument("dir")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MemoryError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
