"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload ngram_protocol --seed 1 --seconds 30 --trace 0

Builds the seeded synthetic inputs, times set-up (median of several),
repeats the workload's timed pass for ``--seconds`` (at least once),
runs the correctness checks and prints a human-readable report. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Exit code 0 means
every check passed, 1 that a check failed, 2 that the program source is
missing. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "sentences_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_top1": "fraction",
    "test_topk": "fraction",
}


# glibc hands a freed block above a size threshold back to the OS and
# page-faults it in again on the next allocation, and it moves that
# threshold as the process allocates. Whether the 8 MB temporaries of
# training and of a 1-row forward hit that path therefore depended on the
# run's allocation history, which made mining throughput bimodal between
# runs (about 150/s or 250/s). Fixed thresholds make every run reuse freed
# memory the same way.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(64 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def pin_allocator(argv: list[str]) -> None:
    """Re-exec this interpreter once with ``MALLOC_ENV`` set (same process)."""
    if all(os.environ.get(k) == v for k, v in MALLOC_ENV.items()):
        return
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])


def pin_blas_threads() -> int:
    """Run BLAS/OpenMP with one thread, below the CPU count.

    A second BLAS thread needs the machine's other CPU, whose availability
    on a shared 2-core host comes and goes; with two threads, dense-matmul
    timings swung twice as much between runs. Must run before numpy is
    imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def import_program() -> None:
    """Import ``ouv_classifier`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ouv_classifier" / "__init__.py").is_file():
        print(f"bench: program source not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ouv_classifier
    if Path(ouv_classifier.__file__).resolve().parent != src / "ouv_classifier":
        print(f"bench: imported {ouv_classifier.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def git_sha() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": blas_threads, "malloc": MALLOC_ENV,
            "git_sha": git_sha(), "seed": seed}


def execute(name: str, seed: int, seconds: float, trace: bool, scale: float,
            work: Path) -> dict:
    import calib
    import layers
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[name](work, seed, scale)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(layers.targets())
        tracer.active = True
    wl.prepare()
    # Calibration points bracket every set-up and both segments of every
    # pass. A step's time is scaled by its machine speed: REFERENCE_S over
    # the mean of the two kernel times that bracket it.
    points = [calib.sample()]

    def speed() -> float:
        return calib.REFERENCE_S / statistics.fmean(points[-2:])

    setups = []
    for _ in range(1 if trace else workloads.SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.setup()
        elapsed = time.perf_counter() - t0
        points.append(calib.sample())
        setups.append({"wall_s": elapsed, "speed": speed()})

    def timed_pass(index: int) -> dict:
        speeds = []

        def between() -> None:
            points.append(calib.sample())
            speeds.append(speed())

        p = wl.run_pass(state, index, between)
        points.append(calib.sample())
        p["speed"] = speeds + [speed()]
        p["scaled_s"] = sum(t * v for t, v in zip(p["segments_s"], p["speed"]))
        return p

    passes = []
    overhead_pct = None
    if trace:
        # End-to-end figures come from untraced passes; here one untraced
        # and one traced pass give the tracing overhead.
        tracer.active = False
        passes.append(timed_pass(0))
        tracer.active = True
        passes.append(timed_pass(1))
        untraced, traced = (p["scaled_s"] for p in passes)
        overhead_pct = 100.0 * (traced / untraced - 1.0)
    else:
        start = time.perf_counter()
        while len(passes) < wl.max_passes:
            passes.append(timed_pass(len(passes)))
            longest = max(p["pass_s"] for p in passes)
            if time.perf_counter() - start + longest > seconds:
                break
    wl.check(state, passes)
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()

    e2e = {
        "setup_s": statistics.median(s["wall_s"] * s["speed"] for s in setups),
        "pass_s": statistics.median(p["scaled_s"] for p in passes),
        "sentences_per_s": statistics.median(p["sentences_per_s"] / p["speed"][0]
                                             for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_top1": passes[-1]["test_top1"],
        "test_topk": passes[-1]["test_topk"],
    }
    raw = {"setup_s": statistics.median(s["wall_s"] for s in setups),
           "pass_s": statistics.median(p["pass_s"] for p in passes),
           "sentences_per_s": statistics.median(p["sentences_per_s"] for p in passes)}
    record = {"workload": name, "scale": scale, "trace": trace,
              "setups": setups, "calibration_s": points, "raw_wall": raw,
              "passes": passes,
              "end_to_end": e2e, "facts": wl.facts,
              "fingerprints": wl.fingerprints, "checks": wl.checks.results,
              "attempted": wl.attempted + len(wl.checks.results),
              "failed": wl.failed_ops + wl.checks.failed}
    if tracer is not None:
        values = layers.derive(tracer, wl.facts, overhead_pct)
        record["per_layer"] = values
        record["absent"] = sorted(tracer.absent + [k for k, v in values.items() if v is None])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}-s{seed}-spans.json")
    return record


def report(record: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, then the checks."""
    import layers
    lines = [f"workload {record['workload']}  seed {record['provenance']['seed']}  "
             f"scale {record['scale']}  passes {len(record['passes'])}  "
             f"trace {int(record['trace'])}"]
    speeds = ([s["speed"] for s in record["setups"]]
              + [v for p in record["passes"] for v in p["speed"]])
    lines.append(f"machine speed vs reference: {min(speeds):.3f}-{max(speeds):.3f}; "
                 "times are scaled to the reference speed (see calib.py)")
    lines.append("end-to-end (untraced):" if not record["trace"] else
                 "end-to-end (from the traced run; use --trace 0 for these):")
    for key, unit in END_TO_END.items():
        raw = record["raw_wall"].get(key)
        shown = "" if raw is None else f"   (raw wall {raw:.6g})"
        lines.append(f"  {key:<28} {record['end_to_end'][key]:>14.6g} {unit}{shown}")
    for key in ("grid_s", "sweep_s", "final_s", "mine_s", "eval_s",
                "eval_sentences_per_s"):
        if key in record["passes"][0]:
            value = statistics.median(p[key] for p in record["passes"])
            unit = "1/s" if key.endswith("per_s") else "s"
            lines.append(f"  {key:<28} {value:>14.6g} {unit}")
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"  {'failed_frac':<28} {failed / attempted:>14.6g} "
                 f"({failed} of {attempted})")
    if "per_layer" in record:
        lines.append("per-layer (traced run; busy time and counts, nothing waits):")
        units = {**layers.PER_LAYER, **layers.EXTRA}
        for key, unit in units.items():
            value = record["per_layer"].get(key)
            shown = "absent" if value is None else f"{value:.6g}"
            lines.append(f"  {key:<40} {shown:>14} {unit}")
    lines.append("facts: " + json.dumps(record["facts"], sort_keys=True))
    lines.append("fingerprints (sha256): " + json.dumps(record["fingerprints"], sort_keys=True))
    lines.append("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for check in record["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        lines.append(f"  [{mark}] {check['name']} {check['detail']}".rstrip())
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ngram_protocol", "boe_protocol", "ngram_mine"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="share of paper scale (default: the workload scale; "
                             "tiny values give a smoke run)")
    args = parser.parse_args(argv)

    blas_threads = pin_blas_threads()
    pin_allocator(sys.argv[1:] if argv is None else argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    scale = workloads.SCALE if args.scale is None else args.scale
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    # SIGTERM unwinds like an exception, so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                         scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["provenance"] = provenance(args.seed, blas_threads)
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"{args.workload}-s{args.seed}{suffix}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("\n".join(report(record)))
    if args.trace:
        import layers
        metrics = {k: {"value": float(record["per_layer"][k] or 0.0), "unit": u}
                   for k, u in layers.PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(record["end_to_end"][k]), "unit": u}
                   for k, u in END_TO_END.items()}
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
