"""Benchmark of bfdarcy on three workloads: study, channel and sweep.

    python3 perfbench/run.py --workload study --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.

Each pass runs in a fresh interpreter, as one use of the program does:
the child imports bfdarcy, builds every input of the workload (set-up),
runs the workload once (the pass) and checks every output against
``references.json``.  The parent starts passes one after another until
``--seconds`` have gone by and reports medians over them:

``wall_s``       wall time of the pass, after set-up;
``setup_s``      ``import bfdarcy`` plus building the inputs;
``peak_rss_mb``  ``ru_maxrss`` of the process that ran the pass.

With ``--trace 1`` untraced and traced passes alternate.  A traced pass
wraps the layer boundaries (see ``spans.py``) around its set-up and its
pass and writes its spans to ``.bench_work/`` at exit; the run reports
the per-layer metrics of the median traced pass, the untraced remainder
of that pass and the tracing overhead (median traced minus median
untraced pass wall).

One op is one nonlinear solve, or one sweep cell, with its checks; a
failed solve or check counts as failed and is printed.  The last line of
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("study", "channel", "sweep")
PASS_TIMEOUT_S = 120


def import_bfdarcy():
    """Import bfdarcy, with every submodule, from this checkout's ``src/``."""
    package = SRC / "bfdarcy"
    sys.path.insert(0, str(SRC))
    import bfdarcy.cli  # imports every other submodule too

    if Path(bfdarcy.__file__).resolve().parent != package.resolve():
        raise ImportError(f"bfdarcy was imported from {bfdarcy.__file__}, not {package}")
    return bfdarcy


def one_pass(args, index):
    """Child mode: set up and run one pass; print failures, then a JSON record."""
    start = time.perf_counter()
    tracer = spans.Tracer() if args.traced_pass else None
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        bf = import_bfdarcy()
        refs = workloads.load_references()
        tally = workloads.Tally()
        with tracer.installed(bf) if tracer else contextlib.nullcontext():
            with tracer.span("bench.setup") if tracer else contextlib.nullcontext() as setup_root:
                inputs = workloads.setup(bf, args.workload, args.seed, workdir, refs)
            setup_s = time.perf_counter() - start
            with tracer.span("bench.pass") if tracer else contextlib.nullcontext() as pass_root:
                t0 = time.perf_counter()
                workloads.run_pass(bf, args.workload, inputs, workdir, refs, tally)
                wall_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    if tracer:
        layers = spans.layer_metrics(tracer.spans, [setup_root, pass_root])
        layers["trace.wall_s"] = (pass_root.wall, "s")
        layers["trace.remainder_s"] = (spans.self_times(tracer.spans)[pass_root.id], "s")
        record["layers"] = layers
        path = WORK / f"trace-{args.workload}-seed{args.seed}-pass{index}.json"
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
    print(json.dumps(record))


def run_child(args, index, traced):
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--pass-index", str(index)]
    if traced:
        command.append("--traced-pass")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"pass {index} exited with {done.returncode}:\n{done.stderr}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bfdarcy" / "__init__.py").is_file():
        print(f"error: no bfdarcy package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.pass_index is not None:
        one_pass(args, args.pass_index)
        return 0

    plain, traced = [], []
    start = time.perf_counter()
    while not plain or (args.trace and not traced) or time.perf_counter() - start < args.seconds:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        record = run_child(args, len(plain) + len(traced), want_trace)
        (traced if want_trace else plain).append(record)

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, each in a fresh interpreter")
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in plain)
    print(f"  pass walls (s): {walls}")
    if args.trace:
        median_pass = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        metrics = {name: tuple(vu) for name, vu in median_pass["layers"].items()}
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain), "s")
    else:
        metrics = {
            name: (statistics.median(r[name] for r in plain), unit)
            for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'ops':28s} {attempted:14d} count")
    print(f"  {'ops_failed':28s} {failed:14d} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
