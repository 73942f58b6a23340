"""drr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload toy-phases --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; drr is imported from its `src`
directory, never from an installed copy.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, measured with no wrapper
installed.  With `--trace 1` they are the per-layer ones, from spans recorded
around drr's public functions (see tracing.py).  The run's environment and
full results are also written to `.perfbench_out/`.

Load model: closed loop, one client in one process; each operation starts
when the previous one has finished.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# Spans whose calls and inclusive seconds are per-layer metrics.
CALLS = ["rans.push", "rans.pop", "rans.pmf_quantize", "vq_codec.encode_image",
         "vq_codec.decode_codes", "bits_back.build_coding_tables", "bits_back.fit",
         "bits_back.encode_stream", "bits_back.decode_stream",
         "replay_store.reconstruct_class", "learner.train_phase"]
SECONDS = CALLS + ["vq_codec.train_codec", "replay_store.ingest_phase", "replay_store.save",
                   "replay_store.account", "replay_store.load", "learner.evaluate",
                   "learner.make_toy_dataset", "cli.run_phases", "cli.report"]


def declared_metrics() -> dict:
    """Metric names and units, in order, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return args


def import_drr():
    """Import drr from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "drr" / "__init__.py").is_file():
        print(f"error: no drr sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import drr
    import drr.cli
    if Path(drr.__file__).resolve().parent != src / "drr":
        print(f"error: imported drr from {drr.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return drr


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree; the benchmark may run
    from a plain export, where there is none."""
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
    return None


def timing_summary(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} over n={n}"
    if n > 10:
        percentile = 100 * (n - 10) // n
        text += f", p{percentile} {ordered[n - 11]:.6g}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text


class Runner:
    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0

    def run_units(self, seconds: float, min_units: int) -> list[float]:
        """Closed loop until `seconds` have passed and `min_units` have run."""
        wl = self.workload
        times = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_units or time.perf_counter() < deadline:
            self.attempted += wl.ops_per_unit
            if wl.tracer is not None:
                wl.tracer.op = i
            try:
                elapsed, oks = wl.unit(i)
            except Exception:  # any escape is a failed unit, the run goes on
                traceback.print_exc()
                self.failed += wl.ops_per_unit
            else:
                self.failed += oks.count(False)
                times.append(elapsed)
            i += 1
        return times


def end_to_end(wl, runner: Runner) -> dict:
    """Set up SETUP_REPEATS times, then run units with no wrapper installed.

    Returns every metric the workload knows, under the names of the
    workload's own operation (experiment_s, phase_ingest_s, ...), plus the
    workload-independent names BENCHMARK.json declares (op_s, ...)."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
    wl.unit_seconds = runner.run_units(runner.seconds, wl.min_units)
    if not wl.unit_seconds:
        return {}
    print(f"setup_s: {timing_summary(setup_times)}")
    per_op = [s / wl.ops_per_unit for s in wl.unit_seconds]
    print(f"{wl.op_metric}: {timing_summary(per_op)}")
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    metrics.update(wl.metrics())
    metrics["op_s"] = metrics[wl.op_metric]
    metrics["ops_failed_ratio"] = (runner.failed / runner.attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(wl, runner: Runner, out_dir: Path, tag: str) -> dict:
    """One traced set-up, then half the run untraced and half traced.

    Every value is per operation: the median over traced units of the
    unit's total, divided by the operations in a unit."""
    tracer = tracing.Tracer()
    wl.tracer = tracer
    with tracer.installed():
        tracer.op = "setup"
        wl.setup()
    half = runner.seconds / 2
    untraced = runner.run_units(half, 1)
    with tracer.installed():
        traced = runner.run_units(half, 1)
    if not untraced or not traced:
        return {}
    tracer.write(str(out_dir / f"{tag}.spans.tsv"))

    ops = wl.ops_per_unit
    table = tracer.per_op()
    ids = [op for op in table if isinstance(op, int)]  # only traced units have spans

    def median_of(read):
        return statistics.median(read(op) for op in ids) / ops

    metrics = {}
    for name in CALLS:
        metrics[f"{name}_calls"] = median_of(lambda op: table[op]["calls"][name])
    for name in SECONDS:
        metrics[f"{name}_s"] = median_of(lambda op: table[op]["seconds"][name])
    if not metrics["vq_codec.train_codec_s"] and "setup" in table:
        # The paper-shaped workloads train their codec in set-up only.
        metrics["vq_codec.train_codec_s"] = table["setup"]["seconds"]["vq_codec.train_codec"]
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = median_of(lambda op: table[op]["self"][layer])
    for kind in ("encode", "decode"):
        symbols = median_of(lambda op: tracer.counters[(op, f"{kind}_symbols")])
        busy = metrics[f"bits_back.{kind}_stream_s"]
        metrics[f"bits_back.{kind}_symbols_per_s"] = symbols / busy if busy else 0.0
    metrics["bits_back.peak_demand_bits"] = max(
        tracer.peaks.get((op, "peak_demand_bits"), 0.0) for op in ids)
    metrics["replay_store.files_written"] = median_of(
        lambda op: tracer.counters[(op, "files_written")])
    metrics.update(wl.quality(tracer))
    runner.failed += wl.late_failures
    untraced_op = statistics.median(untraced) / ops
    traced_op = statistics.median(traced) / ops
    metrics["trace.untraced_op_s"] = untraced_op
    metrics["trace.traced_op_s"] = traced_op
    metrics["trace.overhead_s"] = traced_op - untraced_op
    metrics["trace.spans_per_op"] = median_of(lambda op: sum(table[op]["calls"].values()))

    counts = {tuple(sorted(table[op]["calls"].items())) for op in ids}
    print(f"span counts repeat exactly across {len(ids)} traced units: "
          f"{'yes' if len(counts) == 1 else 'no'}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    drr = import_drr()

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    declared = declared_metrics()
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    try:
        wl = workloads.WORKLOADS[args.workload](drr, str(workdir), args.seed)
        runner = Runner(wl, float(args.seconds))
        if args.trace:
            measured = per_layer(wl, runner, out_dir, tag)
        else:
            measured = end_to_end(wl, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not measured:
        print("error: no operation completed", file=sys.stderr)
        return 1

    if args.trace:
        # Metrics of layers this workload does not reach read 0.
        metrics = {name: (float(measured.pop(name, 0.0)), unit)
                   for name, unit in declared["per_layer"].items()}
        if measured:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(measured)}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    else:
        for name, (value, unit) in measured.items():
            print(f"{name} = {value:.6g} {unit}")
        metrics = {name: measured[name] for name in declared["end_to_end"]}
        for name, (value, unit) in metrics.items():
            if unit != declared["end_to_end"][name]:
                raise ValueError(f"{name} measured in {unit}, declared in "
                                 f"{declared['end_to_end'][name]}")
    print(f"{runner.failed} of {runner.attempted} operations failed")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(out_dir / f"{tag}.json", "w") as f:
        json.dump({"environment": env, "workload": args.workload, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
