"""plugner benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tune-fewshot --seed 1 --seconds 20 --trace 0

runs the workload in this process, checks its outputs and prints, as the last
line of standard output, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A full result (checks, input make-up, machine facts) goes to
``perfbench/results/``, and a traced run also writes its spans there.

    python3 perfbench/run.py --workload tune-fewshot --repeat 10 --seed 1 --trace 0

runs the workload ten times in fresh processes, with seeds 1 to 10, and
prints the median and quartiles of every metric.
"""
from __future__ import annotations

import os
import time


def _process_age_at_import() -> float:
    """Seconds this process had been alive when this module started loading."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: start time since boot
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE0, _T0 = _process_age_at_import(), time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("tune-fewshot", "decode-dense")


def process_age() -> float:
    return _AGE0 + time.perf_counter() - _T0


def machine_facts() -> dict:
    import ctypes

    import numpy as np

    facts = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
             "python": sys.version.split()[0], "numpy": np.__version__}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                facts["blas_threads"] = getattr(handle, symbol)()
                break
    facts["blas_thread_env"] = {k: v for k, v in os.environ.items() if k.endswith("NUM_THREADS")}
    return facts


def run_once(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import plugner
    except ImportError as exc:
        print(f"perfbench: cannot import plugner from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(plugner.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: plugner imported from {plugner.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    RESULTS.mkdir(exist_ok=True)
    tracer = workloads.Untraced()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = workloads.Run(tracer, process_age, RESULTS)
    workload, primary = workloads.WORKLOADS[args.workload]
    try:
        workload(run, args.seed)
    finally:
        if args.trace:
            tracer.uninstall()

    correct = all(c["ok"] for c in run.checks)
    metrics = dict(run.metrics)
    if args.trace:
        layers = tracer.per_layer(primary)
        layers["trace.train_steps_per_s"] = metrics["train_steps_per_s"]
        layers["trace.decode_sentences_per_s"] = metrics["decode_sentences_per_s"]
        metrics = layers
        tracer.write(RESULTS / f"trace-{args.workload}.npz")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "correct": correct,
        "attempted": run.attempted, "failed": run.failed, "metrics": metrics, "checks": run.checks,
        "makeup": run.makeup, "machine": machine_facts(),
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for c in run.checks:
        print(f"{'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}", file=sys.stderr)
    print(f"make-up: {json.dumps(run.makeup, sort_keys=True)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args) -> int:
    """Run the workload ``args.repeat`` times in fresh processes and summarize."""
    rows = []
    for seed in range(args.seed, args.seed + args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row["seed"], row["wall_s"] = seed, wall
        rows.append(row)
        print(f"seed {seed}: correct {row['correct']}, {row['failed']}/{row['attempted']} failed, "
              f"{wall:.1f} s wall", file=sys.stderr)
    summary = {"workload": args.workload, "trace": args.trace, "runs": rows, "metrics": {}}
    print(f"{'metric':34s} {'unit':10s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, first in rows[0]["metrics"].items():
        q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in rows])
        spread = (q3 - q1) / med if med else float("nan")
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": first["unit"]}
        print(f"{name:34s} {first['unit']:10s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%}")
    shares = sorted({r["failed"] / r["attempted"] for r in rows})
    walls = [r["wall_s"] for r in rows]
    print(f"correct in {sum(r['correct'] for r in rows)}/{len(rows)} runs; failed shares {shares}; "
          f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"repeat-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8"
    )
    return 0 if all(r["correct"] for r in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20,
                        help="nominal length of the measured part; the work itself is fixed per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run this many seeds in fresh processes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return repeat(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
