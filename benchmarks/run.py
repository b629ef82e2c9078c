#!/usr/bin/env python3
"""Benchmark of sphcav, end to end and per layer.

    python3 benchmarks/run.py --workload sphere_fields --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50

Run from the root of a source checkout; ``sphcav`` is imported from its
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` one traced pass gives the per-layer
ones and its spans are written under ``benchmarks/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("sphere_fields", "cone_sweeps")
SETUP_PROBES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import sphcav from this checkout's src/, and nowhere else."""
    if not (SRC / "sphcav" / "__init__.py").is_file():
        sys.exit(f"error: no sphcav sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import sphcav

    if Path(sphcav.__file__).resolve().parent != (SRC / "sphcav").resolve():
        sys.exit(f"error: sphcav imported from {sphcav.__file__}, not from {SRC}")
    import workloads

    return workloads


def _setup_seconds(args) -> float:
    """Median over fresh interpreters of start -> first timed operation ready."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _run_pass(ops, tracer=None) -> tuple[dict, float]:
    results = {}
    t0 = time.perf_counter()
    for name, call in ops:
        if tracer is not None:
            tracer.new_operation()
        try:
            results[name] = call()
        except Exception as exc:  # a raising operation is a failed one
            results[name] = exc
    return results, time.perf_counter() - t0


def run_workload(args) -> dict:
    wl_mod = _import_program()
    wl = wl_mod.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    if args.setup_probe:
        print(repr(time.time()))
        return {}

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            results, pass_s = _run_pass(wl.operations(inputs), tracer)
        finally:
            tracer.uninstall()
        first, times, repeat_ok = results, [pass_s], True
    else:
        first, times, repeat_ok = None, [], True
        begin = time.perf_counter()
        # whole passes only; another starts only if it should end within --seconds
        while True:
            results, pass_s = _run_pass(wl.operations(inputs))
            times.append(pass_s)
            if first is None:
                first, first_bytes = results, pickle.dumps(results)
            else:  # later passes are compared, then dropped, so memory does not grow
                repeat_ok &= pickle.dumps(results) == first_bytes
            del results
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(times) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = _setup_seconds(args)

    outcome = wl.check(inputs, first)
    outcome.add("all", "repeatable", repeat_ok, "every later pass returned the first pass's results")
    ops_per_pass = len(first)
    raised = sum(isinstance(v, Exception) for v in first.values())
    failed_per_pass = len(outcome.known_fault) + raised

    for op, check, ok, detail in outcome.checks:
        if not ok:
            print(f"CHECK FAILED {args.workload}/{op}/{check}: {detail}")
    for op in sorted(outcome.known_fault):
        print(f"known fault {args.workload}/{op}: the PEC wedge omits every TE m = 0 mode")

    if tracer is not None:
        out_dir = HERE / "out"
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(times[0]).items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"{args.workload}: {len(times)} passes, pass times " + ", ".join(f"{t:.3f}" for t in times) + " s")
    return {
        "correct": outcome.correct,
        "attempted": ops_per_pass * len(times),
        "failed": failed_per_pass * len(times),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            sys.exit(f"error: workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<36} {v['value']:>14.6g} {v['unit']}")
            combined["metrics"][f"{name}.{metric}"] = v
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    args = _parse(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
