#!/usr/bin/env python3
"""Compare two source trees of sphcav on one benchmark workload, in one process.

  python3 scripts/ab_trees.py BASE/src CHANGE/src --workload sphere_fields --pairs 30

Each tree's ``sphcav`` is imported on its own, and ``benchmarks/workloads.py``
of this checkout (read, never changed) is loaded once per tree against it.
Whole passes of the workload then alternate between the trees, the order
flipping every pair, so that a drift of the CPU's speed lands on both alike.
Printed: each tree's median pass time, the median of the per-pair ratios
change / base, how many pairs the change won, and whether the first passes'
results are identical to the byte; then each operation's median time per tree
within those passes and the ratio of those medians.  Last, each operation is
timed on its own, as a same-process A/B: a loop of a fixed number of calls
(OP_LOOP) on one tree, then on the other, the order flipping every pair, for as
many pairs as the passes took.  Its table gives each tree's median time per call,
the median of the per-pair ratios and how many pairs the change won; a
sub-millisecond operation, timed once per pass above, carries the scheduler's
noise there, and much less here.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import pickle
import statistics
import sys
import time
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
OP_LOOP = 5  # calls per timed loop of one operation


def _drop_package() -> dict:
    """Remove sphcav and its modules from sys.modules, returning them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules) if name == "sphcav" or name.startswith("sphcav.")}


class Tree:
    """One source tree's sphcav with the workload module loaded against it."""

    def __init__(self, src: str, tag: str, workload: str, seed: int):
        src = str(Path(src).resolve())
        _drop_package()
        sys.path.insert(0, src)
        try:
            package = importlib.import_module("sphcav")
            for name in ("specfun", "angular", "radial", "fields", "energy", "spectrum", "cli"):
                importlib.import_module(f"sphcav.{name}")
        finally:
            sys.path.remove(src)
        if Path(package.__file__).resolve().parent != Path(src, "sphcav"):
            sys.exit(f"error: sphcav imported from {package.__file__}, not from {src}")
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}", BENCHMARKS / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        self.modules = _drop_package()
        self.workload = module.WORKLOADS[workload]
        with self:
            self.inputs = self.workload.build(seed)
            # the operations timed alone, one list kept per tree and timed in pass order, so
            # that an operation finds what an earlier one made (a mode before its evaluation)
            self.alone = dict(self.workload.operations(self.inputs))

    def __enter__(self):
        """Make this tree's modules the sphcav of sys.modules, for lookups by name at run time."""
        _drop_package()
        sys.modules.update(self.modules)
        return self

    def __exit__(self, *exc):
        _drop_package()

    def run(self) -> tuple[float, dict, dict]:
        """One whole pass: its time, each operation's time and its results."""
        with self:
            results, op_times = {}, {}
            start = time.perf_counter()
            for name, call in self.workload.operations(self.inputs):
                t = time.perf_counter()
                results[name] = call()
                op_times[name] = time.perf_counter() - t
            return time.perf_counter() - start, op_times, results

    def time_calls(self, name: str, count: int) -> float:
        """Seconds per call of operation ``name`` over a loop of ``count`` calls."""
        with self:
            call = self.alone[name]
            start = time.perf_counter()
            for _ in range(count):
                call()
            return (time.perf_counter() - start) / count

    def dump(self, results: dict) -> bytes:
        with self:
            return pickle.dumps(results)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", help="the src/ directory of the base tree")
    p.add_argument("change", help="the src/ directory of the changed tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(BENCHMARKS))  # workloads.py imports oracle.py by name
    base = Tree(args.base, "base", args.workload, args.seed)
    change = Tree(args.change, "change", args.workload, args.seed)
    (*_, first_base), (*_, first_change) = base.run(), change.run()  # warm-up passes
    identical = base.dump(first_base) == change.dump(first_change)
    times: dict[str, list[float]] = {"base": [], "change": []}
    op_times: dict[str, dict[str, list[float]]] = {"base": {}, "change": {}}
    for pair in range(args.pairs):
        for tag, tree in ((("base", base), ("change", change)) if pair % 2 == 0 else (("change", change), ("base", base))):
            total, ops, _ = tree.run()
            times[tag].append(total)
            for name, t in ops.items():
                op_times[tag].setdefault(name, []).append(t)
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    print(f"  base   median {statistics.median(times['base']) * 1e3:9.2f} ms")
    print(f"  change median {statistics.median(times['change']) * 1e3:9.2f} ms")
    print(f"  median pair ratio change/base {statistics.median(ratios):.3f}, change faster in {wins} of {args.pairs}")
    print(f"  first-pass results identical to the byte: {identical}")
    print(f"  {'operation':<40} {'base ms':>9} {'change ms':>9} {'ratio':>6}")
    for name, base_ops in op_times["base"].items():
        b, c = statistics.median(base_ops), statistics.median(op_times["change"].get(name, [math.nan]))
        print(f"  {name:<40} {b * 1e3:9.3f} {c * 1e3:9.3f} {c / b:6.3f}")
    print(f"  each operation alone, {args.pairs} alternating pairs of {OP_LOOP}-call loops")
    print(f"  {'operation':<40} {'base ms':>9} {'change ms':>9} {'ratio':>6} {'wins':>5}")
    for name in op_times["base"]:
        alone: dict[str, list[float]] = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = (("base", base), ("change", change)) if pair % 2 == 0 else (("change", change), ("base", base))
            for tag, tree in order:
                alone[tag].append(tree.time_calls(name, OP_LOOP))
        op_ratios = [c / b for b, c in zip(alone["base"], alone["change"])]
        b, c = statistics.median(alone["base"]), statistics.median(alone["change"])
        wins = sum(r < 1.0 for r in op_ratios)
        print(f"  {name:<40} {b * 1e3:9.3f} {c * 1e3:9.3f} {statistics.median(op_ratios):6.3f} {wins:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
