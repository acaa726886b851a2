"""Benchmark for bettistab: three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload oracle-paths --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see workloads.py and BENCHMARK.json for why each exists):

- oracle-paths: `betti_oracle(power(I, k))` for permuted path ideals at
  (n, k) = (6, 4), (7, 3), (8, 2), each checked against the closed form;
- polytope-path7: closed form -> candidates -> polytope -> vertex
  enumeration -> prune for path(7) at k = 4 and 6;
- cli: `bettistab.cli.main` in-process on `verify-paper` (formula mode) and
  on an oracle-mode `scan` of a permuted 4-cycle ideal.

One pass runs every operation of the workload once.  Times are seconds at
a fixed reference host speed (speed.py): the host is shared and its speed
drifts by tens of percent, so each stretch of an operation is scaled by a
speed probe run next to it.  The unscaled seconds are printed on the line
before the result.  With `--trace 0` the run reports end-to-end metrics:

- setup_s: median over fresh interpreters of importing bettistab and
  building the inputs (setup_probe.py);
- cold_s: the first pass in this process, right after import;
- wall_s: median over the passes after the first, run for `--seconds`;
- peak_rss_mb: this process's high-water resident set size.

With `--trace 1` it alternates untraced and traced passes for `--seconds`
and reports the per-layer metrics of tracing.py (median over traced passes)
and `trace.overhead_frac`, the traced pass time over the untraced one,
minus 1.  Spans are written once, at the end, to perfbench/out/.

Every operation's output is checked; one that raises or fails its check
counts in `failed`.  The last line of stdout is the result object; the line
before it records the seed's permutations, the sample counts and, per
operation, the median warm time.  Nothing
under src/ is changed: the program is imported from src/ of the checkout
that holds this directory, and the run stops with an error when it is not
there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        bettistab = importlib.import_module("bettistab")
        importlib.import_module("bettistab.cli")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bettistab from {SRC}: {exc}")
    if not Path(bettistab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: bettistab was imported from outside {SRC}")
    return bettistab


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, at the reference speed."""
    samples = []
    before = speed.reference_factor()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        after = speed.reference_factor()
        elapsed = float(done.stdout.strip().splitlines()[-1])
        samples.append(elapsed * (before + after) / 2)
        before = after
    return statistics.median(samples)


class Runner:
    """Runs passes over a workload's operations and checks every output."""

    def __init__(self, inputs: workloads.Inputs):
        self.operations = inputs.operations
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None) -> tuple:
        """Run one pass, traced when a tracer is given, and check its outputs.

        Returns (seconds, seconds at the reference speed, and the latter
        per operation label); see speed.py for the reference speed.
        """

        def attempt(op):
            try:
                return op.run(tracer), None
            except Exception as exc:  # a failed operation is counted; the run goes on
                return None, exc

        gc.collect()
        outputs, raw, scaled, per_op = [], 0.0, 0.0, {}
        if tracer is not None:
            tracer.install()
        try:
            with speed.SpeedProbe() as probe:
                for op in self.operations:
                    (output, exc), op_raw, op_scaled = probe.measure(lambda: attempt(op))
                    outputs.append((op, output, exc))
                    per_op[op.label] = op_scaled
                    raw += op_raw
                    scaled += op_scaled
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op, output, exc in outputs:
            self._check(op, output, exc)
        return raw, scaled, per_op

    def _check(self, op, output, exc) -> None:
        self.attempted += 1
        if exc is None:
            try:
                reason = op.check(output)
            except Exception as check_exc:  # a malformed output fails its check
                reason = f"check raised {type(check_exc).__name__}: {check_exc}"
        else:
            reason = f"raised {type(exc).__name__}: {exc}"
        if reason:
            self.failures.append(f"{op.label}: {reason}")
            print(f"perfbench: {op.label} failed: {reason}", file=sys.stderr)


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float):
    setup = measure_setup(workload, seed)
    cold_raw, cold, _ = runner.run_pass()
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(runner.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(w for _, w, _ in walls), "s"),
        "cold_s": (cold, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "samples": {"wall_s": len(walls), "setup_s": SETUP_SAMPLES},
        "unscaled_s": {"wall": statistics.median(r for r, _, _ in walls), "cold": cold_raw},
        "operation_s": {label: statistics.median(p[label] for _, _, p in walls) for label in walls[0][2]},
    }
    return metrics, info


def per_layer(runner: Runner, workload: str, seed: int, seconds: float):
    tracer = tracing.Tracer()
    runner.run_pass()  # warm-up, like the cold pass of the untraced run
    untraced, traced, per_pass, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.run_pass()[1])
        tracer.reset()
        traced.append(runner.run_pass(tracer)[1])
        spans.append(tracer.spans)
        per_pass.append(tracing.layer_metrics(tracing.PassStats(tracer.spans, tracer.counts), tracer.missing))
    metrics = {
        name: (statistics.median(p[name] for p in per_pass), tracing.unit_of(name))
        for name in per_pass[-1]
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1,
        "ratio",
    )
    write_spans(workload, seed, spans)
    if tracer.missing:
        print(f"perfbench: not wrapped (name gone): {sorted(tracer.missing)}", file=sys.stderr)
    return metrics, {"samples": {"untraced": len(untraced), "traced": len(traced)}}


def write_spans(workload: str, seed: int, passes) -> None:
    names = sorted({s[0] for spans in passes for s in spans})
    index = {name: i for i, name in enumerate(names)}
    data = {
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start", "end", "parent"],
        "names": names,
        "passes": [[[index[n], a, b, p] for n, a, b, p in spans] for spans in passes],
    }
    with open(OUT / f"spans-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))


def run_one(args) -> int:
    bettistab = import_program()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        inputs = workloads.build(bettistab, args.workload, args.seed, Path(workdir))
        runner = Runner(inputs)
        measure = per_layer if args.trace else end_to_end
        metrics, info = measure(runner, args.workload, args.seed, args.seconds)
    failed = len(runner.failures)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "permutation": inputs.permutation,
        **info,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:5],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process and print every metric by name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: workload {workload} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed_frac = result["failed"] / result["attempted"]
        print(f"{workload:15s} {'failed_frac':42s} {failed_frac:<14.6g} ratio")
        for name, metric in result["metrics"].items():
            print(f"{workload:15s} {name:42s} {metric['value']:<14.6g} {metric['unit']}")
            total["metrics"][f"{workload}/{name}"] = metric
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
