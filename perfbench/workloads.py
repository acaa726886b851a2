"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

Every workload drives bettistab from outside the package, in one process
and one thread.  Functions are looked up on the package at call time
(`bettistab.betti_oracle`, `bettistab.cli.main`, ...), so the traced run's
wrappers see the benchmark's own calls as well as the program's internal
ones.

A seed draws a random variable permutation per ideal, and every ideal is
relabelled by it before the program sees it.  Betti diagrams, and so
everything downstream, do not depend on variable names, so the checks do
not depend on the seed.  `polytope-path7` has no ideal; its seed permutes
the order of the candidate list handed to `build_polytope`.

This module must not import bettistab at module level: `setup_probe.py`
imports it first and then times the package import.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

ORACLE_CASES = ((6, 4), (7, 3), (8, 2))
POLYTOPE_N = 7
POLYTOPE_VERTICES = {4: 29, 6: 36}  # before pruning
C4_GENERATORS = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
VERIFY_PAPER_ARGV = ["verify-paper", "--n", "6", "--kmin", "4", "--kmax", "11"]
SCAN_RANGE = ("1", "7")

WORKLOADS = ("oracle-paths", "polytope-path7", "cli")


@dataclass
class Operation:
    """One timed call into the program and the check of its output.

    `run` takes the active tracer (None when untraced) and returns the
    output; `check` returns None when the output is right, else a reason.
    """

    label: str
    run: object
    check: object


@dataclass
class Inputs:
    operations: list
    permutation: dict


def permute_ideal(bettistab, ideal, perm):
    """Relabel variable t as perm[t]."""
    gens = []
    for g in ideal.generators:
        h = [0] * ideal.num_vars
        for t, e in enumerate(g):
            h[perm[t]] = e
        gens.append(h)
    return bettistab.make_ideal(ideal.num_vars, gens)


def build(bettistab, workload: str, seed: int, workdir: Path) -> Inputs:
    """Make the workload's inputs from the seed; input files go to `workdir`."""
    rng = random.Random(seed)
    if workload == "oracle-paths":
        return _build_oracle(bettistab, rng)
    if workload == "polytope-path7":
        return _build_polytope(bettistab, rng)
    if workload == "cli":
        return _build_cli(bettistab, rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _build_oracle(bettistab, rng) -> Inputs:
    ops, perms = [], {}
    for n, k in ORACLE_CASES:
        label = f"path{n}^{k}"
        perm = rng.sample(range(n), n)
        perms[label] = perm
        ideal = permute_ideal(bettistab, bettistab.path_ideal(n), perm)

        def run(tracer, ideal=ideal, k=k):
            return bettistab.betti_oracle(bettistab.power(ideal, k))

        def check(diagram, n=n, k=k):
            if diagram != bettistab.path_diagram(n, k):
                return "oracle diagram differs from the closed form"
            return None

        ops.append(Operation(label, run, check))
    return Inputs(ops, perms)


def _build_polytope(bettistab, rng) -> Inputs:
    golden = load_golden()["polytope-path7"]
    ops, perms = [], {}
    for k, vertex_count in POLYTOPE_VERTICES.items():
        label = f"path{POLYTOPE_N}-k{k}"
        m = len(bettistab.candidate_degree_sequences(bettistab.path_diagram(POLYTOPE_N, k)))
        order = rng.sample(range(m), m)
        perms[label] = order

        def run(tracer, k=k, order=order):
            diagram = bettistab.path_diagram(POLYTOPE_N, k)
            found = bettistab.candidate_degree_sequences(diagram)
            polytope = bettistab.enumerate_vertices(
                bettistab.build_polytope(diagram, [found[i] for i in order])
            )
            return diagram, polytope, bettistab.prune(polytope)

        def check(out, vertex_count=vertex_count, expected=golden[label]):
            diagram, polytope, pruned = out
            if len(polytope.vertices) != vertex_count:
                return f"{len(polytope.vertices)} vertices, expected {vertex_count}"
            for v in polytope.vertices:
                if not bettistab.verify_decomposition(diagram, v, polytope.candidates):
                    return "a vertex does not reconstruct the diagram"
            return json_mismatch(expected, pruned.to_json_dict())

        ops.append(Operation(label, run, check))
    return Inputs(ops, perms)


def _build_cli(bettistab, rng, workdir: Path) -> Inputs:
    importlib.import_module("bettistab.cli")  # the package does not import it

    golden = load_golden()["cli"]
    perm = rng.sample(range(4), 4)
    ideal = permute_ideal(bettistab, bettistab.make_ideal(4, C4_GENERATORS), perm)
    ideal_path = workdir / "c4.json"
    ideal_path.write_text(json.dumps(ideal.to_json_dict()), encoding="utf-8")
    scan_argv = ["scan", "--ideal", str(ideal_path), "--kmin", SCAN_RANGE[0], "--kmax", SCAN_RANGE[1]]

    def call(argv):
        def run(tracer):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = bettistab.cli.main(list(argv))
            text = out.getvalue()
            if tracer is not None:
                tracer.counts["cli.output_bytes"] += len(text.encode("utf-8"))
            return code, text

        return run

    def check_verify(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if report.get("reconstruction_ok") is not True:
            return "reconstruction_ok is not true"
        if report.get("all_zero_patterns_match") is not True:
            return "all_zero_patterns_match is not true"
        return json_mismatch(golden["verify-paper"], report)

    def check_scan(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        return json_mismatch(golden["scan-c4"], json.loads(text))

    ops = [
        Operation("verify-paper", call(VERIFY_PAPER_ARGV), check_verify),
        Operation("scan-c4", call(scan_argv), check_scan),
    ]
    return Inputs(ops, {"C4": perm})


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _as_rational(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            return None
    return None


def json_mismatch(expected, actual, where: str = "$"):
    """None when `actual` holds every value of `expected`, else where it differs.

    Numbers and rational strings compare as exact rationals, so "2/4" equals
    "1/2".  Keys that `actual` has and `expected` lacks are ignored: added
    report fields are not failures, wrong values are.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{where}: expected an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{where}.{key}: missing"
            found = json_mismatch(value, actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where}: expected a list of {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = json_mismatch(e, a, f"{where}[{i}]")
            if found:
                return found
        return None
    e, a = _as_rational(expected), _as_rational(actual)
    if e is not None and a is not None:
        return None if e == a else f"{where}: {actual!r} != {expected!r}"
    if type(expected) is not type(actual) or expected != actual:
        return f"{where}: {actual!r} != {expected!r}"
    return None
