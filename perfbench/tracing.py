"""Tracing for the per-layer run, installed from outside the package.

Each target is a public function of one bettistab module.  It is wrapped
at every name under which another bettistab module (or the package
namespace, which the benchmark calls through) imported it, so a span marks
a call across a layer boundary, e.g. `bettistab.koszul_oracle.matrix_rank`
or `bettistab.decomposition.solve_exact`.  Calls inside the defining module
are not wrapped, except where a target says so (`strand_homology`, which
`betti_oracle` calls, and `cli.main`, which the benchmark calls).

Spans (name, start, end, parent) stay in memory and are written out once
at the end.  A span's self time is its duration minus the time covered by
its child spans; calls run on one thread, so children never overlap.
Span times are unscaled seconds and include the speed probe's short
interruptions (speed.py), a few percent.  Targets that are hot and cheap (`MonomialIdeal.contains`, `pure_diagram`,
`candidate_degree_sequences`) only count calls.

A target whose name no longer exists is skipped; every metric that needs
it is then reported absent rather than failing the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    module: str  # bettistab submodule that defines the name
    attr: str  # attribute path inside it; "Class.method" wraps the class
    span: bool = True  # False: count calls only
    in_module: bool = False  # also wrap calls inside the defining module
    hook: object = None  # hook(tracer, args, result) records counts

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.rsplit('.', 1)[-1]}"


def _lcm_box(tracer, args, result):
    tracer.counts["koszul_oracle.lcm_box"] += math.prod(c + 1 for c in args[0].exponent_lcm())


def _nonzero_strand(tracer, args, result):
    if any(result):
        tracer.counts["koszul_oracle.nonzero_strands"] += 1


def _candidates(tracer, args, result):
    tracer.counts["decomposition.candidates"] += len(result)


def _vertices(tracer, args, result):
    tracer.counts["decomposition.vertices"] += len(result.vertices)


def _fit_found(tracer, args, result):
    if result is not None:
        tracer.counts["stability.fits_found"] += 1


TARGETS = (
    Target("monomial_ideal", "MonomialIdeal.contains", span=False),
    Target("monomial_ideal", "power"),
    Target("koszul_oracle", "betti_oracle", hook=_lcm_box),
    Target("koszul_oracle", "strand_homology", in_module=True, hook=_nonzero_strand),
    Target("exact_arith", "matrix_rank"),
    Target("exact_arith", "solve_exact"),
    Target("exact_arith", "fit_rational_function", hook=_fit_found),
    Target("exact_arith", "fit_polynomial", hook=_fit_found),
    Target("path_formula", "path_diagram"),
    Target("diagram", "pure_diagram", span=False),
    Target("decomposition", "candidate_degree_sequences", span=False, hook=_candidates),
    Target("decomposition", "build_polytope"),
    Target("decomposition", "enumerate_vertices", hook=_vertices),
    Target("decomposition", "prune"),
    Target("stability", "scan_powers"),
    Target("stability", "compare_reference"),
    Target("cli", "main", in_module=True),
)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.missing = set()  # target names that could not be wrapped
        self._stack = []
        self._patches = []  # (owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, target: Target, fn):
        stack, name, hook, tracer = self._stack, target.name, target.hook, self
        if not target.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every target; remember what was replaced."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "bettistab" or key.startswith("bettistab."))
        ]
        for target in TARGETS:
            owner = sys.modules.get(f"bettistab.{target.module}")
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.add(target.name)
                continue
            wrapper = self._wrap(target, original)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                if module is owner and not target.in_module:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


class PassStats:
    """Totals, self times and call counts over one traced pass's spans."""

    def __init__(self, spans, counts):
        self.counts = counts
        self.calls = Counter(counts)
        self.total = Counter()
        self.self_time = Counter()
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_time[name] += end - start - child[i]
            if not self._nested_in_same(spans, i):
                self.total[name] += end - start
        self.solves_in_enumeration = sum(
            1
            for name, _, _, parent in spans
            if name == "exact_arith.solve_exact"
            and parent >= 0
            and spans[parent][0] == "decomposition.enumerate_vertices"
        )

    @staticmethod
    def _nested_in_same(spans, i) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False


def _ratio(num, den) -> float:
    """A ratio whose base is 0 (the layer did not run) reads 0."""
    return num / den if den else 0.0


# metric name -> (target names it needs, function of PassStats)
LAYER_METRICS = {
    "monomial_ideal.contains.calls": (
        ["monomial_ideal.contains"], lambda s: s.calls["monomial_ideal.contains"]),
    "monomial_ideal.power.s": (
        ["monomial_ideal.power"], lambda s: s.total["monomial_ideal.power"]),
    "koszul_oracle.betti_oracle.s": (
        ["koszul_oracle.betti_oracle"], lambda s: s.total["koszul_oracle.betti_oracle"]),
    "koszul_oracle.betti_oracle.self_s": (
        ["koszul_oracle.betti_oracle"], lambda s: s.self_time["koszul_oracle.betti_oracle"]),
    "koszul_oracle.strand_homology.calls": (
        ["koszul_oracle.strand_homology"], lambda s: s.calls["koszul_oracle.strand_homology"]),
    "koszul_oracle.strand_homology.self_s": (
        ["koszul_oracle.strand_homology"],
        lambda s: s.self_time["koszul_oracle.strand_homology"]),
    "koszul_oracle.filter_keep_ratio": (
        ["koszul_oracle.betti_oracle", "koszul_oracle.strand_homology"],
        lambda s: _ratio(s.calls["koszul_oracle.strand_homology"], s.counts["koszul_oracle.lcm_box"])),
    "koszul_oracle.nonzero_ratio": (
        ["koszul_oracle.strand_homology"],
        lambda s: _ratio(s.counts["koszul_oracle.nonzero_strands"],
                         s.calls["koszul_oracle.strand_homology"])),
    "exact_arith.matrix_rank.calls": (
        ["exact_arith.matrix_rank"], lambda s: s.calls["exact_arith.matrix_rank"]),
    "exact_arith.matrix_rank.s": (
        ["exact_arith.matrix_rank"], lambda s: s.total["exact_arith.matrix_rank"]),
    "exact_arith.solve_exact.calls": (
        ["exact_arith.solve_exact"], lambda s: s.calls["exact_arith.solve_exact"]),
    "exact_arith.solve_exact.s": (
        ["exact_arith.solve_exact"], lambda s: s.total["exact_arith.solve_exact"]),
    "exact_arith.fit_rational_function.calls": (
        ["exact_arith.fit_rational_function"],
        lambda s: s.calls["exact_arith.fit_rational_function"]),
    "exact_arith.fit_rational_function.s": (
        ["exact_arith.fit_rational_function"],
        lambda s: s.total["exact_arith.fit_rational_function"]),
    "exact_arith.fit_polynomial.calls": (
        ["exact_arith.fit_polynomial"], lambda s: s.calls["exact_arith.fit_polynomial"]),
    "exact_arith.fit_polynomial.s": (
        ["exact_arith.fit_polynomial"], lambda s: s.total["exact_arith.fit_polynomial"]),
    "decomposition.candidates": (
        ["decomposition.candidate_degree_sequences"],
        lambda s: s.counts["decomposition.candidates"]),
    "decomposition.subsets_visited": (
        ["decomposition.enumerate_vertices", "exact_arith.solve_exact"],
        lambda s: s.solves_in_enumeration),
    "decomposition.vertices": (
        ["decomposition.enumerate_vertices"], lambda s: s.counts["decomposition.vertices"]),
    "decomposition.feasible_ratio": (
        ["decomposition.enumerate_vertices", "exact_arith.solve_exact"],
        lambda s: _ratio(s.counts["decomposition.vertices"], s.solves_in_enumeration)),
    "decomposition.enumerate_vertices.s": (
        ["decomposition.enumerate_vertices"],
        lambda s: s.total["decomposition.enumerate_vertices"]),
    "decomposition.enumerate_vertices.self_s": (
        ["decomposition.enumerate_vertices"],
        lambda s: s.self_time["decomposition.enumerate_vertices"]),
    "decomposition.build_polytope.s": (
        ["decomposition.build_polytope"], lambda s: s.total["decomposition.build_polytope"]),
    "decomposition.prune.s": (
        ["decomposition.prune"], lambda s: s.total["decomposition.prune"]),
    "diagram.pure_diagram.calls": (
        ["diagram.pure_diagram"], lambda s: s.calls["diagram.pure_diagram"]),
    "path_formula.path_diagram.s": (
        ["path_formula.path_diagram"], lambda s: s.total["path_formula.path_diagram"]),
    "stability.scan_powers.self_s": (
        ["stability.scan_powers"], lambda s: s.self_time["stability.scan_powers"]),
    "stability.fit_success_ratio": (
        ["exact_arith.fit_rational_function", "exact_arith.fit_polynomial"],
        lambda s: _ratio(s.counts["stability.fits_found"],
                         s.calls["exact_arith.fit_rational_function"]
                         + s.calls["exact_arith.fit_polynomial"])),
    "stability.compare_reference.s": (
        ["stability.compare_reference"], lambda s: s.total["stability.compare_reference"]),
    "cli.main.self_s": (["cli.main"], lambda s: s.self_time["cli.main"]),
    "cli.output_bytes": (["cli.main"], lambda s: s.counts["cli.output_bytes"]),
}

COUNT_METRICS = {
    name for name in LAYER_METRICS
    if name.endswith((".calls", ".candidates", ".subsets_visited", ".vertices", ".output_bytes"))
}


def layer_metrics(stats: PassStats, missing) -> dict:
    """Per-layer metrics of one traced pass; those needing a missing target are left out."""
    return {
        name: fn(stats)
        for name, (needs, fn) in LAYER_METRICS.items()
        if not missing.intersection(needs)
    }


def unit_of(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"
