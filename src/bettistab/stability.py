"""Stabilization scans across powers of an ideal.

`scan_powers` computes, for each power k in a range, the Betti diagram (by
the closed form for the labelled path ideal, by the Koszul oracle otherwise;
`use_formula` records which), the pruned polytope of its decompositions,
and a combinatorial signature (vertex count, dimension, and the multiset of
vertex zero patterns over the sorted candidate list).  It then detects the
largest stable suffix window (at least three consecutive equal signatures
with equal candidate counts), matches the candidate families across the
window as affine-in-k templates, pairs vertices across k by zero pattern,
and fits each vertex coordinate with an exact rational function of k.  A
finite scan can only certify "stable in range", never stability itself.

A vertex stays the pruned polytope's primitive integer ray (x_0, ..., x_{m-1},
s), with coordinate c the value x_c / s: the scan, the report JSON and
`compare_reference` read the rays, never the polytope's Fraction `vertices`
view.  Fractions are made only for the window's distinct fit samples.

Every trajectory fit is validated on a held-out sample: the fit uses all
window samples except the last and must reproduce the last exactly.  The
degree search is bounded only by what that held-out sample can check: over
a window of w samples every pair (dn, dd) with dn + dd <= w - 2 is tried,
lowest total degree first, so a family of any degree fits once the window
is wide enough.

The search is one run of the extended Euclidean algorithm, not one linear
solve per pair.  Let (r_j, t_j) be the Euclid pairs of m = prod(k - k_i)
and the interpolant of the N = w - 1 fit samples (`rational_reconstructions`).
For dn + dd <= N - 1, every nonzero (p, q) with deg p <= dn, deg q <= dd and
p(k_i) = v_i q(k_i) is a polynomial multiple of (r_j, t_j) for the first j
with deg r_j <= dn (von zur Gathen & Gerhard, Modern Computer Algebra,
section 5.7, Thm 5.16).  So the pair (dn, dd) has a solution exactly when
deg t_j <= dd, and every solution has the canonical form of r_j/t_j.  Pair
j answers the (dn, dd) with max(deg r_j, 0) <= dn < deg r_{j-1} and
dd >= deg t_j, first in the search order at (max(deg r_j, 0), deg t_j).
Checking the Euclid pairs in ascending (total, dn) of that first degree
pair returns exactly the fit that trying every degree pair in turn returns.

Column sums (total Betti numbers per homological index) go through the same
fitter as polynomials (denominator degree 0, Kodiyalam), with the same
held-out check.

Each scan fits every distinct trajectory sample sequence once: many
trajectories repeat (coordinates shared between vertices, coordinates that
vanish on the whole window), and a fit is a function of its (k, value)
samples and the polynomial flag alone, so a memo local to the scan returns
exactly the fit that a new search would find.  A trajectory's key is its
values x_c / s as reduced pairs of ints (s > 0), equal exactly when the
values are, and its Fractions are made only for a new key.  Column sums
are fitted once per column.

`compare_reference` reports, per vertex coordinate, whether the fitted
trajectory equals a reference closed form exactly and whether the two agree
up to a constant factor over the window, plus per-vertex zero-pattern
matches and coordinate-sum bookkeeping.  It works in the integers: a
reference formula is read as its pair (p(k), q(k)), a ratio and a sum are
cross-multiplied, and every record's rays go through
`decomposition.verify_rays`.  The reference values are reported against,
never asserted as ground truth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd

from .decomposition import (
    DecompositionPolytope,
    build_polytope,
    candidate_degree_sequences,
    enumerate_vertices,
    prune,
    verify_rays,
)
from .diagram import BettiDiagram, TranslationTemplate, column_sums
from .errors import InputError, NotEquigeneratedError, StabilityError
from .exact_arith import (
    RationalFunctionFit,
    format_quotient,
    interpolates,
    poly_mul,
    rational_reconstructions,
    require_int,
)
from .koszul_oracle import betti_oracle
from .monomial_ideal import MonomialIdeal, is_equigenerated, power
from .path_formula import path_diagram, path_family_size
from .values import Value


class CombinatorialSignature(Value):
    """Vertex count, polytope dimension, and sorted vertex zero patterns.

    Zero patterns are tuples of coordinate indices into the (sorted, pruned)
    candidate list, which makes signatures comparable across powers as long
    as the candidate counts agree.
    """

    vertex_count: int
    dimension: int
    zero_patterns: tuple

    def to_json_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "dimension": self.dimension,
            "zero_patterns": [list(p) for p in self.zero_patterns],
        }


def combinatorial_signature(polytope: DecompositionPolytope) -> CombinatorialSignature:
    """The polytope's zero patterns, sorted, with their count and its dimension."""
    patterns = polytope.zero_patterns
    return CombinatorialSignature(len(patterns), polytope.dimension, tuple(sorted(patterns)))


class PerPowerRecord(Value):
    k: int
    diagram: BettiDiagram
    polytope: DecompositionPolytope  # pruned, vertices enumerated
    signature: CombinatorialSignature


class TrajectoryFit(Value):
    vertex: str
    coordinate: int
    fit: RationalFunctionFit | None  # validated on its held-out sample, or None


class StabilityReport(Value):
    ideal: MonomialIdeal
    k_min: int
    k_max: int
    use_formula: bool
    records: tuple  # PerPowerRecord per k
    k0: int | None  # last k before the window; None if it starts at k_min
    window: tuple | None  # (first stable k, k_max)
    templates: tuple | None  # TranslationTemplate per pruned coordinate
    vertex_labels: tuple
    # label -> {k: ray}: the pruned polytope's primitive integer ray
    # (x_0, ..., x_{m-1}, s), s > 0, whose coordinate c is x_c / s
    vertex_values: dict
    trajectories: tuple  # TrajectoryFit per (vertex, coordinate)
    column_sum_fits: tuple  # RationalFunctionFit | None per column
    verdict: dict

    def to_json_dict(self) -> dict:
        return {
            "ideal": self.ideal.to_json_dict(),
            "k_min": self.k_min,
            "k_max": self.k_max,
            "use_formula": self.use_formula,
            "per_k": [
                {
                    "k": r.k,
                    "diagram": r.diagram.to_json_dict(),
                    "polytope": r.polytope.to_json_dict(),
                    "signature": r.signature.to_json_dict(),
                }
                for r in self.records
            ],
            "k0": self.k0,
            "stable_window": list(self.window) if self.window else None,
            "templates": [
                {"positions": [list(p) for p in t.positions], "k_min": t.k_min}
                for t in self.templates
            ]
            if self.templates is not None
            else None,
            "vertex_labels": list(self.vertex_labels),
            "vertex_coordinates": {
                label: {
                    str(k): [format_quotient(x, ray[-1]) for x in ray[:-1]]
                    for k, ray in sorted(per_k.items())
                }
                for label, per_k in self.vertex_values.items()
            },
            "trajectories": [
                {
                    "vertex": t.vertex,
                    "coordinate": t.coordinate,
                    "fit": t.fit.to_json_dict() if t.fit else None,
                    "validated": t.fit is not None,
                }
                for t in self.trajectories
            ],
            "column_sums": [
                {"column": c, "fit": f.to_json_dict() if f else None}
                for c, f in enumerate(self.column_sum_fits)
            ],
            "verdict": dict(self.verdict),
        }


def match_templates(candidate_sets) -> tuple:
    """Fit affine templates through candidate families at consecutive powers.

    `candidate_sets` is a sequence of (k, candidates) with the candidates
    sorted; alignment is by sorted order.  Slopes and intercepts are fitted
    from the first two powers and verified on all the rest.
    """
    sets = [
        (require_int(k, "k"), [tuple(require_int(d, "degree") for d in c) for c in cands])
        for k, cands in candidate_sets
    ]
    if len(sets) < 3:
        raise StabilityError("need at least 3 consecutive candidate sets")
    if len({k for k, _ in sets}) != len(sets):
        raise InputError("repeated power k among the candidate sets")
    counts = {len(cands) for _, cands in sets}
    if len(counts) != 1:
        raise StabilityError(f"candidate counts differ across powers: {sorted(counts)}")
    (k1, first), (k2, second) = sets[0], sets[1]
    templates = []
    for f, seq1 in enumerate(first):
        seq2 = second[f]
        if len(seq1) != len(seq2):
            raise StabilityError(f"candidate family {f} changes length between powers")
        positions = []
        for d1, d2 in zip(seq1, seq2):
            slope, rem = divmod(d2 - d1, k2 - k1)
            if rem:
                raise StabilityError(f"candidate family {f} has no integer-slope affine fit")
            positions.append((slope, d1 - slope * k1))
        template = TranslationTemplate(tuple(positions), _template_k_min(positions, k1))
        for k, cands in sets[2:]:
            if len(cands[f]) != len(seq1) or template.instantiate(k) != cands[f]:
                raise StabilityError(f"candidate family {f} fails affine verification at k={k}")
        templates.append(template)
    return tuple(templates)


def _template_k_min(positions, observed_k: int) -> int:
    """Smallest k from which the affine sequence is strictly increasing."""
    bound = None
    for (a1, b1), (a2, b2) in zip(positions, positions[1:]):
        da, db = a2 - a1, b2 - b1
        if da < 0 or (da == 0 and db < 1):
            raise StabilityError("template is not eventually strictly increasing")
        if da > 0:
            need = -((db - 1) // da)  # ceil((1 - db) / da)
            bound = need if bound is None else max(bound, need)
    return observed_k if bound is None else min(bound, observed_k)


def _pair_vertices(window_records):
    """Assign stable labels to vertices across the window by zero pattern.

    Labels v1, v2, ... follow the signature's sorted patterns, which every
    window record shares (the window is a run of equal signatures), so no
    record is checked.  Patterns never tie: a vertex of {w >= 0 : Aw = b} is
    the unique solution of Aw = b on its support, so each names one vertex.
    Returns label -> {k: ray}; a polytope's zero patterns are in ray order.
    """
    patterns = window_records[0].signature.zero_patterns
    values = {f"v{i}": {} for i in range(1, len(patterns) + 1)}
    label_of = dict(zip(patterns, values))
    for record in window_records:
        for pattern, ray in zip(record.polytope.zero_patterns, record.polytope.rays):
            values[label_of[pattern]][record.k] = ray
    return values


def _fit_trajectory(samples, polynomial: bool = False):
    """Lowest-degree exact rational fit of a trajectory, or None.

    Degree pairs (dn, dd) are tried in ascending total degree, then ascending
    dn, up to the largest total that all samples but the last can pin down;
    the fit must reproduce that last sample.  `polynomial` keeps dd = 0.
    Each Euclid pair stands for the degree pairs it answers (see the module
    docstring).  Since r_j = v t_j at each fit sample and gcd(r_j, t_j)
    divides prod(k - k_i), the canonical form of r_j/t_j meets the samples
    exactly when the pair itself does, so `make` runs only on a pair that
    passes these integer checks.
    """
    fit_set = samples[:-1]
    if not fit_set:
        return None
    require_int(samples[-1][0], "sample abscissa")
    pairs = rational_reconstructions(fit_set)
    if polynomial:  # deg t_j rises from deg t_1 = 0, so only the first pair
        pairs = islice(pairs, 1)
    candidates = []
    for r, t in pairs:
        dn = max(len(r) - 1, 0)
        total = dn + len(t) - 1
        if total < len(fit_set):
            candidates.append((total, dn, r, t))
    for _, _, r, t in sorted(candidates, key=lambda c: c[:2]):
        if interpolates(r, t, [samples[-1]]) and interpolates(r, t, fit_set):
            fit = RationalFunctionFit.make(r, t)
            if interpolates(fit.numerator, fit.denominator, samples):
                return fit
    return None


def scan_powers(ideal: MonomialIdeal, k_min: int, k_max: int) -> StabilityReport:
    """Full stabilization scan over powers k_min .. k_max."""
    ok, _ = is_equigenerated(ideal)
    if not ok:
        raise NotEquigeneratedError(
            "scan requires all generators of the same degree"
        )
    if require_int(k_min, "k_min") < 1:
        raise InputError("k_min must be >= 1")
    if require_int(k_max, "k_max") - k_min < 4:
        raise InputError("scan range must satisfy k_max - k_min >= 4")
    n = path_family_size(ideal)

    records = []
    for k in range(k_min, k_max + 1):
        if n is not None:
            diagram = path_diagram(n, k)
        else:
            diagram = betti_oracle(power(ideal, k))
        polytope = prune(
            enumerate_vertices(build_polytope(diagram, candidate_degree_sequences(diagram)))
        )
        records.append(
            PerPowerRecord(k, diagram, polytope, combinatorial_signature(polytope))
        )

    keys = [(r.signature, len(r.polytope.candidates)) for r in records]
    start = len(keys) - 1
    while start > 0 and keys[start - 1] == keys[-1]:
        start -= 1
    stable_len = len(keys) - start

    window = k0 = templates = None
    labels, values, trajectories, column_fits = (), {}, (), ()
    if stable_len >= 3:
        window_records = records[start:]
        window = (window_records[0].k, k_max)
        if start > 0:
            k0 = window[0] - 1
        templates = match_templates([(r.k, r.polytope.candidates) for r in window_records])
        values = _pair_vertices(window_records)
        labels = tuple(values)
        ks = [r.k for r in window_records]
        fitted, fits = {}, []  # reduced (x_c, s) pairs over the window -> their fit
        for label in labels:
            reduced = []  # per k, each coordinate x_c / s as a reduced pair of ints
            for k in ks:
                ray = values[label][k]
                s = ray[-1]
                reduced.append([(x // g, s // g) for x in ray[:-1] for g in (gcd(x, s),)])
            for c, key in enumerate(zip(*reduced)):
                if key not in fitted:
                    fitted[key] = _fit_trajectory(tuple((k, Fraction(*q)) for k, q in zip(ks, key)))
                fits.append(TrajectoryFit(label, c, fitted[key]))
        trajectories = tuple(fits)
        # Kodiyalam check: total Betti numbers are polynomial in k.
        sums = [column_sums(r.diagram) for r in window_records]
        fits = []
        for c in range(max(len(s) for s in sums)):
            samples = tuple(
                (r.k, s[c] if c < len(s) else Fraction(0))
                for r, s in zip(window_records, sums)
            )
            fits.append(_fit_trajectory(samples, polynomial=True))
        column_fits = tuple(fits)

    verdict = {
        "stabilized_in_range": window is not None,
        "all_trajectories_fit": bool(trajectories)
        and all(t.fit is not None for t in trajectories),
        "all_column_sums_fit": bool(column_fits)
        and all(f is not None for f in column_fits),
    }
    return StabilityReport(
        ideal=ideal,
        k_min=k_min,
        k_max=k_max,
        use_formula=n is not None,
        records=tuple(records),
        k0=k0,
        window=window,
        templates=templates,
        vertex_labels=labels,
        vertex_values=values,
        trajectories=trajectories,
        column_sum_fits=column_fits,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Built-in reference family: powers of the path edge ideal in six variables
# ---------------------------------------------------------------------------


class ReferenceVertexFamily(Value):
    """Reference closed forms for comparison runs.

    Holds the eight affine candidate templates of the six-variable path
    family together with three reference vertices: a zero pattern and one
    rational function of k per coordinate.  The comparison reports against
    these closed forms without assuming they are correct.
    """

    min_k: int
    template_labels: tuple
    templates: tuple
    vertex_labels: tuple
    zero_patterns: tuple  # per vertex, tuple of template labels
    coordinate_formulas: tuple  # [vertex][coordinate] RationalFunctionFit


def _rf(num_factors, den_factors, num_scale=1, den_scale=1) -> RationalFunctionFit:
    num = reduce(poly_mul, num_factors, (num_scale,))
    den = reduce(poly_mul, den_factors, (den_scale,))
    return RationalFunctionFit.make(num, den)


def path6_reference() -> ReferenceVertexFamily:
    zero = RationalFunctionFit((), (1,))
    # Factors are coefficient tuples, lowest degree first: (5, 7) is 7k+5.
    w4 = _rf([(5, 7), (-1, 1), (-2, 1)], [(3, 2), (1, 2), (1, 1)], den_scale=4)
    w8 = _rf([(-1, 1), (-2, 1), (-3, 1)], [(3, 2), (1, 2), (1, 1)], den_scale=4)
    shared_5 = _rf([(5, 2), (-1, 1)], [(1, 2), (2, 1), (1, 1)])
    h1 = (
        zero,
        zero,
        _rf([(2, 1)], [(3, 2)]),
        w4,
        shared_5,
        _rf([(5, 4), (1, 1)], [(3, 2), (1, 2), (2, 1)]),
        zero,
        w8,
    )
    h2 = (
        zero,
        _rf([(2, 1), (2, 1)], [(3, 2), (1, 2)], num_scale=2),
        zero,
        w4,
        shared_5,
        _rf([(1, 1), (-1, 1)], [(3, 2), (1, 2), (2, 1)]),
        _rf([], [(3, 2)]),
        w8,
    )
    h3 = (
        _rf([(2, 1)], [(1, 2)]),
        zero,
        zero,
        w4,
        _rf([(-7, 0, 1)], [(1, 2), (2, 1), (1, 1)]),
        _rf([(1, 1)], [(3, 2), (1, 2), (2, 1)]),
        _rf([], [(3, 2)]),
        w8,
    )
    rows = {
        "pi_1": (0, 1, 2),
        "pi_2": (0, 1, 3),
        "pi_3": (0, 2, 3),
        "pi_4": (0, 1, 2, 3),
        "pi_5": (0, 1, 2, 4),
        "pi_6": (0, 1, 3, 4),
        "pi_7": (0, 2, 3, 4),
        "pi_8": (0, 1, 2, 3, 4),
    }
    templates = tuple(
        TranslationTemplate(
            ((0, 0),) + tuple((2, offset) for offset in offsets), 1
        )
        for offsets in rows.values()
    )
    return ReferenceVertexFamily(
        min_k=4,
        template_labels=tuple(rows),
        templates=templates,
        vertex_labels=("h1", "h2", "h3"),
        zero_patterns=(
            ("pi_1", "pi_2", "pi_7"),
            ("pi_1", "pi_3"),
            ("pi_2", "pi_3"),
        ),
        coordinate_formulas=(h1, h2, h3),
    )


def _constant_ratio(computed, reference_fit):
    """(flag, ratio) for computed/reference over the window; ratio None if mixed.

    `computed` holds (k, x, s) with value x / s, and the ratio is an integer
    pair (a, b), a / b: with (p, q) the reference's integer pair at k, each
    ratio is x q / (s p), compared with the first by cross-multiplying.
    """
    ratio = None
    for k, x, s in computed:
        p, q = reference_fit.pair_at(k)
        if q == 0:
            return False, None
        if p != 0:
            a, b = x * q, s * p
            if ratio is None:
                ratio = (a, b)
            elif a * ratio[1] != ratio[0] * b:
                return False, None
        elif x != 0:
            return False, None
    return True, ratio


def _format_sum(pairs) -> str:
    """The sum of the quotients p / q of integer pairs, formatted; a zero q
    leaves the denominator 0, which `format_quotient` refuses."""
    n, d = 0, 1
    for p, q in pairs:
        n, d = n * q + p * d, d * q
    return format_quotient(n, d)


def compare_reference(report: StabilityReport, reference: ReferenceVertexFamily) -> dict:
    """Structured comparison of a scan report against reference closed forms."""
    if report.window is None:
        raise StabilityError("report has no stable window to compare")
    if report.window[0] < reference.min_k:
        raise StabilityError(
            f"window must lie in k >= {reference.min_k}, got start {report.window[0]}"
        )
    if len(report.templates) != len(reference.templates):
        raise StabilityError("computed candidate templates do not match the reference")

    by_positions = {t.positions: c for c, t in enumerate(report.templates)}
    coordinate_of = {}
    for label, template in zip(reference.template_labels, reference.templates):
        c = by_positions.get(template.positions)
        if c is None:
            raise StabilityError(f"reference template {label} not found in the scan")
        coordinate_of[label] = c

    window_ks = [r.k for r in report.records if r.k >= report.window[0]]
    trajectory = {(t.vertex, t.coordinate): t for t in report.trajectories}

    # The last record lies in the window, whose records share one signature.
    label_of_pattern = dict(zip(report.records[-1].signature.zero_patterns, report.vertex_labels))

    vertices_out = []
    for vi, ref_vertex in enumerate(reference.vertex_labels):
        ref_pattern = tuple(sorted(coordinate_of[l] for l in reference.zero_patterns[vi]))
        matched = label_of_pattern.get(ref_pattern)
        coords_out = []
        for ti, label in enumerate(reference.template_labels):
            c = coordinate_of[label]
            formula = reference.coordinate_formulas[vi][ti]
            fit, ratio_flag, ratio = None, False, None
            if matched is not None:
                fit = trajectory[(matched, c)].fit
                rays = report.vertex_values[matched]
                computed_values = [(k, rays[k][c], rays[k][-1]) for k in window_ks]
                ratio_flag, ratio = _constant_ratio(computed_values, formula)
            coords_out.append(
                {
                    "template": label,
                    "exact_equal": fit == formula,
                    "constant_ratio": ratio_flag,
                    "ratio": format_quotient(*ratio) if ratio is not None else None,
                    "computed_fit": fit.to_json_dict() if fit else None,
                    "reference_formula": formula.to_json_dict(),
                }
            )
        reference_sums = {
            str(k): _format_sum(f.pair_at(k) for f in reference.coordinate_formulas[vi])
            for k in window_ks
        }
        vertices_out.append(
            {
                "reference": ref_vertex,
                "computed": matched,
                "zero_pattern_match": matched is not None,
                "coordinates": coords_out,
                "reference_coordinate_sums": reference_sums,
            }
        )

    computed_sums = {
        label: {str(k): format_quotient(sum(rays[k][:-1]), rays[k][-1]) for k in window_ks}
        for label, rays in report.vertex_values.items()
    }
    reconstruction_ok = all(
        verify_rays(r.diagram, r.polytope.rays, r.polytope.candidates) for r in report.records
    )
    return {
        "window": list(report.window),
        "coordinate_of_template": dict(coordinate_of),
        "vertices": vertices_out,
        "all_zero_patterns_match": all(v["zero_pattern_match"] for v in vertices_out),
        "sum_check": {
            "computed_vertex_sums": computed_sums,
            "note": (
                "every computed vertex sums to the top-left diagram entry; "
                "reference coordinate sums are reported per vertex for comparison"
            ),
        },
        "reconstruction_ok": reconstruction_ok,
    }
