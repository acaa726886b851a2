"""Fraction references for the integer-ray code of `stability`.

These are the scan report and `compare_reference` as they were written from
the polytope's Fraction `vertices` view, before the scan kept each vertex as
its integer ray: `pair_vertices` labels the Fraction vertices by zero
pattern, `report_json` is `StabilityReport.to_json_dict` with every vertex
coordinate formatted from a Fraction and every trajectory fitted from
Fraction samples, and `compare_reference` evaluates the reference formulas
as Fractions, divides and sums them, and checks every vertex with the
Fraction `verify_decomposition` of `decomposition_reference`.  The tests
compare the ray code with them.
"""

from fractions import Fraction

import decomposition_reference
from bettistab.errors import StabilityError
from bettistab.exact_arith import format_rational
from bettistab.stability import _fit_trajectory


def pair_vertices(window_records):
    """label -> {k: Fraction vertex}, the labels following the sorted patterns."""
    patterns = window_records[0].signature.zero_patterns
    values = {f"v{i}": {} for i in range(1, len(patterns) + 1)}
    label_of = dict(zip(patterns, values))
    for record in window_records:
        polytope = record.polytope
        for v in polytope.vertices:
            pattern = tuple(c for c, x in enumerate(v) if x == 0)
            values[label_of[pattern]][record.k] = v
    return values


def _window(report):
    return [r for r in report.records if r.k >= report.window[0]]


def polytope_json(polytope):
    return {
        "candidates": [list(c) for c in polytope.candidates],
        "vertices": [[format_rational(x) for x in v] for v in polytope.vertices],
        "rank": polytope.rank,
        "dimension": polytope.dimension,
    }


def report_json(report):
    """`report.to_json_dict()` written from the Fraction vertices."""
    values, trajectories = {}, []
    if report.window is not None:
        window = _window(report)
        values = pair_vertices(window)
        for label in values:
            for c in range(len(window[0].polytope.candidates)):
                fit = _fit_trajectory(tuple((r.k, values[label][r.k][c]) for r in window))
                trajectories.append(
                    {
                        "vertex": label,
                        "coordinate": c,
                        "fit": fit.to_json_dict() if fit else None,
                        "validated": fit is not None,
                    }
                )
    return {
        "ideal": report.ideal.to_json_dict(),
        "k_min": report.k_min,
        "k_max": report.k_max,
        "use_formula": report.use_formula,
        "per_k": [
            {
                "k": r.k,
                "diagram": r.diagram.to_json_dict(),
                "polytope": polytope_json(r.polytope),
                "signature": r.signature.to_json_dict(),
            }
            for r in report.records
        ],
        "k0": report.k0,
        "stable_window": list(report.window) if report.window else None,
        "templates": [
            {"positions": [list(p) for p in t.positions], "k_min": t.k_min}
            for t in report.templates
        ]
        if report.templates is not None
        else None,
        "vertex_labels": list(values),
        "vertex_coordinates": {
            label: {str(k): [format_rational(x) for x in vec] for k, vec in sorted(per_k.items())}
            for label, per_k in values.items()
        },
        "trajectories": trajectories,
        "column_sums": [
            {"column": c, "fit": f.to_json_dict() if f else None}
            for c, f in enumerate(report.column_sum_fits)
        ],
        "verdict": dict(report.verdict),
    }


def constant_ratio(computed, reference_fit):
    """(flag, ratio) for computed/reference over the window; ratio None if mixed."""
    ratios = set()
    for k, c in computed:
        try:
            p = reference_fit.evaluate(k)
        except ZeroDivisionError:
            return False, None
        if p != 0:
            ratios.add(c / p)
        elif c != 0:
            return False, None
    if len(ratios) > 1:
        return False, None
    return True, next(iter(ratios), None)


def compare_reference(report, reference):
    """`stability.compare_reference` computed from the Fraction vertices."""
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

    window_ks = [r.k for r in _window(report)]
    values = pair_vertices(_window(report))
    trajectory = {(t.vertex, t.coordinate): t for t in report.trajectories}
    label_of_pattern = dict(zip(report.records[-1].signature.zero_patterns, values))

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
                computed_values = [(k, values[matched][k][c]) for k in window_ks]
                ratio_flag, ratio = constant_ratio(computed_values, formula)
            coords_out.append(
                {
                    "template": label,
                    "exact_equal": fit == formula,
                    "constant_ratio": ratio_flag,
                    "ratio": format_rational(ratio) if ratio is not None else None,
                    "computed_fit": fit.to_json_dict() if fit else None,
                    "reference_formula": formula.to_json_dict(),
                }
            )
        reference_sums = {
            str(k): format_rational(sum(f.evaluate(k) for f in reference.coordinate_formulas[vi]))
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
        label: {str(k): format_rational(sum(values[label][k], Fraction(0))) for k in window_ks}
        for label in values
    }
    reconstruction_ok = all(
        decomposition_reference.verify_decomposition(r.diagram, v, r.polytope.candidates)
        for r in report.records
        for v in r.polytope.vertices
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
