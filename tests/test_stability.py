import json
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from bettistab.decomposition import (
    DecompositionPolytope,
    build_polytope,
    candidate_degree_sequences,
    enumerate_vertices,
    prune,
    verify_decomposition,
)
from bettistab.diagram import TranslationTemplate, column_sums
from bettistab.errors import InputError, NotEquigeneratedError, StabilityError
from bettistab.exact_arith import (
    RationalFunctionFit,
    integer_vector,
    kernel_basis,
    poly_eval,
    poly_mul,
    poly_trim,
)
from bettistab.monomial_ideal import make_ideal
from bettistab import decomposition, stability
from bettistab.path_formula import path_diagram, path_ideal
from bettistab.stability import (
    ReferenceVertexFamily,
    TrajectoryFit,
    _fit_trajectory,
    combinatorial_signature,
    compare_reference,
    match_templates,
    path6_reference,
    scan_powers,
)

import stability_reference

REFERENCE = path6_reference()


def _value(ray, c):
    """Coordinate c of the vertex that the ray (x_0, ..., x_{m-1}, s) stands for."""
    return Fraction(ray[c], ray[-1])


@pytest.fixture(scope="module")
def path6_report():
    return scan_powers(path_ideal(6), 4, 11)


def _pruned(diagram):
    return prune(
        enumerate_vertices(build_polytope(diagram, candidate_degree_sequences(diagram)))
    )


def test_match_templates_path_candidates():
    sets = [
        (k, candidate_degree_sequences(path_diagram(6, k))) for k in (4, 5, 6)
    ]
    templates = match_templates(sets)
    assert len(templates) == 11
    positions = {t.positions for t in templates}
    # the second-shortest family is 0, 2k, 2k+1
    assert ((0, 0), (2, 0), (2, 1)) in positions
    assert ((0, 0), (2, 0), (2, 1), (2, 3)) in positions  # pi_2 shape
    for t in templates:
        assert t.positions[0] == (0, 0)
        for k in (4, 5, 6):
            assert t.instantiate(k)


def test_match_templates_constant_family():
    sets = [(k, [(0, 2, 3)]) for k in (1, 2, 3, 4)]
    (template,) = match_templates(sets)
    assert template.positions == ((0, 0), (0, 2), (0, 3))
    assert template.instantiate(9) == (0, 2, 3)


def test_match_templates_mismatch():
    sets = [(4, [(0, 4)]), (5, [(0, 5)]), (6, [(0, 7)])]
    with pytest.raises(StabilityError):
        match_templates(sets)
    with pytest.raises(StabilityError):
        match_templates([(4, [(0, 8)]), (5, [(0, 10)])])
    with pytest.raises(StabilityError):
        match_templates([(4, [(0, 8)]), (5, [(0, 10), (0, 10, 11)]), (6, [(0, 12)])])
    with pytest.raises(InputError):
        match_templates([(True, [(0, 2)]), (2, [(0, 4)]), (3, [(0, 6)])])
    with pytest.raises(InputError):
        match_templates([(1, [(0, True)]), (2, [(0, 2)]), (3, [(0, 3)])])
    with pytest.raises(InputError):
        match_templates([(1, [(0, 1.0)]), (2, [(0, 2)]), (3, [(0, 3)])])
    with pytest.raises(InputError):  # a repeated k would divide by k2 - k1 = 0
        match_templates([(1, [(0, 1)]), (1, [(0, 1)]), (2, [(0, 1)])])


def test_signature_single_point():
    diagram = path_diagram(4, 1)
    polytope = _pruned(diagram)
    sig = combinatorial_signature(polytope)
    assert sig.vertex_count == 1
    assert sig.dimension == 0
    assert len(sig.zero_patterns) == 1


def test_signature_segment():
    polytope = enumerate_vertices(
        DecompositionPolytope(candidates=((0, 1), (0, 2)), rows=((1, 1, -1),))
    )
    sig = combinatorial_signature(polytope)
    assert (sig.vertex_count, sig.dimension) == (2, 1)
    assert sig.zero_patterns == ((0,), (1,))


def test_signature_empty_polytope():
    # w1 + w2 = 1 and 0 = 5: no vertices, so the empty polytope's dimension
    polytope = enumerate_vertices(
        DecompositionPolytope(candidates=((0, 1), (0, 2)), rows=((1, 1, -1), (0, 0, -5)))
    )
    sig = combinatorial_signature(polytope)
    assert (sig.vertex_count, sig.dimension, sig.zero_patterns) == (0, -1, ())


def test_signature_reads_the_polytope_zero_patterns():
    diagram = path_diagram(7, 6)
    built = build_polytope(diagram, candidate_degree_sequences(diagram))
    with pytest.raises(InputError, match="vertices not enumerated"):
        combinatorial_signature(built)
    polytope = prune(enumerate_vertices(built))
    sig = combinatorial_signature(polytope)
    assert sig.zero_patterns == tuple(sorted(polytope.zero_patterns))
    assert (sig.vertex_count, sig.dimension) == (len(polytope.vertices), polytope.dimension)


@pytest.mark.parametrize(
    "ideal,k_min,k_max,ranks,implicit_sets",
    [
        (path_ideal(6), 4, 11, 8, 8),
        (make_ideal(4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]), 1, 7, 7, 0),
    ],
    ids=["path6", "c4"],
)
def test_scan_computes_one_rank_per_power(
    monkeypatch, ideal, k_min, k_max, ranks, implicit_sets
):
    # per power, the pruned polytope's rank, shared by its dimension,
    # signature and JSON; besides those, the enumerator takes one rank per new
    # set of implicit equalities, counted from the cuts of each enumeration
    # (its rank closure tells them apart)
    calls, implicit = [], set()
    rank, cut = decomposition.matrix_rank, decomposition._cut

    def spy(rays, zeros, done, c, d, equalities, redundancy, rule):
        if equalities:
            implicit.add((rule, equalities))
        return cut(rays, zeros, done, c, d, equalities, redundancy, rule)

    monkeypatch.setattr(decomposition, "matrix_rank", lambda rows: calls.append(1) or rank(rows))
    monkeypatch.setattr(decomposition, "_cut", spy)
    scan_powers(ideal, k_min, k_max).to_json_dict()
    assert len(implicit) == implicit_sets
    assert len(calls) == ranks + len(implicit)


def test_signature_path6_triangle():
    sig = combinatorial_signature(_pruned(path_diagram(6, 4)))
    assert (sig.vertex_count, sig.dimension) == (3, 2)
    assert sig.zero_patterns == ((0, 4, 7), (0, 6), (4, 6))


def test_small_powers_differ_from_stable_signature():
    stable = combinatorial_signature(_pruned(path_diagram(6, 4)))
    for k in (1, 2, 3):
        assert combinatorial_signature(_pruned(path_diagram(6, k))) != stable


def test_scan_requires_equigenerated():
    mixed = make_ideal(2, [(1, 0), (0, 2)])
    with pytest.raises(NotEquigeneratedError):
        scan_powers(mixed, 1, 6)


@pytest.mark.parametrize("k_min, k_max", [(True, 5), (1, 5.0), (1.0, 6)])
def test_scan_rejects_non_integer_range(k_min, k_max):
    # True would be written into the report as "k_min": true
    with pytest.raises(InputError):
        scan_powers(path_ideal(3), k_min, k_max)


def test_scan_report_structure(path6_report):
    report = path6_report
    assert report.k0 is None
    assert report.window == (4, 11)
    assert report.verdict["stabilized_in_range"]
    assert report.verdict["all_trajectories_fit"]
    assert report.verdict["all_column_sums_fit"]
    assert report.vertex_labels == ("v1", "v2", "v3")
    assert len(report.templates) == 8
    assert len(report.trajectories) == 24
    for record in report.records:
        assert len(record.polytope.candidates) == 8
        assert record.signature.vertex_count == 3


def test_scan_trajectories_validate_exactly(path6_report):
    for t in path6_report.trajectories:
        assert t.fit is not None
        for k, ray in path6_report.vertex_values[t.vertex].items():
            assert t.fit.evaluate(k) == _value(ray, t.coordinate)


def test_scan_shared_coordinates_across_vertices(path6_report):
    # coordinates whose candidate carries a unique support position are
    # forced: the pi_4 and pi_8 values agree at all three vertices
    report = path6_report
    by_positions = {t.positions: i for i, t in enumerate(report.templates)}
    pi4 = by_positions[REFERENCE.templates[3].positions]
    pi8 = by_positions[REFERENCE.templates[7].positions]
    for k in range(4, 11):
        for c in (pi4, pi8):
            values = {_value(report.vertex_values[label][k], c) for label in report.vertex_labels}
            assert len(values) == 1


def test_scan_detects_maximal_window():
    # scanning from k=1 keeps the unstable low powers out of the window
    report = scan_powers(path_ideal(6), 1, 10)
    assert report.window == (4, 10)
    assert report.k0 == 3
    stable = report.records[-1].signature
    below = next(r for r in report.records if r.k == report.window[0] - 1)
    assert below.signature != stable or len(below.polytope.candidates) != len(
        report.records[-1].polytope.candidates
    )


def test_path7_transitions():
    # Pins the breaks of the 3..40 scan as a regression check, not as truth:
    # the paper has no n = 7 reference.
    report = scan_powers(path_ideal(7), 3, 40)
    assert report.window == (31, 40)
    assert report.k0 == 30
    by_k = {r.k: r for r in report.records}
    assert [len(by_k[k].polytope.vertices) for k in (28, 29, 30, 31)] == [30, 28, 24, 24]
    assert {len(by_k[k].polytope.candidates) for k in (28, 29, 30, 31)} == {13}
    assert by_k[30].signature != by_k[31].signature


@pytest.mark.slow
def test_path8_reaches_its_stable_window():
    # A reach check of about 35 s and 0.26 GB, run with `pytest -m slow`.
    # Pins the scan as a regression check: the paper has no n = 8 reference.
    report = scan_powers(path_ideal(8), 45, 64)
    assert report.window == (51, 64)
    assert report.k0 == 50
    window = [r for r in report.records if r.k >= 51]
    assert {len(r.polytope.rays) for r in window} == {7296}
    assert len(report.vertex_labels) == 7296
    assert report.trajectories and all(t.fit is not None for t in report.trajectories)
    assert report.column_sum_fits and all(f is not None for f in report.column_sum_fits)
    assert report.verdict["all_trajectories_fit"] and report.verdict["all_column_sums_fit"]


def test_scan_without_stable_window():
    # only two stable powers at the top of the range: no window is claimed
    report = scan_powers(path_ideal(6), 1, 5)
    assert report.window is None
    assert report.k0 is None
    assert not report.verdict["stabilized_in_range"]
    assert report.templates is None
    assert report.column_sum_fits == ()
    assert report.verdict["all_column_sums_fit"] is False


@pytest.mark.parametrize("n, k_max", [(4, 7), (5, 6)])
def test_scan_route_does_not_change_the_report(n, k_max):
    # The labelled path takes the closed form; swapping x1 and x2 gives an
    # isomorphic ideal that is not the labelled path, so it takes the oracle.
    path = path_ideal(n)
    swapped = make_ideal(n, [(g[1], g[0]) + g[2:] for g in path.generators])
    reports = [scan_powers(ideal, 1, k_max) for ideal in (path, swapped)]
    assert [r.use_formula for r in reports] == [True, False]
    dicts = [r.to_json_dict() for r in reports]
    for d in dicts:
        del d["ideal"], d["use_formula"]
    assert dicts[0] == dicts[1]


def test_scan_linear_powers_single_points():
    square = make_ideal(2, [(2, 0), (1, 1), (0, 2)])
    report = scan_powers(square, 1, 5)
    assert report.window == (1, 5)
    assert report.k0 is None
    for record in report.records:
        assert record.signature.vertex_count == 1
        assert record.signature.dimension == 0


def test_fit_trajectory_degree_from_window():
    # (k+1)(k+2)(k+3)(k+5) / ((2k+1)^2 (k^2+1)): degree (4, 4) needs 9 fit
    # points plus one held out, beyond any fixed (3, 3) degree cap.
    num = (30, 61, 41, 11, 1)
    den = (1, 4, 5, 4, 4)
    target = RationalFunctionFit.make(num, den)
    assert (len(target.numerator), len(target.denominator)) == (5, 5)
    samples = [(k, target.evaluate(k)) for k in range(1, 11)]
    assert _fit_trajectory(samples) == target
    assert _fit_trajectory(samples[:-1]) is None  # 8 fit points cannot pin it down
    assert _fit_trajectory(samples, polynomial=True) is None


def test_column_sum_fits(path6_report):
    fits = path6_report.column_sum_fits
    assert fits[0] == RationalFunctionFit((1,), (1,))
    assert fits[1] == RationalFunctionFit((24, 50, 35, 10, 1), (24,))
    assert fits[5] == RationalFunctionFit((0, -6, 11, -6, 1), (24,))
    first, last = path6_report.window
    for record in path6_report.records:
        if not first <= record.k <= last:
            continue
        sums = column_sums(record.diagram)
        for c, fit in enumerate(fits):
            assert fit.evaluate(record.k) == (sums[c] if c < len(sums) else 0)


def test_reference_family_constants():
    w8 = REFERENCE.coordinate_formulas[0][7]
    assert w8.evaluate(4) == Fraction(1, 330)
    w4 = REFERENCE.coordinate_formulas[0][3]
    assert w4.evaluate(4) == Fraction(1, 10)
    h1_pi3 = REFERENCE.coordinate_formulas[0][2]
    assert h1_pi3.evaluate(4) == Fraction(6, 11)
    assert REFERENCE.zero_patterns == (
        ("pi_1", "pi_2", "pi_7"),
        ("pi_1", "pi_3"),
        ("pi_2", "pi_3"),
    )


def test_compare_reference_record(path6_report):
    record = compare_reference(path6_report, REFERENCE)
    assert record["all_zero_patterns_match"]
    assert record["reconstruction_ok"]
    assert record["window"] == [4, 11]

    flags = {
        (v["reference"], c["template"]): (c["exact_equal"], c["constant_ratio"])
        for v in record["vertices"]
        for c in v["coordinates"]
    }
    assert len(flags) == 24
    mismatched = {pair for pair, (exact, _) in flags.items() if not exact}
    # derived independently from the equality system: five reference
    # coordinates differ from the computed vertices, none by a constant factor
    assert mismatched == {
        ("h1", "pi_4"),
        ("h2", "pi_2"),
        ("h2", "pi_4"),
        ("h3", "pi_4"),
        ("h3", "pi_6"),
    }
    for pair in mismatched:
        assert flags[pair] == (False, False)
    for pair, (exact, ratio_flag) in flags.items():
        if exact:
            assert ratio_flag

    sums = {v["reference"]: v["reference_coordinate_sums"]["4"] for v in record["vertices"]}
    assert sums == {"h1": "32/33", "h2": "12/11", "h3": "268/297"}
    computed = record["sum_check"]["computed_vertex_sums"]
    assert all(value == "1" for per_k in computed.values() for value in per_k.values())


def test_compare_reference_window_guard():
    report = scan_powers(make_ideal(2, [(2, 0), (1, 1), (0, 2)]), 1, 5)
    with pytest.raises(StabilityError):
        compare_reference(report, REFERENCE)


def test_report_json_deterministic(path6_report):
    data = path6_report.to_json_dict()
    text = json.dumps(data, indent=2, sort_keys=True)
    again = scan_powers(path_ideal(6), 4, 11)
    assert json.dumps(again.to_json_dict(), indent=2, sort_keys=True) == text
    # rationals serialize as strings
    assert all(
        isinstance(value, str)
        for per_k in data["vertex_coordinates"].values()
        for vec in per_k.values()
        for value in vec
    )


def test_template_k_min_reaches_below_window(path6_report):
    for template in path6_report.templates:
        assert template.k_min <= 4
        assert template.instantiate(template.k_min)


def test_template_instantiation_matches_candidates(path6_report):
    report = path6_report
    for record in report.records:
        if record.k < report.window[0]:
            continue
        expected = tuple(t.instantiate(record.k) for t in report.templates)
        assert expected == record.polytope.candidates


def test_match_templates_rejects_short_windows():
    with pytest.raises(StabilityError):
        match_templates([(4, [(0, 8)]), (5, [(0, 10)])])


def test_translation_template_used_in_reference():
    for template in REFERENCE.templates:
        assert isinstance(template, TranslationTemplate)
        assert template.positions[0] == (0, 0)
        assert template.positions[1] == (2, 0)


QUADRATICS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
NON_PATH_IDEALS = [
    make_ideal(3, gens)
    for size in range(1, len(QUADRATICS) + 1)
    for gens in combinations(QUADRATICS, size)
] + [
    make_ideal(4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]),  # C4
    make_ideal(4, [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]),  # star K_{1,3}
]


def _zeros(vector):
    return tuple(c for c, x in enumerate(vector) if x == 0)


def _ideal_id(ideal):
    return "_".join(
        "".join(f"x{t + 1}" * e for t, e in enumerate(g)) for g in ideal.generators
    )


def _self_reference(report) -> ReferenceVertexFamily:
    """A reference family read off a scan's own window.

    Its templates are the scan's, labelled in reverse order.  Reference
    vertex i is computed vertex i, in reverse label order, with every fitted
    coordinate times i + 1 (so only the first is exactly equal, the others
    at the constant ratio 1 / (i + 1)) and an unfitted one as 0.  A last
    vertex, zero on every template, matches no computed vertex.
    """
    m = len(report.templates)
    order = list(reversed(range(m)))  # template label t_j is coordinate order[j]
    labels = tuple(f"t{j}" for j in range(m))
    label_of = {c: labels[j] for j, c in enumerate(order)}
    fits = {(t.vertex, t.coordinate): t.fit for t in report.trajectories}
    patterns = dict(zip(report.vertex_labels, report.records[-1].signature.zero_patterns))
    zero = RationalFunctionFit((), (1,))
    zero_patterns, formulas = [], []
    for i, vertex in enumerate(reversed(report.vertex_labels)):
        zero_patterns.append(tuple(label_of[c] for c in patterns[vertex]))
        formulas.append(
            tuple(
                RationalFunctionFit.make(poly_mul(fit.numerator, (i + 1,)), fit.denominator)
                if fit
                else zero
                for fit in (fits[(vertex, c)] for c in order)
            )
        )
    zero_patterns.append(labels)
    formulas.append(tuple(zero for _ in labels))
    return ReferenceVertexFamily(
        min_k=report.window[0],
        template_labels=labels,
        templates=tuple(report.templates[c] for c in order),
        vertex_labels=tuple(f"r{i}" for i in range(len(formulas))),
        zero_patterns=tuple(zero_patterns),
        coordinate_formulas=tuple(formulas),
    )


def _assert_matches_the_fraction_reference(report, families):
    # The report JSON and every comparison read the rays: no record's
    # polytope builds its Fraction view.  The references then read it.
    data = report.to_json_dict()
    records = [compare_reference(report, family) for family in families]
    assert not [r.k for r in report.records if "vertices" in r.polytope.__dict__]
    assert data == stability_reference.report_json(report)
    for family, record in zip(families, records):
        assert record == stability_reference.compare_reference(report, family)
        assert record["reconstruction_ok"]


@pytest.mark.parametrize("ideal", NON_PATH_IDEALS, ids=_ideal_id)
def test_oracle_scans_of_non_path_ideals(ideal):
    # Every quadratic monomial ideal in three variables, C4 and the star:
    # the window, labels, fits and templates must agree with the records.
    report = scan_powers(ideal, 1, 5)
    assert report.window is not None
    _assert_matches_the_fraction_reference(report, [_self_reference(report)])
    for record in report.records:
        for v in record.polytope.vertices:
            assert verify_decomposition(record.diagram, v, record.polytope.candidates)
    window = [r for r in report.records if r.k >= report.window[0]]
    labels = report.vertex_labels
    for record in window:
        signature = record.signature
        assert len(labels) == signature.vertex_count
        rays = [report.vertex_values[label][record.k] for label in labels]
        vertices = [tuple(_value(ray, c) for c in range(len(ray) - 1)) for ray in rays]
        assert sorted(vertices) == sorted(record.polytope.vertices)
        assert tuple(_zeros(v) for v in vertices) == signature.zero_patterns
        for c, template in enumerate(report.templates):
            assert template.instantiate(record.k) == record.polytope.candidates[c]
    for t in report.trajectories:
        if t.fit is not None:
            for record in window:
                value = _value(report.vertex_values[t.vertex][record.k], t.coordinate)
                assert t.fit.evaluate(record.k) == value


NAMED_SCANS = [
    (path_ideal(6), 4, 11),
    (NON_PATH_IDEALS[-2], 1, 7),  # C4, oracle mode
    (path_ideal(7), 31, 40),
    (NON_PATH_IDEALS[-1], 1, 5),  # the star K_{1,3}, oracle mode
]
NAMED_SCAN_IDS = ["path6", "c4", "path7", "star"]


@pytest.mark.parametrize("ideal, k_min, k_max", NAMED_SCANS, ids=NAMED_SCAN_IDS)
def test_named_scans_match_the_fraction_reference(ideal, k_min, k_max):
    report = scan_powers(ideal, k_min, k_max)
    families = [_self_reference(report)]
    if ideal == path_ideal(6):
        families.append(REFERENCE)
    _assert_matches_the_fraction_reference(report, families)
    # The self reference meets each outcome: exact, a constant ratio of
    # 1/2, 1/3, ... and no matching vertex.
    first, *scaled, unmatched = compare_reference(report, families[0])["vertices"]
    assert all(c["exact_equal"] and c["constant_ratio"] for c in first["coordinates"])
    for i, vertex in enumerate(scaled, 2):
        assert {
            (c["exact_equal"], c["constant_ratio"], c["ratio"])
            for c in vertex["coordinates"]
            if c["reference_formula"]["numerator"]
        } == {(False, True, f"1/{i}")}
    assert unmatched["computed"] is None and not unmatched["zero_pattern_match"]


def _raised(report, k, i, j):
    """The report with coordinate j of ray i of record k raised by 1."""
    records = list(report.records)
    index = next(n for n, r in enumerate(records) if r.k == k)
    polytope = records[index].polytope
    rays = list(polytope.rays)
    rays[i] = tuple(x + (n == j) for n, x in enumerate(rays[i]))
    records[index] = records[index].replace(polytope=polytope.replace(rays=tuple(rays)))
    return report.replace(records=tuple(records))


def test_reconstruction_fails_on_a_raised_ray_coordinate():
    # Raising any one entry of one ray, s included, breaks A x = s b, in the
    # window (k = 4) and before it (k = 3).  The Fraction reference pairs
    # the window's vertices by their zero patterns, which a raised zero
    # moves, so it is checked on k = 3 alone.
    report = scan_powers(path_ideal(6), 3, 11)
    assert report.window == (4, 11)
    assert compare_reference(report, REFERENCE)["reconstruction_ok"]
    for record in report.records[:2]:
        last_ray = len(record.polytope.rays) - 1
        for j in range(len(record.polytope.candidates) + 1):
            mutated = _raised(report, record.k, last_ray, j)
            assert compare_reference(mutated, REFERENCE)["reconstruction_ok"] is False, j
            if record.k == 3:
                reference = stability_reference.compare_reference(mutated, REFERENCE)
                assert reference["reconstruction_ok"] is False


def _scaled_at(fit, ks, k_star, factor):
    """fit * (1 + (factor - 1) p / d), p = prod(k - k_i) over ks without
    k_star and d = p(k_star): `factor` times fit at k_star, fit at every
    other k of ks."""
    p = reduce(poly_mul, [(-k, 1) for k in ks if k != k_star], (1,))
    d = int(poly_eval(p, k_star))
    g = list(poly_mul(p, (factor - 1,)))
    g[0] += d
    return RationalFunctionFit.make(poly_mul(fit.numerator, g), poly_mul(fit.denominator, (d,)))


def test_constant_ratio_clears_when_a_formula_moves_at_one_k(path6_report):
    # h1's pi_3 formula equals the computed fit: exact, at ratio 1.  Scaled
    # by 3 at every k it keeps a constant ratio, 1/3; scaled at one k only,
    # it has none.
    ks = list(range(path6_report.window[0], path6_report.window[1] + 1))
    formulas = [list(f) for f in REFERENCE.coordinate_formulas]
    h1_pi3 = formulas[0][2]

    def coordinate(formula):
        formulas[0][2] = formula
        family = REFERENCE.replace(coordinate_formulas=tuple(tuple(f) for f in formulas))
        record = compare_reference(path6_report, family)
        assert record == stability_reference.compare_reference(path6_report, family)
        c = record["vertices"][0]["coordinates"][2]
        return c["exact_equal"], c["constant_ratio"], c["ratio"]

    assert coordinate(h1_pi3) == (True, True, "1")
    tripled = RationalFunctionFit.make(poly_mul(h1_pi3.numerator, (3,)), h1_pi3.denominator)
    assert coordinate(tripled) == (False, True, "1/3")
    for k_star in ks:
        moved = _scaled_at(h1_pi3, ks, k_star, 2)
        assert [moved.evaluate(k) == h1_pi3.evaluate(k) for k in ks] == [k != k_star for k in ks]
        assert coordinate(moved) == (False, False, None), k_star
    # a pole in the window: no ratio, and the reference sum there is refused
    formulas[0][2] = RationalFunctionFit((1,), (-ks[0], 1))
    family = REFERENCE.replace(coordinate_formulas=tuple(tuple(f) for f in formulas))
    for compare in (compare_reference, stability_reference.compare_reference):
        with pytest.raises(ZeroDivisionError):
            compare(path6_report, family)


def _fits_one_by_one(report):
    """Reference for the scan's memo: one `_fit_trajectory` search per fit."""
    window = [r for r in report.records if r.k >= report.window[0]]
    trajectories = tuple(
        TrajectoryFit(
            label,
            c,
            _fit_trajectory([(r.k, _value(report.vertex_values[label][r.k], c)) for r in window]),
        )
        for label in report.vertex_labels
        for c in range(len(window[0].polytope.candidates))
    )
    sums = [stability.column_sums(r.diagram) for r in window]  # as the scan sees them
    column_fits = tuple(
        _fit_trajectory(
            [(r.k, s[c] if c < len(s) else Fraction(0)) for r, s in zip(window, sums)],
            polynomial=True,
        )
        for c in range(max(len(s) for s in sums))
    )
    return trajectories, column_fits


@pytest.mark.parametrize("ideal, k_min, k_max", NAMED_SCANS, ids=NAMED_SCAN_IDS)
def test_scan_fits_match_one_search_per_fit(ideal, k_min, k_max):
    report = scan_powers(ideal, k_min, k_max)
    assert report.window is not None
    assert report.trajectories and report.column_sum_fits
    trajectories, column_fits = _fits_one_by_one(report)
    assert report.trajectories == trajectories
    assert report.column_sum_fits == column_fits


def test_scan_searches_each_distinct_sample_sequence_once(monkeypatch):
    # verify-paper's scan has 24 trajectories and 6 column sums; the w4 and
    # w8 coordinates repeat across its three vertices, so 18 are distinct.
    searched = []

    def counting(samples, polynomial=False):
        searched.append((tuple(samples), polynomial))
        return _fit_trajectory(samples, polynomial)

    monkeypatch.setattr(stability, "_fit_trajectory", counting)
    report = scan_powers(path_ideal(6), 4, 11)
    assert len(report.trajectories) + len(report.column_sum_fits) == 30
    assert len(searched) == len(set(searched)) == 18


def test_scan_searches_a_scaled_ray_once(monkeypatch):
    # a "twin" of v1 whose rays are v1's times 2 and 3 by turns: the same
    # values x_c / s from other integers, so no trajectory of it is a new search
    searched = []
    pair_vertices = stability._pair_vertices

    def counting(samples, polynomial=False):
        searched.append((tuple(samples), polynomial))
        return _fit_trajectory(samples, polynomial)

    def pair_with_twin(window_records):
        values = pair_vertices(window_records)
        values["twin"] = {k: tuple(x * (2 + k % 2) for x in v) for k, v in values["v1"].items()}
        return values

    monkeypatch.setattr(stability, "_fit_trajectory", counting)
    monkeypatch.setattr(stability, "_pair_vertices", pair_with_twin)
    report = scan_powers(path_ideal(6), 4, 11)
    assert len(searched) == len(set(searched)) == 18
    fits = {(t.vertex, t.coordinate): t.fit for t in report.trajectories}
    assert all(fits["twin", c] == fits["v1", c] for v, c in fits if v == "v1")


def test_scan_memo_keys_on_every_sample_and_the_flag(monkeypatch):
    # Collisions the scans above never meet: a vertex "twin" that differs
    # from v1 only in its held-out samples, and an extra column sum whose
    # samples are those of a v1 trajectory that is rational but not
    # polynomial, so its polynomial search fails where the rational one fits.
    pair_vertices, sums_of = stability._pair_vertices, stability.column_sums
    extra = {}

    def pair_with_twin(window_records):
        values = pair_vertices(window_records)
        ks = [r.k for r in window_records]
        v1 = values["v1"]
        # the twin's last ray adds its s to every x: each coordinate moves by 1
        values["twin"] = {
            k: v1[k] if k != ks[-1] else tuple(x + v1[k][-1] for x in v1[k][:-1]) + v1[k][-1:]
            for k in ks
        }
        c = next(
            c
            for c in range(len(v1[ks[0]]) - 1)
            if _fit_trajectory([(k, _value(v1[k], c)) for k in ks], polynomial=True) is None
            and _fit_trajectory([(k, _value(v1[k], c)) for k in ks]) is not None
        )
        extra.update({id(r.diagram): _value(v1[r.k], c) for r in window_records})
        return values

    monkeypatch.setattr(stability, "_pair_vertices", pair_with_twin)
    monkeypatch.setattr(stability, "column_sums", lambda d: sums_of(d) + (extra[id(d)],))
    report = scan_powers(path_ideal(6), 4, 11)
    trajectories, column_fits = _fits_one_by_one(report)
    assert report.trajectories == trajectories
    assert report.column_sum_fits == column_fits
    assert column_fits[-1] is None
    assert any(t.vertex == "twin" and t.fit is None for t in trajectories)


def _kernel_fit(samples, deg_num, deg_den):
    """Reference for one degree pair: the linear system p(k) - v q(k) = 0.

    One integer row per sample; the kernel vector of the first free column
    gives (p, q), and its canonical form must meet every sample.
    """
    n = deg_num + deg_den + 2
    rows = []
    for k, v in samples:
        v_den, v_num = integer_vector((1, v))  # p(k) - v*q(k), times v_den
        rows.append(
            [v_den * k**e for e in range(deg_num + 1)]
            + [-v_num * k**e for e in range(deg_den + 1)]
        )
    vec = next(iter(kernel_basis(rows, n).values()), None)
    if vec is None:
        return None
    num, den = vec[: deg_num + 1], vec[deg_num + 1 :]
    if not poly_trim(den):
        return None
    fit = RationalFunctionFit.make(num, den)
    for k, v in samples:
        q = poly_eval(fit.denominator, k)
        if q == 0 or poly_eval(fit.numerator, k) != v * q:
            return None
    return fit


def _reference_fit_trajectory(samples, polynomial: bool = False):
    """Reference for `_fit_trajectory`: the degree search, one solve per pair.

    Degree pairs (dn, dd) are tried in ascending total degree, then ascending
    dn, up to the largest total that all samples but the last can pin down;
    the fit must reproduce that last sample.  `polynomial` keeps dd = 0.
    """
    fit_set, holdout = samples[:-1], samples[-1]
    for total in range(len(fit_set)):
        for dn in (total,) if polynomial else range(total + 1):
            fit = _kernel_fit(fit_set, dn, total - dn)
            if fit is not None:
                try:
                    if fit.evaluate(holdout[0]) == holdout[1]:
                        return fit
                except ZeroDivisionError:
                    pass
    return None


small_values = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coefficients = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


@st.composite
def trajectory_samples(draw):
    """Distinct integer powers with random values (mostly unattainable), zero
    or constant values, or the values of a random rational function or of a
    polynomial of the highest degree the fit samples can pin down; the last
    two kinds sometimes with one value moved."""
    ks = draw(st.lists(st.integers(-6, 40), min_size=1, max_size=10, unique=True))
    kind = draw(st.sampled_from(["random", "zero", "constant", "rational", "polynomial"]))
    if kind == "random":
        return [(k, draw(small_values)) for k in ks]
    if kind in ("zero", "constant"):
        value = Fraction(0) if kind == "zero" else draw(small_values)
        return [(k, value) for k in ks]
    if kind == "rational":
        num, den = draw(coefficients), draw(coefficients.filter(any))
    else:  # every candidate of lower dn at the top total comes first
        degree = max(len(ks) - 2, 0)
        num = draw(st.lists(st.integers(-6, 6), min_size=degree, max_size=degree))
        num, den = num + [draw(st.integers(1, 6))], [1]
    samples = [(k, poly_eval(num, k) / poly_eval(den, k)) for k in ks if poly_eval(den, k)]
    if samples and draw(st.booleans()):
        i = draw(st.integers(0, len(samples) - 1))
        k, v = samples[i]
        samples[i] = (k, v + draw(small_values.filter(bool)))
    return samples


# Fit samples with fits of degree (2, 0) and (0, 3) that agree at k = 12.
TWO_FITS = [(3, Fraction(2)), (4, Fraction(3)), (6, Fraction(4)), (7, Fraction(4)), (12, Fraction(-1))]


@given(trajectory_samples())
# unattainable point: (k-1)/(k-1) is 1 except at its hole
@example([(k, Fraction(1)) for k in range(2, 6)] + [(1, Fraction(5)), (6, Fraction(1))])
# a moved sample: k^2 with the value at k = 3 raised by 1
@example([(k, Fraction(k * k + (k == 3))) for k in range(6)])
@example([(k, Fraction(0)) for k in range(4)])  # zero data
@example([(k, Fraction(2, 3)) for k in range(4)])  # constant data
# the lowest candidate 2/(2 - k) has a pole at the held-out k = 2; 1 + k fits
@example([(0, Fraction(1)), (1, Fraction(2)), (2, Fraction(3))])
# two fits reproduce the held-out sample; the lower total degree wins
@example(TWO_FITS)
@settings(max_examples=200, deadline=None)
def test_fit_trajectory_matches_reference(samples):
    if not samples:
        return
    for polynomial in (False, True):
        assert _fit_trajectory(samples, polynomial) == _reference_fit_trajectory(
            samples, polynomial
        )


def test_lowest_candidate_can_fail_the_held_out_sample():
    # The example above: at total degree 1, (dn, dd) = (0, 1) comes before
    # (1, 0), fits both fit samples and has a pole at the held-out k = 2.
    samples = [(0, Fraction(1)), (1, Fraction(2)), (2, Fraction(3))]
    lowest = _kernel_fit(samples[:-1], 0, 1)
    assert lowest == RationalFunctionFit((-2,), (-2, 1))
    with pytest.raises(ZeroDivisionError):
        lowest.evaluate(2)
    assert _fit_trajectory(samples) == RationalFunctionFit((1, 1), (1,))


def test_lower_total_degree_comes_before_lower_numerator_degree():
    # Both fits reproduce the held-out sample; (dn, dd) = (2, 0) has total
    # degree 2 and comes before (0, 3), which has the lower dn.
    fit_set = TWO_FITS[:-1]
    quadratic, reciprocal = _kernel_fit(fit_set, 2, 0), _kernel_fit(fit_set, 0, 3)
    assert quadratic.evaluate(12) == reciprocal.evaluate(12) == -1
    assert _fit_trajectory(TWO_FITS) == quadratic == RationalFunctionFit((-18, 13, -1), (6,))


@pytest.mark.parametrize("ideal, k_min, k_max", NAMED_SCANS, ids=NAMED_SCAN_IDS)
def test_every_scan_search_matches_the_degree_search(monkeypatch, ideal, k_min, k_max):
    searched = []

    def recording(samples, polynomial=False):
        searched.append((samples, polynomial))
        return _fit_trajectory(samples, polynomial)

    monkeypatch.setattr(stability, "_fit_trajectory", recording)
    scan_powers(ideal, k_min, k_max)
    assert searched
    for samples, polynomial in searched:
        assert _fit_trajectory(samples, polynomial) == _reference_fit_trajectory(
            samples, polynomial
        )
