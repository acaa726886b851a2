"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
All comparisons are over exact rationals; equality is literal.
"""

import random
import time
from fractions import Fraction

import pytest

from bettistab.decomposition import (
    build_polytope,
    candidate_degree_sequences,
    enumerate_vertices,
    greedy_decompose,
    prune,
    verify_decomposition,
)
from bettistab.diagram import BettiDiagram, pure_diagram
from bettistab.exact_arith import RationalFunctionFit, binom
from bettistab.koszul_oracle import betti_oracle
from bettistab.monomial_ideal import make_ideal, power
from bettistab.path_formula import path_diagram, path_ideal
from bettistab.stability import compare_reference, path6_reference, scan_powers

AC2_PAIRS = [
    (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
    (5, 1), (5, 2), (6, 1), (6, 2), (6, 4), (7, 3), (8, 2),
]


@pytest.fixture(scope="module")
def scan_4_11():
    return scan_powers(path_ideal(6), 4, 11)


def _pipeline(diagram):
    return enumerate_vertices(
        build_polytope(diagram, candidate_degree_sequences(diagram))
    )


def test_ac1_formula_matches_reference_table():
    start = time.monotonic()
    for k in range(1, 7):
        expected = {(0, 0): Fraction(1)}
        table = {
            (1, 2 * k): binom(k + 4, 4),
            (2, 2 * k + 1): 4 * binom(k + 3, 4),
            (3, 2 * k + 2): 6 * binom(k + 2, 4),
            (4, 2 * k + 3): 4 * binom(k + 1, 4),
            (5, 2 * k + 4): binom(k, 4),
            (2, 2 * k + 2): k * (k + 2),
            (3, 2 * k + 3): 2 * k * (k + 1),
            (4, 2 * k + 4): k * k,
        }
        expected.update({pos: Fraction(v) for pos, v in table.items() if v})
        assert dict(path_diagram(6, k).items()) == expected, f"k={k}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"AC1 took {elapsed:.2f}s"
    print("\nAC1 (closed formula matches the reference table, k=1..6): PASS")


def test_ac2_oracle_equivalence():
    start = time.monotonic()
    for n, k in AC2_PAIRS:
        ideal = power(path_ideal(n), k)
        assert betti_oracle(ideal) == path_diagram(n, k), f"(n,k)=({n},{k})"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"AC2 took {elapsed:.2f}s"
    print(f"\nAC2 (strand-homology oracle equals closed formula on {len(AC2_PAIRS)} cases): PASS")


def test_ac3_decomposition_soundness():
    diagrams = [path_diagram(6, k) for k in range(1, 7)]
    diagrams += [path_diagram(n, k) for n, k in AC2_PAIRS]
    for diagram in diagrams:
        dec = greedy_decompose(diagram)
        weights = [w for w, _ in dec.terms]
        assert all(w > 0 for w in weights)
        assert verify_decomposition(diagram, weights, [d for _, d in dec.terms])

    for degrees in [(0, 2, 3), (0, 1, 2), (0, 3, 5, 8)]:
        pure = BettiDiagram(
            {(i, d): v for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees)))}
        )
        dec = greedy_decompose(pure)
        assert dec.terms == ((Fraction(1), degrees),)

    rng = random.Random(2024)
    for _ in range(200):
        chain = sorted(rng.sample(range(0, 15), rng.randint(2, 6)))
        total = {}
        expected_terms = rng.randint(1, 4)
        for _ in range(expected_terms):
            size = rng.randint(2, len(chain))
            degrees = tuple(sorted(rng.sample(chain, size)))
            weight = Fraction(rng.randint(0, 24), rng.randint(1, 8))
            for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees))):
                total[(i, d)] = total.get((i, d), Fraction(0)) + weight * v
        diagram = BettiDiagram(total)
        if diagram.is_zero():
            continue
        dec = greedy_decompose(diagram)
        assert verify_decomposition(
            diagram, [w for w, _ in dec.terms], [d for _, d in dec.terms]
        )
        assert all(w > 0 for w, _ in dec.terms)
    print("\nAC3 (greedy decompositions reconstruct exactly; 200 random combinations): PASS")


def test_ac4_polytope_structure():
    reference = path6_reference()
    for k in (4, 5, 6):
        start = time.monotonic()
        diagram = path_diagram(6, k)
        candidates = candidate_degree_sequences(diagram)
        assert len(candidates) == 11, f"k={k}"
        polytope = prune(_pipeline(diagram))
        expected_sequences = sorted(
            template.instantiate(k) for template in reference.templates
        )
        assert sorted(polytope.candidates) == expected_sequences, f"k={k}"
        assert len(polytope.candidates) == 8
        assert len(polytope.vertices) == 3, f"k={k}"
        for v in polytope.vertices:
            assert verify_decomposition(diagram, v, polytope.candidates)
            assert sum(v) == 1
        label_of = {
            polytope.candidates.index(t.instantiate(k)): label
            for label, t in zip(reference.template_labels, reference.templates)
        }
        patterns = {
            frozenset(label_of[c] for c, x in enumerate(v) if x == 0)
            for v in polytope.vertices
        }
        assert patterns == {
            frozenset({"pi_1", "pi_2", "pi_7"}),
            frozenset({"pi_1", "pi_3"}),
            frozenset({"pi_2", "pi_3"}),
        }, f"k={k}"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"AC4 k={k} took {elapsed:.2f}s"
    print("\nAC4 (triangle polytope: 11 candidates, m=8 after pruning, vertex patterns): PASS")


def test_ac5_trajectory_stability(scan_4_11):
    start = time.monotonic()
    report = scan_4_11
    signatures = {record.signature for record in report.records}
    assert len(signatures) == 1, "signature not constant over k=4..11"
    assert report.window == (4, 11)

    assert len(report.trajectories) == 24
    for t in report.trajectories:
        assert t.fit is not None
        assert len(t.fit.numerator) <= 4 and len(t.fit.denominator) <= 4  # degrees <= (3,3)
        rays = report.vertex_values[t.vertex]  # coordinate c of ray r is r[c] / r[-1]
        for k in range(4, 11):
            assert t.fit.evaluate(k) == Fraction(rays[k][t.coordinate], rays[k][-1])
        assert t.fit.evaluate(11) == Fraction(
            rays[11][t.coordinate], rays[11][-1]
        ), "fit fails to predict k=11"

    reference = path6_reference()
    by_positions = {t.positions: i for i, t in enumerate(report.templates)}
    pi4 = by_positions[reference.templates[3].positions]
    pi8 = by_positions[reference.templates[7].positions]
    for k in range(4, 12):
        for c in (pi4, pi8):
            values = {
                Fraction(report.vertex_values[label][k][c], report.vertex_values[label][k][-1])
                for label in report.vertex_labels
            }
            assert len(values) == 1, f"coordinate {c} differs across vertices at k={k}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"AC5 took {elapsed:.2f}s"
    print("\nAC5 (constant signature k=4..11; 24 exact rational trajectories predict k=11): PASS")


def test_ac6_linear_powers_unique_decomposition():
    start = time.monotonic()
    square_2 = make_ideal(2, [(2, 0), (1, 1), (0, 2)])
    gens_3 = [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    square_3 = make_ideal(3, gens_3)
    for ideal in (square_2, square_3):
        for k in range(1, 5):
            diagram = betti_oracle(power(ideal, k))
            polytope = prune(_pipeline(diagram))
            assert len(polytope.vertices) == 1, (ideal.num_vars, k)
            assert polytope.dimension == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"AC6 took {elapsed:.2f}s"
    print("\nAC6 (linear powers leave no choices: single-point polytopes): PASS")


def test_ac7_column_sum_polynomials(scan_4_11):
    fits = scan_4_11.column_sum_fits
    assert all(fit is not None for fit in fits)
    # every fit reproduces the window samples and validates at k = 10
    for c, fit in enumerate(fits):
        for record in scan_4_11.records:
            sums = [Fraction(0)] * len(fits)
            for (i, _), v in record.diagram.items():
                sums[i] += v
            assert fit.evaluate(record.k) == sums[c]
    assert fits[1] == RationalFunctionFit((24, 50, 35, 10, 1), (24,))
    print("\nAC7 (column sums fit exact polynomials; column 1 equals the quartic binomial): PASS")


def test_ac8_pure_diagram_identities():
    rng = random.Random(88)
    for _ in range(500):
        length = rng.randint(2, 8)
        degrees = tuple(sorted(rng.sample(range(0, 41), length)))
        values = pure_diagram(degrees)
        assert values[0] == 1
        assert all(v > 0 for v in values)
        for t in range(length - 1):
            total = sum(
                (-1) ** i * v * Fraction(d) ** t
                for i, (d, v) in enumerate(zip(degrees, values))
            )
            assert total == 0, (degrees, t)
    print("\nAC8 (500 random pure diagrams satisfy all power-sum identities): PASS")


def test_ac9_reference_comparison_record(scan_4_11):
    record = compare_reference(scan_4_11, path6_reference())
    pairs = [
        (v["reference"], c["template"], c["exact_equal"], c["constant_ratio"])
        for v in record["vertices"]
        for c in v["coordinates"]
    ]
    assert len(pairs) == 24
    assert all(
        isinstance(exact, bool) and isinstance(ratio, bool)
        for _, _, exact, ratio in pairs
    )
    assert record["all_zero_patterns_match"]
    assert all(v["zero_pattern_match"] for v in record["vertices"])
    assert record["reconstruction_ok"]
    # the coordinate-sum discrepancy is documented rather than failed on
    reference_sums = {
        v["reference"]: v["reference_coordinate_sums"]["4"] for v in record["vertices"]
    }
    assert reference_sums == {"h1": "32/33", "h2": "12/11", "h3": "268/297"}
    computed = record["sum_check"]["computed_vertex_sums"]
    assert all(value == "1" for per_k in computed.values() for value in per_k.values())
    assert record["sum_check"]["note"]
    print("\nAC9 (reference comparison record: 24 flag pairs, patterns match, sums documented): PASS")
