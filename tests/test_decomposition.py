import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bettistab.decomposition import (
    DecompositionPolytope,
    build_polytope,
    candidate_degree_sequences,
    enumerate_vertices,
    greedy_decompose,
    prune,
    verify_decomposition,
)
from bettistab.diagram import BettiDiagram, pure_diagram
from bettistab.errors import ConeError, InputError
from bettistab.exact_arith import integer_vector, matrix_rank
from bettistab.koszul_oracle import betti_oracle
from bettistab.monomial_ideal import make_ideal, power
from bettistab.path_formula import path_diagram

from dense_reference import dense_solve


def _scaled_pure(degrees, weight=1):
    entries = {
        (i, d): Fraction(weight) * v
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees).values))
    }
    return BettiDiagram(entries)


def test_greedy_pure_input_single_term():
    diagram = betti_oracle(make_ideal(2, [(2, 0), (1, 1), (0, 2)]))
    assert diagram == _scaled_pure((0, 2, 3))
    dec = greedy_decompose(diagram)
    assert dec.terms == ((Fraction(1), (0, 2, 3)),)


def test_greedy_scaled_pure():
    dec = greedy_decompose(_scaled_pure((0, 1, 2), 2))
    assert dec.terms == ((Fraction(2), (0, 1, 2)),)


def test_greedy_path_five_chain():
    diagram = path_diagram(5, 1)
    dec = greedy_decompose(diagram)
    assert len(dec.terms) >= 2
    assert dec.terms[0] == (Fraction(3, 5), (0, 2, 3, 5))
    weights = [w for w, _ in dec.terms]
    assert all(w > 0 for w in weights)
    assert verify_decomposition(diagram, weights, [d for _, d in dec.terms])


def test_greedy_rejects_zero_diagram():
    with pytest.raises(InputError):
        greedy_decompose(BettiDiagram({}))


def test_greedy_rejects_column_gap():
    with pytest.raises(ConeError):
        greedy_decompose(BettiDiagram({(0, 0): 1, (2, 4): 1}))


def test_greedy_rejects_nonincreasing_shifts():
    with pytest.raises(ConeError):
        greedy_decompose(BettiDiagram({(0, 1): 1, (1, 1): 1}))


def test_greedy_rejects_off_cone():
    # perturb one entry of a decomposable diagram
    diagram = path_diagram(5, 1)
    entries = dict(diagram.items())
    entries[(2, 3)] += Fraction(1, 1000000)
    with pytest.raises(ConeError):
        greedy_decompose(BettiDiagram(entries))


def test_verify_rejects_perturbation():
    diagram = path_diagram(5, 1)
    dec = greedy_decompose(diagram)
    weights = [w for w, _ in dec.terms]
    candidates = [d for _, d in dec.terms]
    assert verify_decomposition(diagram, weights, candidates)
    bumped = list(weights)
    bumped[0] += Fraction(1, 1000000)
    assert not verify_decomposition(diagram, bumped, candidates)
    assert not verify_decomposition(diagram, [-w for w in weights], candidates)
    with pytest.raises(InputError):
        verify_decomposition(diagram, weights[:-1], candidates)
    with pytest.raises(InputError):
        verify_decomposition(BettiDiagram({(0, 0): 1}), [1.0], [(0,)])


def test_candidates_small_support():
    diagram = BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    assert candidate_degree_sequences(diagram) == [(0, 2), (0, 2, 3)]


def test_candidates_path_six_large_power():
    for k in (4, 5):
        cands = candidate_degree_sequences(path_diagram(6, k))
        assert len(cands) == 11
        t = 2 * k
        assert (0, t, t + 1, t + 2, t + 3, t + 4) in cands


def test_candidates_single_entry():
    assert candidate_degree_sequences(BettiDiagram({(0, 0): 1})) == []


def test_candidates_rejects_noncyclic():
    with pytest.raises(InputError):
        candidate_degree_sequences(BettiDiagram({(0, 0): 2}))


def _fraction_system(diagram, candidates):
    """Reference builder: (A, b) over the Fractions, one row per support position."""
    cands = sorted({tuple(c) for c in candidates})
    matrix = []
    for i, j in diagram.support():
        row = []
        for c in cands:
            v = Fraction(0)
            if i < len(c) and c[i] == j:
                v = pure_diagram(c).values[i]
            row.append(v)
        matrix.append(tuple(row))
    rhs = tuple(diagram.get(i, j) for i, j in diagram.support())
    return tuple(matrix), rhs


def _cleared_rows(matrix, rhs):
    """Each row of [A | -b] scaled by the lcm of its denominators."""
    return tuple(tuple(integer_vector((*row, -b))) for row, b in zip(matrix, rhs))


def test_build_polytope_example():
    diagram = _scaled_pure((0, 2, 3))
    polytope = build_polytope(diagram, [(0, 2), (0, 2, 3)])
    assert _fraction_system(diagram, polytope.candidates) == (((1, 1), (1, 3), (0, 2)), (1, 3, 2))
    assert polytope.rows == ((1, 1, -1), (1, 3, -3), (0, 2, -2))
    assert diagram.support() == ((0, 0), (1, 2), (2, 3))  # the rows' order


def test_build_polytope_single_candidate():
    diagram = _scaled_pure((0, 1, 2))
    polytope = build_polytope(diagram, [(0, 1, 2)])
    assert polytope.rows == ((1, -1), (2, -2), (1, -1))
    assert polytope.rank == 1


def _checked_polytope(diagram, candidates):
    """build_polytope, after checking its rows against the Fraction reference."""
    polytope = build_polytope(diagram, candidates)
    matrix, rhs = _fraction_system(diagram, candidates)
    assert polytope.rows == _cleared_rows(matrix, rhs)
    assert all(type(x) is int for row in polytope.rows for x in row)
    assert polytope.rank == matrix_rank(matrix)
    return polytope


NON_PATH_IDEAL = make_ideal(4, [(0, 0, 0, 3), (0, 2, 1, 0), (1, 0, 2, 0), (2, 0, 1, 0)])


@pytest.mark.parametrize(
    "diagram",
    [path_diagram(6, 4), path_diagram(7, 6)]
    + [betti_oracle(power(NON_PATH_IDEAL, k)) for k in (1, 2)],
    ids=["path6^4", "path7^6", "non-path^1", "non-path^2"],
)
def test_rows_are_the_cleared_fraction_system(diagram):
    _checked_polytope(diagram, candidate_degree_sequences(diagram))


def test_enumerate_simplex_segment():
    polytope = DecompositionPolytope(candidates=((0, 1), (0, 2)), rows=((1, 1, -1),), rank=1)
    done = enumerate_vertices(polytope)
    assert done.vertices == ((0, 1), (1, 0))


def test_enumerate_pure_system_single_vertex():
    diagram = _scaled_pure((0, 2, 3))
    polytope = enumerate_vertices(
        build_polytope(diagram, candidate_degree_sequences(diagram))
    )
    assert polytope.vertices == ((0, 1),)


def test_enumerate_infeasible():
    polytope = DecompositionPolytope(
        candidates=((0, 1), (0, 2)), rows=((1, 1, -1), (0, 0, -5)), rank=1
    )
    assert enumerate_vertices(polytope).vertices == ()


def test_prune_drops_unused_candidate():
    diagram = _scaled_pure((0, 2, 3))
    polytope = enumerate_vertices(
        build_polytope(diagram, candidate_degree_sequences(diagram))
    )
    pruned = prune(polytope)
    assert pruned.candidates == ((0, 2, 3),)
    assert pruned.vertices == ((1,),)
    assert prune(pruned) == pruned


def test_prune_keeps_used_polytope():
    polytope = DecompositionPolytope(candidates=((0, 1), (0, 2)), rows=((1, 1, -1),), rank=1)
    done = enumerate_vertices(polytope)
    assert prune(done) == done


def test_prune_requires_vertices():
    diagram = _scaled_pure((0, 2, 3))
    with pytest.raises(InputError):
        prune(build_polytope(diagram, candidate_degree_sequences(diagram)))


def _pipeline(diagram):
    return enumerate_vertices(
        build_polytope(diagram, candidate_degree_sequences(diagram))
    )


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (5, 2), (6, 1), (6, 2), (6, 4)])
def test_vertex_invariants_on_path_diagrams(n, k):
    diagram = path_diagram(n, k)
    polytope = _pipeline(diagram)
    m = len(polytope.candidates)
    assert polytope.vertices
    for v in polytope.vertices:
        assert sum(v) == 1  # cyclic quotient: weights sum to beta_{0,0}
        assert sum(1 for x in v if x == 0) >= m - polytope.rank
        assert verify_decomposition(diagram, v, polytope.candidates)
    # greedy's weight vector, extended by zeros, satisfies the system
    dec = greedy_decompose(diagram)
    weight_of = dict()
    for w, d in dec.terms:
        assert d in polytope.candidates
        weight_of[d] = w
    w_full = [weight_of.get(c, Fraction(0)) for c in polytope.candidates]
    for row in polytope.rows:  # A w - b, scaled
        assert sum(r * x for r, x in zip(row, (*w_full, 1))) == 0


def test_prune_preserves_vertices_under_reenumeration():
    diagram = path_diagram(6, 4)
    pruned = prune(_pipeline(diagram))
    redone = enumerate_vertices(
        DecompositionPolytope(candidates=pruned.candidates, rows=pruned.rows, rank=pruned.rank)
    )
    assert redone.vertices == pruned.vertices


def test_candidate_support_containment():
    diagram = path_diagram(6, 4)
    polytope = prune(_pipeline(diagram))
    support = set(diagram.support())
    for c in polytope.candidates:
        assert {(i, d) for i, d in enumerate(c)} <= support


master_chain = st.lists(
    st.integers(min_value=0, max_value=14), min_size=2, max_size=6, unique=True
).map(lambda xs: tuple(sorted(xs)))


@st.composite
def random_combinations(draw):
    chain = draw(master_chain)
    count = draw(st.integers(min_value=1, max_value=4))
    terms = []
    for _ in range(count):
        size = draw(st.integers(min_value=2, max_value=len(chain)))
        indices = sorted(draw(st.permutations(range(len(chain))))[:size])
        degrees = tuple(chain[i] for i in indices)
        weight = draw(st.fractions(min_value=0, max_value=6, max_denominator=8))
        terms.append((weight, degrees))
    return terms


@given(random_combinations())
@settings(max_examples=120, deadline=None)
def test_greedy_reconstructs_random_combinations(terms):
    total = {}
    for weight, degrees in terms:
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees).values)):
            total[(i, d)] = total.get((i, d), Fraction(0)) + weight * v
    diagram = BettiDiagram(total)
    if diagram.is_zero():
        return
    dec = greedy_decompose(diagram)
    assert verify_decomposition(
        diagram, [w for w, _ in dec.terms], [d for _, d in dec.terms]
    )
    assert all(w > 0 for w, _ in dec.terms)
    sequences = [d for _, d in dec.terms]
    assert len(set(sequences)) == len(sequences)


@st.composite
def cyclic_diagrams(draw):
    """(0, 0) = 1 plus positive entries, random or a cone point with one moved."""
    positive = st.fractions(min_value=0, max_value=20, max_denominator=6).filter(bool)
    entries = {(0, 0): Fraction(1)}
    if draw(st.booleans()):
        for i in range(1, draw(st.integers(min_value=1, max_value=4)) + 1):
            degrees = draw(st.sets(st.integers(min_value=i, max_value=i + 5), max_size=3))
            for j in degrees:
                entries[(i, j)] = draw(positive)
        return BettiDiagram(entries)
    weights = draw(st.lists(positive, min_size=1, max_size=3))
    for w in weights:
        tail = draw(st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=4))
        degrees = (0, *sorted(tail))
        for i, (d, v) in enumerate(zip(degrees[1:], pure_diagram(degrees).values[1:]), 1):
            entries[(i, d)] = entries.get((i, d), 0) + w * v / sum(weights)
    moved = draw(st.sampled_from(sorted(entries)[1:]))
    entries[moved] *= draw(st.sampled_from([1, Fraction(1, 2), Fraction(3, 2), 2]))
    return BettiDiagram(entries)


@given(cyclic_diagrams())
@settings(max_examples=200, deadline=None)
def test_greedy_terminates_or_rejects(diagram):
    # Each step zeroes a support position, so there is no step cap, and the
    # weight is a minimum ratio, so no residual goes negative.
    try:
        dec = greedy_decompose(diagram)
    except ConeError:
        return
    assert len(dec.terms) <= len(diagram.support())
    assert verify_decomposition(
        diagram, [w for w, _ in dec.terms], [d for _, d in dec.terms]
    )


def test_greedy_oracle_diagrams_reconstruct():
    rng = random.Random(11)
    for _ in range(6):
        gens = set()
        while len(gens) < rng.randint(1, 3):
            g = tuple(rng.randint(0, 2) for _ in range(3))
            if any(g):
                gens.add(g)
        diagram = betti_oracle(make_ideal(3, gens))
        dec = greedy_decompose(diagram)
        assert verify_decomposition(
            diagram, [w for w, _ in dec.terms], [d for _, d in dec.terms]
        )


def test_polytope_json_shape():
    polytope = prune(_pipeline(path_diagram(6, 4)))
    data = polytope.to_json_dict()
    assert set(data) == {"candidates", "vertices", "rank", "dimension"}
    assert data["dimension"] == len(polytope.candidates) - polytope.rank
    assert all(isinstance(x, str) for v in data["vertices"] for x in v)
    with pytest.raises(InputError):
        build_polytope(path_diagram(6, 4), [(0, 8)]).to_json_dict()


def _reference_vertices(polytope):
    """Slow reference: one dense Bareiss solve per column subset of size rank."""
    m = len(polytope.candidates)
    r = polytope.rank
    rhs = [-row[m] for row in polytope.rows]
    found = set()
    if r == 0:
        if all(x == 0 for x in rhs):
            found.add(tuple(Fraction(0) for _ in range(m)))
    for subset in combinations(range(m), r):
        sub = [[row[c] for c in subset] for row in polytope.rows]
        solution, nullspace = dense_solve(sub, rhs)
        if solution is None or nullspace:
            continue
        if any(x < 0 for x in solution):
            continue
        full = [Fraction(0)] * m
        for c, x in zip(subset, solution):
            full[c] = x
        found.add(tuple(full))
    return tuple(sorted(found))


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(2, 7) for k in (1, 2, 3)] + [(7, 4)]
)
def test_vertices_match_reference_scan_on_paths(n, k):
    diagram = path_diagram(n, k)
    polytope = build_polytope(diagram, candidate_degree_sequences(diagram))
    assert enumerate_vertices(polytope).vertices == _reference_vertices(polytope)


@st.composite
def chain_systems(draw):
    """A combination of pure diagrams on one chain, with candidates drawn from
    its terms (some dropped, so the system may be infeasible) and the chain."""
    terms = draw(random_combinations())
    chain = sorted({d for _, degrees in terms for d in degrees})
    subsequence = st.lists(
        st.sampled_from(chain), min_size=2, max_size=len(chain), unique=True
    ).map(lambda xs: tuple(sorted(xs)))
    keep = draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
    extra = draw(st.lists(subsequence, max_size=4))
    return terms, [d for (_, d), k in zip(terms, keep) if k] + extra


@given(chain_systems())
@settings(max_examples=120, deadline=None)
def test_vertices_match_reference_scan_on_chains(system):
    terms, candidates = system
    total = {}
    for weight, degrees in terms:
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees).values)):
            total[(i, d)] = total.get((i, d), Fraction(0)) + weight * v
    diagram = BettiDiagram(total)
    if diagram.is_zero() or not candidates:
        return
    polytope = _checked_polytope(diagram, candidates)
    vertices = enumerate_vertices(polytope).vertices
    assert vertices == _reference_vertices(polytope)
    assert len({tuple(x == 0 for x in v) for v in vertices}) == len(vertices)


def _system(matrix, rhs, rank):
    m = len(matrix[0])
    return DecompositionPolytope(
        candidates=tuple((0, d) for d in range(1, m + 1)),
        rows=_cleared_rows(matrix, rhs),
        rank=rank,
    )


@pytest.mark.parametrize(
    "polytope,expected",
    [
        (_system(((0, 0), (0, 0)), (0, 0), 0), ((0, 0),)),
        (_system(((0, 0), (0, 0)), (0, 3), 0), ()),
        # unbounded: no sum row, so w = (1, 0) + t (1, 1) is feasible for all t >= 0
        (_system(((1, -1),), (1,), 1), ((1, 0),)),
        # degenerate: (0, 1, 0) is the basic solution of two column subsets
        (_system(((1, 1, 1), (1, 2, 3)), (1, 2), 2), ((0, 1, 0), (Fraction(1, 2), 0, Fraction(1, 2)))),
    ],
)
def test_vertices_match_reference_scan_on_degenerate_systems(polytope, expected):
    assert enumerate_vertices(polytope).vertices == _reference_vertices(polytope) == expected


def test_path8_square_vertices():
    diagram = path_diagram(8, 2)
    polytope = _pipeline(diagram)
    assert len(polytope.vertices) == 828
    assert len(prune(polytope).candidates) == 19
    for v in polytope.vertices:
        assert verify_decomposition(diagram, v, polytope.candidates)


@pytest.mark.parametrize("k,count", [(1, 337), (2, 505)])
def test_vertices_of_a_non_path_ideal(k, count):
    # x4^3, x2^2 x3, x1 x3^2, x1^2 x3: m = 20, rank 8, so C(20, 8) column subsets
    diagram = betti_oracle(power(NON_PATH_IDEAL, k))
    polytope = _pipeline(diagram)
    assert len(polytope.vertices) == count
    for v in polytope.vertices:
        support = [c for c, x in enumerate(v) if x]
        assert matrix_rank([[row[c] for c in support] for row in polytope.rows]) == len(support)
        assert verify_decomposition(diagram, v, polytope.candidates)


def _affine_rank(vertices):
    """Dimension of the vertices' affine hull: the rank of their differences."""
    return matrix_rank([[x - y for x, y in zip(v, vertices[0])] for v in vertices])


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (5, 2), (6, 1), (6, 2), (6, 4)])
def test_dimension_is_affine_rank_on_path_diagrams(n, k):
    # unpruned path(6)^4 has m - rank = 3, yet its vertices span a triangle
    polytope = _pipeline(path_diagram(n, k))
    assert polytope.dimension == prune(polytope).dimension
    assert polytope.dimension == _affine_rank(polytope.vertices)


@given(chain_systems())
@settings(max_examples=120, deadline=None)
def test_dimension_is_affine_rank_on_chains(system):
    terms, candidates = system
    total = {}
    for weight, degrees in terms:
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees).values)):
            total[(i, d)] = total.get((i, d), Fraction(0)) + weight * v
    diagram = BettiDiagram(total)
    if diagram.is_zero() or not candidates:
        return
    polytope = enumerate_vertices(build_polytope(diagram, candidates))
    if polytope.vertices:
        assert polytope.dimension == prune(polytope).dimension
        assert polytope.dimension == _affine_rank(polytope.vertices)
    else:
        # no vertices: the empty polytope
        assert polytope.dimension == -1
