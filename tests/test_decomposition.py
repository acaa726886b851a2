import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from bettistab import decomposition
from bettistab.decomposition import (
    DecompositionPolytope,
    build_polytope,
    candidate_degree_sequences,
    enumerate_vertices,
    greedy_decompose,
    prune,
    verify_decomposition,
    verify_rays,
)
from bettistab.diagram import BettiDiagram, pure_diagram
from bettistab.errors import ConeError, InputError
from bettistab.exact_arith import integer_vector, kernel_basis, matrix_rank
from bettistab.koszul_oracle import betti_oracle
from bettistab.monomial_ideal import make_ideal, power
from bettistab.path_formula import path_diagram

import decomposition_reference
from dense_reference import dense_solve


def _scaled_pure(degrees, weight=1):
    entries = {
        (i, d): Fraction(weight) * v
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees)))
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
                v = pure_diagram(c)[i]
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
TRIPLE_IDEAL = make_ideal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 3)])


PATH_ROW_CASES = [(6, 1), (6, 4), (6, 11), (7, 3), (7, 6), (7, 31), (8, 2), (8, 5), (8, 12)]


@pytest.mark.parametrize(
    "diagram",
    [path_diagram(n, k) for n, k in PATH_ROW_CASES]
    + [betti_oracle(power(NON_PATH_IDEAL, k)) for k in (1, 2)]
    + [betti_oracle(power(TRIPLE_IDEAL, 2))],
    ids=[f"path{n}^{k}" for n, k in PATH_ROW_CASES] + ["non-path^1", "non-path^2", "triple^2"],
)
def test_rows_are_the_cleared_fraction_system(diagram):
    _checked_polytope(diagram, candidate_degree_sequences(diagram))


def test_enumerate_simplex_segment():
    polytope = DecompositionPolytope(candidates=((0, 1), (0, 2)), rows=((1, 1, -1),))
    done = enumerate_vertices(polytope)
    assert done.vertices == ((0, 1), (1, 0))


def test_enumerate_pure_system_single_vertex():
    diagram = _scaled_pure((0, 2, 3))
    polytope = enumerate_vertices(
        build_polytope(diagram, candidate_degree_sequences(diagram))
    )
    assert polytope.vertices == ((0, 1),)


def test_enumerate_infeasible():
    polytope = DecompositionPolytope(candidates=((0, 1), (0, 2)), rows=((1, 1, -1), (0, 0, -5)))
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
    polytope = DecompositionPolytope(candidates=((0, 1), (0, 2)), rows=((1, 1, -1),))
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
        DecompositionPolytope(candidates=pruned.candidates, rows=pruned.rows)
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
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees))):
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
        for i, (d, v) in enumerate(zip(degrees[1:], pure_diagram(degrees)[1:]), 1):
            entries[(i, d)] = entries.get((i, d), 0) + w * v / sum(weights)
    moved = draw(st.sampled_from(sorted(entries)[1:]))
    entries[moved] *= draw(st.sampled_from([1, Fraction(1, 2), Fraction(3, 2), 2]))
    return BettiDiagram(entries)


@given(cyclic_diagrams())
@settings(max_examples=150, deadline=None)
def test_rows_of_random_diagrams_are_the_cleared_fraction_system(diagram):
    # entries with denominators, so b's denominator enters each row's scale
    candidates = candidate_degree_sequences(diagram)
    if candidates:
        _checked_polytope(diagram, candidates)


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
    # before enumeration m - rank is 3 here, not the dimension 2
    diagram = path_diagram(6, 4)
    unenumerated = build_polytope(diagram, candidate_degree_sequences(diagram))
    assert len(unenumerated.candidates) - unenumerated.rank == 3 != polytope.dimension
    with pytest.raises(InputError, match="vertices not enumerated"):
        _ = unenumerated.dimension


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
    # path6^5 has a degenerate vertex; on path7^6 an implicit equality comes
    # before a cut that pairs rays
    "n,k", [(n, k) for n in range(2, 7) for k in (1, 2, 3)] + [(6, 5), (7, 4), (7, 6)]
)
def test_vertices_match_reference_scan_on_paths(n, k):
    diagram = path_diagram(n, k)
    polytope = build_polytope(diagram, candidate_degree_sequences(diagram))
    assert enumerate_vertices(polytope).vertices == _reference_vertices(polytope)
    _assert_cuts_match_reference(polytope)


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
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees))):
            total[(i, d)] = total.get((i, d), Fraction(0)) + weight * v
    diagram = BettiDiagram(total)
    if diagram.is_zero() or not candidates:
        return
    polytope = _checked_polytope(diagram, candidates)
    vertices = enumerate_vertices(polytope).vertices
    assert vertices == _reference_vertices(polytope)
    assert len({tuple(x == 0 for x in v) for v in vertices}) == len(vertices)
    _assert_cuts_match_reference(polytope)
    assert enumerate_vertices(polytope).rays == decomposition_reference.enumerate_rays_reference(
        polytope
    )


def _assert_cuts_match_reference(polytope):
    """Every cut of enumerate_vertices gives the rays of `cut_reference`, and
    so do its final rays.

    `cut_reference` runs the holder test on every pair that shares d - 2
    zeros, d the kernel dimension.  On every cut, `_cut` must return the same
    rays with the same zero sets, as many of each, as the reference does on
    the same input; then the whole enumeration is run again with the
    reference in place of `_cut`.
    """
    need = len(kernel_basis(polytope.rows, len(polytope.candidates) + 1)) - 2
    cut = decomposition._cut

    def reference(rays, zeros, done, c, *_):
        return decomposition_reference.cut_reference(rays, zeros, done, c, need)

    def checked(rays, zeros, done, c, *rest):
        out = cut(rays, zeros, done, c, *rest)
        expected = reference(rays, zeros, done, c)
        assert sorted((tuple(r), z) for r, z in zip(*out)) == sorted(
            (tuple(r), z) for r, z in zip(*expected)
        )
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposition, "_cut", checked)
        rays = enumerate_vertices(polytope).rays
        patch.setattr(decomposition, "_cut", reference)
        assert rays == enumerate_vertices(polytope).rays


@st.composite
def cone_points(draw):
    """A cyclic diagram on several chains: a convex combination of two to
    four pure diagrams whose degrees start at 2 or 3 and then step by 1 or 2.

    The single-chain systems of `chain_systems` rarely have a cut with rays
    of both signs; these have many, with implicit equalities and pairs of
    degenerate rays among them.  Equal weights are likely, and with them
    degenerate vertices.
    """
    terms = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        degrees = [0, draw(st.integers(min_value=2, max_value=3))]
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            degrees.append(degrees[-1] + draw(st.integers(min_value=1, max_value=2)))
        terms.append((draw(st.sampled_from([1, 1, 2, 3])), tuple(degrees)))
    total = sum(w for w, _ in terms)
    return _combination([(Fraction(w, total), degrees) for w, degrees in terms])


@given(cone_points())
@example(
    # two degenerate rays here share d - 2 + r zeros, yet are not adjacent:
    # a cut that takes the count alone for adjacency fails on this diagram
    BettiDiagram(
        {
            (0, 0): 1, (1, 2): Fraction(19, 9), (1, 3): Fraction(5, 3), (2, 3): Fraction(2, 3),
            (2, 4): Fraction(5, 3), (2, 5): 3, (3, 5): Fraction(8, 9), (3, 6): Fraction(5, 3),
        }
    )
)
@settings(max_examples=150, deadline=None)
def test_cuts_match_the_holder_test_on_cone_points(diagram):
    polytope = build_polytope(diagram, candidate_degree_sequences(diagram))
    _assert_cuts_match_reference(polytope)
    assert enumerate_vertices(polytope).rays == decomposition_reference.enumerate_rays_reference(
        polytope
    )


def _calls(name, diagram):
    """The results of each call of decomposition.`name` while `diagram` is enumerated."""
    calls, function = [], getattr(decomposition, name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposition, name, lambda *a: calls.append(function(*a)) or calls[-1])
        _pipeline(diagram)
    return calls


def test_face_dict_pairs_rays():
    assert sum(map(len, _calls("_face_pairs", path_diagram(7, 4)))) > 0


def _cuts(diagram):
    """Per cut while `diagram` is enumerated: the implicit equalities that
    `_cut` is given, and the ranks that its rank rule takes."""
    cuts, cut = [], decomposition._cut

    def spy(rays, zeros, done, c, d, implicit, redundancy, rank):
        ranks = []
        cuts.append((implicit, ranks))
        return cut(
            rays, zeros, done, c, d, implicit, redundancy,
            lambda shared: ranks.append(rank(shared)) or ranks[-1],
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposition, "_cut", spy)
        _pipeline(diagram)
    return cuts


def test_rank_rule_runs_on_degenerate_pairs():
    # triple^2 has pairs of two degenerate rays that pass the count, and the
    # rank rule rejects at least one of them
    diagram = betti_oracle(power(TRIPLE_IDEAL, 2))
    polytope = build_polytope(diagram, candidate_degree_sequences(diagram))
    ridge = len(kernel_basis(polytope.rows, len(polytope.candidates) + 1)) - 2
    ranks = [r for _, ranks in _cuts(diagram) for r in ranks]
    assert ridge in ranks and min(ranks) < ridge
    _assert_cuts_match_reference(polytope)


@pytest.mark.parametrize("k", [4, 6])
def test_benchmark_inputs_never_reach_the_rank_rule(k):
    # the polytope-path7 benchmark enumerates path7^4 and path7^6: there
    # matrix_rank runs once per new set of implicit equalities, and no pair
    # of two degenerate rays passes the count
    diagram = path_diagram(7, k)
    cuts = _cuts(diagram)
    assert not any(ranks for _, ranks in cuts)
    assert len(_calls("matrix_rank", diagram)) == len({e for e, _ in cuts} - {0})


def _rays_per_cut(enumerate_rays, polytope):
    """The number of rays each cut returns while `enumerate_rays` runs."""
    counts, cut = [], decomposition._cut

    def spy(*args):
        out = cut(*args)
        counts.append(len(out[0]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposition, "_cut", spy)
        enumerate_rays(polytope)
    return counts


@pytest.mark.parametrize(
    "diagram",
    [path_diagram(6, k) for k in range(1, 9)]
    + [path_diagram(7, k) for k in (*range(1, 13), 35)]
    + [path_diagram(8, 2)]
    + [betti_oracle(power(NON_PATH_IDEAL, k)) for k in (2, 3, 4)],
    ids=[f"path6^{k}" for k in range(1, 9)]
    + [f"path7^{k}" for k in (*range(1, 13), 35)]
    + ["path8^2"]
    + [f"non-path^{k}" for k in (2, 3, 4)],
)
def test_order_gives_the_rays_of_the_reference_order(diagram):
    polytope = build_polytope(diagram, candidate_degree_sequences(diagram))
    assert enumerate_vertices(polytope).rays == decomposition_reference.enumerate_rays_reference(
        polytope
    )


@pytest.mark.parametrize("n,k,rays,reference", [(7, 6, 154, 291), (8, 2, 2350, 5565)])
def test_order_builds_fewer_rays_than_the_reference_order(n, k, rays, reference):
    # the rays summed over the cuts, in this order and in the reference's; in
    # each pinned pair this order's sum is the smaller
    diagram = path_diagram(n, k)
    polytope = build_polytope(diagram, candidate_degree_sequences(diagram))
    total = sum(_rays_per_cut(lambda p: enumerate_vertices(p).rays, polytope))
    expected = sum(_rays_per_cut(decomposition_reference.enumerate_rays_reference, polytope))
    assert (total, expected) == (rays, reference)


def test_redundancy_takes_one_rank():
    # path7^6 has one implicit equality before a cut that pairs rays
    assert len(_calls("matrix_rank", path_diagram(7, 6))) == 1


def _combination(terms):
    """The diagram sum(w * pure(degrees)) of (weight, degrees) terms."""
    total = {}
    for weight, degrees in terms:
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees))):
            total[(i, d)] = total.get((i, d), Fraction(0)) + weight * v
    return BettiDiagram(total)


def _assert_rays_are_the_vertices(polytope):
    """Primitive integer rays with s > 0, whose view is the Fraction reference."""
    for r in polytope.rays:
        assert type(r) is tuple and all(type(x) is int for x in r)
        assert r[-1] > 0 and math.gcd(*r) == 1
    assert polytope.vertices == decomposition_reference.vertices_from_rays(polytope.rays)
    assert len({id(x) for v in polytope.vertices for x in v if x == 0}) <= 1


def _assert_rays_before_and_after_prune(polytope):
    _assert_rays_are_the_vertices(polytope)
    pruned = prune(polytope)
    _assert_rays_are_the_vertices(pruned)
    if polytope.rays:
        assert (pruned.candidates, pruned.vertices) == decomposition_reference.prune_vertices(
            polytope.candidates, polytope.vertices
        )
    else:
        assert pruned is polytope


@pytest.mark.parametrize(
    "n,k", [(6, k) for k in range(1, 12)] + [(7, k) for k in range(3, 9)] + [(7, 31)]
)
def test_rays_are_the_vertices_on_paths(n, k):
    _assert_rays_before_and_after_prune(_pipeline(path_diagram(n, k)))


@given(chain_systems())
@settings(max_examples=120, deadline=None)
def test_rays_are_the_vertices_on_chains(system):
    terms, candidates = system
    diagram = _combination(terms)
    if diagram.is_zero() or not candidates:
        return
    _assert_rays_before_and_after_prune(enumerate_vertices(build_polytope(diagram, candidates)))


def test_vertices_view_is_read_only_and_cached():
    polytope = _pipeline(path_diagram(6, 4))
    assert polytope.vertices is polytope.vertices
    with pytest.raises(AttributeError):
        polytope.vertices = ()
    assert build_polytope(path_diagram(6, 4), polytope.candidates).vertices is None


def test_polytope_stores_only_its_system_and_rays():
    assert list(DecompositionPolytope._fields) == ["candidates", "rows", "rays"]
    with pytest.raises(TypeError):
        DecompositionPolytope(candidates=((0, 1), (0, 2)), rows=((1, 1, -1),), rank=1)


@pytest.mark.parametrize(
    "diagram",
    [path_diagram(6, 4), path_diagram(7, 6), betti_oracle(power(NON_PATH_IDEAL, 2))],
    ids=["path6^4", "path7^6", "non-path^2"],
)
def test_derived_facts_follow_the_rows_and_rays(diagram):
    built = build_polytope(diagram, candidate_degree_sequences(diagram))
    for name in ("zero_patterns", "dimension"):
        with pytest.raises(InputError, match="vertices not enumerated"):
            getattr(built, name)
    enumerated = enumerate_vertices(built)
    pruned = prune(enumerated)
    for polytope in (built, enumerated, pruned):
        assert polytope.rank == matrix_rank(row[:-1] for row in polytope.rows)
    for polytope in (enumerated, pruned):
        # vertex by vertex, in vertex order, which on path7^6 and non-path^2 is
        # not the patterns' sorted order
        assert polytope.zero_patterns == tuple(
            tuple(c for c, x in enumerate(v) if x == 0) for v in polytope.vertices
        )
        assert polytope.zero_patterns is polytope.zero_patterns
        assert polytope.dimension == len(pruned.candidates) - pruned.rank


def test_rank_is_one_echelon_on_first_read(monkeypatch):
    diagram = path_diagram(6, 4)
    implicit = len({e for e, _ in _cuts(diagram)} - {0})
    assert implicit == 1
    calls = []
    rank = decomposition.matrix_rank
    monkeypatch.setattr(decomposition, "matrix_rank", lambda rows: calls.append(1) or rank(rows))
    polytope = prune(_pipeline(diagram))
    # building, enumerating and pruning take one rank per new set of implicit
    # equalities, and no other
    assert len(calls) == implicit
    data = polytope.to_json_dict()
    assert (data["rank"], data["dimension"]) == (6, 2)
    assert polytope.to_json_dict() == data and polytope.rank == 6
    assert len(calls) == implicit + 1


def _with(weights, i, w):
    return [*weights[:i], w, *weights[i + 1:]]


@given(random_combinations(), st.data())
@settings(max_examples=150, deadline=None)
def test_verify_matches_fraction_reference(terms, data):
    diagram = _combination(terms)
    weights = [w for w, _ in terms]
    candidates = [d for _, d in terms]
    i = data.draw(st.integers(min_value=0, max_value=len(terms) - 1))
    outside = (0, max(d for _, degrees in terms for d in degrees) + 1)
    assert verify_decomposition(diagram, weights, candidates)
    cases = [
        (weights, candidates),
        (_with(weights, i, weights[i] + Fraction(1, 10**6)), candidates),
        (_with(weights, i, -weights[i] or Fraction(-1, 2)), candidates),
        # a negative weight that a positive one cancels: the sum still matches
        ([*weights, Fraction(1, 2), Fraction(-1, 2)], [*candidates, *[candidates[i]] * 2]),
        (_with(weights, i, Fraction(0)), candidates),
        ([*weights, Fraction(1, 3)], [*candidates, outside]),  # (1, outside[1]) leaves the support
    ]
    for w, c in cases:
        assert verify_decomposition(diagram, w, c) == decomposition_reference.verify_decomposition(
            diagram, w, c
        )
    for w in (weights[:-1], _with(weights, i, True), _with(weights, i, float(weights[i]))):
        with pytest.raises(InputError):
            verify_decomposition(diagram, w, candidates)
        with pytest.raises(InputError):
            decomposition_reference.verify_decomposition(diagram, w, candidates)


@pytest.mark.parametrize(
    "diagram",
    [path_diagram(6, 4), path_diagram(7, 4), betti_oracle(power(NON_PATH_IDEAL, 1))],
    ids=["path6^4", "path7^4", "non-path^1"],
)
def test_verify_matches_fraction_reference_on_vertices(diagram):
    # every enumerated vertex, each one perturbed in a coordinate, with weight
    # moved between two coordinates, and with a coordinate negated
    polytope = _pipeline(diagram)
    candidates = polytope.candidates
    rng = random.Random(len(candidates))
    for v in polytope.vertices:
        c, d = rng.sample(range(len(v)), 2)
        moved = list(v)
        moved[c], moved[d] = moved[c] + Fraction(1, 7), moved[d] - Fraction(1, 7)
        up = next(t for t, x in enumerate(v) if x)
        cases = [
            (v, True),
            (_with(v, c, v[c] + Fraction(1, 10**6)), False),
            (moved, False),
            (_with(v, up, -v[up]), False),
        ]
        for w, expected in cases:
            assert verify_decomposition(diagram, w, candidates) is expected
            assert decomposition_reference.verify_decomposition(diagram, w, candidates) is expected


@pytest.mark.parametrize(
    "diagram",
    [path_diagram(6, 4), path_diagram(7, 4), betti_oracle(power(NON_PATH_IDEAL, 1))],
    ids=["path6^4", "path7^4", "non-path^1"],
)
def test_verify_rays_checks_every_ray(diagram):
    # every enumerated ray passes, and no ray with one entry raised by 1,
    # s included, passes alone or among the others
    polytope = _pipeline(diagram)
    rays, candidates = polytope.rays, polytope.candidates
    assert verify_rays(diagram, rays, candidates)
    assert verify_rays(diagram, (), candidates)
    for i, ray in enumerate(rays):
        for j in range(len(ray)):
            raised = tuple(x + (n == j) for n, x in enumerate(ray))
            assert verify_rays(diagram, (raised,), candidates) is False, (i, j)
    last = rays[-1]
    assert verify_rays(diagram, rays[:-1] + ((*last[:-1], last[-1] + 1),), candidates) is False
    with pytest.raises(InputError):
        verify_rays(diagram, (last[1:],), candidates)


def _system(matrix, rhs):
    m = len(matrix[0])
    return DecompositionPolytope(
        candidates=tuple((0, d) for d in range(1, m + 1)), rows=_cleared_rows(matrix, rhs)
    )


@pytest.mark.parametrize(
    "polytope,expected",
    [
        (_system(((0, 0), (0, 0)), (0, 0)), ((0, 0),)),
        (_system(((0, 0), (0, 0)), (0, 3)), ()),
        # unbounded: no sum row, so w = (1, 0) + t (1, 1) is feasible for all t >= 0
        (_system(((1, -1),), (1,)), ((1, 0),)),
        # degenerate: (0, 1, 0) is the basic solution of two column subsets
        (_system(((1, 1, 1), (1, 2, 3)), (1, 2)), ((0, 1, 0), (Fraction(1, 2), 0, Fraction(1, 2)))),
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


@pytest.mark.slow
def test_path9_square_vertices():
    # A reach check of about 3 s and 0.1 GB, run with `pytest -m slow`.  Pins
    # the polytope as a regression check: the paper has no n = 9 reference.
    diagram = path_diagram(9, 2)
    polytope = _pipeline(diagram)
    assert len(polytope.rays) == 33211
    assert verify_rays(diagram, polytope.rays, polytope.candidates)
    pruned = prune(polytope)
    assert (len(pruned.candidates), len(pruned.rays), pruned.rank, pruned.dimension) == (
        30,
        33211,
        8,
        22,
    )


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
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees))):
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
