"""The pruned lattice fold against the unpruned reference, and the regularity recogniser."""

from collections import Counter
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from bettistab import koszul_oracle
from bettistab.koszul_oracle import (
    _cooccurrence,
    _divisor_index,
    _fields,
    _indexed_key,
    _induced_matching_number,
    _locality_order,
    _lookup,
    _pack,
    _pruned_lattice,
    _sumset as sumset,
    automorphisms,
    betti_oracle,
    edge_power_regularity,
    oracle_plan,
    strand_homology,
)
from bettistab.monomial_ideal import make_ideal, power
from bettistab.path_formula import path_diagram, path_ideal
from oracle_reference import betti_oracle as reference_oracle
from oracle_reference import divisor_index as reference_divisor_index
from oracle_reference import edge_power_regularity as reference_regularity
from oracle_reference import lcm_lattice, lookup as reference_lookup
from test_koszul_oracle import _reference_homology, _relabelled, _unpack, non_path_ideals


def edge_ideal(n, edges):
    return make_ideal(n, [tuple(int(t in edge) for t in range(n)) for edge in edges])


def cycle_edges(m):
    return [(i, (i + 1) % m) for i in range(m)]


def brute_induced_matching(edges) -> int:
    """The largest set of edges that are pairwise disjoint with no edge of G between two."""
    def apart(e, f):
        return not set(e) & set(f) and not any(
            {x, y} == set(g) for x in e for y in f for g in edges
        )

    for size in range(len(edges), 0, -1):
        for chosen in combinations(edges, size):
            if all(apart(e, f) for e, f in combinations(chosen, 2)):
                return size
    return 0


def _reference_kept(ideal, regularity):
    """{a in L(I) : x^(a - 1_supp a) outside I, |a| - |supp a| <= reg}."""
    fields = _fields(ideal.exponent_lcm())
    lattice = lcm_lattice([_pack(fields, g) for g in ideal.generators])
    kept = set()
    for a in map(lambda x: _unpack(fields, x), lattice):
        excess = sum(a) - sum(1 for at in a if at)
        if regularity is not None and excess > regularity:
            continue
        if not ideal.contains(tuple(max(at - 1, 0) for at in a)):
            kept.add(a)
    return kept, {_unpack(fields, x) for x in lattice}


def _per_degree(points) -> Counter:
    degrees = Counter()
    for (_, d), count in points.items():
        degrees[d] += count
    return degrees


def _assert_pruned_matches_reference(ideal):
    """The fold keeps exactly the points that pass the two tests, counts
    them by indexed key and degree, classifies only lcms of a kept point and
    a generator, and gives the reference diagram.  Over the automorphism
    group it classifies and keeps the same points, with the same count per
    degree, on no more keys."""
    regularity = edge_power_regularity(ideal)
    assert regularity == reference_regularity(ideal)
    top = sum(ideal.exponent_lcm())
    fields = _fields(ideal.exponent_lcm())
    index = _divisor_index(fields, ideal.generators)
    generators = [_pack(fields, g) for g in ideal.generators]
    bound = top if regularity is None else regularity
    seen, kept, points = _pruned_lattice(index, generators, bound, ())
    expected, lattice = _reference_kept(ideal, regularity)
    assert len(set(kept)) == len(kept) and set(kept) <= seen.keys()
    assert {_unpack(fields, a) for a in kept} == expected
    assert {_unpack(fields, a) for a in seen} <= lattice
    # a dropped point is never expanded
    assert set(seen) <= {0} | {a | g for a in kept for g in generators}
    assert points == Counter((_indexed_key(index, a), a.bit_count()) for a in kept)
    group_seen, group_kept, group_points = _pruned_lattice(
        index, generators, bound, automorphisms(ideal)[0]
    )
    assert group_seen == seen
    assert group_kept == kept
    assert _per_degree(group_points) == _per_degree(points)
    assert len(group_points) <= len(points)
    assert betti_oracle(ideal) == reference_oracle(ideal)
    return regularity


@given(non_path_ideals(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_pruned_oracle_matches_reference_on_non_path_powers(ideal, k):
    _assert_pruned_matches_reference(power(ideal, k))


@given(non_path_ideals())
@settings(max_examples=100, deadline=None)
def test_dropped_points_have_zero_homology(ideal):
    # every point of L the fold does not keep carries no Betti number
    fields = _fields(ideal.exponent_lcm())
    top = sum(ideal.exponent_lcm())
    _, kept, _ = _pruned_lattice(
        _divisor_index(fields, ideal.generators), [_pack(fields, g) for g in ideal.generators],
        top, (),
    )
    for a in lcm_lattice([_pack(fields, g) for g in ideal.generators]) - set(kept):
        assert not any(strand_homology(ideal, _unpack(fields, a)))


def _assert_lookups_match_reference(ideal):
    """Every point the fold classifies, replayed in the fold's order through one
    pair of memos: the half-entry lookup equals the per-variable reference, and
    its divisors tight at no variable are D & ~(OR of the reference's E_t).

    Returns (points, memo entries over both halves).
    """
    n = ideal.num_vars
    fields = _fields(ideal.exponent_lcm())
    index = _divisor_index(fields, ideal.generators)
    # the low half holds the first n // 2 variables, the high half the rest
    assert [[bit for bit, _, _ in half] for _, half in index] == [
        [1 << t for t in range(n // 2)], [1 << t for t in range(n // 2, n)]]
    regularity = edge_power_regularity(ideal)
    top = sum(ideal.exponent_lcm())
    seen, _, _ = _pruned_lattice(
        index, [_pack(fields, g) for g in ideal.generators],
        top if regularity is None else regularity, (),
    )
    memos = {}, {}
    for a in seen:
        support, divisors, tight, untight = _lookup(index, a, memos)
        expected = reference_lookup(index, a)
        assert (support, divisors, tight) == expected
        assert untight == expected[1] & ~reduce(or_, (e for _, e in expected[2]), 0)
    return len(seen), sum(map(len, memos))


@given(non_path_ideals(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_half_entry_lookup_matches_reference(ideal, k):
    _assert_lookups_match_reference(power(ideal, k))


def test_half_entry_lookup_with_an_empty_low_half():
    # one variable: the low half holds none, so its one entry is (-1, 0, ())
    ideal = power(make_ideal(1, [(2,)]), 3)
    assert _divisor_index(_fields(ideal.exponent_lcm()), ideal.generators)[0] == (0, [])
    points, entries = _assert_lookups_match_reference(ideal)
    assert points == 2 and entries == 3


@pytest.mark.parametrize("n", range(5, 9))
def test_half_entry_lookup_on_paths_and_cycles(n):
    # relabelled P5..P8 and C5..C7 squared; odd n splits the variables unevenly
    ideals = [power(_relabelled(path_ideal(n), n), 2)]
    if n <= 7:
        ideals.append(power(_relabelled(edge_ideal(n, cycle_edges(n)), n), 2))
    for ideal in ideals:
        points, entries = _assert_lookups_match_reference(ideal)
        # most half-points repeat, so the memo is read far more often than filled
        assert entries < points


def _diagram_regularity(diagram):
    return max(d - i for (i, d), _ in diagram.items())


def _assert_bht_bound(ideal, k, nu, seed):
    """I(G)^k, relabelled: the recogniser gives 2k + nu - 2, the reference
    diagram attains it, and the pruned fold matches the reference."""
    powered = power(_relabelled(ideal, seed), k)
    assert edge_power_regularity(powered) == 2 * k + nu - 2
    assert _assert_pruned_matches_reference(powered) == 2 * k + nu - 2
    assert _diagram_regularity(reference_oracle(powered)) == 2 * k + nu - 2


@pytest.mark.parametrize("n", range(2, 8))
def test_bht_bound_on_paths(n):
    for k in range(1, 5 if n <= 5 else 4):
        _assert_bht_bound(path_ideal(n), k, (n + 1) // 3, n * k)


@pytest.mark.parametrize("m", range(2, 6))
def test_bht_bound_on_stars(m):
    star = edge_ideal(m + 1, [(0, leaf) for leaf in range(1, m + 1)])
    for k in range(1, 4):
        _assert_bht_bound(star, k, 1, m * k)


@pytest.mark.parametrize(
    "spine, legs",
    [(3, [1, 0, 1]), (3, [2, 1, 0]), (4, [1, 1, 0, 1]), (2, [2, 2])],
)
def test_bht_bound_on_caterpillars(spine, legs):
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i, count in enumerate(legs):
        for _ in range(count):
            edges.append((i, n))
            n += 1
    nu = brute_induced_matching(edges)
    for k in range(1, 4 if n <= 6 else 3):
        _assert_bht_bound(edge_ideal(n, edges), k, nu, n * k)


@pytest.mark.parametrize("m", range(3, 8))
def test_bht_bound_on_cycles(m):
    cycle = edge_ideal(m, cycle_edges(m))
    assert edge_power_regularity(cycle) is None
    _assert_pruned_matches_reference(cycle)
    for k in range(2, 5 if m <= 6 else 4):
        _assert_bht_bound(cycle, k, m // 3, m * k)


@st.composite
def forests(draw):
    """(n, edges) of a forest on at most 10 vertices, relabelled at random."""
    n = draw(st.integers(1, 10))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.append((parent, v))
    perm = draw(st.permutations(range(n)))
    return n, [tuple(sorted((perm[u], perm[v]))) for u, v in edges]


@given(forests())
@settings(max_examples=300, deadline=None)
def test_forest_induced_matching_matches_brute_force(forest):
    _, edges = forest
    nu = brute_induced_matching(edges)
    assert _induced_matching_number(edges, 1) == _induced_matching_number(edges, 2) == nu


@given(forests(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_recogniser_on_random_forests(forest, k):
    n, edges = forest
    if not edges:
        return
    ideal = power(edge_ideal(n, edges), k)
    assert edge_power_regularity(ideal) == 2 * k + brute_induced_matching(edges) - 2
    assert reference_regularity(ideal) == edge_power_regularity(ideal)


@given(forests(), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_pruned_oracle_matches_reference_on_random_forests(forest, k):
    n, edges = forest
    if edges and len(edges) <= 6:
        _assert_pruned_matches_reference(power(edge_ideal(n, edges), k))


def test_recogniser_rejects_what_bht_does_not_cover():
    path4 = power(path_ideal(4), 2)
    rejected = [
        edge_ideal(5, cycle_edges(5)),  # a cycle at k = 1
        edge_ideal(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # a triangle with a pendant edge
        power(edge_ideal(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), 2),
        power(edge_ideal(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), 2),  # two triangles
        power(edge_ideal(6, cycle_edges(4) + [(4, 5)]), 2),  # a 4-cycle and a disjoint edge
        power(edge_ideal(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)]), 2),  # the same, relabelled
        power(edge_ideal(5, cycle_edges(5) + [(0, 2)]), 2),  # a 5-cycle with a chord
        make_ideal(2, [(2, 0), (0, 2)]),  # x1^2, x2^2
        make_ideal(3, [(1, 1, 0), (0, 1, 1), (0, 0, 3)]),  # not equigenerated
        make_ideal(4, list(path4.generators) + [(3, 0, 0, 1)]),  # path(4)^2 and one more
        make_ideal(4, [(0, 0, 0, 3), (0, 2, 1, 0), (1, 0, 2, 0), (2, 0, 1, 0)]),
    ]
    assert edge_power_regularity(path4) == reference_regularity(path4) == 3
    for ideal in rejected:
        assert edge_power_regularity(ideal) is None
        assert reference_regularity(ideal) is None


def test_recogniser_counts_isolated_variables_out():
    # x2 x4 and x4 x6 in six variables: the path P_3 with three isolated vertices
    ideal = edge_ideal(6, [(1, 3), (3, 5)])
    for k in (1, 2, 3):
        assert edge_power_regularity(power(ideal, k)) == 2 * k - 1
    # a 4-cycle inside six variables
    cycle = edge_ideal(6, [(0, 2), (2, 4), (4, 5), (5, 0)])
    assert edge_power_regularity(power(cycle, 3)) == 5


@given(forests(), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_recogniser_matches_reference_on_perturbed_forest_powers(forest, k, data):
    # I(G)^k with one generator removed, or with one more monomial of its
    # degree: the product sets outgrow the generators or miss one of them
    n, edges = forest
    if not edges:
        return
    generators = list(power(edge_ideal(n, edges), k).generators)
    if len(generators) > 1 and data.draw(st.booleans()):
        generators.pop(data.draw(st.integers(0, len(generators) - 1)))
    else:
        parts = data.draw(st.lists(st.integers(0, n - 1), min_size=2 * k, max_size=2 * k))
        generators.append(tuple(parts.count(t) for t in range(n)))
    ideal = make_ideal(n, generators)
    assert edge_power_regularity(ideal) == reference_regularity(ideal)


def test_recogniser_takes_logarithmic_steps_on_one_edge(monkeypatch):
    # x1^e x2^e = I(G)^e for G one edge, nu = 1: reg = 2e - 1, and the
    # product sets are built in at most 2 log2(e) + 1 sumsets, not e
    steps = []

    def counted(p, q):
        steps.append(None)
        return sumset(p, q)

    monkeypatch.setattr(koszul_oracle, "_sumset", counted)
    for e in (1, 2, 3, 5, 8, 13, 10**6):
        steps.clear()
        assert edge_power_regularity(make_ideal(2, [(e, e)])) == 2 * e - 1
        assert e.bit_length() <= len(steps) <= 2 * e.bit_length() - 1
    assert reference_regularity(make_ideal(2, [(13, 13)])) == 25


@given(non_path_ideals(), st.data())
@settings(max_examples=100, deadline=None)
def test_divisor_index_matches_reference(ideal, data):
    # on the lcm's fields, and on narrower ones that some generators exceed
    bounds = [ideal.exponent_lcm()]
    bounds.append(tuple(data.draw(st.integers(0, c)) for c in ideal.exponent_lcm()))
    for bound in bounds:
        fields = _fields(bound)
        assert _divisor_index(fields, ideal.generators) == reference_divisor_index(
            fields, ideal.generators)


def test_reach_c6_fifth_power():
    ideal = power(_relabelled(edge_ideal(6, cycle_edges(6)), 6), 5)
    assert edge_power_regularity(ideal) == 10
    assert betti_oracle(ideal) == reference_oracle(ideal)


@pytest.mark.parametrize("graph, n", [("path", n) for n in range(5, 10)]
                         + [("cycle", n) for n in range(5, 8)])
def test_locality_order_walks_paths_and_cycles(graph, n):
    # every two consecutive variables of the order share an edge: on a path
    # that is the path's order or its reverse, on a cycle a cyclic order
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if graph == "cycle" else [])
    for seed in range(8):
        base = _relabelled(edge_ideal(n, edges), seed)
        relabelled = {frozenset(t for t, e in enumerate(g) if e) for g in base.generators}
        for k in (1, 2, 3):
            order = _locality_order(_cooccurrence(power(base, k).generators)[2])
            assert sorted(order) == list(range(n))
            assert all({u, v} in relabelled for u, v in zip(order, order[1:])), (seed, k, order)


@pytest.mark.parametrize("base, k, seeds", [
    pytest.param(path_ideal(n), k, 10, id=f"path{n}^{k}") for n, k in ((6, 4), (7, 3), (8, 2))
] + [  # the benchmark's oracle cases, then cycles
    pytest.param(edge_ideal(n, cycle_edges(n)), k, 7, id=f"C{n}^{k}")
    for n in (5, 6, 7) for k in (2, 3)
])
def test_relabellings_compute_the_in_order_shapes(monkeypatch, base, k, seeds):
    # from an empty homology memo, each relabelling computes exactly the
    # homologies of the ideal labelled in order, each once, and the same diagram
    shapes = []

    def counted(shape, apex, original=koszul_oracle._critical_bases):
        shapes.append(shape)
        return original(shape, apex)

    monkeypatch.setattr(koszul_oracle, "_critical_bases", counted)
    koszul_oracle._key_homology.cache_clear()
    expected = betti_oracle(power(base, k))
    in_order = Counter(shapes)
    assert set(in_order.values()) == {1}
    for seed in range(1, seeds + 1):
        shapes.clear()
        koszul_oracle._key_homology.cache_clear()
        assert betti_oracle(power(_relabelled(base, seed), k)) == expected
        assert Counter(shapes) == in_order, seed
    if base == path_ideal(base.num_vars):
        assert expected == path_diagram(base.num_vars, k)


@pytest.mark.parametrize("base", [path_ideal(6), path_ideal(7), edge_ideal(6, cycle_edges(6)),
                                  edge_ideal(4, [(0, 1), (0, 2), (0, 3)]),
                                  edge_ideal(5, [(0, 1), (1, 2), (2, 0), (2, 3)])])
def test_plan_does_not_depend_on_the_labelling(base):
    # the bound and the group are those of the ideal as given; the number of
    # the group's generators follows the labelling unless the order is 1 or 2
    for k in (1, 2, 3):
        regularity, perms, order, diagram = oracle_plan(power(base, k))
        expected = diagram()
        for seed in range(1, 6):
            ideal = power(_relabelled(base, seed), k)
            plan = oracle_plan(ideal)
            assert plan[:3] == (edge_power_regularity(ideal), *automorphisms(ideal))
            assert (plan[0], plan[2]) == (regularity, order)
            assert len(plan[1]) == len(perms) or order > 2
            assert plan[3]() == expected


def test_warm_memo_matches_reference_across_n():
    # the homology memo lasts for the process and is keyed on the shape alone,
    # so ideals with other n warm it first: path(8)^2 after path(6)^4, C6^3
    # after C5^2, the uneven ideal's powers after both.  Each diagram equals
    # the unpruned reference, which computes its homology without the memo,
    # in that order and again in reverse, when every entry is warm.
    uneven = make_ideal(4, [(0, 0, 0, 3), (0, 2, 1, 0), (1, 0, 2, 0), (2, 0, 1, 0)])
    ideals = [power(path_ideal(6), 4), power(path_ideal(8), 2),
              power(edge_ideal(5, cycle_edges(5)), 2), power(edge_ideal(6, cycle_edges(6)), 3),
              *(power(uneven, k) for k in (1, 2, 3, 4))]
    memo = koszul_oracle._key_homology
    memo.cache_clear()
    for ideal in ideals + ideals[::-1]:
        hits = memo.cache_info().hits
        assert betti_oracle(ideal) == reference_oracle(ideal)
        assert memo.cache_info().hits > hits or ideal is ideals[0]
    # strand_homology pads the memo's entries, over 0..|supp a|, to n + 1,
    # after a warm-up on fewer variables
    memo.cache_clear()
    betti_oracle(power(path_ideal(4), 2))
    ideal = power(path_ideal(8), 2)
    for a in [(0, 0, 0, 0, 0, 0, 2, 2), (0, 0, 0, 0, 0, 1, 2, 1), (0, 0, 0, 0, 1, 1, 1, 1),
              (1, 1, 0, 2, 2, 1, 1, 1), (2, 2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)]:
        expected, hits = _reference_homology(ideal, a), memo.cache_info().hits
        assert strand_homology(ideal, a) == expected and len(expected) == 9 and any(expected)
        # a point on at most four variables has a shape that path(4)^2 computed
        assert memo.cache_info().hits > hits or sum(map(bool, a)) > 4
