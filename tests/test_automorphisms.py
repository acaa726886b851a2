"""`automorphisms` against brute force over every permutation of the variables,
and the orbit-memoised fold against the reference on the symmetric families.

Paths, cycles, stars and caterpillars go through the fold's checks in
`test_pruned_oracle` too, by way of `_assert_pruned_matches_reference`.
"""

from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from bettistab import koszul_oracle
from bettistab.koszul_oracle import (
    _divisor_index,
    _fields,
    _pack,
    _pruned_lattice,
    automorphisms,
    edge_power_regularity,
)
from bettistab.monomial_ideal import make_ideal, power
from bettistab.path_formula import path_ideal
from test_koszul_oracle import _relabelled, _unpack, non_path_ideals
from test_pruned_oracle import _assert_pruned_matches_reference, cycle_edges, edge_ideal


def permuted(generator, perm) -> tuple:
    """x^g with variable t renamed perm[t]."""
    image = [0] * len(generator)
    for t, e in enumerate(generator):
        image[perm[t]] = e
    return tuple(image)


def brute_automorphisms(ideal) -> set:
    """Every permutation of the variables that maps the generator set onto
    itself and fixes each variable in no generator."""
    n, generators = ideal.num_vars, set(ideal.generators)
    unused = [t for t in range(n) if not any(g[t] for g in generators)]
    return {
        perm for perm in permutations(range(n))
        if all(perm[t] == t for t in unused)
        and {permuted(g, perm) for g in generators} == generators
    }


def generated_group(perms, n) -> set:
    """The closure of the identity under composition with each element of `perms`."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    for x in frontier:
        for p in perms:
            y = tuple(p[x[t]] for t in range(n))
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


def level_orbit_lengths(group, n) -> list:
    """|orbit of i under the elements of `group` that fix 0..i-1|, for i = 0..n-1."""
    return [len({perm[i] for perm in group if perm[:i] == tuple(range(i))}) for i in range(n)]


def assert_generates_the_group(ideal):
    """S generates the brute-force group, has at most n - 1 elements, and the
    reported order is |Aut| and the product of the level orbit lengths."""
    perms, order = automorphisms(ideal)
    n = ideal.num_vars
    group = brute_automorphisms(ideal)
    assert len(perms) <= max(n - 1, 0)
    assert all(perm != tuple(range(n)) for perm in perms)
    assert generated_group(perms, n) == group
    assert order == len(group) == prod(level_orbit_lengths(group, n))
    return order


def star_edges(m):
    return [(0, leaf) for leaf in range(1, m + 1)]


def caterpillar(spine, legs):
    edges, n = [(i, i + 1) for i in range(spine - 1)], spine
    for i, count in enumerate(legs):
        for _ in range(count):
            edges.append((i, n))
            n += 1
    return edge_ideal(n, edges)


def maximal_ideal(n):
    return make_ideal(n, [tuple(int(t == s) for t in range(n)) for s in range(n)])


@pytest.mark.parametrize("n", range(2, 7))
def test_paths(n):
    for k in (1, 2, 3):
        assert assert_generates_the_group(power(_relabelled(path_ideal(n), n * k), k)) == 2


@pytest.mark.parametrize("m", range(3, 7))
def test_cycles(m):
    for k in (1, 2, 3):
        cycle = _relabelled(edge_ideal(m, cycle_edges(m)), m * k)
        assert assert_generates_the_group(power(cycle, k)) == 2 * m  # the dihedral group


@pytest.mark.parametrize("m", range(2, 6))
def test_stars(m):
    for k in (1, 2):
        star = _relabelled(edge_ideal(m + 1, star_edges(m)), m * k)
        assert assert_generates_the_group(power(star, k)) == prod(range(1, m + 1))


@pytest.mark.parametrize("n", [4, 5])
def test_complete_graphs(n):
    for k in (1, 2):
        ideal = power(edge_ideal(n, list(combinations(range(n), 2))), k)
        assert assert_generates_the_group(ideal) == prod(range(1, n + 1))
        _assert_pruned_matches_reference(ideal)


@pytest.mark.parametrize("n", range(1, 5))
def test_powers_of_the_maximal_ideal(n):
    for k in (1, 2, 3):
        ideal = power(maximal_ideal(n), k)
        assert assert_generates_the_group(ideal) == prod(range(1, n + 1))
        _assert_pruned_matches_reference(ideal)


@pytest.mark.parametrize("spine, legs", [(3, [1, 0, 1]), (3, [2, 1, 0]), (2, [2, 2]), (2, [1, 2])])
def test_caterpillars(spine, legs):
    for k in (1, 2):
        assert_generates_the_group(power(_relabelled(caterpillar(spine, legs), k), k))


def test_variables_in_no_generator_stay_fixed():
    # x2 x4 and x4 x6 in six variables: swapping x2 and x6 is the only move
    ideal = edge_ideal(6, [(1, 3), (3, 5)])
    assert automorphisms(ideal) == (((0, 5, 2, 3, 4, 1),), 2)
    assert assert_generates_the_group(ideal) == 2


def test_trivial_group():
    ideal = make_ideal(3, [(2, 1, 0), (0, 1, 1), (0, 0, 3)])
    assert automorphisms(ideal) == ((), 1)
    assert assert_generates_the_group(ideal) == 1


@given(non_path_ideals(), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_non_path_ideals(ideal, k):
    assert_generates_the_group(power(ideal, k))


@st.composite
def closed_ideals(draw):
    """(ideal, perm): up to four random generators in 2-6 variables and their
    images under the powers of a random permutation perm, so the ideal is
    fixed by perm."""
    n = draw(st.integers(2, 6))
    perm = tuple(draw(st.permutations(range(n))))
    exponents = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    generators = set()
    for g in draw(st.lists(exponents, min_size=1, max_size=4)):
        while g not in generators:
            generators.add(g)
            g = permuted(g, perm)
    return make_ideal(n, sorted(generators)), perm


@given(closed_ideals())
@settings(max_examples=150, deadline=None)
def test_ideals_closed_under_a_random_permutation(closed):
    ideal, perm = closed
    assert_generates_the_group(ideal)
    _assert_pruned_matches_reference(ideal)
    # perm permutes the variables in no generator among themselves; fixing
    # them gives an element of the group
    used = {t for g in ideal.generators for t in range(ideal.num_vars) if g[t]}
    restricted = tuple(perm[t] if t in used else t for t in range(ideal.num_vars))
    assert restricted in generated_group(automorphisms(ideal)[0], ideal.num_vars)


@pytest.mark.parametrize("ideal, kept_orbits, dropped", [
    (power(_relabelled(path_ideal(6), 6), 3), 215, 65),
    (power(_relabelled(edge_ideal(5, cycle_edges(5)), 5), 2), 15, 0),
    (power(_relabelled(edge_ideal(5, star_edges(4)), 4), 2), 10, 0),
    (power(maximal_ideal(3), 2), 5, 5),
], ids=["path6^3", "C5^2", "star4^2", "m3^2"])
def test_one_lookup_per_orbit(ideal, kept_orbits, dropped, monkeypatch):
    # the fold looks up one point of each kept orbit but {0}, and each point
    # that passes test (ii) and is dropped; the rest of a kept orbit waits in
    # `pending`, the one set() the fold makes, which is empty at the end
    looked_up, lookup, made = [], koszul_oracle._lookup, []

    def counted(index, a, memos):
        looked_up.append(a)
        return lookup(index, a, memos)

    class Recorded(set):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    fields = _fields(ideal.exponent_lcm())
    regularity = edge_power_regularity(ideal)
    bound = sum(ideal.exponent_lcm()) if regularity is None else regularity
    index = _divisor_index(fields, ideal.generators)
    generators = [_pack(fields, g) for g in ideal.generators]
    perms = automorphisms(ideal)[0]
    monkeypatch.setattr(koszul_oracle, "_lookup", counted)
    monkeypatch.setattr(koszul_oracle, "set", Recorded, raising=False)
    seen, kept, points = _pruned_lattice(index, generators, bound, perms)
    assert len(made) == 1 and not made[0]
    assert sum(points.values()) == len(kept)
    group = brute_automorphisms(ideal)

    def orbit(a):
        return frozenset(_pack(fields, permuted(_unpack(fields, a), perm)) for perm in group)

    orbits = {orbit(a) for a in kept if a}
    drops = {a for a in seen.keys() - set(kept) if (a & a >> 1).bit_count() <= bound}
    assert (len(orbits), len(drops)) == (kept_orbits, dropped)
    assert len(looked_up) == len(set(looked_up)) == len(orbits) + len(drops)
    assert drops <= set(looked_up)
    assert {orbit(a) for a in set(looked_up) - drops} == orbits
