import inspect
import random
from itertools import combinations, product
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from bettistab.diagram import BettiDiagram, validate_cyclic
from bettistab.errors import InputError
from bettistab import koszul_oracle
from bettistab.koszul_oracle import (
    _apex,
    _boundary_matrix,
    _columns,
    _critical_bases,
    _divisor_index,
    _fields,
    _homology,
    _indexed_key,
    _is_cone,
    _key_homology,
    _pack,
    _shape,
    _strand_key,
    betti_oracle,
    oracle_plan,
    strand_homology,
)
from bettistab.monomial_ideal import make_ideal, power
from bettistab.path_formula import path_diagram, path_ideal
from oracle_reference import lcm_lattice
from test_exact_arith import _reference_rank
from test_stability import NON_PATH_IDEALS


def test_strand_two_variable_koszul():
    ideal = make_ideal(2, [(1, 0), (0, 1)])
    assert strand_homology(ideal, (1, 1)) == (0, 0, 1)


def test_strand_path_four_square_free_degree():
    # the degree-4 syzygy candidate cancels: reduced homology of a tree
    assert strand_homology(path_ideal(4), (1, 1, 1, 1)) == (0, 0, 0, 0, 0)


def test_strand_linear_syzygy_of_square_ideal():
    # <x^2, xy, y^2> has one second syzygy in multidegree x^2 y
    ideal = make_ideal(2, [(2, 0), (1, 1), (0, 2)])
    assert strand_homology(ideal, (2, 1)) == (0, 0, 1)
    assert strand_homology(ideal, (1, 2)) == (0, 0, 1)
    assert strand_homology(ideal, (1, 1)) == (0, 1, 0)


def test_strand_rejects_non_integer_multidegree():
    ideal = make_ideal(2, [(1, 0), (0, 1)])
    with pytest.raises(InputError):
        strand_homology(ideal, (1.7, 1.2))


def test_packing_over_the_cap_is_refused_before_it_is_built():
    # 2^27 bits, 16 MB per packed point, is the cap: one bit past it raises
    # at once, with no int of that width made
    ideal = make_ideal(2, [((1 << 27) - 2, 0), (0, 1)])
    message = f"a packed monomial would take {(1 << 27) + 1} bits, over the cap of 2^27"
    with pytest.raises(InputError, match=message.replace("^", r"\^")):
        betti_oracle(ideal)
    with pytest.raises(InputError, match="over the cap"):
        strand_homology(make_ideal(2, [(1, 0), (0, 1)]), (10**10, 1))


def test_oracle_two_variables():
    ideal = make_ideal(2, [(1, 0), (0, 1)])
    assert dict(betti_oracle(ideal).items()) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_oracle_path_four():
    assert dict(betti_oracle(path_ideal(4)).items()) == {
        (0, 0): 1,
        (1, 2): 3,
        (2, 3): 2,
    }


def test_oracle_square_ideal():
    ideal = make_ideal(2, [(2, 0), (1, 1), (0, 2)])
    assert dict(betti_oracle(ideal).items()) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_oracle_principal_ideal():
    ideal = make_ideal(3, [(1, 2, 0)])
    expected = {(0, 0): 1, (1, sum((1, 2, 0))): 1}
    assert dict(betti_oracle(ideal).items()) == expected


def test_oracle_is_cyclic():
    for n, k in [(3, 1), (4, 2), (5, 1)]:
        assert validate_cyclic(betti_oracle(power(path_ideal(n), k)))


small_ideals = st.builds(
    lambda gens: make_ideal(3, gens),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ).filter(any),
        min_size=1,
        max_size=4,
    ),
)

multidegrees = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


def _unpack(fields, x) -> tuple:
    """The exponent tuple of a packed monomial (inverse of `_pack`)."""
    return tuple((x & field).bit_count() for field in fields)


def _variables(fields, x) -> int:
    """Bitmask of the variables whose field meets x."""
    return sum(1 << t for t, field in enumerate(fields) if x & field)


def _packed_key(fields, generators, a) -> tuple:
    """Reference strand key: a scan over every packed generator.

    g divides x^a iff `not g & ~a`.  In `a & ~(a >> 1)` the shift moves the
    lowest bit of field t + 1 onto the guard bit of field t, where a is 0,
    so what is left is the top bit of each run, one per t in supp(a), and a
    divisor g has that bit iff g_t = a_t > 0: `g & top` is its tight set.
    Tight sets are taken smallest first, so a set is minimal iff it
    contains none of the minimal sets found before it.
    """
    outside, top = ~a, a & ~(a >> 1)
    minimal = []
    for m in sorted({g & top for g in generators if not g & outside}, key=int.bit_count):
        for s in minimal:
            if s & m == s:
                break
        else:
            minimal.append(m)
    return _variables(fields, top), frozenset(_variables(fields, m) for m in minimal)


def _strand_bases(ideal, a):
    """Full-strand reference: per homological degree, every surviving sigma as a bitmask."""
    return _key_bases(ideal.num_vars, _strand_key(ideal, a))


def _key_bases(n, key):
    """Per homological degree, every subset of the support that meets every mask."""
    support, masks = key
    bases = [[] for _ in range(n + 1)]
    sigma = support
    while True:
        if all(sigma & m for m in masks):
            bases[sigma.bit_count()].append(sigma)
        if not sigma:
            return bases
        sigma = (sigma - 1) & support


def _assert_squares_to_zero(bases):
    """d_{i-1} d_i = 0 for the differential restricted to `bases`."""
    for i in range(2, len(bases)):
        if not bases[i] or not bases[i - 1] or not bases[i - 2]:
            continue
        d_i = _boundary_matrix(bases[i - 1], bases[i])
        d_prev = _boundary_matrix(bases[i - 2], bases[i - 1])
        rows, mid, cols = len(bases[i - 2]), len(bases[i - 1]), len(bases[i])
        for r in range(rows):
            for c in range(cols):
                assert sum(d_prev[r][m] * d_i[m][c] for m in range(mid)) == 0


def _euler(bases):
    return sum((-1) ** i * len(b) for i, b in enumerate(bases))


@given(small_ideals, multidegrees)
@settings(max_examples=80, deadline=None)
def test_boundary_squares_to_zero(ideal, a):
    _assert_squares_to_zero(_strand_bases(ideal, a))


@given(small_ideals, multidegrees)
@settings(max_examples=80, deadline=None)
def test_strand_euler_characteristic(ideal, a):
    homology = strand_homology(ideal, a)
    chi_homology = sum((-1) ** i * h for i, h in enumerate(homology))
    assert _euler(_strand_bases(ideal, a)) == chi_homology


def _unfiltered_oracle(ideal):
    """Reference diagram: strand homology summed over the whole lcm box."""
    totals = {}
    for a in product(*(range(c + 1) for c in ideal.exponent_lcm())):
        for i, h in enumerate(strand_homology(ideal, a)):
            if h:
                totals[(i, sum(a))] = totals.get((i, sum(a)), 0) + h
    return BettiDiagram(totals)


def test_filter_audit_agreement():
    rng = random.Random(7)
    for _ in range(10):
        gens = set()
        while len(gens) < rng.randint(1, 3):
            g = tuple(rng.randint(0, 2) for _ in range(3))
            if any(g):
                gens.add(g)
        ideal = make_ideal(3, gens)
        assert betti_oracle(ideal) == _unfiltered_oracle(ideal)


def test_oracle_has_no_degree_bound():
    # the oracle always returns the whole diagram: there is no truncation knob
    assert str(inspect.signature(betti_oracle)) == "(ideal: 'MonomialIdeal') -> 'BettiDiagram'"
    with pytest.raises(TypeError):
        betti_oracle(path_ideal(4), degree_bound=1)
    # nothing public in the module takes a bound or a group: each takes the
    # ideal (and strand_homology a lattice point), and the plan's diagram nothing
    public = {
        name: inspect.signature(f)
        for name, f in vars(koszul_oracle).items()
        if callable(f) and not name.startswith("_") and f.__module__ == koszul_oracle.__name__
    }
    assert set(public) == {
        "automorphisms", "betti_oracle", "edge_power_regularity", "oracle_plan", "strand_homology"}
    for name, signature in public.items():
        assert list(signature.parameters) == (
            ["ideal", "a"] if name == "strand_homology" else ["ideal"]), name
    ideal = power(path_ideal(4), 2)
    plan = oracle_plan(ideal)
    assert type(plan) is tuple and len(plan) == 4
    assert not inspect.signature(plan[3]).parameters
    assert plan[3]() == betti_oracle(ideal)


def _reference_strand_bases(ideal, a):
    """Per sigma: a - e_sigma >= 0 and x^(a - e_sigma) outside the ideal."""
    n = ideal.num_vars
    bases = []
    for i in range(n + 1):
        level = []
        for sigma in combinations(range(n), i):
            b = tuple(at - (t in sigma) for t, at in enumerate(a))
            if min(b) >= 0 and not ideal.contains(b):
                level.append(sigma)
        bases.append(level)
    return bases


@st.composite
def non_path_ideals(draw):
    """Ideals in 1-4 variables with up to five generators, exponents up to 3."""
    n = draw(st.integers(min_value=1, max_value=4))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    return make_ideal(n, draw(st.lists(exponents.filter(any), min_size=1, max_size=5)))


def _as_tuples(bases):
    """Bitmask bases as sorted lists of sorted variable tuples."""
    return [sorted(tuple(t for t in range(sigma.bit_length()) if sigma >> t & 1) for sigma in level)
            for level in bases]


@given(non_path_ideals())
@settings(max_examples=300, deadline=None)
def test_strand_bases_match_membership_reference(ideal):
    # every multidegree of the lcm box and one step past it
    for a in product(*(range(c + 2) for c in ideal.exponent_lcm())):
        assert _as_tuples(_strand_bases(ideal, a)) == _reference_strand_bases(ideal, a)


@given(non_path_ideals())
@settings(max_examples=60, deadline=None)
def test_oracle_matches_unfiltered_reference(ideal):
    assert betti_oracle(ideal) == _unfiltered_oracle(ideal)


def _reference_attained(ideal, a):
    """Box filter of the earlier oracle: each positive a_t equals g_t for a g dividing x^a."""
    dividing = [g for g in ideal.generators if all(gt <= at for gt, at in zip(g, a))]
    return all(any(g[t] == at for g in dividing) for t, at in enumerate(a) if at > 0)


def _reference_boundary(target, source):
    """Differential on sorted variable tuples, independent of the bitmask code."""
    index = {sigma: r for r, sigma in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for c, sigma in enumerate(source):
        for pos in range(len(sigma)):
            r = index.get(sigma[:pos] + sigma[pos + 1 :])
            if r is not None:
                rows[r][c] = -1 if pos % 2 else 1
    return rows


def _reference_homology(ideal, a):
    """Strand homology on the membership bases, independent of `_strand_key`."""
    return _tuple_homology(_reference_strand_bases(ideal, a))


def _tuple_homology(bases):
    """Homology of the full differential on bases of sorted variable tuples."""
    ranks = [0] + [
        _reference_rank(_reference_boundary(target, source)) if target and source else 0
        for target, source in zip(bases, bases[1:])
    ] + [0]
    return tuple(len(b) - ranks[i] - ranks[i + 1] for i, b in enumerate(bases))


def _decoded_lattice(ideal):
    """The packed lattice's points as exponent tuples."""
    fields = _fields(ideal.exponent_lcm())
    generators = [_pack(fields, g) for g in ideal.generators]
    return {_unpack(fields, x) for x in lcm_lattice(generators)}


@given(non_path_ideals())
@settings(max_examples=150, deadline=None)
def test_lcm_lattice_and_strand_key_match_references(ideal):
    box = list(product(*(range(c + 1) for c in ideal.exponent_lcm())))
    assert _decoded_lattice(ideal) == {a for a in box if _reference_attained(ideal, a)}
    # equal keys, equal homology (the premise of the oracle's per-key cache),
    # over the whole box so that keys also collide off the lattice
    homology_of_key = {}
    for a in box:
        homology = _reference_homology(ideal, a)
        assert homology_of_key.setdefault(_strand_key(ideal, a), homology) == homology


def _relabelled(ideal, seed):
    perm = list(range(ideal.num_vars))
    random.Random(seed).shuffle(perm)
    return make_ideal(ideal.num_vars, [tuple(g[perm[t]] for t in range(ideal.num_vars))
                                       for g in ideal.generators])


def _assert_cones_are_exact(ideal):
    """Every lattice point the oracle skips as a cone has zero reference homology."""
    fields = _fields(ideal.exponent_lcm())
    index = _divisor_index(fields, ideal.generators)
    cones = 0
    for x in lcm_lattice([_pack(fields, g) for g in ideal.generators]):
        if _is_cone(_indexed_key(index, x)):
            cones += 1
            assert not any(_reference_homology(ideal, _unpack(fields, x)))
    return cones


def _reference_strand_key(ideal, a):
    """`_packed_key` of a multidegree tuple: fields of width a_t + 1, dividing generators only."""
    fields = _fields(a)
    divisors = [_pack(fields, g) for g in ideal.generators if all(map(le, g, a))]
    return _packed_key(fields, divisors, _pack(fields, a))


def _assert_keys_match_reference(ideal):
    """On every lattice point, the indexed key equals the scan reference."""
    fields = _fields(ideal.exponent_lcm())
    generators = [_pack(fields, g) for g in ideal.generators]
    index = _divisor_index(fields, ideal.generators)
    lattice = lcm_lattice(generators)
    for x in lattice:
        key = _indexed_key(index, x)
        assert key == _packed_key(fields, generators, x)
        assert key == _strand_key(ideal, _unpack(fields, x))
    return len(lattice)


@given(non_path_ideals())
@settings(max_examples=300, deadline=None)
def test_indexed_key_matches_scan_reference(ideal):
    _assert_keys_match_reference(ideal)
    # off the lattice too, where strand_homology builds its index on a's own fields
    for a in product(*(range(c + 2) for c in ideal.exponent_lcm())):
        assert _strand_key(ideal, a) == _reference_strand_key(ideal, a)


def test_indexed_key_matches_scan_reference_on_named_ideals():
    # the 63 quadratic ideals in three variables, C4, the star K_{1,3},
    # and relabelled path(5)^2 and path(9)^2
    paths = [power(_relabelled(path_ideal(n), n), 2) for n in (5, 9)]
    for ideal in NON_PATH_IDEALS + paths:
        _assert_keys_match_reference(ideal)


def test_indexed_key_edge_cases():
    ideal = make_ideal(2, [(2, 0), (0, 1)])
    # a = 0: no divisors, so no tight sets
    assert _strand_key(ideal, (0, 0)) == (0, frozenset())
    # both generators divide x^a and neither is tight anywhere: the key {0}, a cone
    assert _strand_key(ideal, (3, 2)) == (0b11, frozenset({0}))
    assert _is_cone(_strand_key(ideal, (3, 2)))
    # in this order the descent starts at tight set {0, 1}, steps down to
    # {0}, then to the empty set, which is the only minimal one
    generators = [(2, 2, 0, 0), (2, 0, 1, 1), (1, 1, 1, 0)]
    a = (2, 2, 2, 2)
    fields = _fields(a)
    packed = [_pack(fields, g) for g in generators]
    key = _indexed_key(_divisor_index(fields, generators), _pack(fields, a))
    assert key == _packed_key(fields, packed, _pack(fields, a)) == (0b1111, frozenset({0}))
    # with the last generator dropped, {0} is the minimal set reached in one step
    key = _indexed_key(_divisor_index(fields, generators[:2]), _pack(fields, a))
    assert key == (0b1111, frozenset({0b1}))


def test_divisor_index_grows_with_the_generators_not_the_exponents():
    # x1^e, x2 with e = 10^6: fields of 10^6 + 1 bits, yet the index holds
    # entries only at 0, the field's bound and the generators' exponents
    e = 10**6
    ideal = make_ideal(2, [(e, 0), (0, 1)])
    index = _divisor_index(_fields(ideal.exponent_lcm()), ideal.generators)
    tables = [table for _, half in index for _, _, table in half]
    assert [len(table) for table in tables] == [2, 2]
    # the complete intersection of degrees e and 1
    assert dict(betti_oracle(ideal).items()) == {(0, 0): 1, (1, 1): 1, (1, e): 1, (2, e + 1): 1}


def test_divisor_index_entries_at_the_bound_and_the_exponents():
    # a generator above a field's bound is in no le_t; values between the
    # exponents have no entry
    generators = [(3, 0), (1, 2), (0, 5)]
    fields = _fields((4, 2))
    (_, low), (_, high) = _divisor_index(fields, generators)
    (_, _, x1), (_, _, x2) = low[0], high[0]
    assert x1 == {0: (0b100, 0), 0b1: (0b110, 0b010), 0b111: (0b111, 0b001), 0b1111: (0b111, 0)}
    assert x2 == {0: (0b001, 0), 0b11 << 5: (0b011, 0b010)}


@given(non_path_ideals())
@settings(max_examples=150, deadline=None)
def test_cone_keys_have_zero_reference_homology(ideal):
    _assert_cones_are_exact(ideal)


def test_cone_keys_on_named_ideals():
    # the 63 quadratic ideals in three variables, C4, the star K_{1,3},
    # and a relabelled path(5)^2
    ideals = NON_PATH_IDEALS + [power(_relabelled(path_ideal(5), 3), 2)]
    cones = [_assert_cones_are_exact(ideal) for ideal in ideals]
    assert cones[-1] > 0 and sum(cones) > len(ideals)


def _reference_critical_bases(n, key, apex):
    """Per homological degree, the critical cells of the apex matching, as bitmasks.

    sigma = rho | apex with rho in supp - apex is critical iff rho meets
    every mask without the apex (so sigma survives) and misses some mask
    with it (so sigma - apex does not).  The one cell of an empty support
    survives iff there are no masks.
    """
    support, masks = key
    bases = [[] for _ in range(n + 1)]
    if not support:
        if not masks:
            bases[0].append(0)
        return bases
    outer = [m for m in masks if not m & apex]
    inner = [m ^ apex for m in masks if m & apex]
    rest = support ^ apex
    rho = rest
    while True:
        if all(rho & m for m in outer) and not all(rho & m for m in inner):
            bases[rho.bit_count() + 1].append(rho | apex)
        if not rho:
            return bases
        rho = (rho - 1) & rest


def _unshape(support, sigma) -> int:
    """A cell of a key's shape on the key's variables: bit i to the i-th variable of `support`."""
    bits = [1 << t for t in range(support.bit_length()) if support >> t & 1]
    return sum(bit for i, bit in enumerate(bits) if sigma >> i & 1)


def _assert_cells_match_reference(n, key, apex):
    """The truth-table cells of the key's shape, at the apex's place in the support and
    relabelled back onto the key's variables, equal the submask walk's on the key, as a
    set in each degree.  The shape's degrees stop at |supp|; the cells are returned
    padded with empty degrees up to n."""
    support = key[0]
    shape_apex = 1 << (support & apex - 1).bit_count() if apex else 0
    cells = [[_unshape(support, sigma) for sigma in level]
             for level in _critical_bases(_shape(key), shape_apex)]
    assert len(cells) == support.bit_count() + 1
    cells += [[] for _ in range(n + 1 - len(cells))]
    reference = _reference_critical_bases(n, key, apex)
    assert len(cells) == len(reference) == n + 1
    for level, expected in zip(cells, reference):
        assert len(set(level)) == len(level)
        assert set(level) == set(expected)
    return cells


def _assert_matching_is_exact(ideal):
    """On the lcm box plus one step, every apex's critical cells give the reference homology.

    The cells themselves are checked against the submask walk.
    """
    n = ideal.num_vars
    for a in product(*(range(c + 2) for c in ideal.exponent_lcm())):
        expected = _reference_homology(ideal, a)
        assert strand_homology(ideal, a) == expected
        key = _strand_key(ideal, a)
        full = _strand_bases(ideal, a)
        for t in range(n):
            if not key[0] >> t & 1:
                continue
            critical = _assert_cells_match_reference(n, key, 1 << t)
            assert _homology(critical) == expected
            assert _euler(critical) == _euler(full)
            _assert_squares_to_zero(critical)


@given(non_path_ideals())
@settings(max_examples=200, deadline=None)
def test_critical_cells_match_reference_homology(ideal):
    _assert_matching_is_exact(ideal)


def test_critical_cells_on_named_ideals():
    for ideal in NON_PATH_IDEALS + [power(_relabelled(path_ideal(5), 3), 2)]:
        _assert_matching_is_exact(ideal)


def test_critical_cells_edge_cases():
    # an empty support keeps its one cell, the empty set, iff there are no masks
    assert _assert_cells_match_reference(3, (0, frozenset()), 0) == [[0], [], [], []]
    assert _assert_cells_match_reference(3, (0, frozenset({0})), 0) == [[], [], [], []]
    # the support is the apex alone: one table bit, for rho = {}
    assert _assert_cells_match_reference(2, (0b10, frozenset({0b10})), 0b10) == [[], [0b10], []]
    assert _assert_cells_match_reference(2, (0b10, frozenset({0})), 0b10) == [[], [], []]
    # a mask equal to {apex}: its inner mask is empty, met by no rho, so
    # every rho that meets the outer masks is critical
    cells = _assert_cells_match_reference(3, (0b111, frozenset({0b001, 0b110})), 0b001)
    assert [sorted(level) for level in cells] == [[], [], [0b011, 0b101], [0b111]]
    # no inner mask: the apex lies in no mask, a cone, and no cell is critical
    for key in [(0b111, frozenset({0b010, 0b100})), (0b111, frozenset()),
                (0b111, frozenset({0}))]:
        assert _is_cone(key)
        assert _assert_cells_match_reference(3, key, 0b001) == [[], [], [], []]


@given(st.integers(1, 63), st.lists(st.integers(0, 63), max_size=6), st.data())
@settings(max_examples=300, deadline=None)
def test_critical_cells_match_reference_on_arbitrary_masks(support, masks, data):
    # masks need not be minimal tight sets here: any subsets of the support
    apex = data.draw(st.sampled_from([1 << t for t in range(6) if support >> t & 1]))
    _assert_cells_match_reference(6, (support, frozenset(m & support for m in masks)), apex)


def _reference_apex(shape):
    """The variable in the fewest masks, lowest on ties, by a count per variable."""
    support, masks = shape
    bits = [1 << t for t in range(support.bit_length()) if support >> t & 1]
    return min(bits, key=lambda bit: sum(1 for m in masks if m & bit), default=0)


@given(st.integers(0, 63), st.lists(st.integers(0, 63), max_size=6))
@settings(max_examples=300, deadline=None)
def test_shape_relabels_in_order(support, masks):
    key = (support, frozenset(m & support for m in masks))
    shape = _shape(key)
    r = support.bit_count()
    assert shape[0] == (1 << r) - 1 and _shape(shape) == shape
    # bit i of the shape is the i-th variable of the support, so shape masks
    # map back onto the key's masks
    assert {_unshape(support, m) for m in shape[1]} == key[1]
    assert _apex(shape) == _reference_apex(shape)
    assert _is_cone(shape) == _is_cone(key)


@given(st.integers(1, 6), st.lists(st.integers(0, 63), max_size=6))
@settings(max_examples=300, deadline=None)
def test_shape_homology_matches_full_strand_on_arbitrary_masks(r, masks):
    # any masks, not only minimal tight sets: the surviving sets are an up-set either way
    key = ((1 << r) - 1, frozenset(m & ((1 << r) - 1) for m in masks))
    assert _key_homology(_shape(key)) == _tuple_homology(_as_tuples(_key_bases(r, key)))


def test_shape_examples():
    assert _shape((0b10110, frozenset({0b00110, 0b10100}))) == (0b111, frozenset({0b011, 0b110}))
    assert _shape((0b1000, frozenset({0b1000}))) == (0b1, frozenset({0b1}))
    assert _shape((0, frozenset())) == (0, frozenset())
    # in the fewest masks, lowest on ties
    assert _apex((0b111, frozenset({0b011, 0b110}))) == 0b001
    assert _apex((0b111, frozenset({0b011, 0b101}))) == 0b010
    assert _apex((0, frozenset())) == 0
    # critical cells {0, 1} and {1, 2, 3}, neither a face of the other: each
    # one-cell side has a zero boundary, so H_2 and H_3 are both 1
    key = (0b11110, frozenset({0b00110, 0b01010, 0b10010, 0b11100}))
    assert _critical_bases(_shape(key), _apex(_shape(key))) == [[], [], [0b0011], [0b1110], []]
    assert _key_homology(_shape(key)) == (0, 0, 1, 1, 0)
    assert _key_homology(_shape(key)) == _tuple_homology(_as_tuples(_key_bases(4, key)))


def _per_shape_columns(support):
    """The truth-table columns as built inside each shape's cell search."""
    full = (1 << (1 << support.bit_length() - 1)) - 1
    return full, [full // ((1 << 2 * h) - 1) * (((1 << h) - 1) << h)
                  for h in (1 << i for i in range(support.bit_length() - 1))]


def test_column_tables_once_per_support_size():
    # for r = 0..8 index bits, from an empty memo: a shape on r + 1 variables
    # builds one `_columns(r)` entry, equal to the per-shape construction,
    # with column i the idx whose bit i is set, and the next shape of that
    # size reads it again, not rebuilt
    _columns.cache_clear()
    for r in range(9):
        support = (1 << r + 1) - 1
        shapes = [(support, frozenset({support})), (support, frozenset({1, support & ~1}))]
        _critical_bases(shapes[0], _apex(shapes[0]))
        assert _columns.cache_info().misses == _columns.cache_info().currsize == r + 1
        entry = full, columns = _columns(r)
        assert (full, columns) == _per_shape_columns(support)
        assert full == (1 << (1 << r)) - 1
        assert columns == [sum(1 << idx for idx in range(1 << r) if idx >> i & 1)
                           for i in range(r)]
        _critical_bases(shapes[1], _apex(shapes[1]))
        assert _columns.cache_info().misses == r + 1 and _columns(r) is entry


def _assert_shapes_match_reference(ideal):
    """On every non-cone lattice point: its shape's homology equals the membership
    reference, and `strand_homology` there has n + 1 entries.  Keys of one shape
    have one homology.  Returns {shape: the supports of its keys}."""
    n = ideal.num_vars
    fields = _fields(ideal.exponent_lcm())
    index = _divisor_index(fields, ideal.generators)
    supports, homology = {}, {}
    for x in lcm_lattice([_pack(fields, g) for g in ideal.generators]):
        key = _indexed_key(index, x)
        if _is_cone(key):
            continue
        a = _unpack(fields, x)
        expected = _reference_homology(ideal, a)
        shape = _shape(key)
        dims = _key_homology(shape)
        assert len(dims) == key[0].bit_count() + 1
        assert dims + (0,) * (n + 1 - len(dims)) == expected
        assert strand_homology(ideal, a) == expected and len(expected) == n + 1
        assert homology.setdefault(shape, expected) == expected
        supports.setdefault(shape, set()).add(key[0])
    return supports


@given(non_path_ideals())
@settings(max_examples=100, deadline=None)
def test_shape_homology_matches_reference(ideal):
    _assert_shapes_match_reference(ideal)


def test_shapes_shared_across_supports():
    # path(6)^2, C4^2 and a relabelled C5^2: keys on different supports share a shape
    c4, c5 = (make_ideal(m, [tuple(int(t in (i, (i + 1) % m)) for t in range(m))
                             for i in range(m)]) for m in (4, 5))
    for ideal in (power(path_ideal(6), 2), power(c4, 2), power(_relabelled(c5, 5), 2)):
        supports = _assert_shapes_match_reference(ideal)
        assert any(len(s) > 1 for s in supports.values())


def test_critical_cells_on_path_10_squared():
    # supports reach all 10 variables, so the tables hold up to 2^9 bits
    ideal = power(_relabelled(path_ideal(10), 10), 2)
    fields = _fields(ideal.exponent_lcm())
    index = _divisor_index(fields, ideal.generators)
    keys = {_indexed_key(index, x)
            for x in lcm_lattice([_pack(fields, g) for g in ideal.generators])}
    non_cones = [key for key in keys if not _is_cone(key)]
    assert max(key[0].bit_count() for key in non_cones) == 10
    for key in non_cones:
        shape = _shape(key)
        _assert_cells_match_reference(10, shape, _apex(shape))


@pytest.mark.parametrize("n, k", [(6, 5), (6, 8), (7, 4), (8, 3), (9, 2), (10, 2)])
def test_oracle_reaches_path_powers(n, k):
    ideal = power(_relabelled(path_ideal(n), n), k)
    assert ideal != power(path_ideal(n), k)
    assert betti_oracle(ideal) == path_diagram(n, k)


def test_oracle_reach_on_uneven_exponents():
    # <x4^3, x2^2 x3, x1 x3^2, x1^2 x3>^10: the exponent lcm is (20, 20, 20, 30),
    # so the index's per-variable tables differ in length
    ideal = make_ideal(4, [(0, 0, 0, 3), (0, 2, 1, 0), (1, 0, 2, 0), (2, 0, 1, 0)])
    relabelled = [power(_relabelled(ideal, seed), 10) for seed in (1, 2)]
    assert relabelled[0].exponent_lcm() != relabelled[1].exponent_lcm()
    diagrams = [betti_oracle(power_ideal) for power_ideal in relabelled]
    assert diagrams[0] == diagrams[1]
    assert validate_cyclic(diagrams[0])
