import pytest
from hypothesis import given, settings, strategies as st

from bettistab.errors import InputError
from bettistab.monomial_ideal import (
    MonomialIdeal,
    _minimalize,
    is_equigenerated,
    make_ideal,
    monomial_divides,
    parse_ideal,
    power,
)
from bettistab.path_formula import path_ideal


def test_parse_basic():
    ideal = parse_ideal("x1*x2, x2*x3")
    assert ideal.num_vars == 3
    assert ideal.generators == ((0, 1, 1), (1, 1, 0))


def test_parse_minimalizes():
    ideal = parse_ideal("x1^2, x1*x2, x1^3")
    assert ideal.generators == ((1, 1), (2, 0))


def test_parse_path_family():
    assert parse_ideal("x1*x2, x2*x3, x3*x4, x4*x5, x5*x6") == path_ideal(6)


def test_parse_counts_variables_up_to_the_highest_index():
    # x2 is unused: the count is the highest index, not the number of distinct indices
    ideal = parse_ideal("x1*x3")
    assert ideal.num_vars == 3
    assert ideal.generators == ((1, 0, 1),)
    assert parse_ideal("x4^2*x2, x2^3").generators == ((0, 1, 0, 2), (0, 3, 0, 0))
    assert parse_ideal("x5").num_vars == 5


def test_parse_caps_the_variable_index():
    # the variable count comes from the text, so it is capped: "x100000000" would
    # otherwise ask for 10^8 exponents per generator
    ideal = parse_ideal("x1*x1000")
    assert ideal.num_vars == 1000
    assert ideal.generators == ((1,) + (0,) * 998 + (1,),)
    for text, token in (("x1*x1001", "x1001"), ("x2, x100000000", "x100000000")):
        with pytest.raises(InputError) as info:
            parse_ideal(text)
        assert str(info.value) == f"variable index above 1000 in {token!r}"


def test_parse_rejects_overlong_digit_runs_before_converting():
    # int() refuses a decimal string of more than 4300 digits with a
    # ValueError, so the runs are measured first: an index of 10^5000 and an
    # exponent of 4500 digits are InputErrors, as is a run padded by zeros
    message = "digit run longer than 100 characters in a token"
    for text in ("x1" + "0" * 5000, "x1^" + "9" * 4500, "x2, x" + "0" * 100 + "1"):
        with pytest.raises(InputError) as info:
            parse_ideal(text)
        assert str(info.value) == message
    assert parse_ideal("x" + "0" * 99 + "1") == parse_ideal("x1")
    assert parse_ideal("x1^" + "9" * 100).generators == ((10**100 - 1,),)


def test_parse_errors():
    # each check keeps its own message
    for text, message in [
        ("", "empty generator list"),
        ("x1, , x2", "empty generator in list"),
        ("x1*y2", "malformed token: 'y2'"),
        ("7", "malformed token: '7'"),
        ("x0*x1", "variable index must be positive in 'x0'"),
        ("x1^0", "exponent must be positive in 'x1^0'"),
    ]:
        with pytest.raises(InputError) as info:
            parse_ideal(text)
        assert str(info.value) == message


def test_power_of_two_generator_path():
    squared = power(parse_ideal("x1*x2, x2*x3"), 2)
    assert squared.generators == ((0, 2, 2), (1, 2, 1), (2, 2, 0))


def test_power_identity():
    ideal = path_ideal(5)
    assert power(ideal, 1) is ideal


def test_power_p4_squared():
    squared = power(path_ideal(4), 2)
    expected = {
        (2, 2, 0, 0),
        (1, 2, 1, 0),
        (1, 1, 1, 1),
        (0, 2, 2, 0),
        (0, 1, 2, 1),
        (0, 0, 2, 2),
    }
    assert set(squared.generators) == expected
    assert len(squared.generators) == 6


def test_power_rejects_zero():
    with pytest.raises(InputError):
        power(path_ideal(3), 0)
    # True would return the ideal itself and 2.0 fail inside itertools
    for k in (True, 2.0):
        with pytest.raises(InputError):
            power(path_ideal(3), k)


def test_is_equigenerated():
    assert is_equigenerated(path_ideal(6)) == (True, 2)
    assert is_equigenerated(make_ideal(2, [(1, 0), (0, 2)])) == (False, None)
    assert is_equigenerated(make_ideal(2, [(2, 2)])) == (True, 4)


def test_invalid_ideals():
    with pytest.raises(InputError):
        make_ideal(2, [])
    with pytest.raises(InputError):
        make_ideal(2, [(0, 0)])
    with pytest.raises(InputError):
        make_ideal(2, [(1, 0, 0)])
    with pytest.raises(InputError):
        MonomialIdeal(2, ((1, 1), (1, 0)))  # not minimal/sorted


# (num_vars, generators as given, the constructor's message, what make_ideal
# raises (None: it builds the canonical ideal), a text form with the message
# parse_ideal gives it, or None where the text syntax cannot write the list)
INVALID_GENERATOR_LISTS = [
    (0, ((),), "num_vars must be positive", "num_vars must be positive", None),
    (2.0, ((1, 0),), "num_vars must be an integer, got 2.0",
     "num_vars must be an integer, got 2.0", None),
    (2, (), "ideal needs at least one generator", "ideal needs at least one generator",
     ("", "empty generator list")),
    (2, ((1, 0, 0),), "generator length does not match num_vars",
     "generator length does not match num_vars", None),
    (2, ((0, 1), (1,)), "generator length does not match num_vars",
     "generator length does not match num_vars", None),
    (2, ((1.5, 1),), "exponent must be an integer, got 1.5", "exponent must be an integer, got 1.5",
     ("x1^1.5*x2", "malformed token: 'x1^1.5'")),
    (2, ((0, 1), (True, 1)), "exponent must be an integer, got True",
     "exponent must be an integer, got True", None),
    (2, ((1, "1"),), "exponent must be an integer, got '1'", "exponent must be an integer, got '1'",
     None),
    (2, ((-1, 1),), "negative exponent in generator", "negative exponent in generator",
     ("x1^-1*x2", "malformed token: 'x1^-1'")),
    (2, ((0, 2), (1, -1)), "negative exponent in generator", "negative exponent in generator",
     None),
    (2, ((0, 0),), "unit generator makes the quotient zero",
     "unit generator makes the quotient zero", ("x1^0", "exponent must be positive in 'x1^0'")),
    (2, ((0, 0), (1, 0)), "unit generator makes the quotient zero",
     "unit generator makes the quotient zero", None),
    (2, ((1, 0), (0, 1)), "generators are not a sorted minimal generating set", None, None),
    (2, ((1, 0), (1, 0)), "generators are not a sorted minimal generating set", None, None),
    (2, ((1, 0), (1, 1)), "generators are not a sorted minimal generating set", None, None),
]


@pytest.mark.parametrize("num_vars, gens, message, made, text", INVALID_GENERATOR_LISTS)
def test_invalid_generator_lists_raise_at_every_entry(num_vars, gens, message, made, text):
    with pytest.raises(InputError) as info:
        MonomialIdeal(num_vars, gens)
    assert str(info.value) == message
    if made is None:  # make_ideal sorts and minimalizes what the constructor refuses
        assert make_ideal(num_vars, gens) == MonomialIdeal(num_vars, _minimalize(gens))
    else:
        with pytest.raises(InputError) as info:
            make_ideal(num_vars, gens)
        assert str(info.value) == made
    if text is not None:
        with pytest.raises(InputError) as info:
            parse_ideal(text[0])
        assert str(info.value) == text[1]


@pytest.mark.parametrize("gens, message", [
    ([(0, 1), (1, 0)], "generators must be a tuple of tuples"),  # a list
    (([0, 1], [1, 0]), "generators must be a tuple of tuples"),  # unhashable generators
    (((0, 1), [1, 0]), "generators must be a tuple of tuples"),
    (((1, 0), (0, 1)), "generators are not a sorted minimal generating set"),  # unsorted
    (((0, 1), (1, 0), (1, 0)), "generators are not a sorted minimal generating set"),  # duplicate
    (((0, 1), (2, 0), (2, 1)), "generators are not a sorted minimal generating set"),  # (0, 1) | (2, 1)
    (((0, 2), (1, 0), (1, 1)), "generators are not a sorted minimal generating set"),  # (1, 0) | (1, 1)
])
def test_constructor_refuses_non_canonical_generators(gens, message):
    with pytest.raises(InputError) as info:
        MonomialIdeal(2, gens)
    assert str(info.value) == message


def test_json_round_trip():
    ideal = power(path_ideal(4), 2)
    assert MonomialIdeal.from_json_dict(ideal.to_json_dict()) == ideal


@pytest.mark.parametrize(
    "num_vars, gens",
    [
        (2, [(1.7, 1)]),
        (2.9, [(1, 1)]),
        (2, [(True, 1)]),
        (2, [("1", 1)]),
        (2, [(1.5, 0)]),
        (2.0, [(1, 0)]),
        (2, [(1, 0), (1.5, 1)]),  # (1, 0) divides it: minimalization would drop it
    ],
)
def test_make_ideal_rejects_non_integers(num_vars, gens):
    # int() would truncate these silently: 1.7 -> 1, 2.9 -> 2, True -> 1
    with pytest.raises(InputError):
        make_ideal(num_vars, gens)
    with pytest.raises(InputError):
        MonomialIdeal.from_json_dict({"num_vars": num_vars, "generators": gens})
    with pytest.raises(InputError):
        MonomialIdeal(num_vars, tuple(map(tuple, gens)))


small_ideals = st.builds(
    lambda nv, gens: make_ideal(nv, [g[:nv] for g in gens]),
    st.integers(min_value=2, max_value=4),
    st.lists(
        st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(4))).filter(
            lambda g: any(g)
        ),
        min_size=1,
        max_size=4,
    ).filter(lambda gens: all(any(g[:2]) for g in gens)),
)


@given(small_ideals)
@settings(max_examples=60, deadline=None)
def test_minimalization_canonical(ideal):
    rebuilt = make_ideal(ideal.num_vars, list(ideal.generators) + [ideal.generators[0]])
    assert rebuilt == ideal
    gens = ideal.generators
    assert list(gens) == sorted(gens)
    for g in gens:
        assert not any(h != g and monomial_divides(h, g) for h in gens)


@given(small_ideals, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
@settings(max_examples=30, deadline=None)
def test_power_additivity_by_divisibility(ideal, a, b):
    pa, pb, pab = power(ideal, a), power(ideal, b), power(ideal, a + b)
    for g in pab.generators:
        assert any(
            monomial_divides(tuple(x + y for x, y in zip(g1, g2)), g)
            for g1 in pa.generators
            for g2 in pb.generators
        )


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3))
def test_equigenerated_power_degree(n, k):
    ideal = path_ideal(n)
    ok, degree = is_equigenerated(power(ideal, k))
    assert ok and degree == 2 * k


def _reference_minimalize(gens):
    """Brute force: each distinct monomial that no other one divides, sorted."""
    unique = sorted(set(gens))
    return tuple(g for g in unique if not any(h != g and monomial_divides(h, g) for h in unique))


@st.composite
def monomial_lists(draw):
    """Monomials of mixed degree in 1-4 variables, every other one repeated."""
    n = draw(st.integers(min_value=1, max_value=4))
    gens = draw(st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * n), max_size=12))
    return gens + gens[::2]


@given(monomial_lists())
@settings(max_examples=300, deadline=None)
def test_minimalize_matches_brute_force(gens):
    minimal = _minimalize(gens)
    assert minimal == _reference_minimalize(gens)
    assert all(any(monomial_divides(h, g) for h in minimal) for g in gens)


@given(monomial_lists())
@settings(max_examples=300, deadline=None)
def test_constructor_accepts_exactly_the_minimalized_generators(gens):
    # the sorted walk accepts a tuple of monomials iff minimalizing leaves it
    # as it is: as drawn (duplicates included), sorted without duplicates,
    # minimal but reversed, and minimalized
    gens = [g for g in gens if any(g)]
    if not gens:
        return
    minimal = _minimalize(gens)
    for candidate in (tuple(gens), tuple(sorted(set(gens))), minimal[::-1], minimal):
        try:
            MonomialIdeal(len(gens[0]), candidate)
        except InputError as exc:
            assert str(exc) == "generators are not a sorted minimal generating set"
            assert candidate != minimal
        else:
            assert candidate == minimal
