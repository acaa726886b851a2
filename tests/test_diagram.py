from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bettistab.diagram import (
    BettiDiagram,
    TranslationTemplate,
    column_sums,
    pure_diagram,
    render_table,
    validate_cyclic,
)
from bettistab.errors import InputError
from bettistab.exact_arith import primitive, solve_exact
from bettistab.path_formula import path_diagram
from table_reference import parse_table


def test_pure_koszul_two_variables():
    assert pure_diagram((0, 1, 2)) == (1, 2, 1)


def test_pure_023():
    values = pure_diagram((0, 2, 3))
    assert type(values) is tuple and values == (1, 3, 2)
    assert all(type(v) is Fraction for v in values)


def test_pure_0234():
    assert pure_diagram((0, 2, 3, 4)) == (1, 6, 8, 3)
    assert 1 - 6 + 8 - 3 == 0
    assert 0 - 6 * 2 + 8 * 3 - 3 * 4 == 0


def test_pure_rejects_bad_sequence():
    with pytest.raises(InputError):
        pure_diagram((0, 2, 2))
    with pytest.raises(InputError):
        pure_diagram(())
    with pytest.raises(InputError):
        pure_diagram((0, 2.5, 4))
    with pytest.raises(InputError):
        pure_diagram((0, True, 2))


def _power_sum_solution(degrees):
    # independent route: solve the alternating power-sum identities directly
    s = len(degrees) - 1
    rows = [[Fraction(1)] + [Fraction(0)] * s]  # beta_0 = 1
    for t in range(s):
        rows.append([Fraction((-1) ** i) * Fraction(d) ** t for i, d in enumerate(degrees)])
    rhs = [Fraction(1)] + [Fraction(0)] * s
    solution, nullspace = solve_exact(rows, rhs)
    assert solution is not None and not nullspace
    return tuple(solution)


increasing_sequences = st.lists(
    st.integers(min_value=0, max_value=40), min_size=2, max_size=8, unique=True
).map(lambda xs: tuple(sorted(xs)))


@given(increasing_sequences)
@settings(max_examples=150, deadline=None)
def test_pure_matches_power_sum_solve(degrees):
    values = pure_diagram(degrees)
    assert all(v > 0 for v in values)
    assert values[0] == 1
    assert values == _power_sum_solution(degrees)


def test_integral_rescaling():
    values = pure_diagram((0, 1, 3))
    assert values == (1, Fraction(3, 2), Fraction(1, 2))
    assert primitive(values) == (2, 3, 1)


def test_instantiate_examples():
    pi1 = TranslationTemplate(((0, 0), (2, 0), (2, 1), (2, 2)), 1)
    assert pi1.instantiate(4) == (0, 8, 9, 10)
    pi8 = TranslationTemplate(((0, 0), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)), 1)
    assert pi8.instantiate(4) == (0, 8, 9, 10, 11, 12)
    constant = TranslationTemplate(((0, 0), (0, 2), (0, 3)), 1)
    assert constant.instantiate(7) == (0, 2, 3)


def test_instantiate_errors():
    template = TranslationTemplate(((0, 0), (2, 0)), 2)
    with pytest.raises(InputError):
        template.instantiate(1)
    for k in (True, 2.0):  # k itself must be an int
        with pytest.raises(InputError, match="k must be an integer"):
            template.instantiate(k)
    degenerate = TranslationTemplate(((0, 0), (0, 0)), 1)
    with pytest.raises(InputError):
        degenerate.instantiate(3)


@given(increasing_sequences, st.integers(min_value=1, max_value=9))
def test_constant_template_commutes_with_pure(degrees, k):
    template = TranslationTemplate(tuple((0, d) for d in degrees), 1)
    assert pure_diagram(template.instantiate(k)) == pure_diagram(degrees)


def test_column_sums_pure():
    degrees = (0, 2, 3)
    pure = BettiDiagram(
        {(i, d): v for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees)))}
    )
    assert column_sums(pure) == (1, 3, 2)


def test_column_sums_path_six_power_one():
    # cross-checked against the strand-homology oracle (see acceptance suite)
    assert column_sums(path_diagram(6, 1)) == (1, 5, 7, 4, 1)


def test_column_sums_empty():
    assert column_sums(BettiDiagram({})) == ()


def test_validate_cyclic():
    good = path_diagram(4, 1)
    assert validate_cyclic(good)
    extra = BettiDiagram(list(good.items()) + [((0, 1), 1)])
    assert not validate_cyclic(extra)
    scaled = BettiDiagram({(0, 0): 2})
    assert not validate_cyclic(scaled)
    assert not validate_cyclic(BettiDiagram({}))


def test_diagram_rejects_bad_entries():
    with pytest.raises(InputError):
        BettiDiagram({(0, 0): -1})
    with pytest.raises(InputError):
        BettiDiagram({(-1, 0): 1})
    with pytest.raises(InputError):
        BettiDiagram([((0, 0), 1), ((0, 0), 2)])
    with pytest.raises(InputError):
        BettiDiagram({(0, 0): True})


def test_diagram_rejects_float_entries():
    # Fraction(0.1) would store the binary expansion 3602879701896397/2**55
    with pytest.raises(InputError):
        BettiDiagram({(0, 0): 1, (1, 2): 0.1})
    # a JSON float is not its decimal: str(0.30000000000000001) reads as 3/10
    for value in (0.1, 0.30000000000000001, 2.0, True):
        with pytest.raises(InputError):
            BettiDiagram.from_json_dict({"entries": [[0, 0, 1], [1, 2, value]]})
    data = {"entries": [[0, 0, 1], [1, 2, 3], [2, 3, "1/2"]]}
    expected = BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): Fraction(1, 2)})
    assert BettiDiagram.from_json_dict(data) == expected


@pytest.mark.parametrize("i, j", [(1.5, 2.2), (1, 2.0), (True, 2), ("1", 2)])
def test_diagram_rejects_non_integer_indices(i, j):
    # int() would truncate these silently: [1.5, 2.2, "1"] -> entry (1, 2)
    with pytest.raises(InputError):
        BettiDiagram.from_json_dict({"entries": [[0, 0, "1"], [i, j, "1"]]})
    with pytest.raises(InputError):
        BettiDiagram({(0, 0): 1, (i, j): 1})


def test_diagram_drops_zeros():
    diagram = BettiDiagram({(0, 0): 1, (1, 2): 0})
    assert diagram.support() == ((0, 0),)


def test_json_round_trip():
    diagram = path_diagram(6, 3)
    data = diagram.to_json_dict()
    assert data["entries"] == sorted(data["entries"])
    assert BettiDiagram.from_json_dict(data) == diagram


def test_render_parse_round_trip_examples():
    for diagram in (path_diagram(6, 2), path_diagram(5, 1), BettiDiagram({})):
        assert parse_table(render_table(diagram)) == diagram


def test_render_elides_rows():
    text = render_table(path_diagram(6, 3))
    assert "⋮" in text
    # display row = j - i: the top strand of k=3 sits in row 5
    assert any(line.strip().startswith("5 |") for line in text.splitlines())


diagram_entries = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=12)),
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    min_size=1,
    max_size=8,
)


@given(diagram_entries)
@settings(max_examples=80, deadline=None)
def test_render_parse_round_trip_random(entries):
    diagram = BettiDiagram(entries)
    assert parse_table(render_table(diagram)) == diagram
