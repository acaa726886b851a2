"""The package's records keep the contract of frozen dataclasses.

Each record class derives from `bettistab.values.Value`.  These checks run
over all ten of them, with a frozen dataclass of the same name and fields as
the reference for the repr and the refused keyword calls.
"""

import dataclasses

import pytest

import bettistab
from bettistab import (
    CombinatorialSignature,
    Decomposition,
    DecompositionPolytope,
    InputError,
    MonomialIdeal,
    RationalFunctionFit,
    ReferenceVertexFamily,
    StabilityReport,
    TranslationTemplate,
    build_polytope,
    candidate_degree_sequences,
    path_diagram,
)
from bettistab.stability import PerPowerRecord, TrajectoryFit
from bettistab.values import Value

FIELDS = {
    Decomposition: ("terms",),
    DecompositionPolytope: ("candidates", "rows", "rays"),
    TranslationTemplate: ("positions", "k_min"),
    RationalFunctionFit: ("numerator", "denominator"),
    MonomialIdeal: ("num_vars", "generators"),
    CombinatorialSignature: ("vertex_count", "dimension", "zero_patterns"),
    PerPowerRecord: ("k", "diagram", "polytope", "signature"),
    TrajectoryFit: ("vertex", "coordinate", "fit"),
    StabilityReport: (
        "ideal", "k_min", "k_max", "use_formula", "records", "k0", "window", "templates",
        "vertex_labels", "vertex_values", "trajectories", "column_sum_fits", "verdict",
    ),
    ReferenceVertexFamily: (
        "min_k", "template_labels", "templates", "vertex_labels", "zero_patterns",
        "coordinate_formulas",
    ),
}
CLASSES = list(FIELDS)


def _values(cls) -> tuple:
    """Field values the class accepts; hashable, and distinct per field."""
    if cls is MonomialIdeal:
        return 2, ((0, 1), (1, 0))
    return tuple((name, index) for index, name in enumerate(FIELDS[cls]))


def _dataclass_twin(cls):
    """A frozen dataclass of the same name and fields."""
    return dataclasses.make_dataclass(cls.__name__, FIELDS[cls], frozen=True)


def _value_twin(cls):
    """Another Value class of the same name and fields."""
    return type(cls.__name__, (Value,), {"__annotations__": dict.fromkeys(FIELDS[cls], "object")})


def test_every_record_class_is_a_value():
    records = {
        value for module in vars(bettistab).values() if isinstance(module, type(bettistab))
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Value) and value is not Value
    }
    assert records == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_the_annotations_in_order(cls):
    assert cls._fields == FIELDS[cls]
    assert tuple(cls.__annotations__) == FIELDS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_position_and_keyword_build_equal_records(cls):
    values = _values(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    mixed = cls(values[0], **dict(zip(FIELDS[cls][1:], values[1:])))
    assert by_position == by_keyword == mixed
    assert hash(by_position) == hash(by_keyword) == hash(mixed)
    assert [getattr(by_keyword, name) for name in FIELDS[cls]] == list(values)
    assert by_position != by_position.replace(**{FIELDS[cls][-1]: ((0, 2), (1, 0))})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_only_the_same_class_compares_equal(cls):
    record = cls(*_values(cls))
    other = _value_twin(cls)(*_values(cls))
    assert record.__eq__(other) is NotImplemented
    assert record != other and other != record
    assert record != _values(cls) and record != _dataclass_twin(cls)(*_values(cls))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_repr(cls):
    values = _values(cls)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})" == repr(_dataclass_twin(cls)(*values))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment_and_deletion(cls):
    record = cls(*_values(cls))
    for name in (FIELDS[cls][0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*_values(cls))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_unknown_missing_and_repeated_arguments_raise_type_error(cls):
    values = _values(cls)
    first, *rest = FIELDS[cls]
    calls = [
        ((*values, "extra"), {}),  # one positional argument too many
        (values, {"unknown": 1}),
        (values[:-1], {"unknown": 1}),
        (values, {first: values[0]}),  # repeated
        ((), dict(zip(rest, values[1:]))),  # the first field missing
    ]
    for args, kwargs in calls:
        for made in (cls, _dataclass_twin(cls)):
            with pytest.raises(TypeError):
                made(*args, **kwargs)


def test_a_default_fills_a_missing_field():
    polytope = DecompositionPolytope(candidates=((0, 1),), rows=((1, -1),))
    assert polytope.rays is None
    assert polytope == DecompositionPolytope(((0, 1),), ((1, -1),), None)


def test_replace_builds_through_the_constructor():
    ideal = MonomialIdeal(2, ((0, 1), (1, 0)))
    assert ideal.replace() == ideal
    assert ideal.replace(generators=((0, 2), (1, 0))) == MonomialIdeal(2, ((0, 2), (1, 0)))
    with pytest.raises(InputError):
        ideal.replace(generators=((1, 0), (0, 1)))  # not sorted
    with pytest.raises(TypeError):
        ideal.replace(unknown=1)


def test_a_read_view_stays_out_of_equality_hash_and_repr():
    diagram = path_diagram(6, 4)
    read = build_polytope(diagram, candidate_degree_sequences(diagram))
    unread = build_polytope(diagram, candidate_degree_sequences(diagram))
    assert read.rank == 8
    assert "rank" in vars(read) and "rank" not in vars(unread)
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    assert read.replace(rays=()).rays == () and "rank" not in vars(read.replace(rays=()))
