"""Immutable value classes, set up without generated code.

`Value` is the base of the package's records (`MonomialIdeal`,
`DecompositionPolytope`, `StabilityReport`, ...).  A subclass declares its
fields as class annotations, in order; a class-level value is the field's
default.  The methods below serve every subclass as they are, so defining a
record runs no `exec`, and importing the package does not import
`dataclasses`.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    """A record of named fields: immutable, compared and hashed by its fields.

    - The constructor takes the fields by position or keyword; an unknown,
      missing or repeated argument raises TypeError.  It then runs
      `__post_init__`, which a subclass overrides to validate.
    - Two records are equal only when they are of the same class and their
      fields are equal; the hash is that of the fields.
    - Assigning or deleting an attribute raises AttributeError.
    - Records keep a `__dict__`, so a `functools.cached_property` of a
      subclass works; its cached value stays out of equality, hash and repr.
    """

    _fields = ()  # the field names, in declaration order
    _defaults = {}  # field name -> default, for the fields that have one

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._key = attrgetter(*cls._fields)  # the field values; a tuple when there are two or more

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one attribute store per field, not a __dict__ update: that would
        # make the instance dict a plain dict, and every field read slower
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values, in order, of a call with keywords or with other
        than one positional argument per field; takes what it uses out of
        `kwargs`, the constructor's own dict."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args) :]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        for field in kwargs:  # each one is given by position too, or is no field
            if field in fields:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
        return values

    def __post_init__(self):
        """Check the fields once they are set; a subclass overrides this."""

    def replace(self, **changes):
        """A copy with the named fields changed, built by the constructor, so
        that `__post_init__` checks it again."""
        values = [changes.pop(name) if name in changes else getattr(self, name) for name in self._fields]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {min(changes)!r}")
        return type(self)(*values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
