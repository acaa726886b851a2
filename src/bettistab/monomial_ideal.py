"""Monomial ideals: parsing, minimal generators, and powers.

A monomial is an exponent tuple of length `num_vars`; an ideal stores its
minimal generating set, sorted lexicographically, so equal ideals compare
equal.  Text syntax for generators: comma-separated products such as
"x1*x2" or "x1^2*x3" (variables are 1-indexed).  A text ideal has as many
variables as its highest index, so "x1*x3" is an ideal in three variables
that does not use x2.
"""

from __future__ import annotations

import re
from itertools import chain, combinations_with_replacement, islice
from operator import lt

from .errors import InputError, excerpt
from .exact_arith import require_int
from .values import Value

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_MAX_INDEX = 1000  # caps the exponent table a text ideal can ask for
_MAX_DIGITS = 100  # longer digit runs are rejected before int() converts them


def monomial_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimalize(gens):
    """Keep only generators minimal under divisibility, deduplicated.

    A proper divisor has a strictly smaller total degree, so taken by degree,
    g is tested only against the first `lower` kept generators, those of
    lower degree: an equigenerated set makes no divisibility test at all.
    """
    out, lower, degree = [], 0, None
    for g in sorted(set(gens), key=sum):
        if sum(g) != degree:
            degree, lower = sum(g), len(out)
        if not any(monomial_divides(h, g) for h in islice(out, lower)):
            out.append(g)
    return tuple(sorted(out))


class MonomialIdeal(Value):
    num_vars: int
    generators: tuple

    def __post_init__(self):
        if require_int(self.num_vars, "num_vars") < 1:
            raise InputError("num_vars must be positive")
        gens = self.generators
        if not gens:
            raise InputError("ideal needs at least one generator")
        if type(gens) is not tuple or set(map(type, gens)) != {tuple}:
            raise InputError("generators must be a tuple of tuples")
        if set(map(len, gens)) != {self.num_vars}:
            raise InputError("generator length does not match num_vars")
        if set(map(type, chain.from_iterable(gens))) != {int}:  # bools too are refused
            for e in chain.from_iterable(gens):
                require_int(e, "exponent")
        if min(map(min, gens)) < 0:
            raise InputError("negative exponent in generator")
        if not all(map(any, gens)):
            raise InputError("unit generator makes the quotient zero")
        degrees = list(map(sum, gens))
        low = min(degrees)
        # a proper divisor of g is at most g in every coordinate, so it sorts before g
        # and has a lower degree: an equigenerated set needs no divisibility test
        if not all(map(lt, gens, gens[1:])) or max(degrees) > low and any(
                monomial_divides(h, g) for j, (g, d) in enumerate(zip(gens, degrees)) if d > low
                for h, e in zip(gens[:j], degrees) if e < d):
            raise InputError("generators are not a sorted minimal generating set")

    def contains(self, monomial) -> bool:
        """Membership test for a monomial, i.e. some generator divides it."""
        return any(monomial_divides(g, monomial) for g in self.generators)

    def exponent_lcm(self) -> tuple:
        """Componentwise maximum of the generators (the lcm exponent vector)."""
        return tuple(max(g[t] for g in self.generators) for t in range(self.num_vars))

    def to_json_dict(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "generators": [list(g) for g in self.generators],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MonomialIdeal":
        try:
            return make_ideal(data["num_vars"], data["generators"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed ideal JSON: {exc}") from exc


def make_ideal(num_vars: int, generators) -> MonomialIdeal:
    """Build an ideal from arbitrary generators, minimalizing and sorting."""
    # Checked here too: _minimalize may drop a generator before the constructor sees it.
    gens = [tuple(require_int(e, "exponent") for e in g) for g in generators]
    for g in gens:
        if len(g) != num_vars:
            raise InputError("generator length does not match num_vars")
    return MonomialIdeal(num_vars, _minimalize(gens))


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the comma-separated generator syntax into a canonical ideal
    whose variable count is the highest index in the text, at most 1000."""
    chunks = [c.strip() for c in text.split(",")]
    if chunks == [""]:
        raise InputError("empty generator list")
    gens = []  # per generator: index -> exponent
    for chunk in chunks:
        if not chunk:
            raise InputError("empty generator in list")
        exps = {}
        for token in chunk.split("*"):
            m = _FACTOR_RE.match(token.strip())
            if not m:
                raise InputError(f"malformed token: {excerpt(token.strip())}")
            if max(len(m.group(1)), len(m.group(2) or "")) > _MAX_DIGITS:
                raise InputError(f"digit run longer than {_MAX_DIGITS} characters in a token")
            idx = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            if idx < 1:
                raise InputError(f"variable index must be positive in {token.strip()!r}")
            if idx > _MAX_INDEX:
                raise InputError(f"variable index above {_MAX_INDEX} in {token.strip()!r}")
            if exp < 1:
                raise InputError(f"exponent must be positive in {token.strip()!r}")
            exps[idx] = exps.get(idx, 0) + exp
        gens.append(exps)
    num_vars = max(map(max, gens))
    return make_ideal(num_vars, [[e.get(t, 0) for t in range(1, num_vars + 1)] for e in gens])


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th power: minimalized k-fold products of the generators."""
    if require_int(k, "power exponent") < 1:
        raise InputError("power exponent must be >= 1")
    if k == 1:
        return ideal
    combos = combinations_with_replacement(ideal.generators, k)
    # sums of checked ints: the constructor's own checks are the only pass needed
    return MonomialIdeal(ideal.num_vars, _minimalize({tuple(map(sum, zip(*c))) for c in combos}))


def is_equigenerated(ideal: MonomialIdeal):
    """(True, d) when every generator has total degree d, else (False, None)."""
    degrees = {sum(g) for g in ideal.generators}
    if len(degrees) == 1:
        return True, degrees.pop()
    return False, None
