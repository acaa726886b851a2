"""Monomial ideals: parsing, minimal generators, and powers.

A monomial is an exponent tuple of length `num_vars`; an ideal stores its
minimal generating set, sorted lexicographically, so equal ideals compare
equal.  Text syntax for generators: comma-separated products such as
"x1*x2" or "x1^2*x3" (variables are 1-indexed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

from .errors import InputError
from .exact_arith import require_int

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def monomial_degree(m) -> int:
    return sum(m)


def monomial_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimalize(gens):
    """Keep only generators minimal under divisibility, deduplicated.

    A proper divisor has a strictly smaller total degree, so taken by degree,
    g is tested only against the first `lower` kept generators, those of
    lower degree: an equigenerated set makes no divisibility test at all.
    """
    out, lower, degree = [], 0, None
    for g in sorted(set(gens), key=monomial_degree):
        if monomial_degree(g) != degree:
            degree, lower = monomial_degree(g), len(out)
        if not any(monomial_divides(h, g) for h in islice(out, lower)):
            out.append(g)
    return tuple(sorted(out))


@dataclass(frozen=True)
class MonomialIdeal:
    num_vars: int
    generators: tuple

    def __post_init__(self):
        if require_int(self.num_vars, "num_vars") < 1:
            raise InputError("num_vars must be positive")
        if not self.generators:
            raise InputError("ideal needs at least one generator")
        for g in self.generators:
            if len(g) != self.num_vars:
                raise InputError("generator length does not match num_vars")
            if any(require_int(e, "exponent") < 0 for e in g):
                raise InputError("negative exponent in generator")
            if all(e == 0 for e in g):
                raise InputError("unit generator makes the quotient zero")
        if self.generators != _minimalize(self.generators):
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


def parse_ideal(text: str, num_vars: int) -> MonomialIdeal:
    """Parse the comma-separated generator syntax into a canonical ideal."""
    if require_int(num_vars, "num_vars") < 1:
        raise InputError("num_vars must be positive")
    chunks = [c.strip() for c in text.split(",")]
    if chunks == [""]:
        raise InputError("empty generator list")
    gens = []
    for chunk in chunks:
        if not chunk:
            raise InputError("empty generator in list")
        exps = [0] * num_vars
        for token in chunk.split("*"):
            m = _FACTOR_RE.match(token.strip())
            if not m:
                raise InputError(f"malformed token: {token.strip()!r}")
            idx = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            if idx < 1 or idx > num_vars:
                raise InputError(f"variable x{idx} out of range for {num_vars} variables")
            if exp < 1:
                raise InputError(f"exponent must be positive in {token.strip()!r}")
            exps[idx - 1] += exp
        gens.append(tuple(exps))
    return make_ideal(num_vars, gens)


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th power: minimalized k-fold products of the generators."""
    if require_int(k, "power exponent") < 1:
        raise InputError("power exponent must be >= 1")
    if k == 1:
        return ideal
    products = set()
    for combo in combinations_with_replacement(ideal.generators, k):
        products.add(tuple(sum(es) for es in zip(*combo)))
    return make_ideal(ideal.num_vars, products)


def is_equigenerated(ideal: MonomialIdeal):
    """(True, d) when every generator has total degree d, else (False, None)."""
    degrees = {monomial_degree(g) for g in ideal.generators}
    if len(degrees) == 1:
        return True, degrees.pop()
    return False, None
