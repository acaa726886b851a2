"""Exact arithmetic utilities.

Everything in this package computes over the rationals, represented as
`fractions.Fraction` (always in lowest terms with positive denominator).
This module supplies the shared numeric machinery:

* `binom` -- binomial coefficients with a fixed out-of-range convention,
* `integer_vector` / `primitive` -- the one place where rationals become
  integers (lcm scaling, and its content-1 form); `require_int` admits an
  input integer without truncating anything,
* `_pivot_rows` -- the one elimination routine: a sparse fraction-free
  echelon on rows cleared once each and kept as {column: int}.  A unit
  pivot reduces without scaling; any other pivot takes the gcd-normalised
  integer combination, so it uses only ring operations, sign and content:
  no Fractions, mod-p or floats,
* `matrix_rank` -- the number of pivot rows,
* `kernel_basis` -- one primitive integer kernel vector per free column,
  by integer back substitution on the pivot rows; `solve_exact` takes the
  kernel of [A | -b] and divides each vector by its free entry,
* integer polynomials as coefficient tuples (lowest degree first):
  evaluation (Horner in the integers at an integer point: a fit's
  `pair_at` gives (p(x), q(x)), and `evaluate` makes one Fraction of
  them), product and primitive gcd (Euclid on integer pseudo-remainders);
  `RationalFunctionFit.make` divides by that gcd with an exact integer
  quotient, so no polynomial routine uses Fractions,
* `rational_reconstructions` -- the one fitting core: the extended
  Euclidean algorithm on prod(x - k_i) and the samples' interpolant, run in
  the integers as a pseudo-remainder sequence whose pairs are made only as
  they are read; `interpolates` checks an integer pair against samples
  without Fractions,
* `fit_rational_function` -- exact rational interpolation under degree
  bounds: the Euclid pair that answers them, in canonical form
  (`fit_polynomial` is its denominator-degree-0 case).

Serialized forms: a rational is the string "num/den" ("n" when integral),
which `format_quotient` writes from an integer pair and `format_rational`
from a Fraction through it; a polynomial is its coefficient list, lowest
degree first, with no trailing zeros (the zero polynomial is the empty
list).
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator, Sequence
from fractions import Fraction
from operator import itemgetter

from .errors import InputError, excerpt
from .values import Value


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the convention used throughout this package.

    C(a, 0) = 1 for every integer a (negative included); C(a, b) = 0 when
    b < 0 or when b > 0 and a < b; otherwise the ordinary value.
    """
    require_int(a, "binom a")
    if require_int(b, "binom b") < 0:
        return 0
    if b == 0:
        return 1
    if a < b:
        return 0
    return math.comb(a, b)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a plain integer string, ASCII digits with an
    optional leading minus and nothing around them, into a Fraction.

    Anything else is an InputError: non-strings, spaces, signs on the
    denominator, decimals, exponents (a nine-character "1e3000000" would be
    a 3.3-million-bit integer), underscores, a zero denominator, and digit
    runs over the interpreter's int conversion limit.  The message shows the
    rejected value through `excerpt`, a short prefix and its length.
    """
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise InputError(f"not a rational: {excerpt(text)}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {excerpt(text)}") from exc


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational; integers render without a denominator."""
    value = Fraction(value)
    return format_quotient(value.numerator, value.denominator)


def format_quotient(numerator: int, denominator: int) -> str:
    """The rational n/d of two integers as `format_rational` writes it, in
    lowest terms with a positive denominator; d = 0 is a ZeroDivisionError."""
    if denominator == 0:
        raise ZeroDivisionError(f"{numerator}/0")
    g = math.gcd(numerator, denominator)
    if denominator < 0:
        g = -g
    numerator, denominator = numerator // g, denominator // g
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


# ---------------------------------------------------------------------------
# Exact linear algebra (fraction-free elimination)
# ---------------------------------------------------------------------------


def integer_vector(values) -> list:
    """Scale a sequence of rationals by the lcm of its denominators; ints out.

    Entries must be ints or Fractions; anything else, bools included, raises
    InputError.  A row of ints alone comes back as they are, with no lcm.
    """
    types = set(map(type, values))
    if types == {int}:
        return list(values)
    if bool in types:
        raise InputError("entries must be ints or Fractions, not bools")
    try:
        scale = math.lcm(*(x.denominator for x in values))
        return [x.numerator * (scale // x.denominator) for x in values]
    except AttributeError as exc:
        raise InputError(f"entries must be ints or Fractions: {exc}") from exc


def require_int(value, what: str) -> int:
    """`value` itself when it is an int; anything else (bools too) is an InputError."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {excerpt(value)}")
    return value


def primitive(values) -> tuple:
    """Content-1 integer vector positively proportional to the entries (0 -> 0)."""
    ints = integer_vector(values)
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _pivot_rows(rows) -> dict:
    """Sparse fraction-free echelon of integer rows: {leading column: pivot row}.

    Each row is kept as {column: entry} and reduced on its leading column c
    against the pivot row leading there, until it vanishes or leads in a new
    column and becomes a pivot row, stored with a positive leading entry p.
    With p = 1 the row loses e times the pivot row, e its entry at c, with
    no scaling.  Otherwise it becomes (p/g) row - (e/g) pivot row,
    g = gcd(p, e), divided by its content.  Every step stays in the
    integers.  Once every column leads, the remaining rows are left unread.
    Any echelon basis of a row space has the same leading columns, so the
    keys do not depend on the row order.
    """
    pivots = {}
    for values in rows:
        if len(pivots) == len(values):
            break
        row = dict(filter(itemgetter(1), enumerate(values)))
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row if row[c] > 0 else {j: -x for j, x in row.items()}
                break
            p, factor = pivot[c], row[c]
            if p != 1:
                g = math.gcd(p, factor)
                factor //= g
                row = {j: p // g * x for j, x in row.items()}
            for j, x in pivot.items():
                y = row.get(j, 0) - factor * x
                if y:
                    row[j] = y
                else:
                    del row[j]
            if p != 1:
                content = math.gcd(*row.values())
                if content > 1:
                    row = {j: x // content for j, x in row.items()}
    return pivots


def matrix_rank(matrix) -> int:
    """Exact rank of a rational matrix: the number of `_pivot_rows`."""
    return len(_pivot_rows([integer_vector(row) for row in matrix]))


def kernel_basis(rows, ncols) -> dict:
    """Kernel basis of integer rows of length `ncols`: {free column: vector}.

    For each free (non-leading) column f, in increasing order, the vector is
    the primitive integer kernel vector with x_f > 0 and every other free
    entry 0.  Back substitution runs from the last pivot row to the first:
    with p the row's leading entry at c and s the row's value on the vector
    so far, the vector is scaled by p/g and x_c set to -s/g, g = gcd(p, s).
    Starting from x_f = 1, every step keeps the vector primitive.
    """
    if any(len(row) != ncols for row in rows):
        raise InputError(f"kernel rows must have {ncols} entries")
    pivots = _pivot_rows(rows)
    order = sorted(pivots, reverse=True)
    basis = {}
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = 1
        for c in order:
            if c > f:  # the row lies past f, where x is still 0
                continue
            row = pivots[c]
            s = sum(v * x[j] for j, v in row.items() if x[j])
            if s:
                p = row[c]
                g = math.gcd(p, s)
                if p != g:
                    x = [p // g * y for y in x]
                x[c] = -s // g
        basis[f] = x
    return basis


def solve_exact(matrix, rhs=None):
    """Solve A x = b exactly over the rationals.

    Returns (particular, nullspace) where `particular` is one exact solution
    (free variables set to zero) or None when the system is inconsistent, and
    `nullspace` is a basis of ker(A) as lists of Fractions, each with its
    free variable 1.  With rhs=None the system is treated as homogeneous.
    Both come from `kernel_basis` of [A | -b].
    """
    m = len(matrix)
    if m == 0:
        raise InputError("empty system: variable count is undetermined")
    n = len(matrix[0])
    for row in matrix:
        if len(row) != n:
            raise InputError("inconsistent row lengths")
    if rhs is None:
        rhs = [0] * m
    elif len(rhs) != m:
        raise InputError("right-hand side length does not match row count")

    rows = [integer_vector([*row, b]) for row, b in zip(matrix, rhs)]
    for row in rows:
        row[n] = -row[n]
    basis = kernel_basis(rows, n + 1)
    solutions = [[Fraction(v, x[f]) for v in x[:n]] for f, x in basis.items()]
    particular = solutions.pop() if n in basis else None  # n is the last column
    return particular, solutions


# ---------------------------------------------------------------------------
# Integer polynomials (coefficient tuples, lowest degree first)
# ---------------------------------------------------------------------------


def poly_trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_eval(p, x) -> Fraction:
    """p(x) by Horner's rule, as a Fraction; in the integers when x and p are."""
    return Fraction(_horner(p, x))


def _horner(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def _pseudo_remainder_step(r0, t0, r1, t1) -> tuple:
    """(a r0 - q r1, a t0 - q t1) with deg < deg r1, divided by joint content.

    Each leading term of the running remainder is cancelled by a multiple of
    r1 after scaling by (lc r1)/g, g its gcd with that term, so every step
    stays in the integers, as in `_pivot_rows`.
    """
    r, t = list(r0), list(t0)
    d, lead = len(r1) - 1, r1[-1]
    t += [0] * (len(r) - d - 1 + len(t1) - len(t))  # room for q t1
    while len(r) > d:
        g = math.gcd(lead, r[-1])
        a, b = lead // g, r[-1] // g
        if a != 1:
            r = [a * x for x in r]
            t = [a * x for x in t]
        shift = len(r) - 1 - d
        for e, x in enumerate(r1):
            r[shift + e] -= b * x
        for e, x in enumerate(t1):
            t[shift + e] -= b * x
        while r and r[-1] == 0:
            r.pop()
    t = poly_trim(t)
    content = math.gcd(*r, *t) or 1
    return tuple(x // content for x in r), tuple(x // content for x in t)


def poly_gcd(p, q) -> tuple:
    """Primitive gcd of two rational polynomials (positive leading coefficient).

    Euclid on their primitive integer forms, each remainder a
    pseudo-remainder divided by its content.
    """
    a, b = primitive(poly_trim(p)), primitive(poly_trim(q))
    while b:
        a, b = b, _pseudo_remainder_step(a, (), b, ())[0]
    return a if not a or a[-1] > 0 else tuple(-x for x in a)


def _exact_quotient(p, g) -> list:
    """p / g for integer polynomials, g primitive and dividing p.

    By Gauss's lemma the quotient is integral: each step divides exactly.
    """
    rem, quot = list(p), []
    while len(rem) >= len(g):
        quot.append(rem[-1] // g[-1])
        for j, x in enumerate(g, len(rem) - len(g)):
            rem[j] -= quot[-1] * x
        rem.pop()
    return quot[::-1]


class RationalFunctionFit(Value):
    """A rational function p/q in canonical form.

    Both polynomials have integer coefficients with joint content 1 and no
    common polynomial factor; the denominator has a positive leading
    coefficient.  The zero function is ()/(1,).
    """

    numerator: tuple
    denominator: tuple

    @staticmethod
    def make(num, den) -> "RationalFunctionFit":
        """Canonicalize arbitrary rational coefficient sequences."""
        num, den = poly_trim(num), poly_trim(den)
        if not den:
            raise InputError("zero denominator polynomial")
        if not num:
            return RationalFunctionFit((), (1,))
        ints = integer_vector((*num, *den))
        num, den = ints[: len(num)], ints[len(num) :]
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, den = _exact_quotient(num, g), _exact_quotient(den, g)
        joint = primitive((*num, *den))
        if joint[-1] < 0:
            joint = tuple(-x for x in joint)
        return RationalFunctionFit(joint[: len(num)], joint[len(num) :])

    def pair_at(self, x) -> tuple:
        """(p(x), q(x)) in the integers, unreduced; q(x) may be 0."""
        require_int(x, "evaluation point")
        return _horner(self.numerator, x), _horner(self.denominator, x)

    def evaluate(self, x) -> Fraction:
        p, q = self.pair_at(x)
        if q == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return Fraction(p, q)

    def to_json_dict(self) -> dict:
        return {"numerator": list(self.numerator), "denominator": list(self.denominator)}


def rational_reconstructions(samples: Sequence[tuple]) -> Iterator[tuple]:
    """Extended Euclid on m = prod(x - k_i) and the samples' interpolant f.

    Yields the integer pairs (r_j, t_j), j >= 1, with r_j = t_j f mod m,
    down to the first zero r_j, each one only when it is asked for:
    (r_1, t_1) = (L f, L), L the least common denominator of f's Lagrange
    coefficients, and each next pair is the pseudo-remainder step on the
    two before it, from (r_0, t_0) = (m, 0), divided by its joint content.
    So each pair is a nonzero multiple of the pair of the Euclidean
    algorithm over the rationals: deg r_j falls strictly and deg t_j rises.
    Abscissae are distinct integers; values are ints or Fractions (bools
    are not).
    """
    ks = [require_int(k, "sample abscissa") for k, _ in samples]
    if len(set(ks)) != len(ks):
        raise InputError("duplicate sample abscissae")
    v_den, *v_nums = integer_vector((1, *(v for _, v in samples)))
    m = [1]
    for k in ks:
        m = [a - k * b for a, b in zip([0, *m], [*m, 0])]
    terms = []  # f = sum of v_num / (v_den w) prod_{j != i} (x - k_j)
    for k, v_num in zip(ks, v_nums):
        if v_num:
            w = math.prod(k - kj for kj in ks if kj != k)
            g = math.gcd(v_num, w)
            terms.append((k, v_num // g, w // g))
    lcd = math.lcm(*(w for _, _, w in terms))
    f = [0] * len(ks)
    for k, a, w in terms:
        scale = a * (lcd // w)
        q = 0  # synthetic division of m by (x - k), top coefficient first
        for e in range(len(ks), 0, -1):
            q = m[e] + k * q
            f[e - 1] += scale * q
    f = poly_trim(f)
    g = math.gcd(*f, v_den * lcd)
    r0, t0 = tuple(m), ()
    r1, t1 = tuple(c // g for c in f), (v_den * lcd // g,)
    yield r1, t1
    while r1:
        r0, t0, (r1, t1) = r1, t1, _pseudo_remainder_step(r0, t0, r1, t1)
        yield r1, t1


def interpolates(num, den, samples) -> bool:
    """Whether num(k) = v den(k) with den(k) != 0 at every (k, v) sample.

    num and den are integer polynomials, each k an int and each v an int or
    a Fraction: the test runs in the integers.
    """
    for k, v in samples:
        q = _horner(den, k)
        if q == 0 or _horner(num, k) * v.denominator != v.numerator * q:
            return False
    return True


def fit_rational_function(
    samples: Sequence[tuple], deg_num: int, deg_den: int
) -> RationalFunctionFit | None:
    """Exact rational interpolation of integer-abscissa samples.

    Finds p/q with deg p <= deg_num, deg q <= deg_den and p(k) = v*q(k) at
    every sample.  At least deg_num + deg_den + 1 samples are required; at
    that count any two interpolants agree as functions, so the result is
    well defined.  Returns None when no such function interpolates every
    sample with a nonvanishing denominator.

    Every such (p, q) is a polynomial multiple of (r_j, t_j) from
    `rational_reconstructions`, for the first j with deg r_j <= deg_num (von
    zur Gathen & Gerhard, Modern Computer Algebra, Thm 5.16), so one exists
    exactly when deg t_j <= deg_den, and its canonical form is that of
    r_j/t_j.
    """
    require_int(deg_num, "numerator degree")
    require_int(deg_den, "denominator degree")
    if deg_num < 0 or deg_den < 0:
        raise InputError("negative degree bound")
    if len(samples) < deg_num + deg_den + 1:
        raise InputError(
            f"need at least {deg_num + deg_den + 1} samples for degrees "
            f"({deg_num}, {deg_den}), got {len(samples)}"
        )
    r, t = next((r, t) for r, t in rational_reconstructions(samples) if len(r) <= deg_num + 1)
    if len(t) > deg_den + 1:
        return None
    fit = RationalFunctionFit.make(r, t)
    return fit if interpolates(fit.numerator, fit.denominator, samples) else None


def fit_polynomial(samples: Sequence[tuple], deg: int) -> RationalFunctionFit | None:
    """Exact polynomial interpolation: fit_rational_function with deg_den = 0.

    Only (r_1, t_1) = (L f, L) has deg t = 0, so this is the interpolant f
    when deg f <= deg.  The result has a constant positive denominator, so
    rational-coefficient polynomials like C(k+4,4) stay representable with
    integer tuples.
    """
    return fit_rational_function(samples, deg, 0)
