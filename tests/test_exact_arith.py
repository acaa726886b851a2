import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bettistab.errors import InputError
from bettistab.exact_arith import (
    RationalFunctionFit,
    binom,
    fit_polynomial,
    fit_rational_function,
    format_rational,
    integer_vector,
    interpolates,
    kernel_basis,
    matrix_rank,
    parse_rational,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_trim,
    primitive,
    rational_reconstructions,
    solve_exact,
)

from dense_reference import _echelon, dense_kernel, dense_solve

small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def test_binom_examples():
    assert binom(5, 2) == 10
    assert binom(2, 4) == 0
    assert binom(-1, 0) == 1
    assert binom(6, 4) == 15
    assert binom(-3, 2) == 0
    assert binom(7, -1) == 0


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_binom_pascal_identity(a, b):
    assert binom(a, b) == binom(a - 1, b) + binom(a - 1, b - 1)


def test_solve_identity():
    x, null = solve_exact([[1, 0], [0, 1]], [3, 4])
    assert x == [3, 4]
    assert null == []


def test_solve_underdetermined():
    x, null = solve_exact([[1, 1]], [1])
    assert x == [1, 0]
    assert len(null) == 1
    v = null[0]
    # spans {(1, -1)}
    assert v[0] * Fraction(-1) == v[1] * Fraction(1)
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_solve_inconsistent():
    x, null = solve_exact([[1], [1]], [1, 2])
    assert x is None
    assert null == []


def _naive_rank(matrix):
    # plain Fraction elimination, independent of the fraction-free code path
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(small_fractions, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _reference_rank(matrix):
    """Dense Bareiss count through `_echelon`, independent of the sparse `matrix_rank`."""
    if not matrix:
        return 0
    return len(_echelon([integer_vector(row) for row in matrix], len(matrix[0])))


@st.composite
def rank_matrices(draw):
    """Int or Fraction matrices: random (dense or sparse) or of bounded rank, plus zero rows."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = draw(st.sampled_from([
        st.integers(-9, 9),
        st.sampled_from([0, 0, 0, 1, -1, 2, 3]),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    ]))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    else:  # a product of m x r and r x n factors: rank at most r, rows dependent
        r = draw(st.integers(0, min(m, n)))
        left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
        rows = [[sum(x * y[j] for x, y in zip(row, right)) for j in range(n)] for row in left]
    for i in draw(st.lists(st.integers(0, m), max_size=2)):
        rows.insert(i, [0] * n)
    return rows


@given(rank_matrices())
@settings(max_examples=250, deadline=None)
def test_matrix_rank_matches_dense_reference(matrix):
    rank = matrix_rank(matrix)
    assert rank == _reference_rank(matrix)
    assert matrix_rank([list(col) for col in zip(*matrix)]) == rank


def test_matrix_rank_edge_shapes():
    assert matrix_rank([]) == 0
    assert matrix_rank([[]]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[2, 4], [3, 6]]) == 1  # non-unit pivot, dependent row
    assert matrix_rank([[2, 3], [3, 5]]) == 2
    assert matrix_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1


@given(rank_matrices())
@settings(max_examples=250, deadline=None)
def test_kernel_basis_matches_dense_reference(matrix):
    n = len(matrix[0])
    basis = kernel_basis([integer_vector(row) for row in matrix], n)
    assert basis == dense_kernel(matrix, n)
    for f, x in basis.items():
        assert all(type(v) is int for v in x) and math.gcd(*x) == 1
        assert x[f] > 0 and all(x[g] == 0 for g in basis if g != f)
        assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in matrix)
    assert len(basis) == n - matrix_rank(matrix)


def test_kernel_basis_edge_cases():
    assert kernel_basis([[0, 0], [0, 0]], 2) == {0: [1, 0], 1: [0, 1]}
    assert kernel_basis([], 2) == {0: [1, 0], 1: [0, 1]}
    assert kernel_basis([[2, 1], [1, 3]], 2) == {}  # full rank
    # the pivot row at 0 has no other set entry: x_0 stays the int 0
    basis = kernel_basis([[3, 0, 0], [0, 2, 4]], 3)
    assert basis == {2: [0, -2, 1]}
    assert all(type(v) is int for v in basis[2])
    with pytest.raises(InputError):
        kernel_basis([[1, 2, 3]], 2)


def test_float_entries_are_rejected():
    with pytest.raises(InputError):
        matrix_rank([[Fraction(1, 2), 0.5]])
    with pytest.raises(InputError):  # a row past full rank is still checked
        matrix_rank([[1, 0], [0, 1], [0.5, 0]])
    with pytest.raises(InputError):
        solve_exact([[1, 2]], [0.5])
    with pytest.raises(InputError):
        RationalFunctionFit((1,), (1,)).evaluate(0.1)
    # abscissae are integers: not a Fraction, and True is not k = 1
    with pytest.raises(InputError):
        fit_rational_function([(Fraction(1, 2), 1), (2, 2)], 1, 0)
    with pytest.raises(InputError):
        fit_rational_function([(True, 1), (2, 2)], 1, 0)
    # sample values are ints or Fractions: True is not the value 1
    samples = [(1, Fraction(1)), (2, Fraction(2)), (3, Fraction(3))]
    for bad in ([(1, True), (2, 2)], [(1, 0.5), (2, 2)]):
        with pytest.raises(InputError):
            fit_rational_function(bad, 1, 0)
        with pytest.raises(InputError):
            fit_polynomial(bad, 1)
    # degree bounds are integers: True is not 1, and 1.0 is not accepted
    for dn, dd in ((True, 0), (1, False), (1.0, 0), (1, 0.0)):
        with pytest.raises(InputError):
            fit_rational_function(samples, dn, dd)
    for deg in (True, 1.0):
        with pytest.raises(InputError):
            fit_polynomial(samples, deg)
    # binom takes integers only; C(a, 0) = 1 still holds for negative a
    for a, b in ((True, 1), (4.0, 2), (4, 2.0), (4, False)):
        with pytest.raises(InputError):
            binom(a, b)
    assert binom(-5, 0) == 1


@given(matrices, st.data())
@settings(max_examples=120, deadline=None)
def test_solve_exactness_properties(matrix, data):
    m, n = len(matrix), len(matrix[0])
    rhs = data.draw(st.lists(small_fractions, min_size=m, max_size=m))
    x, null = solve_exact(matrix, rhs)
    assert (x, null) == dense_solve(matrix, rhs)  # free entries 1, as before
    rank = matrix_rank(matrix)
    assert rank == _naive_rank(matrix)
    assert len(null) == n - rank
    for v in null:
        assert all(
            sum(row[j] * v[j] for j in range(n)) == 0 for row in matrix
        )
    if x is not None:
        for row, b in zip(matrix, rhs):
            assert sum(Fraction(row[j]) * x[j] for j in range(n)) == Fraction(b)
    else:
        # inconsistency witnessed: augmented rank exceeds rank
        assert _naive_rank([list(r) + [b] for r, b in zip(matrix, rhs)]) == rank + 1


@given(small_fractions, small_fractions)
def test_field_operations_are_exact(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


def test_fit_recovers_rational_coordinate():
    samples = [(k, Fraction(k + 2, 2 * k + 3)) for k in range(4, 10)]
    fit = fit_rational_function(samples, 1, 1)
    assert fit == RationalFunctionFit((2, 1), (3, 2))
    assert fit.evaluate(31) == Fraction(33, 65)


def test_fit_constant():
    samples = [(k, Fraction(1, 3)) for k in range(1, 5)]
    assert fit_rational_function(samples, 0, 0) == RationalFunctionFit((1,), (3,))


def test_fit_square():
    samples = [(k, Fraction(k * k)) for k in range(6)]
    assert fit_rational_function(samples, 2, 0) == RationalFunctionFit((0, 0, 1), (1,))


def test_fit_duplicate_abscissae():
    with pytest.raises(InputError):
        fit_rational_function([(1, Fraction(1)), (1, Fraction(2))], 0, 0)


def test_fit_too_few_samples():
    with pytest.raises(InputError):
        fit_rational_function([(1, Fraction(1))], 1, 1)


def test_fit_polynomial_linear():
    samples = [(k, Fraction(2 * k + 1)) for k in range(1, 5)]
    assert fit_polynomial(samples, 1) == RationalFunctionFit((1, 2), (1,))


def test_fit_polynomial_binomial_expansion():
    # C(k+4,4) = (k+1)(k+2)(k+3)(k+4)/24
    samples = [(k, Fraction(binom(k + 4, 4))) for k in range(4, 10)]
    fit = fit_polynomial(samples, 4)
    assert fit == RationalFunctionFit((24, 50, 35, 10, 1), (24,))
    expanded = (1,)
    for r in (1, 2, 3, 4):
        expanded = poly_mul(expanded, (r, 1))
    assert fit.numerator == expanded


def test_fit_polynomial_rejects_exponential():
    samples = [(k, Fraction(2**k)) for k in range(6)]
    assert fit_polynomial(samples, 3) is None


def test_fit_zero_function():
    samples = [(k, Fraction(0)) for k in range(5)]
    fit = fit_rational_function(samples, 2, 1)
    assert fit == RationalFunctionFit((), (1,))


def test_unattainable_point_returns_none():
    # data from (k-1)/(k-1) with a hole: value differs at the hole
    samples = [(k, Fraction(1)) for k in range(2, 6)] + [(1, Fraction(5))]
    assert fit_rational_function(samples, 1, 1) is None


polys = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=3)


@given(polys, polys, st.integers(min_value=0, max_value=30))
@settings(max_examples=100, deadline=None)
def test_fit_round_trip(num, den, hold):
    if not any(den):
        den = [1]
    dn, dd = len(num) - 1, len(den) - 1
    ks = [k for k in range(dn + dd + 2) if poly_eval(den, k) != 0]
    if len(ks) < dn + dd + 2:
        ks += [k for k in range(dn + dd + 2, 3 * (dn + dd) + 20) if poly_eval(den, k) != 0]
        ks = ks[: dn + dd + 2]
    samples = [(k, poly_eval(num, k) / poly_eval(den, k)) for k in ks]
    fit = fit_rational_function(samples, dn, dd)
    assert fit is not None
    if poly_eval(den, hold) != 0:
        assert fit.evaluate(hold) == poly_eval(num, hold) / poly_eval(den, hold)


def _reference_fit(samples, deg_num, deg_den):
    """Slow reference: Fraction rows and the first kernel vector of a dense solve."""
    rows = []
    for k, v in samples:
        v = Fraction(v)
        row = [Fraction(k) ** e for e in range(deg_num + 1)]
        row += [-v * Fraction(k) ** e for e in range(deg_den + 1)]
        rows.append(row)
    _, nullspace = dense_solve(rows)
    if not nullspace:
        return None
    vec = nullspace[0]
    num, den = vec[: deg_num + 1], vec[deg_num + 1 :]
    if not poly_trim(den):
        return None
    fit = RationalFunctionFit.make(num, den)
    for k, v in samples:
        q = poly_eval(fit.denominator, Fraction(k))
        if q == 0 or poly_eval(fit.numerator, Fraction(k)) != Fraction(v) * q:
            return None
    return fit


@st.composite
def fit_samples(draw):
    """Distinct integer abscissae with either random values or the values of a
    random rational function (so that fits exist), sometimes with one value moved."""
    ks = draw(st.lists(st.integers(-6, 30), min_size=1, max_size=9, unique=True))
    if draw(st.booleans()):
        return [(k, draw(small_fractions)) for k in ks]
    coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=5)
    num, den = draw(coeffs), draw(coeffs.filter(any))
    samples = [(k, poly_eval(num, k) / poly_eval(den, k)) for k in ks if poly_eval(den, k)]
    if samples and draw(st.booleans()):
        k, v = samples[-1]
        samples[-1] = (k, v + draw(small_fractions))
    return samples


@given(fit_samples())
@settings(max_examples=150, deadline=None)
def test_fit_matches_reference(samples):
    for dn in range(len(samples)):
        for dd in range(len(samples) - dn):
            assert fit_rational_function(samples, dn, dd) == _reference_fit(samples, dn, dd)


def poly_divmod(p, q):
    """Polynomial division over the rationals; q must be nonzero."""
    if not q:
        raise InputError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quot = [Fraction(0)] * max(len(rem) - len(q) + 1, 0)
    lead = Fraction(q[-1])
    for i in range(len(rem) - len(q), -1, -1):
        factor = rem[i + len(q) - 1] / lead
        if factor:
            quot[i] = factor
            for j, c in enumerate(q):
                rem[i + j] -= factor * c
    return poly_trim(quot), poly_trim(rem)


def _reference_poly_gcd(p, q):
    """Euclid over the rationals, then the primitive form with positive lead."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    g = primitive(a)
    return g if g[-1] > 0 else tuple(-x for x in g)


rational_polys = st.lists(small_fractions, max_size=5)


@given(rational_polys, rational_polys, rational_polys)
def test_poly_gcd_matches_rational_euclid(p, q, common):
    # a shared factor makes the gcd nontrivial often
    p, q = poly_mul(p, common), poly_mul(q, common)
    assert poly_gcd(p, q) == _reference_poly_gcd(p, q)


def _reference_make(num, den):
    """The canonical form by Fraction division by the primitive gcd."""
    num, den = poly_trim(num), poly_trim(den)
    if not num:
        return RationalFunctionFit((), (1,))
    ints = integer_vector((*num, *den))
    num, den = ints[: len(num)], ints[len(num) :]
    g = poly_gcd(num, den)
    if len(g) > 1:
        num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    joint = primitive((*num, *den))
    if joint[-1] < 0:
        joint = tuple(-x for x in joint)
    return RationalFunctionFit(joint[: len(num)], joint[len(num) :])


@given(rational_polys, rational_polys, rational_polys)
@settings(max_examples=300, deadline=None)
def test_make_matches_fraction_division(p, q, common):
    # a shared factor makes make() divide by a nontrivial gcd often
    num, den = poly_mul(p, common), poly_mul(q, common)
    if not den:
        den = poly_trim(q) or (Fraction(1),)
    fit = RationalFunctionFit.make(num, den)
    assert fit == _reference_make(num, den)
    assert all(type(c) is int for c in fit.numerator + fit.denominator)


@given(fit_samples())
@settings(max_examples=100, deadline=None)
def test_rational_reconstructions_are_euclid_pairs(samples):
    # r_j = t_j v at every sample, deg r_j falls strictly to the zero
    # polynomial, deg t_j rises, and t_1 is the constant denominator.
    pairs = rational_reconstructions(samples)
    assert len(pairs[0][1]) == 1 and pairs[0][1][0] > 0
    assert pairs[-1][0] == () and all(r for r, _ in pairs[:-1])
    for (r0, t0), (r1, t1) in zip(pairs, pairs[1:]):
        assert len(r1) < len(r0) and len(t1) > len(t0)
    for r, t in pairs:
        assert all(type(c) is int for c in r + t)
        for k, v in samples:
            assert poly_eval(r, k) == v * poly_eval(t, k)


def test_interpolates_in_the_integers():
    samples = [(0, Fraction(1, 3)), (1, Fraction(2, 5)), (4, Fraction(5, 11))]
    assert interpolates((1, 1), (3, 2), samples)  # (k + 1) / (2k + 3)
    assert not interpolates((1, 1), (3, 2), samples + [(3, 1)])
    assert not interpolates((2,), (-2, 1), [(2, 1)])  # pole at a sample
    assert interpolates((), (1,), [])


@given(polys, polys)
def test_poly_gcd_divides(p, q):
    g = poly_gcd(p, q)
    if g:
        for target in (p, q):
            quot, rem = poly_divmod(target, g)
            assert rem == ()


def test_rational_serialization():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("abc")


def test_fit_canonical_form():
    # denominator leading coefficient forced positive, joint content 1
    fit = RationalFunctionFit.make([Fraction(2), Fraction(4)], [Fraction(-2)])
    assert fit == RationalFunctionFit((-1, -2), (1,))


def test_make_rejects_float_coefficients():
    with pytest.raises(InputError):
        RationalFunctionFit.make([0.5], [1])
    with pytest.raises(InputError):
        RationalFunctionFit.make([0.5, 0.5], [1, 1])


@given(st.lists(small_fractions, min_size=1, max_size=6))
def test_primitive_is_content_one_and_positively_proportional(values):
    p = primitive(values)
    assert all(type(x) is int for x in p) and len(p) == len(values)
    if not any(values):
        assert p == (0,) * len(values)
        return
    assert math.gcd(*p) == 1
    i = next(i for i, v in enumerate(values) if v)
    scale = Fraction(p[i]) / values[i]
    assert scale > 0
    assert all(x == scale * v for x, v in zip(p, values))


rational_polys = st.lists(small_fractions, min_size=1, max_size=4)


@given(rational_polys, rational_polys, small_fractions.filter(bool))
@settings(max_examples=100, deadline=None)
def test_make_is_invariant_under_rational_scaling(num, den, c):
    if not any(den):
        den = [Fraction(1)]
    scaled = RationalFunctionFit.make([c * x for x in num], [c * x for x in den])
    assert scaled == RationalFunctionFit.make(num, den)


def _fraction_horner(p, x):
    """Reference evaluation: Horner's rule with every step a Fraction."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * Fraction(x) + Fraction(c)
    return acc


mixed_polys = st.lists(
    st.one_of(st.integers(min_value=-10**6, max_value=10**6), small_fractions),
    max_size=6,
)
points = st.one_of(st.integers(min_value=-50, max_value=50), small_fractions)


@given(mixed_polys, points)
@settings(max_examples=300, deadline=None)
def test_poly_eval_matches_fraction_horner(p, x):
    # Integer points and coefficients take the integer path, the rest the
    # Fraction one; both return the same Fraction.
    value = poly_eval(p, x)
    assert type(value) is Fraction
    assert value == _fraction_horner(p, x)
    assert type(poly_eval(tuple(p), x)) is Fraction


@given(polys, polys, st.integers(min_value=-30, max_value=30))
@settings(max_examples=200, deadline=None)
def test_evaluate_is_numerator_over_denominator(num, den, k):
    if not any(den):
        den = [1]
    fit = RationalFunctionFit.make(num, den)
    q = _fraction_horner(fit.denominator, k)
    if q == 0:
        with pytest.raises(ZeroDivisionError):
            fit.evaluate(k)
        return
    value = fit.evaluate(k)
    assert type(value) is Fraction
    assert value == _fraction_horner(fit.numerator, k) / q
    if _fraction_horner(den, k):  # make() may cancel a factor vanishing at k
        assert value == _fraction_horner(num, k) / _fraction_horner(den, k)


def test_evaluate_rejects_non_integer_points_and_vanishing_denominators():
    fit = RationalFunctionFit.make([1], [-2, 1])  # 1/(k - 2)
    for x in (2.0, 0.5, True, False, Fraction(3)):
        with pytest.raises(InputError):
            fit.evaluate(x)
    with pytest.raises(ZeroDivisionError):
        fit.evaluate(2)
    assert fit.evaluate(3) == 1 and type(fit.evaluate(3)) is Fraction
