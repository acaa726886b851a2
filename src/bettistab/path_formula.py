"""Closed-form Betti numbers for powers of path edge ideals.

The family lives in n variables with generators x_i*x_{i+1} for
i = 1 .. n-1.  For homological index i >= 1 the graded Betti number of the
k-th power's cyclic quotient is the triple binomial product

    C(n+3k-j-2, 2j-3i-3k+3) * C(n+4k+2i-2j-4, 2k+2i-j-2) * C(j-i-k, k-1)

under the out-of-range conventions of exact_arith.binom.  The formula is
not applied at i = 0, where the first binomial's lower index goes negative
for k >= 2: the i = 0 column of a cyclic quotient is (j == 0) ? 1 : 0 and is
set directly.  The Koszul oracle independently validates this stitching.
"""

from __future__ import annotations

from math import comb, prod

from .diagram import BettiDiagram
from .errors import InputError
from .exact_arith import require_int
from .monomial_ideal import MonomialIdeal, make_ideal


def path_ideal(n: int) -> MonomialIdeal:
    """Edge ideal of the path on n vertices: <x1*x2, ..., x_{n-1}*x_n>."""
    if require_int(n, "n") < 2:
        raise InputError("path ideal needs n >= 2")
    gens = []
    for i in range(n - 1):
        e = [0] * n
        e[i] = e[i + 1] = 1
        gens.append(tuple(e))
    return make_ideal(n, gens)


def path_family_size(ideal: MonomialIdeal):
    """n when the ideal is exactly the n-variable path edge ideal, else None."""
    n = ideal.num_vars
    if n < 2:
        return None
    return n if ideal == path_ideal(n) else None


def path_betti(n: int, k: int, i: int, j: int) -> int:
    for name, value in (("n", n), ("k", k), ("i", i), ("j", j)):
        require_int(value, name)
    if n < 2 or k < 1 or i < 0 or j < 0:
        raise InputError(f"parameters out of range: n={n}, k={k}, i={i}, j={j}")
    if i == 0:
        return 1 if j == 0 else 0
    return _product(n, k, i, j)


def _product(n: int, k: int, i: int, j: int) -> int:
    """The triple binomial product at i >= 1, on checked parameters.

    Each factor C(a, b) follows exact_arith.binom: 1 when b = 0, for every
    a; 0 when b < 0, or b > 0 and a < b.  All three ranges are checked
    before any `comb`, so a zero factor costs no large binomial.
    """
    factors = (
        (n + 3 * k - j - 2, 2 * j - 3 * i - 3 * k + 3),
        (n + 4 * k + 2 * i - 2 * j - 4, 2 * k + 2 * i - j - 2),
        (j - i - k, k - 1),
    )
    if any(b and (b < 0 or a < b) for a, b in factors):
        return 0
    return prod(comb(a, b) for a, b in factors if b)


def path_diagram(n: int, k: int) -> BettiDiagram:
    """All nonzero values over the scan box 0 <= i <= n, i <= j <= 2k+n.

    For i >= 1 only the band max((3i+3k-3)/2, 2k+i-1) <= j <= 2k+2i-2 is
    evaluated: below (3i+3k-3)/2 or above 2k+2i-2 the lower index of the
    first or the second binomial is negative, and below 2k+i-1 the third
    binomial C(j-i-k, k-1) is 0 (at k = 1 that bound is never the larger).
    The band has at most i cells per row, so the cost does not grow with k.
    """
    require_int(n, "n")
    require_int(k, "k")
    if n < 2 or k < 1:
        raise InputError(f"parameters out of range: n={n}, k={k}")
    entries = {(0, 0): 1}
    for i in range(1, n + 1):
        low = max((3 * i + 3 * k - 2) // 2, 2 * k + i - 1)
        for j in range(low, min(2 * k + 2 * i - 2, 2 * k + n) + 1):
            if v := _product(n, k, i, j):
                entries[(i, j)] = v
    return BettiDiagram(entries)
