"""Brute-force multigraded Betti numbers via Koszul strand homology.

For a monomial ideal I in n variables and a multidegree a, the strand of
the Koszul complex tensored with S/I has, in homological degree i, one
basis element per subset sigma of {1..n} with |sigma| = i such that
a - e_sigma is nonnegative and x^(a - e_sigma) lies outside I (the quotient
has a monomial basis, so each summand is either one-dimensional or zero).
These subsets are read off the upper Koszul simplicial complex K^a(I)
(Miller & Sturmfels, Combinatorial Commutative Algebra, Thm 1.34): a
generator g dividing x^a divides x^(a - e_sigma) iff sigma misses its tight
set {t : g_t = a_t}, so sigma survives iff it lies in supp(a) and meets
every tight set.  The differential sends sigma to the signed sum of its
surviving facets:

    d(sigma) = sum_{l in sigma} (-1)^{#{t in sigma : t < l}} (sigma - {l})

All matrix entries are -1, 0, or +1 and d(d(x)) = 0.  The homology dimension
in degree i equals the multigraded Betti number of the quotient,

    dim H_i = nullity(d_i) - rank(d_{i+1}) = beta_{i,a}(S/I),

computed here by exact integer rank.  Aggregating dim H_i into (i, |a|) over
all candidate multidegrees yields the graded Betti diagram.  Candidates are
the exponent vectors bounded componentwise by the lcm of the generators
(Betti multidegrees of a monomial ideal lie in its lcm lattice) whose
support the tight sets cover: every positive coordinate of a must be
attained by some generator dividing x^a.  Candidates are visited once, in
lexicographic order, in a single thread.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import le

from .diagram import BettiDiagram
from .errors import InputError
from .exact_arith import matrix_rank
from .monomial_ideal import MonomialIdeal


def _tight_masks(ideal: MonomialIdeal, a) -> list:
    """Bitmask {t : g_t = a_t} of each generator g dividing x^a."""
    return [
        sum(1 << t for t, (gt, at) in enumerate(zip(g, a)) if gt == at)
        for g in ideal.generators
        if all(map(le, g, a))
    ]


def _strand_bases(ideal: MonomialIdeal, a):
    """Per homological degree, the surviving subsets sigma (sorted tuples)."""
    masks = _tight_masks(ideal, a)
    support = [t for t, at in enumerate(a) if at > 0]
    return [
        [
            sigma
            for sigma in combinations(support, i)
            if all(any(m >> t & 1 for t in sigma) for m in masks)
        ]
        for i in range(ideal.num_vars + 1)
    ]


def _boundary_matrix(target, source):
    """Matrix of the differential from `source` (columns) to `target` (rows)."""
    index = {sigma: r for r, sigma in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for c, sigma in enumerate(source):
        for pos, l in enumerate(sigma):
            face = sigma[:pos] + sigma[pos + 1 :]
            r = index.get(face)
            if r is not None:
                rows[r][c] = -1 if pos % 2 else 1
    return rows


def strand_homology(ideal: MonomialIdeal, a) -> tuple:
    """Homology dimensions (h_0, ..., h_n) of the strand in multidegree a."""
    a = tuple(int(x) for x in a)
    if len(a) != ideal.num_vars:
        raise InputError("multidegree length does not match num_vars")
    if any(x < 0 for x in a):
        raise InputError("multidegree must be componentwise nonnegative")
    bases = _strand_bases(ideal, a)
    n = ideal.num_vars
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        if bases[i] and bases[i - 1]:
            ranks[i] = matrix_rank(_boundary_matrix(bases[i - 1], bases[i]))
    return tuple(len(bases[i]) - ranks[i] - ranks[i + 1] for i in range(n + 1))


def _attained_everywhere(ideal: MonomialIdeal, a) -> bool:
    """Every positive coordinate of a is hit exactly by a dividing generator."""
    covered = 0
    for m in _tight_masks(ideal, a):
        covered |= m
    return all(covered >> t & 1 for t, at in enumerate(a) if at > 0)


def betti_oracle(ideal: MonomialIdeal, degree_bound: int | None = None) -> BettiDiagram:
    """Graded Betti diagram of S/I, complete up to the degree bound.

    The default bound (total degree of the generators' lcm) never truncates,
    because every Betti multidegree divides that lcm.  A smaller explicit
    bound silently yields a diagram complete only up to it.
    """
    cap = ideal.exponent_lcm()
    bound = sum(cap) if degree_bound is None else int(degree_bound)

    totals = {}
    for a in product(*(range(c + 1) for c in cap)):
        d = sum(a)
        if d > bound or not _attained_everywhere(ideal, a):
            continue
        for i, h in enumerate(strand_homology(ideal, a)):
            if h:
                totals[(i, d)] = totals.get((i, d), 0) + h
    return BettiDiagram(totals)
