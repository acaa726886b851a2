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

computed here by exact integer rank, and dim H_i summed into (i, |a|) over
the Betti multidegrees is the graded Betti diagram.  These lie in the lcm
lattice L(I), the lcms of sets of generators (Gasharov, Peeva & Welker,
"The lcm-lattice in monomial resolutions", 1999), which `_lcm_lattice`
builds as a fold over the generators: starting from {0}, each generator g
adds lcm(a, g) for every point a so far, so after g_1..g_j the set is
exactly {lcm(S) : S a subset of {g_1..g_j}}.  Since sigma
lies in supp(a) and meets a tight set whenever it meets a subset of it, the
strand depends only on supp(a) and the inclusion-minimal tight sets cut down
to supp(a): `_strand_key`.  `betti_oracle` computes the homology once per
key, in a single thread.
"""

from __future__ import annotations

from itertools import combinations
from operator import le

from .diagram import BettiDiagram
from .errors import InputError
from .exact_arith import matrix_rank, require_int
from .monomial_ideal import MonomialIdeal


def _lcm_lattice(ideal: MonomialIdeal) -> set:
    """L(I): every lcm of a set of generators (the empty set gives 0)."""
    lattice = {(0,) * ideal.num_vars}
    for g in ideal.generators:
        lattice |= {tuple(map(max, a, g)) for a in lattice}
    return lattice


def _strand_key(ideal: MonomialIdeal, a) -> tuple:
    """(supp(a), inclusion-minimal tight sets within it) as bitmasks."""
    support = sum(1 << t for t, at in enumerate(a) if at > 0)
    masks = {
        sum(1 << t for t, (gt, at) in enumerate(zip(g, a)) if gt == at > 0)
        for g in ideal.generators
        if all(map(le, g, a))
    }
    return support, frozenset(m for m in masks if not any(s & m == s != m for s in masks))


def _strand_bases(ideal: MonomialIdeal, a):
    """Per homological degree, the surviving subsets sigma (sorted tuples)."""
    bits, masks = _strand_key(ideal, a)
    support = [t for t in range(ideal.num_vars) if bits >> t & 1]
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
    a = tuple(require_int(x, "multidegree entry") for x in a)
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


def betti_oracle(ideal: MonomialIdeal, degree_bound: int | None = None) -> BettiDiagram:
    """Graded Betti diagram of S/I, complete up to the degree bound.

    `None` never truncates.  An explicit bound silently yields a diagram
    complete only up to it.
    """
    if degree_bound is not None:
        require_int(degree_bound, "degree bound")
    homology = {}  # strand key -> strand_homology of any point with that key
    totals = {}
    for a in _lcm_lattice(ideal):
        d = sum(a)
        if degree_bound is not None and d > degree_bound:
            continue
        key = _strand_key(ideal, a)
        if key not in homology:
            homology[key] = strand_homology(ideal, a)
        for i, h in enumerate(homology[key]):
            if h:
                totals[(i, d)] = totals.get((i, d), 0) + h
    return BettiDiagram(totals)
