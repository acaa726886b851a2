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

computed here by exact integer rank on the critical cells of a Morse
matching (below), and dim H_i summed into (i, |a|) over
the Betti multidegrees is the graded Betti diagram.  These lie in the lcm
lattice L(I), the lcms of sets of generators (Gasharov, Peeva & Welker,
"The lcm-lattice in monomial resolutions", 1999), which `_lcm_lattice`
builds as a fold over the generators: starting from {0}, each generator g
adds lcm(a, g) for every point a so far, so after g_1..g_j the set is
exactly {lcm(S) : S a subset of {g_1..g_j}}.  Since sigma
lies in supp(a) and meets a tight set whenever it meets a subset of it, the
strand depends only on supp(a) and the inclusion-minimal tight sets cut down
to supp(a): the strand key.  `betti_oracle` counts the lattice points per
(key, degree) and computes the homology once per distinct key, in a single
thread; a key's homology, times the number of its points of degree d, adds
into the diagram's column d.

Monomials are packed into one int each, in unary.  Variable t owns a field
of w_t = M_t + 1 bits, and a_t is stored as the run (1 << a_t) - 1 at the
bottom of its field.  M_t is the largest g_t on the lattice, and a_t itself
in `_strand_key`.  Then lcm is `|` and |a| is `a.bit_count()`.  The top bit
of every field stays 0, a guard bit that the tests' generator-scan
reference key relies on.

Divisor index: `_divisor_index` maps, per variable t, each packed field
value a & field_t to two generator bitsets, le_t = {g : g_t <= a_t} and
eq_t = {g : g_t = a_t > 0}.  At a point a the divisors are D = AND_t le_t,
n dict lookups and no scan over the generators, and the generators tight
at t are E_t = eq_t & D, so g in D has the tight set T(g) = {t : g in E_t}.

Descent (`_indexed_key`): start with R = D.  For j in R and tau = T(j),
above = R & AND_{t in tau} E_t is {g in R : T(g) contains tau}, outside =
OR_{t not in tau} E_t is {g : T(g) not inside tau}, so below = R - outside -
above is {g in R : T(g) strictly inside tau}.  While below is non-empty, j
moves into it and |tau| drops; when it is empty, no tight set in R lies
strictly inside tau.  None removed earlier does either: a removed g has
T(g) containing an earlier emitted tau', and T(g) strictly inside tau would
put j, with T(j) = tau containing tau', among the generators removed with
tau'.  So tau is minimal over D.  R then loses `above`, the generators whose
tight set contains tau: none of them carries another minimal set, and no
later round can emit tau again.  Each round removes j, so the rounds emit
exactly the minimal tight sets, as variable bitmasks.

Morse matching: the surviving sets S form an up-set in supp(a), and
`_key_homology` computes on the critical cells of one element matching
(Forman, "Morse theory for cell complexes", 1998; Joellenbeck & Welker,
"Minimal resolutions via algebraic discrete Morse theory", Mem. AMS 2009).
For an apex t in supp(a), pair sigma - {t} with sigma whenever both
survive; an element matching is acyclic.  A surviving sigma without t is
always matched upward, since S is an up-set, so the critical cells are
C_t = {sigma : t in sigma in S, sigma - {t} not in S}.  A face sigma - {l}
of a critical cell with l != t still contains t: it is critical or the
upper end of a pair, never a lower end, so no gradient path runs between
critical cells and the Morse differential is d restricted to C_t, with the
same signs.  The homology is that of the strand, by exact rank on the
smaller matrices.  The apex is the support variable in the fewest minimal
tight sets, lowest index on ties.

`_critical_bases` finds C_t with bit-parallel truth tables, not a walk over
the subsets.  Let b_0 < ... < b_{r-1} be the variables of supp(a) - {t}.  A
table is an int of 2^r bits whose bit idx stands for the rho holding b_i
for each set bit i of idx.  The rho that contain b_i form the column
full // (2^(2h) - 1) * ((2^h - 1) << h) with h = 2^i and full = 2^(2^r) - 1:
in each block of 2h bits, the upper h.  "rho meets m" is the OR of the
columns of m's variables.  sigma = rho | {t} survives iff rho meets every
mask without t, so keep is the AND of those tables; sigma - {t} survives
iff rho meets m - {t} for every mask m with t, so inner is the AND of
those.  The set bits of keep & ~inner are C_t.  That is O(|masks| r)
operations on 2^r-bit ints in place of 2^r Python steps that each test
every mask.

Cone rule: when the apex lies in no minimal tight set (and a != 0), every
set is matched and C_t is empty, so the strand is exact: sigma <-> sigma
xor {t} pairs the basis and K^a is a cone with apex t.  `betti_oracle`
skips those keys without building their cells; the tests check the rule,
and every apex, against the full computation.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import or_

from .diagram import BettiDiagram
from .errors import InputError
from .exact_arith import matrix_rank, require_int
from .monomial_ideal import MonomialIdeal


def _fields(bounds) -> list:
    """Bit mask of each variable's field: bounds[t] + 1 bits, variable 0 lowest."""
    fields, offset = [], 0
    for bound in bounds:
        fields.append(((2 << bound) - 1) << offset)
        offset += bound + 1
    return fields


def _pack(fields, a) -> int:
    """x^a as one int: a_t ones at the bottom of field t."""
    return sum(((1 << at) - 1) * (field & -field) for field, at in zip(fields, a))


def _lcm_lattice(generators, degree_bound=None) -> set:
    """Packed L(I) up to the degree bound: every lcm of a set of packed generators.

    A point above the bound is dropped as soon as it appears: an lcm only
    grows, so nothing folded from it can come back under the bound.
    """
    lattice = {0}
    for g in generators:
        if degree_bound is None:
            lattice |= {a | g for a in lattice}
        else:
            lattice |= {b for a in lattice if (b := a | g).bit_count() <= degree_bound}
    return lattice


def _divisor_index(fields, generators) -> list:
    """Per variable t: (1 << t, field_t, {packed a_t: (le_t, eq_t)}).

    le_t and eq_t are bitsets over the positions of the exponent tuples in
    `generators`: g_t <= a_t, and g_t = a_t > 0.  One entry for each a_t
    from 0 to the field's bound; a generator above the bound is in no le_t.
    """
    index = []
    for t, field in enumerate(fields):
        low, table, le = field & -field, {}, 0
        for v in range(field.bit_count()):
            eq = sum(1 << j for j, g in enumerate(generators) if g[t] == v)
            le |= eq
            table[((1 << v) - 1) * low] = (le, eq if v else 0)
        index.append((1 << t, field, table))
    return index


def _indexed_key(index, a) -> tuple:
    """(supp(a), inclusion-minimal tight sets of the divisors) as variable bitmasks.

    The divisors are the AND of le_t and the generators tight at t are
    eq_t & divisors.  The minimal sets are found by descent (module
    docstring), without a scan over the generators.
    """
    divisors, support, eqs = -1, 0, []
    for bit, field, table in index:
        x = a & field
        le, eq = table[x]
        divisors &= le
        if x:
            support |= bit
            eqs.append((bit, eq))
    tight = [(bit, e) for bit, eq in eqs if (e := eq & divisors)]
    minimal, rest = [], divisors
    while rest:
        j = rest & -rest
        while True:
            tau, above, outside = 0, rest, 0
            for bit, e in tight:
                if j & e:
                    tau |= bit
                    above &= e
                else:
                    outside |= e
            below = rest & ~(outside | above)
            if not below:
                break
            j = below & -below
        minimal.append(tau)
        rest &= ~above
    return support, frozenset(minimal)


def _strand_key(ideal: MonomialIdeal, a) -> tuple:
    """`_indexed_key` of a multidegree tuple, on fields of width a_t + 1."""
    fields = _fields(a)
    return _indexed_key(_divisor_index(fields, ideal.generators), _pack(fields, a))


def _is_cone(key) -> bool:
    """Some t in supp(a) lies in no minimal tight set, so the strand is exact."""
    support, masks = key
    return bool(support & ~reduce(or_, masks, 0))


def _apex(key) -> int:
    """The support variable in the fewest minimal tight sets, lowest on ties, as a bit."""
    support, masks = key
    bits = [1 << t for t in range(support.bit_length()) if support >> t & 1]
    return min(bits, key=lambda bit: sum(1 for m in masks if m & bit), default=0)


def _critical_bases(n, key, apex):
    """Per homological degree, the critical cells of the apex matching, as bitmasks.

    sigma = rho | apex with rho in supp - apex is critical iff rho meets
    every mask without the apex (so sigma survives) and misses some mask
    with it (so sigma - apex does not).  Both tests run on truth tables
    over the 2^r subsets rho of the r variables in supp - apex (module
    docstring).  The one cell of an empty support survives iff there are
    no masks.
    """
    support, masks = key
    bases = [[] for _ in range(n + 1)]
    if not support:
        if not masks:
            bases[0].append(0)
        return bases
    rest = support ^ apex
    bits = [1 << t for t in range(rest.bit_length()) if rest >> t & 1]
    full = (1 << (1 << len(bits))) - 1
    columns = []  # per bit: the table of the rho that contain it
    for i, bit in enumerate(bits):
        half = 1 << i
        columns.append((bit, full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)))
    keep, inner = full, full
    for m in masks:
        meets = 0
        for bit, column in columns:
            if m & bit:
                meets |= column
        if m & apex:
            inner &= meets
        else:
            keep &= meets
    cells = keep & ~inner
    while cells:
        low = cells & -cells
        index = low.bit_length() - 1
        sigma = apex
        for i, (bit, _) in enumerate(columns):
            if index >> i & 1:
                sigma |= bit
        bases[sigma.bit_count()].append(sigma)
        cells ^= low
    return bases


def _boundary_matrix(target, source):
    """Matrix of the differential from `source` (columns) to `target` (rows)."""
    index = {sigma: r for r, sigma in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for c, sigma in enumerate(source):
        rest, sign = sigma, 1
        while rest:
            low = rest & -rest
            r = index.get(sigma ^ low)
            if r is not None:
                rows[r][c] = sign
            rest ^= low
            sign = -sign
    return rows


def _homology(bases) -> tuple:
    """Homology dimensions of the complex on `bases` under the restricted differential."""
    ranks = [0] * (len(bases) + 1)
    for i in range(1, len(bases)):
        if bases[i] and bases[i - 1]:
            ranks[i] = matrix_rank(_boundary_matrix(bases[i - 1], bases[i]))
    return tuple(len(basis) - ranks[i] - ranks[i + 1] for i, basis in enumerate(bases))


def _key_homology(n, key) -> tuple:
    """Homology of the strand with this key, on the critical cells of `_apex`'s matching."""
    return _homology(_critical_bases(n, key, _apex(key)))


def strand_homology(ideal: MonomialIdeal, a) -> tuple:
    """Homology dimensions (h_0, ..., h_n) of the strand in multidegree a.

    Computed on the critical cells of the matching on `_apex`'s variable.
    """
    a = tuple(require_int(x, "multidegree entry") for x in a)
    if len(a) != ideal.num_vars:
        raise InputError("multidegree length does not match num_vars")
    if any(x < 0 for x in a):
        raise InputError("multidegree must be componentwise nonnegative")
    return _key_homology(ideal.num_vars, _strand_key(ideal, a))


def betti_oracle(ideal: MonomialIdeal, degree_bound: int | None = None) -> BettiDiagram:
    """Graded Betti diagram of S/I, complete up to the degree bound.

    `None` never truncates.  An explicit bound must be nonnegative, and
    silently yields a diagram complete only up to it.
    """
    if degree_bound is not None and require_int(degree_bound, "degree bound") < 0:
        raise InputError("degree bound must be nonnegative")
    fields = _fields(ideal.exponent_lcm())
    index = _divisor_index(fields, ideal.generators)
    generators = [_pack(fields, g) for g in ideal.generators]
    points = Counter(
        (_indexed_key(index, a), a.bit_count()) for a in _lcm_lattice(generators, degree_bound)
    )
    homology = {}  # strand key -> its homology; () for a cone
    totals = {}
    for (key, d), count in points.items():
        if key not in homology:
            homology[key] = () if _is_cone(key) else _key_homology(ideal.num_vars, key)
        for i, h in enumerate(homology[key]):
            if h:
                totals[(i, d)] = totals.get((i, d), 0) + h * count
    return BettiDiagram(totals)
