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
to supp(a): `_strand_key`.  `betti_oracle` computes the homology once per
key, in a single thread.

Monomials are packed into one int each, in unary.  Variable t owns a field
of w_t = M_t + 1 bits, and a_t is stored as the run (1 << a_t) - 1 at the
bottom of its field.  M_t bounds a_t for every monomial packed: it is the
largest g_t on the lattice, and a_t itself in `_strand_key`, which packs
one multidegree a and only the generators dividing x^a.  Then lcm is `|`, g
divides x^a iff `not g & ~a`, and |a| is `a.bit_count()`.  Since a_t <= M_t,
the top bit of every field is 0: a guard bit.  In `a & ~(a >> 1)` the shift
moves the lowest bit of field t + 1 onto the guard of field t, where a is
0, so what is left is the top bit of each run, one per t in supp(a), and no
bit leaks across fields.  A divisor g has that bit set iff g_t = a_t > 0,
so `g & a & ~(a >> 1)` is g's tight set.  The keys keep the variable
bitmasks (supp(a), minimal tight sets).

Morse matching: the surviving sets S form an up-set in supp(a), and
`strand_homology` computes on the critical cells of one element matching
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

Cone rule: when the apex lies in no minimal tight set (and a != 0), every
set is matched and C_t is empty, so the strand is exact: sigma <-> sigma
xor {t} pairs the basis and K^a is a cone with apex t.  `betti_oracle`
skips those keys without calling `strand_homology`; the tests check the
rule, and every apex, against the full computation.
"""

from __future__ import annotations

from functools import reduce
from operator import le, or_

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


def _unpack(fields, x) -> tuple:
    """The exponent tuple of a packed monomial (inverse of `_pack`)."""
    return tuple((x & field).bit_count() for field in fields)


def _variables(fields, x) -> int:
    """Bitmask of the variables whose field meets x."""
    return sum(1 << t for t, field in enumerate(fields) if x & field)


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


def _packed_key(fields, generators, a) -> tuple:
    """(supp(a), inclusion-minimal tight sets within it) as variable bitmasks.

    Tight sets are taken smallest first, so a set is minimal iff it
    contains none of the minimal sets found before it.
    """
    outside, top = ~a, a & ~(a >> 1)
    minimal = []
    for m in sorted({g & top for g in generators if not g & outside}, key=int.bit_count):
        for s in minimal:
            if s & m == s:
                break
        else:
            minimal.append(m)
    return _variables(fields, top), frozenset(_variables(fields, m) for m in minimal)


def _strand_key(ideal: MonomialIdeal, a) -> tuple:
    """`_packed_key` of a multidegree tuple, on fields of width a_t + 1.

    Only the generators dividing x^a are packed: they fit those fields.
    """
    fields = _fields(a)
    divisors = [_pack(fields, g) for g in ideal.generators if all(map(le, g, a))]
    return _packed_key(fields, divisors, _pack(fields, a))


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
    with it (so sigma - apex does not).  The one cell of an empty support
    survives iff there are no masks.
    """
    support, masks = key
    bases = [[] for _ in range(n + 1)]
    if not support:
        if not masks:
            bases[0].append(0)
        return bases
    outer = [m for m in masks if not m & apex]
    inner = [m ^ apex for m in masks if m & apex]
    rest = support ^ apex
    rho = rest
    while True:
        if all(rho & m for m in outer) and not all(rho & m for m in inner):
            bases[rho.bit_count() + 1].append(rho | apex)
        if not rho:
            return bases
        rho = (rho - 1) & rest


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


def strand_homology(ideal: MonomialIdeal, a) -> tuple:
    """Homology dimensions (h_0, ..., h_n) of the strand in multidegree a.

    Computed on the critical cells of the matching on `_apex`'s variable.
    """
    a = tuple(require_int(x, "multidegree entry") for x in a)
    if len(a) != ideal.num_vars:
        raise InputError("multidegree length does not match num_vars")
    if any(x < 0 for x in a):
        raise InputError("multidegree must be componentwise nonnegative")
    key = _strand_key(ideal, a)
    return _homology(_critical_bases(ideal.num_vars, key, _apex(key)))


def betti_oracle(ideal: MonomialIdeal, degree_bound: int | None = None) -> BettiDiagram:
    """Graded Betti diagram of S/I, complete up to the degree bound.

    `None` never truncates.  An explicit bound must be nonnegative, and
    silently yields a diagram complete only up to it.
    """
    if degree_bound is not None and require_int(degree_bound, "degree bound") < 0:
        raise InputError("degree bound must be nonnegative")
    fields = _fields(ideal.exponent_lcm())
    generators = [_pack(fields, g) for g in ideal.generators]
    homology = {}  # strand key -> strand_homology of any point with it; () for a cone
    totals = {}
    for a in _lcm_lattice(generators, degree_bound):
        key = _packed_key(fields, generators, a)
        if key not in homology:
            homology[key] = () if _is_cone(key) else strand_homology(ideal, _unpack(fields, a))
        d = a.bit_count()
        for i, h in enumerate(homology[key]):
            if h:
                totals[(i, d)] = totals.get((i, d), 0) + h
    return BettiDiagram(totals)
