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
"The lcm-lattice in monomial resolutions", 1999), which `_pruned_lattice`
builds as a fold over the generators: starting from {0}, each generator g
adds lcm(a, g) for every point a kept so far.  Since sigma
lies in supp(a) and meets a tight set whenever it meets a subset of it, the
strand depends only on supp(a) and the inclusion-minimal tight sets cut down
to supp(a): the strand key.  The fold counts the kept points per
(key, degree), and `betti_oracle` reads each key's homology from a memo
of shapes (below) that lasts for the process; a key's homology, times the
number of its points of degree d, adds into the diagram's column d.

Pruning: the fold keeps a new point a only if it passes two tests, and
never expands a point it drops.
(i) No divisor is tight at no variable.  A divisor g with g_t < a_t for
every t in supp(a) divides x^(a - 1_supp(a)), and so x^(a - e_sigma) for
every subset sigma of supp(a): the strand is zero.  `_lookup` returns
`divisors & ~(OR of the E_t)` with the key's other fields, from an OR of
the eq_t that each half-point entry holds, so the fold tests it with no
pass over the E_t.
(ii) |a| - |supp a| <= reg(S/I), when that is known.  beta_{i,a} != 0
needs i <= |supp a|, since the strand lives on the subsets of supp(a), and
|a| - i <= reg(S/I).  `edge_power_regularity` knows reg(S/I) for
I = I(G)^k with G a forest (k >= 1) or a cycle (k >= 2): Beyarslan, Ha &
Trung ("Regularity of powers of forests and cycles", J. Algebraic
Combin. 42, 2015) prove reg(I(G)^k) = 2k + nu(G) - 1, nu the induced
matching number.
Each test fails upward: if b >= a then b - 1_supp(b) >= a - 1_supp(a)
componentwise, so a divisor of the one monomial in (i) divides the other,
and the excess in (ii) does not fall.  A point of L is b = lcm(S); take S
in fold order, and every prefix lcm of S lies below b.  So if b passes,
each prefix passes and is kept when its generator is folded in, and b is
reached.  The fold therefore keeps exactly the points of L that pass both
tests.  A point that fails either has zero homology, so the diagram is
always complete.

Monomials are packed into one int each, in unary.  Variable t owns a field
of w_t = M_t + 1 bits, and a_t is stored as the run (1 << a_t) - 1 at the
bottom of its field.  M_t is the largest g_t on the lattice, and a_t itself
in `_strand_key`.  Then lcm is `|` and |a| is `a.bit_count()`.  The top bit
of every field stays 0, a guard bit: in `a & a >> 1` the lowest bit of
field t + 1 lands on it and is cleared, so each field keeps a_t - 1 ones
and `(a & a >> 1).bit_count()` is |a| - |supp a|.  The tests'
generator-scan reference key relies on the guard bit too.

Divisor index: `_divisor_index` maps, per variable t, the packed field
values a & field_t that a lookup can meet (0, the field's bound and the
g_t) to two generator bitsets, le_t = {g : g_t <= a_t} and
eq_t = {g : g_t = a_t > 0}, built in one pass over the generators per
variable.  At a point a the divisors are D = AND_t le_t, with no scan
over the generators, and the generators tight at t are E_t = eq_t & D, so
g in D has the tight set T(g) = {t : g in E_t}.

Half-point memo: the index splits the variables into the first n // 2
and the rest.  The entry of a half-point (a on one half's fields) holds
the AND of its le_t, its support bits, its (bit of t, eq_t) pairs and the
OR of those eq_t, and `_lookup` joins a's two entries, D being the AND of
their le.  The fold's points share most half-points, so it keeps the
entries in two dicts for one call, and a lookup is mostly two dict hits
and one AND.

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

Orbits: a permutation sigma of the variables that maps the generator set
onto itself (`automorphisms` finds generators S of their group) maps
L(I) onto itself and keeps |a| and |supp a|.  g divides x^a iff sigma(g)
divides x^sigma(a), with tight set sigma(T(g)), so test (i) holds at
sigma(a) iff it holds at a, and the strand of sigma(a) is that of a with
its variables renamed: its homology, beta_{i,sigma(a)}(S/I) =
beta_{i,a}(S/I), is the same.  M_sigma(t) = M_t, so sigma moves field t
onto a field of the same width, and sigma(a) is the OR of the images of
a's two half-points, which the fold memoizes per half-point as it does the
index entries.  The only orbit memo is the set `pending` of kept points
that are counted but not yet formed.  When a lookup keeps a point b, the
fold closes b's orbit under S by breadth-first search into `pending` and
adds the orbit's size under b's key and degree; a pending point, when
formed, leaves the set and is kept with no lookup.  No point of b's orbit
was counted before (else b would be pending) or dropped (an orbit fails
either test whole), so each kept orbit is looked up and counted once.  A
dropped point gets no memo: each point of its orbit that the fold forms
is looked up again.  The fold reaches every kept point, so `pending` is
empty when it returns.  The kept set, and which points are classified,
do not change with S; only the keys the points are counted under do.

Shapes: a strand's signs and matrices depend on supp(a) only through the
order of its variables, so `_shape` relabels a key onto bits 0..r-1
(r = |supp a|) in that order.  The homology depends on the shape alone, not
on the ideal, n or k, so `_key_homology` memoizes it for the process:
ideals with different n, and the powers of one ideal, share entries.  Keys
share a shape only when their supports line up in the same order, so
`oracle_plan` packs the variables in `_locality_order`, read off the
generators' co-occurrence counts, not as labelled.  On a path or a cycle,
however labelled, that is the path's order or its reverse, or a cyclic
order, so a relabelled path computes the shapes of the path in order.  Every
order is exact: it renames the variables of the generators, the fields and
the automorphisms alike, and the diagram does not depend on their names.

Morse matching: the surviving sets S form an up-set in supp(a), and
`_key_homology` computes dimensions over 0..|supp a| on the critical cells
of one element matching (Forman, "Morse theory for cell complexes", 1998;
Joellenbeck & Welker, "Minimal resolutions via algebraic discrete Morse
theory", Mem. AMS 2009).
For an apex t in supp(a), pair sigma - {t} with sigma whenever both
survive; an element matching is acyclic.  A surviving sigma without t is
always matched upward, since S is an up-set, so the critical cells are
C_t = {sigma : t in sigma in S, sigma - {t} not in S}.  A face sigma - {l}
of a critical cell with l != t still contains t: it is critical or the
upper end of a pair, never a lower end, so no gradient path runs between
critical cells and the Morse differential is d restricted to C_t, with the
same signs.  The homology is that of the strand, by exact rank on the
smaller matrices; a matrix with one row or one column has rank 1 iff some
entry is non-zero.  The apex is the support variable in the fewest minimal
tight sets, lowest index on ties.

`_critical_bases` finds C_t with bit-parallel truth tables, not a walk over
the subsets.  On a shape, the r = |supp a| - 1 variables of supp(a) - {t}
are b_i = i below t and i + 1 above it.  A table is an int of 2^r bits
whose bit idx stands for the rho holding b_i for each set bit i of idx.
The rho that contain b_i form the column
full // (2^(2h) - 1) * ((2^h - 1) << h) with h = 2^i and full = 2^(2^r) - 1:
in each block of 2h bits, the upper h.  "rho meets m" is the OR of the
columns of m's variables.  sigma = rho | {t} survives iff rho meets every
mask without t, so keep is the AND of those tables; sigma - {t} survives
iff rho meets m - {t} for every mask m with t, so inner is the AND of
those.  The set bits of keep & ~inner are C_t.  That is O(|masks| r)
operations on 2^r-bit ints in place of 2^r Python steps that each test
every mask.  The columns depend on r alone, so `_columns` is memoized for
the process, as the homology is: one table per support size.

Cone rule: when the apex lies in no minimal tight set (and a != 0), every
set is matched and C_t is empty, so the strand is exact: sigma <-> sigma
xor {t} pairs the basis and K^a is a cone with apex t.  `betti_oracle`
skips those keys without building their cells; the tests check the rule,
and every apex, against the full computation.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import itemgetter, mul, or_

from .diagram import BettiDiagram
from .errors import InputError
from .exact_arith import matrix_rank, require_int
from .monomial_ideal import MonomialIdeal, is_equigenerated


def _fields(bounds) -> list:
    """Bit mask of each variable's field: bounds[t] + 1 bits, variable 0 lowest.
    Raises InputError above 2^27 bits in all, 16 MB per point, before any is built."""
    if (width := sum(bounds) + len(bounds)) > 1 << 27:
        raise InputError(f"a packed monomial would take {width} bits, over the cap of 2^27")
    fields, offset = [], 0
    for bound in bounds:
        fields.append(((2 << bound) - 1) << offset)
        offset += bound + 1
    return fields


def _pack(fields, a) -> int:
    """x^a as one int: a_t ones at the bottom of field t."""
    return sum(((1 << at) - 1) * (field & -field) for field, at in zip(fields, a))


def _divisor_index(fields, generators) -> tuple:
    """Per half of the variables, low (the first n // 2) then high: (mask of
    their fields, [(1 << t, field_t, {packed a_t: (le_t, eq_t)}) per t in it]).

    le_t and eq_t are bitsets over the positions of the exponent tuples in
    `generators`: g_t <= a_t, and g_t = a_t > 0.  Entries exist only at
    a_t = 0, at the field's bound and at each g_t within the bound: every
    point of the fold is an lcm of generators, so each of its coordinates is
    0 or some g_t, and `_strand_key` looks up a_t at the bound.  The index
    thus grows with the number of generators, not with the exponents.  A
    generator above the bound is in no le_t.
    """
    bits = [1 << j for j in range(len(generators))]
    variables = []
    for t, field in enumerate(fields):
        low, top = field & -field, field.bit_count() - 1
        eqs = {0: 0, top: 0}  # g_t -> {g : g_t = that value}, in one pass
        for bit, g in zip(bits, generators):
            if (v := g[t]) <= top:
                eqs[v] = eqs.get(v, 0) | bit
        table, le = {}, 0
        for v in sorted(eqs):
            le |= eqs[v]
            table[((1 << v) - 1) * low] = (le, eqs[v] if v else 0)
        variables.append((1 << t, field, table))
    split = len(fields) // 2
    return (sum(fields[:split]), variables[:split]), (sum(fields[split:]), variables[split:])


def _half_entry(half, x) -> tuple:
    """(AND of le_t, support bits, ((bit of t, eq_t), ...) for t in supp x,
    OR of those eq_t) over one half."""
    divisors, support, eqs, eq_union = -1, 0, [], 0
    for bit, field, table in half:
        y = x & field
        le, eq = table[y]
        divisors &= le
        if y:
            support |= bit
            eqs.append((bit, eq))
            eq_union |= eq
    return divisors, support, tuple(eqs), eq_union


def _lookup(index, a, memos) -> tuple:
    """(supp(a), the divisors D, [(bit of t, E_t)] for each t with E_t non-empty,
    the divisors tight at no variable, D & ~(OR of the E_t)).

    The join of the entries of a's two halves, each memoized by its
    half-point in its dict of `memos` (module docstring).  E_t = eq_t & D,
    so the last field is D & ~(OR of the halves' eq_t), with no pass over
    the E_t.
    """
    (low_mask, low), (high_mask, high) = index
    low_memo, high_memo = memos
    x, y = a & low_mask, a & high_mask
    if (low_entry := low_memo.get(x)) is None:
        low_entry = low_memo[x] = _half_entry(low, x)
    if (high_entry := high_memo.get(y)) is None:
        high_entry = high_memo[y] = _half_entry(high, y)
    divisors = low_entry[0] & high_entry[0]
    tight = [(bit, e) for bit, eq in low_entry[2] + high_entry[2] if (e := eq & divisors)]
    untight = divisors & ~(low_entry[3] | high_entry[3])
    return low_entry[1] | high_entry[1], divisors, tight, untight


def _minimal_tight_sets(divisors, tight) -> frozenset:
    """The inclusion-minimal tight sets over the divisors, by descent (module docstring)."""
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
    return frozenset(minimal)


def _indexed_key(index, a) -> tuple:
    """(supp(a), inclusion-minimal tight sets of the divisors) as variable bitmasks."""
    support, divisors, tight, _ = _lookup(index, a, ({}, {}))
    return support, _minimal_tight_sets(divisors, tight)


def _strand_key(ideal: MonomialIdeal, a) -> tuple:
    """`_indexed_key` of a multidegree tuple, on fields of width a_t + 1."""
    fields = _fields(a)
    return _indexed_key(_divisor_index(fields, ideal.generators), _pack(fields, a))


def _is_cone(key) -> bool:
    """Some t in supp(a) lies in no minimal tight set, so the strand is exact."""
    support, masks = key
    return bool(support & ~reduce(or_, masks, 0))


def _shape(key) -> tuple:
    """The key relabelled onto bits 0..r-1, r = |supp|, in the order of its support:
    each gap in the support, highest first, is closed by moving the bits above it down."""
    support, masks = key
    gaps = ~support & ((1 << support.bit_length()) - 1)
    while gaps:
        below = (1 << gaps.bit_length() - 1) - 1
        masks = frozenset([m & below | m >> 1 & ~below for m in masks])
        gaps &= below
    return (1 << support.bit_count()) - 1, masks


def _apex(shape) -> int:
    """The variable in the fewest masks of the shape, lowest on ties, as a bit (0: no support)."""
    support, masks = shape
    counts = [0] * support.bit_length()
    for m in masks:
        while m:
            counts[(m & -m).bit_length() - 1] += 1
            m &= m - 1
    return 1 << counts.index(min(counts)) if counts else 0


@cache
def _columns(r) -> tuple:
    """(full, columns) on truth tables over r variables: full = 2^(2^r) - 1,
    and columns[i], with h = 2^i, the table of the rho that contain b_i."""
    full = (1 << (1 << r)) - 1
    return full, [full // ((1 << 2 * h) - 1) * (((1 << h) - 1) << h)
                  for h in (1 << i for i in range(r))]


def _critical_bases(shape, apex):
    """Per homological degree 0..|supp|, the critical cells of the apex matching,
    as bitmasks, from truth tables on `_columns` (module docstring).  The one
    cell of an empty support survives iff there are no masks."""
    support, masks = shape
    bases = [[] for _ in range(support.bit_count() + 1)]
    if not support:
        if not masks:
            bases[0].append(0)
        return bases
    below, (full, columns) = apex - 1, _columns(support.bit_length() - 1)
    keep, inner = full, full
    for m in masks:
        rho, meets = m & below | m >> 1 & ~below, 0  # m - apex, as index bits
        while rho:
            low = rho & -rho
            meets |= columns[low.bit_length() - 1]
            rho ^= low
        if m & apex:
            inner &= meets
        else:
            keep &= meets
    cells = keep & ~inner
    while cells:
        low = cells & -cells
        index = low.bit_length() - 1
        sigma = apex | index & below | (index & ~below) << 1
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
            matrix = _boundary_matrix(bases[i - 1], bases[i])
            single = len(bases[i]) == 1 or len(bases[i - 1]) == 1  # one column or one row
            ranks[i] = int(any(map(any, matrix))) if single else matrix_rank(matrix)
    return tuple(len(basis) - ranks[i] - ranks[i + 1] for i, basis in enumerate(bases))


@cache
def _key_homology(shape) -> tuple:
    """Homology dimensions over 0..|supp| of the strand with this shape, on the
    critical cells of `_apex`'s matching, memoized for the process."""
    return _homology(_critical_bases(shape, _apex(shape)))


def strand_homology(ideal: MonomialIdeal, a) -> tuple:
    """Homology dimensions (h_0, ..., h_n) of the strand in multidegree a.

    Read from the memo of `_key_homology`, on the critical cells of the
    matching on `_apex`'s variable, and padded with zeros above |supp a|.
    """
    a = tuple(require_int(x, "multidegree entry") for x in a)
    if len(a) != ideal.num_vars:
        raise InputError("multidegree length does not match num_vars")
    if any(x < 0 for x in a):
        raise InputError("multidegree must be componentwise nonnegative")
    dims = _key_homology(_shape(_strand_key(ideal, a)))
    return dims + (0,) * (ideal.num_vars + 1 - len(dims))


def _induced_matching_number(edges, k) -> int | None:
    """nu(G), the most edges pairwise disjoint and with no edge of G between
    two, when the graph G on these vertex pairs is a forest, or a cycle and
    k >= 2; else None.

    One BFS per component.  A component is a tree iff its degrees sum to
    2|V_c| - 2; any other must be all of G and 2-regular, and then
    nu = |V| // 3.  On a tree, take v in reverse BFS order with parent u:
    if both are still present, count uv and remove u's neighbours, which
    leaves u isolated.  A child taken while its parent was present is gone
    afterwards, so each child of v, and each child of u taken before v, is
    gone.  u's other children precede v in BFS order, so their own children
    were taken, and they are leaves or gone.  An induced matching of what
    remains thus has at most one edge meeting N[u], at u or at u's parent,
    and swapping it for uv keeps it induced: some maximum one uses uv.  Each
    count lowers nu of what remains by one, and at the end no edge has both
    ends present.
    """
    neighbours = {}
    for u, v in edges:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    nu, parent, removed = 0, {}, set()
    for root in neighbours:
        if root in parent:
            continue
        parent[root], order = None, [root]
        for v in order:
            for w in neighbours[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        degrees = [len(neighbours[v]) for v in order]
        if sum(degrees) == 2 * len(order) - 2:
            for v in reversed(order):
                u = parent[v]
                if u is not None and v not in removed and u not in removed:
                    nu += 1
                    removed.update(neighbours[u])
        elif k >= 2 and len(order) == len(neighbours) and set(degrees) == {2}:
            nu = len(order) // 3
        else:
            return None
    return nu


def _sumset(p, q) -> set:
    """{a + b : a in p, b in q}, one step of `edge_power_regularity`."""
    return {a + b for a in p for b in q}


def edge_power_regularity(ideal: MonomialIdeal) -> int | None:
    """reg(S/I) when I = I(G)^k for a forest G, or for a cycle G and k >= 2; else None.

    Beyarslan, Ha & Trung (J. Algebraic Combin. 42, 2015) prove
    reg(I(G)^k) = 2k + nu(G) - 1 in both cases, nu the induced matching
    number, so reg(S/I) = 2k + nu(G) - 2.  I is recognised when it is
    equigenerated in degree 2k, its edges are the generators
    x_i^k x_j^k, one search of the edge graph finds it a forest or one
    cycle (isolated variables aside) and computes nu on the way
    (`_induced_matching_number` has the proof), and the k-fold edge
    products are exactly the generators.
    """
    equigenerated, degree = is_equigenerated(ideal)
    if not equigenerated or degree % 2:
        return None
    k, edges = degree // 2, []
    for g in ideal.generators:
        ends = [t for t, e in enumerate(g) if e]
        if len(ends) == 2 and g[ends[0]] == g[ends[1]] == k:
            edges.append(ends)
    if not edges or (nu := _induced_matching_number(edges, k)) is None:
        return None
    # Monomials as base-(2k + 1) ints: no exponent here exceeds 2k, so a
    # product is a sum with no carry.  The j-fold products P_j are built by
    # doubling, P_(a+b) = P_a + P_b, in O(log k) sumsets.  I(G)^j times a
    # fixed edge embeds in I(G)^(j+1), so |P_j| never falls as j grows, and
    # any P_j, j <= k, larger than the generators rules I out.
    weights = [(degree + 1) ** t for t in range(ideal.num_vars)]
    limit = len(ideal.generators)
    doubled, products, j = {weights[u] + weights[v] for u, v in edges}, {0}, k
    while True:  # doubled = P_(2^i); products = P_(k mod 2^i)
        if j & 1:
            products = _sumset(products, doubled)
            if len(products) > limit:
                return None
        if not (j := j >> 1):
            break
        doubled = _sumset(doubled, doubled)
        if len(doubled) > limit:
            return None
    if products != {sum(map(mul, g, weights)) for g in ideal.generators}:
        return None
    return 2 * k + nu - 2


def _cooccurrence(generators) -> tuple:
    """(exponent columns, supports, meets): supports[t] has bit j iff x_t
    occurs in generator j, and meets[t][u] = |supports[t] & supports[u]|."""
    columns = list(zip(*generators))
    # one byte per generator, 1 iff the variable occurs in it: AND and
    # bit_count then count the generators two variables share
    supports = [int.from_bytes(bytes(map(bool, column)), "little") for column in columns]
    return columns, supports, [[(s & u).bit_count() for u in supports] for s in supports]


def _locality_order(meets) -> list:
    """The variables in locality order: first the one sharing the fewest
    generators with the others, then each time the unvisited one sharing the
    most with the last taken, lowest index on ties."""
    shared = [sum(row) - row[t] for t, row in enumerate(meets)]
    order = [shared.index(min(shared))]
    rest = [t for t in range(len(meets)) if t != order[0]]
    while rest:
        row = meets[order[-1]]
        order.append(t := max(rest, key=row.__getitem__))  # the first maximum: lowest index
        rest.remove(t)
    return order


def automorphisms(ideal: MonomialIdeal) -> tuple:
    """(S, |G|): generators of G, the permutations of the variables that fix
    the generator set and every variable in no generator, and its order.

    Each element of S is a tuple perm with perm[t] the image of t.  A
    variable in no generator is fixed: moving it moves no lattice point.
    S is built bottom-up along the stabiliser chain with base 0..n-1, as in
    nauty's search with orbit pruning (McKay & Piperno, "Practical graph
    isomorphism II", 2014): at level i, for each v > i of i's profile that
    the elements found so far do not map i to, search for an element that
    fixes 0..i-1 and maps i to v.  A candidate image must have the same
    profile (sorted exponent column, sorted co-occurrence counts
    |supp_t & supp_u| over the generators) and the same co-occurrence count
    with every image assigned before it; a leaf is accepted only if it maps
    the generator set onto itself.  Every element found joins two orbits of
    the group generated before it, so |S| <= n - 1, and |G| is the product
    of the level orbit lengths.
    """
    n, generators = ideal.num_vars, ideal.generators
    columns, supports, meets = _cooccurrence(generators)
    profiles = [(sorted(column), sorted(row)) for column, row in zip(columns, meets)]
    used = [t for t in range(n) if supports[t]]
    generator_set = set(generators)

    def extend(perm, rest, assigned, free):
        """Complete perm on `rest` from the images `free`, depth first; True at an automorphism."""
        if not rest:
            inverse = [0] * n
            for t, image in enumerate(perm):
                inverse[image] = t
            return generator_set.issuperset(map(itemgetter(*inverse), generators))
        w, row = rest[0], meets[rest[0]]
        for x in free:
            if profiles[x] == profiles[w] and all(row[u] == meets[x][perm[u]] for u in assigned):
                perm[w] = x
                if extend(perm, rest[1:], assigned + [w], [y for y in free if y != x]):
                    return True
        return False

    perms, order = [], 1
    for i in reversed(used):
        orbit, rest = [i], [t for t in used if t > i]
        for v in rest:
            if profiles[v] != profiles[i] or v in orbit:
                continue
            perm = list(range(n))
            perm[i] = v
            if extend(perm, rest, [t for t in used if t <= i], [i] + [t for t in rest if t != v]):
                perms.append(tuple(perm))
                for t in orbit:  # close the orbit of i under every element so far
                    for p in perms:
                        if p[t] not in orbit:
                            orbit.append(p[t])
        order *= len(orbit)
    return tuple(perms), order


def _half_moves(index, perms) -> tuple:
    """Per half of the index, per permutation sigma: ((field_t, offset of
    field t, offset of field sigma(t)) for each t in the half).

    sigma moves field t onto field sigma(t), which has the same width.
    """
    offsets = [(field & -field).bit_length() - 1 for _, half in index for _, field, _ in half]
    halves = []
    for _, half in index:
        variables = [(bit.bit_length() - 1, field) for bit, field, _ in half]
        halves.append(tuple(tuple((field, offsets[t], offsets[perm[t]]) for t, field in variables)
                            for perm in perms))
    return tuple(halves)


def _images(moves, x) -> tuple:
    """The images of a half-point under each permutation of `moves` (`_half_moves`)."""
    return tuple(sum((x & field) >> source << target for field, source, target in move)
                 for move in moves)


def _pruned_lattice(index, generators, regularity, perms) -> tuple:
    """The fold: (a dict whose keys are the points of L(I) it classifies,
    the list of those it keeps, {(strand key, degree): number of kept points}).

    A point a is kept iff no divisor is tight at no variable and |a| -
    |supp a| = `(a & a >> 1).bit_count()` <= regularity; a dropped point is
    never expanded, and the kept points are exactly the points of L that pass
    both (module docstring, "Pruning").  When a lookup keeps a point, the
    rest of its orbit under `perms` goes into `pending`, kept with no lookup
    when formed, and is counted under the point's key ("Orbits").  Index
    entries and images are memoized per half-point, for this call only.
    """
    (low_mask, _), (high_mask, _) = index
    low_moves, high_moves = _half_moves(index, perms)
    memos = {}, {}  # half-point -> `_half_entry`, for the low and the high half
    low_images, high_images = {}, {}  # half-point -> `_images`
    pending = set()  # kept points, counted with their orbit, that the fold has not formed
    # seen is a dict, not a set: points below 2^61 hash to themselves, and on their
    # repeating low bits a set's linear probing made the pair loop ~20% slower on C6^8
    seen, kept, points = {0: None}, [0], {((0, frozenset()), 0): 1}
    for g in generators:
        for a in kept[:]:
            b = a | g
            if b in seen:
                continue
            seen[b] = None
            if b in pending:
                pending.remove(b)
            else:
                if (b & b >> 1).bit_count() > regularity:
                    continue
                support, divisors, tight, untight = _lookup(index, b, memos)
                if untight:
                    continue
                orbit = [b]  # close b's orbit under S into pending
                for x in orbit:
                    x_low, x_high = x & low_mask, x & high_mask
                    if (low := low_images.get(x_low)) is None:
                        low = low_images[x_low] = _images(low_moves, x_low)
                    if (high := high_images.get(x_high)) is None:
                        high = high_images[x_high] = _images(high_moves, x_high)
                    for y in map(or_, low, high):
                        if y != b and y not in pending:
                            pending.add(y)
                            orbit.append(y)
                key = (support, _minimal_tight_sets(divisors, tight)), b.bit_count()
                points[key] = points.get(key, 0) + len(orbit)
            kept.append(b)
    return seen, kept, points


def oracle_plan(ideal: MonomialIdeal) -> tuple:
    """(regularity, perms, order, diagram): what `betti_oracle` fixes about I
    before its fold, and the zero-argument `diagram()` that runs the fold and
    the homology on exactly those values.  `_fields` checks the packing cap
    first and raises InputError above it, before the recogniser or the group
    search, so a caller that reads the bound or the group before the diagram
    computes neither twice.  The diagram packs the variables in
    `_locality_order`: the fields, the index and the sorted generators take
    the permuted exponents, and the group generators are conjugated."""
    locality = _locality_order(_cooccurrence(ideal.generators)[2])
    lcm = ideal.exponent_lcm()
    fields = _fields([lcm[t] for t in locality])
    regularity = edge_power_regularity(ideal)
    perms, order = automorphisms(ideal)

    def diagram() -> BettiDiagram:
        generators = sorted(tuple(map(g.__getitem__, locality)) for g in ideal.generators)
        index = _divisor_index(fields, generators)
        packed = [_pack(fields, g) for g in generators]
        where = {t: i for i, t in enumerate(locality)}  # variable -> its place in the order
        moved = [tuple(where[perm[t]] for t in locality) for perm in perms]
        bound = sum(lcm) if regularity is None else regularity
        _, _, points = _pruned_lattice(index, packed, bound, moved)
        totals = {}
        for (key, d), count in points.items():
            if _is_cone(key):
                continue
            for i, h in enumerate(_key_homology(_shape(key))):
                if h:
                    totals[(i, d)] = totals.get((i, d), 0) + h * count
        return BettiDiagram(totals)

    return regularity, perms, order, diagram


def betti_oracle(ideal: MonomialIdeal) -> BettiDiagram:
    """Graded Betti diagram of S/I, always complete.

    The fold visits only the lattice points that can carry a Betti number:
    those with a non-zero strand and, when `edge_power_regularity` knows
    reg(S/I), with |a| - |supp a| at most that.  It looks up and keys one
    point per kept orbit of `automorphisms(ideal)`.  Cone keys are skipped,
    and the homology of the rest is computed once per shape in the process
    (module docstring).  A packed point takes sum over t of (M_t + 1) bits,
    M_t the largest g_t; above 2^27 of them `_fields` raises InputError.
    """
    *_, diagram = oracle_plan(ideal)
    return diagram()
