"""The unpruned lcm-lattice fold and oracle, kept as a slow reference for the tests.

`lcm_lattice` is the fold that `koszul_oracle` used before it learnt to
drop points that carry no Betti number: every generator is folded into
every point so far, and no point is left out.
`betti_oracle` counts every one of those points per (strand key, degree)
and sums the homology of each key, so its diagram does not rest on the
zero-strand or regularity tests of the pruned fold.  It reads each key
through `lookup`, one index lookup per variable and no memo, so it does
not rest on the oracle's half-point memo either, and computes each key's
homology from its critical cells in a dict of its own, not through the
process-wide memo of `_key_homology`.

`divisor_index` is the index built one generator scan per distinct value
of each variable, and `edge_power_regularity` the recogniser that builds
the k-fold edge products one factor at a time; the oracle's one-pass
index and doubling recogniser must agree with them.
"""

from collections import Counter
from operator import mul

from bettistab.diagram import BettiDiagram
from bettistab.koszul_oracle import (
    _apex,
    _critical_bases,
    _divisor_index,
    _fields,
    _homology,
    _induced_matching_number,
    _is_cone,
    _minimal_tight_sets,
    _pack,
    _shape,
)
from bettistab.monomial_ideal import is_equigenerated


def lcm_lattice(generators) -> set:
    """Packed L(I): every lcm of a set of packed generators."""
    lattice = {0}
    for g in generators:
        lattice |= {a | g for a in lattice}
    return lattice


def divisor_index(fields, generators) -> tuple:
    """`_divisor_index` with one scan over the generators per distinct value of each variable."""
    variables = []
    for t, field in enumerate(fields):
        low, top = field & -field, field.bit_count() - 1
        table, le = {}, 0
        for v in sorted({0, top, *(g[t] for g in generators if g[t] <= top)}):
            eq = sum(1 << j for j, g in enumerate(generators) if g[t] == v)
            le |= eq
            table[((1 << v) - 1) * low] = (le, eq if v else 0)
        variables.append((1 << t, field, table))
    split = len(fields) // 2
    return (sum(fields[:split]), variables[:split]), (sum(fields[split:]), variables[split:])


def edge_power_regularity(ideal):
    """`edge_power_regularity` with the k-fold edge products built one factor at a time."""
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
    weights = [(degree + 1) ** t for t in range(ideal.num_vars)]
    units = [weights[u] + weights[v] for u, v in edges]
    products = {0}
    for _ in range(k):
        products = {p + unit for p in products for unit in units}
        if len(products) > len(ideal.generators):
            return None
    if products != {sum(map(mul, g, weights)) for g in ideal.generators}:
        return None
    return 2 * k + nu - 2


def lookup(index, a) -> tuple:
    """(supp(a), the divisors D, [(bit of t, E_t)] for each t with E_t non-empty).

    One dict lookup per variable, no memo: D is the AND of le_t and
    E_t = eq_t & D are the divisors tight at t.
    """
    divisors, support, eqs = -1, 0, []
    for _, half in index:
        for bit, field, table in half:
            x = a & field
            le, eq = table[x]
            divisors &= le
            if x:
                support |= bit
                eqs.append((bit, eq))
    return support, divisors, [(bit, e) for bit, eq in eqs if (e := eq & divisors)]


def strand_key(index, a) -> tuple:
    """(supp(a), inclusion-minimal tight sets of the divisors), read through `lookup`."""
    support, divisors, tight = lookup(index, a)
    return support, _minimal_tight_sets(divisors, tight)


def betti_oracle(ideal) -> BettiDiagram:
    """Graded Betti diagram of S/I from every lattice point."""
    fields = _fields(ideal.exponent_lcm())
    index = _divisor_index(fields, ideal.generators)
    generators = [_pack(fields, g) for g in ideal.generators]
    points = Counter(
        (strand_key(index, a), a.bit_count()) for a in lcm_lattice(generators)
    )
    homology, totals = {}, {}  # strand key -> its homology; () for a cone
    for (key, d), count in points.items():
        if key not in homology:
            shape = _shape(key)
            homology[key] = () if _is_cone(key) else _homology(_critical_bases(shape, _apex(shape)))
        for i, h in enumerate(homology[key]):
            if h:
                totals[(i, d)] = totals.get((i, d), 0) + h * count
    return BettiDiagram(totals)
