"""Decompositions of Betti diagrams into pure diagrams.

`greedy_decompose` runs the classical elimination: repeatedly read off the
minimal-shift degree sequence, subtract the largest multiple of its pure
diagram that keeps the residual nonnegative, and record the weight.  Each
step zeroes a support position and adds none: at most |support| steps.

The polytope of all decompositions fixes a candidate list of degree
sequences and collects every nonnegative weight vector w with A w = b, where
column c of A holds the pure diagram values of candidate c at the support
positions of the source diagram.  Because every candidate is normalized to
1 at its first position, the (0, 0) row forces sum(w) = beta_{0,0} and the
polytope is bounded.  The system is held once, as the integer rows of
[A | -b]: each support row is cleared of denominators when the polytope is
built, and enumeration and pruning work on those rows.  A polytope stores
only its candidates, rows and rays; its rank, dimension and vertex zero
patterns are derived from them on first read.  Vertices are
enumerated exactly by the double description method over the integers: the
extreme rays of the cone {(w, s) >= 0 : A w = s b} are built one constraint
at a time from a kernel basis of the rows, and the rays with s > 0, divided
by s, are the vertices.  The work follows the number of rays, not the
C(m, rank(A)) column subsets.  The extreme rays do not depend on the order
in which the constraints are added, but the rays in between do: each step
takes a cut that pairs no rays if there is one, and otherwise the
constraint with the most rays on its negative side net of its positive
side.  A constraint whose row in the kernel basis is zero holds with
equality on every ray and is never cut.  Adjacency is decided by count
where that is exact: with d the kernel dimension and r the redundancy of
the implicit equalities (the constraints zero on every ray, whose rank is
read only when they change before a cut that pairs rays), a ray zero on
exactly d - 1 + r constraints is nondegenerate, and it is adjacent to
another ray iff they share d - 2 + r zeros.  Two nondegenerate rays are paired through a dict of
the 2-faces through them, and a pair with one nondegenerate member by the
count.  A pair of two degenerate rays that passes the count is adjacent iff
the zeros they share have rank d - 2 on the kernel, the definition itself.
Each vertex is kept as that primitive ray (x, s): sorting, pruning, the
signature, the JSON (through `format_quotient`) and `verify_rays` read the
integers, and Fractions x / s are built only in the `vertices` view, which
the stability scan does not read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, product
from operator import and_

from .diagram import BettiDiagram, integer_pure_diagram, pure_diagram, validate_cyclic
from .errors import ConeError, InputError
from .exact_arith import (
    format_quotient,
    format_rational,
    integer_vector,
    kernel_basis,
    matrix_rank,
)
from .values import Value


class Decomposition(Value):
    """Weighted pure diagrams summing exactly to a source diagram."""

    terms: tuple  # of (weight: Fraction, degrees: tuple[int, ...])

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"weight": format_rational(w), "degrees": list(d)}
                for w, d in self.terms
            ]
        }


def greedy_decompose(diagram: BettiDiagram) -> Decomposition:
    """Decompose by minimal-shift elimination; fails off the cone."""
    if diagram.is_zero():
        raise InputError("cannot decompose the zero diagram")
    entries = {pos: v for pos, v in diagram.items()}
    terms = []
    while entries:
        columns = sorted({i for i, _ in entries})
        if columns != list(range(len(columns))):
            raise ConeError(
                f"column gap at {set(range(max(columns) + 1)) - set(columns)}: "
                "diagram not in the cone of pure diagrams"
            )
        degrees = tuple(min(j for i2, j in entries if i2 == i) for i in columns)
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            raise ConeError(
                f"minimal shifts {degrees} not strictly increasing: "
                "diagram not in the cone of pure diagrams"
            )
        pure = pure_diagram(degrees)
        weight = min(entries[(i, d)] / v for i, (d, v) in enumerate(zip(degrees, pure)))
        for i, (d, v) in enumerate(zip(degrees, pure)):
            residual = entries[(i, d)] - weight * v
            if residual == 0:
                del entries[(i, d)]
            else:
                entries[(i, d)] = residual
        terms.append((weight, degrees))
    return Decomposition(tuple(terms))


def verify_decomposition(diagram: BettiDiagram, weights, candidates) -> bool:
    """Exact check that sum(w_c * pure(candidates[c])) equals the diagram.

    The weights are cleared to integers x_c over their common denominator
    S, and the ray (x, S) goes through `verify_rays`.
    """
    if len(weights) != len(candidates):
        raise InputError("weights and candidates differ in length")
    ray = integer_vector((*weights, 1))  # InputError unless ints or Fractions
    return verify_rays(diagram, (ray,), candidates)


def verify_rays(diagram: BettiDiagram, rays, candidates) -> bool:
    """Whether every ray (x_0, ..., x_{m-1}, s) of the sequence `rays` has
    s > 0, x >= 0 and sum(x_c / s * pure(candidates[c])) equal to the diagram.

    The pure diagram of each candidate that a ray uses is recomputed from its
    degrees, once, as beta(c)_i = N / q_i.  At each position (i, d) of the
    diagram or of such a candidate, the values are written over the lcm L of
    their denominators, and sum_c x_c * beta(c)_{i,d} * L = s * beta_{i,d} * L
    is checked in the integers.
    """
    if any(len(ray) != len(candidates) + 1 for ray in rays):
        raise InputError("rays and candidates differ in length")
    entries = dict(diagram.items())
    at = {position: [] for position in entries}  # (i, d) -> [(c, N, q_i)]
    for c in sorted({c for ray in rays for c, x in enumerate(ray[:-1]) if x}):
        numerator, denominators = integer_pure_diagram(candidates[c])
        for position, q in zip(enumerate(candidates[c]), denominators):
            at.setdefault(position, []).append((c, numerator, q))
    checks = []  # per position: [(c, beta(c)_{i,d} * L)], and beta_{i,d} * L as n / d
    for position, terms in at.items():
        scale = math.lcm(*(q for _, _, q in terms))
        b = entries.get(position, 0)
        checks.append(
            ([(c, n * (scale // q)) for c, n, q in terms], b.numerator * scale, b.denominator)
        )
    for *xs, s in rays:
        if s <= 0 or any(x < 0 for x in xs):
            return False
        for terms, target, den in checks:
            if sum(xs[c] * w for c, w in terms) * den != s * target:
                return False
    return True


def candidate_degree_sequences(diagram: BettiDiagram) -> list:
    """All sequences 0 = d_0 < ... < d_s, s >= 1, with (i, d_i) in the support.

    Nonnegative weights and entries force the support of any contributing
    pure diagram into the support of the source, so these chains exhaust the
    possible candidates for a cyclic quotient.
    """
    if not validate_cyclic(diagram):
        raise InputError("candidate enumeration needs a cyclic-quotient diagram")
    by_column = {}
    for i, j in diagram.support():
        by_column.setdefault(i, []).append(j)
    out = []

    def extend(chain):
        level = len(chain)
        for j in by_column.get(level, []):
            if j > chain[-1]:
                longer = chain + (j,)
                out.append(longer)
                extend(longer)

    extend((0,))
    return sorted(out)


class DecompositionPolytope(Value):
    """Exact system {A w = b, w >= 0} over candidate pure diagrams.

    Once enumerated, each vertex v is held as its primitive integer ray
    (x_0, ..., x_{m-1}, s), s > 0, with v = x / s.  Nothing else is stored:
    `rank`, `vertices`, `zero_patterns` and `dimension` are cached, read-only
    views of the rows and rays, each computed on first read; the vertices
    are Fraction tuples, all sharing one Fraction(0).
    """

    candidates: tuple  # degree sequences, lexicographically sorted
    rows: tuple  # integer rows of [A | -b], one per support position, in order
    rays: tuple | None = None  # one per vertex, in vertex order

    @cached_property
    def rank(self) -> int:
        """Rank of A: the rows without their last column."""
        return matrix_rank(row[:-1] for row in self.rows)

    @cached_property
    def vertices(self) -> tuple | None:
        if self.rays is None:
            return None
        zero = Fraction(0)
        return tuple(tuple(Fraction(x, r[-1]) if x else zero for x in r[:-1]) for r in self.rays)

    @cached_property
    def zero_patterns(self) -> tuple:
        """Per vertex, in vertex order, the indices of the zero coordinates of x."""
        if self.rays is None:
            raise InputError("vertices not enumerated")
        return tuple(tuple(c for c, x in enumerate(r[:-1]) if x == 0) for r in self.rays)

    @cached_property
    def dimension(self) -> int:
        """m - rank of the pruned system once it has vertices; -1 once enumerated empty."""
        if self.rays is None:
            raise InputError("vertices not enumerated")
        if self.rays == ():
            return -1
        system = prune(self)
        return len(system.candidates) - system.rank

    def to_json_dict(self) -> dict:
        if self.rays is None:
            raise InputError("vertices not enumerated")
        return {
            "candidates": [list(c) for c in self.candidates],
            "vertices": [[format_quotient(x, r[-1]) for x in r[:-1]] for r in self.rays],
            "rank": self.rank,
            "dimension": self.dimension,
        }


def build_polytope(diagram: BettiDiagram, candidates) -> DecompositionPolytope:
    """Set up the equality system; vertices stay unset until enumerated.

    Each row is written in integers: candidate c's entry N / q_i is reduced
    by gcd(N, q_i), and the row is scaled by the lcm of its denominators and
    b's, so it equals `integer_vector` of the Fraction row.
    """
    cands = sorted({tuple(c) for c in candidates})
    if not cands:
        raise InputError("no candidate degree sequences")
    at = {}  # (i, d_i) -> [(column, reduced numerator, reduced denominator)]
    for col, c in enumerate(cands):
        numerator, denominators = integer_pure_diagram(c)
        for position, q in zip(enumerate(c), denominators):
            g = math.gcd(numerator, q)
            at.setdefault(position, []).append((col, numerator // g, q // g))
    rows = []
    for position, b in diagram.items():
        entries = at.get(position, ())
        scale = math.lcm(b.denominator, *(q for _, _, q in entries))
        row = [0] * len(cands) + [-b.numerator * (scale // b.denominator)]
        for col, n, q in entries:
            row[col] = n * (scale // q)
        rows.append(tuple(row))
    return DecompositionPolytope(candidates=tuple(cands), rows=tuple(rows))


def enumerate_vertices(polytope: DecompositionPolytope) -> DecompositionPolytope:
    """All vertices of {w >= 0 : A w = b}, by exact double description.

    The cone {(w, s) >= 0 : A w = s b} has the vertices, scaled by s, as its
    extreme rays with s > 0; those with s = 0 span the recession cone.
    `kernel_basis` of the integer rows of [A | -b] gives one primitive
    integer ray per free column f: the extreme rays of the kernel cut by
    every x_f >= 0.  The basis is primitive, so it does not depend on how
    the rows are scaled.  Each pivot column's x_c >= 0 is then added in turn
    (Motzkin et al. 1953; Fukuda & Prodon 1996), in the order `_next_cut`
    picks: first a one-sided cut, which pairs no rays, then the constraint
    with the most negative rays net of positive ones.  The cone after the
    last cut does not depend on the order, and its extreme rays are unique
    up to scale and kept primitive, so the sorted rays do not either; the
    order only sets how many rays the steps in between hold.  A pivot column
    whose row in the kernel basis is zero has x_c = 0 on every ray, so it is
    left out of the cuts and of the zero sets: it would add 1 to every zero
    count and to the redundancy r below and 0 to every rank, which leaves
    each adjacency test as it is.  Returns no rays iff infeasible.

    The rank of a set of constraints on the kernel is the rank of the rows
    (v_f[k] for each basis vector v_f), one per k in the set: `rank` reads
    it off a bitmask.  Before a cut that pairs rays, the implicit equalities
    E (the constraints added so far that are zero on every ray) are read off
    the zero sets.  Their redundancy r is |E| minus their rank, computed
    only when E has grown since the last such cut.  With d the kernel
    dimension, every extreme ray is zero on at least d - 1 + r constraints
    and two adjacent rays share at least d - 2 + r, which `_cut` uses as its
    count filter and its test for nondegenerate rays; it decides a pair of
    two degenerate rays by `rank`.
    """
    m = len(polytope.candidates)
    basis = kernel_basis(polytope.rows, m + 1)

    def rank(constraints):
        return matrix_rank(
            [v[k] for v in basis.values()] for k in range(m + 1) if constraints >> k & 1
        )

    free, rays = list(basis), list(basis.values())
    todo = [c for c in range(m + 1) if c not in basis and any(v[c] for v in rays)]
    done = sum(1 << f for f in free)  # the constraints added so far, as a bitmask
    zeros = [done ^ 1 << f for f in free]  # each ray's zero set within `done`
    implicit = redundancy = 0  # E, as a bitmask, and r
    while todo:
        c, paired = _next_cut(rays, todo)
        todo.remove(c)
        if paired:
            grown = reduce(and_, zeros)
            if grown != implicit:
                implicit = grown
                redundancy = grown.bit_count() - rank(grown)
        rays, zeros = _cut(rays, zeros, done, c, len(free), implicit, redundancy, rank)
        done |= 1 << c
    rays = [tuple(r) for r in rays if r[m] > 0]
    scale = math.lcm(*(r[m] for r in rays))  # x * (scale // s) orders rays as x / s does
    rays.sort(key=lambda r: [x * f for f in (scale // r[m],) for x in r[:m]])
    return polytope.replace(rays=tuple(rays))


def _next_cut(rays, todo):
    """The constraint of `todo` to cut by next, and whether that cut pairs rays.

    A one-sided cut, with no ray strictly on one side of x_c = 0, pairs
    nothing and comes first.  Otherwise the cut with the most negative rays
    net of positive ones comes first.  Ties go to the first in `todo`.
    """
    n = len(rays)
    best = score = None
    for k in todo:
        negative = positive = 0
        for r in rays:
            x = r[k]
            if x < 0:
                negative += 1
            elif x:
                positive += 1
        net = negative - positive
        if negative and positive:  # below every one-sided cut, whose net is at least -n
            net -= 2 * n + 1
        if score is None or net > score:
            best, score = k, net
    return best, score < -n


def _cut(rays, zeros, done, c, d, implicit, redundancy, rank):
    """Extreme rays, with their zero sets, of the cone cut by x_c >= 0.

    Each pair of adjacent rays p (x_c > 0) and q (x_c < 0) gives the ray
    p_c q - q_c p, divided by its content when that is above 1, which has
    x_c = 0.  The rays with x_c >= 0 are kept, in order, and the new rays
    follow them.

    With d the kernel dimension, p and q are adjacent iff the zeros they
    share have rank d - 2 on the kernel (Fukuda & Prodon 1996), as `rank`
    reads it.  Every zero set contains the `implicit` equalities E, and
    `redundancy` r of them are redundant: adjacent rays share at least
    `need` = d - 2 + r zeros, and every ray has at least d - 1 + r.  A ray
    with exactly d - 1 + r is nondegenerate: its zeros outside E are
    independent modulo E, so a set of its zeros that contains E has rank
    its size minus r.  So a nondegenerate ray is adjacent to another iff
    they share d - 2 + r zeros; sharing all d - 1 + r would put the other
    ray on its line.  Two nondegenerate rays are then adjacent iff each
    one's zero set minus one constraint outside E is the same set, the
    2-face through both, and `_face_pairs` finds them through a dict.  A
    pair with one nondegenerate member is decided by the count, and only a
    pair of two degenerate rays that passes it has its rank taken.
    """
    bit, need = 1 << c, d - 2 + redundancy
    least = need + 1  # the zero count of a nondegenerate ray
    out_rays, out_zeros, pos, neg, pos_degenerate, neg_degenerate = [], [], [], [], [], []
    for j, (r, z) in enumerate(zip(rays, zeros)):
        x = r[c]
        if x < 0:
            (neg if z.bit_count() == least else neg_degenerate).append((j, z))
            continue
        if x > 0:
            (pos if z.bit_count() == least else pos_degenerate).append((j, z))
        else:
            z |= bit
        out_rays.append(r)
        out_zeros.append(z)
    pairs = _face_pairs(pos, neg, done & ~implicit)
    for (i, zp), (j, zq) in chain(
        product(pos, neg_degenerate), product(pos_degenerate, neg + neg_degenerate)
    ):
        shared = zp & zq
        if shared.bit_count() >= need and (
            zp.bit_count() == least or zq.bit_count() == least or rank(shared) == d - 2
        ):
            pairs.append((i, j, shared))
    for i, j, shared in pairs:
        p, q = rays[i], rays[j]
        pc, qc = p[c], q[c]
        new = [pc * y - qc * x for x, y in zip(p, q)]
        g = math.gcd(*new)
        out_rays.append(tuple([x // g for x in new]) if g > 1 else tuple(new))
        out_zeros.append(shared | bit)
    return out_rays, out_zeros


def _face_pairs(pos, neg, loose):
    """The adjacent pairs (i, j, shared zeros) of nondegenerate rays.

    Each ray (index, zero set) is keyed by its zero set minus one of its
    constraints in `loose`, the ones outside E: the keys name the 2-faces
    through it.  Two nondegenerate rays are adjacent iff they have a key in
    common, and then exactly one, so each pair is found once.  A 2-face
    holds two extreme rays, so a key that two rays of one side share is on
    no ray of the other, and the dict keeps one ray per key.  It is built
    from the smaller side and looked up from the larger.
    """
    small, large = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    if not small:
        return []
    bits = [1 << k for k in range(loose.bit_length()) if loose >> k & 1]
    faces = {z ^ b: i for i, z in small for b in bits if z & b}
    found = [(faces[k], j, k) for j, z in large for b in bits if z & b and (k := z ^ b) in faces]
    return found if small is pos else [(i, j, k) for j, i, k in found]


def prune(polytope: DecompositionPolytope) -> DecompositionPolytope:
    """Drop coordinates that vanish at every vertex; reindex everything.

    Valid because the polytope is bounded, hence the hull of its vertices.
    Idempotent; the rays only change by coordinate projection, which keeps
    them primitive and sorted, since every ray is 0 on the dropped
    coordinates.  The integer rows and the rays keep their last column.  A
    polytope with no vertices is returned unchanged (nothing to prune
    against).
    """
    if polytope.rays is None:
        raise InputError("vertices not enumerated")
    if not polytope.rays:
        return polytope
    m = len(polytope.candidates)
    keep = [c for c in range(m) if any(r[c] for r in polytope.rays)]
    if len(keep) == m:
        return polytope
    keep.append(m)
    return DecompositionPolytope(
        candidates=tuple(polytope.candidates[c] for c in keep[:-1]),
        rows=tuple(tuple(row[c] for c in keep) for row in polytope.rows),
        rays=tuple(tuple(r[c] for c in keep) for r in polytope.rays),
    )
