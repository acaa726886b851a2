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
built, and enumeration and pruning work on those rows.  Vertices are
enumerated exactly by the double description method over the integers: the
extreme rays of the cone {(w, s) >= 0 : A w = s b} are built one constraint
at a time from a kernel basis of the rows, and the rays with s > 0, divided
by s, are the vertices.  The work follows the number of rays, not the
C(m, rank(A)) column subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .diagram import BettiDiagram, pure_diagram, validate_cyclic
from .errors import ConeError, InputError
from .exact_arith import format_rational, integer_vector, kernel_basis, matrix_rank, primitive


@dataclass(frozen=True)
class Decomposition:
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
        degrees = tuple(
            min(j for (i2, j) in entries if i2 == i) for i in columns
        )
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            raise ConeError(
                f"minimal shifts {degrees} not strictly increasing: "
                "diagram not in the cone of pure diagrams"
            )
        pure = pure_diagram(degrees)
        weight = min(
            entries[(i, d)] / v for i, (d, v) in enumerate(zip(degrees, pure.values))
        )
        for i, (d, v) in enumerate(zip(degrees, pure.values)):
            residual = entries[(i, d)] - weight * v
            if residual == 0:
                del entries[(i, d)]
            else:
                entries[(i, d)] = residual
        terms.append((weight, degrees))
    return Decomposition(tuple(terms))


def verify_decomposition(diagram: BettiDiagram, weights, candidates) -> bool:
    """Exact check that sum(w_c * pure(candidates[c])) equals the diagram."""
    if len(weights) != len(candidates):
        raise InputError("weights and candidates differ in length")
    integer_vector(weights)  # InputError unless every weight is an int or Fraction
    total = {}
    for w, degrees in zip(weights, candidates):
        if w < 0:
            return False
        if w == 0:
            continue
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees).values)):
            key = (i, d)
            total[key] = total.get(key, Fraction(0)) + w * v
    return {k: v for k, v in total.items() if v} == dict(diagram.items())


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


@dataclass(frozen=True)
class DecompositionPolytope:
    """Exact system {A w = b, w >= 0} over candidate pure diagrams."""

    candidates: tuple  # degree sequences, lexicographically sorted
    rows: tuple  # integer rows of [A | -b], one per support position, in order
    rank: int  # of A
    vertices: tuple | None = None

    @property
    def dimension(self) -> int:
        """m - rank of the pruned system once it has vertices; -1 once enumerated empty."""
        if self.vertices == ():
            return -1
        system = prune(self) if self.vertices else self
        return len(system.candidates) - system.rank

    def to_json_dict(self) -> dict:
        if self.vertices is None:
            raise InputError("vertices not enumerated")
        return {
            "candidates": [list(c) for c in self.candidates],
            "vertices": [[format_rational(x) for x in v] for v in self.vertices],
            "rank": self.rank,
            "dimension": self.dimension,
        }


def build_polytope(diagram: BettiDiagram, candidates) -> DecompositionPolytope:
    """Set up the equality system; vertices stay unset until enumerated."""
    cands = sorted({tuple(c) for c in candidates})
    if not cands:
        raise InputError("no candidate degree sequences")
    values = {c: pure_diagram(c).values for c in cands}
    rows = []
    for (i, j), b in diagram.items():
        a = [values[c][i] if i < len(c) and c[i] == j else 0 for c in cands]
        rows.append(tuple(integer_vector((*a, -b))))
    return DecompositionPolytope(
        candidates=tuple(cands),
        rows=tuple(rows),
        rank=matrix_rank(row[:-1] for row in rows),
    )


def enumerate_vertices(polytope: DecompositionPolytope) -> DecompositionPolytope:
    """All vertices of {w >= 0 : A w = b}, by exact double description.

    The cone {(w, s) >= 0 : A w = s b} has the vertices, scaled by s, as its
    extreme rays with s > 0; those with s = 0 span the recession cone.
    `kernel_basis` of the integer rows of [A | -b] gives one primitive
    integer ray per free column f: the extreme rays of the kernel cut by
    every x_f >= 0.  The basis is primitive, so it does not depend on how
    the rows are scaled.  Each pivot column's x_c >= 0 is then added in turn
    (Motzkin et al. 1953; Fukuda & Prodon 1996), the one with the most rays
    on its negative side first.  Returns an empty vertex list iff
    infeasible.
    """
    m = len(polytope.candidates)
    basis = kernel_basis(polytope.rows, m + 1)
    free, rays = list(basis), list(basis.values())
    todo = [c for c in range(m + 1) if c not in basis]
    done = sum(1 << f for f in free)  # the constraints added so far, as a bitmask
    zeros = [done ^ 1 << f for f in free]  # each ray's zero set within `done`
    while todo:
        c = max(todo, key=lambda k: sum(r[k] < 0 for r in rays))
        todo.remove(c)
        rays, zeros = _cut(rays, zeros, done, c, len(free) - 2)
        done |= 1 << c
    vertices = (tuple(Fraction(x, r[m]) for x in r[:m]) for r in rays if r[m] > 0)
    return replace(polytope, vertices=tuple(sorted(vertices)))


def _cut(rays, zeros, done, c, need):
    """Extreme rays, with their zero sets, of the cone cut by x_c >= 0.

    Rays p (x_c > 0) and q (x_c < 0) are adjacent iff their zero sets share
    at least `need` = dim - 2 constraints and no third ray is zero on them all;
    each adjacent pair gives the ray p_c q - q_c p, which has x_c = 0.
    """
    bit = 1 << c
    out = [(r, z | bit if r[c] == 0 else z) for r, z in zip(rays, zeros) if r[c] >= 0]
    neg = [(j, z) for j, (r, z) in enumerate(zip(rays, zeros)) if r[c] < 0]
    if neg:
        holders = {}  # constraint bit -> bitmask of the rays zero on it
        for k in range(done.bit_length()):
            if done >> k & 1:
                holders[1 << k] = int("".join("01"[z >> k & 1] for z in reversed(zeros)), 2)
        everyone = (1 << len(rays)) - 1
        for i, (p, zp) in enumerate(zip(rays, zeros)):
            if p[c] <= 0:
                continue
            for j, shared in [(j, zp & zq) for j, zq in neg if (zp & zq).bit_count() >= need]:
                pair, common, rest = 1 << i | 1 << j, everyone, shared
                while rest and common != pair:
                    low = rest & -rest
                    common &= holders[low]
                    rest ^= low
                if common == pair:
                    q = rays[j]
                    new = [p[c] * y - q[c] * x for x, y in zip(p, q)]
                    out.append((primitive(new), shared | bit))
    return [r for r, _ in out], [z for _, z in out]


def prune(polytope: DecompositionPolytope) -> DecompositionPolytope:
    """Drop coordinates that vanish at every vertex; reindex everything.

    Valid because the polytope is bounded, hence the hull of its vertices.
    Idempotent; the vertex set only changes by coordinate projection, which
    keeps it sorted, since every vertex agrees on the dropped coordinates.
    The integer rows keep their -b column.  A polytope with no vertices is
    returned unchanged (nothing to prune against).
    """
    if polytope.vertices is None:
        raise InputError("vertices not enumerated")
    if not polytope.vertices:
        return polytope
    m = len(polytope.candidates)
    keep = [c for c in range(m) if any(v[c] != 0 for v in polytope.vertices)]
    if len(keep) == m:
        return polytope
    rows = tuple(tuple(row[c] for c in (*keep, m)) for row in polytope.rows)
    return DecompositionPolytope(
        candidates=tuple(polytope.candidates[c] for c in keep),
        rows=rows,
        rank=matrix_rank(row[:-1] for row in rows),
        vertices=tuple(tuple(v[c] for c in keep) for v in polytope.vertices),
    )
