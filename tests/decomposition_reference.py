"""Fraction references for the integer-ray code of `decomposition`.

`vertices_from_rays` is the vertex build that `enumerate_vertices` ran
before vertices were held as integer rays: one `Fraction(x, s)` per
coordinate, then a sort of the Fraction tuples.  `prune_vertices` is the old
`prune` on those tuples.  `verify_decomposition` is the old Fraction check,
which sums w_c * pure(c) position by position.  `cut_reference` is the double
description step that `enumerate_vertices` ran before it knew the implicit
equalities: the count filter and then the holder test on every pair.
`enumerate_rays_reference` is the enumeration in the cut order it used
before it picked cuts by their cost.  The tests compare the ray code with
them.
"""

import math
from fractions import Fraction
from functools import reduce
from operator import and_

from bettistab import decomposition
from bettistab.diagram import pure_diagram
from bettistab.errors import InputError
from bettistab.exact_arith import integer_vector, kernel_basis, matrix_rank


def vertices_from_rays(rays):
    """Sorted Fraction vertices x / s of rays (x_0, ..., x_{m-1}, s)."""
    return tuple(sorted(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays))


def prune_vertices(candidates, vertices):
    """(candidates, vertices) without the coordinates zero at every vertex."""
    keep = [c for c in range(len(candidates)) if any(v[c] != 0 for v in vertices)]
    return (
        tuple(candidates[c] for c in keep),
        tuple(tuple(v[c] for c in keep) for v in vertices),
    )


def verify_decomposition(diagram, weights, candidates) -> bool:
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
        for i, (d, v) in enumerate(zip(degrees, pure_diagram(degrees))):
            key = (i, d)
            total[key] = total.get(key, Fraction(0)) + w * v
    return {k: v for k, v in total.items() if v} == dict(diagram.items())


def cut_reference(rays, zeros, done, c, need):
    """Extreme rays, with their zero sets, of the cone cut by x_c >= 0.

    Rays p (x_c > 0) and q (x_c < 0) are adjacent iff their zero sets share
    at least `need` = dim - 2 constraints and no third ray is zero on them all;
    each adjacent pair gives the ray p_c q - q_c p, divided by its content
    when that is above 1, which has x_c = 0.  The rays with x_c >= 0 are
    kept, in order, and the new rays follow them.
    """
    bit = 1 << c
    out_rays, out_zeros, pos, neg = [], [], [], []
    for j, (r, z) in enumerate(zip(rays, zeros)):
        x = r[c]
        if x < 0:
            neg.append((j, z))
            continue
        if x > 0:
            pos.append((j, x, r, z))
        else:
            z |= bit
        out_rays.append(r)
        out_zeros.append(z)
    if neg and pos:
        holders = {}  # constraint bit -> bitmask of the rays zero on it
        for k in range(done.bit_length()):
            if done >> k & 1:
                holders[1 << k] = int("".join("01"[z >> k & 1] for z in reversed(zeros)), 2)
        everyone = (1 << len(rays)) - 1
        for i, pc, p, zp in pos:
            for j, shared in [(j, zp & zq) for j, zq in neg if (zp & zq).bit_count() >= need]:
                pair, common, rest = 1 << i | 1 << j, everyone, shared
                while rest and common != pair:
                    low = rest & -rest
                    common &= holders[low]
                    rest ^= low
                if common == pair:
                    q = rays[j]
                    qc = q[c]
                    new = [pc * y - qc * x for x, y in zip(p, q)]
                    g = math.gcd(*new)
                    out_rays.append(tuple(x // g for x in new) if g > 1 else tuple(new))
                    out_zeros.append(shared | bit)
    return out_rays, out_zeros


def enumerate_rays_reference(polytope):
    """The sorted rays of `enumerate_vertices` in the insertion order it used
    before it picked cuts by their cost: every constraint off the kernel
    basis, zero kernel rows included, the one with the most negative rays
    first.  Each cut goes through `decomposition._cut` as a module
    attribute, so a patch of `_cut` sees these cuts too.
    """
    m = len(polytope.candidates)
    basis = kernel_basis(polytope.rows, m + 1)

    def rank(constraints):
        return matrix_rank(
            [v[k] for v in basis.values()] for k in range(m + 1) if constraints >> k & 1
        )

    free, rays = list(basis), list(basis.values())
    todo = [c for c in range(m + 1) if c not in basis]
    done = sum(1 << f for f in free)
    zeros = [done ^ 1 << f for f in free]
    implicit = redundancy = 0
    while todo:
        c = max(todo, key=lambda k: sum(r[k] < 0 for r in rays))
        todo.remove(c)
        if any(r[c] < 0 for r in rays) and any(r[c] > 0 for r in rays):
            grown = reduce(and_, zeros)
            if grown != implicit:
                implicit = grown
                redundancy = grown.bit_count() - rank(grown)
        rays, zeros = decomposition._cut(rays, zeros, done, c, len(free), implicit, redundancy, rank)
        done |= 1 << c
    rays = [tuple(r) for r in rays if r[m] > 0]
    scale = math.lcm(*(r[m] for r in rays))
    rays.sort(key=lambda r: [x * f for f in (scale // r[m],) for x in r[:m]])
    return tuple(rays)
