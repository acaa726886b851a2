"""Fraction references for the integer-ray code of `decomposition`.

`vertices_from_rays` is the vertex build that `enumerate_vertices` ran
before vertices were held as integer rays: one `Fraction(x, s)` per
coordinate, then a sort of the Fraction tuples.  `prune_vertices` is the old
`prune` on those tuples.  `verify_decomposition` is the old Fraction check,
which sums w_c * pure(c) position by position.  The tests compare the ray
code with them.
"""

from fractions import Fraction

from bettistab.diagram import pure_diagram
from bettistab.errors import InputError
from bettistab.exact_arith import integer_vector


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
