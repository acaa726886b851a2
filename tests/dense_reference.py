"""Dense Bareiss elimination, kept as a slow reference for the tests.

`_echelon` and `_back_substitute` are the dense fraction-free pair that
`exact_arith` used before its sparse echelon became the one elimination
routine.  The reference ranks, fits, kernels and vertex scans in the tests
go through them, so they stay independent of `exact_arith._pivot_rows`.
"""

from fractions import Fraction

from bettistab.exact_arith import integer_vector, primitive


def _echelon(rows, ncols):
    """Fraction-free (Bareiss) row echelon form of integer augmented rows.

    Only the first `ncols` columns are eligible as pivots; the remaining
    columns (the right-hand side) are carried along.  Returns the list of
    pivot (row, column) pairs; `rows` is reduced in place.
    """
    m = len(rows)
    pivots = []
    r = 0
    denom = 1
    width = len(rows[0]) if rows else 0
    for c in range(ncols):
        if r >= m:
            break
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, m):
            f = rows[i][c]
            for j in range(c, width):
                num = pivot * rows[i][j] - f * rows[r][j]
                q, rem = divmod(num, denom)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                rows[i][j] = q
        pivots.append((r, c))
        denom = pivot
        r += 1
    return pivots


def _back_substitute(rows, pivots, n, free=None) -> list:
    """Solve echelon rows over their first n columns, bottom row first.

    free=None: A x = b with b in column n and free variables zero.
    Otherwise: the kernel vector with x[free] = 1, other free variables zero.
    """
    x = [Fraction(0)] * n
    if free is not None:
        x[free] = Fraction(1)
    for r, c in reversed(pivots):
        s = Fraction(rows[r][n]) if free is None else Fraction(0)
        for j in range(c + 1, n):
            if x[j]:
                s -= rows[r][j] * x[j]
        x[c] = s / rows[r][c]
    return x


def dense_solve(matrix, rhs=None):
    """(particular, nullspace) of A x = b, as solve_exact gave them by `_echelon`."""
    n = len(matrix[0])
    rhs = [0] * len(matrix) if rhs is None else rhs
    rows = [integer_vector([*row, b]) for row, b in zip(matrix, rhs)]
    pivots = _echelon(rows, n)
    particular = None
    if all(rows[i][n] == 0 for i in range(len(pivots), len(rows))):
        particular = _back_substitute(rows, pivots, n)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    return particular, [_back_substitute(rows, pivots, n, free=f) for f in free_cols]


def dense_kernel(rows, ncols) -> dict:
    """{free column: primitive kernel vector} from one dense echelon."""
    rows = [integer_vector(row) for row in rows]
    pivots = _echelon(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    return {
        f: list(primitive(_back_substitute(rows, pivots, ncols, free=f)))
        for f in range(ncols)
        if f not in pivot_cols
    }
