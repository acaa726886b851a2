"""Betti diagrams, pure diagrams, and affine degree-sequence templates.

A Betti diagram is a sparse table of positive rationals keyed by
(homological index i, internal degree j); absent entries are zero.  The
pretty printer follows the usual display convention: entry (i, j) is shown
in row j - i, column i, and runs of empty rows collapse to a single elision
mark.  Machine (JSON) output never elides.

A pure diagram is supported on one position per column, at the positions of
a strictly increasing degree sequence d_0 < ... < d_s.  Its entries are the
unique positive solution of the alternating power-sum identities

    sum_i (-1)^i * beta_i * d_i^t = 0   for t = 0 .. s-1

normalized so the first entry is 1; explicitly

    beta_i = prod_{j>=1} (d_j - d_0) / prod_{j != i} |d_j - d_i|.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import InputError
from .exact_arith import format_rational, parse_rational, require_int
from .values import Value

ELLIPSIS_ROW = "⋮"  # vertical ellipsis used by the table renderer


class BettiDiagram:
    """Sparse exact-rational table of graded Betti numbers."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        items = entries.items() if hasattr(entries, "items") else entries
        clean = {}
        for (i, j), value in items:
            i = require_int(i, "diagram index")
            j = require_int(j, "diagram index")
            if i < 0 or j < 0:
                raise InputError(f"negative diagram index {(i, j)}")
            if type(value) not in (int, Fraction):
                raise InputError(
                    f"Betti entry at {(i, j)} must be an int or Fraction: {value!r}"
                )
            v = Fraction(value)
            if v < 0:
                raise InputError(f"negative Betti entry at {(i, j)}")
            if v == 0:
                continue
            if (i, j) in clean:
                raise InputError(f"duplicate diagram entry at {(i, j)}")
            clean[(i, j)] = v
        self._entries = clean

    def get(self, i: int, j: int) -> Fraction:
        return self._entries.get((i, j), Fraction(0))

    def items(self):
        return sorted(self._entries.items())

    def support(self) -> tuple:
        return tuple(sorted(self._entries))

    def is_zero(self) -> bool:
        return not self._entries

    def max_column(self) -> int:
        """Largest homological index present; -1 for the empty diagram."""
        return max((i for i, _ in self._entries), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {v}" for (i, j), v in self.items())
        return f"BettiDiagram({{{body}}})"

    def to_json_dict(self) -> dict:
        return {
            "entries": [[i, j, format_rational(v)] for (i, j), v in self.items()]
        }

    @staticmethod
    def from_json_dict(data: dict) -> "BettiDiagram":
        try:
            raw = data["entries"]
            entries = [((i, j), v if type(v) is int else parse_rational(v)) for i, j, v in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed diagram JSON: {exc}") from exc
        return BettiDiagram(entries)


def column_sums(diagram: BettiDiagram) -> tuple:
    """Total Betti numbers: entry i is the sum of column i."""
    top = diagram.max_column()
    sums = [Fraction(0)] * (top + 1)
    for (i, _), v in diagram.items():
        sums[i] += v
    return tuple(sums)


def validate_cyclic(diagram: BettiDiagram) -> bool:
    """True when column 0 is exactly {(0, 0) -> 1}."""
    col0 = [(i, j) for (i, j) in diagram.support() if i == 0]
    return col0 == [(0, 0)] and diagram.get(0, 0) == 1


def check_degrees(degrees) -> tuple:
    d = tuple(require_int(x, "degree") for x in degrees)
    if not d:
        raise InputError("empty degree sequence")
    if any(b <= a for a, b in zip(d, d[1:])):
        raise InputError(f"degree sequence not strictly increasing: {d}")
    return d


def pure_diagram(degrees) -> tuple:
    """The entries beta_0 = 1, ..., beta_s of the normalized pure diagram on a
    strictly increasing degree sequence, as a tuple of Fractions; entry i
    sits at position (i, degrees[i])."""
    numerator, denominators = integer_pure_diagram(degrees)
    return tuple(Fraction(numerator, q) for q in denominators)


def integer_pure_diagram(degrees) -> tuple:
    """The pure diagram as integers (N, (q_0, ..., q_s)), with beta_i = N / q_i
    unreduced: N = prod_{j>=1} (d_j - d_0), q_i = prod_{j != i} |d_j - d_i|."""
    d = check_degrees(degrees)
    return prod(dj - d[0] for dj in d[1:]), tuple(
        prod(abs(dj - di) for dj in d if dj != di) for di in d
    )


class TranslationTemplate(Value):
    """A degree sequence whose entries are affine in the power k.

    positions[i] = (slope, intercept); instantiation at k yields the sequence
    (slope*k + intercept)_i, strictly increasing for every k >= k_min.
    """

    positions: tuple
    k_min: int

    def instantiate(self, k: int) -> tuple:
        if require_int(k, "k") < self.k_min:
            raise InputError(f"k={k} below template k_min={self.k_min}")
        degrees = tuple(a * k + b for a, b in self.positions)
        return check_degrees(degrees)


# ---------------------------------------------------------------------------
# Pretty table rendering (display rows are j - i)
# ---------------------------------------------------------------------------


def render_table(diagram: BettiDiagram) -> str:
    """Render the banded table; empty cells print ".", row gaps elide."""
    if diagram.is_zero():
        return "(empty diagram)"
    ncols = diagram.max_column() + 1
    rows_present = sorted({j - i for (i, j) in diagram.support()})

    def cells(r):
        out = []
        for c in range(ncols):
            v = diagram.get(c, r + c) if r + c >= 0 else Fraction(0)
            out.append(format_rational(v) if v else ".")
        return out

    body = []
    previous = None
    for r in rows_present:
        if previous is not None and r > previous + 1:
            body.append((ELLIPSIS_ROW, [""] * ncols))
        body.append((str(r), cells(r)))
        previous = r

    header = [str(c) for c in range(ncols)]
    widths = [len(h) for h in header]
    for _, row in body:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    label_width = max([len(label) for label, _ in body] + [1])

    lines = [
        " " * label_width
        + " | "
        + "  ".join(h.rjust(w) for h, w in zip(header, widths))
    ]
    lines.append("-" * label_width + "-+-" + "-" * (sum(widths) + 2 * (ncols - 1)))
    for label, row in body:
        cells_text = "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        lines.append(label.rjust(label_width) + " | " + cells_text)
    return "\n".join(lines)
