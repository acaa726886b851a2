"""A reader for `render_table` output, kept as the renderer's reference.

The round-trip tests parse a rendered table back into a diagram and compare
it with the original, so every entry the table shows is checked to sit in
its display row (j - i) and column (i).  The package itself reads diagrams
only as JSON.
"""

from fractions import Fraction

from bettistab.diagram import ELLIPSIS_ROW, BettiDiagram


def parse_table(text: str) -> BettiDiagram:
    """Parse render_table output back into a diagram (round-trip inverse)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines == ["(empty diagram)"]:
        return BettiDiagram({})
    columns = [int(h) for h in lines[0].split("|", 1)[1].split()]
    entries = {}
    for line in lines[2:]:
        label, _, rest = line.partition("|")
        if label.strip() == ELLIPSIS_ROW:
            continue
        r = int(label)
        cells = rest.split()
        assert len(cells) <= len(columns), f"row {r} has too many cells"
        for c, cell in zip(columns, cells):
            if cell != ".":
                entries[(c, r + c)] = Fraction(cell)
    return BettiDiagram(entries)
