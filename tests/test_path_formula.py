import pytest

from itertools import product

from bettistab.diagram import BettiDiagram, column_sums, validate_cyclic
from bettistab.errors import InputError
from bettistab.exact_arith import binom
from bettistab.koszul_oracle import betti_oracle
from bettistab.path_formula import (
    _product,
    path_betti,
    path_diagram,
    path_family_size,
    path_ideal,
)


def test_path_betti_values():
    assert path_betti(6, 2, 1, 4) == 15  # C(k+4,4) at k=2
    assert path_betti(6, 2, 2, 6) == 8  # k(k+2) at k=2
    assert path_betti(6, 4, 5, 12) == 1  # C(k,4) at k=4
    assert path_betti(4, 1, 2, 3) == 2
    assert path_betti(6, 1, 0, 0) == 1
    assert path_betti(6, 3, 0, 5) == 0


def test_path_betti_rejects_bad_parameters():
    with pytest.raises(InputError):
        path_betti(1, 1, 0, 0)
    with pytest.raises(InputError):
        path_betti(4, 0, 0, 0)
    with pytest.raises(InputError):
        path_betti(4, 1, -1, 0)
    # True would run as k = 1; floats would reach binom or range
    for args in ((6, True, 1, 3), (6.0, 2, 1, 4), (6, 2, 1.0, 4), (6, 2, 1, 4.0)):
        with pytest.raises(InputError):
            path_betti(*args)
    for n, k in ((6, 2.0), (6.0, 2), (6, True)):
        with pytest.raises(InputError):
            path_diagram(n, k)


def test_path_diagram_range_error_names_only_n_and_k():
    for n, k in ((6, 0), (1, 3), (0, -1)):
        with pytest.raises(InputError) as info:
            path_diagram(n, k)
        assert str(info.value) == f"parameters out of range: n={n}, k={k}"


def _box_scan(n, k):
    """path_diagram as it was before the band: path_betti on every cell of the
    box 0 <= i <= n, i <= j <= 2k+n."""
    entries = {}
    for i in range(n + 1):
        for j in range(i, 2 * k + n + 1):
            if v := path_betti(n, k, i, j):
                entries[(i, j)] = v
    return BettiDiagram(entries)


def test_band_diagram_equals_the_box_scan():
    for n in range(2, 11):
        for k in range(1, 31):
            assert path_diagram(n, k) == _box_scan(n, k), (n, k)


def test_band_at_a_million():
    # the band's cost does not grow with k: at k = 10^6 each row i is checked
    # against path_betti three cells past the band on both sides, and the
    # support above row 0 is that of k = n + 1 moved 2 per unit of k
    k = 10**6
    for n in range(2, 11):
        diagram = dict(path_diagram(n, k).items())
        for i in range(1, n + 1):
            low = max((3 * i + 3 * k - 2) // 2, 2 * k + i - 1)
            high = min(2 * k + 2 * i - 2, 2 * k + n)
            for j in range(low - 3, high + 4):
                assert diagram.get((i, j), 0) == path_betti(n, k, i, j), (n, i, j)
        shifted = {(i, j + 2 * (k - n - 1)) for i, j in path_diagram(n, n + 1).support() if i}
        assert set(diagram) == shifted | {(0, 0)}, n


def test_product_keeps_the_binom_conventions():
    # on every integer quadruple here, in range or not; in ten of them the
    # product is non-zero only because C(a, 0) = 1 for a negative a, as in
    # (n, k, i, j) = (6, 1, 0, 0): C(7, 0) * C(6, 0) * C(-1, 0) = 1
    for n, k, i, j in product(range(-3, 7), range(-1, 5), range(-2, 6), range(-2, 14)):
        expected = (
            binom(n + 3 * k - j - 2, 2 * j - 3 * i - 3 * k + 3)
            * binom(n + 4 * k + 2 * i - 2 * j - 4, 2 * k + 2 * i - j - 2)
            * binom(j - i - k, k - 1)
        )
        assert _product(n, k, i, j) == expected, (n, k, i, j)


def test_path_diagram_small_cases():
    assert dict(path_diagram(4, 1).items()) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert dict(path_diagram(2, 3).items()) == {(0, 0): 1, (1, 6): 1}


def test_path_diagram_matches_oracle_small():
    assert path_diagram(4, 1) == betti_oracle(path_ideal(4))


def test_six_variable_support_shape():
    # nonzero support lies in display rows {0, 2k-1, 2k} only
    for k in range(1, 7):
        diagram = path_diagram(6, k)
        rows = {j - i for (i, j) in diagram.support()}
        assert rows <= {0, 2 * k - 1, 2 * k}
        assert validate_cyclic(diagram)


def test_six_variable_closed_entries():
    for k in range(1, 7):
        diagram = path_diagram(6, k)
        expected = {(0, 0): 1}
        table = {
            (1, 2 * k): binom(k + 4, 4),
            (2, 2 * k + 1): 4 * binom(k + 3, 4),
            (3, 2 * k + 2): 6 * binom(k + 2, 4),
            (4, 2 * k + 3): 4 * binom(k + 1, 4),
            (5, 2 * k + 4): binom(k, 4),
            (2, 2 * k + 2): k * (k + 2),
            (3, 2 * k + 3): 2 * k * (k + 1),
            (4, 2 * k + 4): k * k,
        }
        expected.update({pos: v for pos, v in table.items() if v})
        assert dict(diagram.items()) == expected


def test_alternating_column_sums_vanish():
    for n, k in [(2, 1), (3, 2), (4, 1), (5, 1), (6, 1), (6, 4)]:
        sums = column_sums(path_diagram(n, k))
        assert sum((-1) ** i * s for i, s in enumerate(sums)) == 0


def test_path_family_detection():
    assert path_family_size(path_ideal(6)) == 6
    assert path_family_size(path_ideal(2)) == 2
    from bettistab.monomial_ideal import make_ideal

    assert path_family_size(make_ideal(2, [(1, 1), (2, 0)])) is None


def test_path_ideal_requires_two_vertices():
    with pytest.raises(InputError):
        path_ideal(1)
    with pytest.raises(InputError):
        path_ideal(3.0)
