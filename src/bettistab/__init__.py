"""Exact Betti diagrams of monomial ideal powers, decomposition polytopes,
and empirical stabilization scans."""

from .decomposition import (
    Decomposition,
    DecompositionPolytope,
    build_polytope,
    candidate_degree_sequences,
    enumerate_vertices,
    greedy_decompose,
    prune,
    verify_decomposition,
)
from .diagram import (
    BettiDiagram,
    TranslationTemplate,
    column_sums,
    pure_diagram,
    render_table,
    validate_cyclic,
)
from .errors import (
    BettiStabError,
    ConeError,
    InputError,
    NotEquigeneratedError,
    StabilityError,
)
from .exact_arith import (
    RationalFunctionFit,
    binom,
    fit_polynomial,
    fit_rational_function,
    format_rational,
    matrix_rank,
    parse_rational,
    solve_exact,
)
from .koszul_oracle import betti_oracle, strand_homology
from .monomial_ideal import (
    MonomialIdeal,
    is_equigenerated,
    make_ideal,
    parse_ideal,
    power,
)
from .path_formula import path_betti, path_diagram, path_family_size, path_ideal
from .stability import (
    CombinatorialSignature,
    ReferenceVertexFamily,
    StabilityReport,
    combinatorial_signature,
    compare_reference,
    match_templates,
    path6_reference,
    scan_powers,
)

__version__ = "0.1.0"
