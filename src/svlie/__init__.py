"""Exact workbench for the deformative Schroedinger-Virasoro Lie algebras.

Brackets, Yang-Baxter obstructions, derivation catalogs and windowed
first-cohomology dimensions, all in exact rational arithmetic.
"""

from .algebra import (
    AlgebraParams,
    BasisIndex,
    C,
    Element,
    InvalidIndexError,
    L,
    M,
    Window,
    Y,
    bracket,
    center_in_window,
    check_jacobi,
    degree_of,
    rat,
)
from .cohomology import (
    CohomologyReport,
    assemble,
    paper_table_regression,
    solve_h1,
    verify_center_tensor_identity,
    verify_invariants_are_central,
    verify_skew_image_lemma,
)
from .derivations import (
    DerivationTable,
    catalog,
    catalog_basis,
    homogeneous_component,
    inner,
    is_derivation,
)
from .literals import LiteralError, ParseDiagnostic, parse_element, parse_tensor2
from .tensors import (
    Tensor2,
    Tensor3,
    check_compatibility,
    check_cojacobi_identity,
    check_cybe,
    check_mybe,
    coboundary,
    cyclic,
    diag_action,
    skew_part_membership,
    twist,
    ybe_c,
)

__version__ = "0.1.0"
