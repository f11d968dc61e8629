"""Exact equivariant cohomology of GKM graphs.

Thom classes by path sums and by interpolation, localization integrals,
cross-section transfer maps, and structure constants, all over exact
rational arithmetic.
"""

from .builders import (
    build_graph,
    complete_graph,
    complete_graph_on_points,
    load_graph,
    permutahedron,
    save_graph,
)
from .cohomology import (
    CohomologyClass,
    CrossSectionClass,
    constant_class,
    edge_class,
    integrate,
    integrate_cross_section,
    is_cocycle,
    kirwan,
)
from .crosssection import (
    CrossSection,
    TransferMatrix,
    chamber_levels,
    compose_transfer,
    cross_section,
    single_step_transfer,
    transport_class,
)
from .errors import GkmCalcError
from .graph import (
    GkmGraph,
    Polarization,
    betti,
    check_generic,
    longest_path_morse,
    polarize,
    search_polarization,
    totally_geodesic_subgraph,
    validate,
)
from .interpolation import (
    elementary_symmetric,
    lagrange_interpolate,
    vandermonde_inverse,
)
from .symbolic import LinearForm, Polynomial, RationalExpr
from .thom import ThomCalculator

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
