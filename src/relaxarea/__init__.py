"""Relaxed graph-area functionals for circle-valued singular maps.

Numerical realizations of the explicit constructions behind the formula

    relaxed area = integral sqrt(1 + |grad u|^2) dx + pi * M(P(u))

for Sobolev maps into the unit circle: example vortex fields, adaptive
singularity-aware quadrature, lattice extraction of the singularity chain
P(u) via winding numbers, the recovery sequences that realize the upper
bound, and the convergence/subadditivity experiments.
"""

from .chains import (
    SingularChain,
    chain_boundary,
    chain_mass,
    distance_to_chain,
    interior_boundary,
)
from .domains import Annulus, Ball, Cone, Cube, Difference, Domain, make_domain
from .errors import (
    AmbiguousWinding,
    DegreeMismatch,
    InsufficientData,
    InvalidGeometry,
    InvalidParams,
    IoFailure,
    NoConvergence,
    NonFinite,
    RelaxAreaError,
    SingularOnLoop,
    SingularPoint,
    StencilCrossesSingularity,
)
from .fields import (
    VectorField,
    area_integrand,
    make_example_field,
    minor_pairs,
    minors2,
)
from .quadrature import QuadratureResult, area_functional, graph_functionals, integrate
from .recovery import (
    cone_dipole,
    counterexample_sequence,
    cylinder_analogue_2d,
    homogeneous_cone_extension,
    remove_point_singularity,
    vortex_smoothing_2d,
)
from .relaxation import (
    ConvergenceReport,
    SubadditivityReport,
    convergence_study,
    extrapolate_limit,
    strict_bv_check,
    subadditivity_experiment,
)
from .topology import (
    Circle,
    GridSpec,
    extract_lines_3d,
    extract_vortices_2d,
    relaxed_area_rhs,
    winding_number,
)

__version__ = "0.1.0"
