"""Numerical laboratory for hyperbolic toral automorphisms and their local deformations.

The package builds the classical cat-map family D = [[2,1],[1,1]], block
products A = D^n x D^m on the 4-torus, and the locally deformed maps
f = A o I_eps in which one unstable rate is flattened to 1 at a fixed point
(with a variant that makes both fixed points hyperbolic of stable indices 3
and 1).  On top of those systems it provides cone-field verification,
Lyapunov and Birkhoff statistics, plaque-pushforward measure estimates, and
periodic-point skeleton extraction, all at desk scale with explicit
tolerances.
"""

from .bump import BumpBound, SmoothBump, compute_M
from .cones import (
    ConeField,
    InvarianceReport,
    SplittingEstimate,
    extract_splitting,
    growth_sandwich_check,
    standard_cones,
    verify_invariance,
)
from .deformation import (
    ChartBox,
    DeformationParams,
    DeformedSystem,
    ParamCaps,
    build_deformed_system,
    search_params,
)
from .ergodic import (
    OrbitSpec,
    PesinBlockQuery,
    birkhoff_average,
    bundle_exponent,
    entropy_volume_identity,
    lyapunov_spectrum,
    make_rng,
    pesin_block_membership,
)
from .gibbs import (
    EmpiricalMeasure,
    UnstablePlaque,
    cesaro_push,
    seed_plaque,
    total_variation,
)
from .product import (
    LinearSystem,
    ProductSystem,
    build_product,
    commuting_diagram_check,
)
from .skeleton import (
    ManifoldArc,
    PeriodicPointRecord,
    SkeletonCandidate,
    extract_skeleton,
    grow_fan,
    grow_manifold,
    heteroclinic_test,
    newton_periodic,
)
from .torus import (
    CAT_MAP,
    IntegerMatrix,
    SpectralSplitting,
    ToralAutomorphism,
    cat_power_product,
    eigen_split,
    enumerate_periodic,
    fixed_point_count,
    reduce_torus,
)

__version__ = "0.1.0"
