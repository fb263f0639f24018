"""Mobius-monotonicity analysis and strong stationary duals on finite posets."""

from .availability import (
    AvailabilityReport,
    RateFunctions,
    availability_generator,
    availability_pipeline,
    pernode_family,
    power_family,
    uniformize,
)
from .chain import (
    Chain,
    StationaryLaw,
    reverse,
    stationary,
    validate_chain,
)
from .convergence import (
    AbsorptionLaw,
    EmpiricalTail,
    SeparationCurve,
    absorption_tail,
    cube_eigenvalues,
    cube_separation_formula,
    separation_curve,
    simulate_absorption,
    sst_bound_check,
)
from .cube import (
    CubeWalkParams,
    GPlusMove,
    axis_moves,
    axis_transformed_walk,
    gplus_transform,
    nearest_neighbor_walk,
    supermodular_order_witness,
)
from .duality import (
    DualChain,
    DualityResiduals,
    Link,
    build_link,
    build_ssd,
    g_ratio,
    verify_duality,
)
from .monotonicity import (
    MonotonicityReport,
    function_mobius_monotone,
    mobius_monotone_down,
    mobius_monotone_up,
    strong_stochastic_monotone,
    weak_monotone,
)
from .poset import (
    Poset,
    build_poset,
    cube_poset,
    meet_join,
    zeta_mobius,
)
from .specfile import load_model, serialize_chain, serialize_poset

__version__ = "0.1.0"
