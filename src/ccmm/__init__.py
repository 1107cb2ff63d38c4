"""Concentration of measure on finite irreversible metric measure spaces.

Core objects: asymmetric distance matrices with forward/backward
neighborhoods (:mod:`ccmm.quasimetric`), 1-Lipschitz test families
(:mod:`ccmm.lipschitz`), concentration profiles and tail inequalities
(:mod:`ccmm.concentration`), observable diameters (:mod:`ccmm.observable`),
discrete isoperimetry with the Gaussian comparison profile
(:mod:`ccmm.isoperimetry`), spectral-gap estimation and bounds
(:mod:`ccmm.spectrum`), Randers-geometry discretization
(:mod:`ccmm.finsler`), and the theorem verification suite
(:mod:`ccmm.verify`) behind the ``ccmm`` command line.
"""

__version__ = "0.1.0"

from .quasimetric import (
    MetricMeasureSpace,
    PointSet,
    ProbabilityMeasure,
    QuasiMetricSpace,
    ViolationReport,
    backward_neighborhood,
    diameter,
    forward_neighborhood,
    from_digraph,
    random_mm_space,
    reverse,
    validate,
)
from .lipschitz import (
    LipschitzFamily,
    ScalarField,
    generate_family,
    inf_convolution,
    lipschitz_constant,
    mean,
    median,
)
from .concentration import (
    ConcentrationProfile,
    ProfileFit,
    alpha,
    alpha_profile,
    check_linear_tail_decay,
    check_moment_concentration,
    deviation_check,
    enlargement_check_from_tail_bound,
    fit_profile,
    median_to_mean_tail_constants,
    moment_bound_from_normal_tails,
    moment_norm,
    normal_equivalence_constants,
    tail_bound_from_first_moment,
    tail_bound_from_square_moments,
    tail_envelope,
)
from .observable import (
    ObsDiamResult,
    alpha_inverse,
    observable_diameter,
    observable_diameters,
    obsdiam_bound_exponential,
    obsdiam_bound_normal,
    obsdiam_vs_alpha_check,
    partial_diameter,
    pushforward_partial_diameter,
)
from .isoperimetry import (
    MinkowskiContent,
    gaussian_alpha_bound,
    gaussian_phi,
    gaussian_phi_inv,
    isoperimetric_profile,
    minkowski_content,
    normal_concentration_bound,
    obsdiam_bound_from_curvature,
    profile_enlargement_check,
)
from .spectrum import (
    ChengInputs,
    EigenEstimate,
    alpha_bound_from_spectral_gap,
    cheng_upper_bound,
    dual_slope,
    first_eigenvalue,
    obsdiam_bound_from_spectral_gap,
    rayleigh_quotient,
    spectral_mass_decay_check,
    symmetric_oracle,
    symmetric_oracle_field,
)
from .finsler import (
    CatalogEntry,
    Interval,
    LatLongSphere,
    RandersSpec,
    Torus,
    build_space,
    catalog,
    catalog_entry,
    entry_from_dict,
    finsler_length,
    stencil_chordal_bound,
)
from .verify import VerifyReport, run_verify
