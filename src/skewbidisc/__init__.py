"""Schur-class functions on the symmetrized skew bidisc.

Computational counterparts of the operator-model theory of the domain
G_r = {(l1 + r l2, r l1 l2) : |l1| < 1, |l2| < 1} and its scaled relative
r.G: unitary-colligation realizations, Gramian-based model synthesis, the
operator kernels linking the bidisc picture to r.G, and a closed-form
function catalog with dual-path certification.
"""

import types as _types

from .colligation import (
    Colligation,
    ROperator,
    SubspaceSplit,
    build_R,
    norm_bound,
    random_colligation,
    s_T,
    s_UR,
    validate_colligation,
)
from .domains import (
    Point2,
    fq_disc,
    in_G,
    in_Gr,
    in_rG,
    magic_phi,
    mobius_phi,
    pi_map,
    quad_roots,
    sample_rG,
    scale_psi,
    sigma,
    t_r,
    upsilon,
)
from .errors import SkewBidiscError
from .kernels import (
    KernelContext,
    factorization_residual,
    kernel_Y,
    kernel_Z,
    substitution_residual,
)
from .linalg import (
    PartialIsometry,
    gram_gap,
    inverse,
    is_unitary,
    isometry_from_gramians,
    spectral_norm,
    unitary_extension,
)
from .realization import (
    GrModel,
    eval_f,
    eval_u,
    evaluate,
    model_residual,
    realization_from_model,
    schur_certify,
)
from .synthesis import (
    BidiscModelSpec,
    PolyVectorMap,
    ScalarPoly,
    SynthesizedModel,
    eval_u_model,
    eval_v,
    eval_w,
    eval_x,
    synthesize,
    wrap_as_GrModel,
)
from .catalog import (
    RankOneParams,
    blend_params,
    catalog_campaign,
    magic_params,
    rank_one_build,
    random_params,
    upsilon_params,
)

__version__ = "0.1.0"

# The public API is every name imported above; submodules bound by the imports are not part of it.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
