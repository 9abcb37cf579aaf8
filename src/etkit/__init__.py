"""Exact-arithmetic workbench for cyclotomic pro-p pairs.

Expression trees of elementary-type pairs, their mod-p cohomology rings,
Demuškin classification, rigidity analysis, and cross-validation against
concrete field models (finite, local, real, complex, Laurent towers) and
a brute-force finite-group cocycle oracle.
"""

from .cocycles import (
    FiniteGroup,
    H2Space,
    cup_h1_h1,
    cyclic,
    dihedral,
    direct_product,
    extension_class,
    h1_dim,
    h2_dim,
    klein4,
)
from .cohomology import (
    DemuskinVerdict,
    GradedAlgebra,
    algebra_to_json,
    build_cohomology,
    dims_closed_form,
    is_demuskin,
    log_level_direct,
    log_level_recursive,
)
from .errors import (
    DegreeTooSmall,
    DenominatorNotInvertible,
    DimensionTooLarge,
    EtkitError,
    InvalidModel,
    KernelNotCentral,
    ModelUnsupported,
    NotAHomomorphism,
    NotAnExtension,
    NotAUnit,
    OrderBound,
    ParseError,
    ValidationError,
)
from .field_models import (
    ComplexField,
    DyadicRational,
    FiniteField,
    Laurent,
    LocalRational,
    OVerdict,
    TotalRigidityVerdict,
    TrichotomyResult,
    check_pairing_match,
    class_group,
    class_of,
    from_field_model,
    hilbert2,
    is_totally_rigid_bounded,
    model_from_json,
    o_membership,
    predict_galois_pair,
    symbol_vector,
    trichotomic_search,
)
from .pairs import (
    EBlock,
    Ext,
    FreeProd,
    PAdicBlock,
    PairExpr,
    Trivial,
    ZBlock,
    abelianization,
    normalize,
    parse,
    rank,
    render,
    theta_generators,
    to_json,
    validate,
)
from .rigidity import (
    AugBilinearMap,
    check_rigidity_criterion,
    find_equivalence,
    from_cohomology,
    is_rigid,
    n_subspace,
    rigidity_report,
)
from .units import (
    PAdicUnit,
    epsilon_of,
    make_unit,
    subgroup_invariants,
)

__all__ = [name for name in dir() if not name.startswith("_")]
