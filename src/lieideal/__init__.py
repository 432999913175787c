"""Exact-arithmetic toolkit for transitivity of Lie ideals over Q.

Structure constants, brackets, and subspaces are exact rationals throughout,
so ideal membership, definiteness, and chain verification are certified
yes/no answers rather than numerical judgments.
"""

from .exactlin import Inertia, Mat, Subspace, inertia, nullspace, rat
from .liealg import (
    LieAlgebra,
    LinMap,
    Subalgebra,
    SymForm,
    bracket_spaces,
    center,
    centralizer,
    derived_subalgebra,
    direct_sum,
    full_subalgebra,
    generated_subalgebra,
    is_ideal,
    is_perfect,
    is_semisimple,
    killing_form,
    normalizer,
    quotient,
    radical,
    subalgebra,
    validate,
)
from .derivations import (
    DerivationAlgebra,
    TowerReport,
    derivation_algebra,
    derivation_tower,
    holomorph,
    is_characteristic,
    is_complete,
    theorem_derived_check,
)
from .transitivity import (
    CounterexampleCertificate,
    HypothesisError,
    IdealChain,
    SubidealVerdict,
    TheoremViolationError,
    cartan_eigenspaces,
    check_cartan_criterion,
    check_complete_subideal,
    check_perfect_transitivity,
    check_radical_intersection,
    check_self_normalizing_theorem,
    check_skew_form_criterion,
    counterexample_extension,
    ideal_closure,
    is_self_normalizing,
    levi_criterion,
    normalizer_tower,
    subideal_chain,
)

__version__ = "0.1.0"
