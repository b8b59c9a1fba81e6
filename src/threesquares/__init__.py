"""Exact arithmetic toolkit for sums of three squares, q-series
dissections, and positive definite ternary quadratic forms.

The package verifies, with integer-exact arithmetic throughout:
classical theta-function and eta-product identities, the prime-square
recursion for the three-squares counting function through its sifting
chains, and the two distinguished genus constructions with their
automorph-weighted counting identity.
"""

from .qseries import (
    QSeries,
    TruncationMismatch,
    euler_e,
    monomial,
    one,
    prod_ap,
    theta_f,
    theta_f_product,
    zero,
)
from .lattice import (
    BinaryForm,
    Constraint,
    TernaryForm,
    identity_form,
    rep_count_ternary,
    s_table,
    theta_series_binary,
    theta_series_ternary,
)
from .forms import (
    apply_transform,
    automorph_count,
    automorphs,
    enumerate_classes,
    equivalent_forms,
    legendre,
    reduce_form,
    reduce_form_with_transform,
)
from .genera import (
    Genus,
    HResult,
    find_h,
    genus_partition,
    same_genus,
    tg1,
    tg2,
)
from .catalog import IdentitySpec, evaluate, lookup
from .verify import (
    HSReport,
    JagyReport,
    Prop54Report,
    SignatureReport,
    TheoremReport,
    VerificationReport,
    run_catalog,
    verify_hs,
    verify_identity,
    verify_jagy,
    verify_prop54,
    verify_signature,
    verify_theorems,
)

__version__ = "0.1.0"

__all__ = [
    "QSeries",
    "TruncationMismatch",
    "euler_e",
    "monomial",
    "one",
    "prod_ap",
    "theta_f",
    "theta_f_product",
    "zero",
    "BinaryForm",
    "Constraint",
    "TernaryForm",
    "identity_form",
    "rep_count_ternary",
    "s_table",
    "theta_series_binary",
    "theta_series_ternary",
    "apply_transform",
    "automorph_count",
    "automorphs",
    "enumerate_classes",
    "equivalent_forms",
    "legendre",
    "reduce_form",
    "reduce_form_with_transform",
    "Genus",
    "HResult",
    "find_h",
    "genus_partition",
    "same_genus",
    "tg1",
    "tg2",
    "IdentitySpec",
    "evaluate",
    "lookup",
    "HSReport",
    "JagyReport",
    "Prop54Report",
    "SignatureReport",
    "TheoremReport",
    "VerificationReport",
    "run_catalog",
    "verify_hs",
    "verify_identity",
    "verify_jagy",
    "verify_prop54",
    "verify_signature",
    "verify_theorems",
]
