"""Exact computations with crystallographic root systems: Cartan data,
positive-root enumeration, Weyl exponents, and structural verification."""

from .cartan import (
    MAX_RANK,
    CartanMatrix,
    RankedType,
    SymmetrizedForm,
    all_types,
    build_cartan,
    symmetrizer,
    validate_cartan,
)
from .errors import (
    InternalInconsistencyError,
    InvalidArgumentError,
    InvalidCartanError,
    InvalidTypeError,
    NumericInconsistencyError,
)
from .exponents import ExponentReport, coxeter_exponents, dual_partition
from .roots import Root, RootSystem, build_system, enumerate_roots
from .verify import (
    CheckResult,
    MarkChain,
    TopChain,
    VerificationLedger,
    build_ledger,
    g2_criterion_report,
    mark_chain,
    top_chain,
)

__version__ = "0.1.0"
