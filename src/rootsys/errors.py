"""Exception types shared across the package."""


class InvalidTypeError(ValueError):
    """Family/rank combination outside the finite irreducible families."""


class InvalidCartanError(ValueError):
    """A raw matrix failed validation.

    ``violations`` lists the broken invariants by name: ``diagonal``,
    ``sign``, ``product-bound``, ``decomposable``, ``not-positive-definite``.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid Cartan matrix: " + ", ".join(self.violations))


class InvalidArgumentError(ValueError):
    """Malformed argument to an otherwise valid operation."""


class NumericInconsistencyError(RuntimeError):
    """Exact Coxeter-element data broke an identity it must satisfy: no finite
    order, an inexact division, or eigenvalue counts that do not add up."""


class InternalInconsistencyError(RuntimeError):
    """A structural invariant that valid inputs cannot break was broken anyway."""
