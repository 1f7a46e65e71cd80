"""Exception and warning types shared across the package."""


class PostLieError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(PostLieError):
    """An index or vector/matrix shape does not fit the algebra."""


class ModeMismatch(PostLieError):
    """Exact and float scalars were mixed, or the wrong mode was supplied."""


class InvalidInput(PostLieError):
    """A precondition on the operation's input was violated."""


class NonFiniteNumber(InvalidInput):
    """A float-mode number is NaN, infinite or beyond the float range."""


class MalformedNumber(InvalidInput):
    """Text given as a scalar is not a rational: p/q, an integer or a decimal."""


class YangBaxterFailure(InvalidInput):
    """R does not solve the modified Yang-Baxter equation for theta."""

    def __init__(self, theta, worst_pair, worst_defect_norm):
        self.theta = theta
        self.worst_pair = worst_pair
        self.worst_defect_norm = worst_defect_norm
        super().__init__(
            "R does not solve the modified Yang-Baxter equation "
            "(worst pair %r, defect norm %.3g)" % (worst_pair, worst_defect_norm)
        )


class JacobiViolation(PostLieError):
    """Structure constants fail the Jacobi identity."""

    def __init__(self, i, j, k, l, defect):
        self.indices = (i, j, k, l)
        self.defect = defect
        super().__init__(
            "Jacobi identity fails on basis triple (%d,%d,%d), component %d: "
            "defect %s" % (i, j, k, l, defect)
        )


class RealizationMismatch(PostLieError):
    """The matrix realization does not represent the bracket."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(
            "realization fails on basis pair (%d,%d): "
            "rho([x_i,x_j]) != [rho(x_i),rho(x_j)]" % (i, j)
        )


class NoRealization(PostLieError):
    """The operation needs a matrix realization and none is attached."""


class UnsupportedName(PostLieError):
    """Unknown built-in algebra or r-matrix name."""


class NotASubalgebra(PostLieError):
    """A basis-index span is not closed under the bracket."""

    def __init__(self, side, witness):
        self.side = side
        self.witness = witness
        super().__init__(
            "span '%s' is not a subalgebra: bracket of basis pair %s "
            "leaves the span" % (side, witness)
        )


class NotADirectSum(PostLieError):
    """The two index sets do not partition the basis."""


class OrderMismatch(PostLieError):
    """Operands carry different truncation orders."""


class AlgebraMismatch(PostLieError):
    """Operands belong to different algebras."""


class NotInAugmentationIdeal(PostLieError):
    """exp needs a constant-term-free argument."""


class NotUnitNormalized(PostLieError):
    """log needs an argument with constant term 1."""


class CollapseFailure(PostLieError):
    """A Magnus coefficient kept words of length >= 2 (invalid input or bug)."""

    def __init__(self, n, residual):
        self.order = n
        self.residual = residual
        super().__init__(
            "order-%d Magnus coefficient has a non-vanishing length>=2 part: %s"
            % (n, residual)
        )


class NotPreLie(PostLieError):
    """The supplied product tensor fails the pre-Lie identity."""


class NotAbelian(PostLieError):
    """The supplied bracket is not identically zero."""


class StepTooLarge(PostLieError):
    """The integrator's drift heuristic tripped; reduce the step."""


class NonConvergentSeries(UserWarning):
    """Order-N and order-(N-1) factorized solutions disagree noticeably."""

    def __init__(self, t, gap, tolerance):
        self.t = t
        self.gap = gap
        self.tolerance = tolerance
        super().__init__(
            "truncation tail %.3e at t=%g exceeds flow tolerance %.1e"
            % (gap, t, tolerance)
        )
