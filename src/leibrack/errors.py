"""Exception hierarchy shared across the package.

Structural problems (bad shapes, malformed tables) are kept apart from axiom
violations (well-formed data failing a defining identity), and both from the
chart/domain failures of the local-group machinery.  The command line tool
maps each family to its own exit code.
"""


class LeibrackError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(LeibrackError):
    """Malformed input: inconsistent shapes, out-of-range table entries."""


class AxiomError(LeibrackError):
    """Well-formed data that violates a defining identity."""

    def __init__(self, law, residual, report=None):
        super().__init__(f"{law} violated (max residual {residual:.3e})")
        self.law = law
        self.residual = residual
        self.report = report


class DomainError(LeibrackError):
    """A computation left the local domain (chart, neighbourhood, action)."""


class ChartError(DomainError):
    """A matrix left the logarithm domain of the exponential chart."""


class MembershipError(DomainError):
    """A vector is not in the required subspace or neighbourhood."""


class CapabilityError(LeibrackError):
    """The computation needs data that was not supplied."""
