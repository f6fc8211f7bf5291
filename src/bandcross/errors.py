"""Exception types raised by the numerical routines.

Each error names the contract it guards; callers that hit one should adjust
resolution or configuration rather than suppress it.
"""


class BandcrossError(Exception):
    """Base class for all package errors."""


# -- Bloch eigenproblem -------------------------------------------------------

class TruncationTooSmall(BandcrossError):
    """Plane-wave cutoff does not cover the potential's Fourier support."""


class NotLinearCrossing(BandcrossError):
    """Band touching with vanishing slope gap; outside the supported class."""


class IsolationFailure(BandcrossError):
    """No spectral margin between the crossing pair and the other bands."""


class OverlapCollapse(BandcrossError):
    """Successive eigenvectors nearly orthogonal; gauge transport undefined."""


# -- classical flow -----------------------------------------------------------

class ConvergenceFailure(BandcrossError):
    """A flow drifted off its conserved energy beyond the allowed tolerance."""


class LeftBrillouinWindow(BandcrossError):
    """Trajectory momentum left the window where the band interpolant holds."""


class NoCrossing(BandcrossError):
    """Momentum never reaches the crossing within the integration span."""


class TangentialApproach(BandcrossError):
    """Momentum reaches the crossing with nearly zero drive; matching invalid."""


class SecondCrossing(BandcrossError):
    """Trajectory reaches a further band degeneracy within the time span."""


# -- envelopes ----------------------------------------------------------------

class GridOverflow(BandcrossError):
    """Envelope mass reached the boundary of the moving-frame grid."""


class DegenerateSlopes(BandcrossError):
    """Slope gap too small to define the excited-envelope integral."""


# -- wavepacket assembly ------------------------------------------------------

class EnvelopeClipped(BandcrossError):
    """Scaled envelope support does not fit inside the spatial domain."""


# -- direct solver ------------------------------------------------------------

class StabilityViolation(BandcrossError):
    """Time step does not resolve the potential phase rotation."""


class GridMismatch(BandcrossError):
    """Operands live on different spatial grids."""


class WindowEmpty(BandcrossError):
    """Observation window contains negligible mass."""


# -- harness ------------------------------------------------------------------

class DegenerateFit(BandcrossError):
    """Scaling fit requested on degenerate or insufficient data."""


class SolverBudgetExceeded(BandcrossError):
    """Step-doubling error estimate stays above its target after every halving."""
