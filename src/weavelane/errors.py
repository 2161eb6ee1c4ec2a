"""Exception hierarchy for weavelane.

Every error raised by the library derives from :class:`WeavelaneError` so
callers can catch model problems without swallowing programming errors.
"""

from __future__ import annotations


class WeavelaneError(Exception):
    """Base class for all weavelane errors."""


class NegativeFlow(WeavelaneError):
    """A flow ratio or raw flow count is negative."""


class SimplexViolation(WeavelaneError):
    """Exogenous flow ratios do not sum to one within tolerance."""


class DomainError(WeavelaneError, ValueError):
    """An argument lies outside its domain: a share outside [0, 1] or a
    non-finite number. Also a :class:`ValueError`, as bad values are."""


class DegenerateCosts(WeavelaneError):
    """Both Lane-1 cost slopes vanish; the equilibrium is undefined."""


class NotAdmissible(WeavelaneError):
    """Configuration violates the 0 < Phi < Gamma < 1 ordering."""


class ToleranceNotMet(WeavelaneError):
    """Numeric solver exhausted its budget above the residual bound."""


class AngleOutOfRange(WeavelaneError):
    """Orientation angle violates cos(theta) + 2 sin(theta) > 0 or a class bound."""


class DistinctnessViolated(WeavelaneError):
    """Two vehicle types share an indifference threshold within tolerance."""


class ZeroDenominator(WeavelaneError):
    """Raw flow normalization would divide by zero."""


class EmptyDataset(WeavelaneError):
    """Calibration requires at least one observation."""


class BoundsInfeasible(WeavelaneError):
    """Calibration bounds are empty or exclude the initial point."""


class ZeroObservedShare(WeavelaneError):
    """An observed steadfast share of zero breaks the relative-error metric."""


class DatasetFormatError(WeavelaneError):
    """Observation file has an unknown header or a malformed row."""


class ScenarioError(WeavelaneError):
    """Scenario file has unknown keys, bad values, or no flows section."""


class MissingSection(WeavelaneError):
    """A command needs a scenario section (population, sweep) that is absent."""
