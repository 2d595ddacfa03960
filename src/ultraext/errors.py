"""Exception types shared across the package.

Every error that encodes a mathematical verdict (truncation unsoundness, a
divergent integral, an undecidable trend) gets its own class so callers can
branch on meaning rather than on message text.
"""

from __future__ import annotations


class UltraextError(Exception):
    """Base class for all package-specific errors."""


class CutoffError(UltraextError):
    """An extremum over the index range was attained at the stored cutoff K.

    The transforms enumerate a mathematically infinite index set up to K;
    when the extremum sits at K the finite answer is not trustworthy.
    """


class SupremumAtCutoff(CutoffError):
    """Supremum defining the associated weight attained at k = K."""


class InfimumAtCutoff(CutoffError):
    """Infimum defining the h-function attained at k = K."""


class CountingIndexAtCutoff(CutoffError):
    """No index k < K satisfies the counting-index quotient condition."""


class BracketFailure(UltraextError):
    """Young-conjugate maximizer escaped the search bracket."""


class DivergentTail(UltraextError):
    """Panel increments of an improper integral stopped contracting."""


class InconclusiveTrend(UltraextError):
    """A fitted-constant trend is non-monotone at the grid top; no verdict."""


class SandwichUnverifiable(UltraextError):
    """No row pairing admits bounded fitted sandwich constants."""


class MissingRow(UltraextError):
    """A required matrix row (e.g. the doubled index 2*xi) is not stored."""


class HypothesisViolated(UltraextError):
    """Input sequences do not satisfy the stated domination hypothesis."""


class EmptyCover(UltraextError):
    """Requested cover radius produced no intervals."""


class DegenerateSupport(UltraextError):
    """Bump support would be empty or have zero margin."""


class CoverOverlap(UltraextError):
    """An expanded cover interval reaches the center of a neighbouring one."""


class UncoveredPoint(UltraextError):
    """A point inside the claimed region is not covered by the partition."""


class OrderOverflow(UltraextError):
    """Requested derivative/degree exceeds the stored jet order."""


class NotInClass(UltraextError):
    """Jet growth is inconsistent with every candidate certificate row."""


class PlanInvalid(UltraextError):
    """Extension plan violates the scale-parameter threshold inequality."""


class OutsideRegion(UltraextError):
    """Evaluation point lies outside the extension's validity region."""


class PrecisionFloor(UltraextError):
    """Dyadic boundary approach starts below the resolvable precision floor."""


class ConfigError(UltraextError):
    """Malformed or unknown job-configuration content."""
