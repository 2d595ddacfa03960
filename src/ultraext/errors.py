"""Exception types shared across the package, and the JSON readers' value checks.

Every error that encodes a mathematical verdict (truncation unsoundness, a
divergent integral, an undecidable trend) gets its own class so callers can
branch on meaning rather than on message text.
"""

from __future__ import annotations

import math


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


class ConfigError(UltraextError, ValueError):
    """Malformed or unknown job-configuration content.

    Also a ValueError: it reports a value the reader cannot take.
    """


def json_number(value, where: str, error: type[Exception] = ConfigError) -> float:
    """value as a float if it is a JSON number; a bool or a string raises error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{where} must be a number, got {value!r}")
    return float(value)


def json_integer(value, where: str, error: type[Exception] = ConfigError) -> int:
    """value as an int if it is an integral JSON number (2 and 2.0 alike)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{where} must be an integer, got {value!r}")
    return value


def json_numbers(value, where: str, nonempty: bool = False) -> list[float]:
    """value as a list of floats if it is a JSON list of numbers, nonempty if asked."""
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"{where} must be a {'nonempty ' if nonempty else ''}list of numbers")
    return [json_number(v, f"{where} entry") for v in value]


def json_rows(value, where: str, size: int) -> list:
    """value if it is a JSON list of size-entry lists."""
    if not (isinstance(value, list) and all(isinstance(v, list) and len(v) == size for v in value)):
        raise ConfigError(f"{where} must be a list of {size}-entry lists")
    return value


def json_components(entries) -> tuple:
    """The (a, b) components of (where, [a, b]) entries, sorted.

    A component that is not finite, inverted or meets another (closed
    components must be disjoint) raises ConfigError naming its where.
    """
    comps = sorted((a, b, where) for where, (a, b) in entries)
    for a, b, where in comps:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"{where} entry [{a!r}, {b!r}] is not finite")
        if a > b:
            raise ConfigError(f"{where} entry [{a!r}, {b!r}] is inverted")
    for (a0, b0, w0), (a1, b1, w1) in zip(comps, comps[1:]):
        if not b0 < a1:
            raise ConfigError(f"{w1} entry [{a1!r}, {b1!r}] meets {w0} entry [{a0!r}, {b0!r}]")
    return tuple((a, b) for a, b, _ in comps)


def json_object(
    value, where: str, required=(), optional=(), error: type[Exception] = ConfigError
) -> dict:
    """value if it is a JSON object with every required key and no key beyond optional."""
    if not isinstance(value, dict):
        raise error(f"{where} must be an object")
    missing = sorted(set(required) - set(value))
    unknown = sorted(set(value) - set(required) - set(optional))
    if missing or unknown:
        raise error(f"{where} keys missing: {missing}, unknown: {unknown}")
    return value
