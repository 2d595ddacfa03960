"""The template bump and the normalized cover partition.

Everything in this module is an exact piecewise polynomial.  One
template bump is built per fold count: the indicator of the core
[-1/2, 1/2], half inflated by the margin, convolved with `folds` box
kernels, so derivatives and extrema come from the piece coefficients,
never from numerical differencing.  A cover partition places that
template on every interval by t -> center + side*t, an exact dyadic map;
a placed bump is built only when something reads it.  build_partition
validates all placements at once (or raises DegenerateSupport) and
certifies that the bump total is positive on the whole covered band from
the template's plateau, not from samples (or raises UncoveredPoint).
The normalized family phi_i = psi_i / sum_j psi_j is piecewise rational
on the common breakpoint refinement of the bumps; its derivatives are
evaluated with the reciprocal and product rules against the same exact
piece data.  A refinement piece's coefficients are built when a value,
derivative or extremum first reads that piece, not when the partition is
built.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ._fitting import BOUNDED, INCONCLUSIVE, range_trend
from .errors import DegenerateSupport, UncoveredPoint
from .seq_calculus import WeightSequence, log_h_function
from .whitney_geometry import WhitneyCover, covered_sample_grid, distance_grid, sorted_unique

# Bump margins are this fraction of the interval side.  Supports then
# reach exactly to the expanded intervals of a 9/8 cover, which is the
# smallest expansion the margin rule tolerates.
MARGIN_FRACTION = 1.0 / 16.0
_MIN_EXPANSION = 1.0 + 2.0 * MARGIN_FRACTION

# Candidate envelope parameters B of check_derivative_bound, smallest first.
ENVELOPE_B_GRID = (1.0, 2.0, 4.0, 8.0)


def _eval_local(coeffs: Sequence[float], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return float(acc)


def _taylor_shift(coeffs: Sequence[float], shift: float) -> list[float]:
    """Coefficients of P(y + shift) from those of P(y), on Python floats."""
    shift = float(shift)
    out = [float(c) for c in coeffs]
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += shift * out[j + 1]
    return out


def _real_roots_in(coeffs: np.ndarray, lo: float, hi: float) -> list[float]:
    """Real roots of the coefficient polynomial clipped to [lo, hi]."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if c.size < 2:
        return []
    c = c / np.max(np.abs(c))
    roots = np.roots(c[::-1])
    span = hi - lo
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)):
            t = float(r.real)
            if lo - 1e-12 * span <= t <= hi + 1e-12 * span:
                out.append(min(max(t, lo), hi))
    return out


def _coeff_table(pieces) -> np.ndarray:
    """The coefficient rows as one array, shorter rows zero-padded."""
    lengths = {len(row) for row in pieces}
    if len(lengths) == 1:
        return np.array(pieces, dtype=float)
    coeff = np.zeros((len(pieces), max(lengths)))
    for j, row in enumerate(pieces):
        coeff[j, : len(row)] = row
    return coeff


class PiecewisePolynomial:
    """Compactly supported piecewise polynomial in local power basis.

    Piece j covers [breakpoints[j], breakpoints[j+1]) and evaluates
    sum_m pieces[j][m] * (x - breakpoints[j])**m; the function is zero
    outside the breakpoint span.  The rightmost breakpoint belongs to
    the last piece so closed supports evaluate cleanly.
    """

    def __init__(self, breakpoints: tuple[float, ...], pieces: tuple[tuple[float, ...], ...]):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if not np.all(np.diff(bp) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != bp.size - 1:
            raise ValueError("need exactly one coefficient row per piece")
        if any(len(row) == 0 for row in pieces):
            raise ValueError("empty coefficient row")
        coeff = _coeff_table(pieces)
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        self.breakpoints, self.pieces, self._bp, self._coeff = breakpoints, pieces, bp, coeff

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    @property
    def degree(self) -> int:
        return self._coeff.shape[1] - 1

    def piece_index(self, x: float) -> int:
        """Index of the piece whose interval holds x, -1 outside the span."""
        bp = self._bp
        if x < bp[0] or x > bp[-1]:
            return -1
        j = int(np.searchsorted(bp, x, side="right")) - 1
        return min(j, bp.size - 2)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        bp = self._bp
        idx = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, bp.size - 2)
        dx = xs - bp[idx]
        out = np.zeros_like(xs)
        for m in range(self.degree, -1, -1):
            out = out * dx + self._coeff[idx, m]
        out = np.where((xs >= bp[0]) & (xs <= bp[-1]), out, 0.0)
        return float(out[0]) if scalar else out


def _local_coeffs(poly: PiecewisePolynomial, t: float, probe: float) -> np.ndarray:
    """Coefficients of poly around t, taken from the piece containing probe."""
    j = poly.piece_index(probe)
    return np.array(_taylor_shift(poly.pieces[j], t - poly.breakpoints[j]))


def _merge_close(values: np.ndarray, tol: float) -> np.ndarray:
    kept = [float(values[0])]
    for v in values[1:]:
        if v - kept[-1] > tol:
            kept.append(float(v))
    return np.asarray(kept)


def _convolve_box(
    bp: list[float], rows: Sequence[Sequence[float]], width: float
) -> tuple[list[float], list[tuple[float, ...]]]:
    """Convolution with the unit-mass box of the given width.

    Maps unvalidated PiecewisePolynomial data (breakpoints, rows) to the
    same, so a fold chain builds and checks one PiecewisePolynomial at
    its end.  The piece arithmetic runs on Python floats, doing the same
    operations in the same order as elementwise float64 arrays would.
    """
    half = 0.5 * width
    anti = []
    acc = 0.0
    for j, row in enumerate(rows):
        arow = [acc] + [float(c) / (m + 1) for m, c in enumerate(row)]
        anti.append(arow)
        acc = _eval_local(arow, bp[j + 1] - bp[j])
    total = acc

    def anti_at(expand_at: float, probe: float) -> list[float]:
        # Expansion of the antiderivative around expand_at.  The piece is
        # chosen by the probe (a window midpoint), which is immune to the
        # ulp-level breakpoint jitter that endpoint lookups trip over.
        if probe < bp[0]:
            return [0.0]
        if probe >= bp[-1]:
            return [total]
        j = bisect.bisect_right(bp, probe) - 1
        return _taylor_shift(anti[j], expand_at - bp[j])

    new_bp = sorted_unique(np.concatenate([np.subtract(bp, half), np.add(bp, half)]))
    # Shifted copies of one exact breakpoint can land an ulp apart; the
    # sliver pieces they would create poison later piece lookups.
    tol = 32.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(new_bp))))
    new_bp = _merge_close(new_bp, tol).tolist()
    new_rows = []
    for j in range(len(new_bp) - 1):
        t = new_bp[j]
        mid = 0.5 * (new_bp[j] + new_bp[j + 1])
        upper = anti_at(t + half, mid + half)
        lower = anti_at(t - half, mid - half)
        g = [0.0] * max(len(upper), len(lower))
        for m, u in enumerate(upper):
            g[m] = 0.0 + u  # as on a zeros row: -0.0 becomes 0.0
        for m, v in enumerate(lower):
            g[m] -= v
        new_rows.append(tuple(np.array(g) / width))
    return new_bp, new_rows


def build_bump(folds: int) -> PiecewisePolynomial:
    """The template: the core [-1/2, 1/2] half inflated, convolved once per fold.

    Each fold convolves with the unit-mass box of width MARGIN_FRACTION /
    folds.  The result is a spline of degree folds, one on the core,
    zero outside [-1/2 - MARGIN_FRACTION, 1/2 + MARGIN_FRACTION], and
    each derivative up to that order is bounded by (2 / width)^order.
    The folds run on plain rows; the one PiecewisePolynomial built at
    the end validates the result, so coefficients that overflow partway
    through the chain still raise ValueError.
    """
    if not (isinstance(folds, int) and folds >= 1):
        raise ValueError("fold count must be a positive integer")
    half_margin = 0.5 * MARGIN_FRACTION
    bp = [-0.5 - half_margin, 0.5 + half_margin]
    rows = [(1.0,)]
    for _ in range(folds):
        bp, rows = _convolve_box(bp, rows, MARGIN_FRACTION / folds)
    return PiecewisePolynomial(tuple(bp), tuple(rows))


def _derivative_values(coeffs: Sequence[float], t: float, order: int) -> np.ndarray:
    """Derivatives 0..order at t; each derivative row is j * c[j], as npoly.polyder forms it."""
    out = np.empty(order + 1)
    cur = [float(c) for c in coeffs]
    for m in range(order + 1):
        out[m] = _eval_local(cur, t)
        cur = [j * cur[j] for j in range(1, len(cur))] or [0.0]
    return out


class PlacedBumps(Sequence):
    """One template bump placed on many intervals, each bump built on first read.

    Row i of ``breakpoints`` is center_i + side_i * t over the template
    breakpoints t; ``rows[i]`` are the template rows with row m divided
    by side_i**m, one tuple shared by every interval of a side.  Bump i
    is the PiecewisePolynomial of those two, built and kept when it is
    first read.  It is built without PiecewisePolynomial's checks:
    build_partition has made them on all rows at once (finite, strictly
    increasing breakpoints; finite rows), and the template's shape fixes
    the rest (at least two breakpoints, one nonempty row per piece).
    """

    def __init__(self, breakpoints: np.ndarray, rows: Sequence[tuple]) -> None:
        self.breakpoints = breakpoints
        self.rows = rows
        self._built: dict[int, PiecewisePolynomial] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> PiecewisePolynomial:
        i = range(len(self.rows))[i]  # IndexError ends iteration
        got = self._built.get(i)
        if got is None:
            bp, rows = self.breakpoints[i], self.rows[i]
            got = self._built[i] = object.__new__(PiecewisePolynomial)
            got.breakpoints, got.pieces = tuple(bp.tolist()), rows
            got._bp, got._coeff = bp, _coeff_table(rows)
        return got


def _live_bumps(
    breakpoints: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    """Per refinement piece, the bumps whose closed support holds its midpoint.

    That is the test piece_index makes.  Bump i covers the pieces from
    the first midpoint >= starts[i] to the last one <= ends[i]; the
    (piece, bump) pairs are sorted by piece with a stable sort, so each
    piece lists its bumps ascending, the summation order.  Runs of
    pieces with one live set share one tuple, placed by an object-array
    gather rather than a Python int per piece.
    """
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    firsts = np.searchsorted(mids, starts, side="left")
    counts = np.maximum(np.searchsorted(mids, ends, side="right") - firsts, 0)
    owners = np.repeat(np.arange(counts.size), counts)
    pieces = np.arange(owners.size) + np.repeat(firsts - (np.cumsum(counts) - counts), counts)
    order = np.argsort(pieces, kind="stable")
    owners, pieces = owners[order], pieces[order]
    per = np.bincount(pieces, minlength=mids.size)
    table = np.full((mids.size, int(per.max(initial=0))), -1)
    table[pieces, np.arange(owners.size) - np.repeat(np.cumsum(per) - per, per)] = owners
    new = np.ones(mids.size, dtype=bool)
    new[1:] = (table[1:] != table[:-1]).any(axis=1)
    runs = np.flatnonzero(new)
    sets = np.fromiter(
        (tuple(row[:k]) for row, k in zip(table[runs].tolist(), per[runs].tolist())),
        object,
        runs.size,
    )
    return tuple(sets[np.cumsum(new) - 1].tolist())


class Partition:
    """Normalized bump family phi_i = psi_i / sum_j psi_j.

    The family lives on the common breakpoint refinement of its bumps.
    Building it records, per refinement piece, only which bumps are alive
    there (from each bump's support slice, not a scan).  A piece's local
    coefficients, of each live bump and of their total, are built by
    piece(j) on first read and kept, so quotient derivatives and extrema
    never leave exact piece data and a run pays only for the pieces it
    reads.
    """

    def __init__(
        self,
        folds: int,
        bumps: PlacedBumps,
        cover: WhitneyCover,
        breakpoints: np.ndarray,
        piece_active: tuple[tuple[int, ...], ...],
    ) -> None:
        self.folds = folds
        self.bumps = bumps
        self.cover = cover
        self.breakpoints = breakpoints
        self.piece_active = piece_active
        self._pieces: dict = {}

    @classmethod
    def from_bumps(cls, bumps: PlacedBumps, folds: int, cover: WhitneyCover) -> "Partition":
        """The partition of the placed bumps on the cover; no bump is built."""
        if len(bumps) == 0:
            raise ValueError("need at least one bump")
        flat = bumps.breakpoints
        all_bp = sorted_unique(flat)
        return cls(
            folds=int(folds),
            bumps=bumps,
            cover=cover,
            breakpoints=all_bp,
            piece_active=_live_bumps(all_bp, flat[:, 0], flat[:, -1]),
        )

    def piece(self, j: int) -> tuple[tuple[np.ndarray, ...], tuple[float, ...]]:
        """Local coefficients of piece j around its left end, built once.

        Returns the rows of the bumps in piece_active[j], in that order,
        and the row of their total, summed in ascending bump order.  Each
        bump row is taken from the bump piece holding the midpoint.
        """
        got = self._pieces.get(j)
        if got is None:
            bp = self.breakpoints
            t, mid = float(bp[j]), float(0.5 * (bp[j] + bp[j + 1]))
            cfs = tuple(_local_coeffs(self.bumps[i], t, mid) for i in self.piece_active[j])
            tot = np.zeros(max((c.size for c in cfs), default=1))
            for c in cfs:
                tot[: c.size] += c
                c.flags.writeable = False  # every later read shares this row
            row = tuple(tot.tolist())
            if not all(map(math.isfinite, row)):
                raise ValueError(f"bump total coefficients overflow on piece {j}")
            got = self._pieces[j] = (cfs, row)
        return got

    def __len__(self) -> int:
        return len(self.bumps)

    def total(self, xs):
        """The bump total sum_i psi_i at xs, zero outside the breakpoints.

        Each x is evaluated on the refinement piece holding it (the
        rightmost breakpoint belongs to the last piece), by Horner on that
        piece's total row.
        """
        xs = np.asarray(xs, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        bp = self.breakpoints
        idx = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, bp.size - 2)
        out = np.zeros_like(xs)
        for k in np.flatnonzero((xs >= bp[0]) & (xs <= bp[-1])):
            j = int(idx[k])
            out[k] = _eval_local(self.piece(j)[1], float(xs[k] - bp[j]))
        return float(out[0]) if scalar else out

    def values_matrix(self, xs) -> np.ndarray:
        """phi values, one row per bump, zero where the total vanishes."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        rows = np.vstack([b(xs) for b in self.bumps])
        totals = self.total(xs)
        denom = np.where(totals > 0.0, totals, 1.0)
        out = rows / denom
        out[:, totals <= 0.0] = 0.0
        return out

    def derivatives(self, i: int, x: float, order: int) -> np.ndarray:
        """phi_i and its derivatives at x up to the requested order.

        Derivatives are taken piecewise (right-continuous at breakpoints)
        through the reciprocal and product rules on exact coefficients.
        Both rules run on Python floats, the same IEEE doubles as numpy
        scalars, so the values are the same bits.
        """
        if not 0 <= order <= self.folds:
            raise ValueError("order must lie between 0 and the fold count")
        out = np.zeros(order + 1)
        bp = self.breakpoints
        if x < bp[0] or x > bp[-1]:
            return out
        j = min(int(np.searchsorted(bp, x, side="right")) - 1, bp.size - 2)
        actives = self.piece_active[j]
        if i not in actives:
            return out
        if len(actives) == 1:
            # The quotient is identically one on a single-bump piece.
            out[0] = 1.0
            return out
        dx = float(x - bp[j])
        cfs, tot = self.piece(j)
        psi_d = _derivative_values(cfs[actives.index(i)], dx, order).tolist()
        tot_d = _derivative_values(tot, dx, order).tolist()
        if tot_d[0] == 0.0:
            return out
        recip = [1.0 / tot_d[0]]
        for m in range(1, order + 1):
            acc = 0.0
            for r in range(1, m + 1):
                acc += math.comb(m, r) * tot_d[r] * recip[m - r]
            recip.append(-recip[0] * acc)
        for b in range(order + 1):
            out[b] = sum(math.comb(b, r) * psi_d[r] * recip[b - r] for r in range(b + 1))
        return out

    def sup_norm(self, i: int, order: int) -> float:
        """Exact sup of |phi_i^(order)| via per-piece rational extrema.

        On a piece where phi_i = N/S^(order+1), interior candidates are
        the real roots of the next numerator in the quotient-rule chain;
        piece endpoints complete the candidate set.
        """
        if not 0 <= order <= self.folds:
            raise ValueError("order must lie between 0 and the fold count")
        from numpy.polynomial import polynomial as npoly  # no extend job needs it

        best = 0.0
        bp = self.breakpoints
        for j, actives in enumerate(self.piece_active):
            if i not in actives:
                continue
            if len(actives) == 1:
                best = max(best, 1.0 if order == 0 else 0.0)
                continue
            w = float(bp[j + 1] - bp[j])
            # Unit-piece rescale keeps the chain coefficients in range.
            cfs, tot = self.piece(j)
            num = cfs[actives.index(i)]
            den = np.asarray(tot)
            num = num * w ** np.arange(num.size)
            den = den * w ** np.arange(den.size)
            dden = npoly.polyder(den) if den.size > 1 else np.zeros(1)
            chain = [num]
            for b in range(order + 1):
                nb = chain[-1]
                nb_p = npoly.polyder(nb) if nb.size > 1 else np.zeros(1)
                chain.append(
                    npoly.polysub(npoly.polymul(nb_p, den), (b + 1) * npoly.polymul(nb, dden))
                )
            ts = [0.0, 1.0] + _real_roots_in(chain[order + 1], 0.0, 1.0)
            for t in ts:
                s = _eval_local(den, t)
                if s <= 0.0:
                    continue
                value = abs(_eval_local(chain[order], t)) / s ** (order + 1)
                best = max(best, value / w**order)
        return best


def template_plateau(template: PiecewisePolynomial) -> tuple[int, int, float]:
    """Breakpoint indices (q0, q1) of the template's plateau, and its floor.

    Each piece, rescaled to [0, 1], is converted to the Bernstein basis;
    its smallest Bernstein coefficient is a lower bound of the piece.
    The plateau [bp[q0], bp[q1]] is the run of contiguous pieces around 0
    whose bound is at least 1/2, and the floor is min(0, smallest bound
    of any piece).  No row is assumed exact: at fold counts such as 3,
    5, 6 and 7 the float chain moves the core row off (1, 0, ...) and
    the core breakpoints off -1/2 and 1/2.
    """
    bp = template.breakpoints
    bounds = []
    for j, row in enumerate(template.pieces):
        w = bp[j + 1] - bp[j]
        unit = [float(c) * w**m for m, c in enumerate(row)]
        n = len(unit) - 1
        bounds.append(
            min(
                sum(math.comb(k, m) / math.comb(n, m) * unit[m] for m in range(k + 1))
                for k in range(n + 1)
            )
        )
    q0 = bisect.bisect_right(bp, 0.0) - 1
    if not (0 <= q0 < len(bounds) and bounds[q0] >= 0.5):
        raise UncoveredPoint("the template bump has no plateau at 0")
    q1 = q0 + 1
    while q0 > 0 and bounds[q0 - 1] >= 0.5:
        q0 -= 1
    while q1 < len(bounds) and bounds[q1] >= 0.5:
        q1 += 1
    return q0, q1, min(0.0, min(bounds))


def _band_meets(cover: WhitneyCover, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each open interval (a, b) holds a point of the covered band.

    The band is d_min_covered <= d(x) < r_cov.  On (a, b) the distance
    d ranges over an interval: its infimum is 0 if the set meets (a, b)
    and min(d(a), d(b)) otherwise; its supremum is the largest of d(a),
    d(b) and d at the midpoints between set components inside (a, b).
    """
    comps = np.array(cover.e.components)
    da, db = distance_grid(cover.e, a), distance_grid(cover.e, b)
    meets_set = ((comps[:, 0] < b[:, None]) & (comps[:, 1] > a[:, None])).any(axis=1)
    mids = 0.5 * (comps[:-1, 1] + comps[1:, 0])
    inside = (mids > a[:, None]) & (mids < b[:, None])
    peak = np.where(inside, 0.5 * (comps[1:, 0] - comps[:-1, 1]), 0.0).max(axis=1, initial=0.0)
    sup = np.maximum(np.maximum(da, db), peak)
    inf = np.where(meets_set, 0.0, np.minimum(da, db))
    return (sup >= cover.d_min_covered) & (inf < cover.r_cov)


def build_partition(cover: WhitneyCover, folds: int) -> Partition:
    """Normalized partition subordinate to the expanded cover intervals.

    Each interval gets a bump whose core is the interval and whose margin
    is a sixteenth of the side, so supports end exactly on the expanded
    intervals of a 9/8 cover.  One template bump on the core [-1/2, 1/2]
    is placed on the interval (c, s) as t -> c + s*t with row m divided
    by s**m, exact for the power-of-two sides of a cover.  All placements
    are checked at once; DegenerateSupport names c and s of the first
    placement whose breakpoints do not strictly increase or are not
    finite, or whose rows overflow.

    Coverage is certified, not sampled.  Every bump is at least 1/2 on
    its placed plateau and at least the template floor (<= 0) everywhere
    (template_plateau).  If the plateaus cover the band d_min_covered <=
    d(x) < r_cov, then on the whole band
        sum_i psi_i >= 1/2 + (live_max - 1) * floor > 0,
    with live_max the most bumps alive on one refinement piece; a gap
    in the plateaus that meets the band, or a bound that is not
    positive, raises UncoveredPoint.  The bound holds for the
    polynomials the float rows define; the Horner evaluation of a
    piece's total row errs by about 1e-14, far below the 1/2 margin.
    """
    if cover.expansion < _MIN_EXPANSION - 1e-12:
        raise ValueError(
            f"cover expansion {cover.expansion} leaves bump supports outside"
            " the expanded intervals; need at least 9/8"
        )
    template = build_bump(int(folds))
    centers = np.asarray(cover.centers, dtype=float)
    sides = np.asarray(cover.sides, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bpm = centers[:, None] + sides[:, None] * template._bp
        bad = ~(np.isfinite(bpm).all(axis=1) & (np.diff(bpm, axis=1) > 0.0).all(axis=1))
    # Scaled rows once per side: c / side**m, one IEEE division per entry.
    side_list = sides.tolist()
    rows_of: dict = {}
    for side in dict.fromkeys(side_list):
        try:
            scale = np.array([side**m for m in range(template._coeff.shape[1])])
        except OverflowError as exc:
            rows_of[side] = (exc, False)
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scaled = template._coeff / scale
        rows = tuple(tuple(r[: len(t)]) for r, t in zip(scaled.tolist(), template.pieces))
        rows_of[side] = (rows, bool(np.isfinite(scaled).all()))
    placed = [rows_of[side] for side in side_list]
    bad |= np.array([not ok for _, ok in placed], dtype=bool)
    if bad.any():
        # Name the first bad placement as its own construction would.
        i = int(np.argmax(bad))
        try:
            rows = placed[i][0]
            if isinstance(rows, OverflowError):
                raise rows
            PiecewisePolynomial(tuple(bpm[i].tolist()), rows)
        except (ValueError, ArithmeticError) as exc:
            raise DegenerateSupport(
                f"bump at center {float(centers[i])}, side {float(sides[i])}: {exc}"
            ) from None
    bumps = PlacedBumps(bpm, [rows for rows, _ in placed])
    partition = Partition.from_bumps(bumps, folds, cover)

    q0, q1, floor = template_plateau(template)
    lo, hi = bpm[:, q0], bpm[:, q1]
    order = np.argsort(lo, kind="stable")
    reach = np.maximum.accumulate(hi[order])
    gap_lo = np.concatenate([[-np.inf], reach])
    gap_hi = np.concatenate([lo[order], [np.inf]])
    gaps = np.flatnonzero(gap_lo < gap_hi)
    hit = gaps[_band_meets(cover, gap_lo[gaps], gap_hi[gaps])]
    if hit.size:
        a, b = float(gap_lo[hit[0]]), float(gap_hi[hit[0]])
        raise UncoveredPoint(
            f"no bump plateau covers ({a}, {b}), which meets the covered band"
            f" {cover.d_min_covered} <= d(x) < {cover.r_cov}"
        )
    live_max = max(map(len, partition.piece_active))
    if not 0.5 + (live_max - 1) * floor > 0.0:
        raise UncoveredPoint(
            f"template floor {floor} over {live_max} live bumps leaves no positive bound"
        )
    return partition


class DerivativeBoundReport(NamedTuple):
    """Fitted envelope constants and the exact sup-norm side table.

    The verified bound reads, at every sampled x and order beta,

        |phi_i^(beta)(x)| <= fitted_m * geometric_rate**beta
                             * full_row(beta) * envelope(x).

    per_beta_m holds the raw per-order fit before the geometric factor
    is removed; m_trend judges the normalized profile.  The geometric
    freedom stands in for the non-effective choice of dominating weight
    family behind the envelope bound.
    """

    fold_count: int
    beta_max: int
    envelope_b: float
    fitted_m: float
    geometric_rate: float
    per_beta_m: tuple[float, ...]
    normalized_m: tuple[float, ...]
    m_trend: str
    clamped_envelopes: int
    sample_count: int
    sup_norms: tuple[tuple[float, ...], ...]


def check_derivative_bound(
    partition: Partition,
    weight_row: WeightSequence,
    beta_max: int,
    *,
    sample_points=None,
    sample_count: int = 256,
) -> DerivativeBoundReport:
    """Fit the constants closing the derivative envelope bound.

    At each sampled x the left side is the largest |phi_i^(beta)(x)| over
    the bumps alive there; the envelope on the right side is
    (e / h_row(b1*p*d(x) / (9*A2*B)))^(A1*B/p), evaluated through the
    log-domain h-function.  The per-order fit is reduced by its best
    geometric factor before the trend test, since the dominating weight
    family behind the bound is only determined up to such a rescale, and
    B is taken as the smallest member of ENVELOPE_B_GRID whose normalized
    profile is bounded in the order.  Exact sup norms of every phi
    derivative ride along as a side table.
    """
    cover = partition.cover
    folds = partition.folds
    if not 0 <= beta_max <= folds:
        raise ValueError("beta_max must lie between 0 and the fold count")
    if weight_row.order < beta_max:
        raise ValueError("weight row shorter than beta_max")
    if sample_points is None:
        xs = covered_sample_grid(cover, sample_count)
    else:
        xs = np.atleast_1d(np.asarray(sample_points, dtype=float))
    distances = distance_grid(cover.e, xs)
    if np.any(distances <= 0.0):
        raise ValueError("sample points must keep positive distance from the set")

    lhs = np.zeros((xs.size, beta_max + 1))
    for col, x in enumerate(xs):
        for i in cover.members(float(x), expanded=True):
            vals = np.abs(partition.derivatives(int(i), float(x), beta_max))
            lhs[col] = np.maximum(lhs[col], vals)
    log_w = np.array(
        [math.lgamma(b + 1.0) + weight_row.log_values[b] for b in range(beta_max + 1)]
    )
    with np.errstate(divide="ignore"):
        log_lhs = np.log(lhs)

    cst = cover.constants
    orders = np.arange(beta_max + 1, dtype=float)
    chosen = None
    for b_par in ENVELOPE_B_GRID:
        log_env = np.empty(xs.size)
        clamped = 0
        for col in range(xs.size):
            arg = cst.b_1 * folds * distances[col] / (9.0 * cst.A_2 * b_par)
            log_h, argmin = log_h_function(weight_row, math.log(arg))
            if argmin == weight_row.order:
                clamped += 1
            log_env[col] = (cst.A_1 * b_par / folds) * (1.0 - log_h)
        per_beta = (log_lhs - log_w[None, :] - log_env[:, None]).max(axis=0)
        # Remove the best geometric factor; the dominating weight family
        # in the target bound is only fixed up to such a rescale.
        finite = np.isfinite(per_beta)
        if finite.sum() >= 2:
            slope = float(np.polyfit(orders[finite], per_beta[finite], 1)[0])
        else:
            slope = 0.0
        log_rate = max(slope, 0.0)
        normalized = per_beta - log_rate * orders
        if np.count_nonzero(np.isfinite(normalized)) >= 8:
            trend, _ = range_trend(np.exp(normalized - np.max(normalized[finite])))
        else:
            trend = INCONCLUSIVE
        result = (float(b_par), per_beta, normalized, log_rate, trend, clamped)
        if trend == BOUNDED:
            chosen = result
            break
        chosen = result
    envelope_b, per_beta_log, normalized_log, log_rate, m_trend, clamped = chosen
    sup_norms = tuple(
        tuple(partition.sup_norm(i, b) for b in range(beta_max + 1))
        for i in range(len(partition.bumps))
    )
    return DerivativeBoundReport(
        fold_count=folds,
        beta_max=int(beta_max),
        envelope_b=envelope_b,
        fitted_m=float(np.exp(np.max(normalized_log))),
        geometric_rate=float(np.exp(log_rate)),
        per_beta_m=tuple(float(np.exp(v)) for v in per_beta_log),
        normalized_m=tuple(float(np.exp(v)) for v in normalized_log),
        m_trend=m_trend,
        clamped_envelopes=int(clamped),
        sample_count=int(xs.size),
        sup_norms=sup_norms,
    )
