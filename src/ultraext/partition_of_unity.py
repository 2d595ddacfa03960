"""The template bump and the normalized cover partition.

Everything in this module is an exact piecewise polynomial.  One
template bump is built per partition: the indicator of the core
[-1/2, 1/2], half inflated by the margin, convolved with `folds` box
kernels.  In closed form that is a difference of two integrated cardinal
B-splines; build_bump evaluates it in integer arithmetic and rounds each
breakpoint and coefficient once, so derivatives and extrema come from
the piece coefficients, never from numerical differencing.  A cover
partition places that template on every interval by t -> center +
side*t, an exact dyadic map, and keeps only the placed breakpoints and
the scaled rows.  build_partition validates all placements at once (or
raises DegenerateSupport) and certifies that the bump total is positive
on the whole covered band from the template's plateau, not from samples
(or raises UncoveredPoint).  The normalized family phi_i = psi_i /
sum_j psi_j is piecewise rational on the common breakpoint refinement of
the bumps; its derivatives are evaluated with the reciprocal and product
rules against the same exact piece data.  A refinement piece's
coefficients are built when a value, derivative or extremum first reads
that piece, not when the partition is built.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence

import numpy as np

from .errors import CoverOverlap, DegenerateSupport, UncoveredPoint
from .whitney_geometry import WhitneyCover, distance_grid, sorted_unique

# Bump margins are this fraction of the interval side.  Supports then
# reach exactly to the expanded intervals of a 9/8 cover, which is the
# smallest expansion the margin rule tolerates.
MARGIN_FRACTION = 1.0 / 16.0
_MIN_EXPANSION = 1.0 + 2.0 * MARGIN_FRACTION


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
        # The rows as one array, shorter rows zero-padded.
        coeff = np.zeros((len(pieces), max(map(len, pieces))))
        for j, row in enumerate(pieces):
            coeff[j, : len(row)] = row
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


def build_bump(folds: int) -> PiecewisePolynomial:
    """The template: the core [-1/2, 1/2] half inflated, convolved once per fold.

    Each fold convolves with the unit-mass box of width w = MARGIN_FRACTION
    / folds, so with A = (1 + MARGIN_FRACTION)/2 the template is
    N((t + A)/w) - N((t - A)/w), N the centered integrated cardinal
    B-spline of degree folds (de Boor, A Practical Guide to Splines).  It
    is one on the core and zero outside [-1/2 - MARGIN_FRACTION, 1/2 +
    MARGIN_FRACTION]; its knots are -1/2 - MARGIN_FRACTION + k*w and
    1/2 + k*w for k = 0..folds, and between them N is the Irwin-Hall sum
    N(s) = sum_{k <= x} (-1)^k C(folds, k) (x - k)^folds / folds!, with
    x = s + folds/2.

    The margin and every float are ratios of integers, so the build is
    exact: each breakpoint is its exact value rounded once, and each row
    holds the exact Taylor coefficients of its piece at the stored
    breakpoint, rounded once by one int / int true division per entry.
    Rows beyond float range raise ValueError.
    """
    if not (isinstance(folds, int) and folds >= 1):
        raise ValueError("fold count must be a positive integer")
    n = folds
    p, q = MARGIN_FRACTION.as_integer_ratio()  # margin p/q, w = p/(q*n)
    # The knots over the common denominator 2*q*n: rising ramp, then falling.
    knots = [2 * p * k - (q + 2 * p) * n for k in range(n + 1)]
    knots += [2 * p * k + q * n for k in range(n + 1)]
    bp = tuple(k / (2 * q * n) for k in knots)
    rows = []
    for j, b in enumerate(bp[:-1]):
        if j == n:  # the core
            rows.append((1.0,) + (0.0,) * n)
            continue
        # Before the core the piece is N(x), x = (t + 1/2)/w + n, with the
        # terms k <= j; past it, 1 - N(x), x = (t - 1/2)/w, with k < j - n.
        # At t = b, x = xn / e.
        rising = j < n
        bn, bd = b.as_integer_ratio()
        e = 2 * bd * p
        xn = (2 * bn + (bd if rising else -bd)) * n * q + (n * e if rising else 0)
        live = range(j + 1 if rising else j - n)
        row = []
        for m in range(n + 1):
            num = math.comb(n, m) * (n * q) ** m * sum(
                (-1) ** k * math.comb(n, k) * (xn - k * e) ** (n - m) for k in live
            )
            den = math.factorial(n) * p**m * e ** (n - m)
            if not rising:
                num = (den if m == 0 else 0) - num
            try:
                row.append(num / den)
            except OverflowError:
                raise ValueError(f"template coefficients must be finite; row {j} overflows") from None
        rows.append(tuple(row))
    return PiecewisePolynomial(bp, tuple(rows))


def _derivative_values(coeffs: Sequence[float], t: float, order: int) -> np.ndarray:
    """Derivatives 0..order at t; each derivative row is j * c[j], as npoly.polyder forms it."""
    out = np.empty(order + 1)
    cur = [float(c) for c in coeffs]
    for m in range(order + 1):
        out[m] = _eval_local(cur, t)
        cur = [j * cur[j] for j in range(1, len(cur))] or [0.0]
    return out


def _live_bumps(
    breakpoints: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    """Per refinement piece, the bumps whose closed support holds its midpoint.

    Partition.piece reads each live bump's row at that midpoint.  Bump i
    covers the pieces from the first midpoint >= starts[i] to the last
    one <= ends[i]; the (piece, bump) pairs are sorted by piece with a
    stable sort, so each piece lists its bumps ascending, the summation
    order.  Runs of pieces with one live set share one tuple, placed by
    an object-array gather rather than a Python int per piece.
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

    Bump psi_i is the piecewise polynomial with breakpoints placed[i] and
    piece rows rows[i] (one tuple shared by every interval of a side).
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
        placed: np.ndarray,
        rows: Sequence[tuple],
        breakpoints: np.ndarray,
        piece_active: tuple[tuple[int, ...], ...],
    ) -> None:
        self.folds = folds
        self.placed = placed
        self.rows = rows
        self.breakpoints = breakpoints
        self.piece_active = piece_active
        self._pieces: dict = {}

    @classmethod
    def from_bumps(cls, placed: np.ndarray, rows: Sequence[tuple], folds: int) -> "Partition":
        """The partition of the bumps (placed[i], rows[i]); no piece is built."""
        if len(rows) == 0:
            raise ValueError("need at least one bump")
        all_bp = sorted_unique(placed)
        return cls(
            folds=int(folds),
            placed=placed,
            rows=rows,
            breakpoints=all_bp,
            piece_active=_live_bumps(all_bp, placed[:, 0], placed[:, -1]),
        )

    def piece(self, j: int) -> tuple[tuple[np.ndarray, ...], tuple[float, ...]]:
        """Local coefficients of piece j around its left end, built once.

        Returns the rows of the bumps in piece_active[j], in that order,
        and the row of their total, summed in ascending bump order.  Each
        bump row is the row of the bump piece holding the midpoint (the
        last piece holds its right end), shifted to the left end.
        """
        got = self._pieces.get(j)
        if got is None:
            bp = self.breakpoints
            t, mid = float(bp[j]), float(0.5 * (bp[j] + bp[j + 1]))
            cfs = []
            for i in self.piece_active[j]:
                at = self.placed[i]
                k = min(int(np.searchsorted(at, mid, side="right")) - 1, at.size - 2)
                cfs.append(np.array(_taylor_shift(self.rows[i][k], t - at[k])))
            tot = np.zeros(max((c.size for c in cfs), default=1))
            for c in cfs:
                tot[: c.size] += c
                c.flags.writeable = False  # every later read shares this row
            row = tuple(tot.tolist())
            if not all(map(math.isfinite, row)):
                raise ValueError(f"bump total coefficients overflow on piece {j}")
            got = self._pieces[j] = (tuple(cfs), row)
        return got

    def __len__(self) -> int:
        return len(self.rows)

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
        bumps = zip(self.placed.tolist(), self.rows)
        rows = np.vstack([PiecewisePolynomial(tuple(at), r)(xs) for at, r in bumps])
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
    of any piece).  No row is assumed exact: the ramp rows are rounded,
    so their bounds can fall an ulp-sized amount below the exact ones.
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

    First, CoverOverlap if an expanded interval reaches the center of a
    neighbour, where WhitneyCover.window_memberships would miss members
    (a wider expansion than 9/8 can do that).
    """
    if cover.expansion < _MIN_EXPANSION - 1e-12:
        raise ValueError(
            f"cover expansion {cover.expansion} leaves bump supports outside"
            " the expanded intervals; need at least 9/8"
        )
    centers = np.asarray(cover.centers, dtype=float)
    sides = np.asarray(cover.sides, dtype=float)
    half = 0.5 * cover.expansion * sides
    gaps = np.diff(centers)
    if not ((gaps > half[:-1]) & (gaps > half[1:])).all():
        raise CoverOverlap(
            "an expanded interval reaches a neighbouring center; the"
            " two-interval window would miss members"
        )
    template = build_bump(int(folds))
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
    partition = Partition.from_bumps(bpm, [rows for rows, _ in placed], folds)

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
