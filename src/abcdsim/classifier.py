"""Admissibility of (a, c) for the dispersive-decay machinery.

Two layers:

* the region test, a main inequality plus a refined piecewise family
  covering parts of the parameter square the main inequality misses;
* the quadratic-form coefficients in canonical variables and the search
  for a mixing weight alpha making all six leading coefficients
  nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegionVerdict",
    "QuadCoeffs",
    "REFINED_SPLIT",
    "satisfies_refined_dispersion",
    "refined_margin",
    "quadratic_coeffs",
    "find_admissible_alpha",
]

# split point of the refined family, -(19 + sqrt(181))/90, about -0.36059
REFINED_SPLIT = -(19.0 + math.sqrt(181.0)) / 90.0


def _check_domain(a: float, c: float) -> None:
    if not a < 0.0:
        raise ValueError(f"a must be negative, got {a}")
    if not c < 0.0:
        raise ValueError(f"c must be negative, got {c}")
    if c < -1.0:
        raise ValueError(f"c must be >= -1, got {c}")


@dataclass(frozen=True)
class RegionVerdict:
    accepted: bool
    branch: str  # "main-inequality", "refined-case-1", "refined-case-2", "rejected"
    margin: float  # signed slack of the binding inequality


def refined_margin(a: float, c: float, b: float = 1.0):
    """Evaluate the refined piecewise inequality for (a, c).

    Returns (case, margin) where case is "refined-case-1" (c <= a) or
    "refined-case-2" (a <= c) and margin > 0 means the row inequality
    holds; returns None when no row window contains the point.
    """
    th = REFINED_SPLIT
    if c <= a:  # case 1, windows indexed by c
        if -1.0 <= c < th:
            return "refined-case-1", 45.0 * a * c - (1.0 - a)
        if th <= c < -1.0 / 3.0:
            return "refined-case-1", 18.0 * a * c + a + c
        if -1.0 / 3.0 <= c < -1.0 / 9.0:
            return "refined-case-1", 27.0 * a * c - (6.0 * a + 1.0)
        return None
    # case 2, mirror image, windows indexed by a
    if -1.0 - 1.0 / (6.0 * b) <= a < th:
        return "refined-case-2", 45.0 * a * c - (1.0 - c)
    if th <= a < -1.0 / 3.0:
        return "refined-case-2", 18.0 * a * c + a + c
    if -1.0 / 3.0 <= a < -1.0 / 9.0:
        return "refined-case-2", 27.0 * a * c - (6.0 * c + 1.0)
    return None


def satisfies_refined_dispersion(a: float, c: float, b: float = 1.0) -> RegionVerdict:
    """Region verdict for normalized (a, c) with pre-normalization b.

    The main inequality 3(a + c) + 2 < 8ac is checked first; if it fails,
    the refined piecewise family is consulted.  Exactly one branch label
    is reported.  For a rejected point the margin is the slack of the
    nearest applicable inequality (negative).
    """
    _check_domain(a, c)
    main = 8.0 * a * c - 3.0 * (a + c) - 2.0
    if main > 0.0:
        return RegionVerdict(True, "main-inequality", main)
    row = refined_margin(a, c, b)
    if row is not None:
        case, m = row
        if m > 0.0:
            return RegionVerdict(True, case, m)
        return RegionVerdict(False, "rejected", max(main, m))
    return RegionVerdict(False, "rejected", main)


@dataclass(frozen=True)
class QuadCoeffs:
    """Leading quadratic-form coefficients in canonical variables.

    A* weight the f-ladder, B* the g-ladder, D* the third-derivative
    weight corrections.  A4 + D12 = 0 and B4 + D22 = 0 identically.
    """

    A1: float; A2: float; A3: float; A4: float
    B1: float; B2: float; B3: float; B4: float
    D11: float; D12: float; D21: float; D22: float

    def min_main(self):
        """The smallest of the six main coefficients (elementwise for an array alpha)."""
        return np.minimum.reduce([self.A2, self.A3, self.A4, self.B2, self.B3, self.B4])


def quadratic_coeffs(a: float, c: float, alpha: float) -> QuadCoeffs:
    """The coefficients at one alpha, or elementwise at an array of them."""
    return QuadCoeffs(
        A1=0.5,
        A2=-alpha - 1.5 * a,
        A3=-(1.0 - a) * alpha - 2.0 * a - 0.5,
        A4=a * (alpha - 0.5),
        B1=0.5,
        B2=alpha - 1.5 * c,
        B3=(1.0 - c) * alpha - 2.0 * c - 0.5,
        B4=-c * (alpha + 0.5),
        D11=0.5 * (1.0 + a) * (alpha + 1.0) - 0.5,
        D12=-a * (alpha - 0.5),
        D21=0.5 * (1.0 + c) * (1.0 - alpha) - 0.5,
        D22=c * (alpha + 0.5),
    )


def find_admissible_alpha(a: float, c: float, span: float = 4.0, step: float = 1e-3):
    """Search the grid k * step, |k| <= span / step, for nonnegative leading coefficients.

    Maximizes min(A2, A3, A4, B2, B3, B4) subject to all six >= 0; ties
    are broken toward the smallest |alpha|, and a tie between -alpha and
    +alpha goes to -alpha, the first in grid order.  Returns (alpha,
    margin) or None when no grid alpha qualifies.

    The six are lines in alpha: A2, A3, A4 fall and B2, B3, B4 rise, so
    their minimum is concave and peaks at alpha* = max over rising i of
    min over falling j of the crossings alpha_ij.  Only the grid points
    within w steps of alpha* are evaluated, where w covers every point
    that rounding could bring into the tie band, so the result is that
    of evaluating the whole grid.
    """
    if not (a < 0.0 and c < 0.0):
        raise ValueError(f"leading-coefficient scan needs a < 0 and c < 0, got a={a}, c={c}")
    # integer-scaled grid so that 0 (and the endpoints) are hit exactly
    n = int(round(span / step))
    # each coefficient is the line v0 + s * alpha, (v0, s) read off at alpha = 0 and 1
    q0, q1 = quadratic_coeffs(a, c, 0.0), quadratic_coeffs(a, c, 1.0)
    falling, rising = ("A2", "A3", "A4"), ("B2", "B3", "B4")
    line = {k: (getattr(q0, k), getattr(q1, k) - getattr(q0, k)) for k in falling + rising}
    peak = max(min((line[f][0] - line[r][0]) / (line[r][1] - line[f][1]) for f in falling)
               for r in rising)
    # one step off the peak lowers the minimum by at least min(|a|, |c|, 1) * step;
    # w = 2n takes in the whole grid (and keeps w finite for subnormal a or c)
    w = 2 + math.ceil(min(1e-12 / step / min(-a, -c, 1.0), 2 * n))
    k0 = int(round(min(max(peak / step, -n), n)))
    al = np.arange(max(k0 - w, -n), min(k0 + w, n) + 1) * step
    worst = quadratic_coeffs(a, c, al).min_main()
    ok = worst >= 0.0
    if not np.any(ok):
        return None
    best = float(np.max(worst[ok]))
    tied = ok & (worst >= best - 1e-15)
    cand = al[tied]
    alpha = float(cand[np.argmin(np.abs(cand))])
    return alpha, best
