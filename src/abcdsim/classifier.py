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
    "admissible_alphas",
    "find_admissible_alpha",
]

_BLOCK = 8192  # alpha values per quadratic_coeffs call of the search; a wider window goes alone

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
    branch: str  # "main-inequality", "refined-case-1", "refined-case-2", "rejected" (or "domain-violation")
    margin: float  # signed slack of the binding inequality


def _region(a, c, b):
    """The region test elementwise: (main slack, refined case, row slack); case 1 (c <= a)
    indexes its windows by c, case 2 (the mirror image) by a; "" and NaN where no window holds."""
    a, c, b = (np.asarray(v, dtype=float) for v in (a, c, b))
    main = 8.0 * a * c - 3.0 * (a + c) - 2.0
    one, th = c <= a, REFINED_SPLIT
    x, y = np.where(one, c, a), np.where(one, a, c)  # the window variable and the other one
    lo = np.where(one, -1.0, -1.0 - 1.0 / (6.0 * b))
    rows = [(lo <= x) & (x < th), (th <= x) & (x < -1.0 / 3.0), (-1.0 / 3.0 <= x) & (x < -1.0 / 9.0)]
    m = np.where(rows[0], 45.0 * a * c - (1.0 - y),
                 np.where(rows[1], 18.0 * a * c + a + c,
                          np.where(rows[2], 27.0 * a * c - (6.0 * y + 1.0), np.nan)))
    case = np.where(rows[0] | rows[1] | rows[2], np.where(one, "refined-case-1", "refined-case-2"), "")
    return main, case, m


def refined_margin(a: float, c: float, b: float = 1.0):
    """Evaluate the refined piecewise inequality for (a, c).

    Returns (case, margin) where case is "refined-case-1" (c <= a) or
    "refined-case-2" (a <= c) and margin > 0 means the row inequality
    holds; returns None when no row window contains the point.
    """
    _, case, m = _region(a, c, b)
    case, m = str(case), float(m)
    return (case, m) if case else None


def satisfies_refined_dispersion(a: float, c: float, b: float = 1.0) -> RegionVerdict:
    """Region verdict for normalized (a, c) with pre-normalization b.

    The main inequality 3(a + c) + 2 < 8ac is checked first; if it fails,
    the refined piecewise family is consulted.  Exactly one branch label
    is reported.  For a rejected point the margin is the slack of the
    nearest applicable inequality (negative).

    Scalar input gives a bool, a str and a float, and raises ValueError off the
    domain a < 0, -1 <= c < 0.  Array input is broadcast and gives arrays; a cell
    off the domain is "domain-violation", not accepted, with margin NaN.
    """
    scalar = np.ndim(a) == np.ndim(c) == np.ndim(b) == 0
    if scalar:
        _check_domain(a, c)
    main, case, m = _region(a, c, b)
    a, c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)
    off = ~((a < 0.0) & (c < 0.0)) | (c < -1.0)
    accepted = ~off & ((main > 0.0) | (m > 0.0))
    branch = np.where(off, "domain-violation", np.where(main > 0.0, "main-inequality",
                                                        np.where(m > 0.0, case, "rejected")))
    # a rejected point reports max(main, m): the row slack only where it is the larger
    margin = np.where(off, np.nan, np.where((main <= 0.0) & (m > main), m, main))
    if scalar:
        return RegionVerdict(bool(accepted), str(branch), float(margin))
    return RegionVerdict(accepted, branch, margin)


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


def _window_search(a, c, width: int, n: int, step: float):
    """admissible_alphas for cells whose windows span 2 * width + 1 grid points.

    The six are lines in alpha: A2, A3, A4 fall and B2, B3, B4 rise, so their
    minimum is concave and peaks at alpha* = max over rising i of min over
    falling j of the crossings alpha_ij; the window is centred on alpha*.
    """
    # each coefficient is the line v0 + s * alpha, (v0, s) read off at alpha = 0 and 1
    v0, v1 = (np.array([q.A2, q.A3, q.A4, q.B2, q.B3, q.B4])
              for q in (quadratic_coeffs(a, c, 0.0), quadratic_coeffs(a, c, 1.0)))
    s = v1 - v0
    peak = ((v0[:3, None] - v0[None, 3:]) / (s[None, 3:] - s[:3, None])).min(axis=0).max(axis=0)
    k0 = np.rint(np.clip(peak / step, -n, n)).astype(int) * (width < n)  # width n: the whole grid
    k = k0[:, None] + np.arange(-width, width + 1)
    al = k * step
    worst = quadratic_coeffs(a[:, None], c[:, None], al).min_main()
    ok = (np.abs(k) <= n) & (worst >= 0.0)
    best = np.where(ok, worst, -np.inf).max(axis=1)
    pick = np.where(ok & (worst >= best[:, None] - 1e-15), np.abs(al), np.inf).argmin(axis=1)
    return np.where(best >= 0, al[np.arange(a.size), pick], np.nan), np.where(best >= 0, best, np.nan)


def admissible_alphas(a, c, span: float = 4.0, step: float = 1e-3):
    """Search the grid k * step, |k| <= span / step, for nonnegative leading coefficients.

    Per cell (a[i], c[i]), maximizes min(A2, A3, A4, B2, B3, B4) subject to all
    six >= 0; a tie (within 1e-15) goes to the smallest |alpha|, and between -alpha
    and +alpha to -alpha, the first in grid order.  Returns the arrays (alpha,
    margin), NaN where no grid alpha qualifies.  Only the grid points rounding could
    bring into the tie band are evaluated, so the result is that of the whole grid.
    """
    a, c = (np.ravel(v).astype(float) for v in np.broadcast_arrays(a, c))
    for i in np.flatnonzero(~((a < 0.0) & (c < 0.0)))[:1]:  # the first cell off the domain
        raise ValueError(f"leading-coefficient scan needs a < 0 and c < 0, got a={a[i]}, c={c[i]}")
    # integer-scaled grid so that 0 (and the endpoints) are hit exactly
    n = int(round(span / step))
    # one step off the peak lowers the minimum by at least m * step, m = min(|a|, |c|, 1);
    # a window at least n wide becomes the whole grid (w = n), which is never more points
    w = np.minimum(2 + np.ceil(1e-12 / step / np.clip(np.minimum(-a, -c), 1e-300, 1.0)), n)
    alpha, margin = np.full(a.size, np.nan), np.full(a.size, np.nan)
    for width in sorted(set(w.astype(int).tolist())):  # not np.unique: it imports numpy.ma
        cells = np.flatnonzero(w == width)
        for idx in np.split(cells, range(0, cells.size, max(1, _BLOCK // (2 * width + 1)))[1:]):
            alpha[idx], margin[idx] = _window_search(a[idx], c[idx], width, n, step)
    return alpha, margin


def find_admissible_alpha(a: float, c: float, span: float = 4.0, step: float = 1e-3):
    """`admissible_alphas` for one cell: (alpha, margin), or None when no grid alpha qualifies."""
    alpha, margin = admissible_alphas(a, c, span, step)
    return None if np.isnan(alpha[0]) else (float(alpha[0]), float(margin[0]))
