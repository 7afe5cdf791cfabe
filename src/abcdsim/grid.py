"""Periodic grid, spectral operators and dealiased products.

Everything downstream (time stepping, virial and energy diagnostics) is
built on the operators defined here.  Fields are plain real numpy arrays
bound to a Grid by length; operators validate the binding.

Conventions:
    nodes  x_j = -L + 2*L*j/N,  j = 0 .. N-1
    modes  k_m = pi*m/L with m in the symmetric index set -N/2 .. N/2-1

Real fields go through the half spectrum (rfft).  The Nyquist mode is
kept empty: initial data never populates it, odd-order derivatives and
dealiased products zero it.  With Nyquist-free fields the rectangle rule
is exact for the product of any two resolved fields, which is what makes
the integration-by-parts steps of the identity checks hold to round-off.

Every transform in the package goes through `Grid._rfft` and
`Grid._irfft`: the floats of `np.fft.rfft`/`irfft` without the cost of
their Python wrappers (see `_bind_transforms`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Grid"]


def _bind_transforms():
    """The pocketfft ufuncs that np.fft.rfft and np.fft.irfft wrap, called as
    f(a, factor, out=out) with the wrappers' factors (1 forward, 1/n
    inverse); where numpy's private module lacks them, stand-ins that call
    np.fft.  rfft_n_even suffices: every length the package transforms is
    even."""
    try:
        from numpy.fft._pocketfft_umath import irfft, rfft_n_even
    except ImportError:

        def rfft_n_even(a, factor, out):
            return np.fft.rfft(a, out=out)

        def irfft(c, factor, out):
            return np.fft.irfft(c, out.shape[-1], out=out)

    return rfft_n_even, irfft


_rfft_ufunc, _irfft_ufunc = _bind_transforms()


class Grid:
    """Uniform periodic grid on [-L, L) with spectral operators.

    Parameters
    ----------
    box_half_length : float
        Half width L of the periodic box.  Must be positive.
    node_count : int
        Number of nodes N.  Must be even and at least 16.
    """

    def __init__(self, box_half_length, node_count):
        L = float(box_half_length)
        if not np.isfinite(L) or L <= 0.0:
            raise ValueError(f"box_half_length must be positive, got {box_half_length}")
        N = int(node_count)
        if N != node_count or N < 16 or N % 2 != 0:
            raise ValueError(f"node_count must be an even integer >= 16, got {node_count}")
        self.L = L
        self.N = N
        self.dx = 2.0 * L / N
        self.x = -L + self.dx * np.arange(N)
        # half spectrum used by the real transforms
        self.k = 2.0 * np.pi * np.fft.rfftfreq(N, d=self.dx)
        self.k2 = self.k * self.k
        self._ik = 1j * self.k
        self._ik[-1] = 0.0  # odd symbol has no Nyquist partner
        self._helm = 1.0 / (1.0 + self.k2)
        # fine grid for zero-padded quadratic products
        m = (3 * N) // 2
        self.n_fine = m if m % 2 == 0 else m + 1
        # the factors between coarse and fine transforms, as arrays of the dtype they
        # scale: a Python float costs a dtype promotion per call
        self._up = np.array(self.n_fine / N)
        self._down = np.array(N / self.n_fine, dtype=complex)

    # -- binding ---------------------------------------------------------

    def check(self, values):
        """Validate that an array is a field on this grid."""
        v = np.asarray(values)
        if v.shape != (self.N,):
            raise ValueError(f"field has shape {v.shape}, expected ({self.N},)")
        if np.iscomplexobj(v):
            raise ValueError("fields must be real arrays")
        return v

    def compatible(self, other) -> bool:
        return isinstance(other, Grid) and other.N == self.N and other.L == self.L

    # -- transforms ------------------------------------------------------

    def _rfft(self, a, out=None):
        """rfft along the last axis of a real array of even length, into
        `out` or a fresh array."""
        if out is None:
            out = np.empty(a.shape[:-1] + (a.shape[-1] // 2 + 1,), complex)
        return _rfft_ufunc(a, 1.0, out=out)

    def _irfft(self, c, n=None, out=None):
        """irfft of the half spectra along the last axis of c to n points (N
        by default), into `out` or a fresh array; the spectra are cut or
        zero-padded to n // 2 + 1 modes."""
        n = self.N if n is None else n
        if out is None:
            out = np.empty(c.shape[:-1] + (n,))
        return _irfft_ufunc(c, 1.0 / n, out=out)

    def hat(self, values):
        return self._rfft(self.check(values))

    def from_hat(self, coeffs):
        return self._irfft(np.asarray(coeffs))

    # -- operators -------------------------------------------------------

    def deriv(self, values, order: int = 1):
        """Spectral x-derivative of the given order (1, 2 or 3)."""
        if order not in (1, 2, 3):
            raise ValueError(f"unsupported derivative order {order}")
        vh = self.hat(values) * (1j * self.k) ** order
        if order % 2 == 1:
            vh[-1] = 0.0
        return self.from_hat(vh)

    def helmholtz_inverse(self, values):
        """Apply (1 - dxx)^-1, Fourier symbol 1/(1 + k^2)."""
        return self.from_hat(self.hat(values) * self._helm)

    def integrate(self, values) -> float:
        """Rectangle rule, exact for resolved trigonometric polynomials."""
        return self.dx * float(np.sum(self.check(values)))

    def l2_norm(self, values) -> float:
        v = self.check(values)
        return float(np.sqrt(self.dx * np.sum(v * v)))

    # -- dealiased products ---------------------------------------------

    def _product_buffers(self, shape) -> tuple:
        """The work arrays of `_dealiased_products` for stacked coeffs of the
        given shape: the fine-grid fields, their first row and the others,
        their wide spectrum and its coarse band."""
        lead = tuple(shape[:-1])
        fine = np.empty(lead + (self.n_fine,))
        wide = np.empty(lead + (self.n_fine // 2 + 1,), complex)
        return fine, fine[0], fine[1:], wide, wide[..., : self.N // 2 + 1]

    def _dealiased_products(self, coeffs, buffers):
        """Coarse rfft coeffs of the product of the field of row 0 with the
        field of every row of the stacked coeffs: one stacked transform to
        the fine grid and one back.

        The work happens in the caller's `buffers` (see `_product_buffers`),
        and the result is a view of them, valid until their next use.  The
        inverse transform pads the coefficients with zeros to the fine grid;
        the Nyquist mode is dropped on the way in and zeroed on the way out.
        """
        fine, head, tail, wide, prods = buffers
        self._irfft(coeffs[..., : self.N // 2], self.n_fine, out=fine)
        np.multiply(fine, self._up, out=fine)
        np.multiply(tail, head, out=tail)  # row 0 last: the others read it
        np.multiply(head, head, out=head)
        self._rfft(fine, out=wide)
        np.multiply(prods, self._down, out=prods)
        prods[..., -1] = 0.0
        return prods

    def __repr__(self):
        return f"Grid(L={self.L!r}, N={self.N})"
