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
`Grid._irfft`: the floats of `np.fft.rfft`/`irfft`, made by the fastest
build of numpy's pocketfft code that is installed (see `_bind_transforms`):
scipy's extension where it is found, which transforms the rows of a
block together, else numpy's ufuncs, else np.fft itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np

__all__ = ["Grid"]

_AXIS = (-1,)  # the axis every transform runs along


def _load_pypocketfft():
    """scipy's pocketfft extension loaded from its file, or None where scipy
    or the file is missing.

    `import scipy.fft` would add a quarter of a second to every start;
    the file alone costs about a millisecond.  The module is loaded under
    its qualified name and kept out of sys.modules, so scipy's own later
    import of it is undisturbed."""
    spec = importlib.util.find_spec("scipy")
    name = "scipy.fft._pocketfft.pypocketfft"
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "fft", "_pocketfft", "pypocketfft" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                return module
    return None


def _numpy_transforms():
    """The pocketfft ufuncs that np.fft.rfft and np.fft.irfft wrap, passed
    the wrappers' factors (1 forward, 1/n inverse); where numpy's private
    module lacks them, stand-ins that call np.fft on the inputs cast as the
    ufuncs cast them (np.fft keeps float32 and complex64).  rfft_n_even
    suffices: every length the package transforms is even."""
    try:
        from numpy.fft._pocketfft_umath import irfft as c2r, rfft_n_even as r2c
    except ImportError:

        def rfft(a, out):
            return np.fft.rfft(np.asarray(a, float), out=out)

        def irfft(c, n, out):
            return np.fft.irfft(np.asarray(c, complex), n, out=out)

        return "np.fft", rfft, irfft

    def rfft(a, out):
        return r2c(a, 1.0, out=out)

    def irfft(c, n, out):
        return c2r(c, 1.0 / n, out=out)

    return "numpy", rfft, irfft


def _scipy_transforms(ext):
    """The r2c and c2r of scipy's pocketfft extension `ext`, on one thread:
    the same pocketfft code as numpy's ufuncs, but each call transforms all
    the rows of a block in one SIMD pass.  Inputs are cast to float64 and
    complex128, as numpy's ufuncs cast them.

    c2r scales by 1/n itself (inorm=2) at every length where its factor is
    numpy's 1/n.  It rounds the factor from long double, which differs at a
    few lengths (on x86-64 the first is 5462); there the transform is left
    unscaled and then multiplied by numpy's 1/n, which gives numpy's floats."""
    r2c, c2r = ext.r2c, ext.c2r
    norms = {}  # n -> the inorm of c2r at n

    def rfft(a, out):
        return r2c(np.asarray(a, float), _AXIS, True, 0, out, 1)

    def irfft(c, n, out):
        norm = norms.get(n)
        if norm is None:  # c2r of the unit spectrum is its factor at every point
            unit = np.eye(1, n // 2 + 1, dtype=complex)[0]
            norm = norms[n] = 2 if c2r(unit, _AXIS, n, False, 2, None, 1)[0] == 1.0 / n else 0
        c2r(np.asarray(c, complex), _AXIS, n, False, norm, out, 1)
        return out if norm else np.multiply(out, 1.0 / n, out=out)

    return "scipy", rfft, irfft


def _same_floats(binding, reference, n=60) -> bool:
    """Whether two (name, rfft, irfft) bindings give the same floats on a
    probe block of 3 rows of length n."""
    a = np.sin(np.arange(3.0 * n) ** 1.5).reshape(3, n)
    spectra = [rfft(a, np.empty((3, n // 2 + 1), complex)) for _, rfft, _ in (binding, reference)]
    fields = [irfft(spectra[1], n, np.empty((3, n))) for _, _, irfft in (binding, reference)]
    return all(np.array_equal(x, y) for x, y in (spectra, fields))


def _bind_transforms():
    """(name, rfft, irfft) of the transforms the package binds, called as
    rfft(a, out) and irfft(c, n, out) with exactly n // 2 + 1 modes in c.

    scipy's extension serves where it loads, and where one probe block
    transformed with it gives the floats of numpy's binding; any exception
    (a missing file, a changed signature) or any float that differs selects
    numpy's binding."""
    numpy = _numpy_transforms()
    try:
        ext = _load_pypocketfft()
        if ext is not None:
            scipy = _scipy_transforms(ext)
            if _same_floats(scipy, numpy):
                return scipy
    except Exception:  # scipy is optional: whatever fails in it, numpy's binding serves
        pass
    return numpy


_BINDING, _rfft_bound, _irfft_bound = _bind_transforms()


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
        return _rfft_bound(a, out)

    def _irfft(self, c, n=None, out=None):
        """irfft of the half spectra along the last axis of c to n points (N
        by default), into `out` or a fresh array.  Every binding takes
        exactly n // 2 + 1 modes: longer spectra are cut, shorter ones
        zero-padded into a fresh array, as numpy's ufunc does inside."""
        n = self.N if n is None else n
        m, have = n // 2 + 1, c.shape[-1]
        if have > m:
            c = c[..., :m]
        elif have < m:
            c = np.concatenate((c, np.zeros(c.shape[:-1] + (m - have,), complex)), axis=-1)
        if out is None:
            out = np.empty(c.shape[:-1] + (n,))
        return _irfft_bound(c, n, out)

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
        given shape: the zero-padded fine spectrum and its band of the N/2
        modes below Nyquist, the fine-grid fields, their first row and the
        others, their wide spectrum and its coarse band."""
        lead = tuple(shape[:-1])
        padded = np.zeros(lead + (self.n_fine // 2 + 1,), complex)
        fine = np.empty(lead + (self.n_fine,))
        wide = np.empty_like(padded)
        return (padded, padded[..., : self.N // 2], fine, fine[0], fine[1:],
                wide, wide[..., : self.N // 2 + 1])

    def _dealiased_products(self, coeffs, buffers):
        """Coarse rfft coeffs of the product of the field of row 0 with the
        field of every row of the stacked coeffs: one stacked transform to
        the fine grid and one back.

        The work happens in the caller's `buffers` (see `_product_buffers`),
        and the result is a view of them, valid until their next use.  The
        coeffs below Nyquist are copied into the band of the padded
        spectrum, whose higher modes stay zero; a caller that wrote them
        there itself passes None.  The Nyquist mode is zeroed on the way out.
        """
        padded, band, fine, head, tail, wide, prods = buffers
        if coeffs is not None:
            np.copyto(band, coeffs[..., : self.N // 2])
        self._irfft(padded, self.n_fine, out=fine)
        np.multiply(fine, self._up, out=fine)
        np.multiply(tail, head, out=tail)  # row 0 last: the others read it
        np.multiply(head, head, out=head)
        self._rfft(fine, out=wide)
        np.multiply(prods, self._down, out=prods)
        prods[..., -1] = 0.0
        return prods

    def __repr__(self):
        return f"Grid(L={self.L!r}, N={self.N})"
