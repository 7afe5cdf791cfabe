"""Spectral grid operators: derivatives, smoothing inverse, products, quadrature."""

import dataclasses
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import numpy.testing as npt
import pytest

import abcdsim
import abcdsim.grid as grid_module
import abcdsim.solver as solver
from abcdsim import Grid, State, decaying_bump, run
from abcdsim.bathymetry import BathymetrySamples
from abcdsim.cli import main as cli_main
from abcdsim.diagnostics import DiagnosticsEngine
from oracles import mult
from test_cli import IDENTITY_TEXT, _write_cfg
from test_solver import BOTTOMS, _oracle_config


class TestConstruction:
    def test_nodes_tile_the_half_open_box(self):
        g = Grid(np.pi, 32)
        assert g.N == 32
        npt.assert_allclose(g.dx, 2 * np.pi / 32, rtol=1e-15)
        npt.assert_allclose(g.x[0], -np.pi, rtol=1e-15)
        npt.assert_allclose(g.x[-1], np.pi - g.dx, rtol=1e-14)
        npt.assert_allclose(np.diff(g.x), g.dx, rtol=1e-13)

    def test_half_spectrum_wavenumbers_are_integer_multiples(self):
        # with half length pi the modes are k_m = m, m = 0..N/2
        g = Grid(np.pi, 32)
        npt.assert_allclose(g.k, np.arange(17.0), atol=1e-12)

    @pytest.mark.parametrize("bad", [15, 17, 8, 0, -32])
    def test_rejects_bad_node_counts(self, bad):
        with pytest.raises(ValueError):
            Grid(np.pi, bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_half_lengths(self, bad):
        with pytest.raises(ValueError):
            Grid(bad, 32)

    def test_check_rejects_wrong_shape_and_complex(self):
        g = Grid(np.pi, 32)
        with pytest.raises(ValueError):
            g.check(np.zeros(31))
        with pytest.raises(ValueError):
            g.check(np.zeros(32, dtype=complex))

    def test_compatible(self):
        g = Grid(np.pi, 32)
        assert g.compatible(Grid(np.pi, 32))
        assert not g.compatible(Grid(np.pi, 64))
        assert not g.compatible(Grid(2 * np.pi, 32))


class TestDerivatives:
    def test_first_derivative_of_single_mode(self):
        g = Grid(np.pi, 64)
        u = np.sin(3.0 * g.x)
        npt.assert_allclose(g.deriv(u), 3.0 * np.cos(3.0 * g.x), atol=1e-12)

    def test_second_and_third_derivatives(self):
        g = Grid(np.pi, 64)
        u = np.sin(3.0 * g.x)
        npt.assert_allclose(g.deriv(u, 2), -9.0 * np.sin(3.0 * g.x), atol=1e-11)
        npt.assert_allclose(g.deriv(u, 3), -27.0 * np.cos(3.0 * g.x), atol=1e-10)

    def test_derivative_output_is_real(self):
        g = Grid(np.pi, 64)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.N)
        d = g.deriv(u)
        assert d.dtype == np.float64

    def test_derivative_of_constant_is_zero(self):
        g = Grid(np.pi, 32)
        npt.assert_allclose(g.deriv(np.full(g.N, 2.5)), 0.0, atol=1e-14)


class TestHelmholtzInverse:
    def test_inverts_one_minus_laplacian_on_a_mode(self):
        g = Grid(np.pi, 64)
        u = np.sin(3.0 * g.x)
        npt.assert_allclose(g.helmholtz_inverse(10.0 * u), u, atol=1e-13)

    def test_roundtrip_on_random_field(self):
        g = Grid(np.pi, 64)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(g.N)
        v = g.helmholtz_inverse(u)
        npt.assert_allclose(v - g.deriv(v, 2), u, atol=1e-11)

    def test_l2_contraction_bounds(self):
        # symbol 1/(1+k^2) <= 1 and k/(1+k^2) <= 1/2, so both maps contract
        g = Grid(20 * np.pi, 128)
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = rng.standard_normal(g.N)
            nu = g.l2_norm(u)
            assert g.l2_norm(g.helmholtz_inverse(u)) <= nu * (1 + 1e-12)
            assert g.l2_norm(g.helmholtz_inverse(g.deriv(u))) <= nu * (1 + 1e-12)


class TestQuadrature:
    def test_integrates_constants_and_modes_exactly(self):
        g = Grid(np.pi, 32)
        npt.assert_allclose(g.integrate(np.full(g.N, 2.0)), 4.0 * np.pi, rtol=1e-14)
        npt.assert_allclose(g.integrate(np.sin(3.0 * g.x) ** 2), np.pi, rtol=1e-13)

    def test_l2_norm_of_single_mode(self):
        g = Grid(np.pi, 32)
        npt.assert_allclose(g.l2_norm(np.sin(3.0 * g.x)), np.sqrt(np.pi), rtol=1e-13)

    def test_integration_by_parts_is_exact_for_resolved_fields(self):
        g = Grid(np.pi, 64)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        # band-limit both so the product of u and dv is resolved
        u = g.from_hat(np.where(g.k <= 10, g.hat(u), 0.0))
        v = g.from_hat(np.where(g.k <= 10, g.hat(v), 0.0))
        lhs = g.integrate(u * g.deriv(v))
        rhs = -g.integrate(g.deriv(u) * v)
        npt.assert_allclose(lhs, rhs, atol=1e-13)


class TestDealiasedProduct:
    def test_matches_pointwise_product_when_fully_resolved(self):
        g = Grid(np.pi, 32)
        u = np.cos(3.0 * g.x)
        v = np.cos(4.0 * g.x)
        npt.assert_allclose(mult(g, u, v), u * v, atol=1e-14)

    def test_projects_unresolvable_sum_mode_instead_of_aliasing(self):
        g = Grid(np.pi, 32)
        u = np.cos(10.0 * g.x)
        v = np.cos(9.0 * g.x)
        # true product is cos(19x)/2 + cos(x)/2; mode 19 cannot live on
        # this grid and must be cut, not folded back
        got = mult(g, u, v)
        npt.assert_allclose(got, 0.5 * np.cos(g.x), atol=1e-13)
        # the raw pointwise product would fold mode 19 onto mode 13
        aliased = u * v
        c13 = 2.0 * g.integrate(aliased * np.cos(13.0 * g.x)) / (2.0 * g.L)
        assert abs(c13) > 0.4

    def test_product_has_no_nyquist_content(self):
        g = Grid(np.pi, 32)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        w = mult(g, u, v)
        assert abs(g.hat(w)[-1]) < 1e-13


class TestTransforms:
    def test_hat_roundtrip(self):
        g = Grid(np.pi, 32)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(g.N)
        npt.assert_allclose(g.from_hat(g.hat(u)), u, atol=1e-13)

    def test_nyquist_mode_is_dropped_by_odd_symbols(self):
        g = Grid(np.pi, 32)
        u = np.cos(16.0 * g.x)  # pure Nyquist content
        npt.assert_allclose(g.deriv(u), 0.0, atol=1e-12)


class TestCanonicalPair:
    def test_single_mode_scaling(self):
        g = Grid(np.pi, 64)
        eta = np.cos(2.0 * g.x)
        u = np.cos(5.0 * g.x)
        s = State(g, eta, u, 0.0)
        f, h = g.helmholtz_inverse(s.u), g.helmholtz_inverse(s.eta)
        npt.assert_allclose(f, np.cos(5.0 * g.x) / 26.0, atol=1e-13)
        npt.assert_allclose(h, np.cos(2.0 * g.x) / 5.0, atol=1e-13)


@pytest.fixture(params=["bound", "numpy", "fallback"])
def binding(request, bind_transforms):
    """Each binding `_bind_transforms` can make: the transforms as bound at
    import (scipy's extension wherever it is installed), numpy's ufuncs
    with the extension hidden, and the np.fft stand-ins with both hidden."""
    if request.param != "bound":
        bind_transforms("np.fft" if request.param == "fallback" else "numpy")
    return request.param


class TestTransformBinding:
    """`Grid._rfft` and `Grid._irfft` give the floats of np.fft at every shape
    the package transforms, whichever way they are bound."""

    @staticmethod
    def _spectra(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("n", [128, 512, 4096])
    def test_kernel_pair(self, binding, n):
        # `_dealiased_products`: (2, N/2) to the fine grid and back, into buffers
        g = Grid(10 * np.pi, n)
        rng = np.random.default_rng(n)
        c = self._spectra(rng, (2, n // 2 + 1))[..., : n // 2]
        fine = np.empty((2, g.n_fine))
        wide = np.empty((2, g.n_fine // 2 + 1), complex)
        assert g._irfft(c, g.n_fine, out=fine) is fine
        assert np.array_equal(fine, np.fft.irfft(c, n=g.n_fine))
        assert np.array_equal(g._irfft(c, g.n_fine), fine)
        assert g._rfft(fine, out=wide) is wide
        assert np.array_equal(wide, np.fft.rfft(fine))
        assert np.array_equal(g._rfft(fine), wide)

    @pytest.mark.parametrize("n, rows", [(128, 16), (512, 26), (4096, 26)])
    def test_ladder(self, binding, n, rows):
        # `_Snap._ladder`: (rows, B, N/2 + 1) to N, B = max(1, 2048 // N)
        g = Grid(10 * np.pi, n)
        c = self._spectra(np.random.default_rng(rows), (rows, max(1, 2048 // n), n // 2 + 1))
        fields = np.empty(c.shape[:-1] + (n,))
        assert g._irfft(c, out=fields) is fields
        assert np.array_equal(fields, np.fft.irfft(c, n=n))

    @pytest.mark.parametrize("n", [128, 512])
    def test_fields_states_and_bottoms(self, binding, n):
        g = Grid(10 * np.pi, n)
        rng = np.random.default_rng(7 * n)
        u, eta = rng.standard_normal((2, n))
        assert np.array_equal(g.hat(u), np.fft.rfft(u))
        for c in (self._spectra(rng, n // 2 + 1), self._spectra(rng, (2, n // 2 + 1))):
            assert np.array_equal(g.from_hat(c), np.fft.irfft(c, n=n))
        assert np.array_equal(State(g, eta, u, 0.0).coeffs, np.fft.rfft(np.stack((u, eta))))
        # the 3 profile rows of a bottom, and the 5 rows of a hand-built sample
        b = decaying_bump(1e-3, width=2.0, center=1.3)
        rows, unit = b._profiles(g)
        assert np.array_equal(unit, np.fft.rfft(rows)[[0, 0, 2, 1, 2]])
        bs = b.sample(g, 0.4)
        hand = BathymetrySamples(**{k: v for k, v in vars(bs).items() if k != "spectra"})
        fields = ("h", "dt_h", "dt_dxx_h", "dtt_dx_h", "dtt_dxx_h")
        assert np.array_equal(hand.spectra, np.fft.rfft(np.stack([getattr(bs, k) for k in fields])))

    @pytest.mark.parametrize("n", [128, 512])
    def test_irfft_cuts_and_pads_the_spectra(self, binding, n):
        # every binding takes exactly n // 2 + 1 modes: `_irfft` cuts longer
        # spectra and zero-pads shorter ones, as np.fft does
        g = Grid(10 * np.pi, n)
        rng = np.random.default_rng(3 * n)
        for modes in (n // 2 + 9, n // 4, n // 2):
            c = self._spectra(rng, (2, modes))
            assert np.array_equal(g._irfft(c), np.fft.irfft(c, n=n)), modes
            assert np.array_equal(g._irfft(c, g.n_fine), np.fft.irfft(c, n=g.n_fine)), modes

    # 1/n rounded from long double is not the double 1/n at these lengths on x86-64
    @pytest.mark.parametrize("n", [5462, 9246])
    def test_lengths_where_the_long_double_factor_differs(self, binding, n):
        g = Grid(10 * np.pi, n)
        c = self._spectra(np.random.default_rng(n), (2, n // 2 + 1))
        assert np.array_equal(g._irfft(c), np.fft.irfft(c, n=n))

    def test_hat_and_from_hat_cast_their_inputs(self, binding):
        # np.fft's complex128/float64 result of the inputs cast as numpy's ufuncs cast them
        g = Grid(10 * np.pi, 64)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(g.N)
        for v in (np.round(100 * u).astype(np.int64), u.astype(np.float32)):
            got = g.hat(v)
            assert got.dtype == complex and np.array_equal(got, np.fft.rfft(v.astype(float)))
        c = self._spectra(rng, g.N // 2 + 1)
        for v in (c.astype(np.complex64), np.round(100 * c.real).astype(np.int64), c.real):
            got = g.from_hat(v)
            assert got.dtype == float and np.array_equal(got, np.fft.irfft(v.astype(complex), n=g.N))

    def test_the_padded_spectra_stay_zero_above_the_band(self, binding, monkeypatch):
        # the kernel over a bump and an engine block write only the N/2 modes
        # of the band into their padded spectra: the modes above stay zero
        bottom, params = BOTTOMS[1]
        cfg = dataclasses.replace(_oracle_config(bottom, params), snapshot_every=5)
        kernels, step = [], solver._Kernel.step

        def recording(kernel, *args):
            kernels.append(kernel)
            return step(kernel, *args)

        monkeypatch.setattr(solver._Kernel, "step", recording)
        engine = DiagnosticsEngine(params, bottom, weight_mode="fixed", fixed_lambda=10.0)
        run(cfg, observer=engine)
        engine.table()
        padded = [kernels[0]._products[0]] + [work[0] for _, _, work in engine._buffers.values()]
        # the kernel's, and the ladders' of the three blocks of 16 snapshots and of the last one
        assert len(padded) == 3
        for spectrum in padded:
            assert spectrum[..., : cfg.grid.N // 2].any()
            assert not spectrum[..., cfg.grid.N // 2 :].any()

    def test_the_package_calls_no_np_fft_transform(self, tmp_path, monkeypatch, transform_calls):
        # an identity suite over a bump (stepping, snapshot ladders, bottom
        # spectra) with every np.fft transform broken: the counters of
        # `transform_calls` see each transform the package makes
        def broken(*args, **kwargs):
            raise AssertionError("np.fft called directly")

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, broken)
        out = tmp_path / "out"
        assert cli_main(["run", _write_cfg(tmp_path, IDENTITY_TEXT, out=out)]) == 0
        assert {name for name, _ in transform_calls} == {"_rfft", "_irfft"}
        assert (out / "diagnostics.csv").exists()


class TestBindingChoice:
    """Which transforms `_bind_transforms` binds, and what binding them costs."""

    def test_the_package_imports_no_scipy(self):
        # scipy's extension is loaded from its file: `import scipy.fft` would
        # add a quarter of a second to every start.  scipy's own later
        # import of the same extension still works and agrees with np.fft
        code = ("import sys, numpy as np; import abcdsim.cli; from abcdsim import grid; "
                "print(grid._BINDING, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)); "
                "import scipy.fft; a = np.sin(np.arange(96.0) ** 1.5).reshape(2, 48); "
                "print(np.array_equal(scipy.fft.rfft(a), np.fft.rfft(a)), "
                "np.array_equal(scipy.fft.irfft(scipy.fft.rfft(a)), np.fft.irfft(np.fft.rfft(a))))")
        if grid_module._load_pypocketfft() is None:
            pytest.skip("scipy's pocketfft extension is not installed")
        src = str(pathlib.Path(abcdsim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True)
        assert proc.stdout.splitlines() == ["scipy False", "True True"]

    @staticmethod
    def _spoiled(ext, spoil):
        """A stand-in for the extension whose c2r output passes through spoil."""
        def c2r(*args):
            return spoil(ext.c2r(*args))

        return types.SimpleNamespace(r2c=ext.r2c, c2r=c2r)

    @pytest.mark.parametrize("spoil", ["raises", "one-ulp"])
    def test_a_probe_that_fails_binds_numpy(self, monkeypatch, spoil):
        ext = grid_module._load_pypocketfft()
        if ext is None:
            pytest.skip("scipy's pocketfft extension is not installed")
        assert grid_module._bind_transforms()[0] == "scipy"

        def raises(out):
            raise TypeError("c2r() changed its signature")

        def one_ulp(out):
            out.flat[-1] = np.nextafter(out.flat[-1], np.inf)
            return out

        fake = self._spoiled(ext, raises if spoil == "raises" else one_ulp)
        monkeypatch.setattr(grid_module, "_load_pypocketfft", lambda: fake)
        assert grid_module._bind_transforms()[0] == "numpy"
