"""Region tests for (a, c) and the canonical quadratic form coefficients."""

import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from abcdsim import (
    QuadCoeffs,
    classifier,
    find_admissible_alpha,
    quadratic_coeffs,
    refined_margin,
    satisfies_refined_dispersion,
)
from abcdsim.classifier import REFINED_SPLIT
from abcdsim.config import ExperimentConfig, RegionSpec, build_region_axes, parse_config

SHIPPED_REGION_MAP = pathlib.Path(__file__).resolve().parent.parent / "configs" / "region_map.ini"


def _main_slack(a, c):
    return 8.0 * a * c - 3.0 * (a + c) - 2.0


class TestThreshold:
    def test_split_point_value(self):
        npt.assert_allclose(REFINED_SPLIT, -(19.0 + math.sqrt(181.0)) / 90.0, rtol=0)
        # root of 45 t^2 + 19 t + 2/5... sanity: it separates the first two rows
        assert -1.0 < REFINED_SPLIT < -1.0 / 3.0


class TestTruthTable:
    def test_strong_dispersion_corner_accepted_by_main_inequality(self):
        v = satisfies_refined_dispersion(-1.0, -1.0)
        assert v.accepted and v.branch == "main-inequality"
        npt.assert_allclose(v.margin, 12.0, rtol=1e-14)
        npt.assert_allclose(v.margin, _main_slack(-1.0, -1.0), rtol=1e-14)

    def test_interior_point_accepted_with_thin_margin(self):
        v = satisfies_refined_dispersion(-1.0 / 8.0, -1.0 / 2.0)
        assert v.accepted and v.branch == "main-inequality"
        npt.assert_allclose(v.margin, 0.375, rtol=1e-13)

    def test_vanishing_group_velocity_point_rejected(self):
        a = c = -1.0 / 48.0
        v = satisfies_refined_dispersion(a, c)
        assert not v.accepted and v.branch == "rejected"
        # c > -1/9 lies outside every refined window, so the reported
        # slack is the (negative) main slack
        npt.assert_allclose(v.margin, _main_slack(a, c), rtol=1e-13)
        assert v.margin < 0
        assert refined_margin(a, c) is None

    def test_asymmetric_point_accepted_and_its_refined_row_agrees(self):
        v = satisfies_refined_dispersion(-0.5, -0.2)
        assert v.accepted and v.branch == "main-inequality"
        npt.assert_allclose(v.margin, 0.9, rtol=1e-12)
        # independent re-evaluation of the refined family at this point:
        # a <= c puts it in the mirrored case with window a < split,
        # whose row reads 45 a c > 1 - c
        case, m = refined_margin(-0.5, -0.2)
        assert case == "refined-case-2"
        npt.assert_allclose(m, 45.0 * 0.1 - 1.2, rtol=1e-13)
        assert m > 0


class TestRegionProperties:
    @pytest.mark.parametrize("a", [-0.9, -0.6, -0.35, -0.2, -0.05])
    @pytest.mark.parametrize("c", [-0.9, -0.6, -0.35, -0.2, -0.05])
    def test_symmetry_in_a_and_c(self, a, c):
        va = satisfies_refined_dispersion(a, c)
        vc = satisfies_refined_dispersion(c, a)
        assert va.accepted == vc.accepted
        npt.assert_allclose(va.margin, vc.margin, rtol=1e-12)
        if a == c:
            assert vc.branch == va.branch
        else:
            mirror = {
                "refined-case-1": "refined-case-2",
                "refined-case-2": "refined-case-1",
            }
            assert vc.branch == mirror.get(va.branch, va.branch)

    @pytest.mark.parametrize("a", [-1.0, -0.7, -0.4, -0.15, -0.03])
    @pytest.mark.parametrize("c", [-1.0, -0.7, -0.4, -0.15, -0.03])
    def test_margin_sign_matches_acceptance(self, a, c):
        v = satisfies_refined_dispersion(a, c)
        assert v.branch in {
            "main-inequality",
            "refined-case-1",
            "refined-case-2",
            "rejected",
        }
        assert v.accepted == (v.branch != "rejected")
        if v.accepted:
            assert v.margin > 0
        else:
            assert v.margin <= 0

    def test_refined_family_rescues_points_the_main_inequality_misses(self):
        # (-0.9, -0.05): main slack is 8(.045) - 3(-0.95) - 2 = 1.21 > 0,
        # so go further out: (-0.04, -0.9) has main slack
        # 8(.036) - 3(-0.94) - 2 = 1.108 > 0 as well; use (-0.5, -0.35):
        # main slack = 1.4 - (-2.55) ... construct one explicitly instead:
        # need 8ac - 3(a+c) - 2 <= 0 with a refined row positive.
        a, c = -0.05, -0.5
        assert _main_slack(a, c) <= 0
        v = satisfies_refined_dispersion(a, c)
        row = refined_margin(a, c)
        assert row is not None
        case, m = row
        assert v.accepted == (m > 0)
        if v.accepted:
            assert v.branch == case

    @pytest.mark.parametrize("a, c", [(0.1, -0.5), (-0.5, 0.1), (-0.5, -1.5)])
    def test_domain_violations_raise(self, a, c):
        with pytest.raises(ValueError):
            satisfies_refined_dispersion(a, c)


class TestQuadCoeffs:
    def test_leading_pair_is_one_half(self):
        qc = quadratic_coeffs(-0.7, -0.3, 1.2)
        assert qc.A1 == 0.5 and qc.B1 == 0.5

    @pytest.mark.parametrize("a, c, alpha", [
        (-1.0, -1.0, 0.0), (-0.5, -0.2, 0.7), (-0.125, -0.5, -1.3),
        (-2.0, -0.9, 0.5), (-0.01, -0.99, 3.0),
    ])
    def test_third_derivative_weights_cancel_the_gradient_terms(self, a, c, alpha):
        qc = quadratic_coeffs(a, c, alpha)
        npt.assert_allclose(qc.A4 + qc.D12, 0.0, atol=1e-14)
        npt.assert_allclose(qc.B4 + qc.D22, 0.0, atol=1e-14)

    def test_alpha_one_half_kills_the_f_gradient_pair(self):
        qc = quadratic_coeffs(-0.8, -0.4, 0.5)
        assert qc.A4 == 0.0 and qc.D12 == 0.0

    def test_corner_values_at_zero_mix(self):
        qc = quadratic_coeffs(-1.0, -1.0, 0.0)
        npt.assert_allclose([qc.A2, qc.B2, qc.A3, qc.B3], [1.5] * 4, rtol=0)
        npt.assert_allclose([qc.A4, qc.B4], [0.5, 0.5], rtol=0)
        npt.assert_allclose([qc.D11, qc.D21, qc.D12, qc.D22], [-0.5] * 4, rtol=0)

    def test_formulas_against_direct_arithmetic(self):
        a, c, al = -0.6, -0.35, 0.8
        qc = quadratic_coeffs(a, c, al)
        npt.assert_allclose(qc.A2, -al - 1.5 * a, rtol=1e-15)
        npt.assert_allclose(qc.B2, al - 1.5 * c, rtol=1e-15)
        npt.assert_allclose(qc.A3, -(1 - a) * al - 2 * a - 0.5, rtol=1e-15)
        npt.assert_allclose(qc.B3, (1 - c) * al - 2 * c - 0.5, rtol=1e-15)
        npt.assert_allclose(qc.A4, a * (al - 0.5), rtol=1e-15)
        npt.assert_allclose(qc.B4, -c * (al + 0.5), rtol=1e-15)
        npt.assert_allclose(qc.D11, 0.5 * (1 + a) * (al + 1) - 0.5, rtol=1e-15)
        npt.assert_allclose(qc.D21, 0.5 * (1 + c) * (1 - al) - 0.5, rtol=1e-15)


class TestAlphaScan:
    def test_corner_point_yields_zero_mix_with_margin_one_half(self):
        got = find_admissible_alpha(-1.0, -1.0)
        assert got is not None
        alpha, margin = got
        assert alpha == 0.0
        npt.assert_allclose(margin, 0.5, rtol=1e-13)

    def test_rejected_point_has_no_admissible_mix(self):
        assert find_admissible_alpha(-1.0 / 48.0, -1.0 / 48.0) is None

    def test_returned_mix_certifies_nonnegative_coefficients(self):
        for (a, c) in [(-1.0, -0.5), (-0.8, -0.8), (-2.0, -0.9)]:
            got = find_admissible_alpha(a, c)
            if got is None:
                continue
            alpha, margin = got
            qc = quadratic_coeffs(a, c, alpha)
            assert qc.min_main() >= 0.0
            npt.assert_allclose(margin, qc.min_main(), rtol=1e-12)

    def test_degenerate_a_zero_raises(self):
        with pytest.raises(ValueError):
            find_admissible_alpha(0.0, -0.5)


def _full_scan(a, c, span=4.0, step=1e-3):
    """Reference: evaluate every alpha = k * step, |k| <= span / step (8001 points by default)."""
    n = int(round(span / step))
    al = np.arange(-n, n + 1) * step
    A2 = -al - 1.5 * a
    A3 = -(1.0 - a) * al - 2.0 * a - 0.5
    A4 = a * (al - 0.5)
    B2 = al - 1.5 * c
    B3 = (1.0 - c) * al - 2.0 * c - 0.5
    B4 = -c * (al + 0.5)
    worst = np.minimum.reduce([A2, A3, A4, B2, B3, B4])
    ok = worst >= 0.0
    if not np.any(ok):
        return None
    best = float(np.max(worst[ok]))
    tied = ok & (worst >= best - 1e-15)
    cand = al[tied]
    alpha = float(cand[np.argmin(np.abs(cand))])
    return alpha, best


def _exact_peak(a, c):
    """Where min(A2, ..., B4) peaks, in exact rational arithmetic."""
    a, c = Fraction(a), Fraction(c)
    falling = [(-Fraction(3, 2) * a, -1), (-2 * a - Fraction(1, 2), a - 1), (-a / 2, a)]
    rising = [(-Fraction(3, 2) * c, 1), (-2 * c - Fraction(1, 2), 1 - c), (-c / 2, -c)]
    return max(min((f0 - r0) / (rs - fs) for f0, fs in falling) for r0, rs in rising)


def _cells(a_vals, c_vals):
    return [(float(a), float(c)) for a in a_vals for c in c_vals]


def _shipped_cells():
    return _cells(*build_region_axes(parse_config(str(SHIPPED_REGION_MAP))))


def _offset_cells(seed):
    # the benchmark's region_map workload: the shipped grid moved by a seeded offset
    step = 0.01
    off = random.Random(seed).uniform(0.0, 0.5) * step
    region = RegionSpec(a_min=-1.0 + off, a_max=-0.01 + off, c_min=-1.0 + off,
                        c_max=-0.01 + off, step=step)
    return _cells(*build_region_axes(ExperimentConfig(kind="region-map", output_dir="o",
                                                      region=region)))


def _assert_matches_full_scan(cells, **grid):
    bad = [(a, c) for a, c in cells
           if find_admissible_alpha(a, c, **grid) != _full_scan(a, c, **grid)]
    assert not bad, f"{len(bad)} of {len(cells)} cells differ, first {bad[:3]}"


class TestAlphaBracket:
    """The bracketed search returns exactly what the dense scan of the same grid returns."""

    def test_shipped_region_map(self):
        cells = _shipped_cells()
        assert len(cells) == 100 * 100
        _assert_matches_full_scan(cells)

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_benchmark_offset_grids(self, seed):
        _assert_matches_full_scan(_offset_cells(seed))

    def test_log_uniform_cells(self):
        rng = np.random.default_rng(20190127)
        mags = 10.0 ** rng.uniform(-12.0, math.log10(30.0), size=(20000, 2))
        _assert_matches_full_scan([(-float(a), -float(c)) for a, c in mags])

    def test_window_wider_than_the_grid(self):
        # for min(|a|, |c|) below 2.5e-13 the window half-width w exceeds
        # the 4000 grid steps on each side, so the whole grid is evaluated
        rng = np.random.default_rng(11)
        tiny = 10.0 ** rng.uniform(-16.0, -13.0, size=200)
        other = 10.0 ** rng.uniform(-16.0, math.log10(30.0), size=200)
        cells = [(-float(t), -float(o)) for t, o in zip(tiny, other)]
        subnormal = [(-5e-324, -0.5), (-1e-320, -0.5), (-5e-324, -5e-324), (-1e-310, -1e-310)]
        _assert_matches_full_scan(cells + [(c, a) for a, c in cells + subnormal] + subnormal)

    @pytest.mark.parametrize("a, c, peak", [
        (-0.5, -0.5, 0), (-0.25, -0.75, Fraction(-1, 4)), (-0.75, -0.25, Fraction(1, 4)),
    ])
    def test_peak_exactly_on_a_grid_point(self, a, c, peak):
        assert _exact_peak(a, c) == peak
        assert (peak / Fraction(1, 1000)).denominator == 1
        assert find_admissible_alpha(a, c) == _full_scan(a, c)
        assert find_admissible_alpha(a, c)[0] == float(peak)

    @pytest.mark.parametrize("a, c", [(-0.75, -0.25), (-0.25, -0.75), (-0.5, -0.25)])
    def test_peak_beyond_the_span_is_clipped_to_the_end(self, a, c):
        span = 0.1
        assert abs(_exact_peak(a, c)) > span
        got = find_admissible_alpha(a, c, span=span)
        assert got == _full_scan(a, c, span=span)
        assert got is not None and abs(got[0]) == 100 * 1e-3  # the last grid point, k = 100

    def test_other_span_and_step(self):
        grid = dict(span=1.0, step=3e-3)
        _assert_matches_full_scan(_shipped_cells()[::7], **grid)
        rng = np.random.default_rng(7)
        mags = 10.0 ** rng.uniform(-12.0, math.log10(30.0), size=(2000, 2))
        _assert_matches_full_scan([(-float(a), -float(c)) for a, c in mags], **grid)

    def test_evaluates_a_handful_of_grid_points_per_cell(self, monkeypatch):
        # every coefficient goes through quadratic_coeffs, so counting its alpha
        # values counts the work; a dense scan would be 8001 per cell
        evaluated = []

        def counting(a, c, alpha):
            evaluated[-1] += np.size(alpha)
            return quadratic_coeffs(a, c, alpha)

        monkeypatch.setattr(classifier, "quadratic_coeffs", counting)
        for a, c in _shipped_cells():
            evaluated.append(0)
            find_admissible_alpha(a, c)
        assert 1 <= min(evaluated) and max(evaluated) <= 16
