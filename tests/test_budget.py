import numpy as np
import pytest

from cpi_sim import (
    MissingFeatureScale,
    ObjectMask,
    SourceProfile,
    make_geometry,
    plenoptic_hyperbola,
    resolution_limits,
    tradeoff_curve,
)


class TestTradeoffCurve:
    def test_plenoptic_pairs_are_divisors(self):
        curve = tradeoff_curve(50, "plenoptic")
        assert {(10, 5), (25, 2), (50, 1)} <= set(curve.pairs)
        for n_x, n_u in curve.pairs:
            assert n_x * n_u == 50

    def test_cpi_pairs_are_splits(self):
        curve = tradeoff_curve(50, "cpi")
        assert {(10, 40), (25, 25), (49, 1)} <= set(curve.pairs)
        assert len(curve.pairs) == 49
        for n_x, n_u in curve.pairs:
            assert n_x + n_u == 50

    def test_angular_advantage_at_fixed_resolution(self):
        plen = tradeoff_curve(50, "plenoptic")
        cpi = tradeoff_curve(50, "cpi")
        assert plen.angular_for(10) == 5
        assert cpi.angular_for(10) == 40

    @pytest.mark.parametrize("n_tot", [12, 50, 128])
    def test_cpi_dominates_pointwise(self, n_tot):
        # strictly more angular pixels at every shared interior resolution;
        # N_x = 1 is the degenerate single-pixel image where the tiling
        # scheme keeps all N_tot angular samples
        plen = tradeoff_curve(n_tot, "plenoptic")
        cpi = tradeoff_curve(n_tot, "cpi")
        for n_x, n_u_plen in plen.pairs:
            n_u_cpi = cpi.angular_for(n_x)
            if n_u_cpi is None or n_x == 1:
                continue
            assert n_u_cpi > n_u_plen

    def test_hyperbola_samples(self):
        pts = plenoptic_hyperbola(50, n_points=25)
        np.testing.assert_allclose(pts[:, 0] * pts[:, 1], 50.0, rtol=1e-12)

    def test_budget_validation(self):
        # the pixel pitch is a config rule (budget.delta), not the curve's
        with pytest.raises(ValueError, match="need n_tot >= 2, got 1"):
            tradeoff_curve(1, "cpi")
        with pytest.raises(ValueError, match="unknown scheme 'lightfield'"):
            tradeoff_curve(50, "lightfield")


class TestResolutionLimits:
    def test_ghost_resolution_from_source_diameter(self):
        geom = make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05, lambda0=500e-9)
        source = SourceProfile.gaussian(0.5e-3)  # D_s = 1 mm
        mask = ObjectMask.single_slit(50e-6)
        delta_a, _ = resolution_limits(geom, source, mask)
        assert delta_a == pytest.approx(50e-6, rel=1e-12)

    def test_angular_resolution_from_feature_size(self):
        geom = make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05, lambda0=500e-9)
        source = SourceProfile.gaussian(0.5e-3)
        mask = ObjectMask.single_slit(50e-6)
        _, delta_b = resolution_limits(geom, source, mask)
        assert delta_b == pytest.approx((1 / 3) * 500e-9 * 0.1 / 50e-6, rel=1e-9)

    def test_doubling_source_halves_ghost_limit(self):
        geom = make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05, lambda0=500e-9)
        mask = ObjectMask.single_slit(50e-6)
        d1, _ = resolution_limits(geom, SourceProfile.gaussian(0.5e-3), mask)
        d2, _ = resolution_limits(geom, SourceProfile.gaussian(1.0e-3), mask)
        assert d1 / d2 == pytest.approx(2.0, rel=1e-12)

    def test_missing_feature_scale(self):
        geom = make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05)
        source = SourceProfile.gaussian(0.5e-3)
        c = np.linspace(-1e-4, 1e-4, 9)
        mask = ObjectMask.from_samples(c, np.ones_like(c))  # no declared d
        with pytest.raises(MissingFeatureScale):
            resolution_limits(geom, source, mask)

    def test_consistent_with_fitted_psf_width(self, geom_focused, source):
        # cross-module: budget formula vs the fitted ghost PSF (factor 1.5)
        from cpi_sim import Axis, QuadratureSpec, gamma_quadrature, ghost_image
        from cpi_sim.metrics import e2_full_width, fit_gaussian_width

        point = ObjectMask.single_slit(5e-6)
        delta_a, _ = resolution_limits(geom_focused, source, point)
        axis_a = Axis.from_half_width(64, 120e-6)
        axis_b = Axis.from_half_width(16, 300e-6)
        quad = QuadratureSpec.auto(geom_focused, source, point, axis_a, axis_b)
        grid = gamma_quadrature(geom_focused, source, point, axis_a, axis_b, quad)
        _, width = fit_gaussian_width(axis_a.coordinates, ghost_image(grid).values)
        ratio = e2_full_width(width) / delta_a
        assert 1 / 1.5 <= ratio <= 1.5
