from dataclasses import replace

import numpy as np
import pytest

from cpi_sim import (
    Axis,
    CorrelationGrid,
    InvalidGeometry,
    ObjectMask,
    SourceProfile,
    fresnel_prefactor,
    gaussian_phase,
    make_geometry,
)
from cpi_sim.optics import object_quadrature, source_quadrature


class TestMakeGeometry:
    def test_solves_image_distance_from_focal(self):
        g = make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05)
        assert g.S_i == pytest.approx(1.0 / (1.0 / 0.05 - 1.0 / 0.2), rel=1e-15)
        assert g.M == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_image_at_infinity_rejected(self):
        with pytest.raises(InvalidGeometry):
            make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.2)

    def test_solves_focal_from_image_distance(self):
        g = make_geometry(z_a=0.1, z_b=0.08, S_o=0.2, S_i=0.0666667)
        assert g.alpha == pytest.approx(0.8, rel=1e-15)
        assert g.focal_F == pytest.approx(0.05, rel=1e-5)

    def test_conjugation_exact_by_construction(self):
        g = make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05)
        assert abs(1 / g.S_i + 1 / g.S_o - 1 / g.focal_F) <= 1e-12 / g.focal_F

    def test_replaced_image_distance_moves_the_focal_length(self):
        # F is derived from S_o and S_i, so a replaced S_i cannot leave a
        # stale focal length behind
        g = replace(make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05), S_i=0.25)
        assert g.focal_F == 1.0 / (1.0 / 0.25 + 1.0 / 0.2)
        assert g.M == 1.25

    def test_rebuild_from_fields_is_bit_identical(self):
        g = make_geometry(z_a=0.1, z_b=0.07, S_o=0.19, F=0.048, lambda0=633e-9)
        g2 = make_geometry(
            z_a=g.z_a, z_b=g.z_b, S_o=g.S_o, F=g.focal_F, lambda0=g.lambda0
        )
        assert g2 == g

    @pytest.mark.parametrize("field", ["z_a", "z_b", "S_o"])
    def test_nonpositive_lengths_rejected(self, field):
        kwargs = dict(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05)
        kwargs[field] = -kwargs[field]
        with pytest.raises(InvalidGeometry):
            make_geometry(**kwargs)

    @pytest.mark.parametrize("field", ["z_a", "z_b", "lambda0"])
    def test_lengths_not_used_by_the_lens_are_checked_by_the_geometry(self, field):
        kwargs = dict(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05, lambda0=500e-9)
        kwargs[field] = float("nan")
        with pytest.raises(InvalidGeometry, match=f"^{field} must be a positive length, got nan$"):
            make_geometry(**kwargs)

    @pytest.mark.parametrize("S_i", [0.0, -1.0])
    def test_nonpositive_image_distance_rejected_by_the_geometry(self, S_i):
        # SetupGeometry alone owns the S_i rule; make_geometry passes S_i on
        with pytest.raises(InvalidGeometry, match=f"^S_i must be a positive length, got {S_i}$"):
            make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, S_i=S_i)

    def test_object_beyond_lens_rejected(self):
        with pytest.raises(InvalidGeometry):
            make_geometry(z_a=0.1, z_b=0.25, S_o=0.2, F=0.05)

    def test_exactly_one_of_si_f(self):
        with pytest.raises(InvalidGeometry):
            make_geometry(z_a=0.1, z_b=0.1, S_o=0.2)
        with pytest.raises(InvalidGeometry):
            make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05, S_i=0.066)


class TestPropagatorPrimitives:
    def test_phase_at_zero_is_one(self):
        assert gaussian_phase(0.0, 3.7e6) == 1.0 + 0.0j

    def test_phase_closed_form(self):
        val = gaussian_phase(1e-3, 2e6)
        assert val == pytest.approx(np.cos(1.0) + 1j * np.sin(1.0), rel=1e-12)

    def test_phase_unit_modulus(self):
        rng = np.random.default_rng(0)
        rho = rng.uniform(-1e-2, 1e-2, 100)
        beta = rng.uniform(-1e8, 1e8, 100)
        np.testing.assert_allclose(np.abs(gaussian_phase(rho, beta)), 1.0, rtol=1e-12)

    def test_phase_multiplicative_in_beta(self):
        rng = np.random.default_rng(1)
        rho = rng.uniform(-1e-2, 1e-2, 50)
        b1 = rng.uniform(-1e7, 1e7, 50)
        b2 = rng.uniform(-1e7, 1e7, 50)
        np.testing.assert_allclose(
            gaussian_phase(rho, b1) * gaussian_phase(rho, b2),
            gaussian_phase(rho, b1 + b2),
            rtol=1e-12,
        )

    def test_prefactor_modulus_is_inverse_lambda_z(self):
        w = 2 * np.pi / 500e-9
        h = fresnel_prefactor(w, 0.1)
        assert abs(h) == pytest.approx(1.0 / (500e-9 * 0.1), rel=1e-12)

    def test_prefactor_pole_at_zero(self):
        with pytest.raises(InvalidGeometry):
            fresnel_prefactor(2 * np.pi / 500e-9, 0.0)

    def test_prefactor_phase_decomposition(self):
        rng = np.random.default_rng(2)
        w = 2 * np.pi / 633e-9
        for z in rng.uniform(1e-3, 1.0, 20):
            expected = (w * z - np.pi / 2) % (2 * np.pi)
            assert np.angle(fresnel_prefactor(w, z)) % (2 * np.pi) == pytest.approx(
                expected, abs=1e-9
            )


class TestSourceProfile:
    @pytest.mark.parametrize(
        "src",
        [SourceProfile.gaussian(0.5e-3), SourceProfile.tophat(1e-3)],
        ids=["gaussian", "tophat"],
    )
    def test_intensity_normalized(self, src):
        lo, hi = src.quadrature_interval(10 * 0.5e-3)
        x = np.linspace(lo, hi, 20001)
        mass = np.trapezoid(src.intensity(x), x)
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_normalization_survives_reparameterization(self):
        for sigma in (0.1e-3, 0.7e-3, 2.5e-3):
            src = SourceProfile.gaussian(sigma)
            x = np.linspace(-10 * sigma, 10 * sigma, 20001)
            assert np.trapezoid(src.intensity(x), x) == pytest.approx(1.0, rel=1e-9)

    def test_intensity_nonnegative(self):
        src = SourceProfile.tophat(1e-3)
        x = np.linspace(-2e-3, 2e-3, 501)
        assert np.all(src.intensity(x) >= 0.0)

    def test_diameter_convention_agrees_between_kinds(self):
        d = 1e-3
        assert SourceProfile.tophat(d).diameter == SourceProfile.gaussian(d / 2).diameter

    def test_gaussian_shape(self):
        sigma = 0.4e-3
        src = SourceProfile.gaussian(sigma)
        x = np.array([0.0, sigma, 2 * sigma])
        expected = np.exp(-(x**2) / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)
        np.testing.assert_allclose(src.intensity(x), expected, rtol=1e-12)


class TestObjectMask:
    def test_double_slit_points(self):
        mask = ObjectMask.double_slit(separation=150e-6, slit_width=50e-6)
        assert mask.transmission(75e-6) == 1.0 + 0.0j
        assert mask.transmission(0.0) == 0.0 + 0.0j
        assert mask.transmission(200e-6) == 0.0 + 0.0j

    def test_transmission_bounded(self):
        mask = ObjectMask.double_slit(separation=150e-6, slit_width=50e-6)
        x = np.linspace(-300e-6, 300e-6, 1001)
        assert np.all(np.abs(mask.transmission(x)) <= 1.0)

    def test_sampled_interpolates_and_vanishes_outside(self):
        coords = np.array([-1e-4, 0.0, 1e-4])
        vals = np.array([0.0, 1.0, 0.0])
        mask = ObjectMask.from_samples(coords, vals)
        assert mask.transmission(5e-5) == pytest.approx(0.5)
        assert mask.transmission(2e-4) == 0.0

    def test_sampled_rejects_overunity(self):
        with pytest.raises(ValueError):
            ObjectMask.from_samples([-1e-4, 1e-4], [1.5, 0.0])

    def test_support_intervals_cover_slits(self):
        mask = ObjectMask.double_slit(separation=150e-6, slit_width=50e-6)
        (l0, h0), (l1, h1) = mask.support_intervals()
        np.testing.assert_allclose([l0, h0, l1, h1], [-100e-6, -50e-6, 50e-6, 100e-6], rtol=1e-12)

    @pytest.mark.parametrize(
        "mask",
        [
            ObjectMask.double_slit(separation=600e-6, slit_width=200e-6),
            ObjectMask.single_slit(70e-6),
            ObjectMask.from_samples([2e-5, 5e-5, 9e-5], [0.0, 1.0, 0.5]),
        ],
        ids=["double_slit", "single_slit", "sampled_at_positive_rho"],
    )
    def test_support_half_width_is_the_farthest_quadrature_node(self, mask):
        nodes, _, _ = object_quadrature(mask, 64)
        assert mask.support_half_width == np.max(np.abs(nodes))

    def test_every_slit_quadrature_node_transmits(self):
        # sizes as a config file spells them: separation 20-1000 um in
        # steps of 10, width 5-495 um in steps of 5; the interval end nodes
        # must see the slit open, whatever the rounding of s/2 +- a/2
        masks = [
            ObjectMask.double_slit(separation=float(f"{s}e-6"), slit_width=float(f"{a}e-6"))
            for s in range(20, 1001, 10)
            for a in range(5, 500, 5)
            if s > a
        ]
        assert len(masks) == 7449
        for mask in masks:
            nodes, _, _ = object_quadrature(mask, 200)
            assert np.all(mask.transmission(nodes) == 1.0), (mask.separation, mask.slit_width)


class TestAxesAndGrids:
    def test_axis_coordinates_symmetric_increasing(self):
        ax = Axis.from_half_width(11, 1e-3, center=2e-4)
        c = ax.coordinates
        assert np.all(np.diff(c) > 0)
        np.testing.assert_allclose(c + c[::-1], 2 * ax.center, atol=1e-18)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis(n=1, center=0.0, step=1e-6)
        with pytest.raises(ValueError):
            Axis(n=8, center=0.0, step=-1e-6)

    def test_grid_rejects_negative_and_nonfinite(self):
        ax = Axis.from_half_width(4, 1e-3)
        ok = np.ones((4, 4))
        with pytest.raises(ValueError):
            CorrelationGrid(ax, ax, ok * -1.0, z_a=0.1, z_b=0.1, M=1 / 3)
        bad = ok.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            CorrelationGrid(ax, ax, bad, z_a=0.1, z_b=0.1, M=1 / 3)

    def test_object_quadrature_excludes_gaps(self):
        mask = ObjectMask.double_slit(separation=150e-6, slit_width=50e-6)
        nodes, weights, max_step = object_quadrature(mask, 64)
        assert np.all(np.abs(mask.transmission(nodes)) == 1.0)
        assert max_step < 50e-6 / 9
        assert np.sum(weights) == pytest.approx(2 * 50e-6, rel=1e-12)

    def test_source_quadrature_tophat_exact_support(self):
        src = SourceProfile.tophat(2e-3)
        nodes, weights = source_quadrature(src, 33)
        assert nodes[0] == -1e-3 and nodes[-1] == 1e-3
        assert np.sum(weights * src.intensity(nodes)) == pytest.approx(1.0, rel=1e-12)
