import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cpi_sim
from cpi_sim import correlator
from cpi_sim import (
    Axis,
    ObjectMask,
    QuadratureSpec,
    SourceProfile,
    UnderResolved,
    coherent_psf,
    gamma_geometric,
    gamma_quadrature,
    incoherent_psf,
    intensity_a,
    intensity_b,
    arm_kernels,
    default_sampling,
    make_geometry,
    phase,
    psf_widths,
)
from cpi_sim.correlator import intensity_prefactor_a, intensity_prefactor_b
from cpi_sim.metrics import normalized_l2, normalized_linf, two_sided_peaks
from cpi_sim.optics import object_quadrature, source_quadrature
from conftest import SEPARATION, SIGMA, smooth_two_lobe_mask


class TestIntensityA:
    def test_flat(self, geom_focused, axis_a):
        img = intensity_a(geom_focused, axis_a)
        assert np.ptp(img.values) <= 1e-12 * img.values.max()

    def test_positive(self, geom_focused, axis_a):
        assert intensity_a(geom_focused, axis_a).values.min() > 0.0

    def test_inverse_square_in_distance(self, axis_a):
        g1 = make_geometry(z_a=0.1, z_b=0.05, S_o=0.2, F=0.05)
        g2 = make_geometry(z_a=0.2, z_b=0.05, S_o=0.2, F=0.05)
        v1 = intensity_a(g1, axis_a).values[0]
        v2 = intensity_a(g2, axis_a).values[0]
        assert v1 / v2 == pytest.approx(4.0, rel=1e-12)


class TestIntensityB:
    def test_point_source_gives_object_fourier_power(self, geom_focused):
        # near-point source: I_b ~ |A~((w/z_b)(rho_b/M))|^2, single-slit first
        # zero at rho_b = M lambda0 z_b / a
        a = 50e-6
        src = SourceProfile.gaussian(2e-6)
        mask = ObjectMask.single_slit(a)
        g = geom_focused
        zero = g.M * g.lambda0 * g.z_b / a
        axis_b = Axis.from_half_width(81, 1.5 * zero)
        quad = QuadratureSpec(n_source=64, n_object=256, source_span=1e-5)
        img = intensity_b(g, src, mask, axis_b, quad)
        x = axis_b.coordinates
        right = x > 0.6 * zero
        loc = x[right][np.argmin(img.values[right])]
        assert abs(loc - zero) <= axis_b.step
        assert img.values[right].min() < 1e-3 * img.values.max()

    def test_wide_source_washes_out_modulation(self, geom_focused):
        src = SourceProfile.gaussian(5e-3)
        mask = ObjectMask.single_slit(50e-6)
        axis_b = Axis.from_half_width(17, 400e-6)
        quad = QuadratureSpec(n_source=511, n_object=192, source_span=25e-3)
        img = intensity_b(geom_focused, src, mask, axis_b, quad)
        assert img.values.max() / img.values.min() - 1.0 < 0.05

    def test_open_aperture_is_flat(self, geom_focused):
        # no object: detector b just sees the (wide) source image
        src = SourceProfile.gaussian(5e-3)
        c = np.linspace(-0.5e-3, 0.5e-3, 41)
        mask = ObjectMask.from_samples(c, np.ones_like(c))
        axis_b = Axis.from_half_width(17, 100e-6)
        quad = QuadratureSpec(n_source=2801, n_object=2801, source_span=25e-3)
        img = intensity_b(geom_focused, src, mask, axis_b, quad)
        assert img.values.max() / img.values.min() - 1.0 < 0.01

    @pytest.mark.parametrize("geom_name", ["geom_focused", "geom_defocused"])
    def test_matches_per_pixel_quadrature(self, request, geom_name, source, slits):
        g = request.getfixturevalue(geom_name)
        axis_b = Axis.from_half_width(9, 500e-6)
        quad = QuadratureSpec.auto(g, source, slits, Axis.from_half_width(8, 200e-6), axis_b)
        img = intensity_b(g, source, slits, axis_b, quad)

        # direct evaluation: one source-averaged object transform per pixel
        rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
        rho_o, w_o, _ = object_quadrature(slits, quad.n_object)
        amp = slits.transmission(rho_o) * w_o
        f_s = source.intensity(rho_s) * w_s
        direct = []
        for rb in axis_b.coordinates:
            kappa = (g.omega0_over_c / g.z_b) * (rho_s + rb / g.M)
            ft = np.exp(-1j * np.outer(kappa, rho_o)) @ amp
            direct.append(f_s @ np.abs(ft) ** 2)
        expected = intensity_prefactor_b(g) * np.array(direct)
        np.testing.assert_allclose(img.values, expected, rtol=1e-12)

    def test_underresolved_guard(self, geom_focused, source, slits, axis_b):
        quad = QuadratureSpec(n_source=16, n_object=16, source_span=2.5e-3)
        with pytest.raises(UnderResolved):
            intensity_b(geom_focused, source, slits, axis_b, quad)

    def test_tophat_source_accepted(self, geom_focused):
        src = SourceProfile.tophat(1e-3)
        mask = ObjectMask.single_slit(50e-6)
        axis_b = Axis.from_half_width(17, 300e-6)
        quad = QuadratureSpec.auto(geom_focused, src, mask, Axis.from_half_width(8, 50e-6), axis_b)
        img = intensity_b(geom_focused, src, mask, axis_b, quad)
        assert np.all(np.isfinite(img.values)) and img.values.max() > 0.0


class TestGammaQuadrature:
    def test_focused_ghost_peaks_at_slit_positions(self, grid_focused, axis_a):
        summed = grid_focused.values.sum(axis=1)
        left, right = two_sided_peaks(axis_a.coordinates, summed)
        assert abs(left + SEPARATION / 2) <= axis_a.step
        assert abs(right - SEPARATION / 2) <= axis_a.step

    def test_angular_integral_matches_direct_image_quadrature(self, geom_focused, source):
        # rho_b-integrated Gamma against an independent 1D quadrature of the
        # focused ghost image  int |A|^2 |F~((w/z_a)(rho_o - rho_a))|^2 drho_o
        mask = smooth_two_lobe_mask(18e-6, 75e-6, n=521)
        axis_a = Axis.from_half_width(64, 200e-6)
        axis_b = Axis.from_half_width(64, 500e-6)
        quad = QuadratureSpec.auto(geom_focused, source, mask, axis_a, axis_b)
        grid = gamma_quadrature(geom_focused, source, mask, axis_a, axis_b, quad)
        w_b = np.full(axis_b.n, axis_b.step)
        w_b[[0, -1]] *= 0.5
        summed = grid.values @ w_b

        g = geom_focused
        sigma = 0.5e-3
        ro = np.linspace(-130e-6, 130e-6, 4001)
        w_o = np.full(ro.size, ro[1] - ro[0])
        w_o[[0, -1]] *= 0.5
        a2 = np.abs(mask.transmission(ro)) ** 2
        oracle = np.array(
            [
                np.sum(
                    w_o * a2 * np.exp(-(sigma**2) * (g.omega0_over_c / g.z_a) ** 2 * (ro - ra) ** 2)
                )
                for ra in axis_a.coordinates
            ]
        )
        assert normalized_l2(summed, oracle) < 1e-3

    def test_point_object_reproduces_source_fourier_power(self, geom_focused, source):
        mask = ObjectMask.single_slit(4e-6)
        axis_a = Axis.from_half_width(64, 80e-6)
        axis_b = Axis.from_half_width(16, 200e-6)
        quad = QuadratureSpec.auto(geom_focused, source, mask, axis_a, axis_b)
        grid = gamma_quadrature(geom_focused, source, mask, axis_a, axis_b, quad)
        g = geom_focused
        kappa = (g.omega0_over_c / g.z_a) * axis_a.coordinates
        expected = np.exp(-((0.5e-3) ** 2) * kappa**2)  # |F~|^2 of the Gaussian
        for j in (0, 8, 15):
            col = grid.values[:, j]
            assert normalized_l2(col, expected) < 1e-2
            assert abs(axis_a.coordinates[np.argmax(col)]) <= axis_a.step

    @pytest.mark.parametrize("geom_name", ["geom_focused", "geom_defocused"])
    def test_matches_per_pixel_double_sum(self, request, geom_name, source, slits):
        g = request.getfixturevalue(geom_name)
        axis_a = Axis.from_half_width(7, 150e-6, center=20e-6)
        axis_b = Axis.from_half_width(9, 400e-6, center=-60e-6)
        quad = QuadratureSpec.auto(g, source, slits, axis_a, axis_b)
        grid = gamma_quadrature(g, source, slits, axis_a, axis_b, quad)

        # direct evaluation: the (rho_o, rho_s) double sum of the integrand,
        # one full exponential per node pair and detector pixel pair
        w = g.omega0_over_c
        rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
        rho_o, w_o, _ = object_quadrature(slits, quad.n_object)
        weight = np.outer(slits.transmission(rho_o) * w_o, source.intensity(rho_s) * w_s)
        chirp = 0.5 * w * (1.0 / g.z_b - 1.0 / g.z_a) * rho_s**2
        direct = np.empty((axis_a.n, axis_b.n))
        for i, ra in enumerate(axis_a.coordinates):
            for j, rb in enumerate(axis_b.coordinates):
                coupling = (w / g.z_b) * (
                    np.outer(rho_o - (g.z_b / g.z_a) * ra, rho_s) + (rho_o * rb / g.M)[:, None]
                )
                direct[i, j] = np.abs(np.sum(weight * np.exp(1j * (chirp[None, :] - coupling)))) ** 2
        direct *= intensity_prefactor_a(g) * intensity_prefactor_b(g)
        # dark-fringe entries sit near zero, so they are held to the peak
        np.testing.assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-12 * direct.max())

    def test_nonnegative_and_finite_for_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            z_a = rng.uniform(0.05, 0.2)
            geom = make_geometry(z_a=z_a, z_b=rng.uniform(0.5, 1.0) * z_a, S_o=0.3, F=0.08)
            source = SourceProfile.gaussian(rng.uniform(0.2e-3, 0.8e-3))
            mask = ObjectMask.single_slit(rng.uniform(20e-6, 80e-6))
            axis_a = Axis.from_half_width(24, 150e-6)
            axis_b = Axis.from_half_width(24, 300e-6)
            quad = QuadratureSpec.auto(geom, source, mask, axis_a, axis_b, guard_factor=2.0)
            grid = gamma_quadrature(geom, source, mask, axis_a, axis_b, quad)
            assert np.all(np.isfinite(grid.values)) and np.all(grid.values >= 0.0)

    def test_inversion_symmetry_for_even_source_and_object(self, grid_focused):
        v = grid_focused.values
        np.testing.assert_allclose(v, v[::-1, ::-1], rtol=1e-9, atol=v.max() * 1e-11)

    def test_refinement_beyond_guard_converges(self, geom_focused, source, slits, axis_a, axis_b):
        base = QuadratureSpec.auto(geom_focused, source, slits, axis_a, axis_b)
        g1 = gamma_quadrature(geom_focused, source, slits, axis_a, axis_b, base)
        fine = QuadratureSpec(
            n_source=2 * base.n_source,
            n_object=2 * base.n_object,
            source_span=base.source_span,
        )
        g2 = gamma_quadrature(geom_focused, source, slits, axis_a, axis_b, fine)
        assert normalized_linf(g1.values, g2.values) < 1e-3

    def test_aliasing_guard_trips(self, geom_defocused, source, slits, axis_a, axis_b):
        quad = QuadratureSpec(n_source=24, n_object=20, source_span=2.5e-3)
        with pytest.raises(UnderResolved):
            gamma_quadrature(geom_defocused, source, slits, axis_a, axis_b, quad)

    def test_gaussian_span_validation(self, geom_focused, source, slits, axis_a, axis_b):
        quad = QuadratureSpec(n_source=512, n_object=128, source_span=1e-3)
        with pytest.raises(ValueError, match="5 sigma"):
            gamma_quadrature(geom_focused, source, slits, axis_a, axis_b, quad)


# Every consumer of a source span, called as (geom, source, quad, mask, axis_a, axis_b).
_SPAN_CONSUMERS = {
    "source_quadrature": lambda g, src, quad, mask, a, b: source_quadrature(
        src, quad.n_source, quad.source_span
    ),
    "auto": lambda g, src, quad, mask, a, b: QuadratureSpec.auto(
        g, src, mask, a, b, source_span=quad.source_span
    ),
    "declared_rates": lambda g, src, quad, mask, a, b: phase.declared_rates(
        g, src, mask, a, b, quad.source_span
    ),
    "gamma_quadrature": lambda g, src, quad, mask, a, b: gamma_quadrature(
        g, src, mask, a, b, quad
    ),
    "intensity_b": lambda g, src, quad, mask, a, b: intensity_b(g, src, mask, b, quad),
}


class TestSourceSpanRule:
    @pytest.mark.parametrize("consumer", list(_SPAN_CONSUMERS))
    def test_gaussian_span_below_5_sigma_fails_at_every_consumer(
        self, consumer, geom_focused, source, slits, axis_a, axis_b
    ):
        call = _SPAN_CONSUMERS[consumer]
        quad = QuadratureSpec(n_source=512, n_object=128, source_span=2 * SIGMA)
        with pytest.raises(ValueError, match="5 sigma"):
            call(geom_focused, source, quad, slits, axis_a, axis_b)
        # a top hat is integrated over its own support and ignores the span
        tophat = SourceProfile.tophat(4 * SIGMA)
        sized = QuadratureSpec.auto(geom_focused, tophat, slits, axis_a, axis_b)
        call(geom_focused, tophat, replace(sized, source_span=2 * SIGMA), slits, axis_a, axis_b)


class TestGammaGeometric:
    def test_focused_is_separable_product(self, geom_focused, source, slits, axis_a, axis_b):
        grid = gamma_geometric(geom_focused, source, slits, axis_a, axis_b)
        f_img = source.intensity(-axis_b.coordinates / geom_focused.M) ** 2
        a_img = np.abs(slits.transmission(axis_a.coordinates)) ** 2
        np.testing.assert_allclose(grid.values, np.outer(a_img, f_img), rtol=1e-12)

    def test_defocused_center_column_scales_object(self, geom_defocused, source, slits):
        axis_a = Axis.from_half_width(129, 160e-6, center=93.75e-6)
        axis_b = Axis.from_half_width(3, 1e-6)
        grid = gamma_geometric(geom_defocused, source, slits, axis_a, axis_b)
        col = grid.values[:, 1]
        bright = np.abs(slits.transmission(0.8 * axis_a.coordinates)) ** 2
        np.testing.assert_allclose(col / col.max(), bright, atol=1e-12)


class TestPsfForms:
    def test_no_displacement_gives_unity(self, geom_defocused):
        assert coherent_psf(geom_defocused, 0.5e-3, 0.8 * 1e-4, 1e-4) == pytest.approx(1.0)

    def test_focused_form_is_real_gaussian(self, geom_focused):
        g = geom_focused
        rho_o, rho_a = 30e-6, 10e-6
        val = coherent_psf(g, 0.5e-3, rho_o, rho_a)
        expected = np.exp(
            -0.5 * (g.omega0_over_c * 0.5e-3 / g.z_b) ** 2 * (rho_o - rho_a) ** 2
        )
        assert val == pytest.approx(expected, rel=1e-12)
        assert val.imag == 0.0

    def test_squared_modulus_identity(self, geom_defocused):
        rng = np.random.default_rng(3)
        rho_o = rng.uniform(-2e-4, 2e-4, 200)
        rho_a = rng.uniform(-2e-4, 2e-4, 200)
        for sigma in (0.2e-3, 0.5e-3, 1.5e-3):
            np.testing.assert_allclose(
                np.abs(coherent_psf(geom_defocused, sigma, rho_o, rho_a)) ** 2,
                incoherent_psf(geom_defocused, sigma, rho_o, rho_a),
                rtol=1e-12,
            )

    def test_focused_width_value(self, geom_focused):
        pw = psf_widths(geom_focused, 0.5e-3)
        expected = geom_focused.z_b / (geom_focused.omega0_over_c * 0.5e-3)
        assert pw.width_incoherent == pytest.approx(expected, rel=1e-12)
        assert pw.width_coherent == pytest.approx(expected, rel=1e-12)

    def test_incoherent_width_monotone_in_defocus(self):
        widths = []
        for z_b in (0.1, 0.09, 0.08, 0.06, 0.05):
            g = make_geometry(z_a=0.1, z_b=z_b, S_o=0.2, F=0.05)
            widths.append(psf_widths(g, 0.5e-3).width_incoherent)
        assert all(b > a or np.isclose(b, a) for a, b in zip(widths, widths[1:]))

    def test_incoherent_width_bounded_below_by_focus(self, geom_defocused, geom_focused):
        assert (
            psf_widths(geom_defocused, 0.5e-3).width_incoherent
            >= psf_widths(geom_focused, 0.5e-3).width_incoherent
        )


class _GuardsPassed(Exception):
    """Raised in place of the first phase-matrix build, after every guard ran."""


def _random_setup(rng):
    S_o = rng.uniform(0.15, 0.4)
    geom = make_geometry(
        z_a=rng.uniform(0.05, 0.3), z_b=rng.uniform(0.03, 0.9 * S_o), S_o=S_o,
        F=rng.uniform(0.03, 0.12), lambda0=rng.uniform(400e-9, 800e-9),
    )
    if rng.random() < 0.5:
        source = SourceProfile.gaussian(rng.uniform(0.1e-3, 1e-3))
    else:
        source = SourceProfile.tophat(rng.uniform(0.5e-3, 5e-3))
    width = rng.uniform(20e-6, 200e-6)
    if rng.random() < 0.5:
        mask = ObjectMask.single_slit(width)
    else:
        mask = ObjectMask.double_slit(separation=width * rng.uniform(1.2, 5.0), slit_width=width)
    axes = []
    for _ in range(2):
        hw = rng.uniform(50e-6, 2e-3)
        axes.append(Axis.from_half_width(int(rng.integers(8, 33)), hw, center=rng.uniform(-1, 1) * hw))
    return geom, source, mask, axes[0], axes[1]


class TestPhasePolicy:
    def test_auto_sizing_passes_its_own_guards(self, monkeypatch):
        # Random geometries, sources, masks and off-centre axes; each sized
        # grid is handed to the real guarded function, which must get past
        # every check_step to its first phase-matrix build.
        def stop(*args):
            raise _GuardsPassed

        monkeypatch.setattr(phase, "phase_matrix", stop)
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            geom, source, mask, axis_a, axis_b = _random_setup(rng)
            for guard_factor in (1.0, 2.0, 4.0):
                quad = QuadratureSpec.auto(geom, source, mask, axis_a, axis_b, guard_factor)
                with pytest.raises(_GuardsPassed):
                    gamma_quadrature(geom, source, mask, axis_a, axis_b, quad)
                with pytest.raises(_GuardsPassed):
                    intensity_b(geom, source, mask, axis_b, quad)
            axis_s, n_object = default_sampling(geom, source, mask, axis_a, axis_b)
            with pytest.raises(_GuardsPassed):
                arm_kernels(geom, mask, axis_s, axis_a, axis_b, n_object)

    def test_only_phase_module_owns_the_policy(self):
        # The step limit and every bilinear phase matrix live in phase.py
        package = Path(cpi_sim.__file__).parent
        outer_exp = re.compile(r"np\.exp\([^\n]*np\.outer\(")
        owners = {
            path.name
            for path in package.glob("*.py")
            if "MAX_PHASE_STEP" in (text := path.read_text(encoding="utf-8"))
            or outer_exp.search(text)
        }
        assert owners == {"phase.py"}

    def test_one_arm_b_model(self):
        # correlator.object_transfer builds every arm-b phase matrix and
        # correlator.arm_b_prefactor holds the arm-b prefactor formula
        package = Path(cpi_sim.__file__).parent
        assert "phase_matrix" not in (package / "montecarlo.py").read_text(encoding="utf-8")
        prefactor = re.compile(r"fresnel_prefactor\([^()]*S_i\)")
        hits = [
            path.name
            for path in package.glob("*.py")
            for _ in prefactor.finditer(path.read_text(encoding="utf-8"))
        ]
        assert hits == ["correlator.py"]

    def test_one_propagator_module(self):
        # correlator.py builds both arm propagators; the Monte Carlo only
        # samples cells and reduces statistics, and no kernel is a per-entry
        # exponential of a 2D coordinate difference
        package = Path(cpi_sim.__file__).parent
        montecarlo = (package / "montecarlo.py").read_text(encoding="utf-8")
        optics = (
            "phase_matrix", "fresnel_prefactor", "gaussian_phase", "object_transfer",
            "object_quadrature", "arm_b_prefactor",
        )
        assert [name for name in optics if re.search(rf"\b{name}\b", montecarlo)] == []
        difference_kernel = re.compile(r"gaussian_phase\([^)]*None\]")
        assert not [
            path.name
            for path in package.glob("*.py")
            if difference_kernel.search(path.read_text(encoding="utf-8"))
        ]


def _with_wavenumber(geom, w):
    return make_geometry(
        z_a=geom.z_a, z_b=geom.z_b, S_o=geom.S_o, F=geom.focal_F, lambda0=2.0 * np.pi / w
    )


def _trips_at_its_rate(call, geom, products, tested):
    """Check guard ``tested`` of ``call`` at 1.1x and 0.9x its step limit.

    ``products`` maps the message prefix of every guard of the call to its
    step times its w-free rate factor. Returns False, checking nothing,
    unless ``tested`` binds: every other guard at most 1/1.1 of its limit.
    """
    p = products[tested]
    if any(q > p / 1.1 for what, q in products.items() if what != tested):
        return False
    w_limit = (np.pi / 2.0) / p
    with pytest.raises(UnderResolved, match=f"^{re.escape(tested)} step "):
        call(_with_wavenumber(geom, 1.1 * w_limit))
    with pytest.raises(_GuardsPassed):
        call(_with_wavenumber(geom, 0.9 * w_limit))
    return True


class TestGuardsAtTheirRates:
    def test_every_guard_trips_at_its_rate(self, monkeypatch):
        # No guard may be looser than the rate of the factor it protects.
        # The rates are written out here from the integrands, not read from
        # phase.rates; each is w = omega0/c times a w-free factor of the
        # largest |node| S, O, A, B of rho_s, rho_o, rho_a, rho_b, so every
        # case sets w to put the tested step at 1.1x (must raise naming the
        # guard) and 0.9x (must pass every guard) its pi/2 limit.
        def stop(*args):
            raise _GuardsPassed

        monkeypatch.setattr(phase, "phase_matrix", stop)
        rng = np.random.default_rng(20261019)
        binding: dict[tuple[str, str], int] = {}

        def check(name, call, geom, products, tested):
            if _trips_at_its_rate(call, geom, products, tested):
                binding[name, tested] = binding.get((name, tested), 0) + 1

        for _ in range(100):
            geom, source, mask, axis_a, axis_b = _random_setup(rng)
            za, zb, M = geom.z_a, geom.z_b, geom.M
            S = source.quadrature_interval()[1]
            O = mask.support_half_width
            A = float(np.max(np.abs(axis_a.coordinates)))
            B = float(np.max(np.abs(axis_b.coordinates)))

            # one coarse axis, one fine: each guard of gamma_quadrature and
            # intensity_b reads its own axis
            for tested, n_s, n_o in (("source", 32, 4096), ("object", 4096, 32)):
                quad = QuadratureSpec(n_source=n_s, n_object=n_o, source_span=S)
                step_s = 2.0 * S / (n_s - 1)
                # every rho_o integral: d/drho_o of (w/z_b) rho_o (rho_s + rho_b/M)
                obj = object_quadrature(mask, n_o)[2] * (S + B / M) / zb
                # Gamma along rho_s: source chirp plus both coupling phases
                gamma_s = step_s * (abs(1.0 / zb - 1.0 / za) * S + O / zb + A / za)
                check(
                    "gamma_quadrature",
                    lambda g: gamma_quadrature(g, source, mask, axis_a, axis_b, quad),
                    geom, {"source": gamma_s, "object": obj}, tested,
                )
                # intensity_b along rho_s: the argument of A~ moves by (w/z_b) rho_o
                check(
                    "intensity_b",
                    lambda g: intensity_b(g, source, mask, axis_b, quad),
                    geom, {"source": step_s * O / zb, "object": obj}, tested,
                )

            # arm_kernels: three rules share the cell step; a narrow and a
            # wide cell axis let each of them bind
            for n_cells, hw, n_o in ((32, 1e-5, 4096), (32, 1e-2, 4096), (4096, 1e-3, 32)):
                axis_s = Axis.from_half_width(n_cells, hw)
                step = axis_s.step
                products = {
                    # a cell spans at most pi/2 of the linear phase
                    # w rho_x rho_s / z at the farthest pixel, shorter z
                    "source cell (unresolved-cell rule)": step * max(A, B / M) / min(za, zb),
                    # d/drho_s of w (rho_a - rho_s)^2 / (2 z_a)
                    "arm-a kernel source cell": step * (A + hw) / za,
                    # d/drho_s of w rho_s^2 / (2 z_b) - (w/z_b) rho_o rho_s
                    "arm-b kernel source cell": step * (hw + O) / zb,
                    f"arm-b object quadrature (n_object = {n_o})":
                        object_quadrature(mask, n_o)[2] * (hw + B / M) / zb,
                }
                for tested in products:
                    check(
                        "arm_kernels",
                        lambda g: arm_kernels(g, mask, axis_s, axis_a, axis_b, n_o),
                        geom, products, tested,
                    )

        assert set(binding) == {
            ("gamma_quadrature", "source"), ("gamma_quadrature", "object"),
            ("intensity_b", "source"), ("intensity_b", "object"),
            ("arm_kernels", "source cell (unresolved-cell rule)"),
            ("arm_kernels", "arm-a kernel source cell"),
            ("arm_kernels", "arm-b kernel source cell"),
            ("arm_kernels", "arm-b object quadrature (n_object = 32)"),
        }
        assert min(binding.values()) >= 10, binding


class TestObjectTransferBlocks:
    """object_transfer in several source blocks equals its one-block result."""

    @staticmethod
    def _blocked(monkeypatch, geom, n_o, n_s, call):
        # at least three full blocks of the rho_s phase matrix, then a ragged one
        chunk = (n_s - 1) // 3
        c1 = geom.omega0_over_c / geom.z_b
        sizes = []
        build = phase.phase_matrix

        def spy(c, x, y):
            if c == c1 and len(x) == n_o:
                sizes.append(len(y))
            return build(c, x, y)

        with monkeypatch.context() as m:
            m.setattr(correlator, "_PHASE_BLOCK", chunk * n_o)
            m.setattr(phase, "phase_matrix", spy)
            out = call()
        assert len(sizes) >= 4 and sum(sizes) == n_s
        assert sizes[:-1] == [chunk] * (len(sizes) - 1) and 0 < sizes[-1] < chunk
        return out

    @staticmethod
    def _assert_close(actual, desired):
        peak = np.abs(desired).max()
        np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * peak)

    @pytest.mark.parametrize("geom_name", ["geom_focused", "geom_defocused"])
    def test_gamma_and_intensity_b(self, request, monkeypatch, geom_name, source, slits):
        g = request.getfixturevalue(geom_name)
        axis_a = Axis.from_half_width(12, 200e-6, center=30e-6)
        axis_b = Axis.from_half_width(10, 500e-6, center=-60e-6)
        quad = QuadratureSpec.auto(g, source, slits, axis_a, axis_b)
        n_o = object_quadrature(slits, quad.n_object)[0].size
        gamma = gamma_quadrature(g, source, slits, axis_a, axis_b, quad)
        self._assert_close(
            self._blocked(
                monkeypatch, g, n_o, quad.n_source,
                lambda: gamma_quadrature(g, source, slits, axis_a, axis_b, quad),
            ).values,
            gamma.values,
        )
        i_b = intensity_b(g, source, slits, axis_b, quad)
        self._assert_close(
            self._blocked(
                monkeypatch, g, n_o, quad.n_source,
                lambda: intensity_b(g, source, slits, axis_b, quad),
            ).values,
            i_b.values,
        )

    @pytest.mark.parametrize("geom_name", ["geom_focused", "geom_defocused"])
    def test_arm_kernels(self, request, monkeypatch, geom_name, source, slits):
        g = request.getfixturevalue(geom_name)
        axis_a = Axis.from_half_width(12, 150e-6, center=30e-6)
        axis_b = Axis.from_half_width(10, 400e-6, center=-60e-6)
        axis_s, n_object = default_sampling(g, source, slits, axis_a, axis_b)
        n_o = object_quadrature(slits, n_object)[0].size
        k_a, k_b = arm_kernels(g, slits, axis_s, axis_a, axis_b, n_object)
        blocked_a, blocked_b = self._blocked(
            monkeypatch, g, n_o, axis_s.n,
            lambda: arm_kernels(g, slits, axis_s, axis_a, axis_b, n_object),
        )
        self._assert_close(blocked_a, k_a)
        self._assert_close(blocked_b, k_b)
