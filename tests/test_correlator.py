import itertools
import re
import tracemalloc
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
    gamma_geometric,
    gamma_quadrature,
    intensity_a,
    intensity_b,
    arm_kernels,
    default_sampling,
    make_geometry,
    phase,
    psf_widths,
)
from cpi_sim.correlator import intensity_prefactor_a, intensity_prefactor_b
from cpi_sim.metrics import normalized_linf, two_sided_peaks
from cpi_sim.optics import object_quadrature, source_quadrature
from conftest import SEPARATION, SIGMA, smooth_two_lobe_mask
from oracles import coherent_psf, gaussian_gamma, incoherent_psf, normalized_l2


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
        auto = QuadratureSpec.auto(g, source, slits, Axis.from_half_width(8, 200e-6), axis_b)
        # both parities: the half sum pairs d with -d, and an odd n_source
        # has a d = 0 row, its own mirror, that must count once
        for quad in (auto, replace(auto, n_source=auto.n_source + 1)):
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


def _complex_mask():
    # complex and off-centre, so T has no symmetry in rho_o or rho_b
    c = np.linspace(-140e-6, 90e-6, 461)
    values = 0.9 * np.exp(-((c - 20e-6) ** 2) / (2 * (45e-6) ** 2) + 1j * c / 30e-6)
    return ObjectMask.from_samples(c, values)


def _real_mask():
    # real and off-centre: both parity parts r+ and r- of the object
    # factor are nonzero, and real on centred axes
    c = np.linspace(-140e-6, 90e-6, 461)
    return ObjectMask.from_samples(c, 0.9 * np.exp(-((c - 20e-6) ** 2) / (2 * (45e-6) ** 2)))


def _odd_mask(n):
    # real and odd about 0, sampled on the n nodes object_quadrature places
    # for n_object = n, so each node reads its sample and r+ = 0 exactly
    c = np.linspace(-60e-6, 60e-6, n)
    g = 0.9 * np.sin(c / 25e-6) * np.exp(-((c - 10e-6) / 40e-6) ** 2)
    return ObjectMask.from_samples(c, 0.5 * (g - g[::-1]))


# float-column blocks of the object sum per plane on centred axes, where
# the object factor is real: a mirror-symmetric mask keeps r+ alone, an
# odd one r- alone, a real off-centre one both, and a complex one the real
# and imaginary parts of both
_CENTRED_BLOCKS = {"slits": 1, "odd": 1, "real": 2, "complex": 4}
# and on moved axes, kappa != 0: the factor exp(-i c1 e kappa) makes the
# r+ of a real even mask real and its r- imaginary (the reverse for an odd
# one), and an off-centre mask (m != 0) complex throughout
_MOVED_BLOCKS = {"slits": 2, "odd": 2, "real": 4, "complex": 4}


class _StubSource:
    """A source with its own quadrature interval and intensity profile."""

    def __init__(self, interval, intensity):
        self.interval, self.intensity = interval, intensity

    def quadrature_interval(self, half_width=None):
        return self.interval


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

    @pytest.mark.parametrize(
        "geom_name, variant, mask_name",
        [
            pytest.param(g, v, "slits", id=g if v == "auto" else f"{g}-{v}")
            for g in ("geom_focused", "geom_defocused")
            for v in ("auto", "odd", "even", "tophat", "chunked")
        ]
        + [
            pytest.param("geom_defocused", v, m, id=f"geom_defocused-{v}-{m}")
            for v in ("centred-odd", "centred-even")
            for m in _CENTRED_BLOCKS
        ],
    )
    def test_matches_per_pixel_double_sum(
        self, request, monkeypatch, geom_name, variant, mask_name, source, slits
    ):
        # the half contraction pairs the source nodes d and -d; an odd
        # n_source has a d = 0 row, its own mirror, that must count once.
        # "chunked" shrinks the block budget so that the object half
        # products add up over chunks of object nodes and G over blocks of
        # source rows. The centred variants put rho_a and rho_b about 0
        # with odd and even pixel counts, where the object factor is real
        # and the object sum leaves its zero parity blocks out
        g = request.getfixturevalue(geom_name)
        if variant.startswith("centred"):
            n_a, n_b = (7, 9) if variant == "centred-odd" else (8, 10)
            axis_a = Axis.from_half_width(n_a, 150e-6)
            axis_b = Axis.from_half_width(n_b, 400e-6)
        else:
            axis_a = Axis.from_half_width(7, 150e-6, center=20e-6)
            axis_b = Axis.from_half_width(9, 400e-6, center=-60e-6)
        mask = {"slits": slits, "odd": _odd_mask(16), "real": _real_mask(), "complex": _complex_mask()}[
            mask_name
        ]
        if variant == "tophat":
            source = SourceProfile.tophat(1.5e-3)
        quad = QuadratureSpec.auto(g, source, mask, axis_a, axis_b)
        if mask_name == "odd":  # the nodes on the samples
            mask = _odd_mask(quad.n_object)
        if variant in ("odd", "even"):
            quad = replace(quad, n_source=quad.n_source + (quad.n_source % 2 != (variant == "odd")))
            assert quad.n_source % 2 == (variant == "odd")
        streams, complex_built, columns = _spy_planes(monkeypatch)
        if variant == "chunked":
            monkeypatch.setattr(phase, "_BLOCK_ENTRIES", 40 * 40)
        grid = gamma_quadrature(g, source, mask, axis_a, axis_b, quad)
        # no complex phase matrix: the column tables, the object sum and
        # Gamma's source side each stream cos/sin planes
        assert complex_built == {}
        w = g.omega0_over_c
        rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
        rho_o, w_o, _ = object_quadrature(mask, quad.n_object)
        _, object_blocks, v_blocks = streams
        # Gamma's source planes span the ceil(n_a / 2) pixels eps_a >= 0,
        # and every object-stream matmul ceil(n_b / 2) columns a block
        assert {cols for _, cols in v_blocks} == {(axis_a.n + 1) // 2}
        k_b = (axis_b.n + 1) // 2
        parity = _CENTRED_BLOCKS if variant.startswith("centred") else _MOVED_BLOCKS
        assert set(columns[1]) == {parity[mask_name] * k_b}
        if variant == "chunked":
            assert max(cols for _, cols in object_blocks) < rho_o.size
            assert len(v_blocks) > 1

        # direct evaluation: the (rho_o, rho_s) double sum of the integrand,
        # one full exponential per node pair and detector pixel pair
        weight = np.outer(mask.transmission(rho_o) * w_o, source.intensity(rho_s) * w_s)
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

    def test_an_asymmetric_source_factor_is_refused(self, geom_defocused, slits, axis_a, axis_b):
        # the source sums of Gamma and I_b pair each node with its mirror
        # about rho_s = 0, so F w_s must be the same at both; a Gaussian
        # moved off the centre of its interval is not
        gaussian = SourceProfile.gaussian(SIGMA)
        moved = _StubSource((-5 * SIGMA, 5 * SIGMA), lambda rho: gaussian.intensity(rho - 0.1 * SIGMA))
        quad = QuadratureSpec.auto(geom_defocused, gaussian, slits, axis_a, axis_b)
        with pytest.raises(ValueError, match="mirror-symmetric about rho_s = 0"):
            gamma_quadrature(geom_defocused, moved, slits, axis_a, axis_b, quad)
        with pytest.raises(ValueError, match="mirror-symmetric about rho_s = 0"):
            intensity_b(geom_defocused, moved, slits, axis_b, quad)

    def test_an_off_centre_source_interval_is_refused(self, geom_defocused, slits, axis_a, axis_b):
        # the mirror of d is -d only for nodes centred on 0, as every
        # built-in source's are; a uniform source on (0.2, 2.2) mm is not
        uniform = _StubSource((0.2e-3, 2.2e-3), lambda rho: np.full(np.shape(rho), 500.0))
        quad = QuadratureSpec(n_source=401, n_object=256, source_span=1e-3)
        with pytest.raises(ValueError, match="centred on rho_s = 0"):
            gamma_quadrature(geom_defocused, uniform, slits, axis_a, axis_b, quad)
        with pytest.raises(ValueError, match="centred on rho_s = 0"):
            intensity_b(geom_defocused, uniform, slits, axis_b, quad)

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


class TestGaussianOracle:
    """gamma_quadrature against the closed form of a Gaussian source and a
    Gaussian object (``oracles.gaussian_gamma``), which pins the absolute
    scale of Gamma: its prefactors, weights, chirp and coupling constants."""

    @pytest.mark.parametrize("path", ["centred", "turned"])
    @pytest.mark.parametrize("omega", [30e-6, 60e-6])
    @pytest.mark.parametrize("z_b", [0.1, 0.08])
    def test_matches_the_closed_form(self, monkeypatch, z_b, omega, path):
        # The mask holds 36001 samples over +-9 omega, and its 1126 object
        # nodes land on every 32nd of them, so no interpolation enters: the
        # only error left is rounding (the Gaussian tails beyond 9 omega and
        # the 10 sigma source span weigh below 1e-17). "centred" puts both
        # detector axes and the object about 0, where the object factor is
        # real and even (its samples symmetrized to the last bit), so the
        # object sum runs one parity block a plane and no turn; "turned"
        # moves rho_a, rho_b and the object off 0, so the rows of Gamma's
        # source side turn by c_a d mu_a and the object sum's rows and
        # columns by c1 m d and c1 m eps / M, over all four blocks.
        sigma = 0.5e-3
        g = make_geometry(z_a=0.1, z_b=z_b, S_o=0.2, F=0.05, lambda0=500e-9)
        source = SourceProfile.gaussian(sigma)
        mu_a, mu_b, center = (0.0, 0.0, 0.0) if path == "centred" else (30e-6, -60e-6, 20e-6)
        c = np.linspace(center - 9 * omega, center + 9 * omega, 36001)
        values = np.exp(-((c - center) ** 2) / (2 * omega**2))
        if path == "centred":
            values = 0.5 * (values + values[::-1])
        mask = ObjectMask.from_samples(c, values)
        axis_a = Axis.from_half_width(64, 200e-6, center=mu_a)
        axis_b = Axis.from_half_width(64, 500e-6, center=mu_b)
        quad = replace(
            QuadratureSpec.auto(g, source, mask, axis_a, axis_b, source_span=10 * sigma),
            n_object=1126,
        )
        rho_o, w_o, _ = object_quadrature(mask, quad.n_object)
        assert np.array_equal(rho_o, c[::32])
        _, _, columns = _spy_planes(monkeypatch)
        grid = gamma_quadrature(g, source, mask, axis_a, axis_b, quad)
        assert set(columns[1]) == {(1 if path == "centred" else 4) * ((axis_b.n + 1) // 2)}
        exact = gaussian_gamma(g, sigma, omega, axis_a.coordinates, axis_b.coordinates, center)

        # The bound is a first-order forward error bound of the double sum
        # G = sum F w_s A w_o exp(i phi) over n_s x n_o terms: every term is
        # off by a few ulps of its largest phase Phi (4 u Phi: the phase is
        # a product of rounded constants and coordinates, split in an angle
        # sum), and a sum of L terms by L u of the sum of their moduli S,
        # with L = n_s + n_o along the two nested sums. So
        # |dG| <= u S (4 Phi + n_s + n_o), and |dGamma| <= (2 |dG| |G| +
        # |dG|^2) K_a K_b of the peak K_a K_b |G|max^2.
        rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
        w = g.omega0_over_c
        big_s, big_o = np.max(np.abs(rho_s)), np.max(np.abs(rho_o))
        big_a, big_b = np.max(np.abs(axis_a.coordinates)), np.max(np.abs(axis_b.coordinates))
        phi = (
            0.5 * w * abs(1.0 / g.z_b - 1.0 / g.z_a) * big_s**2
            + (w / g.z_b) * big_o * (big_s + big_b / g.M)
            + (w / g.z_a) * big_a * big_s
        )
        moduli = np.sum(source.intensity(rho_s) * w_s) * np.sum(np.abs(mask.transmission(rho_o)) * w_o)
        g_max = np.sqrt(exact.max() / (intensity_prefactor_a(g) * intensity_prefactor_b(g)))
        dg = np.finfo(float).eps / 2 * moduli * (4 * phi + rho_s.size + rho_o.size) / g_max
        bound = 2 * dg + dg**2
        error = np.abs(grid.values - exact).max() / exact.max()
        assert error <= bound < 1e-6, (error, bound)


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
    """Raised in place of the first phase-plane stream, after every guard ran."""


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
        # every check_step to its first phase-plane stream.
        def stop(*args):
            raise _GuardsPassed

        monkeypatch.setattr(phase, "phase_planes", stop)
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

    def test_round_valued_setups_pass_their_own_guards(self, monkeypatch):
        # Round values like the demos' make 2 span / limit an exact integer,
        # or an ulp below one, and put the nominal source step on the limit:
        # at guard factor 1, 23 of these 96 setups failed gamma_quadrature's
        # source guard when the sizer took ceil(ratio) + 1 nodes.
        def stop(*args):
            raise _GuardsPassed

        monkeypatch.setattr(phase, "phase_planes", stop)
        source_axis = itertools.product(
            (0.05, 0.08, 0.1, 0.12), (25e-6, 50e-6), (100e-6, 150e-6, 200e-6),
            (100e-6, 200e-6), (0.5e-3, 1e-3),
        )
        for z_b, width, separation, span_a, sigma in source_axis:
            geom = make_geometry(z_a=0.1, z_b=z_b, S_o=0.2, F=0.05, lambda0=500e-9)
            source = SourceProfile.gaussian(sigma)
            mask = ObjectMask.double_slit(separation=separation, slit_width=width)
            axis_a = Axis.from_half_width(64, span_a)
            axis_b = Axis.from_half_width(64, 500e-6)
            for guard_factor in (1.0, 2.0, 4.0):
                quad = QuadratureSpec.auto(geom, source, mask, axis_a, axis_b, guard_factor)
                with pytest.raises(_GuardsPassed):
                    gamma_quadrature(geom, source, mask, axis_a, axis_b, quad)
                with pytest.raises(_GuardsPassed):
                    intensity_b(geom, source, mask, axis_b, quad)
            axis_s, n_object = default_sampling(geom, source, mask, axis_a, axis_b)
            with pytest.raises(_GuardsPassed):
                arm_kernels(geom, mask, axis_s, axis_a, axis_b, n_object)

    def test_a_step_below_float_resolution_is_refused(self):
        # at span_a = 1e10 the source step limit is below 8 ulp of the span,
        # where no float64 node spacing can honour it
        geom = make_geometry(z_a=0.1, z_b=0.1, S_o=0.2, F=0.05, lambda0=500e-9)
        mask = ObjectMask.double_slit(separation=150e-6, slit_width=50e-6)
        axis_a = Axis.from_half_width(64, 1e10)
        axis_b = Axis.from_half_width(64, 500e-6)
        with pytest.raises(UnderResolved, match="below float64 resolution"):
            QuadratureSpec.auto(geom, SourceProfile.gaussian(0.5e-3), mask, axis_a, axis_b)

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

    def test_only_phase_module_plans_plane_blocks(self):
        # The block budget and the plane layout K (2R + 4B + 3) are written
        # in phase.py alone; every stream of planes asks phase.plane_block
        package = Path(cpi_sim.__file__).parent
        layout = re.compile(r"_BLOCK_ENTRIES|isqrt|4 \* block|4B \+ 3")
        owners = {
            path.name
            for path in package.glob("*.py")
            if layout.search(path.read_text(encoding="utf-8"))
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

        monkeypatch.setattr(phase, "phase_planes", stop)
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
            for n_s, n_o in ((32, 4096), (4096, 32)):
                quad = QuadratureSpec(n_source=n_s, n_object=n_o, source_span=S)
                step_s = 2.0 * S / (n_s - 1)
                # every rho_o integral: d/drho_o of (w/z_b) rho_o (rho_s + rho_b/M)
                obj = object_quadrature(mask, n_o)[2] * (S + B / M) / zb
                obj_guard = f"object quadrature (n_object = {n_o})"
                tested = "source" if n_s == 32 else obj_guard
                # Gamma along rho_s: source chirp plus both coupling phases
                gamma_s = step_s * (abs(1.0 / zb - 1.0 / za) * S + O / zb + A / za)
                check(
                    "gamma_quadrature",
                    lambda g: gamma_quadrature(g, source, mask, axis_a, axis_b, quad),
                    geom, {"source": gamma_s, obj_guard: obj}, tested,
                )
                # intensity_b along rho_s: the argument of A~ moves by (w/z_b) rho_o
                check(
                    "intensity_b",
                    lambda g: intensity_b(g, source, mask, axis_b, quad),
                    geom, {"source": step_s * O / zb, obj_guard: obj}, tested,
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
                    f"object quadrature (n_object = {n_o})":
                        object_quadrature(mask, n_o)[2] * (hw + B / M) / zb,
                }
                for tested in products:
                    check(
                        "arm_kernels",
                        lambda g: arm_kernels(g, mask, axis_s, axis_a, axis_b, n_o),
                        geom, products, tested,
                    )

        assert set(binding) == {
            ("gamma_quadrature", "source"),
            ("gamma_quadrature", "object quadrature (n_object = 32)"),
            ("intensity_b", "source"),
            ("intensity_b", "object quadrature (n_object = 32)"),
            ("arm_kernels", "source cell (unresolved-cell rule)"),
            ("arm_kernels", "arm-a kernel source cell"),
            ("arm_kernels", "arm-b kernel source cell"),
            ("arm_kernels", "object quadrature (n_object = 32)"),
        }
        assert min(binding.values()) >= 10, binding


class TestObjectTransferGuard:
    def test_a_direct_call_is_guarded(self, geom_focused, source, slits, axis_b):
        # object_transfer builds its own rho_o nodes, so it checks their
        # step itself: 16 nodes over two 50 um slits step 6.25 um, past the
        # ~3.1 um limit at |rho_s| = 2.5 mm and |rho_b| = 500 um
        rho_s = source_quadrature(source, 64)[0]
        rho_b = axis_b.coordinates
        with pytest.raises(UnderResolved, match=r"^object quadrature \(n_object = 16\) step "):
            correlator.object_transfer(geom_focused, slits, 16, rho_s, rho_b)
        t = correlator.object_transfer(geom_focused, slits, 64, rho_s, rho_b)
        assert t.shape == (rho_s.size, rho_b.size)

    @pytest.mark.parametrize("n_object", [0, -5])
    def test_too_few_object_nodes_are_refused(self, geom_focused, source, slits, axis_b, n_object):
        # the count used to pass unchecked: 0 crashed the assembly of T and
        # -5 returned its unassembled half products
        rho_s = source_quadrature(source, 64)[0]
        message = rf"^n_object: need at least 16 object nodes, got {n_object}$"
        with pytest.raises(ValueError, match=message):
            correlator.object_transfer(geom_focused, slits, n_object, rho_s, axis_b.coordinates)
        axis_a = Axis.from_half_width(8, 150e-6)
        axis_s, _ = default_sampling(geom_focused, source, slits, axis_a, axis_b)
        with pytest.raises(ValueError, match=message):
            arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)

    def test_uneven_source_nodes_are_refused(self, geom_focused, slits, axis_b):
        # the mirror rows come from the odd part of rho_s - c, which equals
        # rho_s - c only on an evenly spaced axis
        rho_s = np.array([0.0, 1.0, 3.0]) * 1e-6
        with pytest.raises(ValueError, match="evenly spaced rho_s"):
            correlator.object_transfer(geom_focused, slits, 64, rho_s, axis_b.coordinates)


def _spy_planes(monkeypatch):
    """Record the (rows, columns) of every block ``phase.phase_planes``
    yields, one list per stream; the float columns of the right-hand
    factor of every ``np.matmul``, one list per stream, the one streaming
    at the time; and the entries of every complex phase matrix, keyed by
    its coupling constant."""
    streams, complex_built, columns = [], {}, []
    planes, matrix, matmul = phase.phase_planes, phase.phase_matrix, np.matmul

    def planes_spy(c, x, y, *args):
        streams.append([])
        columns.append([])
        for ys, xs, block in planes(c, x, y, *args):
            streams[-1].append(block.shape[1:])
            yield ys, xs, block

    def matrix_spy(c, x, y):
        complex_built.setdefault(c, []).append(len(x) * len(y))
        return matrix(c, x, y)

    def matmul_spy(a, b, *args, **kwargs):
        if columns:
            columns[-1].append(b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(phase, "phase_planes", planes_spy)
    monkeypatch.setattr(phase, "phase_matrix", matrix_spy)
    monkeypatch.setattr(np, "matmul", matmul_spy)
    return streams, complex_built, columns


class TestObjectTransferDirectSum:
    """object_transfer equals sum_o A(rho_o) w_o exp(-i c1 rho_o (rho_s + rho_b/M))."""

    @staticmethod
    def _direct(geom, mask, n_object, rho_s, rho_b):
        rho_o, w_o, _ = object_quadrature(mask, n_object)
        c1 = geom.omega0_over_c / geom.z_b
        arg = rho_s[:, None, None] + rho_b[None, :, None] / geom.M
        return np.exp(-1j * c1 * arg * rho_o) @ (mask.transmission(rho_o) * w_o)

    @pytest.mark.parametrize(
        "axis_s",
        [
            Axis(n=33, center=0.0, step=17e-6),
            Axis(n=34, center=0.0, step=17e-6),
            Axis(n=2, center=0.5e-6, step=1e-6),
            Axis(n=41, center=0.5e-6, step=13e-6),
        ],
        ids=["odd", "even", "two-cell-off-centre", "odd-off-centre"],
    )
    def test_matches_the_direct_sum(self, monkeypatch, geom_focused, axis_s):
        mask = _complex_mask()
        rho_s = axis_s.coordinates
        rho_b = Axis.from_half_width(12, 200e-6, center=-30e-6).coordinates
        n_object = 128
        n_o = object_quadrature(mask, n_object)[0].size
        streams, complex_built, _ = _spy_planes(monkeypatch)
        t = correlator.object_transfer(geom_focused, mask, n_object, rho_s, rho_b)
        # phase entries for the ceil(n_b/2) pixels eps >= 0 and the
        # ceil(n/2) nodes of the non-negative source half, each by the
        # ceil(n_o/2) mirror pairs of object nodes only, all as cos/sin
        # planes: no complex matrix
        tables, blocks = streams
        pairs = (n_o + 1) // 2
        assert sum(rows * cols for rows, cols in tables) == pairs * ((rho_b.size + 1) // 2)
        assert sum(rows * cols for rows, cols in blocks) == pairs * ((rho_s.size + 1) // 2)
        assert complex_built == {}

        direct = self._direct(geom_focused, mask, n_object, rho_s, rho_b)
        peak = np.abs(direct).max()
        assert np.abs(t - direct).max() <= 1e-12 * peak

    def test_a_small_block_near_zero_is_checked_at_the_axis_scale(
        self, monkeypatch, geom_focused
    ):
        # linspace nodes near 0 carry rounding at the scale of the axis end
        # (1e-19 m here), while the first blocks of 90 of the 2001 half
        # nodes, anchored every 45, reach only 44.5-89.5 um. Checked block
        # by block at the scale of each block's own max|d| (8 ulps of
        # 44.5 um, 5.4e-20 m), a node was refused as uneven; checked once
        # at max|rho_s|, the half passes.
        mask = _complex_mask()
        rho_s = np.linspace(-1e-3, 1e-3, 4001)
        rho_b = Axis.from_half_width(12, 200e-6, center=-30e-6).coordinates
        n_object = 128
        pairs = (object_quadrature(mask, n_object)[0].size + 1) // 2
        # the budget of 90 rows: 6 K + 8 ceil(n_b / 2) entries a row (the
        # four part-product blocks of the complex mask), three anchor
        # entries a column, for the K = 64 mirror pairs of object nodes
        monkeypatch.setattr(phase, "_BLOCK_ENTRIES", 90 * (6 * pairs + 4 * rho_b.size) + 3 * pairs)
        assert phase.plane_block(2001, pairs, 4 * rho_b.size, 0)[:3] == (90, pairs, 45)
        streams, _, _ = _spy_planes(monkeypatch)
        t = correlator.object_transfer(geom_focused, mask, n_object, rho_s, rho_b)
        assert streams == [[(6, pairs)], [(90, pairs)] * 22 + [(21, pairs)]]

        direct = self._direct(geom_focused, mask, n_object, rho_s, rho_b)
        assert np.abs(t - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("n", [33, 34])
    def test_chunks_of_object_nodes_add_up(self, monkeypatch, geom_focused, n):
        # a budget of 50 x 50 entries splits the 64 mirror pairs of the 128
        # object nodes into chunks of 50 and 14 columns, in the column
        # tables' stream (the 6 pixels eps >= 0 of rho_b) and in the object
        # sum's; each chunk adds its share to every row, and the d = 0 row
        # of the odd axis, its own mirror, is counted once
        mask = _complex_mask()
        rho_s = Axis(n=n, center=0.5e-6, step=13e-6).coordinates
        rho_b = Axis.from_half_width(12, 200e-6, center=-30e-6).coordinates
        n_object = 128
        assert object_quadrature(mask, n_object)[0].size == 128
        monkeypatch.setattr(phase, "_BLOCK_ENTRIES", 50 * 50)
        rows, cols, block, entries = phase.plane_block(17, 64, 4 * 12, 0)
        assert (rows, cols, block) == (5, 50, 5) and entries <= 50 * 50
        streams, _, _ = _spy_planes(monkeypatch)
        t = correlator.object_transfer(geom_focused, mask, n_object, rho_s, rho_b)
        assert streams == [[(6, 50), (6, 14)], [(r, k) for k in (50, 14) for r in (5, 5, 5, 2)]]

        direct = self._direct(geom_focused, mask, n_object, rho_s, rho_b)
        assert np.abs(t - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("budget", [None, 50 * 50], ids=["one-chunk", "chunked"])
    @pytest.mark.parametrize(
        "axes", ["off-centre", "centred-12", "centred-13"]
    )
    @pytest.mark.parametrize("n", [33, 34])
    @pytest.mark.parametrize(
        "mask_name, n_object",
        [
            ("complex", 127), ("complex", 128), ("double-slit", 128), ("single-slit", 127),
            ("real", 128), ("odd", 127), ("odd", 128),
        ],
    )
    def test_mirror_pairs_match_the_direct_sum(
        self, monkeypatch, geom_focused, mask_name, n_object, n, axes, budget
    ):
        # the object nodes are rho_o = m + e, summed over the 64 mirror
        # pairs (e, -e): the complex and real masks are off-centre (m != 0),
        # so every row is turned by c1 m d and every column by c1 m eps / M,
        # and the slits and the odd mask are centred (m = 0); an odd node
        # count has an e = 0 node, its own mirror, counted once. A budget of
        # 50 x 50 entries streams the 64 pairs in chunks of 50 and 14. The
        # pixels pair about the centre of rho_b too, eps with -eps, and an
        # odd n_b has an eps = 0 pixel, its own mirror. On centred rho_s and
        # rho_b the object factor is real, so every object-stream matmul
        # spans only the nonzero parity blocks of ceil(n_b / 2) columns
        mask = {
            "complex": _complex_mask(),
            "real": _real_mask(),
            "odd": _odd_mask(n_object),
            "double-slit": ObjectMask.double_slit(separation=150e-6, slit_width=50e-6),
            "single-slit": ObjectMask.single_slit(120e-6),
        }[mask_name]
        rho_o = object_quadrature(mask, n_object)[0]
        assert rho_o.size == n_object
        assert (rho_o[0] + rho_o[-1] == 0.0) == (mask_name not in ("complex", "real"))
        if axes == "off-centre":
            rho_s = Axis(n=n, center=0.5e-6, step=13e-6).coordinates
            rho_b = Axis.from_half_width(12, 200e-6, center=-30e-6).coordinates
        else:
            rho_s = Axis(n=n, center=0.0, step=13e-6).coordinates
            rho_b = Axis.from_half_width(int(axes[-2:]), 200e-6).coordinates
        if budget:
            monkeypatch.setattr(phase, "_BLOCK_ENTRIES", budget)
        streams, _, columns = _spy_planes(monkeypatch)
        t = correlator.object_transfer(geom_focused, mask, n_object, rho_s, rho_b)
        _, blocks = streams
        assert sorted({cols for _, cols in blocks}) == ([14, 50] if budget else [64])
        k = (rho_b.size + 1) // 2
        name = {"double-slit": "slits", "single-slit": "slits"}.get(mask_name, mask_name)
        parity = _MOVED_BLOCKS if axes == "off-centre" else _CENTRED_BLOCKS
        assert set(columns[1]) == {parity[name] * k}

        direct = self._direct(geom_focused, mask, n_object, rho_s, rho_b)
        assert np.abs(t - direct).max() <= 1e-12 * np.abs(direct).max()


class TestObjectNodeSymmetry:
    """The object sum pairs each node m + e with m - e, so every built-in
    mask's object_quadrature nodes must be mirror-symmetric about their
    midpoint m."""

    def test_built_in_masks_have_mirror_symmetric_nodes(self):
        rng = np.random.default_rng(20261019)
        masks = []
        for _ in range(300):
            width = rng.uniform(1e-6, 2e-3)
            masks.append(ObjectMask.single_slit(width))
            masks.append(
                ObjectMask.double_slit(separation=width * rng.uniform(1.01, 20.0), slit_width=width)
            )
        for _ in range(100):  # off-centre sampled masks: one linspace over the samples' span
            lo = rng.uniform(-3e-3, 3e-3)
            c = np.linspace(lo, lo + rng.uniform(1e-6, 3e-3), int(rng.integers(2, 400)))
            masks.append(ObjectMask.from_samples(c, np.full(c.size, 0.5)))
        worst = 0.0
        for mask in masks:
            for n_object in rng.integers(16, 3000, size=3):
                rho_o = object_quadrature(mask, int(n_object))[0]
                m = 0.5 * (rho_o[0] + rho_o[-1])
                d = rho_o - m
                drift = np.abs(0.5 * (d + d[::-1])) / np.spacing(np.max(np.abs(rho_o)))
                worst = max(worst, float(drift.max()))
                correlator._mirror_split(rho_o, "built-in nodes")  # the rule the object sum applies
        assert worst <= phase._EVEN_ULPS

    def test_asymmetric_nodes_are_refused_before_any_plane(
        self, monkeypatch, geom_focused, source, slits, axis_a, axis_b
    ):
        # one node moved by 1 nm: no longer the mirror image of node 56
        nodes = np.linspace(-100e-6, 100e-6, 64)
        nodes[7] += 1e-9
        weights = np.full(64, nodes[1] - nodes[0])
        monkeypatch.setattr(
            correlator, "object_quadrature", lambda mask, n: (nodes, weights, 1e-9)
        )
        streams, complex_built, _ = _spy_planes(monkeypatch)
        message = (
            r"^the object sum needs object nodes mirror-symmetric about their midpoint; "
            r"node 7 is 5\.000e-10 m off the mirror image of its partner"
        )
        rho_s = source_quadrature(source, 64)[0]
        with pytest.raises(ValueError, match=message):
            correlator.object_transfer(geom_focused, slits, 64, rho_s, axis_b.coordinates)
        quad = QuadratureSpec.auto(geom_focused, source, slits, axis_a, axis_b)
        with pytest.raises(ValueError, match=message):
            gamma_quadrature(geom_focused, source, slits, axis_a, axis_b, quad)
        with pytest.raises(ValueError, match=message):
            intensity_b(geom_focused, source, slits, axis_b, quad)
        assert streams == [] and complex_built == {}


class TestObjectTransferBlocks:
    """object_transfer in several blocks of its source half equals its
    one-block result."""

    @staticmethod
    def _blocked(monkeypatch, n_o, n_b, n_s, call, n_a=None):
        # the default budget holds the whole half in one block; then at
        # least four full blocks of the non-negative rho_s half, each a
        # multiple of the anchor spacing ceil(sqrt(half)), and a ragged one;
        # the half holds ceil(n_s / 2) nodes. The object sum first streams
        # its column tables (the ceil(n_b / 2) pixels eps_b >= 0 by the
        # ceil(n_o / 2) mirror pairs of object nodes), then the half over
        # those pairs; gamma_quadrature (n_a given) then streams the half a
        # second time, its source side over the ceil(n_a / 2) pixels
        # eps_a >= 0 of detector a, in the blocks phase.plane_block sizes
        half, pairs = (n_s + 1) // 2, (n_o + 1) // 2
        k_a = (n_a + 1) // 2 if n_a else None
        block = phase.anchor_block(half)
        chunk = block * ((half - 1) // (4 * block))
        with monkeypatch.context() as m:
            streams, _, columns = _spy_planes(m)
            one = call()
            assert streams == [[((n_b + 1) // 2, pairs)], [(half, pairs)]] + (
                [[(half, k_a)]] if n_a else []
            )
            n_cols = columns[1][0]  # the float columns of the object sum's part products
            streams.clear()
            columns.clear()
            # the budget of chunk rows: 6 K + 2 n_cols entries a row (the
            # slits are centred, so no row is turned), three anchor entries
            # a column, for K = ceil(n_o / 2) columns
            m.setattr(phase, "_BLOCK_ENTRIES", chunk * (6 * pairs + 2 * n_cols) + 3 * pairs)
            blocked = call()
            if n_a:
                rows = phase.plane_block(half, k_a, 0, 4 * n_b)[0]
                assert streams[2] == [(min(rows, half - lo), k_a) for lo in range(0, half, rows)]
        sizes = [rows for rows, _ in streams[1]]
        assert len(sizes) >= 5 and sum(sizes) == half
        assert sizes[:-1] == [chunk] * (len(sizes) - 1) and 0 < sizes[-1] < chunk
        assert len(streams) == (3 if n_a else 2)
        return one, blocked

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
        gamma, blocked = self._blocked(
            monkeypatch, n_o, axis_b.n, quad.n_source,
            lambda: gamma_quadrature(g, source, slits, axis_a, axis_b, quad), axis_a.n,
        )
        self._assert_close(blocked.values, gamma.values)
        i_b, blocked = self._blocked(
            monkeypatch, n_o, axis_b.n, quad.n_source,
            lambda: intensity_b(g, source, slits, axis_b, quad),
        )
        self._assert_close(blocked.values, i_b.values)

    @pytest.mark.parametrize("geom_name", ["geom_focused", "geom_defocused"])
    def test_arm_kernels(self, request, monkeypatch, geom_name, source, slits):
        g = request.getfixturevalue(geom_name)
        axis_a = Axis.from_half_width(12, 150e-6, center=30e-6)
        axis_b = Axis.from_half_width(10, 400e-6, center=-60e-6)
        axis_s, n_object = default_sampling(g, source, slits, axis_a, axis_b)
        n_o = object_quadrature(slits, n_object)[0].size
        (k_a, k_b), (blocked_a, blocked_b) = self._blocked(
            monkeypatch, n_o, axis_b.n, axis_s.n,
            lambda: arm_kernels(g, slits, axis_s, axis_a, axis_b, n_object),
        )
        self._assert_close(blocked_a, k_a)
        self._assert_close(blocked_b, k_b)


class TestObjectTransferMemory:
    def test_gamma_block_fits_its_budget_on_wide_grids(self):
        # the products take 4 K n_b entries whatever the rows, so K is held
        # to 2**20 // (8 n_b): at n_a = n_b = 512 that is 256 columns, whose
        # products (524288 entries) leave (2**20 - 256 x 2051) // (6 x 256)
        # = 340 rows, rounded down to 329, a multiple of ceil(sqrt(2190))
        # = 47; a K of all 512 columns would leave none
        rows, cols, block, entries = phase.plane_block(2190, 512, 0, 4 * 512)
        assert (rows, cols, block) == (329, 256, 47)
        assert entries == 256 * (2 * 329 + 4 * 47 + 3 + 4 * 512) <= phase._BLOCK_ENTRIES
        for n_a, n_b in itertools.product((2, 160, 512, 1024, 4096), (2, 64, 512, 1024, 4096)):
            rows, cols, block, entries = phase.plane_block(2190, n_a, 0, 4 * n_b)
            assert rows >= block == 47 and entries <= phase._BLOCK_ENTRIES

    def test_arm_kernels_peak_is_within_the_working_set_estimate(
        self, monkeypatch, geom_defocused, source, slits
    ):
        # check_working_set counts T once, as the buffer of the half
        # products in which object_transfer builds it, beside the object
        # sum's column tables, the grid and one block; the Monte Carlo
        # caller adds K_a (16 n_s n_a bytes).
        # With n_b = 512 well above n_a = 8 the peak stays below the
        # estimate, which is less than two arrays of T's size (16 x 1626 x
        # 512 bytes each)
        axis_a = Axis.from_half_width(8, 200e-6)
        axis_b = Axis.from_half_width(512, 500e-6)
        axis_s, n_object = default_sampling(geom_defocused, source, slits, axis_a, axis_b)
        assert (axis_s.n, n_object) == (1626, 81)
        needs = []
        monkeypatch.setattr(correlator, "check_bytes", lambda what, need, counts: needs.append(need))
        k_a = 16 * axis_s.n * axis_a.n
        correlator.check_working_set("arm kernels", axis_s.n, n_object, axis_a.n, axis_b.n, k_a)
        (need,) = needs
        assert need < 2 * 16 * axis_s.n * axis_b.n
        tracemalloc.start()
        try:
            arm_kernels(geom_defocused, slits, axis_s, axis_a, axis_b, n_object)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need

    @pytest.mark.parametrize("demo", ["refocus", "montecarlo"])
    def test_quadrature_peaks_are_within_the_working_set_estimate(self, monkeypatch, demo):
        # the quadrature estimate counts no arm kernel: gamma_quadrature and
        # intensity_b hold the half products, the object sum's column
        # tables, the grid and one block
        exp = cpi_sim.parse_config(cpi_sim.DEMOS[demo]).resolve()
        needs = []
        monkeypatch.setattr(correlator, "check_bytes", lambda what, need, counts: needs.append(need))
        correlator.check_working_set(
            "quadrature", exp.quad.n_source, exp.quad.n_object, exp.axis_a.n, exp.axis_b.n
        )
        (need,) = needs
        for call in (
            lambda: gamma_quadrature(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad),
            lambda: intensity_b(exp.geom, exp.source, exp.mask, exp.axis_b, exp.quad),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < need

    def test_gamma_quadrature_peak_on_the_refocus_demo(self):
        # gamma_quadrature holds the half products CW and SW (2 x 2190 x 64
        # complex, 4.3 MiB), one phase_planes block of at most _BLOCK_ENTRIES
        # float64 entries (8 MiB), the object sum's column tables (2 planes
        # x 458 mirror pairs x at most 4 x 32 floats), the grid (complex G,
        # then |G| and Gamma) and a few vectors over the source nodes
        exp = cpi_sim.parse_config(cpi_sim.DEMOS["refocus"]).resolve()
        assert (exp.quad.n_source, exp.quad.n_object) == (4379, 916)
        n_half, n_o, n_a, n_b = 2190, 916, exp.axis_a.n, exp.axis_b.n
        assert (n_a, n_b) == (160, 64)
        bound = (
            16 * 2 * n_half * n_b
            + 8 * phase._BLOCK_ENTRIES
            + 8 * 2 * (n_o // 2) * 4 * (n_b // 2)
            + (16 + 2 * 8) * n_a * n_b
            + 8 * 8 * exp.quad.n_source
        )
        tracemalloc.start()
        try:
            gamma_quadrature(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound < 15 * 2**20
        # 8.78 MiB before the object sum paired mirrored nodes, 8.43 MiB
        # before it paired detector pixels (8.15 MiB since)
        assert peak <= 8.8 * 2**20
