import ast
import inspect
import itertools
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cpi_sim
from cpi_sim import correlator, montecarlo
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
from oracles import (
    coherent_psf,
    full_kernels,
    gamma_rounding_bound,
    gaussian_gamma,
    incoherent_psf,
    normalized_l2,
    unpair_pixels,
)


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


def _complex_mask(lo=-140e-6, hi=90e-6):
    # complex and off-centre, so T has no symmetry in rho_o or rho_b
    c = np.linspace(lo, hi, 461)
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
        ]
        + [
            pytest.param("geom_defocused", "moved", "complex", id="geom_defocused-moved-complex"),
            pytest.param("geom_focused", "cancelled", "complex", id="geom_focused-cancelled-complex"),
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
        # and the object sum leaves its zero parity blocks out. The object
        # sum turns its rows by (c1 m - c_a mu_a) d, for the midpoints m of
        # the object nodes and mu_a of rho_a, and leaves out the column
        # phase exp(-i c1 m eps / M), one unit factor per rho_b, which
        # drops out of |G|^2: "moved" turns its rows with m != 0 (an
        # off-centre mask on moved axes), and in "cancelled" z_a = z_b and
        # mu_a = m, so the two row rates cancel exactly and no row turns,
        # while m != 0 leaves a column phase out)
        g = request.getfixturevalue(geom_name)
        mask = {"slits": slits, "odd": _odd_mask(16), "real": _real_mask(), "complex": _complex_mask()}[
            mask_name
        ]
        if variant.startswith("centred"):
            n_a, n_b = (7, 9) if variant == "centred-odd" else (8, 10)
            axis_a = Axis.from_half_width(n_a, 150e-6)
            axis_b = Axis.from_half_width(n_b, 400e-6)
        elif variant == "moved":  # small grids: the direct sum is slow
            axis_a = Axis.from_half_width(5, 150e-6, center=20e-6)
            axis_b = Axis.from_half_width(6, 400e-6, center=-60e-6)
        elif variant == "cancelled":
            # dyadic nodes, so both midpoints are exactly -2^-15 m: the
            # object support [-5, 3] 2^-15 m and rho_a = (-1 + 2 k) 2^-15 m
            mask = _complex_mask(-5 * 2.0**-15, 3 * 2.0**-15)
            axis_a = Axis.from_half_width(5, 2.0**-13, center=-(2.0**-15))
            axis_b = Axis.from_half_width(6, 400e-6, center=-60e-6)
        else:
            axis_a = Axis.from_half_width(7, 150e-6, center=20e-6)
            axis_b = Axis.from_half_width(9, 400e-6, center=-60e-6)
        if variant == "tophat":
            source = SourceProfile.tophat(1.5e-3)
        quad = QuadratureSpec.auto(g, source, mask, axis_a, axis_b)
        if mask_name == "odd":  # the nodes on the samples
            mask = _odd_mask(quad.n_object)
        if variant in ("odd", "even"):
            quad = replace(quad, n_source=quad.n_source + (quad.n_source % 2 != (variant == "odd")))
            assert quad.n_source % 2 == (variant == "odd")
        streams, columns = _spy_planes(monkeypatch)
        if variant == "chunked":
            monkeypatch.setattr(phase, "_BLOCK_ENTRIES", 40 * 40)
        grid = gamma_quadrature(g, source, mask, axis_a, axis_b, quad)
        # the column tables, the object sum and Gamma's source side each
        # stream cos/sin planes
        w = g.omega0_over_c
        rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
        rho_o, w_o, _ = object_quadrature(mask, quad.n_object)
        if variant in ("moved", "cancelled"):  # the midpoints the object sum splits off
            m = 0.5 * (rho_o[0] + rho_o[-1])
            mu_a = 0.5 * (axis_a.coordinates[0] + axis_a.coordinates[-1])
            assert m != 0.0
            if variant == "cancelled":
                assert g.z_a == g.z_b and mu_a == m
            else:
                assert (w / g.z_b) * m != (w / g.z_a) * mu_a
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

    def test_asymmetric_source_nodes_are_refused_before_any_plane(
        self, monkeypatch, geom_defocused, source, slits, axis_a, axis_b
    ):
        # centred ends, but node 7 moved by 1 nm is no longer the mirror
        # image of node n - 8 (both drift by 0.5 nm from the odd part, and
        # the lower of the pair is named): the source half refuses the
        # nodes before the object sum streams any plane
        quad = QuadratureSpec.auto(geom_defocused, source, slits, axis_a, axis_b)
        nodes, weights = source_quadrature(source, quad.n_source, quad.source_span)
        nodes[7] += 1e-9
        assert nodes[0] + nodes[-1] == 0.0
        monkeypatch.setattr(correlator, "source_quadrature", lambda *args: (nodes, weights))
        streams, _ = _spy_planes(monkeypatch)
        message = (
            r"^the source sum needs source nodes mirror-symmetric about rho_s = 0; "
            r"node 7 is 5\.000e-10 m off the mirror image of its partner"
        )
        with pytest.raises(ValueError, match=message):
            gamma_quadrature(geom_defocused, source, slits, axis_a, axis_b, quad)
        with pytest.raises(ValueError, match=message):
            intensity_b(geom_defocused, source, slits, axis_b, quad)
        assert streams == []

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
        # source side turn by c_a d mu_a and the object sum's rows by
        # c1 m d, over all four blocks, and the object sum leaves out the
        # column phase exp(-i c1 m eps / M), which drops out of |G|^2.
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
        assert np.array_equal(object_quadrature(mask, quad.n_object)[0], c[::32])
        _, columns = _spy_planes(monkeypatch)
        grid = gamma_quadrature(g, source, mask, axis_a, axis_b, quad)
        assert set(columns[1]) == {(1 if path == "centred" else 4) * ((axis_b.n + 1) // 2)}
        exact = gaussian_gamma(g, sigma, omega, axis_a.coordinates, axis_b.coordinates, center)
        bound = gamma_rounding_bound(g, source, mask, axis_a, axis_b, quad, exact.max())
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
        # correlator._half_products is the one object sum, which Gamma, I_b
        # and the arm-b kernel share (no full object transfer T is built),
        # and correlator.arm_b_prefactor holds the arm-b prefactor formula
        package = Path(cpi_sim.__file__).parent
        assert not hasattr(correlator, "object_transfer")
        calls = [
            path.name
            for path in package.glob("*.py")
            for _ in re.finditer(r"\b_half_products\(", path.read_text(encoding="utf-8"))
        ]
        assert calls == ["correlator.py"] * 4  # its definition and three callers
        prefactor = re.compile(r"fresnel_prefactor\([^()]*S_i\)")
        hits = [
            path.name
            for path in package.glob("*.py")
            for _ in prefactor.finditer(path.read_text(encoding="utf-8"))
        ]
        assert hits == ["correlator.py"]

    def test_one_parity_layout(self):
        # the object sum writes its half products in the parity layout of
        # ParityKernel alone, with no flag for pixel values, and every sum
        # adds one term at a time: the E +- O of pixel values is _unpair's
        assert "parity" not in inspect.signature(correlator._half_products).parameters
        assert not hasattr(correlator, "_fold")

    def test_one_monte_carlo_path(self):
        # blocks propagate in the caller's thread: no pool, no thread count
        # in the config, the runner or the working-set estimate, and no
        # caller in the package passes estimate_gamma's unused keyword
        with pytest.raises(cpi_sim.ValidationError, match="run.threads: unknown key"):
            cpi_sim.parse_config(cpi_sim.DEMOS["montecarlo"] + "run.threads = 2\n")
        assert not hasattr(montecarlo, "ThreadPoolExecutor")
        assert "ThreadPoolExecutor" not in inspect.getsource(montecarlo)
        for f in (montecarlo._batch_covariances, montecarlo.SpeckleRun.sampling_bytes):
            assert "threads" not in inspect.signature(f).parameters, f.__name__
        assert "threads" not in inspect.signature(cpi_sim.run_experiment).parameters
        calls = [
            path.name
            for path in Path(cpi_sim.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "estimate_gamma"
            and any(k.arg == "threads" for k in node.keywords)
        ]
        assert calls == []

    def test_one_propagator_module(self):
        # correlator.py builds both arm propagators; the Monte Carlo only
        # samples cells and reduces statistics, and no kernel is a per-entry
        # exponential of a 2D coordinate difference; one anchoring has one
        # output, the cos/sin planes, so no complex phase matrix is built
        package = Path(cpi_sim.__file__).parent
        assert not hasattr(phase, "phase_matrix")
        montecarlo = (package / "montecarlo.py").read_text(encoding="utf-8")
        optics = (
            "phase_planes", "fresnel_prefactor", "gaussian_phase", "_half_products",
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
        # the object sum builds its own rho_o nodes, so it checks their
        # step itself: 16 nodes over two 50 um slits step 6.25 um, past the
        # ~3.1 um limit at |rho_s| = 2.5 mm and |rho_b| = 500 um
        half = correlator._source_half(source_quadrature(source, 64)[0])
        rho_b = axis_b.coordinates
        with pytest.raises(UnderResolved, match=r"^object quadrature \(n_object = 16\) step "):
            correlator._half_products(geom_focused, slits, 16, half, rho_b)
        cs = correlator._half_products(geom_focused, slits, 64, half, rho_b)
        assert cs.shape == (2, half.size, rho_b.size) and half.size == 32

    @pytest.mark.parametrize("n_object", [0, -5])
    def test_too_few_object_nodes_are_refused(self, geom_focused, source, slits, axis_b, n_object):
        # the count used to pass unchecked: 0 crashed the assembly of the
        # full object transfer and -5 returned its unassembled half products
        half = correlator._source_half(source_quadrature(source, 64)[0])
        message = rf"^n_object: need at least 16 object nodes, got {n_object}$"
        with pytest.raises(ValueError, match=message):
            correlator._half_products(geom_focused, slits, n_object, half, axis_b.coordinates)
        axis_a = Axis.from_half_width(8, 150e-6)
        axis_s, _ = default_sampling(geom_focused, source, slits, axis_a, axis_b)
        with pytest.raises(ValueError, match=message):
            arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)

    def test_uneven_source_nodes_are_refused(self):
        # the source half is the odd part of rho_s, which equals rho_s only
        # on nodes mirror-symmetric about 0; these have centred ends, but
        # 1 um has no mirror at -1 um
        rho_s = np.array([-3.0, 0.0, 1.0, 3.0]) * 1e-6
        message = (
            r"^the source sum needs source nodes mirror-symmetric about rho_s = 0; "
            r"node 1 is 5\.000e-07 m off the mirror image of its partner"
        )
        with pytest.raises(ValueError, match=message):
            correlator._source_half(rho_s)

    def test_a_centred_axis_is_its_own_source_half(self):
        # the Monte Carlo pairs the cells of a centred Axis by index, cell
        # n // 2 + j with n // 2 - j (n - 1 - j from the end), and reads the
        # amplitude at the source half: both rest on the half being the
        # upper coordinates bit for bit
        for step in (1e-6, 13e-6, 17e-6, 2.5e-4 / 63, 0.1):
            for n in range(2, 66):
                rho_s = Axis(n, 0.0, step).coordinates
                half = correlator._source_half(rho_s)
                assert half.tobytes() == rho_s[n // 2 :].tobytes(), (n, step)


def _moveaxis_mirror_halves(x, axis):
    """``correlator._mirror_halves`` through ``np.moveaxis``: the views of
    ``x`` with ``axis`` moved to the front, sliced there, and moved back."""
    x = np.moveaxis(x, axis, 0)
    n = x.shape[0]
    return np.moveaxis(x[n // 2 :], 0, axis), np.moveaxis(x[::-1][n - n // 2 :], 0, axis)


def _moveaxis_unpair(x, axis):
    """``correlator._unpair`` on the ``np.moveaxis`` views."""
    plus, minus = _moveaxis_mirror_halves(np.moveaxis(x, axis, 0), 0)
    even, odd = plus[x.shape[axis] % 2 :], minus.copy()
    np.subtract(even, odd, out=minus)
    even += odd
    return x


class TestMirrorViews:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_mirror_halves_are_the_moveaxis_views(self, ndim, n):
        # basic slices of x on every axis, negative ones included: the
        # shapes and values of the moveaxis form, and writable views of x
        # (the mirror half of n = 1 is empty)
        rng = np.random.default_rng(10 * ndim + n)
        for axis in range(-ndim, ndim):
            shape = [3, 4, 5][:ndim]
            shape[axis] = n
            x = rng.standard_normal(shape)
            for got, want in zip(correlator._mirror_halves(x, axis), _moveaxis_mirror_halves(x, axis)):
                assert got.shape == want.shape, (axis, n)
                np.testing.assert_array_equal(got, want)
                assert got.base is x and got.flags.writeable
                assert np.shares_memory(got, x) == (got.size > 0)
            y = x.copy()
            for view, twin, value in zip(
                correlator._mirror_halves(x, axis), _moveaxis_mirror_halves(y, axis), (7.0, -3.0)
            ):
                view[...] = value
                twin[...] = value
                np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_unpair_is_the_moveaxis_form_in_place(self, ndim, n):
        rng = np.random.default_rng(100 + 10 * ndim + n)
        for axis in range(-ndim, ndim):
            shape = [3, 4, 5][:ndim]
            shape[axis] = n
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            want = _moveaxis_unpair(x.copy(), axis)
            assert correlator._unpair(x, axis) is x
            assert x.tobytes() == want.tobytes(), (axis, n)


class TestUnpair:
    @pytest.mark.parametrize("axis", [-3, -1, 0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_matches_the_oracle_in_place(self, n, axis):
        # the parity layout along ``axis``: the even parts on the last
        # ceil(n / 2) entries, the pixels mu + eps, and the odd parts on the
        # first floor(n / 2), the columns of their mirrors
        rng = np.random.default_rng(n + 10 * (axis % 3))
        shape = [3, 4, 5]
        shape[axis] = n
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        last = np.moveaxis(x, axis, -1)
        expected = np.moveaxis(unpair_pixels(last[..., n // 2 :], last[..., : n // 2], n), -1, axis)
        assert correlator._unpair(x, axis) is x
        np.testing.assert_array_equal(x, expected)


def _spy_planes(monkeypatch):
    """Record the (rows, columns) of every block ``phase.phase_planes``
    yields, one list per stream, and the float columns of the right-hand
    factor of every ``np.matmul``, one list per stream, the one streaming
    at the time."""
    streams, columns = [], []
    planes, matmul = phase.phase_planes, np.matmul

    def planes_spy(c, x, y, *args):
        streams.append([])
        columns.append([])
        for ys, xs, block in planes(c, x, y, *args):
            streams[-1].append(block.shape[1:])
            yield ys, xs, block

    def matmul_spy(a, b, *args, **kwargs):
        if columns:
            columns[-1].append(b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(phase, "phase_planes", planes_spy)
    monkeypatch.setattr(np, "matmul", matmul_spy)
    return streams, columns


def _transfer(geom, mask, n_object, rho_s, rho_b):
    """The object transfer T[s, b] on every node of the centred ``rho_s``,
    assembled here from the half products of ``correlator._half_products``
    on its source half d >= 0, unpaired into pixel values along rho_b
    (``correlator._unpair``): T(+-d) = CW -+ i SW, with the column phase
    exp(-i c1 m eps / M) that they leave out put back for the midpoints m
    of the object nodes and mu_b of rho_b = mu_b + eps."""
    cs = correlator._half_products(geom, mask, n_object, correlator._source_half(rho_s), rho_b)
    cw, sw = correlator._unpair(cs, axis=2)
    t = np.concatenate([(cw + 1j * sw)[::-1], cw - 1j * sw])
    if rho_s.size % 2:  # the d = 0 row is its own mirror
        t = np.delete(t, cw.shape[0], axis=0)
    rho_o = object_quadrature(mask, n_object)[0]
    m, mu_b = 0.5 * (rho_o[0] + rho_o[-1]), 0.5 * (rho_b[0] + rho_b[-1])
    return t * np.exp((-1j * geom.omega0_over_c / geom.z_b * m / geom.M) * (rho_b - mu_b))


class TestObjectTransferDirectSum:
    """The half products of ``correlator._half_products``, assembled into
    T (``_transfer``), equal sum_o A(rho_o) w_o exp(-i c1 rho_o (rho_s + rho_b/M))."""

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
            Axis(n=2, center=0.0, step=1e-6),
            Axis(n=41, center=0.0, step=13e-6),
        ],
        ids=["odd", "even", "two-cell-off-centre", "odd-off-centre"],
    )
    def test_matches_the_direct_sum(self, monkeypatch, geom_focused, axis_s):
        # every source axis is centred, as the source half needs; off
        # centre are the mask (its midpoint m) and rho_b (its centre mu_b)
        mask = _complex_mask()
        rho_s = axis_s.coordinates
        rho_b = Axis.from_half_width(12, 200e-6, center=-30e-6).coordinates
        n_object = 128
        n_o = object_quadrature(mask, n_object)[0].size
        streams, _ = _spy_planes(monkeypatch)
        t = _transfer(geom_focused, mask, n_object, rho_s, rho_b)
        # phase entries for the ceil(n_b/2) pixels eps >= 0 and the
        # ceil(n/2) nodes of the non-negative source half, each by the
        # ceil(n_o/2) mirror pairs of object nodes only, all as cos/sin
        # planes
        tables, blocks = streams
        pairs = (n_o + 1) // 2
        assert sum(rows * cols for rows, cols in tables) == pairs * ((rho_b.size + 1) // 2)
        assert sum(rows * cols for rows, cols in blocks) == pairs * ((rho_s.size + 1) // 2)

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
        streams, _ = _spy_planes(monkeypatch)
        t = _transfer(geom_focused, mask, n_object, rho_s, rho_b)
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
        rho_s = Axis(n=n, center=0.0, step=13e-6).coordinates
        rho_b = Axis.from_half_width(12, 200e-6, center=-30e-6).coordinates
        n_object = 128
        assert object_quadrature(mask, n_object)[0].size == 128
        monkeypatch.setattr(phase, "_BLOCK_ENTRIES", 50 * 50)
        rows, cols, block, entries = phase.plane_block(17, 64, 4 * 12, 0)
        assert (rows, cols, block) == (5, 50, 5) and entries <= 50 * 50
        streams, _ = _spy_planes(monkeypatch)
        t = _transfer(geom_focused, mask, n_object, rho_s, rho_b)
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
        # so every row is turned by c1 m d and the column phase
        # exp(-i c1 m eps / M) is left out (``_transfer`` puts it back),
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
        rho_s = Axis(n=n, center=0.0, step=13e-6).coordinates
        if axes == "off-centre":
            rho_b = Axis.from_half_width(12, 200e-6, center=-30e-6).coordinates
        else:
            rho_b = Axis.from_half_width(int(axes[-2:]), 200e-6).coordinates
        if budget:
            monkeypatch.setattr(phase, "_BLOCK_ENTRIES", budget)
        streams, columns = _spy_planes(monkeypatch)
        t = _transfer(geom_focused, mask, n_object, rho_s, rho_b)
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
        streams, _ = _spy_planes(monkeypatch)
        message = (
            r"^the object sum needs object nodes mirror-symmetric about their midpoint; "
            r"node 7 is 5\.000e-10 m off the mirror image of its partner"
        )
        half = correlator._source_half(source_quadrature(source, 64)[0])
        with pytest.raises(ValueError, match=message):
            correlator._half_products(geom_focused, slits, 64, half, axis_b.coordinates)
        quad = QuadratureSpec.auto(geom_focused, source, slits, axis_a, axis_b)
        with pytest.raises(ValueError, match=message):
            gamma_quadrature(geom_focused, source, slits, axis_a, axis_b, quad)
        with pytest.raises(ValueError, match=message):
            intensity_b(geom_focused, source, slits, axis_b, quad)
        assert streams == []


class TestObjectTransferBlocks:
    """The object sum, and the streams that read its half products, in
    several blocks of the source half equal their one-block result."""

    @staticmethod
    def _blocked(monkeypatch, n_o, n_b, n_s, call, third=None, turned=False):
        # the default budget holds the whole half in one block; then at
        # least four full blocks of the non-negative rho_s half, each a
        # multiple of the anchor spacing ceil(sqrt(half)), and a ragged one;
        # the half holds ceil(n_s / 2) nodes. The object sum first streams
        # its column tables (the ceil(n_b / 2) pixels eps_b >= 0 by the
        # ceil(n_o / 2) mirror pairs of object nodes), then the half over
        # those pairs; a third stream, ``third`` = (its pixels, its
        # products a pixel), takes the half once more, in the blocks
        # phase.plane_block sizes: gamma_quadrature's source side or the
        # arm-a kernel of arm_kernels, both over the ceil(n_a / 2) pixels
        # eps_a >= 0 of detector a. Gamma's detector a is off
        # centre (mu_a != 0) and its slits centred (m = 0), so the object
        # sum turns its rows by -c_a mu_a d (``turned``), which the calls
        # without Gamma's turn (turn 0) leave out
        half, pairs = (n_s + 1) // 2, (n_o + 1) // 2
        block = phase.anchor_block(half)
        chunk = block * ((half - 1) // (4 * block))
        with monkeypatch.context() as m:
            streams, columns = _spy_planes(m)
            one = call()
            assert streams == [[((n_b + 1) // 2, pairs)], [(half, pairs)]] + (
                [[(half, third[0])]] if third else []
            )
            n_cols = columns[1][0]  # the float columns of the object sum's part products
            streams.clear()
            columns.clear()
            # the budget of chunk rows: 6 K + 2 width entries a row, for the
            # part products' n_cols floats, or the turn's 2 n_b if more,
            # and three anchor entries a column, for K = ceil(n_o / 2)
            # columns
            width = max(n_cols, 2 * n_b) if turned else n_cols
            m.setattr(phase, "_BLOCK_ENTRIES", chunk * (6 * pairs + 2 * width) + 3 * pairs)
            blocked = call()
            if third:
                n_x, col_entries = third
                rows, cols = phase.plane_block(half, n_x, 0, col_entries)[:2]
                assert streams[2] == [
                    (min(rows, half - lo), min(cols, n_x - j))
                    for j in range(0, n_x, cols)
                    for lo in range(0, half, rows)
                ]
        sizes = [rows for rows, _ in streams[1]]
        assert len(sizes) >= 5 and sum(sizes) == half
        assert sizes[:-1] == [chunk] * (len(sizes) - 1) and 0 < sizes[-1] < chunk
        assert len(streams) == (3 if third else 2)
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
            lambda: gamma_quadrature(g, source, slits, axis_a, axis_b, quad),
            ((axis_a.n + 1) // 2, 4 * axis_b.n), turned=True,
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
            ((axis_a.n + 1) // 2, 0),
        )
        for blocked, k in ((blocked_a, k_a), (blocked_b, k_b)):
            assert [b is None for b in blocked.blocks] == [b is None for b in k.blocks]
            self._assert_close(full_kernels(blocked, axis_s.n), full_kernels(k, axis_s.n))


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
        # check_working_set counts K_b once, as the buffer of the half
        # products that holds its parity blocks, beside the object sum's
        # column tables, the grid and one block; the Monte Carlo caller
        # adds what its run holds beside them (SpeckleRun.sampling_bytes),
        # which counts K_a's float64 blocks while they are built.
        # With n_b = 512 well above n_a = 8 the peak stays below the
        # estimate, whose count beside the run's is less than two arrays
        # of the full kernel's size (16 x 1626 x 512 bytes each)
        axis_a = Axis.from_half_width(8, 200e-6)
        axis_b = Axis.from_half_width(512, 500e-6)
        axis_s, n_object = default_sampling(geom_defocused, source, slits, axis_a, axis_b)
        assert (axis_s.n, n_object) == (1626, 81)
        run = montecarlo.SpeckleRun(
            seed=0, n_realizations=100, axis_s=axis_s, axis_a=axis_a, axis_b=axis_b,
            n_object=n_object,
        )
        needs = []
        monkeypatch.setattr(correlator, "check_bytes", lambda what, need, counts: needs.append(need))
        correlator.check_working_set(
            "arm kernels", axis_s.n, n_object, axis_a.n, axis_b.n, run.sampling_bytes()
        )
        (need,) = needs
        assert need - run.sampling_bytes() < 2 * 16 * axis_s.n * axis_b.n
        tracemalloc.start()
        try:
            arm_kernels(geom_defocused, slits, axis_s, axis_a, axis_b, n_object)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need

    @pytest.mark.parametrize("demo", ["refocus", "montecarlo", "refocus-wide-b"])
    def test_quadrature_peaks_are_within_the_working_set_estimate(self, monkeypatch, demo):
        # the quadrature estimate counts no arm kernel: gamma_quadrature and
        # intensity_b hold the half products, the object sum's column
        # tables, the grid and one block. The refocus demo at n_a = 2 and
        # n_b = 512 is wide in n_b and narrow in n_a: intensity_b's peak
        # read 60.0 MiB against an estimate of 46.3 MiB when it held the
        # moduli and their squares beside the half products (51.5 MiB with
        # the squares in place but CW and SW unpaired together)
        text = cpi_sim.DEMOS[demo.removesuffix("-wide-b")]
        if demo.endswith("-wide-b"):
            text = text.replace("grids.n_a = 160", "grids.n_a = 2").replace("grids.n_b = 64", "grids.n_b = 512")
        exp = cpi_sim.parse_config(text).resolve()
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
