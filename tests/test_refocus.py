import numpy as np
import pytest

from cpi_sim import (
    Axis,
    CorrelationGrid,
    EmptyOverlap,
    ObjectMask,
    OutOfRange,
    QuadratureSpec,
    RefocusSpec,
    SourceProfile,
    gamma_geometric,
    gamma_quadrature,
    ghost_image,
    make_geometry,
    refocus_grid,
    refocused_image,
    viewpoint_slice,
)
from cpi_sim.metrics import normalized_l2, slit_contrast, two_sided_peaks
from conftest import smooth_two_lobe_mask

SIGMA_F = 180e-6         # lobe RMS width of the smooth double slit
HALF_SEP = 450e-6
SOURCE_D = 6.8e-3        # top-hat diameter: defocus blur ~ D*(1-alpha)/2


@pytest.fixture(scope="module")
def lobes():
    return smooth_two_lobe_mask(SIGMA_F, HALF_SEP)


@pytest.fixture(scope="module")
def tophat():
    return SourceProfile.tophat(SOURCE_D)


@pytest.fixture(scope="module")
def out_axis():
    return Axis.from_half_width(64, 1.1e-3)


@pytest.fixture(scope="module")
def acquired_defocused(geom_defocused, tophat, lobes, out_axis):
    """Out-of-focus acquisition wide enough to cover every refocus path."""
    axis_b = Axis.from_half_width(64, 1.3e-3)
    shift = abs(1.0 - geom_defocused.z_a / geom_defocused.z_b) * axis_b.half_width / geom_defocused.M
    acq_hw = (geom_defocused.z_a / geom_defocused.z_b) * out_axis.half_width + shift
    axis_a = Axis.from_half_width(137, acq_hw)
    quad = QuadratureSpec.auto(geom_defocused, tophat, lobes, axis_a, axis_b, guard_factor=2.0)
    return gamma_quadrature(geom_defocused, tophat, lobes, axis_a, axis_b, quad)


@pytest.fixture(scope="module")
def focused_reference(geom_focused, tophat, lobes, out_axis):
    axis_b = Axis.from_half_width(64, 1.3e-3)
    quad = QuadratureSpec.auto(geom_focused, tophat, lobes, out_axis, axis_b, guard_factor=2.0)
    return gamma_quadrature(geom_focused, tophat, lobes, out_axis, axis_b, quad)


class TestGhostImage:
    def test_focused_slits_resolved(self, grid_focused, axis_a):
        img = ghost_image(grid_focused)
        left, right = two_sided_peaks(axis_a.coordinates, img.values)
        assert abs(left + 75e-6) <= axis_a.step
        assert abs(right - 75e-6) <= axis_a.step
        assert slit_contrast(axis_a.coordinates, img.values, 37.5e-6) > 0.8

    def test_defocused_slits_blurred_away(self, acquired_defocused):
        img = ghost_image(acquired_defocused)
        x = acquired_defocused.axis_a.coordinates
        assert slit_contrast(x, img.values, HALF_SEP / 2) < 0.3

    def test_constant_surface_integrates_flat(self):
        ax = Axis.from_half_width(16, 1e-3)
        grid = CorrelationGrid(ax, ax, np.ones((16, 16)), z_a=0.1, z_b=0.1, M=1 / 3)
        img = ghost_image(grid)
        np.testing.assert_allclose(img.values, img.values[0], rtol=1e-14)


class TestRefocusGrid:
    def test_identity_at_focus_is_bitwise(self, grid_focused):
        out = refocus_grid(grid_focused, RefocusSpec())
        np.testing.assert_array_equal(out.values, grid_focused.values)
        assert out.validity.all()

    def test_geometric_grid_refocuses_to_closed_form(self, geom_defocused, tophat, lobes):
        axis_a = Axis.from_half_width(481, 2.0e-3)
        axis_b = Axis.from_half_width(48, 1.2e-3)
        out_axis = Axis.from_half_width(64, 0.9e-3)
        grid = gamma_geometric(geom_defocused, tophat, lobes, axis_a, axis_b)
        refocused = refocus_grid(grid, RefocusSpec(output_axis=out_axis))
        f_img = tophat.intensity(-axis_b.coordinates / geom_defocused.M) ** 2
        a_img = np.abs(lobes.transmission(out_axis.coordinates)) ** 2
        expected = np.outer(a_img, f_img)
        err = np.abs(refocused.values - expected)[refocused.validity]
        assert err.max() / grid.values.max() < 1e-3

    def test_roundtrip_recovers_interior(self, geom_defocused, tophat, lobes):
        axis_a = Axis.from_half_width(161, 2.0e-3)
        axis_b = Axis.from_half_width(48, 1.2e-3)
        grid = gamma_geometric(geom_defocused, tophat, lobes, axis_a, axis_b)
        fwd = refocus_grid(grid, RefocusSpec())
        # swap roles: the inverse remap is refocusing the (z_b, z_a) grid
        swapped = CorrelationGrid(
            axis_a=fwd.axis_a, axis_b=fwd.axis_b, values=fwd.values,
            z_a=grid.z_b, z_b=grid.z_a, M=grid.M, valid=fwd.valid,
        )
        back = refocus_grid(swapped, RefocusSpec())
        inner = back.validity & (np.abs(axis_a.coordinates)[:, None] < 1.0e-3)
        err = np.abs(back.values - grid.values)[inner]
        assert err.max() / grid.values.max() < 1e-2

    def test_linearity(self, acquired_defocused):
        g = acquired_defocused
        rng = np.random.default_rng(0)
        other = CorrelationGrid(
            g.axis_a, g.axis_b, rng.random(g.values.shape) * g.values.max(),
            z_a=g.z_a, z_b=g.z_b, M=g.M,
        )
        combo = CorrelationGrid(
            g.axis_a, g.axis_b, 2.0 * g.values + 0.5 * other.values,
            z_a=g.z_a, z_b=g.z_b, M=g.M,
        )
        spec = RefocusSpec()
        lhs = refocus_grid(combo, spec).values
        rhs = 2.0 * refocus_grid(g, spec).values + 0.5 * refocus_grid(other, spec).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=lhs.max() * 1e-14)

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0, 1.25])
    def test_validity_never_grows_from_acquisition(self, tophat, lobes, alpha):
        geom = make_geometry(z_a=0.1, z_b=alpha * 0.1, S_o=0.2, F=0.05)
        axis_a = Axis.from_half_width(64, 1.5e-3)
        axis_b = Axis.from_half_width(32, 1.2e-3)
        grid = gamma_geometric(geom, tophat, lobes, axis_a, axis_b)
        out = refocus_grid(grid, RefocusSpec())
        assert out.validity.sum() <= grid.validity.sum()

    def test_empty_overlap_raises(self, acquired_defocused):
        far = Axis.from_half_width(32, 1e-3, center=50e-3)
        with pytest.raises(EmptyOverlap):
            refocus_grid(acquired_defocused, RefocusSpec(output_axis=far))


class TestRefocusedImage:
    def test_contrast_restored(self, acquired_defocused, out_axis):
        img = refocused_image(acquired_defocused, RefocusSpec(output_axis=out_axis))
        x = out_axis.coordinates
        assert slit_contrast(x, img.values, HALF_SEP / 2) > 0.8
        left, right = two_sided_peaks(x, img.values)
        assert abs(left + HALF_SEP) <= 2 * out_axis.step
        assert abs(right - HALF_SEP) <= 2 * out_axis.step

    def test_matches_focused_image(self, acquired_defocused, focused_reference, out_axis):
        ref = ghost_image(focused_reference)
        img = refocused_image(acquired_defocused, RefocusSpec(output_axis=out_axis))
        assert normalized_l2(img.values, ref.values) < 0.1

    def test_identity_at_focus_matches_ghost_bitwise(self, grid_focused):
        ghost = ghost_image(grid_focused)
        refocused = refocused_image(grid_focused, RefocusSpec())
        np.testing.assert_array_equal(refocused.values, ghost.values)

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0, 1.25])
    def test_argmax_invariance_geometric(self, tophat, lobes, alpha):
        geom = make_geometry(z_a=0.1, z_b=alpha * 0.1, S_o=0.2, F=0.05)
        out_axis = Axis.from_half_width(96, 1.0e-3)
        axis_b = Axis.from_half_width(48, 1.2e-3)
        shift = abs(1.0 - 1.0 / alpha) * axis_b.half_width / geom.M
        acq = Axis.from_half_width(193, out_axis.half_width / alpha + shift)
        grid = gamma_geometric(geom, tophat, lobes, acq, axis_b)
        img = refocused_image(grid, RefocusSpec(output_axis=out_axis))
        focused = np.abs(lobes.transmission(out_axis.coordinates)) ** 2
        got = two_sided_peaks(out_axis.coordinates, img.values)
        want = two_sided_peaks(out_axis.coordinates, focused)
        assert abs(got[0] - want[0]) <= out_axis.step
        assert abs(got[1] - want[1]) <= out_axis.step


def edge_width_25_75(x, y, lo, hi):
    """25%-75% rise width of the edge contained in [lo, hi] (plateau at 1)."""
    seg = (x >= lo) & (x <= hi)
    xs, ys = x[seg], y[seg] / np.median(y[np.abs(x) < 0.25 * np.max(np.abs(x))])
    if ys[0] > ys[-1]:
        xs, ys = xs[::-1] * -1.0, ys[::-1]
    x25 = np.interp(0.25, ys, xs)
    x75 = np.interp(0.75, ys, xs)
    return x75 - x25


class TestDepthOfField:
    # Refocusing only sharpens what carries angular structure: the test
    # object is a wide slit, and the measured quantity is the spread of its
    # edge. Unrefocused, the edge blurs geometrically with the source size;
    # refocused, only the coherent diffraction scale sqrt(lambda0 z_b
    # |1-alpha|) remains, which wins whenever lambda0 z_b / (D/2)^2 << 1.
    SLIT = 1.5e-3
    SOURCE_D = 2.4e-3

    @pytest.mark.parametrize("alpha", [0.9, 0.8, 0.7])
    def test_refocused_edge_sharper_than_unrefocused(self, alpha):
        geom = make_geometry(z_a=0.1, z_b=alpha * 0.1, S_o=0.2, F=0.05, lambda0=500e-9)
        source = SourceProfile.tophat(self.SOURCE_D)
        assert geom.lambda0 * geom.z_b / (self.SOURCE_D / 2) ** 2 < 0.05
        slab = ObjectMask.single_slit(self.SLIT)
        axis_b = Axis.from_half_width(48, 600e-6)
        out_axis = Axis.from_half_width(121, 1.2e-3)
        shift = abs(1.0 - 1.0 / alpha) * axis_b.half_width / geom.M
        acq_hw = out_axis.half_width / alpha + shift
        acq = Axis.from_half_width(int(np.ceil(2 * acq_hw / 20e-6)) | 1, acq_hw)
        quad = QuadratureSpec.auto(geom, source, slab, acq, axis_b, guard_factor=2.0)
        grid = gamma_quadrature(geom, source, slab, acq, axis_b, quad)

        edge = self.SLIT / 2
        blur_unref = (self.SOURCE_D / 2) * (1 - alpha) / alpha
        ghost = ghost_image(grid)
        w_unref = edge_width_25_75(
            acq.coordinates, ghost.values, edge / alpha - 1.2 * blur_unref,
            edge / alpha + 1.2 * blur_unref,
        )
        img = refocused_image(grid, RefocusSpec(output_axis=out_axis))
        w_ref = edge_width_25_75(
            out_axis.coordinates, img.values, edge - 1.2 * blur_unref,
            edge + 1.2 * blur_unref,
        )
        assert w_ref < w_unref


class TestViewpointSlice:
    def test_views_shift_with_pixel_offset(self, geom_defocused, tophat, lobes):
        # geometric grid: features move by 2*(rho_b/(M alpha))(1-alpha)
        # between the +rho_b and -rho_b views
        axis_a = Axis.from_half_width(401, 2.0e-3)
        axis_b = Axis.from_half_width(49, 1.2e-3)
        grid = gamma_geometric(geom_defocused, tophat, lobes, axis_a, axis_b)
        g = geom_defocused
        rho_b = 0.5 * g.M * SOURCE_D / 2
        plus = viewpoint_slice(grid, rho_b)
        minus = viewpoint_slice(grid, -rho_b)
        shift_got = np.array(two_sided_peaks(axis_a.coordinates, plus.values)) - np.array(
            two_sided_peaks(axis_a.coordinates, minus.values)
        )
        col = grid.axis_b.coordinates[np.argmin(np.abs(grid.axis_b.coordinates - rho_b))]
        expected = 2 * (col / (g.M * g.alpha)) * (1 - g.alpha)
        np.testing.assert_allclose(shift_got, expected, atol=2 * axis_a.step)

    def test_focused_views_agree(self, grid_focused, geom_focused, tophat, lobes):
        # in-focus geometric surface is separable: every view is identical
        axis_a = Axis.from_half_width(64, 1.0e-3)
        axis_b = Axis.from_half_width(16, 1.0e-3)
        grid = gamma_geometric(geom_focused, tophat, lobes, axis_a, axis_b)
        views = [viewpoint_slice(grid, rb).values for rb in (-0.8e-3, 0.0, 0.8e-3)]
        assert np.argmax(views[0]) == np.argmax(views[1]) == np.argmax(views[2])
        # the quadrature surface at focus keeps peak positions symmetric too
        v1 = viewpoint_slice(grid_focused, -300e-6)
        v2 = viewpoint_slice(grid_focused, 300e-6)
        x = grid_focused.axis_a.coordinates
        assert abs(abs(x[np.argmax(v1.values)]) - abs(x[np.argmax(v2.values)])) <= (
            grid_focused.axis_a.step
        )

    def test_out_of_range(self, grid_focused):
        with pytest.raises(OutOfRange):
            viewpoint_slice(grid_focused, 10e-3)
