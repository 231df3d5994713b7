"""The block-anchored cos/sin plane stream against the direct exponential,
and the plan of its blocks."""

import itertools

import numpy as np
import pytest

from cpi_sim import DEMOS, Axis, parse_config, phase
from cpi_sim.optics import object_quadrature, source_quadrature


def _direct(c, x, y):
    return np.exp((-1j * c) * np.outer(x, y))


def _streamed(c, x, y, budget=None):
    """exp(-i c x_j y_k), shape (x.size, y.size), put together from the
    blocks of ``phase.phase_planes`` as planes[0] - i planes[1], in the
    plan of ``phase.plane_block`` (for ``budget`` entries, if given)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    out = np.full((y.size, x.size), np.nan, dtype=complex)
    rows, cols, block, _ = phase.plane_block(y.size, x.size, 0, 0)
    if budget:
        rows, cols, block = budget
    for ys, xs, planes in phase.phase_planes(c, x, y, rows, cols, block, np.max(np.abs(y))):
        out[ys, xs] = planes[0] - 1j * planes[1]
    return out.T


@pytest.fixture(scope="module")
def refocus_nodes():
    """The refocus demo's coupling constants and node sets."""
    cfg = parse_config(DEMOS["refocus"])
    geom = cfg.build_geometry()
    quad = cfg.build_quadrature()
    axis_a, axis_b = cfg.build_axes()
    nodes = {
        "s": source_quadrature(cfg.build_source(), quad.n_source, quad.source_span)[0],
        "o": object_quadrature(cfg.build_mask(), quad.n_object)[0],
        "a": axis_a.coordinates,
        "b": axis_b.coordinates,
    }
    c1 = geom.omega0_over_c / geom.z_b
    consts = {"c1": c1, "c_a": -c1 * geom.z_b / geom.z_a, "c_b": c1 / geom.M}
    return nodes, consts


class TestPhaseMatrix:
    """The bilinear phase matrix exp(-i c x_j y_k), streamed as cos/sin
    planes (``_streamed``), against the direct exponential."""

    @pytest.mark.parametrize(
        "c, x, y",
        [("c1", "o", "s"), ("c_a", "s", "a"), ("c_b", "o", "b"), ("c1", "a", "b")],
        ids=["U_916x4379", "V_4379x160", "W_916x64", "a_160x64"],
    )
    def test_matches_direct_exp_on_refocus_demo(self, refocus_nodes, c, x, y):
        nodes, consts = refocus_nodes
        assert {v.size for v in nodes.values()} == {4379, 916, 160, 64}
        c, x, y = consts[c], nodes[x], nodes[y]
        np.testing.assert_allclose(_streamed(c, x, y), _direct(c, x, y), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shift", [-3.0, 0.7, 5.0, 40.0])
    def test_matches_direct_exp_off_centre(self, shift):
        # off-centre axes; c is set for a largest phase of ~150 rad
        x = Axis.from_half_width(97, 3e-4, center=-0.4 * 3e-4).coordinates
        y = Axis.from_half_width(1001, 2e-4, center=shift * 2e-4).coordinates
        c = 150.0 / (np.max(np.abs(x)) * np.max(np.abs(y)))
        np.testing.assert_allclose(_streamed(c, x, y), _direct(c, x, y), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_y", [1, 2, 3, 16, 17])
    def test_matches_direct_exp_small_and_partial_blocks(self, n_y):
        # 17 nodes in blocks of 5: the last block holds 2; the same nodes
        # also in blocks of two anchor spacings of y by 15 nodes of x, so
        # both axes are cut
        x = np.linspace(-2e-3, 1e-3, 40)
        y = np.linspace(-1e-3, 2.5e-3, n_y)
        c = 2.0e7
        block = phase.anchor_block(n_y)
        for budget in (None, (n_y if n_y < 10 else 2 * block, 15, block)):
            got = _streamed(c, x, y, budget)
            assert got.shape == (40, n_y)
            np.testing.assert_allclose(got, _direct(c, x, y), rtol=0, atol=1e-12)

    def test_uneven_y_raises(self, refocus_nodes):
        nodes, consts = refocus_nodes
        with pytest.raises(ValueError, match="evenly spaced"):
            _streamed(consts["c1"], nodes["s"], nodes["o"])  # two-slit rho_o
        y = np.linspace(-1e-3, 1e-3, 50)
        y[31] += 1e-6 * (y[1] - y[0])
        with pytest.raises(ValueError, match="evenly spaced"):
            _streamed(1e7, np.ones(3), y)


class TestRates:
    def test_overflowing_rate_names_itself(self):
        geom = parse_config(DEMOS["refocus"]).build_geometry()
        with pytest.raises(OverflowError, match=r"^phase rate gamma_s, arm_a, cell overflows at"):
            phase.rates(geom, 2.4e-3, 4e-4, 1e307, 1.1e-3)


class TestPlaneBlock:
    def test_every_plan_fits_its_budget(self):
        # both streams: the object half products (4 n_b entries a row of
        # the source half) and Gamma's source side (4 n_b a column of
        # detector a); wherever a block of one row fits the budget, the
        # planned block does
        budget = phase._BLOCK_ENTRIES
        fitting = 0
        for n_y, n_x, n_b in itertools.product(
            (1, 2, 3, 17, 90, 676, 2190, 175000),
            (1, 2, 65, 916, 1024, 1025, 40000),
            (1, 12, 64, 512, 4096, 2**17, 2**19),
        ):
            for row_entries, col_entries in ((4 * n_b, 0), (0, 4 * n_b)):
                rows, cols, block, entries = phase.plane_block(n_y, n_x, row_entries, col_entries)
                assert 1 <= cols <= min(n_x, 1024)
                assert 1 <= block <= min(rows, phase.anchor_block(n_y)) and rows <= n_y
                assert rows == n_y or rows % block == 0
                layout = cols * (2 * rows + 4 * block + 3 + col_entries) + row_entries * rows
                assert entries == layout
                if cols * (9 + col_entries) + row_entries <= budget:
                    fitting += 1
                    assert entries <= budget
                if 0 < 8 * col_entries <= budget:  # column products: half the budget at most
                    assert cols * col_entries <= budget // 2
        assert fitting > 600

    def test_refocus_demo_plans(self):
        # 2190 source-half rows, 916 object nodes, n_a = 160 and n_b = 64
        # pixels: the object half products, then Gamma's source side (the
        # 512 x 512 plan is pinned with the correlator's memory tests)
        assert phase.plane_block(2190, 916, 4 * 64, 0) == (141, 916, 47, 469364)
        assert phase.plane_block(2190, 160, 0, 4 * 64) == (1034, 160, 47, 402400)
