import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cpi_sim import montecarlo
from cpi_sim import (
    Axis,
    CorrelationGrid,
    DegenerateStatistics,
    ObjectMask,
    QuadratureSpec,
    SourceProfile,
    SpeckleRun,
    UnderResolved,
    arm_kernels,
    default_sampling,
    estimate_gamma,
    gamma_quadrature,
    parse_config,
    sample_source_field,
)
from cpi_sim.metrics import normalized_l1, two_sided_peaks
from cpi_sim.montecarlo import _PHASES, _batch_covariances, _block_rows, _phase_indices
from cpi_sim.optics import fresnel_prefactor, object_quadrature
from cpi_sim.refocus import ghost_image
from conftest import SEPARATION

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


@pytest.fixture(scope="module")
def small_setup(geom_focused, source, slits):
    axis_a = Axis.from_half_width(24, 150e-6)
    axis_b = Axis.from_half_width(24, 400e-6)
    axis_s, n_object = default_sampling(geom_focused, source, slits, axis_a, axis_b)
    return axis_a, axis_b, axis_s, n_object


def _reference(geom, source, mask, axis_a, axis_b):
    """The quadrature surface a Monte Carlo estimate is judged against."""
    quad = QuadratureSpec.auto(geom, source, mask, axis_a, axis_b)
    return gamma_quadrature(geom, source, mask, axis_a, axis_b, quad)


@pytest.fixture(scope="module")
def small_reference(geom_focused, source, slits, small_setup):
    axis_a, axis_b, _, _ = small_setup
    return _reference(geom_focused, source, slits, axis_a, axis_b)


class TestSourceField:
    def test_deterministic_in_seed_and_index(self, source):
        axis_s = Axis.from_half_width(64, 2.5e-3)
        a = sample_source_field(source, axis_s, seed=42, realization_index=9)
        b = sample_source_field(source, axis_s, seed=42, realization_index=9)
        np.testing.assert_array_equal(a, b)
        c = sample_source_field(source, axis_s, seed=42, realization_index=10)
        assert not np.array_equal(a, c)

    def test_modulus_is_amplitude_exactly(self, source):
        axis_s = Axis.from_half_width(64, 2.5e-3)
        field = sample_source_field(source, axis_s, seed=1, realization_index=0)
        np.testing.assert_allclose(
            np.abs(field), source.amplitude(axis_s.coordinates), rtol=1e-12
        )

    def test_phase_table_moments_vanish_below_order_8(self):
        # the covariance's mean and variance need phase moments up to order 4
        np.testing.assert_allclose(np.abs(_PHASES), 1.0, rtol=0, atol=1e-15)
        for j in range(1, 8):
            assert abs(np.mean(_PHASES**j)) < 1e-15, j

    def test_stream_is_pinned(self, source):
        # byte i of the little-endian Philox words keyed (42, 9), modulo 8;
        # a change of numpy's Philox or of the byte order fails here
        axis_s = Axis.from_half_width(64, 2.5e-3)
        field = sample_source_field(source, axis_s, seed=42, realization_index=9)
        idx = np.round(np.angle(field) / (np.pi / 4)).astype(int) % 8
        assert idx[:16].tolist() == [5, 5, 3, 6, 6, 7, 7, 4, 5, 3, 2, 1, 2, 2, 4, 3]
        np.testing.assert_array_equal(field, source.amplitude(axis_s.coordinates) * _PHASES[idx])

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n", [17, 1352, 1993])
    def test_every_row_is_a_fresh_philox_stream(self, seed, n):
        # row r is byte i of a generator built for key (seed, r), modulo 8,
        # whatever the block; the key goes in as a uint64 array because a
        # list holding 2**64 - 1 is cast through float and loses the key
        lo, mid, hi = 300, 305, 311
        idx = _phase_indices(seed, lo, hi, n)
        assert idx.shape == (hi - lo, n)
        for r in range(lo, hi):
            gen = np.random.Philox(key=np.array([seed, r], dtype=np.uint64))
            raw = gen.random_raw(-(-n // 8)).astype("<u8").view(np.uint8)
            np.testing.assert_array_equal(idx[r - lo], raw[:n] & 7, err_msg=f"row {r}")
        halves = [_phase_indices(seed, lo, mid, n), _phase_indices(seed, mid, hi, n)]
        np.testing.assert_array_equal(np.concatenate(halves), idx)

    def test_phase_average_vanishes(self, source):
        axis_s = Axis.from_half_width(16, 2.5e-3)
        n = 10_000
        acc = np.zeros(axis_s.n, dtype=complex)
        for r in range(n):
            acc += sample_source_field(source, axis_s, seed=3, realization_index=r)
        mean = acc / n
        amp = source.amplitude(axis_s.coordinates)
        # complex mean of n unit phasors has RMS amp/sqrt(n) per quadrature
        assert np.all(np.abs(mean) <= 3.0 * amp / np.sqrt(n))


class TestPropagateArms:
    def test_linearity(self, geom_focused, slits, small_setup):
        axis_a, axis_b, axis_s, n_object = small_setup
        rng = np.random.default_rng(11)
        f1 = rng.normal(size=axis_s.n) + 1j * rng.normal(size=axis_s.n)
        f2 = rng.normal(size=axis_s.n) + 1j * rng.normal(size=axis_s.n)
        k_a, k_b = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
        ea1, eb1 = k_a @ f1, k_b @ f1
        ea2, eb2 = k_a @ f2, k_b @ f2
        ea12, eb12 = k_a @ (f1 + f2), k_b @ (f1 + f2)
        np.testing.assert_allclose(ea12, ea1 + ea2, rtol=1e-12)
        np.testing.assert_allclose(eb12, eb1 + eb2, rtol=1e-12)

    def test_single_emitter_gives_flat_arm_a_modulus(self, geom_focused, slits, small_setup):
        axis_a, axis_b, axis_s, n_object = small_setup
        field = np.zeros(axis_s.n, dtype=complex)
        field[axis_s.n // 2] = 1.0
        k_a, _ = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
        e_a = k_a @ field
        mods = np.abs(e_a)
        np.testing.assert_allclose(mods, mods[0], rtol=1e-12)

    def test_displaced_emitter_images_at_minus_M_rho_s(self, geom_focused, source):
        # open aperture: |E_b|^2 peaks at the image point rho_b = -M rho_s
        c = np.linspace(-1e-3, 1e-3, 81)
        open_mask = ObjectMask.from_samples(c, np.ones_like(c))
        axis_b = Axis.from_half_width(121, 300e-6)
        axis_a = Axis.from_half_width(8, 50e-6)
        axis_s, n_object = default_sampling(geom_focused, source, open_mask, axis_a, axis_b)
        rho_s_target = 500e-6
        field = np.zeros(axis_s.n, dtype=complex)
        idx = np.argmin(np.abs(axis_s.coordinates - rho_s_target))
        field[idx] = 1.0
        _, k_b = arm_kernels(geom_focused, open_mask, axis_s, axis_a, axis_b, n_object)
        e_b = k_b @ field
        peak = axis_b.coordinates[np.argmax(np.abs(e_b) ** 2)]
        expected = -geom_focused.M * axis_s.coordinates[idx]
        assert abs(peak - expected) <= 2 * axis_b.step

    def test_kernel_alias_guard(self, geom_focused, slits):
        axis_a = Axis.from_half_width(24, 150e-6)
        axis_b = Axis.from_half_width(24, 400e-6)
        coarse = Axis.from_half_width(32, 2.5e-3)  # cells far too wide
        with pytest.raises(UnderResolved):
            arm_kernels(geom_focused, slits, coarse, axis_a, axis_b, 256)


class TestArmKernels:
    @pytest.mark.parametrize("geom_name", ["geom_focused", "geom_defocused"])
    def test_arm_a_matches_closed_form_fresnel_kernel(self, request, geom_name, source, slits):
        g = request.getfixturevalue(geom_name)
        axis_a = Axis.from_half_width(8, 150e-6, center=40e-6)
        axis_b = Axis.from_half_width(9, 400e-6, center=-90e-6)
        axis_s, n_object = default_sampling(g, source, slits, axis_a, axis_b)
        k_a, _ = arm_kernels(g, slits, axis_s, axis_a, axis_b, n_object)

        # direct evaluation: h_a exp(i w (rho_a - rho_s)^2 / (2 z_a)) per entry
        w = g.omega0_over_c
        d = axis_a.coordinates[:, None] - axis_s.coordinates[None, :]
        direct = fresnel_prefactor(w, g.z_a) * np.exp(0.5j * (w / g.z_a) * d**2) * axis_s.step
        peak = np.abs(direct).max()
        np.testing.assert_allclose(k_a, direct, rtol=1e-12, atol=1e-12 * peak)

    @pytest.mark.parametrize("geom_name", ["geom_focused", "geom_defocused"])
    def test_arm_b_matches_per_pixel_object_integral(self, request, geom_name, source, slits):
        g = request.getfixturevalue(geom_name)
        axis_a = Axis.from_half_width(8, 150e-6)
        axis_b = Axis.from_half_width(9, 400e-6)
        axis_s, n_object = default_sampling(g, source, slits, axis_a, axis_b)
        _, k_b = arm_kernels(g, slits, axis_s, axis_a, axis_b, n_object)

        # direct evaluation: one object-plane integral per detector-b pixel
        w = g.omega0_over_c
        rho_s = axis_s.coordinates
        rho_o, w_o, _ = object_quadrature(slits, n_object)
        amp = slits.transmission(rho_o) * w_o
        c_b = fresnel_prefactor(w, g.z_b) * fresnel_prefactor(w, g.S_i) * (g.S_o / g.z_b)
        chirp = np.exp(0.5j * (w / g.z_b) * rho_s**2)
        direct = np.array(
            [
                amp @ np.exp(-1j * (w / g.z_b) * np.outer(rho_o, rho_s + rb / g.M))
                for rb in axis_b.coordinates
            ]
        )
        direct *= c_b * chirp[None, :] * axis_s.step
        # dark-fringe entries sit near zero, so they are held to the peak modulus
        peak = np.abs(direct).max()
        np.testing.assert_allclose(k_b, direct, rtol=1e-12, atol=1e-12 * peak)


def _set_block_rows(monkeypatch, rows, n_cells):
    """Make ``_block_rows(n_cells)`` return ``rows``."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", rows * 16 * n_cells)
    assert _block_rows(n_cells) == rows


def _two_pass(k_a, k_b, seed, start, stop):
    """Covariance and means of realizations [start, stop) propagated alone,
    in the two-pass form, written with the batch path's own expressions."""
    fields = _PHASES[_phase_indices(seed, start, stop, k_a.shape[1])]
    i_a = np.abs(fields @ k_a.T) ** 2
    i_b = np.abs(fields @ k_b.T) ** 2
    k = stop - start
    mean_a = i_a.sum(axis=0) / k
    mean_b = i_b.sum(axis=0) / k
    return (i_a - mean_a).T @ (i_b - mean_b) / (k - 1), mean_a, mean_b


@pytest.fixture(scope="module")
def scaled_kernels(geom_focused, source, slits, small_setup):
    """The small setup's kernels with the source amplitude folded in."""
    axis_a, axis_b, axis_s, n_object = small_setup
    k_a, k_b = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
    amp = source.amplitude(axis_s.coordinates)
    return k_a * amp, k_b * amp


class TestBatchCovariance:
    def test_chunk_merge_matches_two_pass(
        self, monkeypatch, geom_focused, source, slits, small_setup
    ):
        # 700 realizations in one batch, blocks of 256 rows: three pieces
        # (256 + 256 + 188), the last one partial, Chan-merged
        axis_a, axis_b, axis_s, n_object = small_setup
        start, stop = 0, 700
        _set_block_rows(monkeypatch, 256, axis_s.n)
        k_a, k_b = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
        # the batch path propagates unit phasors through amplitude-scaled kernels
        amp = source.amplitude(axis_s.coordinates)
        [cov], [mean_a], [mean_b] = _batch_covariances(
            k_a * amp, k_b * amp, seed=13, spans=[(start, stop)]
        )

        fields = np.stack(
            [sample_source_field(source, axis_s, 13, r) for r in range(start, stop)]
        )
        i_a = np.abs(fields @ k_a.T) ** 2
        i_b = np.abs(fields @ k_b.T) ** 2
        ref_a = i_a.mean(axis=0)
        ref_b = i_b.mean(axis=0)
        ref_cov = (i_a - ref_a).T @ (i_b - ref_b) / (stop - start - 1)
        np.testing.assert_allclose(mean_a, ref_a, rtol=1e-12)
        np.testing.assert_allclose(mean_b, ref_b, rtol=1e-12)
        # the covariance crosses zero, so entries near zero are held to its peak
        peak = np.abs(ref_cov).max()
        np.testing.assert_allclose(cov, ref_cov, rtol=1e-12, atol=1e-12 * peak)

    @pytest.mark.parametrize("rows", [300, 1000])
    def test_batches_sharing_a_block_equal_each_batch_alone(self, monkeypatch, scaled_kernels, rows):
        # 1000 realizations in 7 uneven batches (142 or 143 each), blocks of
        # two batches or of all seven: each batch is reduced from its own
        # rows of the block's GEMMs, so it equals, bit for bit, the plain
        # two-pass result of that batch propagated alone. This rests on BLAS
        # giving each output row independently of the row count.
        k_a, k_b = scaled_kernels
        _set_block_rows(monkeypatch, rows, k_a.shape[1])
        edges = np.linspace(0, 1000, 8).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        assert {hi - lo for lo, hi in spans} == {142, 143}
        results = _batch_covariances(k_a, k_b, 21, spans)
        assert [len(r) for r in results] == [len(spans)] * 3
        for (lo, hi), *got in zip(spans, *results):
            for g, r in zip(got, _two_pass(k_a, k_b, 21, lo, hi)):
                np.testing.assert_array_equal(g, r, err_msg=f"batch [{lo}, {hi})")

    @pytest.mark.parametrize("threads", [1, 3])
    def test_a_batch_longer_than_a_block_is_split_and_merged(
        self, monkeypatch, scaled_kernels, threads
    ):
        # blocks of 100 rows: each 142- or 143-row batch is cut into 100 +
        # 42/43 and the two pieces Chan-merged, the same pieces as alone
        k_a, k_b = scaled_kernels
        _set_block_rows(monkeypatch, 100, k_a.shape[1])
        edges = np.linspace(0, 1000, 8).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        results = _batch_covariances(k_a, k_b, 21, spans, threads)
        for (lo, hi), *got in zip(spans, *results):
            alone = _batch_covariances(k_a, k_b, 21, [(lo, hi)])
            for g, a in zip(got, alone):
                np.testing.assert_array_equal(g, a[0])
            ref_cov, ref_a, ref_b = _two_pass(k_a, k_b, 21, lo, hi)
            np.testing.assert_allclose(got[1], ref_a, rtol=1e-12)
            np.testing.assert_allclose(got[2], ref_b, rtol=1e-12)
            peak = np.abs(ref_cov).max()
            np.testing.assert_allclose(got[0], ref_cov, rtol=1e-12, atol=1e-12 * peak)

    def test_bench_configs_block_rows(self):
        # a 4 MiB phasor budget: two 50-row batches a block on the 1993
        # cells of montecarlo-defocused, one 100-row batch on the 1352 of
        # montecarlo-focused
        assert _block_rows(1993) == 131
        assert _block_rows(1352) == 193

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ["montecarlo-focused", "montecarlo-defocused"])
    def test_sampling_bytes_bound_the_traced_peak(self, monkeypatch, name, threads):
        # tracemalloc peak of estimate_gamma once its kernels exist
        text = (BENCH_CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
        exp = parse_config(text).resolve()
        run = exp.speckle
        reference = gamma_quadrature(
            exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad
        )
        kernels = arm_kernels(exp.geom, exp.mask, run.axis_s, run.axis_a, run.axis_b, run.n_object)
        base = []

        def built(*args):
            k = tuple(x.copy() for x in kernels)
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
            return k

        monkeypatch.setattr(montecarlo, "arm_kernels", built)
        tracemalloc.start()
        try:
            estimate_gamma(run, exp.geom, exp.source, exp.mask, reference, threads=threads)
            peak = tracemalloc.get_traced_memory()[1] - base[0]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= run.sampling_bytes(threads)


class TestEstimateGamma:
    def test_matches_quadrature_within_noise(
        self, geom_focused, source, slits, small_setup, small_reference
    ):
        axis_a, axis_b, axis_s, n_object = small_setup
        run = SpeckleRun(
            seed=101, n_realizations=2000, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        grid, report = estimate_gamma(run, geom_focused, source, slits, small_reference)
        assert report.l1 < 3.0 * report.se_l1
        assert np.all(grid.values >= 0.0)

    def test_ghost_image_shows_both_slits(
        self, geom_focused, source, slits, small_setup, small_reference
    ):
        axis_a, axis_b, axis_s, n_object = small_setup
        run = SpeckleRun(
            seed=2024, n_realizations=4000, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        grid, _ = estimate_gamma(run, geom_focused, source, slits, small_reference)
        left, right = two_sided_peaks(axis_a.coordinates, ghost_image(grid).values)
        assert abs(left + SEPARATION / 2) <= 2 * axis_a.step
        assert abs(right - SEPARATION / 2) <= 2 * axis_a.step

    def test_bitwise_reproducible(
        self, geom_focused, source, slits, small_setup, small_reference
    ):
        axis_a, axis_b, axis_s, n_object = small_setup
        run = SpeckleRun(
            seed=7, n_realizations=400, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        g1, _ = estimate_gamma(run, geom_focused, source, slits, small_reference)
        g2, _ = estimate_gamma(run, geom_focused, source, slits, small_reference)
        np.testing.assert_array_equal(g1.values, g2.values)

    def test_threaded_equals_sequential(
        self, geom_focused, source, slits, small_setup, small_reference
    ):
        axis_a, axis_b, axis_s, n_object = small_setup
        run = SpeckleRun(
            seed=7, n_realizations=400, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        g1, _ = estimate_gamma(run, geom_focused, source, slits, small_reference, threads=1)
        g4, _ = estimate_gamma(run, geom_focused, source, slits, small_reference, threads=4)
        np.testing.assert_array_equal(g1.values, g4.values)

    def test_error_bars_shrink_like_sqrt_n(
        self, geom_focused, source, slits, small_setup, small_reference
    ):
        axis_a, axis_b, axis_s, n_object = small_setup
        ses = []
        for n in (100, 1000, 10000):
            run = SpeckleRun(
                seed=5, n_realizations=n, axis_s=axis_s,
                axis_a=axis_a, axis_b=axis_b, n_object=n_object, n_batches=10,
            )
            _, report = estimate_gamma(run, geom_focused, source, slits, small_reference)
            ses.append(report.se_per_point.mean())
        assert ses[0] > ses[1] > ses[2]
        assert 7.0 <= ses[0] / ses[2] <= 13.0

    def test_single_emitter_has_no_correlations(self, geom_focused, slits):
        # one dominant cell -> no intensity fluctuations -> covariance ~ 0;
        # the axis is offset so a cell sits exactly on the narrow source
        axis_a = Axis.from_half_width(12, 100e-6)
        axis_b = Axis.from_half_width(12, 200e-6)
        axis_s = Axis(n=2, center=0.5e-6, step=1e-6)
        narrow = SourceProfile.gaussian(5e-8)
        run = SpeckleRun(
            seed=3, n_realizations=200, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=64,
        )
        reference = _reference(geom_focused, narrow, slits, axis_a, axis_b)
        grid, _ = estimate_gamma(run, geom_focused, narrow, slits, reference)
        field = sample_source_field(narrow, axis_s, seed=3, realization_index=0)
        k_a, k_b = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, 64)
        e_a, e_b = k_a @ field, k_b @ field
        level = np.abs(e_a).max() ** 2 * np.abs(e_b).max() ** 2
        assert np.max(grid.values) < 1e-10 * level

    def test_ghost_psf_width_matches_resolution_budget(self, geom_focused, source):
        # fitted width of the estimated point response vs lambda0 z_a / D_s
        from oracles import e2_full_width, fit_gaussian_width

        point = ObjectMask.single_slit(5e-6)
        axis_a = Axis.from_half_width(64, 120e-6)
        axis_b = Axis.from_half_width(48, 450e-6)
        axis_s, n_object = default_sampling(geom_focused, source, point, axis_a, axis_b)
        run = SpeckleRun(
            seed=99, n_realizations=3000, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        reference = _reference(geom_focused, source, point, axis_a, axis_b)
        grid, _ = estimate_gamma(run, geom_focused, source, point, reference)
        _, width = fit_gaussian_width(
            axis_a.coordinates, ghost_image(grid).values, floor=5e-2
        )
        budget = geom_focused.lambda0 * geom_focused.z_a / source.diameter
        assert 1 / 1.5 <= e2_full_width(width) / budget <= 1.5

    def test_zero_transmission_degenerates(self, geom_focused, source):
        c = np.linspace(-1e-4, 1e-4, 11)
        dark = ObjectMask.from_samples(c, np.zeros_like(c))
        axis_a = Axis.from_half_width(8, 100e-6)
        axis_b = Axis.from_half_width(8, 200e-6)
        axis_s, n_object = default_sampling(geom_focused, source, dark, axis_a, axis_b)
        run = SpeckleRun(
            seed=1, n_realizations=120, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        reference = _reference(geom_focused, source, dark, axis_a, axis_b)
        with pytest.raises(DegenerateStatistics):
            estimate_gamma(run, geom_focused, source, dark, reference)

    def test_requires_enough_realizations(self, small_setup):
        axis_a, axis_b, axis_s, n_object = small_setup
        with pytest.raises(ValueError, match="100"):
            SpeckleRun(
                seed=1, n_realizations=50, axis_s=axis_s,
                axis_a=axis_a, axis_b=axis_b, n_object=n_object, n_batches=5,
            )

    def test_rejects_a_reference_on_other_axes(
        self, geom_focused, source, slits, small_setup, small_reference
    ):
        # same shape, shifted rho_b: comparing it would be silently wrong
        axis_a, axis_b, axis_s, n_object = small_setup
        shifted = Axis(n=axis_b.n, center=axis_b.step, step=axis_b.step)
        run = SpeckleRun(
            seed=1, n_realizations=100, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        other = CorrelationGrid(
            axis_a=axis_a, axis_b=shifted, values=small_reference.values,
            z_a=geom_focused.z_a, z_b=geom_focused.z_b, M=geom_focused.M,
        )
        with pytest.raises(ValueError, match="reference axes"):
            estimate_gamma(run, geom_focused, source, slits, other)


class _Captured(Exception):
    """Raised by a stand-in sampler once it has the kernels."""


class TestSourceAmplitude:
    def test_sampled_kernels_match_the_quadrature_without_noise(self, monkeypatch):
        # The covariance of unit-phasor rows through k_a and k_b tends to
        # |k_a k_b^H|^2, so that product must match the quadrature surface
        # with no sampling noise at all. On this Gaussian source a missing
        # amplitude on either arm reads 0.26 and a doubled one on arm b
        # 0.13, which criterion 1's error bars cannot resolve.
        text = (BENCH_CONFIGS / "montecarlo-focused.cfg").read_text(encoding="utf-8")
        exp = parse_config(text).resolve()
        assert exp.source.kind == "gaussian"
        kernels = []

        def capture(k_a, k_b, *args):
            kernels.append((k_a, k_b))
            raise _Captured

        monkeypatch.setattr(montecarlo, "_batch_covariances", capture)
        reference = gamma_quadrature(
            exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad
        )
        with pytest.raises(_Captured):
            estimate_gamma(exp.speckle, exp.geom, exp.source, exp.mask, reference)
        k_a, k_b = kernels[0]
        assert normalized_l1(np.abs(k_a @ k_b.conj().T) ** 2, reference.values) < 1e-2
