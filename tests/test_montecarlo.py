import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cpi_sim import correlator, montecarlo, runner
from cpi_sim import (
    DEMOS,
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
from cpi_sim.montecarlo import (
    _PHASES, _batch_covariances, _block_rows, _intensities, _parity_products, _phase_indices,
    _phasors,
)
from cpi_sim.optics import fresnel_prefactor, object_quadrature
from cpi_sim.refocus import ghost_image
from conftest import SEPARATION
from oracles import (
    field_rounding_bound, float64_estimate, float64_intensities, full_kernels,
    propagation_rounding_bound, unpair_pixels,
)

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


@pytest.fixture(scope="module")
def small_setup(geom_focused, source, slits):
    axis_a = Axis.from_half_width(24, 150e-6)
    axis_b = Axis.from_half_width(24, 400e-6)
    axis_s, n_object = default_sampling(geom_focused, source, slits, axis_a, axis_b)
    return axis_a, axis_b, axis_s, n_object


def _full_arm_kernels(geom, mask, axis_s, axis_a, axis_b, n_object):
    """``arm_kernels`` on every cell and pixel (``oracles.full_kernels``)."""
    k_a, k_b = arm_kernels(geom, mask, axis_s, axis_a, axis_b, n_object)
    return full_kernels(k_a, axis_s.n), full_kernels(k_b, axis_s.n)


def _paired_columns(n_cells):
    """Columns of a row [u | v] on ``n_cells`` centred cells."""
    return 2 * ((n_cells + 1) // 2)


def _scaled(kernel, amp=1.0, dtype=complex):
    """A copy of ``kernel`` with each kept block's rows times ``amp``, one
    value a source node d >= 0 or one for all, in ``dtype``: complex64
    gives the blocks ``estimate_gamma`` samples with, bit for bit."""
    amp = np.reshape(amp, (-1, 1))
    return replace(
        kernel, blocks=tuple(None if b is None else (b * amp).astype(dtype) for b in kernel.blocks)
    )


def _nbytes(kernel):
    """Bytes of ``kernel``'s kept blocks."""
    return sum(b.nbytes for b in kernel.blocks if b is not None)


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
        # counter 10 of the Philox stream keyed (42, 0), the one counter of
        # realization 9 on 64 cells (32 pairs): cells 24-31 are i- of pairs
        # 7 to 0, cells 32-39 i+ of pairs 0 to 7; a change of numpy's
        # Philox, of the byte order or of the layout fails here
        axis_s = Axis.from_half_width(64, 2.5e-3)
        field = sample_source_field(source, axis_s, seed=42, realization_index=9)
        idx = np.round(np.angle(field) / (np.pi / 4)).astype(int) % 8
        assert idx[24:40].tolist() == [0, 1, 1, 2, 0, 4, 7, 1, 2, 1, 2, 7, 6, 2, 0, 7]
        np.testing.assert_array_equal(field, source.amplitude(axis_s.coordinates) * _PHASES[idx])

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n", [17, 1352, 1993])
    def test_every_row_is_a_fresh_philox_stream(self, seed, n):
        # row r is counters (r m, (r + 1) m] of the one stream keyed
        # (seed, 0), m = ceil(h / 32) for h pairs, read here from a
        # generator drawn from counter 0: byte j, low 6 bits, is the pair
        # (i+ << 3) | i- of cells +-d_j, and the d = 0 cell of an odd n
        # takes the low 3 bits as both. The key goes in as a uint64 array
        # because a list holding 2**64 - 1 is cast through float and loses
        # the key. A block split at an odd offset changes no row.
        lo, mid, hi = 300, 305, 311
        h = (n + 1) // 2
        m = -(-h // 32)
        gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        raw = gen.random_raw(4 * m * hi).astype("<u8").view(np.uint8).reshape(hi, 32 * m)
        pairs = raw[lo:hi, :h] & 63
        plus, minus = pairs >> 3, pairs & 7
        if n % 2:
            plus[:, 0] = minus[:, 0]
        idx = _phase_indices(seed, lo, hi, n)
        assert idx.shape == (hi - lo, n)
        np.testing.assert_array_equal(idx[:, n // 2 :], plus)
        np.testing.assert_array_equal(idx[:, (n - 1) // 2 :: -1], minus)
        halves = [_phase_indices(seed, lo, mid, n), _phase_indices(seed, mid, hi, n)]
        np.testing.assert_array_equal(np.concatenate(halves), idx)
        rows = _phasors(seed, lo, hi, n)
        halves = [_phasors(seed, lo, mid, n), _phasors(seed, mid, hi, n)]
        np.testing.assert_array_equal(np.concatenate(halves), rows)
        # the float64 sums, rounded once to complex64
        u, v = _PHASES[plus] + _PHASES[minus], _PHASES[plus] - _PHASES[minus]
        assert rows.dtype == np.complex64
        np.testing.assert_array_equal(rows, np.concatenate([u, v], axis=1).astype(np.complex64))

    @pytest.mark.parametrize("n", [1, 17, 1993])
    def test_the_centre_cell_of_an_odd_count_is_its_own_mirror(self, n):
        # the d = 0 row: u = 2 phi(0), rounded to complex64, and v = 0 exactly
        h = (n + 1) // 2
        rows = _phasors(4, 0, 200, n)
        centre = _PHASES[_phase_indices(4, 0, 200, n)[:, n // 2]]
        np.testing.assert_array_equal(rows[:, 0], (2 * centre).astype(np.complex64))
        np.testing.assert_array_equal(rows[:, h], 0)

    @pytest.mark.parametrize("n", [1352, 1993])
    def test_pair_index_is_uniform_over_64_bins(self, n):
        # uniform pair indices (i+ << 3) | i- are the two phase indices
        # independent and uniform. Each bin count of N draws is binomial
        # (N, 1 / 64); every bin must lie within 5 of its standard
        # deviations (a chance of about 4e-5 that one of 64 does not).
        # The d = 0 cell of an odd n is a pair only with itself: left out.
        idx = _phase_indices(11, 0, 2000, n)
        h = (n + 1) // 2
        j = np.arange(n % 2, h)
        pairs = 8 * idx[:, n // 2 + j].astype(int) + idx[:, (n - 1) // 2 - j]
        counts = np.bincount(pairs.ravel(), minlength=64)
        draws = pairs.size
        sd = np.sqrt(draws * (1 / 64) * (63 / 64))
        assert counts.size == 64
        assert np.abs(counts - draws / 64).max() <= 5 * sd, counts

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
        k_a, k_b = _full_arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
        ea1, eb1 = k_a @ f1, k_b @ f1
        ea2, eb2 = k_a @ f2, k_b @ f2
        ea12, eb12 = k_a @ (f1 + f2), k_b @ (f1 + f2)
        np.testing.assert_allclose(ea12, ea1 + ea2, rtol=1e-12)
        np.testing.assert_allclose(eb12, eb1 + eb2, rtol=1e-12)

    def test_single_emitter_gives_flat_arm_a_modulus(self, geom_focused, slits, small_setup):
        axis_a, axis_b, axis_s, n_object = small_setup
        field = np.zeros(axis_s.n, dtype=complex)
        field[axis_s.n // 2] = 1.0
        k_a, _ = _full_arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
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
        _, k_b = _full_arm_kernels(geom_focused, open_mask, axis_s, axis_a, axis_b, n_object)
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
        k_a, _ = _full_arm_kernels(g, slits, axis_s, axis_a, axis_b, n_object)
        # the parity blocks leave out the pixel chirp exp(i w rho_a^2 / (2
        # z_a)), a unit factor per pixel that drops out of |E_a|^2, so it
        # is put back here before the comparison
        w = g.omega0_over_c
        k_a *= np.exp(0.5j * (w / g.z_a) * axis_a.coordinates**2)[:, None]

        # direct evaluation: h_a exp(i w (rho_a - rho_s)^2 / (2 z_a)) per entry
        d = axis_a.coordinates[:, None] - axis_s.coordinates[None, :]
        direct = fresnel_prefactor(w, g.z_a) * np.exp(0.5j * (w / g.z_a) * d**2) * axis_s.step
        peak = np.abs(direct).max()
        np.testing.assert_allclose(k_a, direct, rtol=1e-12, atol=1e-12 * peak)

    @pytest.mark.parametrize(
        "geom_name, mask_name",
        [
            pytest.param(g, m, id=g if m == "slits" else f"{g}-off-centre-mask")
            for g in ("geom_focused", "geom_defocused")
            for m in ("slits", "off-centre")
        ],
    )
    def test_arm_b_matches_per_pixel_object_integral(
        self, request, geom_name, mask_name, source, slits
    ):
        # the off-centre mask's object nodes have the midpoint m = 400 um:
        # each column of K_b then carries the unit phase exp(i c1 m eps / M)
        # of its pixel rho_b = mu_b + eps, which drops out of |E_b|^2, so
        # it is taken out here before the comparison
        g = request.getfixturevalue(geom_name)
        c = np.linspace(100e-6, 700e-6, 301)
        mask = {
            "slits": slits,
            "off-centre": ObjectMask.from_samples(
                c, (0.5 + 0.4 * np.cos(c / 40e-6)) + 0.3j * np.sin(c / 60e-6)
            ),
        }[mask_name]
        axis_a = Axis.from_half_width(8, 150e-6)
        axis_b = Axis.from_half_width(9, 400e-6, center=-30e-6 if mask_name == "off-centre" else 0.0)
        axis_s, n_object = default_sampling(g, source, mask, axis_a, axis_b)
        _, k_b = _full_arm_kernels(g, mask, axis_s, axis_a, axis_b, n_object)

        # direct evaluation: one object-plane integral per detector-b pixel
        w = g.omega0_over_c
        rho_s = axis_s.coordinates
        rho_o, w_o, _ = object_quadrature(mask, n_object)
        m = 0.5 * (rho_o[0] + rho_o[-1])
        assert (m == 0.0) == (mask_name == "slits")
        eps = axis_b.coordinates - axis_b.center
        k_b *= np.exp((-1j * (w / g.z_b) * m / g.M) * eps)[:, None]
        amp = mask.transmission(rho_o) * w_o
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

    @pytest.mark.parametrize("n", [33, 34])
    def test_paired_rows_propagate_as_the_cells(self, geom_focused, slits, n):
        # a realization's row [u | v] through the parity blocks, both in
        # complex64 as sampling has them, gives the field its unit phasors
        # give through the float64 full kernels, P + Q and P - Q on the
        # mirrored pixels, the d = 0 cell of the odd count, its own mirror,
        # included: within the first-order rounding bound of each pixel
        axis_a = Axis.from_half_width(8, 150e-6)
        axis_b = Axis.from_half_width(9, 400e-6)
        axis_s = Axis.from_half_width(n, 1e-4)
        paired = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, 64)
        full = _full_arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, 64)
        rows = _phasors(5, 10, 30, n)
        assert rows.shape == (20, 2 * ((n + 1) // 2))
        phasors = _PHASES[_phase_indices(5, 10, 30, n)]
        for k, f in zip(paired, full):
            k = _scaled(k, dtype=np.complex64)
            e = phasors @ f.T
            fields = unpair_pixels(*_parity_products(rows, k), k.n)
            assert np.all(np.abs(fields - e) <= field_rounding_bound(k))

    def test_off_centre_cells_are_refused(self, geom_focused, slits):
        # the kernels pair the cell +d with -d, so the cells must be centred
        # on rho_s = 0, as every default_sampling axis is; the message is the
        # source sums' own
        axis_a = Axis.from_half_width(8, 150e-6)
        axis_b = Axis.from_half_width(9, 400e-6)
        for axis_s in (Axis(n=41, center=0.5e-6, step=1e-6), Axis(n=2, center=0.5e-6, step=1e-6)):
            with pytest.raises(ValueError, match=r"^the source sum needs source nodes centred on rho_s = 0$"):
                arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, 64)


class TestParityKernels:
    # detector axes of each case and the blocks each arm keeps: on centred
    # axes arm a's rows need no turn (mu_a = 0) and the slits' CW is even
    # and SW odd about mu_b, so each arm keeps E_u and O_v; on moved axes
    # all four parity parts are nonzero
    CASES = {
        "centred-even": ((16, 150e-6, 0.0), (16, 400e-6, 0.0), 2),
        "odd-n_a": ((17, 150e-6, 0.0), (16, 400e-6, 0.0), 2),
        "moved-axes": ((8, 150e-6, 40e-6), (9, 400e-6, -90e-6), 4),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_intensities_match_the_full_kernels(self, geom_focused, source, slits, case):
        # |P +- Q|^2 on the mirrored pixels equals |K x|^2 of the full
        # kernels on every cell and pixel, for random complex cell fields
        spec_a, spec_b, kept = self.CASES[case]
        axis_a, axis_b = Axis.from_half_width(*spec_a), Axis.from_half_width(*spec_b)
        axis_s, n_object = default_sampling(geom_focused, source, slits, axis_a, axis_b)
        kernels = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
        assert [sum(b is not None for b in k.blocks) for k in kernels] == [kept, kept]
        n = axis_s.n
        rng = np.random.default_rng(31)
        x = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
        plus, minus = x[:, n // 2 :], x[:, (n - 1) // 2 :: -1]
        rows = np.concatenate([plus + minus, plus - minus], axis=1)
        for k in kernels:
            want = np.abs(x @ full_kernels(k, n).T) ** 2
            got = _intensities(rows, k)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want.max())

    @pytest.mark.parametrize("name", ["montecarlo-focused", "montecarlo-defocused"])
    def test_bench_configs_keep_two_blocks_an_arm(self, name):
        exp = parse_config((BENCH_CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")).resolve()
        run = exp.speckle
        for k in arm_kernels(exp.geom, exp.mask, run.axis_s, run.axis_a, run.axis_b, run.n_object):
            assert [b is not None for b in k.blocks] == [True, False, False, True]


def _traced_peak(monkeypatch, exp, run, reference):
    """The tracemalloc peak of ``estimate_gamma`` once its kernels exist,
    above the memory traced then, and the arm-a kernel it was given."""
    kernels = arm_kernels(exp.geom, exp.mask, run.axis_s, run.axis_a, run.axis_b, run.n_object)
    base = []

    def built(*args):
        k = tuple(_scaled(x) for x in kernels)
        tracemalloc.reset_peak()
        base.append(tracemalloc.get_traced_memory()[0])
        return k

    monkeypatch.setattr(montecarlo, "arm_kernels", built)
    tracemalloc.start()
    try:
        estimate_gamma(run, exp.geom, exp.source, exp.mask, reference)
        return tracemalloc.get_traced_memory()[1] - base[0], kernels[0]
    finally:
        tracemalloc.stop()


def _set_block_rows(monkeypatch, rows, n_cols):
    """Make ``_block_rows(n_cols)`` return ``rows``."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", rows * 8 * n_cols)
    assert _block_rows(n_cols) == rows


def _two_pass(k_a, k_b, seed, n, start, stop):
    """Covariance and means of realizations [start, stop) on ``n`` cells
    propagated alone, in the two-pass form, written with the batch path's
    own expressions; its rows [u | v] are summed here in float64 from the
    phasors of the mirrored cells and rounded to complex64, as ``_PAIRS``
    is."""
    idx = _phase_indices(seed, start, stop, n)
    plus, minus = _PHASES[idx[:, n // 2 :]], _PHASES[idx[:, (n - 1) // 2 :: -1]]
    fields = np.concatenate([plus + minus, plus - minus], axis=1).astype(np.complex64)
    i_a = _intensities(fields, k_a)
    i_b = _intensities(fields, k_b)
    k = stop - start
    mean_a = i_a.sum(axis=0) / k
    mean_b = i_b.sum(axis=0) / k
    return (i_a - mean_a).T @ (i_b - mean_b) / (k - 1), mean_a, mean_b


def _half_amplitude(source, axis_s):
    """The source amplitude on the rows of the parity blocks: f(d) = f(-d)
    on the nodes d >= 0 of the centred cells."""
    return source.amplitude(axis_s.coordinates[axis_s.n // 2 :])


@pytest.fixture(scope="module")
def scaled_kernels(geom_focused, source, slits, small_setup):
    """The small setup's parity kernels with the source amplitude folded
    in, in complex64 as sampling has them, and its cell count."""
    axis_a, axis_b, axis_s, n_object = small_setup
    k_a, k_b = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
    amp = _half_amplitude(source, axis_s)
    return _scaled(k_a, amp, np.complex64), _scaled(k_b, amp, np.complex64), axis_s.n


class TestBatchCovariance:
    def test_chunk_merge_matches_two_pass(
        self, monkeypatch, geom_focused, source, slits, small_setup
    ):
        # 700 realizations in one batch, blocks of 256 rows: three pieces
        # (256 + 256 + 188), the last one partial, Chan-merged
        axis_a, axis_b, axis_s, n_object = small_setup
        start, stop = 0, 700
        k_a, k_b = arm_kernels(geom_focused, slits, axis_s, axis_a, axis_b, n_object)
        _set_block_rows(monkeypatch, 256, _paired_columns(axis_s.n))
        # the batch path propagates sums and differences of the unit phasors
        # of mirrored cells through amplitude-scaled parity kernels, both in
        # complex64
        amp = _half_amplitude(source, axis_s)
        scaled = [_scaled(k, amp, np.complex64) for k in (k_a, k_b)]
        [(cov, mean_a, mean_b)] = _batch_covariances(
            *scaled, seed=13, n_cells=axis_s.n, spans=[(start, stop)]
        )

        # the sampled fields, amplitude included, through the float64 full
        # kernels: every entry within its first-order rounding bound
        k_a, k_b = full_kernels(k_a, axis_s.n), full_kernels(k_b, axis_s.n)
        fields = np.stack(
            [sample_source_field(source, axis_s, 13, r) for r in range(start, stop)]
        )
        e_a, e_b = fields @ k_a.T, fields @ k_b.T
        i_a, i_b = np.abs(e_a) ** 2, np.abs(e_b) ** 2
        ref_a = i_a.mean(axis=0)
        ref_b = i_b.mean(axis=0)
        ref_cov = (i_a - ref_a).T @ (i_b - ref_b) / (stop - start - 1)
        di_a, di_b, dcov = propagation_rounding_bound(
            *(field_rounding_bound(k) for k in scaled), e_a, e_b
        )
        assert np.all(np.abs(mean_a - ref_a) <= di_a.mean(axis=0))
        assert np.all(np.abs(mean_b - ref_b) <= di_b.mean(axis=0))
        assert np.all(np.abs(cov - ref_cov) <= dcov)

    @pytest.mark.parametrize("rows", [300, 1000])
    def test_batches_sharing_a_block_equal_each_batch_alone(self, monkeypatch, scaled_kernels, rows):
        # 1000 realizations in 7 uneven batches (142 or 143 each), blocks of
        # two batches or of all seven: each batch is reduced from its own
        # rows of the block's GEMMs, so it equals, bit for bit, the plain
        # two-pass result of that batch propagated alone. This rests on BLAS
        # giving each output row independently of the row count.
        k_a, k_b, n = scaled_kernels
        _set_block_rows(monkeypatch, rows, _paired_columns(n))
        edges = np.linspace(0, 1000, 8).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        assert {hi - lo for lo, hi in spans} == {142, 143}
        results = list(_batch_covariances(k_a, k_b, 21, n, spans))
        assert [len(r) for r in results] == [3] * len(spans)
        for (lo, hi), got in zip(spans, results):
            for g, r in zip(got, _two_pass(k_a, k_b, 21, n, lo, hi)):
                np.testing.assert_array_equal(g, r, err_msg=f"batch [{lo}, {hi})")

    @pytest.mark.parametrize("rows", [100, 50])
    def test_a_batch_longer_than_a_block_is_split_and_merged(
        self, monkeypatch, scaled_kernels, rows
    ):
        # blocks of 100 rows: each 142- or 143-row batch is cut into 100 +
        # 42/43 and the two pieces Chan-merged, the same pieces as alone;
        # blocks of 50 rows cut it into three pieces, 50 + 50 + 42/43
        k_a, k_b, n = scaled_kernels
        _set_block_rows(monkeypatch, rows, _paired_columns(n))
        edges = np.linspace(0, 1000, 8).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        results = list(_batch_covariances(k_a, k_b, 21, n, spans))
        assert len(results) == len(spans)
        for (lo, hi), got in zip(spans, results):
            [alone] = _batch_covariances(k_a, k_b, 21, n, [(lo, hi)])
            for g, a in zip(got, alone):
                np.testing.assert_array_equal(g, a)
            ref_cov, ref_a, ref_b = _two_pass(k_a, k_b, 21, n, lo, hi)
            np.testing.assert_allclose(got[1], ref_a, rtol=1e-12)
            np.testing.assert_allclose(got[2], ref_b, rtol=1e-12)
            peak = np.abs(ref_cov).max()
            np.testing.assert_allclose(got[0], ref_cov, rtol=1e-12, atol=1e-12 * peak)

    @pytest.mark.parametrize("rows", [300, 100])
    def test_a_pixel_pair_of_zero_covariance(self, monkeypatch, scaled_kernels, rows):
        # arm b's parity columns of one eps zeroed: its pixels mu_b + eps and
        # mu_b - eps see no light, so their covariance columns are exactly
        # zero. The first piece is its batch's state: a batch of one piece
        # (blocks of 300 rows) is the two-pass result byte for byte, the
        # signs of its zeros included; split into 100 + 42/43 rows, it is
        # Chan-merged and its dark columns stay zero
        k_a, k_b, n = scaled_kernels
        j, h, odd = 3, k_b.n // 2, k_b.n % 2
        cols = (odd + j, odd + j, h - 1 - j, h - 1 - j)  # E_u, E_v, O_u, O_v
        blocks = [None if b is None else b.copy() for b in k_b.blocks]
        for b, c in zip(blocks, cols):
            if b is not None:
                b[:, c] = 0
        k_b = replace(k_b, blocks=tuple(blocks))
        dark = [h + odd + j, h - 1 - j]
        _set_block_rows(monkeypatch, rows, _paired_columns(n))
        edges = np.linspace(0, 1000, 8).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        results = list(_batch_covariances(k_a, k_b, 21, n, spans))
        assert len(results) == len(spans)
        for (lo, hi), (cov, mean_a, mean_b) in zip(spans, results):
            assert np.all(mean_b[dark] == 0.0) and np.all(cov[:, dark] == 0.0)
            assert np.all(np.delete(mean_b, dark) > 0.0)
            if rows == 300:
                for g, r in zip((cov, mean_a, mean_b), _two_pass(k_a, k_b, 21, n, lo, hi)):
                    assert g.tobytes() == r.tobytes(), f"batch [{lo}, {hi})"

    def test_bench_configs_block_rows(self):
        # a 2 MiB budget of complex64 phasors: two 50-row batches a block on the 2 x 997
        # paired columns of the 1993 cells of montecarlo-defocused, one
        # 100-row batch on the 1352 columns of montecarlo-focused
        assert _block_rows(1994) == 131
        assert _block_rows(1352) == 193

    @pytest.mark.parametrize("n_batches", [20, 200])
    @pytest.mark.parametrize("name", ["montecarlo-focused", "montecarlo-defocused"])
    def test_sampling_bytes_bound_the_traced_peak(self, monkeypatch, name, n_batches):
        # at the config's 20 batches and at 200; K_a's parity blocks, which
        # sampling_bytes counts, exist before the traced peak's base
        text = (BENCH_CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
        exp = parse_config(text).resolve()
        reference = gamma_quadrature(
            exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad
        )
        run = replace(exp.speckle, n_batches=n_batches)
        peak, k_a = _traced_peak(monkeypatch, exp, run, reference)
        assert 0 < peak <= run.sampling_bytes() - _nbytes(k_a)

    def test_working_set_estimate_bounds_the_whole_run_at_one_row_blocks(
        self, monkeypatch, geom_defocused, source, slits
    ):
        # traced from before arm_kernels to the end of estimate_gamma. A row
        # [u | v] on 131073 cells is more than _BLOCK_BYTES of phasors, so
        # every block is one row and the block and fold leave no slack:
        # K_a on 16 pixels outweighs them, and the estimate holds only if it
        # counts the float64 K_a and the complex64 K_b beside the complex64
        # K_a while the kernels are rounded: 41.1 MB against a peak of
        # 36.2 MB (22.4 MB when it counted the complex64 K_a alone)
        axis_a = Axis.from_half_width(16, 200e-6)
        axis_b = Axis.from_half_width(4, 500e-6)
        axis_s, n_object = default_sampling(geom_defocused, source, slits, axis_a, axis_b)
        axis_s = Axis.from_half_width(131073, axis_s.half_width)
        assert _block_rows(_paired_columns(axis_s.n)) == 1
        run = SpeckleRun(
            seed=3, n_realizations=100, axis_s=axis_s, axis_a=axis_a, axis_b=axis_b,
            n_object=n_object, n_batches=2,
        )
        reference = _reference(geom_defocused, source, slits, axis_a, axis_b)
        needs = []
        monkeypatch.setattr(correlator, "check_bytes", lambda what, need, counts: needs.append(need))
        correlator.check_working_set(
            "Monte Carlo run", axis_s.n, n_object, axis_a.n, axis_b.n, run.sampling_bytes()
        )
        (need,) = needs
        tracemalloc.start()
        try:
            estimate_gamma(run, geom_defocused, source, slits, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need, (peak, need)

    def test_traced_peak_does_not_grow_with_the_batch_count(self, monkeypatch):
        # the montecarlo demo on 192 x 192 pixels: every batch grid held to
        # the end of the run made the peak 9.4x larger at 200 batches than
        # at 20. 960 realizations: the 48-row batches of 20 and the 4- and
        # 5-row ones of 200 both fill the 193-row blocks to 192 rows, so the
        # two runs propagate blocks of one size (at 800 realizations the
        # 40-row batches fill only 160, and the block sets the peak)
        text = DEMOS["montecarlo"].replace("grids.n_a = 64", "grids.n_a = 192").replace(
            "grids.n_b = 64", "grids.n_b = 192"
        )
        exp = parse_config(text).resolve()
        reference = gamma_quadrature(
            exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad
        )
        peaks = [
            _traced_peak(
                monkeypatch, exp, replace(exp.speckle, n_realizations=960, n_batches=n_batches),
                reference,
            )[0]
            for n_batches in (20, 200)
        ]
        assert peaks[1] <= 1.1 * peaks[0], peaks


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

    @pytest.mark.parametrize("name", ["montecarlo-focused", "montecarlo-defocused"])
    def test_bench_configs_lie_within_the_rounding_bound_of_float64(self, name):
        # the complex64 path against the same realizations propagated in
        # float64 (oracles.float64_estimate): the clipped estimate and se,
        # every entry, within their first-order rounding bounds
        exp = parse_config((BENCH_CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")).resolve()
        reference = gamma_quadrature(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad)
        grid, report = estimate_gamma(exp.speckle, exp.geom, exp.source, exp.mask, reference)
        raw, se, d_raw, d_se = float64_estimate(exp.speckle, exp.geom, exp.source, exp.mask)
        assert np.all(np.abs(grid.values - np.maximum(raw, 0.0)) <= d_raw)
        assert np.all(np.abs(report.se_per_point - se) <= d_se)

    def test_one_block_lies_within_the_probabilistic_rounding_bound(self, monkeypatch):
        # the first block the montecarlo demo propagates, on both arms,
        # against the float64 propagation of the same complex64 rows and of
        # the complex64 kernels built here from arm_kernels, within the
        # bound of Higham & Mary (oracles.float64_intensities). A kernel
        # scaled by 1.01 after the cast moves an intensity by 2%, where
        # the first-order bound of field_rounding_bound allows about 4%
        exp = parse_config(DEMOS["montecarlo"]).resolve()
        run = exp.speckle
        calls = []

        def first_block(fields, kernel):
            calls.append((fields.copy(), _intensities(fields, kernel)))
            if len(calls) == 2:
                raise _Captured
            return calls[-1][1]

        monkeypatch.setattr(montecarlo, "_intensities", first_block)
        reference = gamma_quadrature(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad)
        with pytest.raises(_Captured):
            estimate_gamma(run, exp.geom, exp.source, exp.mask, reference)
        amp = _half_amplitude(exp.source, run.axis_s)
        kernels = arm_kernels(exp.geom, exp.mask, run.axis_s, run.axis_a, run.axis_b, run.n_object)
        for (fields, got), k in zip(calls, kernels):
            want, bound = float64_intensities(fields, _scaled(k, amp, np.complex64))
            assert fields.dtype == np.complex64 and got.shape == want.shape == (100, k.n)
            assert np.all(np.abs(got - want) <= bound)

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

    def test_the_sign_of_a_zero_covariance_reaches_no_output(
        self, monkeypatch, geom_focused, source, slits, small_setup, small_reference
    ):
        # a batch covariance entry that is exactly zero carries the sign its
        # first piece's GEMM gave it. The fold starts raw, the mean and M2
        # at +0.0, so neither sign reaches the bytes of gamma_mc.csv or
        # convergence.json: here two columns are set to each zero in every
        # batch
        axis_a, axis_b, axis_s, n_object = small_setup
        run = SpeckleRun(
            seed=7, n_realizations=400, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        batches, files = montecarlo._batch_covariances, []
        for zero in (0.0, -0.0):

            def signed(*args, zero=zero):
                for cov, mean_a, mean_b in batches(*args):
                    cov[:, 5:7] = zero
                    yield cov, mean_a, mean_b

            monkeypatch.setattr(montecarlo, "_batch_covariances", signed)
            grid, report = estimate_gamma(run, geom_focused, source, slits, small_reference)
            assert np.all(grid.values[:, 5:7] == 0.0) and np.all(report.se_per_point[:, 5:7] == 0.0)
            files.append((runner._grid_csv(grid), runner._json(report.to_dict())))
        assert files[0] == files[1]

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
        # the centred axis has an odd count, so a cell sits exactly on the
        # narrow source, and its neighbours at +-1 um have amplitudes of
        # exp(-100) of it, far below what float32 holds beside the centre
        # cell's term. The stated outcome (estimate_gamma's docstring): the
        # estimate is rounding residue within the propagation rounding
        # bound of 0 (the float64 oracle's covariance is ~1e-11 of that
        # bound), or, when the residue has no positive entry, as on this
        # seed, DegenerateStatistics
        axis_a = Axis.from_half_width(12, 100e-6)
        axis_b = Axis.from_half_width(12, 200e-6)
        axis_s = Axis(n=3, center=0.0, step=1e-6)
        narrow = SourceProfile.gaussian(5e-8)
        run = SpeckleRun(
            seed=3, n_realizations=200, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=64,
        )
        raw, _, d_raw, _ = float64_estimate(run, geom_focused, narrow, slits)
        assert np.all(np.abs(raw) <= 1e-6 * d_raw)
        reference = _reference(geom_focused, narrow, slits, axis_a, axis_b)
        try:
            grid, _ = estimate_gamma(run, geom_focused, narrow, slits, reference)
        except DegenerateStatistics as err:
            assert str(err) == "covariance estimate has no positive peak"
        else:
            assert np.all(grid.values <= d_raw)

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
        # The covariance of unit-phasor rows through the full kernels k_a
        # and k_b tends to |k_a k_b^H|^2, so that product must match the
        # quadrature surface with no sampling noise at all. On this Gaussian source a missing
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
        # sampling gets complex64 blocks of its own: no view of a float64
        # buffer, K_b's half products included, outlives the cast; and
        # each is, bit for bit, the float64 block times the amplitude,
        # rounded once
        blocks = [b for k in kernels[0] for b in k.blocks if b is not None]
        assert all(b.dtype == np.complex64 and b.base is None for b in blocks)
        run = exp.speckle
        amp = _half_amplitude(exp.source, run.axis_s)
        for got, k in zip(kernels[0], arm_kernels(
            exp.geom, exp.mask, run.axis_s, run.axis_a, run.axis_b, run.n_object
        )):
            for g, w in zip(got.blocks, _scaled(k, amp, np.complex64).blocks):
                assert (g is None) == (w is None)
                if g is not None:
                    np.testing.assert_array_equal(g, w)
        k_a, k_b = (full_kernels(k, exp.speckle.axis_s.n) for k in kernels[0])
        assert normalized_l1(np.abs(k_a @ k_b.conj().T) ** 2, reference.values) < 1e-2
