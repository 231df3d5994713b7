"""Byte-exact output of the file writers.

The manifest digests depend on every byte, so a refactor of the writers
must reproduce these files exactly. The CSV renderers are checked against
a naive per-cell reference, written out below, on random and real grids;
the JSON writer against ``json.dumps(payload, sort_keys=True, indent=2)``.
"""

import builtins
import hashlib
import json

import numpy as np
import pytest

from cpi_sim import (
    DEMOS,
    RefocusSpec,
    __version__,
    gamma_geometric,
    gamma_quadrature,
    ghost_image,
    parse_config,
    refocus_grid,
    run_experiment,
)
from cpi_sim import runner
from cpi_sim.optics import Axis, CorrelationGrid, SampledImage
from cpi_sim.runner import write_grid_csv, write_image_csv, write_pgm

# Values whose shortest round-trip form is easy to get wrong: signed zero,
# the smallest subnormal, extreme exponents, a repeating fraction.
SPECIAL_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1 / 3, 1e300]

# The refocus demo geometry in geometric mode on a 512 x 256 grid: the
# write-heavy run, pinned at full size.
GEOMETRIC_WIDE = """\
geometry.z_a = 0.1
geometry.z_b = 0.08
geometry.S_o = 0.2
geometry.F = 0.05
geometry.lambda0 = 500e-9
source.kind = tophat
source.width = 4.8e-3
object.kind = double_slit
object.slit_width = 200e-6
object.separation = 600e-6
grids.n_a = 512
grids.span_a = 1.75e-3
grids.n_b = 256
grids.span_b = 1.1e-3
run.mode = geometric
run.seed = 0
"""


def _num(value) -> str:
    return repr(float(value))


def _axis_line(name: str, axis: Axis) -> str:
    return f"# {name}: n={axis.n} center={_num(axis.center)} step={_num(axis.step)}"


def naive_grid_csv(grid: CorrelationGrid) -> bytes:
    """Reference grid CSV: one formatted line per (rho_a, rho_b) cell."""
    lines = [
        f"# cpi-sim {__version__}",
        _axis_line("axis_a", grid.axis_a),
        _axis_line("axis_b", grid.axis_b),
        f"# z_a={_num(grid.z_a)} z_b={_num(grid.z_b)} M={_num(grid.M)}",
        "rho_a_m,rho_b_m,value",
    ]
    valid = grid.validity
    for i, a in enumerate(grid.axis_a.coordinates):
        for j, b in enumerate(grid.axis_b.coordinates):
            value = _num(grid.values[i, j]) if valid[i, j] else ""
            lines.append(f"{_num(a)},{_num(b)},{value}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def naive_image_csv(image: SampledImage) -> bytes:
    """Reference image CSV: one formatted line per sample."""
    lines = [
        f"# cpi-sim {__version__}",
        f"# label: {image.label}",
        _axis_line("axis", image.axis),
        "rho_m,value",
    ]
    for x, v in zip(image.axis.coordinates, image.values):
        lines.append(f"{_num(x)},{_num(v)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _grid_bytes(tmp_path, grid: CorrelationGrid) -> bytes:
    write_grid_csv(tmp_path / "grid.csv", grid)
    return (tmp_path / "grid.csv").read_bytes()


def _image_bytes(tmp_path, image: SampledImage) -> bytes:
    write_image_csv(tmp_path / "image.csv", image)
    return (tmp_path / "image.csv").read_bytes()


def _random_values(rng, shape) -> np.ndarray:
    """Nonnegative values over many decades, with the special values mixed in."""
    values = rng.random(shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    flat = values.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, len(SPECIAL_VALUES)), replace=False)
    flat[picks] = SPECIAL_VALUES[: len(picks)]
    return values


@pytest.fixture(scope="module")
def refocus_demo_grids():
    exp = parse_config(DEMOS["refocus"]).resolve()
    gamma = gamma_quadrature(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad)
    return gamma, refocus_grid(gamma, RefocusSpec())


def test_grid_csv_bytes_with_a_masked_sample(tmp_path):
    grid = CorrelationGrid(
        Axis(3, 1e-6, 0.5e-6),
        Axis(2, 0.0, 2e-6),
        np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 1 / 3]]),
        z_a=0.1,
        z_b=0.08,
        M=1.0,
        valid=np.array([[True, True], [True, False], [True, True]]),
    )
    write_grid_csv(tmp_path / "grid.csv", grid)
    assert (tmp_path / "grid.csv").read_bytes() == (
        b"# cpi-sim 0.1.0\n"
        b"# axis_a: n=3 center=1e-06 step=5e-07\n"
        b"# axis_b: n=2 center=0.0 step=2e-06\n"
        b"# z_a=0.1 z_b=0.08 M=1.0\n"
        b"rho_a_m,rho_b_m,value\n"
        b"5e-07,-1e-06,0.1\n"
        b"5e-07,1e-06,0.2\n"
        b"1e-06,-1e-06,0.3\n"
        b"1e-06,1e-06,\n"
        b"1.5e-06,-1e-06,0.5\n"
        b"1.5e-06,1e-06,0.3333333333333333\n"
    )


def test_image_csv_bytes(tmp_path):
    image = SampledImage(Axis(4, 0.0, 1e-5), np.array([0.0, 0.25, 1 / 3, 2.0]), "ghost")
    write_image_csv(tmp_path / "image.csv", image)
    assert (tmp_path / "image.csv").read_bytes() == (
        b"# cpi-sim 0.1.0\n"
        b"# label: ghost\n"
        b"# axis: n=4 center=0.0 step=1e-05\n"
        b"rho_m,value\n"
        b"-1.5000000000000002e-05,0.0\n"
        b"-5e-06,0.25\n"
        b"5e-06,0.3333333333333333\n"
        b"1.5000000000000002e-05,2.0\n"
    )


def test_pgm_of_a_1d_image_is_a_32_row_strip(tmp_path):
    assert write_pgm(tmp_path / "strip.pgm", np.array([0.0, 0.5, 1.0])) == (0.0, 1.0)
    assert (tmp_path / "strip.pgm").read_bytes() == (
        b"P5\n3 32\n65535\n" + b"\x00\x00\x80\x00\xff\xff" * 32
    )


def test_pgm_of_a_constant_array_is_black(tmp_path):
    assert write_pgm(tmp_path / "flat.pgm", np.full((2, 3), 0.7)) == (0.7, 0.7)
    assert (tmp_path / "flat.pgm").read_bytes() == b"P5\n3 2\n65535\n" + bytes(12)


def test_budget_demo_csv_bytes(tmp_path):
    manifest = run_experiment(parse_config(DEMOS["budget"]), out_dir=tmp_path)
    expected = {
        "budget.csv": (616, "d3b0b4f001356beaf5bad8933dbd265f79bc72c384072baa8218db7fc30a790e"),
        "budget_continuous.csv": (
            7396,
            "db001360977210c0517d748da2cc8ff5213c0235b73fa5e098eb20d230089acf",
        ),
    }
    for name, (size, digest) in expected.items():
        raw = (tmp_path / name).read_bytes()
        assert (len(raw), hashlib.sha256(raw).hexdigest()) == (size, digest)
    assert {f["name"]: (f["bytes"], f["sha256"]) for f in manifest.files} == expected
    head = (tmp_path / "budget.csv").read_bytes().split(b"\n")[:4]
    assert head == [
        b"# cpi-sim 0.1.0", b"# n_tot=50 delta=1e-05", b"scheme,N_x,N_u", b"plenoptic,1,50"
    ]


def _mask(rng, shape, kind: str) -> np.ndarray | None:
    if kind == "none":
        return None
    valid = np.ones(shape, dtype=bool)
    if kind == "random":
        valid = rng.random(shape) < 0.7
    elif kind == "full_rows":  # whole rho_a rows masked off, next to partial ones
        valid = rng.random(shape) < 0.5
        valid[:: 2] = False
    elif kind == "one_masked":
        valid[tuple(rng.integers(0, n) for n in shape)] = False
    elif kind == "one_valid":
        valid[:] = False
        valid[tuple(rng.integers(0, n) for n in shape)] = True
    return valid


@pytest.mark.parametrize("mask", ["none", "random", "full_rows", "one_masked", "one_valid"])
@pytest.mark.parametrize(
    "axes",
    [
        ((7, 0.0, 1e-6), (5, 0.0, 2e-6)),
        ((2, -3.5e-4, 1.25e-5), (2, 2e-4, 3e-6)),  # n = 2, off-centre
        ((9, -1e-3, 3.3e-7), (4, -7.5e-4, 1.1e-5)),  # every coordinate negative
        ((2, 1e-3, 7e-5), (13, -2e-5, 1e-6)),
    ],
    ids=["centred", "n2_offcentre", "negative", "wide_b"],
)
def test_grid_csv_matches_the_naive_reference(tmp_path, axes, mask):
    rng = np.random.default_rng(0)
    (na, ca, sa), (nb, cb, sb) = axes
    grid = CorrelationGrid(
        Axis(na, ca, sa),
        Axis(nb, cb, sb),
        _random_values(rng, (na, nb)),
        z_a=0.1,
        z_b=0.08,
        M=1 / 3,
        valid=_mask(rng, (na, nb), mask),
    )
    assert _grid_bytes(tmp_path, grid) == naive_grid_csv(grid)


def test_grid_csv_of_special_values_matches_the_naive_reference(tmp_path):
    grid = CorrelationGrid(
        Axis(2, -1e-6, 1e-6),
        Axis(3, 0.0, 1e-6),
        np.array(SPECIAL_VALUES).reshape(2, 3),
        z_a=0.1,
        z_b=0.1,
        M=1.0,
    )
    raw = _grid_bytes(tmp_path, grid)
    assert raw == naive_grid_csv(grid)
    assert raw.endswith(
        b"-1.5e-06,-1e-06,0.0\n-1.5e-06,0.0,-0.0\n-1.5e-06,1e-06,5e-324\n"
        b"-5e-07,-1e-06,1e-300\n-5e-07,0.0,0.3333333333333333\n-5e-07,1e-06,1e+300\n"
    )


def test_grid_csv_of_repeated_bit_patterns_matches_the_naive_reference(tmp_path):
    # A few bit patterns repeated across rows and columns; 0.0 and -0.0 are
    # equal as floats but print differently.
    patterns = np.array([0.0, -0.0, 5e-324, 1 / 3, 1e300])
    rng = np.random.default_rng(5)
    values = patterns[rng.integers(0, len(patterns), size=(6, 9))]
    values[:, 0] = -0.0
    values[0] = 0.0
    valid = rng.random(values.shape) < 0.6
    valid[:, 0] = ~valid[:, 1]  # masked -0.0 cells next to valid ones
    valid[3] = False  # one fully masked rho_a row
    grid = CorrelationGrid(
        Axis(6, 0.0, 1e-6), Axis(9, 1e-6, 2e-7), values, z_a=0.1, z_b=0.08, M=0.8, valid=valid
    )
    assert _grid_bytes(tmp_path, grid) == naive_grid_csv(grid)


def test_refocus_demo_grids_match_the_naive_reference(tmp_path, refocus_demo_grids):
    gamma, refocused = refocus_demo_grids
    assert refocused.valid is not None and not refocused.valid.all()
    for grid in (gamma, refocused):
        assert _grid_bytes(tmp_path, grid) == naive_grid_csv(grid)


@pytest.mark.parametrize(
    "axis",
    [(6, 0.0, 1e-5), (2, -4e-4, 3e-6), (11, -2e-3, 1.7e-7)],
    ids=["centred", "n2_offcentre", "negative"],
)
def test_image_csv_matches_the_naive_reference(tmp_path, axis):
    rng = np.random.default_rng(axis[0])
    image = SampledImage(Axis(*axis), _random_values(rng, (axis[0],)), "refocused")
    assert _image_bytes(tmp_path, image) == naive_image_csv(image)


def test_image_csv_of_special_values_and_demo_images(tmp_path, refocus_demo_grids):
    gamma, refocused = refocus_demo_grids
    images = [
        SampledImage(Axis(6, 0.0, 1e-6), np.array(SPECIAL_VALUES), "ghost"),
        SampledImage(
            Axis(8, 0.0, 1e-6), np.array([0.0, -0.0, 1 / 3, 0.0, -0.0, 1 / 3, 5e-324, -0.0]), "ghost"
        ),
        ghost_image(gamma),
        ghost_image(refocused, label="refocused"),
    ]
    for image in images:
        assert _image_bytes(tmp_path, image) == naive_image_csv(image)


def test_geometric_wide_files_are_pinned(tmp_path):
    manifest = run_experiment(parse_config(GEOMETRIC_WIDE), out_dir=tmp_path)
    expected = {
        "geometric.csv": (
            6558534,
            "7bdb3fdd574d3623b72c84ae4bfa2a168b3668d3ed60a6acb8efc9543fbc5115",
        ),
        "geometric.pgm": (
            262161,
            "ad8f02edb4d7fe0309b5c3f7ca3c631a7d27185de3db2d37049bc6001521dd62",
        ),
    }
    for name, (size, digest) in expected.items():
        raw = (tmp_path / name).read_bytes()
        assert (len(raw), hashlib.sha256(raw).hexdigest()) == (size, digest)
    assert {f["name"]: (f["bytes"], f["sha256"]) for f in manifest.files} == expected


def test_geometric_wide_grid_formats_each_distinct_value_once(tmp_path, monkeypatch):
    exp = parse_config(GEOMETRIC_WIDE).resolve()
    grid = gamma_geometric(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b)
    distinct = len(set(grid.values.view(np.uint64).ravel().tolist()))
    assert distinct == 2
    calls = []

    def spy(value):
        calls.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(runner, "repr", spy, raising=False)
    write_grid_csv(tmp_path / "grid.csv", grid)
    header_numbers = 7  # center and step of both axes, then z_a, z_b, M
    assert len(calls) == grid.axis_a.n + grid.axis_b.n + distinct + header_numbers


# Leaves whose JSON text is easy to get wrong: json's names for nan and the
# infinities, signed zero, the smallest subnormal, the floats where repr
# turns to exponent form, a float64 subclass, and strings json escapes.
JSON_LEAVES = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16, 1e-05, 1 / 3,
    True, False, None, 0, -7, 2**70, np.float64(0.1), np.float64(-0.0),
    "", "ρ_a µm", 'quote " backslash \\ tab \t newline \n nul \x00', "/", "\u2028",
]


def _reference_json(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _random_json(rng, depth: int):
    """A nested payload: dicts, lists and tuples of every kind, numeric
    lists (the C-encoder path) among them, down to ``depth`` levels."""
    kind = rng.integers(8) if depth else 0
    if kind == 0:  # a leaf
        return JSON_LEAVES[rng.integers(len(JSON_LEAVES))]
    if kind == 1:  # floats over many decades, with the special ones mixed in
        values = (rng.standard_normal(rng.integers(1, 6)) * 10.0 ** rng.integers(-20, 20)).tolist()
        return values + [float(v) for v in rng.choice(JSON_LEAVES[:9], 2)]
    if kind == 2:  # ints and floats mixed
        return [int(v) if v % 2 else float(v) for v in rng.integers(-99, 99, rng.integers(1, 6))]
    if kind == 3:  # a row of numbers broken by one bool, None or float64
        row = rng.random(4).tolist()
        row[rng.integers(4)] = [True, None, np.float64(2.5)][rng.integers(3)]
        return row
    if kind == 4:  # an se_per_point-like list of lists
        return rng.random((rng.integers(1, 4), rng.integers(0, 4))).tolist()
    if kind == 5:
        return {}
    items = [_random_json(rng, depth - 1) for _ in range(rng.integers(0, 5))]
    if kind == 6:
        return {f"k{rng.integers(1000)}-{i}": v for i, v in enumerate(items)} | {"é": items}
    return tuple(items) if rng.integers(2) else items


def test_json_has_the_layout_of_json_dumps():
    for payload in [
        {},
        {"leaves": JSON_LEAVES, "one each": {str(i): v for i, v in enumerate(JSON_LEAVES)}},
        {"empty": [[], {}, ()], "tuple": (1, 2.5), "grid": [[0.5, -0.0], [1e16, 5e-324]]},
        {"mixed": [1, 2.5, "x", None, [3, 4.0], {"b": [], "a": (True,)}], "z": [{}]},
        {3: "int key", 1.5: "float key"},
    ]:
        assert runner._json(payload) == _reference_json(payload), payload
    rng = np.random.default_rng(37)
    for _ in range(300):
        payload = {"root": _random_json(rng, 4), "n": rng.integers(10).item()}
        assert runner._json(payload) == _reference_json(payload), payload


def test_json_runs_no_pure_python_encoder(monkeypatch):
    # indent turns json's C encoder off for the whole payload; the writer
    # lays out the indent itself, so json's Python encoder never runs
    def refused(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    payload = {"se_per_point": [[0.25, 1e-05]] * 3, "n": 2, "label": "x", "ok": [True, None]}
    assert runner._json(payload).startswith(b'{\n  "label": "x",\n  "n": 2,\n  "ok": [\n    true,')


@pytest.mark.parametrize(
    "demo, names",
    [("montecarlo", ["convergence.json", "manifest.json"]), ("refocus", ["manifest.json"])],
)
def test_demo_json_files_have_the_json_layout(tmp_path, demo, names):
    run_experiment(parse_config(DEMOS[demo]), out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.glob("*.json")) == names
    for name in names:
        raw = (tmp_path / name).read_bytes()
        assert raw == _reference_json(json.loads(raw)), name
