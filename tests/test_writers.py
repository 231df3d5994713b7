"""Byte-exact output of the file writers.

The manifest digests depend on every byte, so a refactor of the writers
must reproduce these files exactly.
"""

import hashlib

import numpy as np

from cpi_sim import DEMOS, parse_config, run_experiment
from cpi_sim.optics import Axis, CorrelationGrid, SampledImage
from cpi_sim.runner import write_grid_csv, write_image_csv, write_pgm


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
