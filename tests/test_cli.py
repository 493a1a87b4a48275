"""Command-line interface: exit codes, written factors, report formats."""

import dataclasses
import json

import numpy as np
import pytest

from csdk.cli import _options_from_args, build_parser, main
from csdk.cmat import load_matrix, save_matrix
from csdk.csd import CsdOptions
from csdk.kernel import U_ROUNDOFF
from csdk.testgen import gen_clustered


def write_identity_block(path, n=4):
    a = np.vstack([np.eye(n), np.zeros((n, n))]).astype(complex)
    save_matrix(path, a)
    return a


def test_compute_identity_block(tmp_path, capsys):
    src = tmp_path / "in.cmat"
    write_identity_block(src, n=4)
    prefix = tmp_path / "out"
    code = main(
        ["compute", "--input", str(src), "--m1", "4", "--out", str(prefix)]
    )
    assert code == 0
    c = load_matrix(f"{prefix}.c.cmat")
    np.testing.assert_allclose(c.real, np.eye(4), atol=1e-14)
    for suffix in ("u1", "u2", "s", "v1", "theta"):
        assert (tmp_path / f"out.{suffix}.cmat").exists()
    out = capsys.readouterr().out
    assert "resid2" in out and "branch" in out


def test_compute_jsonl_report(tmp_path, capsys):
    src = tmp_path / "in.cmat"
    write_identity_block(src, n=3)
    code = main(
        [
            "compute",
            "--input",
            str(src),
            "--m1",
            "3",
            "--out",
            str(tmp_path / "o"),
            "--format",
            "jsonl",
        ]
    )
    assert code == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["branch"] == "full_rank"
    assert row["resid2"] <= 10 * 3 * U_ROUNDOFF


def test_compute_clustered_class(tmp_path, capsys):
    n = 30
    src = tmp_path / "c2.cmat"
    save_matrix(src, gen_clustered(n, seed=2))
    code = main(
        ["compute", "--input", str(src), "--m1", str(n), "--out", str(tmp_path / "o")]
    )
    assert code == 0
    out = capsys.readouterr().out
    line = out.strip().splitlines()[-1]
    cells = line.split()
    # orthogonality columns sit at fixed positions; parse from the header.
    header = out.strip().splitlines()[0].split()
    row = dict(zip(header, cells))
    for key in ("orthU1/u", "orthU2/u", "orthV1/u"):
        assert float(row[key]) <= 50 * n


def test_compute_flag_combinations(tmp_path, capsys):
    src = tmp_path / "in.cmat"
    write_identity_block(src, n=4)
    code = main(
        [
            "compute",
            "--input",
            str(src),
            "--m1",
            "4",
            "--out",
            str(tmp_path / "o"),
            "--method",
            "zolo",
            "--epsilon",
            "1e-14",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("input,")


def test_compute_options_cover_every_knob(monkeypatch):
    """The compute command line sets exactly the fields of CsdOptions."""
    args = build_parser().parse_args(
        ["compute", "--input", "a.cmat", "--m1", "4", "--out", "o"]
    )
    passed = {}

    def spy(**kwargs):
        passed.update(kwargs)
        return CsdOptions(**kwargs)

    monkeypatch.setattr("csdk.cli.CsdOptions", spy)
    _options_from_args(args)
    assert set(passed) == {f.name for f in dataclasses.fields(CsdOptions)}


def test_malformed_file_exit_3(tmp_path, capsys):
    src = tmp_path / "bad.cmat"
    src.write_text("cmat 2 two real\n1 2 3 4\n")
    code = main(["compute", "--input", str(src), "--m1", "1", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("data", ["x 2\n1 2\n", "-1 -1\n1\n"])
def test_malformed_matrix_market_size_exit_3(tmp_path, capsys, data):
    src = tmp_path / "bad.mtx"
    src.write_text("%%MatrixMarket matrix array real general\n" + data)
    code = main(["compute", "--input", str(src), "--m1", "1", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_unwritable_output_exit_3(tmp_path, capsys):
    src = tmp_path / "in.cmat"
    write_identity_block(src, n=3)
    prefix = tmp_path / "missing" / "o"
    code = main(["compute", "--input", str(src), "--m1", "3", "--out", str(prefix)])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_far_from_isometry_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    src = tmp_path / "g.cmat"
    save_matrix(src, 3.0 * (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))))
    code = main(["compute", "--input", str(src), "--m1", "3", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "rejected" in capsys.readouterr().err


def test_bad_shape_exit_1(tmp_path, capsys):
    src = tmp_path / "in.cmat"
    write_identity_block(src, n=4)
    code = main(["compute", "--input", str(src), "--m1", "2", "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("epsilon", ["1e-3", "0"])
@pytest.mark.parametrize("command", ["compute", "bench"])
def test_epsilon_out_of_range_exit_1(tmp_path, capsys, command, epsilon):
    src = tmp_path / "in.cmat"
    write_identity_block(src, n=3)
    if command == "compute":
        argv = ["compute", "--input", str(src), "--m1", "3", "--out", str(tmp_path / "o")]
    else:
        argv = ["bench", "--classes", "1", "--sizes", "8", "--seeds", "1"]
    code = main(argv + ["--epsilon", epsilon])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_csv(tmp_path, capsys):
    code = main(
        [
            "bench",
            "--classes",
            "1",
            "--sizes",
            "12",
            "--seeds",
            "1..2",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + two seeds
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["class"] == "1"
        assert int(row["n"]) == 12
        assert float(row["orthU1/u"]) <= 50 * 12


@pytest.mark.parametrize(
    "classes,sizes,seeds",
    [
        ("9", "8", "1"),
        ("1", "8", "abc"),
        ("1", "8", "1.."),
        ("1", "abc", "1"),
        ("1", "..8", "1"),
        ("1", "1", "1"),
        ("1", "8,0", "1"),
        ("1", "8", "3..1"),
        ("1", "8", ","),
        ("1", ",", "1"),
        ("", "8", "1"),
    ],
)
def test_bench_rejects_bad_class(capsys, classes, sizes, seeds):
    code = main(["bench", "--classes", classes, "--sizes", sizes, "--seeds", seeds])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_noisy_scaled_residual(capsys):
    code = main(
        [
            "bench",
            "--classes",
            "1",
            "--noisy",
            "--sizes",
            "12",
            "--seeds",
            "1",
            "--format",
            "jsonl",
        ]
    )
    assert code == 0
    row = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert row["class"] == "1'"
    assert row["resid/d"] <= 10.0
