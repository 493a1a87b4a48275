"""Command-line front end.

Three subcommands: `compute` factorizes a matrix read from a file and
writes the factors next to a report; `bench` runs the seeded generator
classes at benchmark sizes and prints one metrics row per (class, n,
seed); `selftest` runs the acceptance suite.

Exit codes for compute: 0 success, 1 internal error, 2 input rejected as
too far from a partial isometry, 3 file or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import acceptance
from .cmat import load_matrix, save_matrix
from .csd import POLAR_METHODS, CsdOptions, CsdResult, csd
from .errors import CsdkError, MatrixFormatError, NotNearIsometryError
from .isometry import StabilityReport, stability_report
from .testgen import TestCase, bench_sizes, generate

_REPORT_FIELDS = (
    ("residual_2norm", "resid2"),
    ("d_of_a", "d(A)"),
    ("scaled_residual", "resid/d"),
    ("orth_u1", "orthU1/u"),
    ("orth_u2", "orthU2/u"),
    ("orth_v1", "orthV1/u"),
    ("cs_identity_err", "cs_ident"),
)


def _options_from_args(args) -> CsdOptions:
    return CsdOptions(polar_method=args.method)


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    if fmt == "jsonl":
        for row in rows:
            out.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([_cell(row[k]) for k in keys] for row in rows)
    else:
        widths = {
            k: max(len(k), *(len(_cell(r[k])) for r in rows)) for k in keys
        }
        out.write("  ".join(k.rjust(widths[k]) for k in keys) + "\n")
        for row in rows:
            out.write("  ".join(_cell(row[k]).rjust(widths[k]) for k in keys) + "\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".3e")
    return str(v)


def _report_row(rep: StabilityReport, head: dict) -> dict:
    row = dict(head)
    for field, label in _REPORT_FIELDS:
        row[label] = getattr(rep, field)
    return row


def _cmd_compute(args) -> int:
    try:
        a = load_matrix(args.input)
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        result = csd(a, args.m1, _options_from_args(args))
    except NotNearIsometryError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (CsdkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _write_factors(args.out, result)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    rep = stability_report(a, result)
    head = {"input": args.input, "branch": result.branch, "k": result.k}
    _emit_rows([_report_row(rep, head)], args.format, sys.stdout)
    return 0


def _write_factors(prefix: str, result: CsdResult) -> None:
    save_matrix(f"{prefix}.u1.cmat", result.u1)
    save_matrix(f"{prefix}.u2.cmat", result.u2)
    save_matrix(f"{prefix}.c.cmat", np.diag(result.c))
    save_matrix(f"{prefix}.s.cmat", np.diag(result.s))
    save_matrix(f"{prefix}.v1.cmat", result.v1)
    save_matrix(f"{prefix}.theta.cmat", result.theta)


def _parse_int_list(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = (int(x) for x in part.split("..", 1))
            if lo > hi:
                raise ValueError(f"range {part!r} descends")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError(f"{text!r} names no values")
    return out


def _bench_one(cid: int, noisy: bool, n: int, seed: int, opts: CsdOptions) -> dict:
    case = TestCase(cid, noisy, n, seed)
    a = generate(case)
    result = csd(a, n, opts)
    rep = stability_report(a, result)
    return _report_row(
        rep, {"class": case.label, "n": n, "seed": seed, "k": result.k}
    )


def _cmd_bench(args) -> int:
    try:
        classes = _parse_int_list(args.classes)
        sizes = _parse_int_list(args.sizes) if args.sizes else bench_sizes()
        seeds = _parse_int_list(args.seeds)
    except ValueError as exc:
        print(
            f"error: --classes, --sizes and --seeds take integers and ranges "
            f"lo..hi ({exc})",
            file=sys.stderr,
        )
        return 1
    if not set(classes) <= {1, 2, 3, 4}:
        print("error: classes must be within 1..4", file=sys.stderr)
        return 1
    if any(n < 2 for n in sizes):
        print("error: sizes must be at least 2", file=sys.stderr)
        return 1
    opts = _options_from_args(args)
    rows = [
        _bench_one(cid, args.noisy, n, seed, opts)
        for cid in sorted(classes)
        for n in sizes
        for seed in seeds
    ]
    _emit_rows(rows, args.format, sys.stdout)
    return 0


def _cmd_selftest(_args) -> int:
    return 0 if all(r.passed for r in acceptance.run_all()) else 1


def _add_common_options(parser) -> None:
    parser.add_argument(
        "--method",
        choices=POLAR_METHODS,
        default=CsdOptions().polar_method,
        help="route for the two polar decompositions (default: %(default)s)",
    )
    parser.add_argument(
        "--format", choices=("table", "csv", "jsonl"), default="table"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csdk",
        description="CS decomposition of stacked orthonormal-column matrices "
        "and partial isometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="factorize a matrix from a file")
    compute.add_argument("--input", required=True)
    compute.add_argument("--m1", type=int, required=True, help="rows of the top block")
    compute.add_argument("--out", required=True, help="output file prefix")
    _add_common_options(compute)
    compute.set_defaults(func=_cmd_compute)

    bench = sub.add_parser("bench", help="run the generator classes and report metrics")
    bench.add_argument("--classes", default="1,2,3,4")
    bench.add_argument("--noisy", action="store_true")
    bench.add_argument("--sizes", default="")
    bench.add_argument("--seeds", default="1,2,3")
    _add_common_options(bench)
    bench.set_defaults(func=_cmd_bench)

    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
