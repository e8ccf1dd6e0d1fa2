"""Command-line surface: evaluate potentials and metrics, emit geodesic
charts, run verification suites with machine-readable reports, and dump
CSV grids for external plotting.

Exit codes: 0 pass, 1 verification failure, 2 usage/config error (any
SpecError: a suite run alone that does not apply to the model, or a
``--step`` refused by ``suites.check_step`` or by a safe sampler that
cannot serve it), 3 domain error, 4 an iterative routine (gauge root
find, sampler) failed to converge.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .errors import ConvergenceError, OutsideDomainError, SpecError
from .geodesics import disc_upper_bound
from .models import Model, model_from_spec
# perfbench's tracer test checks that tracing leaves cli.substream bound
from .sampling import substream  # noqa: F401
from .suites import RUNNERS, SUITES, TOL_DEFAULTS, verify

# the very table verify indexes; perfbench wraps its entries in spans
_SUITE_RUNNERS = RUNNERS


# the tolerances each command reads; any other name is refused
_METRIC_TOLS = ("metric_fd",)
_VERIFY_TOLS = tuple(name for name in TOL_DEFAULTS if name not in _METRIC_TOLS)


def _parse_tols(pairs, names) -> dict:
    """TOL_DEFAULTS with the NAME=V overrides applied, each NAME one of
    ``names``, the tolerances the command reads."""
    tols = dict(TOL_DEFAULTS)
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or name not in names:
            raise SpecError(f"unknown tolerance assignment: {item!r}")
        tols[name] = float(value)
        if not (math.isfinite(tols[name]) and tols[name] > 0):
            raise SpecError("tolerances must be positive and finite")
    return tols


def _parse_reals(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecError(f"malformed real vector {text!r}") from exc


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([complex(p.replace(" ", "")) for p in text.split(",")])
    except ValueError as exc:
        raise SpecError(f"malformed complex point {text!r}") from exc


def _load_model(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read model spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"model spec is not valid JSON: {exc}") from exc
    return model_from_spec(spec)


def _emit(payload, out_path):
    """Write a command's output to out_path, or to stdout without one.

    A record (a dict) is written as one line of JSON. Any other payload is
    an iterable of text blocks, written with one ``write`` each to a file
    opened without newline translation: ``slice`` gives its CSV this way.
    """
    if isinstance(payload, dict):
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        return
    handle = (open(out_path, "w", newline="", encoding="utf-8") if out_path
              else sys.stdout)
    try:
        for block in payload:
            handle.write(block)
    finally:
        if out_path:
            handle.close()


def _model_and_point(args):
    model = _load_model(args.model)
    z = _parse_point(args.point)
    if z.size != model.dim:
        raise SpecError(f"point dimension {z.size} does not match model "
                        f"dimension {model.dim}")
    return model, z


def cmd_eval(args) -> int:
    model, z = _model_and_point(args)
    record = model.eval_record(z)
    _emit(record, args.out)
    return 0 if record["member"] else 3


def cmd_metric(args) -> int:
    model = _load_model(args.model)
    tols = _parse_tols(args.tol, _METRIC_TOLS)
    x = _parse_reals(args.x)
    v = _parse_reals(args.xi)
    if v.size != model.dim:
        raise SpecError(f"xi dimension {v.size} does not match model "
                        f"dimension {model.dim}")
    # the model validates (x, xi) and refuses an x off its center
    closed = model.metric(x, v)
    fd = model.metric_slope(x, v)
    record = {"E_closed": closed, "E_fd": fd,
              "F_upper": disc_upper_bound(model, x, v)}
    # relative above 1, as metric_slope's settling test
    if abs(closed - fd) > tols["metric_fd"] * max(1.0, closed):
        print(f"warning: closed-form and FD metrics differ by "
              f"{abs(closed - fd):.3e}", file=sys.stderr)
    _emit(record, args.out)
    return 0


def cmd_geodesic(args) -> int:
    model, z = _model_and_point(args)
    _emit(model.geodesic_record(z), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise SpecError("--samples must be at least 1")
    model = _load_model(args.model)
    payload = verify(model, args.suite, args.seed, args.samples, args.step,
                     _parse_tols(args.tol, _VERIFY_TOLS))
    _emit(payload, args.out)
    return 0 if payload["pass"] else 1


def cmd_slice(args) -> int:
    model = _load_model(args.model)
    try:
        i, j = (int(p) for p in args.plane.split(","))
    except ValueError:
        raise SpecError(f"--plane must be two indices I,J, got "
                        f"{args.plane!r}") from None
    n = model.dim
    if not (0 <= i < 2 * n and 0 <= j < 2 * n) or i == j:
        raise SpecError("plane indices must be distinct and in [0, 2n)")
    if i < n and j < n:
        raise SpecError("plane must involve at least one imaginary coordinate")
    center = (_parse_reals(args.center) if args.center
              else np.zeros(2 * n))
    if center.size != 2 * n:
        raise SpecError(f"center must have {2 * n} coordinates")
    if not np.all(np.isfinite(center)):
        raise SpecError("--center must be finite")
    if args.resolution < 0:
        raise SpecError("--resolution must be >= 0")
    if not (math.isfinite(args.half_width) and args.half_width > 0):
        raise SpecError("--half-width must be positive and finite")
    size = args.resolution + 1 if args.resolution else 1
    try:
        # the grid before its ticks: a grid past the address space fails
        # here, having allocated nothing
        coords = np.tile(center, (size ** 2, 1))
    except MemoryError:
        raise SpecError(f"slice grid of {size} x {size} points does not "
                        "fit in memory; lower --resolution") from None
    with np.errstate(over="ignore", invalid="ignore"):
        ticks = (np.linspace(-args.half_width, args.half_width, size)
                 if args.resolution else np.array([0.0]))
        # rows run c2 fastest, in blocks of ticks.size rows sharing c1;
        # each coordinate is center + tick, the same addition the CSV
        # columns report, so each block's c1 and c2 values are read off
        # its first row and the first block
        coords[:, i] += np.repeat(ticks, ticks.size)
        coords[:, j] += np.tile(ticks, ticks.size)
    if not np.all(np.isfinite(coords)):
        raise SpecError("slice grid overflows: --center plus --half-width "
                        "is not finite")
    Z = coords[:, :n] + 1j * coords[:, n:]
    # one pass: the membership of every row and the potential of members.
    # Everything is evaluated before the file opens, so an error leaves no
    # partial file
    member, u = model.member_potential_batch(Z)
    _emit(_slice_blocks(coords[::ticks.size, i].tolist(),
                        coords[:ticks.size, j].tolist(), member, u), args.out)
    return 0


# slice writes the text of csv.writer in its default (excel) dialect itself
_SEP, _EOL = csv.excel.delimiter, csv.excel.lineterminator


def _slice_blocks(c1, c2, member, u):
    """The slice CSV as blocks of text: the header, then one block of rows
    per value of c1, each row a value of c2 in order.

    The text is what ``csv.writer`` writes: CRLF line ends, ``repr`` of
    each float, 0 or 1 for membership and an empty ``u`` outside the
    domain. ``member`` is the bool mask of the grid's rows and ``u`` the
    potential of its member rows only, in row order. Each c1 and c2 value
    is formatted once. The rows after c1 come from a table of cells, one
    per grid row: an outside cell is the text of its c2 column, copied
    whole, and a member cell is its column's head, "1,", ``repr`` of its
    u and the line end.
    """
    yield _SEP.join(["c1", "c2", "member", "u"]) + _EOL
    heads = [repr(v) + _SEP for v in c2]
    m = len(c2)
    cells = [head + "0" + _SEP + _EOL for head in heads] * len(c1)
    inside = [head + "1" + _SEP for head in heads]
    rows = np.flatnonzero(member)
    for row, column, value in zip(rows.tolist(), (rows % m).tolist(),
                                  map(repr, u.tolist())):
        cells[row] = inside[column] + value + _EOL
    for k, value in enumerate(c1):
        lead = repr(value) + _SEP
        yield lead + lead.join(cells[k * m:(k + 1) * m])


# the options shared between subcommands; each takes only those it reads
_COMMON = {
    "--seed": dict(type=int, default=42),
    "--samples": dict(type=int, default=1000),
    "--step": dict(type=float, default=1e-3, help="finite-difference step h"),
    "--tol": dict(action="append", metavar="NAME=V",
                  help="override a named tolerance"),
    "--out": dict(default=None, help="output file path"),
}


def _add_common(parser, *flags):
    parser.add_argument("--model", required=True,
                        help="path to the model spec JSON")
    for flag in flags:
        parser.add_argument(flag, **_COMMON[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pshmodels",
        description="Extremal plurisubharmonic tube models: evaluation, "
                    "geodesic charts, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the potential at a point")
    _add_common(p_eval, "--out")
    p_eval.add_argument("--point", required=True,
                        help="comma-separated complex coordinates, e.g. "
                             "'0.1+0.2j,0.3'")
    p_eval.set_defaults(func=cmd_eval)

    p_metric = sub.add_parser("metric", help="evaluate the center metric")
    _add_common(p_metric, "--tol", "--out")
    p_metric.add_argument("--x", required=True, help="center point")
    p_metric.add_argument("--xi", required=True, help="tangent direction")
    p_metric.set_defaults(func=cmd_metric)

    p_geo = sub.add_parser("geodesic", help="emit the geodesic chart "
                                            "through a point")
    _add_common(p_geo, "--out")
    p_geo.add_argument("--point", required=True)
    p_geo.set_defaults(func=cmd_geodesic)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify, *_COMMON)
    p_verify.add_argument("--suite", required=True,
                          choices=SUITES + ("all",))
    p_verify.set_defaults(func=cmd_verify)

    p_slice = sub.add_parser("slice", help="dump a CSV grid of the potential "
                                           "over an affine 2-plane")
    _add_common(p_slice, "--out")
    p_slice.add_argument("--plane", required=True, metavar="I,J",
                         help="two of the 2n real coordinates (0..n-1 real "
                              "parts, n..2n-1 imaginary parts)")
    p_slice.add_argument("--center", default=None,
                         help="2n comma-separated coordinates of the plane "
                              "base point (default: origin)")
    p_slice.add_argument("--half-width", type=float, default=1.0,
                         dest="half_width")
    p_slice.add_argument("--resolution", type=int, default=100)
    p_slice.set_defaults(func=cmd_slice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    except OutsideDomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # a SpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
