"""Command-line front end.

Subcommands: verlinde, graphs, weights, theta-basis, ucurve, verify-jw;
graphs and verify-jw take any genus >= 2.
Each is one function, _cmd_<name>(args), set as its parser's handler in
_build_parser: it checks its own flags and returns (document, exit code), and
run writes exactly one JSON (or CSV) document.  Exit codes: 0 success; 1 a
domain error, a failure on valid parameters (a JSON error object on stderr,
no document; a MemoryError is one), or a verify-jw mismatch (its document,
then that object); 2 a usage error, bad flags or a document that cannot be
written to --output or stdout ("error: ..." on stderr; nothing emitted, or
only part of the document when the write fails).  Identical configurations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .jsontext import _BLOCK_ROWS, dump
from .theta import CancellationFailure, TruncationFailure, bpu_matrix
from .trigraph import BUILTIN_GRAPHS, TrivalentGraph, bridges, generate_trivalent, graph_to_text, parse_graph_text
from .ucurve import trace_slice, zero_level_fiber
from .verlinde import IntegralityFailure, verlinde_dim
from .weights import ShapeMismatch, _level_counts, count_admissible, enumerate_admissible


class UsageError(Exception):
    """Bad parameters; reported on stderr with exit code 2, nothing emitted."""


def _integer(text: str) -> int:
    """An optional '-' then ASCII decimal digits; int() also takes '+', spaces, '_' and other scripts' digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError(f"{flag} must be >= {least}, got {value}")


def _positive_finite(flag: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise UsageError(f"{flag} must be positive and finite, got {value}")


def _parse_complex(text: str, name: str) -> complex:
    """Accept 'RE,IM' or a bare real part, both finite."""
    parts = text.split(",")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        values = []
    if 1 <= len(values) <= 2 and all(map(math.isfinite, values)):
        return complex(*values)
    raise UsageError(f"{name} must look like 'RE,IM' or 'RE' with finite parts, got {text!r}")


def _resolve_graph(name_or_path: str) -> TrivalentGraph:
    """A --graph value is a builtin name (theta2, dumbbell2) or a file path."""
    path = Path(name_or_path)
    try:  # is_file itself raises for a name the file system refuses, such as one too long
        if path.is_file():
            return parse_graph_text(path.read_text())
    except OSError as exc:
        raise UsageError(f"{name_or_path}: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"{name_or_path}: {exc}") from None
    if name_or_path in BUILTIN_GRAPHS:
        return BUILTIN_GRAPHS[name_or_path]
    raise UsageError(
        f"graph {name_or_path!r} is neither a readable file nor one of {sorted(BUILTIN_GRAPHS)}"
    )


def _graph_json(graph: TrivalentGraph) -> dict:
    return {
        "vertex_count": graph.vertex_count,
        "edges": [list(e) for e in graph.edges],
    }


def _complex_json(z: complex) -> list[float]:
    return [z.real, z.imag]


def _document(args: argparse.Namespace, parameters: dict, body: dict) -> dict:
    return {"tool_version": __version__, "subcommand": args.subcommand, "parameters": parameters, **body}


def _cmd_verlinde(args: argparse.Namespace):
    _at_least("--level", args.level, 1)
    _at_least("--genus", args.genus, 1)
    import mpmath

    value = verlinde_dim(args.genus, args.level)
    p = {"genus": args.genus, "level": args.level, "precision": value.precision}
    body = {
        "dim": value.dim,
        "raw_sum": mpmath.nstr(value.raw_sum, 25),
        "error_bound": value.error_bound,
    }
    return _document(args, p, body), 0


def _census_genus(genus: int) -> None:
    if genus < 2:
        raise UsageError(f"--genus must be >= 2 for graph generation, got {genus}")


def _cmd_graphs(args: argparse.Namespace):
    _census_genus(args.genus)
    graphs = generate_trivalent(args.genus)
    body = {
        "count": len(graphs),
        "graphs": [
            dict(_graph_json(g), bridges=sorted(bridges(g)), text=graph_to_text(g))
            for g in graphs
        ],
    }
    return _document(args, {"genus": args.genus}, body), 0


def _cmd_weights(args: argparse.Namespace):
    _at_least("--level", args.level, 1)
    graph = _resolve_graph(args.graph)
    k = args.level
    p = {"graph": args.graph, "graph_text": graph_to_text(graph), "level": k, "count_only": args.count_only}
    body = {"graph": _graph_json(graph), "level": k}
    if args.count_only:
        body["count"] = count_admissible(graph, k)
    else:
        found = enumerate_admissible(graph, k)
        body["count"] = len(found)
        body["weights"] = found
    return _document(args, p, body), 0


def _normal_or_decimal(value: float, log_value: float) -> float | str:
    """value when it is a normal double, else exp(log_value) as a 17-digit decimal string."""
    import mpmath

    if sys.float_info.min <= value <= sys.float_info.max:
        return value
    return mpmath.nstr(mpmath.exp(log_value), 17)


def _cmd_theta_basis(args: argparse.Namespace):
    _at_least("--level", args.level, 1)
    tau = _parse_complex(args.tau, "--tau")
    if not tau.imag > 0:
        raise UsageError(f"--tau must have positive imaginary part, got {args.tau}")
    _positive_finite("--eps", args.eps)
    _positive_finite("--norm", args.norm)
    import mpmath

    p = {"level": args.level, "tau": [tau.real, tau.imag], "eps": args.eps, "norm": args.norm}
    matrix = bpu_matrix(args.level, tau=tau, eps=args.eps, norm=args.norm)
    log_det = matrix.log_abs_determinant()
    body = {
        "entries": matrix.entries,
        "smallest_singular_value": _normal_or_decimal(
            matrix.smallest_singular_value(), matrix.log_smallest_singular_value()
        ),
        "det_modulus": _normal_or_decimal(float(mpmath.exp(log_det)), log_det),
    }
    return _document(args, p, body), 0


def _each_b(points, convert) -> list:
    """convert(point.b) for each point, made once per b object: the points of one grid index share theirs."""
    done = {}
    for point in points:
        if id(point.b) not in done:
            done[id(point.b)] = convert(point.b)
    return [done[id(point.b)] for point in points]


def _csv_text(points):
    """The CSV text of a slice's points: the header, then _BLOCK_ROWS lines per piece."""
    yield "b,re_s,im_s,m\n"
    bs = _each_b(points, lambda b: repr(float(b)))
    for start in range(0, len(points), _BLOCK_ROWS):
        block = zip(bs[start : start + _BLOCK_ROWS], points[start : start + _BLOCK_ROWS])
        yield "".join([f"{b},{pt.s.real!r},{pt.s.imag!r},{pt.m}\n" for b, pt in block])


def _cmd_ucurve(args: argparse.Namespace):
    _at_least("--level", args.level, 1)
    u = _parse_complex(args.u, "--u")
    if not (math.isfinite(args.s_min) and math.isfinite(args.s_max)):
        raise UsageError(f"--s-min and --s-max must be finite, got {args.s_min}, {args.s_max}")
    if not args.s_min < args.s_max:
        raise UsageError(f"--s-min must be below --s-max, got {args.s_min}, {args.s_max}")
    _at_least("--grid", args.grid, 2)
    _positive_finite("--tol", args.tol)
    k = args.level
    if u == 0:
        slc = zero_level_fiber(k)
    else:
        slc = trace_slice(k, u, (args.s_min, args.s_max), args.grid, args.tol)
    if args.format == "csv":
        return _csv_text(slc.points), 0
    p = {"level": k, "u": [u.real, u.imag], "s_min": args.s_min, "s_max": args.s_max, "grid": args.grid,
         "tol": args.tol}
    points = [
        {"b": b, "b_exact": b_exact, "s": _complex_json(pt.s), "m": pt.m}
        for (b, b_exact), pt in zip(_each_b(slc.points, lambda b: (float(b), str(b))), slc.points)
    ]
    body = {"u": _complex_json(slc.u), "count": len(slc.points), "points": points}
    return _document(args, p, body), 0


def verify_jw(g: int, max_k: int, open_range: bool = False):
    """Compare count_admissible with verlinde_dim on every genus-g graph.

    Returns (rows, all_match, precision).  open_range restricts numerators to
    0..k-1, the deliberately broken variant kept as a negative control.  Each
    level's dimension is certified at the precision verlinde_dim chooses for it,
    which grows with k, so precision, the top level's, is the most any level uses.
    Each graph's counts come from one plan: its vertex order and edge
    bookkeeping are found once.  The counts go level by level: the vertex
    tables, shared by shape across the graphs, grow once before each level's
    sweeps, so levels 1..max_k cost about as much as one level-max_k plan
    per graph, and odd levels sweep the all-even labellings alone.
    """
    if type(max_k) is not int or max_k < 1:
        raise ValueError(f"max level must be an integer >= 1, got {max_k!r}")
    rows = []
    # the dimension depends on the genus and level, not on the graph
    values = [verlinde_dim(g, k) for k in range(1, max_k + 1)]
    dims = [value.dim for value in values]
    graphs = generate_trivalent(g)
    for index, (graph, counts) in enumerate(zip(graphs, _level_counts(graphs, max_k, open_range))):
        for k, (dim, count) in enumerate(zip(dims, counts), start=1):
            rows.append(
                {
                    "graph_index": index,
                    "edges": [list(e) for e in graph.edges],
                    "level": k,
                    "weight_count": count,
                    "verlinde_dim": dim,
                    "match": count == dim,
                }
            )
    return rows, all(row["match"] for row in rows), values[-1].precision


def _cmd_verify_jw(args: argparse.Namespace):
    _census_genus(args.genus)
    _at_least("--max-level", args.max_level, 1)
    rows, ok, precision = verify_jw(args.genus, args.max_level, open_range=args.open_weight_range)
    p = {"genus": args.genus, "max_level": args.max_level, "open_weight_range": args.open_weight_range,
         "precision": precision}
    return _document(args, p, {"rows": rows, "all_match": ok}), 0 if ok else 1


def _report(subcommand: str, error: str, message: str) -> None:
    """The JSON error object of a failed run, on stderr."""
    fields = {"tool_version": __version__, "subcommand": subcommand, "error": error, "message": message}
    sys.stderr.write(json.dumps(fields, sort_keys=True) + "\n")


def _emit(document, write) -> None:
    if type(document) is dict:
        dump(document, write)
        write("\n")
    else:  # CSV text, piece by piece
        for piece in document:
            write(piece)


def run(args: argparse.Namespace) -> int:
    """Run a parsed command line: its handler checks the flags and builds the whole
    document, then it is written out; a CSV text is made a block of lines at a
    time as it is written.

    Raises UsageError for bad flags, or when the document cannot be written to
    the --output path or to stdout.
    """
    try:
        document, code = args.handler(args)
    except (IntegralityFailure, TruncationFailure, CancellationFailure, ShapeMismatch, ValueError) as exc:
        _report(args.subcommand, type(exc).__name__, str(exc))
        return 1
    except MemoryError as exc:  # numpy raises a subclass of its own
        _report(args.subcommand, "MemoryError", str(exc))
        return 1
    if args.output is None:
        try:
            _emit(document, sys.stdout.write)
            sys.stdout.flush()
        except OSError as exc:
            # the flush at shutdown would fail again, so what is left goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise UsageError(f"stdout: {exc.strerror}") from None
    else:
        try:
            with open(args.output, "w") as fh:
                _emit(document, fh.write)
        except OSError as exc:
            raise UsageError(f"{args.output}: {exc.strerror}") from None
    if code != 0:
        _report(args.subcommand, "VerificationMismatch", "weight count differs from the dimension in at least one row")
    return code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later main() of the process."""
    parser = argparse.ArgumentParser(
        prog="bsq",
        description="Bohr-Sommerfeld quantization toolkit",
    )
    parser.add_argument("--version", action="version", version=f"bsq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, handler):
        sp.add_argument("--output", help="write the document to this path instead of stdout")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("verlinde", help="certified dimension of the level-k quantization")
    sp.add_argument("--genus", type=_integer, required=True)
    sp.add_argument("--level", type=_integer, required=True)
    add_common(sp, _cmd_verlinde)

    sp = sub.add_parser("graphs", help="trivalent graph classes for a genus")
    sp.add_argument("--genus", type=_integer, required=True)
    add_common(sp, _cmd_graphs)

    sp = sub.add_parser("weights", help="admissible weights on a graph")
    sp.add_argument("--graph", required=True, help="graph file, or builtin name theta2/dumbbell2")
    sp.add_argument("--level", type=_integer, required=True)
    sp.add_argument("--count-only", action="store_true")
    add_common(sp, _cmd_weights)

    sp = sub.add_parser("theta-basis", help="theta evaluation matrix at the BS points")
    sp.add_argument("--level", type=_integer, required=True)
    sp.add_argument("--tau", default="0,1", help="modular parameter as RE,IM (default 0,1)")
    sp.add_argument("--eps", type=float, default=1e-12)
    sp.add_argument("--norm", type=float, default=1.0, help="half-form scaling constant")
    add_common(sp, _cmd_theta_basis)

    sp = sub.add_parser("ucurve", help="trace a u-curve slice (u=0 gives the zero fiber)")
    sp.add_argument("--level", type=_integer, required=True)
    sp.add_argument("--u", required=True, help="level parameter as RE,IM or RE")
    sp.add_argument("--s-min", type=float, default=-2.0)
    sp.add_argument("--s-max", type=float, default=2.0)
    sp.add_argument("--grid", type=_integer, default=1000)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(sp, _cmd_ucurve)

    sp = sub.add_parser("verify-jw", help="weight counts against Verlinde dimensions")
    sp.add_argument("--genus", type=_integer, required=True)
    sp.add_argument("--max-level", type=_integer, required=True)
    sp.add_argument(
        "--open-weight-range",
        action="store_true",
        help="numerators 0..k-1 instead of 0..k; breaks the identity on purpose (negative control)",
    )
    add_common(sp, _cmd_verify_jw)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
