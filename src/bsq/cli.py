"""Command-line front end.

Subcommands: verlinde, graphs, weights, theta-basis, ucurve, verify-jw.
Each run validates its parameters, then writes exactly one JSON (or CSV)
document.  Exit codes: 0 success, 1 domain error (JSON error object on
stderr), 2 usage error (nothing emitted).  Identical configurations produce
byte-identical output.  The environment variable BSQ_PRECISION overrides the
Verlinde working precision in bits; without it, verlinde uses the fewest
bits, at least 96, that certify its dimension, and verify-jw uses 96.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

from . import __version__
from .jsontext import dumps
from .theta import TruncationFailure, bpu_matrix
from .trigraph import BUILTIN_GRAPHS, TrivalentGraph, bridges, generate_trivalent, graph_to_text, parse_graph_text
from .ucurve import trace_slice, zero_level_fiber
from .verlinde import DEFAULT_PRECISION, IntegralityFailure, verlinde_dim, working_precision
from .weights import ShapeMismatch, count_admissible, enumerate_admissible

SUBCOMMANDS = ("verlinde", "graphs", "weights", "theta-basis", "ucurve", "verify-jw")


class UsageError(Exception):
    """Bad parameters; reported on stderr with exit code 2, nothing emitted."""


@dataclass
class RunConfig:
    subcommand: str
    parameters: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "json"


def _parse_complex(text: str, name: str) -> complex:
    """Accept 'RE,IM' or a bare real part."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"{name} must look like 'RE,IM' or 'RE', got {text!r}")


def _precision_from_env(default: int) -> int:
    raw = os.environ.get("BSQ_PRECISION")
    if raw is None:
        return default
    try:
        prec = int(raw)
    except ValueError:
        raise UsageError(f"BSQ_PRECISION must be an integer bit count, got {raw!r}")
    if prec < 64:
        raise UsageError(f"BSQ_PRECISION must be >= 64 bits, got {prec}")
    return prec


def _resolve_graph(name_or_path: str) -> TrivalentGraph:
    """A --graph value is a builtin name (theta2, dumbbell2) or a file path."""
    path = Path(name_or_path)
    if path.is_file():
        return parse_graph_text(path.read_text())
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


def _document(config: RunConfig, body: dict) -> str:
    doc = {
        "tool_version": __version__,
        "subcommand": config.subcommand,
        "parameters": config.parameters,
    }
    doc.update(body)
    return dumps(doc) + "\n"


def _cmd_verlinde(config: RunConfig):
    p = config.parameters
    value = verlinde_dim(p["genus"], p["level"], prec=p["precision"])
    body = {
        "dim": value.dim,
        "raw_sum": mpmath.nstr(value.raw_sum, 25),
        "error_bound": value.error_bound,
    }
    return _document(config, body), 0


def _cmd_graphs(config: RunConfig):
    p = config.parameters
    graphs = generate_trivalent(p["genus"])
    body = {
        "count": len(graphs),
        "graphs": [
            dict(_graph_json(g), bridges=sorted(bridges(g)), text=graph_to_text(g))
            for g in graphs
        ],
    }
    return _document(config, body), 0


def _cmd_weights(config: RunConfig):
    p = config.parameters
    graph = parse_graph_text(p["graph_text"])
    k = p["level"]
    body = {"graph": _graph_json(graph), "level": k}
    if p["count_only"]:
        body["count"] = count_admissible(graph, k)
    else:
        found = enumerate_admissible(graph, k)
        body["count"] = len(found)
        body["weights"] = [list(w.numerators) for w in found]
    return _document(config, body), 0


def _normal_or_decimal(value: float, log_value: float) -> float | str:
    """value when it is a normal double, else exp(log_value) as a 17-digit decimal string."""
    if sys.float_info.min <= value <= sys.float_info.max:
        return value
    return mpmath.nstr(mpmath.exp(log_value), 17)


def _cmd_theta_basis(config: RunConfig):
    p = config.parameters
    tau = complex(*p["tau"])
    matrix = bpu_matrix(p["level"], tau=tau, eps=p["eps"], norm=p["norm"])
    log_det = matrix.log_abs_determinant()
    body = {
        "entries": matrix.entries,
        "smallest_singular_value": _normal_or_decimal(
            matrix.smallest_singular_value(), matrix.log_smallest_singular_value()
        ),
        "det_modulus": _normal_or_decimal(float(mpmath.exp(log_det)), log_det),
    }
    return _document(config, body), 0


def _cmd_ucurve(config: RunConfig):
    p = config.parameters
    k = p["level"]
    u = complex(*p["u"])
    if u == 0:
        slc = zero_level_fiber(k)
    else:
        slc = trace_slice(k, u, (p["s_min"], p["s_max"]), p["grid"], p["tol"])
    if config.format == "csv":
        lines = ["b,re_s,im_s,m"]
        lines.extend(
            f"{float(pt.b)!r},{pt.s.real!r},{pt.s.imag!r},{pt.m}" for pt in slc.points
        )
        return "\n".join(lines) + "\n", 0
    body = {
        "u": _complex_json(slc.u),
        "count": len(slc.points),
        "points": [
            {
                "b": float(pt.b),
                "b_exact": str(pt.b),
                "s": _complex_json(pt.s),
                "m": pt.m,
            }
            for pt in slc.points
        ],
    }
    return _document(config, body), 0


def verify_jw(g: int, max_k: int, open_range: bool = False, prec: int = DEFAULT_PRECISION):
    """Compare count_admissible with verlinde_dim on every genus-g graph.

    Returns (rows, all_match).  open_range restricts numerators to 0..k-1,
    the deliberately broken variant kept as a negative control.
    """
    if g not in (2, 3):
        raise ValueError(f"genus must be 2 or 3 at desk scale, got {g!r}")
    if not isinstance(max_k, int) or max_k < 1:
        raise ValueError(f"max level must be an integer >= 1, got {max_k!r}")
    rows = []
    for index, graph in enumerate(generate_trivalent(g)):
        for k in range(1, max_k + 1):
            max_numerator = k - 1 if open_range else None
            count = count_admissible(graph, k, max_numerator=max_numerator)
            dim = verlinde_dim(g, k, prec=prec).dim
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
    return rows, all(row["match"] for row in rows)


def _cmd_verify_jw(config: RunConfig):
    p = config.parameters
    rows, ok = verify_jw(
        p["genus"], p["max_level"], open_range=p["open_weight_range"], prec=p["precision"]
    )
    body = {"rows": rows, "all_match": ok}
    return _document(config, body), 0 if ok else 1


_HANDLERS = {
    "verlinde": _cmd_verlinde,
    "graphs": _cmd_graphs,
    "weights": _cmd_weights,
    "theta-basis": _cmd_theta_basis,
    "ucurve": _cmd_ucurve,
    "verify-jw": _cmd_verify_jw,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration: build the whole document, then emit."""
    if config.subcommand not in _HANDLERS:
        sys.stderr.write(f"error: unknown subcommand {config.subcommand!r}\n")
        return 2
    try:
        document, code = _HANDLERS[config.subcommand](config)
    except (IntegralityFailure, TruncationFailure, ShapeMismatch, ValueError) as exc:
        error = {
            "tool_version": __version__,
            "subcommand": config.subcommand,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1
    if config.output is None:
        sys.stdout.write(document)
    else:
        Path(config.output).write_text(document)
    if code != 0:
        error = {
            "tool_version": __version__,
            "subcommand": config.subcommand,
            "error": "VerificationMismatch",
            "message": "weight count differs from the dimension in at least one row",
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsq",
        description="Bohr-Sommerfeld quantization toolkit",
    )
    parser.add_argument("--version", action="version", version=f"bsq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--output", help="write the document to this path instead of stdout")

    sp = sub.add_parser("verlinde", help="certified dimension of the level-k quantization")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    add_common(sp)

    sp = sub.add_parser("graphs", help="trivalent graph classes for a genus")
    sp.add_argument("--genus", type=int, required=True)
    add_common(sp)

    sp = sub.add_parser("weights", help="admissible weights on a graph")
    sp.add_argument("--graph", required=True, help="graph file, or builtin name theta2/dumbbell2")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    add_common(sp)

    sp = sub.add_parser("theta-basis", help="theta evaluation matrix at the BS points")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--tau", default="0,1", help="modular parameter as RE,IM (default 0,1)")
    sp.add_argument("--eps", type=float, default=1e-12)
    sp.add_argument("--norm", type=float, default=1.0, help="half-form scaling constant")
    add_common(sp)

    sp = sub.add_parser("ucurve", help="trace a u-curve slice (u=0 gives the zero fiber)")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--u", required=True, help="level parameter as RE,IM or RE")
    sp.add_argument("--s-min", type=float, default=-2.0)
    sp.add_argument("--s-max", type=float, default=2.0)
    sp.add_argument("--grid", type=int, default=1000)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(sp)

    sp = sub.add_parser("verify-jw", help="weight counts against Verlinde dimensions")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--max-level", type=int, required=True)
    sp.add_argument(
        "--open-weight-range",
        action="store_true",
        help="numerators 0..k-1 instead of 0..k; breaks the identity on purpose (negative control)",
    )
    add_common(sp)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Validate preconditions and normalize into a RunConfig (UsageError on failure)."""
    sc = args.subcommand
    p: dict = {}
    fmt = "json"

    if hasattr(args, "level") and args.level < 1:
        raise UsageError(f"--level must be >= 1, got {args.level}")

    if sc == "verlinde":
        if args.genus < 1:
            raise UsageError(f"--genus must be >= 1, got {args.genus}")
        default = working_precision(args.genus, args.level)
        p = {"genus": args.genus, "level": args.level, "precision": _precision_from_env(default)}
    elif sc == "graphs":
        if args.genus < 2:
            raise UsageError(f"--genus must be >= 2 for graph generation, got {args.genus}")
        p = {"genus": args.genus}
    elif sc == "weights":
        graph = _resolve_graph(args.graph)
        p = {
            "graph": args.graph,
            "graph_text": graph_to_text(graph),
            "level": args.level,
            "count_only": bool(args.count_only),
        }
    elif sc == "theta-basis":
        tau = _parse_complex(args.tau, "--tau")
        if not tau.imag > 0:
            raise UsageError(f"--tau must have positive imaginary part, got {args.tau}")
        if not args.eps > 0:
            raise UsageError(f"--eps must be positive, got {args.eps}")
        if not (args.norm > 0 and math.isfinite(args.norm)):
            raise UsageError(f"--norm must be positive and finite, got {args.norm}")
        p = {"level": args.level, "tau": [tau.real, tau.imag], "eps": args.eps, "norm": args.norm}
    elif sc == "ucurve":
        u = _parse_complex(args.u, "--u")
        if not args.s_min < args.s_max:
            raise UsageError(f"--s-min must be below --s-max, got {args.s_min}, {args.s_max}")
        if args.grid < 2:
            raise UsageError(f"--grid must be >= 2, got {args.grid}")
        if not args.tol > 0:
            raise UsageError(f"--tol must be positive, got {args.tol}")
        fmt = args.format
        p = {
            "level": args.level,
            "u": [u.real, u.imag],
            "s_min": args.s_min,
            "s_max": args.s_max,
            "grid": args.grid,
            "tol": args.tol,
        }
    elif sc == "verify-jw":
        if args.genus not in (2, 3):
            raise UsageError(f"--genus must be 2 or 3, got {args.genus}")
        if args.max_level < 1:
            raise UsageError(f"--max-level must be >= 1, got {args.max_level}")
        p = {
            "genus": args.genus,
            "max_level": args.max_level,
            "open_weight_range": bool(args.open_weight_range),
            "precision": _precision_from_env(DEFAULT_PRECISION),
        }

    return RunConfig(subcommand=sc, parameters=p, output=args.output, format=fmt)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _config_from_args(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
