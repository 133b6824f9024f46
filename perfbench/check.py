"""Checks of bsq documents against computations made apart from bsq.

Nothing here imports bsq.  Dimensions come from the su(2)_k fusion rules in
Python integers, or from the Verlinde sum in mpmath at large k; graphs are
checked with networkx; theta matrices against theta-nulls recomputed in
mpmath; u-curve slices against the exact locus.  Every check raises
CheckFailure with a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

# A005967: connected trivalent multigraphs with 2g-2 vertices.
GRAPH_CLASS_COUNTS = {2: 2, 3: 5, 4: 17}

# Largest level at which the exact fusion-rule trace is used (O(k^4) ints).
FUSION_MAX_LEVEL = 24

# Relative accuracy demanded of smallest_singular_value and det_modulus.
THETA_REL_TOL = 1e-6
# Accuracy of matrix entries, relative to the size of the theta series.
ENTRY_REL_TOL = 1e-9


class CheckFailure(Exception):
    """A document disagrees with the independent computation."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


# ---- dimensions -------------------------------------------------------------

def _fusion(a: int, b: int, c: int, k: int) -> bool:
    s = a + b + c
    return s % 2 == 0 and s <= 2 * k and 2 * max(a, b, c) <= s


def _fusion_trace(g: int, k: int) -> int:
    """Tr(H^(g-1)) with H = sum_c N_c^2 (Verlinde 1988), in Python integers."""
    n = k + 1
    # H[a][b] = number of (c, d) with N_acd = N_bcd = 1
    allowed = [[[a for a in range(n) if _fusion(a, c, d, k)] for d in range(n)] for c in range(n)]
    h = [[0] * n for _ in range(n)]
    for c in range(n):
        for d in range(n):
            row = allowed[c][d]
            for a in row:
                for b in row:
                    h[a][b] += 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(g - 1):
        power = [[sum(power[i][m] * h[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    return sum(power[i][i] for i in range(n))


def _verlinde_sum(g: int, k: int) -> int:
    """((k+2)/2)^(g-1) * sum_n sin(n pi/(k+2))^(2-2g), rounded, at a precision
    chosen from the size of the answer; raises if it is not near an integer."""
    kk = k + 2
    log2_dim = (g - 1) * math.log2(kk / 2) + (2 * g - 2) * math.log2(kk / math.pi) + math.log2(kk)
    with mpmath.workprec(int(log2_dim) + 64):
        total = mpmath.fsum(mpmath.sinpi(mpmath.mpf(n) / kk) ** (2 - 2 * g) for n in range(1, kk))
        value = (mpmath.mpf(kk) / 2) ** (g - 1) * total
        nearest = mpmath.nint(value)
        if abs(value - nearest) > mpmath.mpf(2) ** -20:
            raise ArithmeticError(f"Verlinde sum at g={g}, k={k} is not near an integer")
        return int(nearest)


@lru_cache(maxsize=None)
def dimension(g: int, k: int) -> int:
    """Exact level-k dimension at genus g."""
    if g == 1:
        return k + 1
    if k <= FUSION_MAX_LEVEL:
        return _fusion_trace(g, k)
    return _verlinde_sum(g, k)


# ---- documents --------------------------------------------------------------

def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _header(doc: dict, subcommand: str, **params) -> None:
    require(doc.get("subcommand") == subcommand, f"subcommand is {doc.get('subcommand')!r}")
    for name, value in params.items():
        got = doc["parameters"].get(name)
        require(got == value, f"parameter {name} is {got!r}, expected {value!r}")


def _genus(n: int, edges) -> int:
    return len(edges) - n + 1


def _multigraph(n: int, edges):
    # imported here, so that the timed passes run without networkx loaded
    import networkx as nx

    graph = nx.MultiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def _bridges(n: int, edges) -> list[int]:
    """Edges whose removal disconnects the graph, by removing each in turn."""
    import networkx as nx

    return [
        i for i in range(len(edges))
        if not nx.is_connected(_multigraph(n, edges[:i] + edges[i + 1:]))
    ]


def _parse_text(text: str):
    n, edges = None, []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts and parts[0] == "v":
            n = int(parts[1])
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    return n, edges


def check_graphs(path, g: int) -> None:
    import networkx as nx

    doc = _load(path)
    _header(doc, "graphs", genus=g)
    graphs = doc["graphs"]
    require(doc["count"] == len(graphs) == GRAPH_CLASS_COUNTS[g],
            f"{len(graphs)} classes at genus {g}, expected {GRAPH_CLASS_COUNTS[g]}")
    built = []
    for i, entry in enumerate(graphs):
        n, edges = entry["vertex_count"], [tuple(e) for e in entry["edges"]]
        require(n == 2 * g - 2 and _genus(n, edges) == g, f"class {i} is not of genus {g}")
        mg = _multigraph(n, edges)
        require(all(d == 3 for _, d in mg.degree()), f"class {i} is not trivalent")
        require(nx.is_connected(mg), f"class {i} is not connected")
        require(entry["bridges"] == _bridges(n, edges), f"class {i} bridges {entry['bridges']} are wrong")
        require(_parse_text(entry["text"]) == (n, edges), f"class {i} text does not match its edges")
        built.append(mg)
    for i in range(len(built)):
        for j in range(i):
            require(not nx.is_isomorphic(built[i], built[j]), f"classes {j} and {i} are isomorphic")


def _check_graph(doc: dict, n: int, edges) -> None:
    require(doc["graph"]["vertex_count"] == n and doc["graph"]["edges"] == [sorted(e) for e in edges],
            "document graph differs from the input graph")


def check_listing(path, n: int, edges, k: int) -> None:
    """Every listed weight satisfies the four conditions; rows sorted, distinct,
    and as many as the dimension."""
    doc = _load(path)
    _header(doc, "weights", level=k, count_only=False)
    _check_graph(doc, n, edges)
    rows = [tuple(r) for r in doc["weights"]]
    dim = dimension(_genus(n, edges), k)
    require(doc["count"] == len(rows) == dim, f"{len(rows)} weights listed, dimension is {dim}")
    require(all(a < b for a, b in zip(rows, rows[1:])), "weights are not sorted and distinct")
    require(all(len(r) == len(edges) and all(type(j) is int and j >= 0 for j in r) for r in rows),
            "a weight is not one non-negative integer per edge")
    ends = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(edges):
        ends[a].append(idx)
        ends[b].append(idx)
    bridge = _bridges(n, list(edges))
    for row in rows:
        fault = _weight_fault(row, ends, bridge, k)
        if fault:
            raise CheckFailure(f"weight {list(row)}: {fault}")


def _weight_fault(row, ends, bridge, k: int) -> str | None:
    """The first of the four conditions the numerators break, if any."""
    for v, idx in enumerate(ends):
        x, y, z = (row[i] for i in idx)
        s = x + y + z
        if s % 2:
            return f"odd sum at vertex {v}"
        if s > 2 * k:
            return f"sum above 2k at vertex {v}"
        if 2 * max(x, y, z) > s:
            return f"triangle broken at vertex {v}"
    for i in bridge:
        if row[i] % 2:
            return f"odd numerator on bridge {i}"
    return None


def check_count(path, n: int, edges, k: int) -> None:
    doc = _load(path)
    _header(doc, "weights", level=k, count_only=True)
    _check_graph(doc, n, edges)
    dim = dimension(_genus(n, edges), k)
    require(doc["count"] == dim, f"count {doc['count']}, dimension is {dim}")


def check_verify_jw(path, g: int, max_level: int) -> None:
    doc = _load(path)
    _header(doc, "verify-jw", genus=g, max_level=max_level)
    rows = doc["rows"]
    expected = [(i, k) for i in range(GRAPH_CLASS_COUNTS[g]) for k in range(1, max_level + 1)]
    require([(r["graph_index"], r["level"]) for r in rows] == expected,
            "rows do not cover every class and level once")
    for r in rows:
        dim = dimension(g, r["level"])
        require(r["weight_count"] == dim and r["verlinde_dim"] == dim and r["match"],
                f"row class {r['graph_index']} k={r['level']}: count {r['weight_count']}, "
                f"verlinde {r['verlinde_dim']}, dimension {dim}")
    require(doc["all_match"] is True, "all_match is not true")


def check_verlinde(path, g: int, k: int) -> None:
    doc = _load(path)
    _header(doc, "verlinde", genus=g, level=k)
    dim = dimension(g, k)
    require(doc["dim"] == dim, f"dim {doc['dim']}, exact {dim}")
    require(0 <= doc["error_bound"] < 0.5, f"error bound {doc['error_bound']} certifies nothing")


def _number(value) -> mpmath.mpf:
    """A JSON number, or a decimal string for values beyond double range."""
    return mpmath.mpf(value) if isinstance(value, str) else mpmath.mpf(float(value))


def _theta_nulls(k: int, tau: complex):
    """c_j = sum_n exp(pi i k tau (n + j/k)^2) and the sum of the term sizes."""
    t = mpmath.mpc(tau.real, tau.imag)
    reach = math.sqrt(80.0 / (math.pi * k * tau.imag)) + 2
    c, size = [], []
    for j in range(k):
        w = mpmath.mpf(j) / k
        terms = [mpmath.exp(1j * mpmath.pi * k * t * (n + w) ** 2)
                 for n in range(-math.ceil(reach + 1), math.ceil(reach) + 1)]
        c.append(mpmath.fsum(terms))
        size.append(mpmath.fsum(abs(x) for x in terms))
    return c, size


def check_theta(path, k: int, tau: complex) -> None:
    doc = _load(path)
    _header(doc, "theta-basis", level=k, tau=[tau.real, tau.imag], norm=1.0)
    m = np.array(doc["entries"], dtype=float)
    require(m.shape == (k, k, 2), f"entries have shape {m.shape}")
    m = m[..., 0] + 1j * m[..., 1]
    with mpmath.workdps(30):
        c, size = _theta_nulls(k, tau)
        scale = np.array([float(s) for s in size])
        col0 = np.array([complex(x) for x in c])
        jl = np.outer(np.arange(k), np.arange(k)) % k
        dft = np.exp(2j * np.pi * jl / k)
        err = np.abs(m[:, 0] - col0) / scale
        require(err.max() <= ENTRY_REL_TOL, f"M[j,0] differs from the theta-null by {err.max():.2e}")
        err = np.abs(m - m[:, :1] * dft).max(axis=1) / scale
        require(err.max() <= ENTRY_REL_TOL, f"M[j,l] differs from M[j,0] w^jl by {err.max():.2e}")
        moduli = [abs(x) for x in c]
        sigma = mpmath.sqrt(k) * min(moduli)
        det = mpmath.mpf(k) ** (mpmath.mpf(k) / 2) * mpmath.fprod(moduli)
        faults = []
        for name, exact in (("smallest_singular_value", sigma), ("det_modulus", det)):
            got = _number(doc[name])
            if abs(got - exact) > THETA_REL_TOL * exact:
                faults.append(f"{name} {mpmath.nstr(got, 5)}, exact {mpmath.nstr(exact, 5)}")
        require(not faults, "; ".join(faults))


def _slice_points(path, fmt: str, grid: int, params: dict):
    """(b, s, m) per point, with b = i/grid exact and s complex as written."""
    with open(path) as fh:
        text = fh.read()
    if fmt == "csv":
        out = []
        for r in csv.DictReader(io.StringIO(text)):
            b = Fraction(round(float(r["b"]) * grid), grid)
            require(float(b) == float(r["b"]), f"b {r['b']} is not on the grid")
            out.append((b, complex(float(r["re_s"]), float(r["im_s"])), int(r["m"])))
        return out
    doc = json.loads(text)
    _header(doc, "ucurve", **params)
    require(doc["count"] == len(doc["points"]), "count differs from the number of points")
    out = []
    for p in doc["points"]:
        b = Fraction(p["b_exact"])
        require(float(b) == p["b"], f"b {p['b']} differs from b_exact {p['b_exact']}")
        out.append((b, complex(*p["s"]), p["m"]))
    return out


def expected_slice(k: int, u: complex, lo: float, hi: float, grid: int, tol: float) -> set:
    """The (b, m) the slice must hold.

    Real u: the grid pairs whose exact root s = (m - k b)/u lies in the
    s-window widened by tol/|u|, with u, lo, hi and tol at their exact binary
    values.  Non-real u: the locus with real s is s = 0, b = m/k.
    """
    if u.imag != 0:
        return {(Fraction(m, k), m) for m in range(k) if (m * grid) % k == 0}
    ur = Fraction(u.real)
    ends = sorted((ur * Fraction(lo), ur * Fraction(hi)))
    t = Fraction(tol)
    out = set()
    for i in range(grid):
        b = Fraction(i, grid)
        low, high = k * b + ends[0] - t, k * b + ends[1] + t
        first, last = math.floor(low) + 1, math.ceil(high) - 1
        out.update((b, m) for m in range(first, last + 1))
    return out


def check_ucurve(path, fmt: str, k: int, u: complex, lo: float, hi: float, grid: int, tol: float) -> None:
    params = {"level": k, "u": [u.real, u.imag], "s_min": lo, "s_max": hi, "grid": grid, "tol": tol}
    points = _slice_points(path, fmt, grid, params)
    uf = (Fraction(u.real), Fraction(u.imag))
    t = Fraction(tol)
    for b, s, m in points:
        re = k * b + uf[0] * Fraction(s.real) - uf[1] * Fraction(s.imag) - m
        im = uf[0] * Fraction(s.imag) + uf[1] * Fraction(s.real)
        require(re * re + im * im < t * t, f"point b={b} m={m} is off the locus by more than tol")
        if u.imag != 0:
            require(s == 0, f"point b={b} m={m} has s={s}, expected 0")
    got = {(b, m) for b, _, m in points}
    require(len(got) == len(points), "points repeat")
    want = expected_slice(k, u, lo, hi, grid, tol)
    require(got == want, f"{len(got)} points, the exact locus has {len(want)} "
                         f"({len(got - want)} extra, {len(want - got)} missing)")


def check_fiber(path, k: int) -> None:
    doc = _load(path)
    _header(doc, "ucurve", level=k)
    want = [{"b": j / k, "b_exact": str(Fraction(j, k)), "s": [0.0, 0.0], "m": j} for j in range(k)]
    require(doc["u"] == [0.0, 0.0] and doc["count"] == k and doc["points"] == want,
            "zero fiber is not the k points b = j/k")
