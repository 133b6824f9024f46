"""Connected trivalent multigraphs (trinion gluing patterns) up to isomorphism.

A genus-g pattern has 2g-2 vertices and 3g-3 edges, every vertex trivalent
with loops counting twice.  Graphs are represented by an explicit edge list;
each edge keeps a stable index given by its position in the list.  Isomorphism
goes through a canonical form: the minimum over vertex permutations of the
(loop-count, adjacency-multiplicity) matrix encoding.  The census builds each
class once, directly as its canonical matrix (orderly generation).

Measured range: `bsq graphs --genus g` on one core of an Intel Xeon under
Python 3.11, start-up of about 0.1 s included, takes 0.15 s at g = 4
(17 classes) and 0.70 s at g = 5 (71) as medians of 15 runs, and 28-32 s at
g = 6 (388) in 3 single runs.  One run of `generate_trivalent(7)` took 31 min
(2,592 classes).
"""

from __future__ import annotations

from dataclasses import dataclass

# An edge set is a set of stable edge indices.
EdgeSet = frozenset


@dataclass(frozen=True)
class TrivalentGraph:
    """Multigraph with all vertices of degree 3 (a loop adds 2)."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # exact ints only: a bool is an int to isinstance, and graph_to_text would write it as True
        if type(self.vertex_count) is not int:
            raise ValueError(f"vertex count must be an integer, got {self.vertex_count!r}")
        for edge in self.edges:
            if any(type(end) is not int for end in edge):
                raise ValueError(f"edge {tuple(edge)!r} has an end that is not an integer")
        edges = tuple((a, b) if a <= b else (b, a) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.vertex_count < 2:
            raise ValueError("need at least 2 vertices")
        if 2 * len(edges) != 3 * self.vertex_count:  # before the degree list is allocated
            raise ValueError(f"not trivalent: {len(edges)} edges on {self.vertex_count} vertices, need 2|E| = 3|V|")
        deg = [0] * self.vertex_count
        for a, b in edges:
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValueError(f"edge ({a}, {b}) out of range")
            deg[a] += 1
            deg[b] += 1
        bad = [v for v, d in enumerate(deg) if d != 3]
        if bad:
            raise ValueError(f"vertices {bad} are not trivalent")
        if not _connected(self.vertex_count, edges):
            raise ValueError("graph is not connected")

    @property
    def genus(self) -> int:
        """First Betti number, g = |E| - |V| + 1."""
        return len(self.edges) - self.vertex_count + 1

    def multiplicity(self, a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        return sum(1 for e in self.edges if e == (a, b))


def _connected(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _matrix(graph: TrivalentGraph):
    """Loop counts on the diagonal, multiplicities off it."""
    n = graph.vertex_count
    mat = [[0] * n for _ in range(n)]
    for a, b in graph.edges:
        if a == b:
            mat[a][a] += 1
        else:
            mat[a][b] += 1
            mat[b][a] += 1
    return mat


def _least_key(mat, n, bound=None):
    """Least bordered key over the orderings of vertices 0..n-1, and an ordering that reaches it.

    The ordering p is built one vertex at a time; placing p[r] appends the
    border (loops[p_r], mat[p_r][p_0], ..., mat[p_r][p_{r-1}]), so the key is
    decided prefix by prefix and branches above the best key so far are cut
    early.  Every border at one depth has the same length, so an ordering that
    reaches the least key takes, at each depth, the least border any free
    vertex offers there: the search follows only those vertices, in increasing
    order, and returns the first ordering, in the order of a search over every
    vertex, that reaches the least key.  Any two orderings that reach it differ
    by an automorphism.  With a bound, the search stops as soon as a prefix
    falls strictly below it and returns that prefix, which every completion
    keeps below the bound, with its partial ordering; it returns (None, None)
    if no ordering gets below the bound.
    """
    bounded = bound is not None
    best, best_perm = bound, None

    def extend(perm, used, key):
        nonlocal best, best_perm
        if len(perm) == n:
            if best is None or key < best:
                best, best_perm = key, perm
            return False
        least, ties = None, []
        for v in range(n):
            if used >> v & 1:
                continue
            row = mat[v]
            border = (row[v], *[row[p] for p in perm])
            if least is None or border < least:
                least, ties = border, [v]
            elif border == least:
                ties.append(v)
        cand = key + least
        if best is not None:
            head = best[:len(cand)]
            if cand > head:
                return False
            if bounded and cand < head:
                best, best_perm = cand, perm + (ties[0],)
                return True
        for v in ties:
            if extend(perm + (v,), used | 1 << v, cand):
                return True
        return False

    try:
        extend((), 0, ())
    finally:
        del extend  # extend refers to itself through its closure; free it without the cyclic collector
    return (None, None) if best_perm is None else (best, best_perm)


def canonical_key(graph: TrivalentGraph) -> tuple:
    """Minimum over vertex permutations of the bordered matrix encoding."""
    return _least_key(_matrix(graph), graph.vertex_count)[0]


def _graph_from_key(key, n) -> TrivalentGraph:
    mat = [[0] * n for _ in range(n)]
    pos = 0
    for r in range(n):
        mat[r][r] = key[pos]
        pos += 1
        for j in range(r):
            mat[r][j] = mat[j][r] = key[pos]
            pos += 1
    edges = []
    for i in range(n):
        edges.extend([(i, i)] * mat[i][i])
        for j in range(i + 1, n):
            edges.extend([(i, j)] * mat[i][j])
    return TrivalentGraph(n, tuple(sorted(edges)))


def generate_trivalent(g: int) -> list[TrivalentGraph]:
    """All connected trivalent multigraphs on 2g-2 vertices, one per class.

    Orderly generation: the matrix is filled row by row, and row v's border
    (its loop count, then its multiplicities to rows 0..v-1) is fixed once
    its diagonal cell is placed.  A branch is cut there if some ordering of
    vertices 0..v gives a smaller bordered prefix, since no completion of it
    can then be canonical.  A complete matrix that survives is its own
    canonical key, so each class is met exactly once.

    Two cheaper cuts of the same kind look at the later vertices, whose loop
    counts are still open.  Put in row v's place, a later vertex must not
    border below row v even with the most loops it can still take.  And two
    later vertices known to get equal loop counts must keep their columns,
    as far as they are filled, in increasing order.

    Deterministic: returned in lexicographic canonical-key order.
    """
    if type(g) is not int or g < 2:
        raise ValueError(f"genus must be an integer >= 2, got {g!r}")
    n = 2 * g - 2
    keys = []
    mat = [[0] * n for _ in range(n)]
    deg = [0] * n

    def place(v, w, key):
        # fill cells of row v from column w upward; diagonal cell = loops;
        # key is the bordered encoding of rows 0..v-1, and of row v past w = v
        if v == n:
            if _connected(n, [(a, b) for a in range(n) for b in range(a + 1, n) if mat[a][b]]):
                keys.append(key)
            return
        if w == n:
            if deg[v] == 3:
                place(v + 1, v + 1, key)
            return
        room_here = 3 - deg[v]
        if w == v:
            # a loop eats 2 of the 3 slots, so at most one
            for loops in range(0, room_here // 2 + 1):
                mat[v][v] = loops
                border = (loops,) + tuple(mat[v][:v])
                # cut if a later vertex u, put in row v's place with the
                # most loops it can still take, borders below row v
                if any(
                    ((3 - deg[u]) // 2,) + tuple(mat[u][:v]) < border
                    for u in range(v + 1, n)
                ):
                    continue
                prefix = key + border
                if _least_key(mat, v + 1, bound=prefix)[0] is None:
                    deg[v] += 2 * loops
                    place(v, w + 1, prefix)
                    deg[v] -= 2 * loops
            mat[v][v] = 0
        else:
            top = min(room_here, 3 - deg[w])
            for m in range(0, top + 1):
                mat[v][w] = mat[w][v] = m
                deg[v] += m
                deg[w] += m
                # rows w-1 and w get equal loop counts if row v has a loop
                # (loop counts never decrease down the rows) or if a vertex
                # from w on has no room left for one; their columns must
                # then stay in increasing order
                if not (
                    w > v + 1
                    and (mat[v][v] or any(deg[u] >= 2 for u in range(w, n)))
                    and mat[w - 1][: v + 1] > mat[w][: v + 1]
                ):
                    place(v, w + 1, key)
                deg[v] -= m
                deg[w] -= m
            mat[v][w] = mat[w][v] = 0

    try:
        place(0, 0, ())
    finally:
        del place  # as in _least_key: the closure's reference cycle is broken here
    return [_graph_from_key(key, n) for key in sorted(keys)]


def is_isomorphic(g1: TrivalentGraph, g2: TrivalentGraph) -> bool:
    """Exact isomorphism test via the canonical forms (brute force inside)."""
    if g1.vertex_count != g2.vertex_count:
        return False
    return canonical_key(g1) == canonical_key(g2)


def bridges(graph: TrivalentGraph) -> EdgeSet:
    """Indices of edges whose removal disconnects the graph.

    A loop is never a bridge, nor is any edge with a parallel copy.
    """
    out = set()
    for idx, (a, b) in enumerate(graph.edges):
        if a == b:
            continue
        if graph.multiplicity(a, b) >= 2:
            continue
        rest = graph.edges[:idx] + graph.edges[idx + 1:]
        if not _connected(graph.vertex_count, rest):
            out.add(idx)
    return frozenset(out)


def graph_to_text(graph: TrivalentGraph) -> str:
    """Serialize to the line format 'v <count>' then one 'e <i> <j>' per edge."""
    lines = [f"v {graph.vertex_count}"]
    lines.extend(f"e {a} {b}" for a, b in graph.edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> TrivalentGraph:
    """Parse the 'v'/'e' line format; '#' starts a comment, blanks ignored.

    Each field is a non-negative integer in ASCII decimal digits.  Edge
    indices follow file order.
    """
    vertex_count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        if (kind, len(fields)) not in (("v", 1), ("e", 2)):
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        try:
            # ASCII decimal digits only: int() alone would also take "1_0", "+1" and other scripts' digits
            if not all(field.isascii() and field.isdigit() for field in fields):
                raise ValueError
            numbers = tuple(map(int, fields))  # beyond sys.get_int_max_str_digits() digits it raises too
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from None
        if kind == "v":
            if vertex_count is not None:
                raise ValueError(f"line {lineno}: duplicate vertex count")
            vertex_count = numbers[0]
        else:
            if vertex_count is None:
                raise ValueError(f"line {lineno}: edge before vertex count")
            edges.append(numbers)
    if vertex_count is None:
        raise ValueError("missing 'v <count>' line")
    return TrivalentGraph(vertex_count, tuple(edges))


# Built-in genus-2 patterns: three parallel edges, and two loops over a bridge.
THETA_GRAPH = TrivalentGraph(2, ((0, 1), (0, 1), (0, 1)))
DUMBBELL_GRAPH = TrivalentGraph(2, ((0, 0), (0, 1), (1, 1)))

# Names accepted by the command line in place of a graph file.
BUILTIN_GRAPHS = {
    "theta2": THETA_GRAPH,
    "dumbbell2": DUMBBELL_GRAPH,
}
