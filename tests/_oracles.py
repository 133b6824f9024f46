"""Reference implementations kept independent of the package under test.

Graphs are raw (vertex_count, edge list) pairs, bridges come from a naive
remove-and-check scan, and admissible labelings, and the labels that pass
one vertex, come from exhaustive filtering with inline condition checks.
Slow on purpose; the count alone also comes from a contraction of one
fusion tensor per vertex over every labeling.  A graph's cycle space comes
from the fundamental cycles of a spanning tree, and canonical keys from
every vertex permutation.  Dimensions at
larger levels come from the trace of a fusion-rule matrix power, and the
Verlinde sum from a Neumaier loop over mpmath mpf objects, and Bernoulli
numbers from their recurrence in Fractions.  The u-curve
slice comes from every (branch, grid index) pair, each minimised over the
s-window in rationals.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from bsq.verlinde import IntegralityFailure

THETA2 = (2, [(0, 1), (0, 1), (0, 1)])
DUMBBELL2 = (2, [(0, 0), (0, 1), (1, 1)])
K4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def _connected_without(n, edges, skip_index):
    adj = {v: set() for v in range(n)}
    for idx, (a, b) in enumerate(edges):
        if idx == skip_index or a == b:
            continue
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


def oracle_bridges(n, edges):
    out = set()
    for idx, (a, b) in enumerate(edges):
        if a == b:
            continue
        if sum(1 for (c, d) in edges if {c, d} == {a, b}) >= 2:
            continue
        if not _connected_without(n, edges, idx):
            out.add(idx)
    return out


def oracle_weights(n, edges, k, max_numerator=None):
    """Every labeling passing the three vertex conditions and an even numerator
    on every bridge, found by trying them all, as sorted tuples of numerators
    in edge order.  The package imposes the vertex conditions alone, so the
    bridge rule here checks the theorem that they make every bridge even."""
    if max_numerator is None:
        max_numerator = k
    bridge_indices = oracle_bridges(n, edges)
    found = []
    for labels in itertools.product(range(max_numerator + 1), repeat=len(edges)):
        if any(labels[i] % 2 for i in bridge_indices):
            continue
        good = True
        for v in range(n):
            ends = []
            for idx, (a, b) in enumerate(edges):
                if a == v:
                    ends.append(labels[idx])
                if b == v:
                    ends.append(labels[idx])
            total = sum(ends)
            if total % 2 or total > 2 * k or 2 * max(ends) > total:
                good = False
                break
        if good:
            found.append(labels)
    return sorted(found)


def oracle_count(n, edges, k, max_numerator=None):
    """How many labelings oracle_weights finds, bridge rule included."""
    return len(oracle_weights(n, edges, k, max_numerator))


def oracle_tensor_count(n, edges, k, max_numerator=None):
    """How many labelings oracle_weights finds, without listing them: the sum
    over every labeling by 0..max_numerator of the product of one 0/1 tensor
    per vertex (its three ends pass the parity, level cap and triangle
    conditions; a loop is a repeated index) and one per bridge (an even
    numerator), contracted by np.einsum.  Exact while the count fits int64.
    As in oracle_weights, the bridge factors check the theorem that the vertex
    conditions alone make every bridge even."""
    if max_numerator is None:
        max_numerator = k
    labels = np.arange(max_numerator + 1)
    a, b, c = np.meshgrid(labels, labels, labels, indexing="ij")
    s = a + b + c
    fuses = ((s % 2 == 0) & (s <= 2 * k) & (2 * np.maximum(np.maximum(a, b), c) <= s)).astype(np.int64)
    letters = [chr(ord("a") + idx) for idx in range(len(edges))]
    subscripts = ["".join(letters[idx] for idx, (x, y) in enumerate(edges) for end in (x, y) if end == v)
                  for v in range(n)]
    operands = [fuses] * n
    for idx in sorted(oracle_bridges(n, edges)):
        subscripts.append(letters[idx])
        operands.append((labels % 2 == 0).astype(np.int64))
    return int(np.einsum(",".join(subscripts) + "->", *operands, optimize=True))


def oracle_vertex_table(n, edges, k, max_numerator, v, old, new):
    """Map each labelling of the edges old to the sorted list of labellings of
    the edges new under which vertex v's three ends (a loop counted twice)
    pass the parity, level cap and triangle conditions: the local fusion rule,
    with no rule for bridges.  Every labelling of old + new by 0..max_numerator
    is tried; keys with nothing passing are left out."""
    table = {}
    for labels in itertools.product(range(max_numerator + 1), repeat=len(old) + len(new)):
        label = dict(zip(tuple(old) + tuple(new), labels))
        ends = [label[idx] for idx, (a, b) in enumerate(edges) for end in (a, b) if end == v]
        total = sum(ends)
        if total % 2 or total > 2 * k or 2 * max(ends) > total:
            continue
        table.setdefault(labels[: len(old)], []).append(labels[len(old):])
    return table


def oracle_admissible(n, edges, k, labels):
    """Whether one labeling passes the parity, level cap and triangle
    conditions at every vertex, a loop's label counted at both its ends."""
    ends = [[] for _ in range(n)]
    for label, (a, b) in zip(labels, edges):
        ends[a].append(label)
        ends[b].append(label)
    return all(sum(e) % 2 == 0 and sum(e) <= 2 * k and 2 * max(e) <= sum(e) for e in ends)


def oracle_cycle_space(n, edges):
    """The Z/2 cycle space of a graph, every element a frozenset of edge
    indices: the sums of the fundamental cycles of a spanning tree found by a
    depth-first walk from vertex 0, one per edge off the tree (a loop is a
    cycle by itself).  Returns the basis and the set of all sums."""
    reached = {0: []}  # vertex -> the tree edges from vertex 0 to it
    tree, stack = set(), [0]
    while stack:
        v = stack.pop()
        for idx, (a, b) in enumerate(edges):
            w = b if a == v else a if b == v else None
            if w is not None and w not in reached:
                reached[w] = reached[v] + [idx]
                tree.add(idx)
                stack.append(w)
    basis = [frozenset(reached[a]) ^ frozenset(reached[b]) ^ {idx}
             for idx, (a, b) in enumerate(edges) if idx not in tree]
    space = set()
    for picks in itertools.product((False, True), repeat=len(basis)):
        element = frozenset()
        for pick, cycle in zip(picks, basis):
            if pick:
                element ^= cycle
        space.add(element)
    return basis, space


def oracle_simple_current(labels, edge_set, k):
    """The labeling with j -> k - j on the edges of edge_set."""
    return tuple(k - j if idx in edge_set else j for idx, j in enumerate(labels))


def oracle_even_fusion_dimension(g, k):
    """Tr(H_e^(g-1)) with H_e = sum_{c,d} N_acd N_bcd over the su(2)_k fusion
    rules on the even numerators 0, 2, ..., <= k alone, in Python integers: the
    genus-g count of the fusion ring of the even labels."""
    even = np.arange(0, k + 1, 2)
    a, b, c = np.meshgrid(even, even, even, indexing="ij")
    s = a + b + c
    fuses = ((s % 2 == 0) & (s <= 2 * k) & (2 * np.maximum(np.maximum(a, b), c) <= s)).astype(np.int64)
    h = np.einsum("acd,bcd->ab", fuses, fuses).astype(object)
    power = np.identity(len(even), dtype=int).astype(object)
    for _ in range(g - 1):
        power = power.dot(h)
    return int(sum(power.diagonal()))


def oracle_least_key(n, mat):
    """The least bordered key over every ordering p of vertices 0..n-1 (row r
    adds loops[p_r], then mat[p_r][p_0..p_{r-1}]), and the first ordering in
    lexicographic order that reaches it."""
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(x for r, v in enumerate(perm) for x in [mat[v][v]] + [mat[v][u] for u in perm[:r]])
        if best is None or key < best[0]:
            best = key, perm
    return best


def oracle_fusion_dimension(g, k):
    """dim(g, k) = Tr(H^(g-1)) with H = sum_c N_c^2 over the su(2)_k fusion
    rules N_abc on numerators 0..k (Verlinde 1988), in Python integers."""
    a, b, c = np.meshgrid(*[np.arange(k + 1)] * 3, indexing="ij")
    s = a + b + c
    fuses = (s % 2 == 0) & (s <= 2 * k) & (2 * np.maximum(np.maximum(a, b), c) <= s)
    h = np.einsum("acd,bcd->ab", fuses.astype(np.int64), fuses.astype(np.int64)).astype(object)
    power = np.identity(k + 1, dtype=int).astype(object)
    for _ in range(g - 1):
        power = power.dot(h)
    return int(sum(power.diagonal()))


def oracle_verlinde_dim(g, k, prec):
    """(dim, raw_sum, error_bound) of the Verlinde formula at prec bits, or
    IntegralityFailure: the Neumaier-compensated sum run on mpf objects, one
    rounded mpmath operation at a time, with the certificate of bsq.verlinde."""
    kk = k + 2
    expo = 2 * g - 2
    with mpmath.workprec(prec):
        prefactor = mpmath.mpf(kk) ** (g - 1) / mpmath.mpf(2) ** (g - 1)
        terms = [mpmath.sinpi(mpmath.mpf(m) / kk) ** (-expo) for m in range(1, kk // 2 + 1)]
        total = mpmath.mpf(0)
        comp = mpmath.mpf(0)
        for n in range(1, k + 2):
            term = terms[min(n, kk - n) - 1]
            t = total + term
            if abs(total) >= abs(term):
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
        raw_sum = prefactor * (total + comp)
        error_bound = float(raw_sum * mpmath.mpf(8 * g + 8) * mpmath.mpf(2) ** (-prec))
        nearest = mpmath.nint(raw_sum)
        if error_bound >= 0.5 or abs(raw_sum - nearest) > error_bound:
            raise IntegralityFailure(f"g={g}, k={k} does not certify at {prec} bits")
    return int(nearest), raw_sum, error_bound


def oracle_bernoulli(n):
    """B_0..B_n as Fractions, from sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1 (so B_1 = -1/2)."""
    numbers = [Fraction(1)]
    for m in range(1, n + 1):
        numbers.append(-sum(math.comb(m + 1, j) * numbers[j] for j in range(m)) / (m + 1))
    return numbers


def oracle_ucurve_candidates(k, u, window, grid, tol):
    """Every (b, s, m) with b = i/grid whose least |k*b + u*s - m| over real s in
    the window is below tol, s the least point as a float, before dedup.

    A brute force over every grid index and every branch m with |m| <= k +
    |u|*max(|lo|, |hi|) + tol + 1, far more than can reach the window.  The
    residual squared, |u|^2 s^2 + 2 c Re(u) s + c^2 with c = k*b - m, is
    compared in rationals at the ends of the window and at its stationary
    point when that lies inside.  u, the window and tol count at their
    binary values.
    """
    ur, ui, t = Fraction(u.real), Fraction(u.imag), Fraction(tol)
    lo, hi = Fraction(window[0]), Fraction(window[1])
    reach = k + math.ceil(math.hypot(u.real, u.imag) * max(abs(window[0]), abs(window[1])) + tol) + 1
    found = []
    for m in range(-reach, reach + 1):
        for i in range(grid):
            b = Fraction(i, grid)
            c = k * b - m
            squared = lambda s: (c + ur * s) ** 2 + (ui * s) ** 2
            stationary = -c * ur / (ur * ur + ui * ui)
            trial = [lo, hi] + ([stationary] if lo < stationary < hi else [])
            best = min(trial, key=squared)
            if squared(best) < t * t:
                found.append((b, float(best), m))
    return found
