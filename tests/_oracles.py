"""Reference implementations kept independent of the package under test.

Graphs are raw (vertex_count, edge list) pairs, bridges come from a naive
remove-and-check scan, and admissible labelings are counted by exhaustive
filtering with inline condition checks.  Slow on purpose.  Dimensions at
larger levels come from the trace of a fusion-rule matrix power.
"""

import itertools

import numpy as np

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


def oracle_count(n, edges, k, max_numerator=None):
    """Exhaustively count labelings passing the four admissibility conditions."""
    if max_numerator is None:
        max_numerator = k
    bridge_indices = oracle_bridges(n, edges)
    count = 0
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
            count += 1
    return count


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
