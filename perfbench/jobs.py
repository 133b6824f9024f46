"""The job lists of the three workloads.

A job is one bsq command line plus the independent check of its document.
Each pass of a run builds its list afresh from its own seeded generator:
graph inputs are relabelled (vertices, edge order and edge ends shuffled),
so no two weight jobs of a run share an input, and the job order is
shuffled.  Only the generated inputs reach bsq.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import check
from classes import CLASSES

# Defaults of `bsq ucurve`, which the slice jobs use.
S_WINDOW = (-2.0, 2.0)
GRID = 1000
TOL = 1e-9

VERLINDE_FAULT = "the fixed 96-bit precision cannot certify dimensions above about 2^90 (src/bsq/verlinde.py)"
THETA_FAULT = "double-precision SVD and determinant underflow at tau = i, k >= 64 (src/bsq/theta.py)"


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[Path], None]
    suffix: str = "json"
    known_fault: str | None = None
    inputs: dict[Path, str] = field(default_factory=dict)


def relabel(edges, rng: random.Random):
    """The same graph with vertices renumbered, edges reordered and each edge's ends
    possibly swapped."""
    n = 1 + max(max(e) for e in edges)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]) for a, b in edges]
    rng.shuffle(out)
    return n, out


def _weights_job(rng, in_dir: Path, g: int, index: int, k: int, count_only: bool) -> Job:
    n, edges = relabel(CLASSES[g][index], rng)
    name = f"weights{' --count-only' if count_only else ''} g={g} class={index} k={k}"
    path = in_dir / f"g{g}c{index}k{k}.txt"
    text = f"v {n}\n" + "".join(f"e {a} {b}\n" for a, b in edges)
    argv = ["weights", "--graph", str(path), "--level", str(k)] + (["--count-only"] if count_only else [])
    checker = check.check_count if count_only else check.check_listing
    return Job(name, argv, partial(checker, n=n, edges=edges, k=k), inputs={path: text})


def census(rng, in_dir: Path, quick: bool) -> list[Job]:
    """Graph censuses at g = 2, 3, 4, then full weight listings on every class."""
    genera = (2, 3) if quick else (2, 3, 4)
    listings = ((3, range(2), (1, 2)),) if quick else ((3, range(5), range(1, 9)), (4, range(17), range(1, 4)))
    jobs = [Job(f"graphs g={g}", ["graphs", "--genus", str(g)], partial(check.check_graphs, g=g)) for g in genera]
    for g, classes, levels in listings:
        jobs.extend(_weights_job(rng, in_dir, g, i, k, count_only=False) for i in classes for k in levels)
    return jobs


def jw(rng, in_dir: Path, quick: bool) -> list[Job]:
    """Nested verify-jw sweeps, then weight counts on every genus-4 class."""
    sweeps = ((2, (1, 3)),) if quick else ((2, (4, 8, 12)), (3, (4, 6, 8, 10)))
    counts = ((3, range(2), 2),) if quick else ((4, range(17), 4),)
    jobs = [
        Job(f"verify-jw g={g} max-level={m}", ["verify-jw", "--genus", str(g), "--max-level", str(m)],
            partial(check.check_verify_jw, g=g, max_level=m))
        for g, levels in sweeps for m in levels
    ]
    for g, classes, k in counts:
        jobs.extend(_weights_job(rng, in_dir, g, i, k, count_only=True) for i in classes)
    return jobs


def _theta(k: int, tau: str, fault: str | None = None) -> Job:
    re, im = (float(x) for x in tau.split(","))
    return Job(f"theta-basis k={k} tau={tau}", ["theta-basis", "--level", str(k), "--tau", tau],
               partial(check.check_theta, k=k, tau=complex(re, im)), known_fault=fault)


def _ucurve(k: int, u: str, fmt: str = "json") -> Job:
    argv = ["ucurve", "--level", str(k), "--u", u, "--format", fmt]
    parts = [float(x) for x in u.split(",")]
    value = complex(*parts) if len(parts) == 2 else complex(parts[0], 0.0)
    if value == 0:
        checker = partial(check.check_fiber, k=k)
    else:
        checker = partial(check.check_ucurve, fmt=fmt, k=k, u=value, lo=S_WINDOW[0], hi=S_WINDOW[1],
                          grid=GRID, tol=TOL)
    return Job(f"ucurve k={k} u={u} {fmt}", argv, checker, suffix=fmt)


def _verlinde(g: int, k: int, fault: str | None = None) -> Job:
    return Job(f"verlinde g={g} k={k}", ["verlinde", "--genus", str(g), "--level", str(k)],
               partial(check.check_verlinde, g=g, k=k), known_fault=fault)


def spectral(rng, in_dir: Path, quick: bool) -> list[Job]:
    """Theta bases, u-curve slices and Verlinde certificates."""
    if quick:
        return [_theta(4, "0.3,0.1"), _theta(6, "0,1"), _ucurve(2, "0.7"), _ucurve(2, "0.5,0.5", "csv"),
                _ucurve(3, "0"), _verlinde(2, 10), _verlinde(3, 10)]
    jobs = [_theta(k, "0.3,0.1") for k in (8, 16, 32, 64, 96, 128, 160, 200)]
    jobs += [_theta(k, "0,1", THETA_FAULT if k >= 64 else None) for k in (8, 16, 32, 64, 96)]
    jobs += [_ucurve(3, "0.7"), _ucurve(3, "-0.7"), _ucurve(4, "-1.3"), _ucurve(5, "0.8", "csv"),
             _ucurve(4, "0.5,0.5"), _ucurve(6, "0")]
    # levels about 10 % apart around the middle of the job-time distribution,
    # where job_p50_ms falls, so that the median does not jump across a gap
    jobs += [_verlinde(g, k) for g in (2, 3, 4) for k in (500, 900, 1000, 1100, 1250, 2000)]
    jobs += [_verlinde(10, 50, VERLINDE_FAULT), _verlinde(6, 200, VERLINDE_FAULT)]
    return jobs


BUILDERS = {"census": census, "jw": jw, "spectral": spectral}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, rng: random.Random, in_dir: Path, quick: bool = False) -> list[Job]:
    jobs = BUILDERS[workload](rng, in_dir, quick)
    rng.shuffle(jobs)
    return jobs
