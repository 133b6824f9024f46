"""Benchmark of the bsq command line, end to end and layer by layer.

    python3 perfbench/run.py --workload census|jw|spectral --seed N --seconds S --trace 0|1 [--quick]

Run from a checkout of the repository; bsq is imported from its src/.  The
run times fresh interpreters importing bsq (setup_s) and, after an untimed
warm-up, calls bsq.cli.main in this process, single-threaded, one seeded pass
over the workload's job list after another until S seconds of passes have
elapsed.  The machine's speed is sampled during every pass, and the reported
times are scaled to a reference speed (SpeedSampler).  Every document goes
to a file.  After the last pass, outside the timed
region, each document is checked against the computations in check.py.
With --trace 1 the layer calls are wrapped in spans (spans.py) and the
per-layer metrics are reported instead of the end-to-end ones.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  --quick runs a tiny job list, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# BLAS threads are fixed at 1 before numpy is first imported.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import check  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 7

# Machine speed is sampled every SAMPLE_INTERVAL_S of wall time during a pass by
# timing a short fixed loop.  A job time is scaled by SAMPLE_REF_S over the
# median sample taken during the job, or during its pass when the job was too
# short to hold one.
SAMPLE_INTERVAL_S = 0.01
SAMPLE_REF_S = 0.0003

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}


def _speed_loop(n: int = 6_000) -> int:
    """A fixed run of interpreter bytecode that shares no code with bsq.  Of the
    kernels tried (this loop; a mix of integer, dict, complex, sort and JSON work;
    a sort and JSON encoding of 2000 tuples; a shuffle of 20000 ints; dict
    stores), this one's time tracked the pass times of all three workloads
    best as the machine's speed changed."""
    total = 0
    for i in range(n):
        total += i & 7
    return total


class SpeedSampler:
    """Times _speed_loop from a SIGALRM handler every SAMPLE_INTERVAL_S while
    active, so that the samples cover long jobs as evenly as short ones.  The
    handler runs in the main thread between bytecodes, inside the jobs; its
    time, about 3 % of the pass, is part of the job times."""

    def __init__(self):
        self.stamps: list[float] = []  # when each sample started
        self.samples: list[float] = []  # how long each took

    def _sample(self, signum, frame):
        start = perf_counter()
        _speed_loop()
        self.samples.append(perf_counter() - start)
        self.stamps.append(start)

    def scale(self, start: float, end: float, default: float) -> float:
        """SAMPLE_REF_S over the median sample taken between start and end, or
        default when there is none."""
        inside = self.samples[bisect.bisect_left(self.stamps, start):bisect.bisect_right(self.stamps, end)]
        return SAMPLE_REF_S / statistics.median(inside) if inside else default

    def __enter__(self):
        self.stamps, self.samples = [], []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def time_import() -> float:
    """Wall time of a fresh interpreter importing bsq and bsq.cli."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import bsq, bsq.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True)
    return perf_counter() - start


@dataclass
class Record:
    """One attempted operation: a job of one pass and what became of it."""

    job: jobs.Job
    path: Path
    code: int | str | None = None
    start: float = 0.0
    seconds: float = 0.0
    stderr: str = ""
    failure: str | None = None
    scale: float = 1.0  # SAMPLE_REF_S over the median speed sample of the job or its pass

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


def run_pass(main, job_list, pass_index: int, pass_dir: Path, tracer) -> tuple[list[Record], float]:
    """Run every job of one pass and set the scale of each job time; returns
    the records and the pass's scale, SAMPLE_REF_S over its median sample."""
    for job in job_list:
        for path, text in job.inputs.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    pass_dir.mkdir(parents=True, exist_ok=True)
    records = [Record(job, pass_dir / f"{i:03d}.{job.suffix}") for i, job in enumerate(job_list)]
    gc.collect()
    with SpeedSampler() as sampler:
        for i, rec in enumerate(records):
            first_span = len(tracer.spans) if tracer else None
            if tracer:
                tracer.job = f"{pass_index}/{i}"
            err = io.StringIO()
            rec.start = start = perf_counter()
            with contextlib.redirect_stderr(err):
                try:
                    rec.code = main(rec.job.argv + ["--output", str(rec.path)])
                except Exception as exc:  # a crash fails this operation, not the run
                    rec.code = f"raised {type(exc).__name__}: {exc}"
            rec.seconds = perf_counter() - start
            rec.stderr = err.getvalue()
            if tracer:
                tracer.spans[first_span]["out_bytes"] = rec.path.stat().st_size if rec.path.exists() else 0
    pass_scale = SAMPLE_REF_S / statistics.median(sampler.samples) if sampler.samples else 1.0
    for rec in records:
        rec.scale = sampler.scale(rec.start, rec.start + rec.seconds, pass_scale)
    return records, pass_scale


def check_records(records: list[Record]) -> None:
    """Set rec.failure for every operation that exited non-zero or whose document
    fails its check.  A document byte-identical to one already checked for the
    same job passes without a second check."""
    passed = set()
    for rec in records:
        if rec.code != 0:
            lines = rec.stderr.strip().splitlines()
            rec.failure = f"exit {rec.code}: {lines[-1] if lines else 'no message'}"
            continue
        try:
            key = (rec.job.name, hashlib.sha256(rec.path.read_bytes()).hexdigest())
            if key not in passed:
                rec.job.check(rec.path)
                passed.add(key)
        except Exception as exc:  # a missing or malformed document is a failed check
            rec.failure = f"check: {exc}" if isinstance(exc, check.CheckFailure) else f"check: {exc!r}"


def summarise_failures(records: list[Record]) -> list[dict]:
    """Failed operations grouped by job, each with its reason."""
    groups: dict[str, dict] = {}
    for rec in records:
        if rec.failure is None:
            continue
        entry = groups.setdefault(rec.job.name, {
            "job": rec.job.name, "argv": rec.job.argv, "times": 0,
            "reason": rec.failure, "known_fault": rec.job.known_fault,
        })
        entry["times"] += 1
    return list(groups.values())


def job_seconds(records: list[Record]) -> dict[str, list[float]]:
    """Wall time of each job, one entry per pass."""
    out: dict[str, list[float]] = {}
    for rec in records:
        out.setdefault(rec.job.name, []).append(rec.seconds)
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny job lists, one setup sample")
    args = parser.parse_args(argv)

    if not (SRC / "bsq" / "cli.py").is_file():
        sys.stderr.write(f"error: no bsq sources under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    import bsq.cli
    import bsq.theta

    os.chdir(ROOT)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # setup_s samples are spread over the run, one before each pass, so that they
    # see the same machine as the passes; the first import writes the bytecode caches
    setup_samples: list[float] = []
    setup_repeats = 0 if args.trace else 1 if args.quick else SETUP_REPEATS
    if setup_repeats:
        time_import()

    # an untimed warm-up over the tiny job list, so that lazy imports and first
    # calls are not inside the first timed pass; its documents are not checked
    warmup_dir = run_dir.relative_to(ROOT) / "warmup"
    run_pass(bsq.cli.main, jobs.build(args.workload, random.Random(0), warmup_dir / "in", quick=True),
             -1, warmup_dir, None)
    shutil.rmtree(warmup_dir)

    tracer = spans.Tracer() if args.trace else None
    cli_main = tracer.wrap("cli.main", bsq.cli.main) if tracer else bsq.cli.main
    records: list[Record] = []
    pass_times: list[float] = []  # wall time of each pass: the sum of its job times
    scaled_pass_times: list[float] = []
    pass_scales: list[float] = []
    origin = perf_counter()
    with tracer.installed(bsq.cli, bsq.theta.ThetaBasisMatrix) if tracer else contextlib.nullcontext():
        while not pass_times or sum(pass_times) < args.seconds:
            if len(setup_samples) < setup_repeats:
                setup_samples.append(time_import())
            p = len(pass_times)
            rng = random.Random(f"{args.workload}/{args.seed}/{p}")
            pass_dir = run_dir.relative_to(ROOT) / f"pass{p}"
            job_list = jobs.build(args.workload, rng, pass_dir / "in", args.quick)
            pass_records, pass_scale = run_pass(cli_main, job_list, p, pass_dir, tracer)
            records += pass_records
            pass_scales.append(pass_scale)
            pass_times.append(sum(r.seconds for r in pass_records))
            scaled_pass_times.append(sum(r.scaled_seconds for r in pass_records))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_samples) < setup_repeats:
        setup_samples.append(time_import())

    # each setup sample is scaled like the pass that follows it, or like the last
    # pass for the samples taken after it
    scaled_setup = [t * pass_scales[min(i, len(pass_scales) - 1)] for i, t in enumerate(setup_samples)]

    check_start = perf_counter()
    check_records(records)
    check_s = perf_counter() - check_start
    failures = summarise_failures(records)
    failed = sum(f["times"] for f in failures)
    correct = all(f["known_fault"] for f in failures)
    jobs_per_pass = len(records) // len(pass_times)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "quick": args.quick,
        "passes": len(pass_times), "jobs_per_pass": jobs_per_pass, "pass_s": pass_times,
        "scaled_pass_s": scaled_pass_times, "setup_s": setup_samples, "scaled_setup_s": scaled_setup,
        "scaled_run_s": statistics.median(scaled_pass_times),
        "unscaled": {"run_s": statistics.median(pass_times),
                     "job_p50_ms": 1000.0 * statistics.median(r.seconds for r in records)},
        "pass_speed": [1.0 / scale for scale in pass_scales],
        "attempted": len(records), "failed": failed, "correct": correct, "failures": failures,
        "check_s": check_s, "job_s": job_seconds(records),
    }

    if tracer:
        by_pass = [[s for s in tracer.spans if s["job"].startswith(f"{p}/")] for p in range(len(pass_times))]
        values = spans.median_metrics([spans.pass_metrics(ss) for ss in by_pass])
        metrics = {name: metric(values[name], unit) for name, unit in spans.UNITS.items()}
        repeats = [spans.repeated_rows(ss) for ss in by_pass]
        report["traced_run_s"] = statistics.median(pass_times)
        report["layer_shares"] = spans.layer_shares(values, report["traced_run_s"])
        report["repeated_rows"] = {key: statistics.median(r[key] for r in repeats) for key in repeats[0]}
        tracer.write_jsonl(run_dir / "spans.jsonl", origin)
    else:
        values = {
            "setup_s": statistics.median(scaled_setup),
            "run_s": statistics.median(scaled_pass_times),
            "job_p50_ms": 1000.0 * statistics.median(r.scaled_seconds for r in records),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    report["metrics"] = metrics

    for p in range(len(pass_times)):
        shutil.rmtree(run_dir / f"pass{p}")
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(pass_times)} passes x {jobs_per_pass} jobs, "
          f"attempted {len(records)}, failed {failed}, report {run_dir.relative_to(ROOT)}/report.json")
    for f in failures:
        kind = f"known fault: {f['known_fault']}" if f["known_fault"] else "UNEXPECTED"
        print(f"  failed {f['times']}x {f['job']}: {f['reason']} [{kind}]")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
