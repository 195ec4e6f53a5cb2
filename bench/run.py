"""Seeded end-to-end benchmark of ``absinv analyze`` and ``absinv oracle``.

Usage::

    python3 bench/run.py --workload const-chains --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

One process, one caller, one thread: jobs go through ``absinv.cli.main``
back to back (a closed loop).  ``--trace 0`` repeats whole passes over the
workload's fixed job list until ``--seconds`` is used up and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics.  Every output is checked; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.  A results
file with the environment, inputs and (traced) per-job rows and spans goes
to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from harness import (  # noqa: E402
    CALIBRATE_EVERY_S, ROOT, SRC, MissingProgram, calibrate, check, import_absinv, load_pins,
    run_job, scale, verdict_and_steps, write_programs,
)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, job_list  # noqa: E402

SETUP_REPEATS = 3  # imports of absinv.cli before the first pass and after each pass
MIN_TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(repeats: int = SETUP_REPEATS):
    """Import ``absinv.cli`` ``repeats`` times; the last import stays loaded.

    Returns the module and each import's wall time scaled to reference speed.
    """
    times = []
    for _ in range(repeats):
        before = calibrate()
        cli, seconds = import_absinv()
        times.append(seconds * scale(before, calibrate()))
    return cli, times


def run_pass(cli, jobs, argvs, pins, tracer=None):
    """Run every job once; returns (outcomes, problems by job index).

    The host's speed is calibrated before the pass, after every
    CALIBRATE_EVERY_S of job time and after the pass; each outcome is scaled
    by the mean of the calibrations just before and just after it.
    """
    gc.collect()
    outcomes, problems = [], {}
    marks = [(0, calibrate())]  # (index of the next job, calibration seconds)
    since = 0.0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        out = run_job(cli, job, argvs[job.key])
        outcomes.append(out)
        since += out.seconds
        if since >= CALIBRATE_EVERY_S or i == len(jobs) - 1:
            marks.append((i + 1, calibrate()))
            since = 0.0
    for (start, before), (stop, after) in zip(marks, marks[1:]):
        for out in outcomes[start:stop]:
            out.scale = scale(before, after)
    for i, out in enumerate(outcomes):
        if found := check(out, pins.get(out.job.key)):
            problems[i] = found
    return outcomes, problems


def tail(values: list[float], jobs: int) -> float:
    """The highest percentile of ``values`` that leaves MIN_TAIL_BEYOND of
    every ``jobs`` values above it (``values`` pools one or more passes)."""
    if jobs <= MIN_TAIL_BEYOND:
        raise ValueError(f"need more than {MIN_TAIL_BEYOND} jobs for a tail percentile")
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) * (jobs - MIN_TAIL_BEYOND) / jobs) - 1]


def timing_metrics(latencies: list[list[float]]) -> dict[str, float]:
    """Throughput and latency percentiles from per-job, per-pass times (seconds).

    The percentiles pool every pass: more readings near each percentile
    than per-job medians would give.
    """
    pooled = [t for per_job in latencies for t in per_job]
    passes = [sum(p) for p in zip(*latencies)]
    return {
        "jobs_per_s": len(latencies) / statistics.median(passes),
        "job_p50_ms": 1000 * statistics.median(pooled),
        "job_tail_ms": 1000 * tail(pooled, len(latencies)),
    }


def end_to_end(jobs, argvs, pins, seconds: float):
    """Whole passes until ``seconds`` would be exceeded (at least one).

    Times are scaled to reference speed (see ``harness.REFERENCE_S``); the
    unscaled figures go to the results file.  The set-up is measured before
    the first pass and after each pass, so its median covers the whole run.
    """
    cli, setup_times = measure_setup()
    scaled, raw = [[] for _ in jobs], [[] for _ in jobs]
    failures, attempted = [], 0
    start = time.perf_counter()
    while True:
        outcomes, problems = run_pass(cli, jobs, argvs, pins)
        for i, out in enumerate(outcomes):
            scaled[i].append(out.scaled)
            raw[i].append(out.seconds)
        attempted += len(jobs)
        failures += [(jobs[i].key, p) for i, p in problems.items()]
        cli, more = measure_setup()
        setup_times += more
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(raw[0]) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setup_times),
        **timing_metrics(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "passes": len(raw[0]),
        "unscaled": timing_metrics(raw),
        "pass_seconds": [sum(p) for p in zip(*raw)],
        "job_tail_percentile": 100 * (len(jobs) - MIN_TAIL_BEYOND) / len(jobs),
        "samples": len(jobs) * len(raw[0]),
        "fail_ratio": len(failures) / attempted,
        "setup_seconds": setup_times,
    }
    return metrics, detail, attempted, failures


def traced(cli, jobs, argvs, pins):
    """One untraced pass, then one traced pass of the same jobs."""
    plain, plain_problems = run_pass(cli, jobs, argvs, pins)
    tracer = Tracer()
    tracer.install()
    try:
        seen, seen_problems = run_pass(cli, jobs, argvs, pins, tracer)
    finally:
        tracer.remove()
    failures = [(jobs[i].key, p) for i, p in plain_problems.items()]
    for i, (a, b) in enumerate(zip(plain, seen)):
        problems = seen_problems.get(i, [])
        if a.stdout != b.stdout or a.exit != b.exit:
            problems = problems + ["traced stdout differs from untraced stdout"]
        if problems:
            failures.append((jobs[i].key, problems))
    plain_s = sum(o.scaled for o in plain)
    traced_s = sum(o.scaled for o in seen)
    rows, steps, parsed_bytes = [], 0, 0
    for out in seen:
        job = out.job
        verdict, n_steps = verdict_and_steps(out.stdout) if job.family != "oracle" else (
            "pass" if out.exit == 0 else "fail", None)
        steps += n_steps or 0
        parsed_bytes += len((job.program or "").encode())
        rows.append({
            "key": job.key, "family": job.family, "domain": job.domain,
            "direction": job.direction, "N": job.N, "n": job.n, "verdict": verdict,
            "steps": n_steps, "time_s": out.seconds, "scaled_s": out.scaled,
        })
    metrics = {k: v for k, (v, _) in tracer.metrics().items()}
    units = {k: u for k, (_, u) in tracer.metrics().items()}
    parse_s = tracer.total_s("programs.parse_program")
    extra = {
        "programs.parse_kb_per_s": (parsed_bytes / 1000 / parse_s if parse_s else 0.0, "kB/s"),
        "synthesis.steps": (steps, "count"),
        "synthesis.changed_per_recomputed": (
            tracer.changed / tracer.recomputed if tracer.recomputed else 0.0, "ratio"),
        "cli.stdout_bytes": (sum(len(o.stdout.encode()) for o in seen), "bytes"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_ratio": (traced_s / plain_s - 1, "ratio"),
    }
    for name, (value, unit) in extra.items():
        metrics[name], units[name] = value, unit
    detail = {"untraced_s": plain_s, "traced_s": traced_s, "rows": rows, "spans": tracer.span_log()}
    return metrics, units, detail, 2 * len(jobs), failures


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "absinv").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def input_size(jobs) -> dict:
    return {
        "jobs": len(jobs),
        "nodes": sum(j.N for j in jobs),
        "edges": sum(j.edges for j in jobs),
        "bytes": sum(len((j.program or "").encode()) for j in jobs),
    }


def environment(workload: str, seed: int, seconds: float, trace: int, jobs) -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input": input_size(jobs),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    pins = load_pins(workload)
    if not pins:
        print(f"error: no pinned outputs for {workload} in bench/expected/", file=sys.stderr)
        return 2
    try:
        cli, _ = import_absinv()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = job_list(workload, seed, pins)
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / ".work"))
    try:
        argvs = write_programs(jobs, workdir)
        if trace:
            metrics, units, detail, attempted, failures = traced(cli, jobs, argvs, pins)
        else:
            metrics, detail, attempted, failures = end_to_end(jobs, argvs, pins, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(workload, seed, seconds, trace, jobs)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{workload}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps({
        "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
        "attempted": attempted,
        "failures": [{"job": k, "problems": p} for k, p in failures],
    }, separators=(",", ":")) + "\n")

    size = env["input"]
    print(f"workload {workload}  seed {seed}  python {env['python']}  nproc {env['nproc']}  "
          f"git {env['git_sha'] or 'n/a'}")
    print(f"input: {size['jobs']} jobs, {size['nodes']} nodes, {size['edges']} edges, {size['bytes']} bytes")
    for key, problems in failures[:10]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    if not trace:
        print(f"passes {detail['passes']}, tail = p{detail['job_tail_percentile']:.1f} "
              f"of {detail['samples']} latencies, times scaled to reference speed")
        for name, value in [*metrics.items(), ("fail_ratio", detail["fail_ratio"])]:
            print(f"  {name:<14} {value:>12.6g} {units.get(name, 'ratio')}")
    else:
        print(f"untraced pass {detail['untraced_s']:.3f} s, traced pass {detail['traced_s']:.3f} s "
              "(scaled to reference speed)")
    print(f"results: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
