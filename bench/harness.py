"""Running ``absinv.cli.main`` jobs in-process and checking their outputs."""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import re
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import PROGRAM, Job, chain_closed_form

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected"


class MissingProgram(RuntimeError):
    """The checkout has no ``src/absinv`` to benchmark."""


def import_absinv():
    """Import ``absinv.cli`` from this checkout's ``src`` (never an installed copy).

    Drops any ``absinv`` modules already loaded, so each call re-executes the
    package's module code; returns (cli module, wall seconds).
    """
    if not (SRC / "absinv" / "cli.py").is_file():
        raise MissingProgram(f"no program to benchmark: {SRC / 'absinv'} is missing")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "absinv" or m.startswith("absinv.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    t0 = time.perf_counter()
    cli = importlib.import_module("absinv.cli")
    elapsed = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingProgram(f"absinv was imported from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class Outcome:
    job: Job
    exit: int | None
    stdout: str
    seconds: float  # wall time of the cli.main call
    error: str | None = None  # traceback text, if the call raised
    scale: float = 1.0  # REFERENCE_S / calibration seconds around the call

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def reference_work() -> int:
    """Fixed pure-Python work that never touches absinv: dict, int and Fraction ops."""
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + 3 * i
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return sum(counts.values()) + acc.denominator


# The reference machine is a shared 2-vCPU host whose speed drifts by up to
# 1.7x over seconds to minutes.  Timing reference_work between jobs tracks
# that drift; a wall time multiplied by REFERENCE_S / (calibration seconds)
# is the time at the speed at which reference_work takes REFERENCE_S, which
# is its uncontended time on the reference machine.
REFERENCE_S = 0.002
CALIBRATE_EVERY_S = 0.2  # job time between two calibrations


def calibrate() -> float:
    """Best of three timings of ``reference_work``, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference speed, given the calibrations around it."""
    return 2 * REFERENCE_S / (before + after)


def write_programs(jobs: list[Job], workdir: Path) -> dict[str, list[str]]:
    """Write each distinct program once; returns the concrete argv per job key."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {}
    argvs = {}
    for job in jobs:
        argv = list(job.argv)
        if job.program is not None:
            if job.program not in paths:
                path = workdir / f"p{len(paths)}.prog"
                path.write_text(job.program)
                paths[job.program] = str(path)
            argv[argv.index(PROGRAM)] = paths[job.program]
        argvs[job.key] = argv
    return argvs


def run_job(cli, job: Job, argv: list[str]) -> Outcome:
    """One closed-loop call of ``cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    return Outcome(job, code, out.getvalue(), seconds, error)


_FOUND = re.compile(r"abstract inductive invariant found after (\d+) steps:")
_NOT_FOUND = re.compile(r"^no abstract inductive invariant \(([\w-]+) at step (\d+)\)", re.M)


def verdict_and_steps(stdout: str) -> tuple[str, int | None]:
    """Parse an ``analyze`` result: ("invariant"|"no-invariant"|"?", steps).

    For a no-invariant verdict in text form the failing step index is the
    index of the last iterate, which is the step count.
    """
    if stdout.startswith("{"):
        try:
            doc = json.loads(stdout)
            return doc["result"], doc["steps"]
        except (ValueError, KeyError):
            return "?", None
    if m := _FOUND.search(stdout):
        return "invariant", int(m.group(1))
    if m := _NOT_FOUND.search(stdout):
        return "no-invariant", int(m.group(2))
    return "?", None


def oracle_failures(stdout: str) -> int | None:
    m = re.search(r"^total failures: (\d+)$", stdout, re.M)
    return int(m.group(1)) if m else None


def check(outcome: Outcome, pin: list | None) -> list[str]:
    """Every reason the job failed; empty when it passed.

    ``pin`` is [input digest, exit code, stdout digest, steps, milliseconds]
    as recorded by ``pin.py`` at the commit that defined the benchmark.
    """
    job = outcome.job
    problems = []
    if outcome.error is not None:
        problems.append("traceback: " + outcome.error.strip().splitlines()[-1])
    if pin is None:
        return problems + ["no pinned output for this job"]
    if job.input_digest() != pin[0]:
        problems.append("generated input differs from the pinned input (stale pin)")
    if outcome.exit != pin[1]:
        problems.append(f"exit code {outcome.exit}, expected {pin[1]}")
    if digest(outcome.stdout) != pin[2]:
        problems.append("stdout differs from the pinned output")
    if job.family == "chain":
        found, steps = chain_closed_form(job.N, job.direction, job.holds)
        verdict, got = verdict_and_steps(outcome.stdout)
        if (verdict, got) != ("invariant" if found else "no-invariant", steps):
            problems.append(f"closed form says found={found} steps={steps}, got {verdict} {got}")
    if job.family == "oracle" and oracle_failures(outcome.stdout) != 0:
        problems.append("oracle suite reported failures")
    return problems


def load_pins(workload: str) -> dict:
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}
