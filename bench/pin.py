"""Pin the expected output of every pool job: ``python3 bench/pin.py [workload ...]``.

Runs each job of a workload's pool once through ``absinv.cli.main`` and
writes ``expected/<workload>.json``: for each job key, [input digest, exit
code, stdout digest, steps, milliseconds].  The milliseconds only rank jobs
by cost when run job lists are drawn (see ``workloads.stratified``).  Refuses to pin a pool in which any job raises,
exits with a code other than 0 or 1, disagrees with the const-chains closed
form or reports oracle failures.  Re-pin only in a change that redefines
the benchmark, never in one that claims a speed-up.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import EXPECTED, check, digest, import_absinv, run_job, verdict_and_steps, write_programs  # noqa: E402
from workloads import POOLS, WORKLOADS  # noqa: E402


def pin(workload: str) -> int:
    cli, _ = import_absinv()
    jobs = POOLS[workload]()
    pins, bad, total = {}, 0, 0.0
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        argvs = write_programs(jobs, Path(tmp))
        for job in jobs:
            out = run_job(cli, job, argvs[job.key])
            total += out.seconds
            entry = [job.input_digest(), out.exit, digest(out.stdout), None, round(1000 * out.seconds, 3)]
            if job.family != "oracle":
                entry[3] = verdict_and_steps(out.stdout)[1]
            problems = check(out, entry)
            if out.exit not in (0, 1):
                problems.append(f"exit code {out.exit}")
            if problems:
                bad += 1
                print(f"{workload} {job.key}: {'; '.join(problems)}", file=sys.stderr)
            pins[job.key] = entry
    print(f"{workload}: {len(jobs)} jobs, {total:.1f} s, {bad} unusable")
    if bad:
        return 1
    path = EXPECTED / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(pins, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    return max(pin(w) for w in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
