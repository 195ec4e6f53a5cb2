"""Seeded input generators and job lists for the four benchmark workloads.

Every program and CLI argument list comes from ``random.Random`` seeded with
a string, so generation is deterministic and independent of ``absinv``.
Analysis inputs are drawn from a fixed *pool* per workload; the expected
output of every pool job is pinned in ``expected/<workload>.json``, which
is what lets a run check any workload seed.  The workload seed chooses
which pool items a run uses and in what order, with the same shape (ring
sizes, or the spread of pinned job costs) for every seed so that runs with
different seeds measure comparable work.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("const-chains", "affine-dense", "oracle", "many-small")

PROGRAM = "{program}"  # placeholder in argv for the generated program's path


@dataclass(frozen=True)
class Job:
    """One ``absinv`` CLI call: argv (with the program path as a placeholder)."""

    key: str
    argv: tuple[str, ...]
    program: str | None = None  # program file text, None for oracle jobs
    family: str = ""
    domain: str = ""
    direction: str = ""
    N: int = 0
    n: int = 0
    edges: int = 0
    holds: bool | None = None  # whether the property holds by construction

    def input_digest(self) -> str:
        h = hashlib.sha256("\0".join(self.argv).encode())
        h.update(b"\0" + (self.program or "").encode())
        return h.hexdigest()[:12]


def _analyze_argv(domain: str, alg: str, props: list[str], extra: tuple[str, ...] = ()) -> tuple[str, ...]:
    argv = ["analyze", "--program", PROGRAM, "--domain", domain, "--alg", alg]
    for p in props:
        argv += ["--prop", p]
    return tuple(argv) + extra


def _header(n: int, sort: str, N: int) -> list[str]:
    return [f"vars {n};", f"sort {sort};", "nodes " + " ".join(f"q{i}" for i in range(1, N + 1)) + ";"]


def stratified(rng: random.Random, candidates: list[Job], k: int, pins: dict) -> list[Job]:
    """About ``k`` jobs: one from each of equal strata of ``candidates`` ranked by pinned cost.

    Jobs are first split by pinned exit code (the verdict), each verdict
    getting its share of the ``k`` strata, so every seed has the pool's
    verdict mix.  The pinned cost is the job's wall time when its output was
    pinned; only its rank is used, so every seed gets a job list with the
    same spread of cheap and costly jobs while the jobs themselves differ.
    """
    picked = []
    for code in sorted({pins[j.key][1] for j in candidates}):
        group = sorted((j for j in candidates if pins[j.key][1] == code), key=lambda j: (pins[j.key][4], j.key))
        strata = max(1, round(k * len(group) / len(candidates)))
        per = len(group) // strata
        picked += [rng.choice(group[s * per:(s + 1) * per]) for s in range(strata)]
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------------------
# const-chains: rings of N nodes, closed-form verdicts and step counts
# ---------------------------------------------------------------------------

CHAIN_N_VARS = 4
# ring sizes: dense between 24 and 36, where the median job falls, so that
# neighbouring job costs differ by a few per cent rather than by half
CHAIN_SIZES = (8, 12, 16, 20, 24, 26, 28, 30, 32, 34, 36, 40, 50, 64, 80, 100, 160)
CHAIN_VARIANTS = 8


def chain_program(N: int, variant: int) -> str:
    """Ring q1 -> ... -> qN -> q1: each forward edge adds a positive constant
    to one of x1..x(n-1), xn stays 0, and the back edge is ``skip``."""
    rng = random.Random(f"const-chains:{N}:{variant}")
    n = CHAIN_N_VARS
    init = ",".join(str(rng.randint(-5, 5)) for _ in range(n - 1)) + ",0"
    lines = ["# const-chains ring", *_header(n, "int", N), f"init q1: ({init});"]
    for i in range(1, N):
        j = rng.randint(1, n - 1)
        lines.append(f"edge q{i} -> q{i + 1} : x{j} := x{j} + {rng.randint(1, 3)};")
    lines.append(f"edge q{N} -> q1 : skip;")
    return "\n".join(lines) + "\n"


def chain_prop(N: int, holds: bool) -> str:
    return f"q{N}: (" + "top," * (CHAIN_N_VARS - 1) + ("0" if holds else "1") + ")"


def chain_closed_form(N: int, direction: str, holds: bool) -> tuple[bool, int]:
    """(invariant found, steps) for a ring, derived by hand from the engines.

    Forward: the initial point reaches qN after N-1 steps; with the property
    violated that iterate is the witness, otherwise a second lap widens every
    incremented variable to top, one node per step, so it stabilises after
    2N-1 steps.  Backward: the constraint xn = c travels backwards one node
    per step and reaches q1 after N steps, where it either entails the
    initial point (c = 0) or does not.
    """
    if direction == "forward":
        return (True, 2 * N - 1) if holds else (False, N - 1)
    return holds, N


def chain_pool() -> list[Job]:
    jobs = []
    for N in CHAIN_SIZES:
        for v in range(CHAIN_VARIANTS):
            text = chain_program(N, v)
            for alg in ("forward", "backward"):
                for holds in (True, False):
                    jobs.append(Job(
                        key=f"N{N}.v{v}/{alg}-{'hold' if holds else 'fail'}",
                        argv=_analyze_argv("const", alg, [chain_prop(N, holds)]),
                        program=text, family="chain", domain="const", direction=alg,
                        N=N, n=CHAIN_N_VARS, edges=N, holds=holds,
                    ))
    return jobs


def chain_jobs(seed: int, pool: list[Job], pins: dict) -> list[Job]:
    """One variant per ring size, all four (direction, property) jobs of it."""
    rng = random.Random(f"const-chains/{seed}")
    chosen = {N: rng.randrange(CHAIN_VARIANTS) for N in CHAIN_SIZES}
    jobs = [j for j in pool if j.key.split("/")[0] == f"N{j.N}.v{chosen[j.N]}"]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Random CFGs (affine-dense and many-small)
# ---------------------------------------------------------------------------


def _linexpr(rng: random.Random, n: int, k: int) -> str:
    terms = [f"{rng.choice((-3, -2, -1, 1, 2, 3))}*x{v}" for v in rng.sample(range(1, n + 1), k)]
    return " + ".join(terms) + f" + {rng.randint(-4, 4)}"


def _statement(rng: random.Random, n: int, sort: str) -> str:
    r = rng.random()
    if r < 0.35:
        return f"x{rng.randint(1, n)} := {_linexpr(rng, n, min(2, n))}"
    if r < 0.55:
        return f"x{rng.randint(1, n)} := {_linexpr(rng, n, 1)}"
    if r < 0.68 and n >= 2:
        j, k = rng.sample(range(1, n + 1), 2)
        return f"x{j} := {_linexpr(rng, n, 2)}, x{k} := {_linexpr(rng, n, 1)}"
    if r < 0.78:
        return f"x{rng.randint(1, n)} := ?"
    if r < 0.88:
        rows = " and ".join(f"{_linexpr(rng, n, min(2, n))} = 0" for _ in range(rng.randint(1, 2)))
        return f"assume {rows}"
    if r < 0.95:
        if sort == "int" and rng.random() < 0.6:
            rel = rng.choice(("<", "<=", ">", ">="))
            join = rng.choice(("and", "or"))
            rows = f" {join} ".join(
                f"x{rng.randint(1, n)} {rel} {rng.randint(-4, 4)}" for _ in range(rng.randint(1, 2))
            )
            return f"assume {rows}"
        return f"assume x{rng.randint(1, n)} != {rng.randint(-3, 3)}"
    return "skip"


def _vector_literal(rng: random.Random, n: int, p_const: float, lo: int = -3, hi: int = 3) -> str:
    return "(" + ",".join(
        str(rng.randint(lo, hi)) if rng.random() < p_const else "top" for _ in range(n)
    ) + ")"


# -- affine-dense ------------------------------------------------------------

AFFINE_N_NODES = 8
AFFINE_LOOPS = 2  # back edges
AFFINE_SKIPS = 1  # forward edges that skip nodes
AFFINE_N_VARS = 8
AFFINE_POOL = 128


def affine_program(index: int) -> tuple[str, int, int]:
    """Random rational CFG: a path q1..qN with back and skip edges.

    The only edge into qN sets one variable to a constant; returns the
    text, that variable and that constant, so a property on qN can be made
    to hold or fail by construction.
    """
    rng = random.Random(f"affine-dense:{index}")
    N, n = AFFINE_N_NODES, AFFINE_N_VARS
    lines = ["# affine-dense random CFG", *_header(n, "rat", N)]
    lines.append(f"init q1: {_vector_literal(rng, n, 0.6)};")
    edges = [(i, i + 1) for i in range(1, N - 1)]
    edges += [(b, rng.randint(1, b)) for b in rng.sample(range(2, N), AFFINE_LOOPS)]
    edges += [(a, rng.randint(a + 2, N - 1)) for a in rng.sample(range(1, N - 2), AFFINE_SKIPS)]
    for a, b in edges:
        lines.append(f"edge q{a} -> q{b} : {_statement(rng, n, 'rat')};")
    var, const = rng.randint(1, n), rng.randint(-5, 5)
    lines.append(f"edge q{N - 1} -> q{N} : x{var} := {const};")
    return "\n".join(lines) + "\n", var, const


def affine_pool() -> list[Job]:
    jobs = []
    for i in range(AFFINE_POOL):
        text, var, const = affine_program(i)
        for holds in (True, False):
            prop = f"q{AFFINE_N_NODES}: x{var} = {const if holds else const + 1}"
            jobs.append(Job(
                key=f"p{i}/forward-{'hold' if holds else 'fail'}",
                argv=_analyze_argv("affine", "forward", [prop]),
                program=text, family="random", domain="affine", direction="forward",
                N=AFFINE_N_NODES, n=AFFINE_N_VARS, edges=text.count("\nedge "), holds=holds,
            ))
    return jobs


AFFINE_JOBS_PER_RUN = 48


def affine_jobs(seed: int, pool: list[Job], pins: dict) -> list[Job]:
    return stratified(random.Random(f"affine-dense/{seed}"), pool, AFFINE_JOBS_PER_RUN, pins)


# -- many-small ----------------------------------------------------------------

SMALL_POOL = 1600
SMALL_JOBS_PER_RUN = 700


def small_program(index: int) -> tuple[str, str, int, int, int]:
    """Random small CFG: mostly const (n <= 4), some affine (n <= 2), N <= 12.

    Returns (text, domain, N, n, edge count).
    """
    rng = random.Random(f"many-small:{index}")
    affine = rng.random() < 0.25
    n = rng.randint(1, 2) if affine else rng.randint(1, 4)
    sort = "rat" if affine else "int"
    N = rng.randint(2, 12)
    lines = [f"# many-small program {index}", *_header(n, sort, N)]
    kind = rng.random()
    if kind < 0.4:
        init = "top"
    elif kind < 0.8:
        init = _vector_literal(rng, n, 0.7)
    else:
        pts = ";".join(_vector_literal(rng, n, 1.0)[1:-1].join("()") for _ in range(rng.randint(1, 3)))
        init = "{" + pts + "}"
    lines.append(f"init q1: {init};")
    edges = [(rng.randint(1, b - 1), b) for b in range(2, N + 1)]
    edges += [(rng.randint(1, N), rng.randint(1, N)) for _ in range(rng.randint(0, N // 2 + 1))]
    for a, b in edges:
        lines.append(f"edge q{a} -> q{b} : {_statement(rng, n, sort)};")
    return "\n".join(lines) + "\n", "affine" if affine else "const", N, n, len(edges)


def small_pool() -> list[Job]:
    jobs = []
    for i in range(SMALL_POOL):
        text, domain, N, n, E = small_program(i)
        rng = random.Random(f"many-small:{i}:jobs")
        props = [
            f"q{q}: {_vector_literal(rng, n, 0.5, -2, 2)}"
            for q in sorted(rng.sample(range(1, N + 1), rng.randint(0, min(2, N))))
        ]
        extra = ("--trace", "--format", "json") if rng.random() < 0.5 else ()
        for alg in ("forward", "backward") if domain == "const" else ("forward",):
            jobs.append(Job(
                key=f"p{i}/{alg}", argv=_analyze_argv(domain, alg, props, extra),
                program=text, family="small", domain=domain, direction=alg,
                N=N, n=n, edges=E,
            ))
    return jobs


def small_jobs(seed: int, pool: list[Job], pins: dict) -> list[Job]:
    return stratified(random.Random(f"many-small/{seed}"), pool, SMALL_JOBS_PER_RUN, pins)


# ---------------------------------------------------------------------------
# oracle: (suite, CLI seed) jobs, weighted so cheap suites are not lost
# ---------------------------------------------------------------------------

ORACLE_TRIALS = 20
# Jobs per run for each suite: the cheap suites get many more jobs, so they
# are not lost in the noise.  The counts also place the percentiles inside
# steady groups: as many corollary9 jobs (the cheapest) as jobs of the four
# costly suites puts the median in the middle of the algorithms jobs, and
# lemma6 and adjunctions (whose cost varies most between seeds) have fewer
# than ten jobs together, so the tail falls among the completeness jobs.
ORACLE_JOBS = {
    "lemma1": 24,
    "completeness": 20,
    "lemma6": 4,
    "algorithms": 160,
    "corollary9": 52,
    "adjunctions": 4,
}
ORACLE_POOL_FACTOR = 4  # pool seeds per suite = factor * jobs per run


def oracle_pool() -> list[Job]:
    return [
        Job(
            key=f"{suite}/{s}",
            argv=("oracle", "--suite", suite, "--seed", str(s), "--trials", str(ORACLE_TRIALS)),
            family="oracle", domain="finite", direction=suite,
        )
        for suite, count in ORACLE_JOBS.items()
        for s in range(ORACLE_POOL_FACTOR * count)
    ]


def oracle_jobs(seed: int, pool: list[Job], pins: dict) -> list[Job]:
    rng = random.Random(f"oracle/{seed}")
    jobs = []
    for suite, count in ORACLE_JOBS.items():
        jobs += stratified(rng, [j for j in pool if j.direction == suite], count, pins)
    rng.shuffle(jobs)
    return jobs


POOLS = {
    "const-chains": chain_pool,
    "affine-dense": affine_pool,
    "oracle": oracle_pool,
    "many-small": small_pool,
}

SELECT = {
    "const-chains": chain_jobs,
    "affine-dense": affine_jobs,
    "oracle": oracle_jobs,
    "many-small": small_jobs,
}


def job_list(workload: str, seed: int, pins: dict) -> list[Job]:
    """The fixed job list a run of ``workload`` with ``seed`` executes."""
    return SELECT[workload](seed, POOLS[workload](), pins)
