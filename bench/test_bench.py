"""Tests of the benchmark itself: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from harness import ROOT, import_absinv, load_pins, write_programs  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import POOLS, WORKLOADS, job_list  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the per-layer metrics the benchmark was specified with
LAYER_FUNCTIONS = {
    "programs": ["post_edges_into", "out_edges", "StateVector.getitem", "parse_program"],
    "synthesis": [
        "abstract_post_step", "pure_post_step", "abstract_pret_step", "verify_invariant",
        "ConstAdapter.transfer", "AffAdapter.transfer", "ConstAdapter.wp",
        "AnalysisProblem.build", "render_state_vector",
    ],
    "const_domain": ["join", "leq", "meet", "bca_parallel_assign", "bca_nondet_assign", "bca_guard", "bca_eq_guard"],
    "affine": [
        "join", "includes", "meet", "meet_hyperplane", "bca_parallel_assign", "bca_nondet_assign",
        "bca_eq_guard", "rref", "dot", "generators_to_constraints", "AffSubspace.init",
    ],
    "cli": ["main"],
    "lattice": ["lfp_iterate", "gfp_iterate"],
    "finite": [
        "random_ts", "random_gi", "random_closure_family", "random_monotone", "check_lemma1",
        "check_fixpoint_completeness_char", "check_safe_inv", "check_lemma6", "run_algorithm1",
        "run_algorithm2_padon", "run_algorithm4", "greatest_invariant_enum", "check_corollary9",
        "check_adjunctions", "check_eq4_duality",
    ],
}
LAYER_EXTRAS = ["programs.parse_kb_per_s", "synthesis.steps", "synthesis.changed_per_recomputed", "cli.stdout_bytes"]
END_TO_END = ["setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"]


def named_layer_metrics() -> list[str]:
    return [f"{layer}.{fn}.{kind}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
            for kind in ("calls", "self_s")] + LAYER_EXTRAS


@pytest.fixture(scope="module")
def pins():
    return {w: load_pins(w) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, pins):
    a = job_list(workload, 11, pins[workload])
    b = job_list(workload, 11, pins[workload])
    c = job_list(workload, 12, pins[workload])
    assert [(j.key, j.argv, j.program) for j in a] == [(j.key, j.argv, j.program) for j in b]
    assert {j.key for j in a} != {j.key for j in c}
    assert len(a) == len(c)

    def mix(jobs):  # share of jobs whose pinned exit code says "invariant found" / "no failures"
        return sum(pins[workload][j.key][1] == 0 for j in jobs) / len(jobs)

    assert abs(mix(a) - mix(c)) <= 0.1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pool_matches_pins(workload, pins):
    """The generators still produce exactly the inputs whose outputs were pinned."""
    pool = POOLS[workload]()
    assert {j.key for j in pool} == set(pins[workload])
    assert all(j.input_digest() == pins[workload][j.key][0] for j in pool)


def test_verdict_mix(pins):
    exits = Counter(pins["many-small"][j.key][1] for j in job_list("many-small", 0, pins["many-small"]))
    assert set(exits) == {0, 1} and min(exits.values()) > 0.3 * sum(exits.values())
    assert all(v[1] == 0 for v in pins["oracle"].values())


def _snapshot():
    """Every attribute of every loaded absinv module and of the classes they define."""
    owners = [m for k, m in sys.modules.items() if k == "absinv" or k.startswith("absinv.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("absinv")]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_remove_restores_every_attribute():
    import_absinv()
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    import absinv.synthesis as synthesis

    assert synthesis.post_edges_into is not before[(id(synthesis), "post_edges_into")]
    assert len(tracer.patches) >= sum(len(v) for v in LAYERS.values())
    tracer.remove()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tail_leaves_ten_values_per_pass_above():
    one_pass = [float(i) for i in range(1, 41)]
    assert run.tail(one_pass, 40) == 30.0
    assert run.tail(one_pass + one_pass, 40) == 30.0
    with pytest.raises(ValueError):
        run.tail([1.0] * 10, 10)


def test_benchmark_json_lists_every_named_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    assert set(named_layer_metrics()) <= {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_emit_every_metric(workload, pins, tmp_path):
    """A short run of each mode emits exactly the metrics BENCHMARK.json lists."""
    jobs = job_list(workload, 0, pins[workload])
    jobs = sorted(jobs, key=lambda j: pins[workload][j.key][4])[:12]  # the cheapest jobs
    argvs = write_programs(jobs, tmp_path)
    metrics, detail, attempted, failures = run.end_to_end(jobs, argvs, pins[workload], 0)
    assert not failures and attempted == len(jobs)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v in metrics.values())
    cli, _ = import_absinv()
    metrics, units, detail, attempted, failures = run.traced(cli, jobs, argvs, pins[workload])
    assert not failures and attempted == 2 * len(jobs)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert {units[m["name"]] for m in SPEC["per_layer"]} <= {"count", "s", "kB/s", "ratio", "bytes"}
    assert len(detail["rows"]) == len(jobs)


def test_without_program_the_run_fails(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the benchmark exits non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "many-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
