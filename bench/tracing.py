"""Outside-in tracing: wrap public functions of ``absinv`` modules with spans.

Nothing in ``absinv`` is edited.  ``Tracer.install`` replaces each listed
function with a wrapper under every name an ``absinv`` module looks it up
by (its defining module, modules that imported it by name, the package),
and ``Tracer.remove`` puts the originals back.  A span records name, start,
end, parent span and job id; a function's self time is its span duration
minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# layer -> wrapped functions ("Class.method" for methods), as named in the README
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "programs": ("parse_program", "post_edges_into", "out_edges", "StateVector.__getitem__"),
    "synthesis": (
        "AnalysisProblem.build", "abstract_post_step", "pure_post_step", "abstract_pret_step",
        "verify_invariant", "ConstAdapter.transfer", "AffAdapter.transfer", "ConstAdapter.wp",
        "render_state_vector",
    ),
    "const_domain": (
        "join", "leq", "meet", "bca_parallel_assign", "bca_nondet_assign", "bca_guard", "bca_eq_guard",
    ),
    "affine": (
        "join", "includes", "meet", "meet_hyperplane", "bca_parallel_assign", "bca_nondet_assign",
        "bca_eq_guard", "rref", "dot", "generators_to_constraints", "AffSubspace.__init__",
    ),
    "lattice": ("lfp_iterate", "gfp_iterate"),
    "finite": (
        "random_ts", "random_gi", "random_closure_family", "random_monotone", "check_lemma1",
        "check_fixpoint_completeness_char", "check_safe_inv", "check_lemma6", "run_algorithm1",
        "run_algorithm2_padon", "run_algorithm4", "greatest_invariant_enum", "check_corollary9",
        "check_adjunctions", "check_eq4_duality",
    ),
}

# steps whose input and output iterates give synthesis.changed_per_recomputed
STEP_FUNCTIONS = ("synthesis.abstract_post_step", "synthesis.abstract_pret_step")

SPAN_LOG_LIMIT = 50_000  # spans kept for the results file; counters cover all


def metric_base(layer: str, name: str) -> str:
    """``StateVector.__getitem__`` -> ``programs.StateVector.getitem``."""
    return f"{layer}." + name.replace("__getitem__", "getitem").replace("__init__", "init")


def traced_names() -> list[str]:
    return [metric_base(layer, name) for layer, names in LAYERS.items() for name in names]


class Tracer:
    """Span recorder for one traced pass; install, run jobs, remove."""

    def __init__(self) -> None:
        self.names = traced_names()
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.changed = 0
        self.recomputed = 0
        self.job = -1
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        # span log, one column per field
        self.span_name = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fid: int, fn, observe):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[fid] += 1
                self.total_ns[fid] += dur
                self.self_ns[fid] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if frame[0] < SPAN_LOG_LIMIT:
                    self.span_name.append(fid)
                    self.span_id.append(frame[0])
                    self.span_parent.append(parent[0] if parent is not None else -1)
                    self.span_job.append(self.job)
                    self.span_start.append(t0)
                    self.span_end.append(t1)
            if observe is not None:
                observe(args, result)
                if parent is not None:  # keep the observer out of the caller's self time
                    parent[1] += clock() - t1
            return result

        return wrapper

    def _observe_step(self, args, result) -> None:
        before, after = args[1].values, result.values
        self.changed += sum(1 for a, b in zip(before, after) if a != b)
        self.recomputed += len(after)

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        """Patch every listed function under every name absinv looks it up by."""
        if self.patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "absinv" or k.startswith("absinv.")]
        fid = 0
        for layer, names in LAYERS.items():
            home = sys.modules[f"absinv.{layer}"]
            for name in names:
                base = self.names[fid]
                observe = self._observe_step if base in STEP_FUNCTIONS else None
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(fid, raw.__func__, observe))
                    else:
                        patched = self._wrap(fid, raw, observe)
                    self.patches.append((cls, attr, raw))
                    setattr(cls, attr, patched)
                else:
                    original = getattr(home, name)
                    wrapper = self._wrap(fid, original, observe)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self.patches.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
                fid += 1

    def remove(self) -> None:
        """Restore every patched attribute to the exact original object."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self.patches)
        self.patches = []
        if not restored:
            raise RuntimeError("a wrapped attribute was not restored")

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for i, base in enumerate(self.names):
            out[f"{base}.calls"] = (self.calls[i], "count")
            out[f"{base}.self_s"] = (self.self_ns[i] / 1e9, "s")
        return out

    def total_s(self, base: str) -> float:
        return self.total_ns[self.names.index(base)] / 1e9

    def span_log(self) -> dict:
        return {
            "names": self.names,
            "recorded": len(self.span_id),
            "total": self._next_id,
            "columns": ["name", "id", "parent", "job", "start_ns", "end_ns"],
            "name": self.span_name.tolist(),
            "id": self.span_id.tolist(),
            "parent": self.span_parent.tolist(),
            "job": self.span_job.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        }
