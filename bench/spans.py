"""Spans around msgflow's public functions, recorded from outside the library.

``Tracer.patched`` replaces module and class attributes of ``msgflow.*`` with
wrappers and restores them on exit; nothing inside ``src/`` changes.  A span
is (name, start, end, parent span, job id).  Spans stay in memory while the
benchmark runs and are written out at the end; a span's self time is its
duration minus the durations of its child spans.

Spans are recorded only while a job runs (``Tracer.job`` is set), so the
benchmark's own checking and the counter callbacks leave no spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


def targets(lib, n_perm: int):
    """(owner, attribute, span name, counter callback) for each traced call.

    A callback gets (args, kwargs, result) and returns counter increments.
    Functions and classes a later version of the library no longer has are
    skipped, so their figures read 0.
    """

    def enum_counts(args, kwargs, joint):
        return {"realizations": args[0].realization_count(), "rows": len(getattr(joint, "rows", ()))}

    def perm_counts(args, kwargs, p):
        trials, b_vars = args[0], args[2]
        live = not all(trials.is_constant(v) for v in b_vars)
        return {"replicates": kwargs.get("n_perm", n_perm) * live}

    def path_counts(args, kwargs, h):
        return {"node_visits": h.node_visits, "edge_inspections": h.edge_inspections}

    table = [
        ("system", "load_system", "system.load", None),
        ("system.SystemSpec", "propagate", "system.propagate", None),
        ("discrete", "enumerate_joint", "discrete.enumerate", enum_counts),
        ("discrete.DiscreteJoint", "dependent", "discrete.dependent", None),
        ("discrete.DiscreteJoint", "cmi", "discrete.cmi", None),
        ("gaussian", "linear_propagate", "gaussian.propagate", None),
        ("gaussian.GaussianJoint", "dependent", "gaussian.dependent", None),
        ("gaussian.GaussianJoint", "cmi", "gaussian.cmi", None),
        ("flow", "analyze_messages", "flow.analyze_messages", None),
        ("flow", "analyze", "flow.analyze", None),
        ("flow", "edge_flow", "flow.edge_flow", None),
        ("flow", "quantified_flow", "flow.quantified_flow", None),
        ("flow", "input_nodes", "flow.input_nodes", None),
        ("sampling", "sample_trials", "sampling.sample_trials",
         lambda args, kwargs, trials: {"trials": args[1]}),
        ("sampling.TrialMatrix", "codes", "sampling.codes", None),
        ("sampling", "permutation_ci_test", "sampling.perm_test", perm_counts),
        ("sampling", "detect_flow_sampled", "sampling.detect", None),
        ("paths", "find_info_paths", "paths.find_info_paths", path_counts),
        ("paths", "enumerate_paths", "paths.enumerate_paths", None),
        ("report", "reports_to_json", "report.to_json", None),
    ]
    out = []
    for owner_path, attr, name, count in table:
        owner = lib
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        if owner is not None and attr in vars(owner):
            out.append((owner, attr, name, count))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, job id]
        self.counters: dict = defaultdict(float)  # (span name, counter, job id) -> total
        self.job = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, job]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.job = None
                try:
                    for key, v in count(args, kwargs, result).items():
                        self.counters[(name, key, job)] += v
                finally:
                    self.job = job
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, lib, n_perm: int):
        saved = []
        try:
            for owner, attr, name, count in targets(lib, n_perm):
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def totals(self):
        """Per (span name, job id): [calls, inclusive seconds, self seconds].

        Also returns the number of ``discrete.dependent`` spans whose parent
        is a ``flow.edge_flow`` span, per job: the subset search's queries.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        search_queries = defaultdict(int)
        for i, (name, t0, t1, parent, job) in enumerate(self.spans):
            row = out[(name, job)]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
            if name == "discrete.dependent" and parent >= 0 and self.spans[parent][0] == "flow.edge_flow":
                search_queries[job] += 1
        return out, search_queries

    def write(self, path: str, job_names: list[str]) -> None:
        """One CSV line per span: name, start and end in microseconds, parent
        span index, and the job as ``pass:name``."""
        with open(path, "w") as fh:
            fh.write("name,start_us,end_us,parent,job\n")
            base = self.spans[0][1] if self.spans else 0.0
            for name, t0, t1, parent, job in self.spans:
                fh.write(
                    f"{name},{(t0 - base) * 1e6:.1f},{(t1 - base) * 1e6:.1f},{parent},{job[0]}:{job_names[job[1]]}\n"
                )
