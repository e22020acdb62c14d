"""The four workloads, their jobs, and the check of every verdict.

A job makes the calls ``msgflow analyze`` / ``msgflow paths`` make:
``load_system`` -> ``enumerate_joint`` (or ``linear_propagate``) ->
``analyze_messages`` -> ``input_nodes`` / ``find_info_paths`` ->
``reports_to_json`` for the exact engine, and ``load_system`` ->
``sample_trials`` -> ``detect_flow_sampled`` per edge -> ``reports_to_json``
for the sampled engine.  Every call goes through a module or class attribute,
so the tracer can wrap it.

Why each workload exists is recorded in ``BENCHMARK.json`` and ``NOTES.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from padmask import Rung, relabel, spec_dict

# The README's sampled settings.  The command line caps sampled conditioning
# at 2 whatever --max-conditioning says, so the benchmark does too.
ALPHA = 0.01
N_TRIALS = 10_000
N_PERM = 1999
MAX_SUBSET = 2

# Pinned rather than read from msgflow.canon.FIXTURE_NAMES, so that a new
# fixture does not change the workload.
ALL_FIXTURES = (
    "ce1", "ce2", "ce3", "mult-msg", "butterfly", "fft-even", "fft-phase",
    "sk", "output-msg", "hidden-ignored", "hidden-local", "hidden-masked",
)


@dataclass(frozen=True)
class Workload:
    engine: str  # "exact" | "sampled"
    fixtures: tuple[str, ...]
    rungs: tuple[Rung, ...]


WORKLOADS = {
    # Nearly all time goes to DiscreteJoint.dependent calls issued by the
    # subset search: binary noise, so rows equal realizations.
    "exact-search": Workload(
        "exact", ALL_FIXTURES, (Rung(2, 2), Rung(2, 3), Rung(3, 3))
    ),
    # Wide noise reduced mod 2: realizations outnumber rows 256- to 512-fold,
    # so the forward pass and the Fraction accumulation do the work.
    "exact-enum": Workload(
        "exact", (), (Rung(1, 3, w=8), Rung(2, 2, w=8), Rung(1, 2, w=16), Rung(2, 1, w=16))
    ),
    # sample_trials dominates; every permutation test on a binary message
    # takes the two-row vectorised path.  Rung k=2/d=2 has a 7-edge slice,
    # so its edges there are floor-blocked (see NOTES.md).
    "sampled-binary": Workload(
        "sampled", ("ce1", "ce2", "ce3"), (Rung(1, 1), Rung(2, 2))
    ),
    # Messages with more than two values take the per-replicate Python loop
    # of the permutation test, which then dominates.  One pad-mask rung
    # keeps a pass near 3 s.
    "sampled-qary": Workload(
        "sampled", ("mult-msg", "hidden-ignored"), (Rung(1, 0, q=4, w=8),)
    ),
}


@dataclass
class Job:
    """One system analysed end to end, with its reference verdicts."""

    name: str
    engine: str
    path: str
    messages: tuple[str, ...]
    quantify: bool
    n_verdicts: int
    # message -> {edge id: sorted witness ids}; edges absent carry no flow.
    flow: dict
    # (message, target id) -> list of paths as lists of node ids.
    paths: dict
    rung: Optional[Rung] = None
    trial_seed: int = 0
    edge_seeds: tuple = field(default=(), repr=False)


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def _rename(node_or_edge: str, names: dict) -> str:
    def node(text: str) -> str:
        role = text.rstrip("0123456789")
        return names[role] + text[len(role):]

    return "->".join(node(x) for x in node_or_edge.split("->"))


def build_jobs(workload: str, seed: int, workdir: str, expected: dict, lib) -> list[Job]:
    """Write every system of the workload to ``workdir`` and return its jobs.

    ``expected`` is the content of ``expected.json``; its fixture flows must
    equal the flows pinned in ``msgflow.canon``.

    The seed renames the pad-mask nodes (so canonical edge order varies) and
    drives every trial and permutation stream through ``SeedSequence.spawn``.
    """
    wl = WORKLOADS[workload]
    job_seeds = iter(np.random.SeedSequence(seed).spawn(len(wl.fixtures) + len(wl.rungs)))
    jobs = []
    for name in wl.fixtures:
        fx = lib.canon.build(name)
        flows = expected["fixtures"][name]
        for m, pinned in fx.expected_flow.items():
            if set(flows[m]) != {str(e) for e in pinned}:
                raise RuntimeError(f"expected.json disagrees with the flows pinned in {name}/{m}")
        path = os.path.join(workdir, f"{name}.json")
        lib.system.save_system(fx.spec, path)
        jobs.append(Job(
            name=name,
            engine=wl.engine,
            path=path,
            messages=fx.spec.message.components,
            quantify=wl.engine == "exact",
            n_verdicts=len(fx.spec.graph.edges) * len(fx.spec.message.components),
            flow=flows,
            paths={(m, t): [list(p) for p in ps] for (m, t), ps in fx.expected_paths.items()},
        ))
        _seed_sampled(jobs[-1], next(job_seeds))
    for rung in wl.rungs:
        job_ss = next(job_seeds)
        names = relabel(rung, _seed_int(job_ss))
        doc = spec_dict(rung, names)
        path = os.path.join(workdir, f"{rung.name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        ref = expected["padmask"][rung.name]
        jobs.append(Job(
            name=rung.name,
            engine=wl.engine,
            path=path,
            messages=("M",),
            quantify=False,
            n_verdicts=doc["horizon"] * len(doc["adjacency"]),
            flow={"M": {
                _rename(e, names): sorted(_rename(w, names) for w in wit)
                for e, wit in ref["flow"].items()
            }},
            paths={
                ("M", _rename(t, names)): [[_rename(v, names) for v in p] for p in ps]
                for t, ps in ref["paths"].items()
            },
            rung=rung,
        ))
        _seed_sampled(jobs[-1], job_ss)
    return jobs


def _seed_sampled(job: Job, job_ss: np.random.SeedSequence) -> None:
    if job.engine != "sampled":
        return
    trial_ss, edges_ss = job_ss.spawn(2)
    job.trial_seed = _seed_int(trial_ss)
    job.edge_seeds = tuple(_seed_int(s) for s in edges_ss.spawn(job.n_verdicts))


# ----- the jobs ------------------------------------------------------------


def run_exact(job: Job, lib):
    spec = lib.system.load_system(job.path)
    if spec.is_gaussian:
        joint = lib.gaussian.linear_propagate(spec)
    else:
        joint = lib.discrete.enumerate_joint(spec)
    reports = lib.flow.analyze_messages(joint, job.messages, quantify=job.quantify)
    listings = {}
    for m, target in job.paths:
        v_ip = lib.flow.input_nodes(joint, spec.graph, m)
        h = lib.paths.find_info_paths(
            reports[m], spec.graph, lib.graph.NodeRef.parse(target), v_ip
        )
        listings[(m, target)] = lib.paths.enumerate_paths(h)
    lib.report.reports_to_json(reports)
    return reports, listings


def run_sampled(job: Job, lib):
    spec = lib.system.load_system(job.path)
    trials = lib.sampling.sample_trials(spec, N_TRIALS, job.trial_seed)
    seeds = iter(job.edge_seeds)
    reports = {}
    levels = {}
    for m in job.messages:
        rep = lib.flow.FlowReport(message=m, engine="sampled")
        for e in sorted(trials.edge_vars):
            cands = [x for x in trials.edges_at(e.time) if x != e and not trials.is_constant(x)]
            v = lib.sampling.detect_flow_sampled(
                trials, e, alpha=ALPHA, max_subset_size=min(MAX_SUBSET, len(cands)),
                n_perm=N_PERM, seed=next(seeds), message=m,
            )
            rep.entries[e] = lib.flow.FlowEntry(e, v.has_flow, v.witness, None, v.p_values)
            levels[(m, e)] = v.level
        reports[m] = rep
    lib.report.reports_to_json(reports)
    return reports, (trials, levels)


# ----- the check -----------------------------------------------------------


@dataclass
class Tally:
    """Verdicts attempted and failed, and the sampled engine's error counts."""

    attempted: int = 0
    failed: int = 0
    floor_blocked: int = 0
    missed: int = 0
    false_alarms: int = 0
    null_edges: int = 0
    errors: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        rate_ok = self.false_alarms <= 2 * ALPHA * self.null_edges
        return not self.errors and rate_ok


def check_exact(job: Job, out, tally: Tally) -> None:
    reports, listings = out
    for m, rep in reports.items():
        ref = job.flow[m]
        for e, entry in rep.entries.items():
            tally.attempted += 1
            want = ref.get(str(e))
            got = sorted(str(w) for w in entry.witness) if entry.has_flow else None
            quantified_ok = not job.quantify or (entry.quantified > 0) == entry.has_flow
            if got != want or not quantified_ok:
                tally.failed += 1
                tally.errors.append(f"{job.name}/{m} {e}: got {got}, expected {want}")
    for key, listing in listings.items():
        got = [[str(v) for v in p] for p in listing.paths]
        if got != job.paths[key] or listing.truncated:
            tally.errors.append(f"{job.name} paths {key}: got {got}, expected {job.paths[key]}")


def check_sampled(job: Job, out, tally: Tally) -> None:
    """Compare with the exact verdicts.

    A flow counts as detectable when its minimal witness fits the subset cap.
    A detectable flow that is missed fails; it is explained only when the
    edge is floor-blocked: its Bonferroni level lies below the smallest
    p-value the test can return, 1/(1+n_perm), so the cascade cannot reject.
    """
    reports, (trials, levels) = out
    floor = 1 / (1 + N_PERM)
    for m, rep in reports.items():
        ref = job.flow[m]
        for e, entry in rep.entries.items():
            tally.attempted += 1
            want = ref.get(str(e))
            blocked = levels[(m, e)] < floor and not trials.is_constant(e)
            tally.floor_blocked += blocked
            if want is None:
                tally.null_edges += 1
                tally.false_alarms += entry.has_flow
            elif len(want) <= MAX_SUBSET and not entry.has_flow:
                tally.missed += 1
                tally.failed += 1
                if not blocked:
                    tally.errors.append(f"{job.name}/{m} {e}: missed a detectable flow")
