"""msgflow benchmark: one workload per run, one process, one thread.

Usage (from the repository root)::

    python3 bench/run.py --workload exact-search --seed 1 --seconds 40 --trace 0

The run imports msgflow from ``src/`` and repeats, until ``--seconds`` are
spent: set the workload up (import, system generation, loading of
expectations), then run one pass over all of its jobs, checking every
verdict.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` untraced and traced passes alternate, the metrics are the
per-layer ones, and the spans are written to ``bench/_out/``.
See ``NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from refclock import Sampler  # noqa: E402
from workloads import (  # noqa: E402
    N_PERM,
    WORKLOADS,
    Tally,
    build_jobs,
    check_exact,
    check_sampled,
    run_exact,
    run_sampled,
)

MIN_PASSES = 3
LIB_MODULES = ("canon", "discrete", "flow", "gaussian", "graph", "paths", "report", "sampling", "system")
RUNNERS = {"exact": (run_exact, check_exact), "sampled": (run_sampled, check_sampled)}
# The exact-search ladder, for the per-rung splits of the traced run.
ROWS_SPLIT = (32, 64, 128)
CAND_SPLIT = (7, 8, 10)


def import_lib() -> SimpleNamespace:
    """Import msgflow from this checkout's ``src/``, afresh."""
    for name in [m for m in sys.modules if m == "msgflow" or m.startswith("msgflow.")]:
        del sys.modules[name]
    pkg = importlib.import_module("msgflow")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "msgflow":
        raise ImportError(f"msgflow was imported from {pkg.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(**{n: importlib.import_module(f"msgflow.{n}") for n in LIB_MODULES})


def setup(workload: str, seed: int, workdir: str):
    lib = import_lib()
    with open(BENCH / "expected.json") as fh:
        expected = json.load(fh)
    return lib, build_jobs(workload, seed, workdir, expected, lib)


def run_pass(jobs, lib, tally: Tally, tracer=None, pass_no: int = 0, now=time.perf_counter) -> list:
    """One pass over every job, checking each; returns each job's (start, end)."""
    times = []
    for j, job in enumerate(jobs):
        run, check = RUNNERS[job.engine]
        out = None
        if tracer is not None:
            tracer.job = (pass_no, j)
        t0 = now()
        try:
            out = run(job, lib)
        except Exception:  # a job that raises fails all of its verdicts
            tally.errors.append(f"{job.name} raised:\n{traceback.format_exc()}")
        finally:
            t1 = now()
            if tracer is not None:
                tracer.job = None
        times.append((t0, t1))
        if out is None:
            tally.attempted += job.n_verdicts
            tally.failed += job.n_verdicts
        else:
            check(job, out, tally)
    return times


def repeat(seconds: float, one) -> list:
    """Call ``one`` until ``seconds`` are spent, at least MIN_PASSES times."""
    out = []
    start = time.perf_counter()
    while len(out) < MIN_PASSES or (time.perf_counter() - start) * (len(out) + 1) / len(out) <= seconds:
        out.append(one())
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def durations(spans_) -> list[float]:
    return [t1 - t0 for t0, t1 in spans_]


def end_to_end(clock: Sampler, passes, setups, tally: Tally) -> dict:
    """Each job's median over the passes of its time in reference seconds;
    their sum is the workload's wall time.  See refclock.py and NOTES.md
    for why times are scaled by the reference loop."""
    job_s = [statistics.median(clock.scaled(*span) for span in spans_) for spans_ in zip(*passes)]
    wall = sum(job_s)
    return {
        "wall_s": wall,
        "edge_verdicts_per_s": tally.attempted / len(passes) / wall,
        "slowest_job_s": max(job_s),
        "setup_s": statistics.median(clock.scaled(*span) for span in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, jobs, passes, untraced_passes, tally: Tally) -> dict:
    """Per-pass figures from the traced passes.

    Every pass makes the same calls, so the verdict tallies of all passes,
    traced or not, are divided by the number of passes.
    """
    totals, search_queries = tracer.totals()
    passes = [durations(p) for p in passes]
    untraced_passes = [durations(p) for p in untraced_passes]
    n = len(passes)
    n_all = n + len(untraced_passes)
    wall = sum(map(sum, passes))

    def agg(names, which=lambda job: True):
        """Calls, inclusive and self seconds of the named spans, over all traced passes."""
        calls = incl = self_s = 0.0
        for (name, job_id), (c, i, s) in totals.items():
            if name in names and which(jobs[job_id[1]]):
                calls, incl, self_s = calls + c, incl + i, self_s + s
        return calls, incl, self_s

    def counter(span, key):
        return sum(v for (name, k, _), v in tracer.counters.items() if name == span and k == key)

    def queries_per_edge(which=lambda job: True):
        edges = agg({"flow.edge_flow"}, which)[0]
        queries = sum(q for job_id, q in search_queries.items() if which(jobs[job_id[1]]))
        return _ratio(queries, edges)

    def rung(attr, value):
        return lambda job: job.rung is not None and getattr(job.rung, attr) == value

    prop = agg({"system.propagate"})
    enum = agg({"discrete.enumerate"})
    realizations = counter("discrete.enumerate", "realizations")
    dep = agg({"discrete.dependent"})
    cmi = agg({"discrete.cmi"})
    search = agg({"flow.edge_flow"})
    sample = agg({"sampling.sample_trials"})
    perm = agg({"sampling.perm_test"})

    m = {
        "system.load_s": agg({"system.load"})[2] / n,
        "system.propagate.calls": prop[0] / n,
        "system.propagate.us_per_call": _ratio(prop[2], prop[0]) * 1e6,
        "discrete.enumerate.realizations": realizations / n,
        "discrete.enumerate.rows": counter("discrete.enumerate", "rows") / n,
        "discrete.enumerate.self_us_per_realization": _ratio(enum[2], realizations) * 1e6,
        "discrete.enumerate.wall_share": enum[1] / wall,
        "discrete.dependent.calls": dep[0] / n,
        "discrete.dependent.us_per_call": _ratio(dep[1], dep[0]) * 1e6,
        "discrete.dependent.wall_share": dep[1] / wall,
        "discrete.cmi.calls": cmi[0] / n,
        "discrete.cmi.self_s": cmi[2] / n,
        "flow.edges": search[0] / n,
        "flow.queries_per_edge": queries_per_edge(),
        "flow.search.self_s": search[2] / n,
        "gaussian.self_s": agg({"gaussian.propagate", "gaussian.dependent", "gaussian.cmi"})[2] / n,
        "sampling.sample_trials.us_per_trial": _ratio(sample[1], counter("sampling.sample_trials", "trials")) * 1e6,
        "sampling.sample_trials.wall_share": sample[1] / wall,
        "sampling.codes.self_s": agg({"sampling.codes"})[2] / n,
        "sampling.perm_test.calls": perm[0] / n,
        "sampling.perm_test.ms_per_call": _ratio(perm[1], perm[0]) * 1e3,
        "sampling.perm_test.us_per_replicate": _ratio(perm[1], counter("sampling.perm_test", "replicates")) * 1e6,
        "sampling.perm_test.wall_share": perm[1] / wall,
        "sampling.floor_blocked_edges": tally.floor_blocked / n_all,
        "sampling.missed_flows": tally.missed / n_all,
        "sampling.false_alarms": tally.false_alarms / n_all,
        "paths.self_s": agg({"paths.find_info_paths", "paths.enumerate_paths"})[2] / n,
        "paths.node_visits": counter("paths.find_info_paths", "node_visits") / n,
        "paths.edge_inspections": counter("paths.find_info_paths", "edge_inspections") / n,
        "report.to_json_s": agg({"report.to_json"})[1] / n,
        "trace.overhead_frac": min(map(sum, passes)) / min(map(sum, untraced_passes)) - 1,
        "failed_frac": _ratio(tally.failed, tally.attempted),
    }
    for rows in ROWS_SPLIT:
        calls, incl, _ = agg({"discrete.dependent"}, rung("rows", rows))
        m[f"discrete.dependent.us_per_call.rows{rows}"] = _ratio(incl, calls) * 1e6
    for cand in CAND_SPLIT:
        m[f"flow.queries_per_edge.cand{cand}"] = queries_per_edge(rung("widest_slice", cand))
    return m


def with_units(values: dict, declared: list) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must list exactly these."""
    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_lib()
    except ImportError as exc:
        print(f"cannot import msgflow from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # dependent-message and degenerate-test notices
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as workdir:
        setups = []

        def fresh(now=time.perf_counter):
            """Set up afresh before every pass, so that set-up is timed all
            through the run; the workload is the same every time.  The
            previous pass's modules and systems are collected untimed, so
            memory does not grow with the number of passes."""
            gc.collect()
            t0 = now()
            lib_and_jobs = setup(args.workload, args.seed, workdir)
            setups.append((t0, now()))
            return lib_and_jobs

        tally = Tally()
        if args.trace:
            # Untraced and traced passes alternate, so that both see the
            # same machine and their ratio is the tracing overhead.
            tracer = spans.Tracer()
            pass_numbers = itertools.count()

            def pair():
                lib, jobs = fresh()
                untraced = run_pass(jobs, lib, tally)
                with tracer.patched(lib, N_PERM):
                    traced = run_pass(jobs, lib, tally, tracer, next(pass_numbers))
                return untraced, traced, jobs

            untraced, traced, jobs = zip(*repeat(args.seconds, pair))
            metrics = with_units(per_layer(tracer, jobs[0], traced, untraced, tally), spec["per_layer"])
            out_dir = BENCH / "_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"spans-{args.workload}.csv"), [j.name for j in jobs[0]])
        else:
            with Sampler() as clock:

                def one():
                    lib, jobs = fresh(clock.now)
                    return run_pass(jobs, lib, tally, now=clock.now)

                passes = repeat(args.seconds, one)
            metrics = with_units(end_to_end(clock, passes, setups, tally), spec["end_to_end"])
            unscaled = sum(statistics.median(durations(spans_)) for spans_ in zip(*passes))
            print(
                f"{len(passes)} passes; unscaled wall {unscaled:.4f} s; reference loop median "
                f"{statistics.median(clock.durations) * 1e3:.4f} ms over {len(clock.durations)} runs",
                file=sys.stderr,
            )

    for err in tally.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
