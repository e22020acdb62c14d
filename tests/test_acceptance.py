"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import itertools
import math
import time

import msgflow as mf
from msgflow import ModelViolationAtInput, NoPathFound
from msgflow.graph import NodeRef, edge

from randsys import random_system

N_RANDOM_SYSTEMS = 500
SEED_BASE = 20_240_000


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_counterexample_reproduction(fixtures, joints):
    t0 = time.perf_counter()
    ok = True
    for which, name in ((1, "ce1"), (2, "ce2"), (3, "ce3")):
        j = joints[name]
        fx = fixtures[name]
        # the rejected test sees nothing at t=1 ...
        ok &= all(not mf.candidate_flow(j, e, which) for e in j.edges_at(1))
        # ... although the message is decodable from the next slice ...
        ok &= j.dependent(["M"], list(j.edges_at(2)))
        # ... while the subset-search detector flags exactly the pinned set.
        ok &= mf.analyze(j).flowing() == fx.expected_flow["M"]
    elapsed = time.perf_counter() - t0
    _report("1 (counterexamples)", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_no_reappearance_on_random_systems():
    t0 = time.perf_counter()
    telephone_violations = 0
    equivalence_violations = 0
    for i in range(N_RANDOM_SYSTEMS):
        spec = random_system(SEED_BASE + i)
        joint = mf.enumerate_joint(spec)
        per_time = {}
        for t in joint.times():
            flags = [mf.edge_flow(joint, e)[0] for e in joint.edges_at(t)]
            per_time[t] = any(flags)
            if per_time[t] != joint.dependent(["M"], list(joint.edges_at(t))):
                equivalence_violations += 1
        dead = [t for t, alive in per_time.items() if not alive]
        if dead:
            first = min(dead)
            if any(alive for t, alive in per_time.items() if t > first):
                telephone_violations += 1
    elapsed = time.perf_counter() - t0
    ok = telephone_violations == 0 and equivalence_violations == 0 and elapsed < 60
    _report(
        "2 (no spontaneous reappearance)",
        ok,
        f"{N_RANDOM_SYSTEMS} systems, {telephone_violations} reappearance / "
        f"{equivalence_violations} slice-equivalence violations, {elapsed:.1f}s",
    )


def test_criterion_3_butterfly(fixtures, joints):
    fx = fixtures["butterfly"]
    j = joints["butterfly"]
    reports = mf.analyze_messages(j)
    ok = reports["M1"].flowing() == fx.expected_flow["M1"]
    ok &= reports["M2"].flowing() == fx.expected_flow["M2"]
    for (message, target), want in fx.expected_paths.items():
        h = mf.find_info_paths(
            reports[message],
            fx.spec.graph,
            NodeRef.parse(target),
            mf.input_nodes(j, fx.spec.graph, message),
        )
        got = tuple(tuple(str(v) for v in p) for p in mf.enumerate_paths(h).paths)
        ok &= got == want
    _report("3 (two-message crossover)", ok)


def test_criterion_4_fft(fixtures, joints):
    from msgflow.values import make_complex

    half = make_complex(0, "1/2")
    ok = True
    even = fixtures["fft-even"].spec
    for m in (0, 1):
        vals = even.propagate({"M": m}, {})
        ok &= vals[edge("A", 2, "A")] == 2 * m
        ok &= vals[edge("C", 2, "C")] == 2 * m
        ok &= vals[edge("B", 2, "B")] == 0 and vals[edge("D", 2, "D")] == 0
    phase = fixtures["fft-phase"].spec
    for m in (0, 1):
        vals = phase.propagate({"M": m}, {})
        ok &= vals[edge("A", 2, "A")] == 1 - m
        ok &= vals[edge("B", 2, "B")] == m
        ok &= vals[edge("C", 2, "C")] == 0 and vals[edge("D", 2, "D")] == 0
        ok &= vals[edge("D", 1, "B")] == (0 if m == 0 else half)
    for name in ("fft-even", "fft-phase"):
        ok &= mf.analyze(joints[name]).flowing() == fixtures[name].expected_flow["M"]
    _report("4 (spectral transform, exact values)", ok)


def test_criterion_5_feedback_coding(sk_joint):
    tol = 1e-9
    m1, m2, m3 = edge("B", 1, "A"), edge("B", 3, "A"), edge("B", 5, "A")
    ok = abs(sk_joint.cmi(["M"], [m1, m2]) - 0.5 * math.log2(3)) < tol
    ok &= abs(sk_joint.cmi(["M"], [m3]) - 1.0) < tol
    ok &= mf.is_derived(sk_joint, [m2], [edge("A", 0, "B"), edge("A", 2, "B")])
    ok &= not mf.is_derived(sk_joint, [edge("A", 4, "B")], [m1, m2])
    flows = [mf.quantified_flow(sk_joint, e) for e in (m1, m2, m3)]
    ok &= flows[0] < flows[1] < flows[2]
    _report("5 (feedback coding)", ok, f"receiver flows {['%.4f' % f for f in flows]}")


def test_criterion_6_path_algorithm_complexity(fixtures, joints, sk_joint):
    ok = True
    worst = ""
    for name, fx in fixtures.items():
        joint = sk_joint if fx.spec.is_gaussian else joints[name]
        g = fx.spec.graph
        n_base, e_base = len(g.node_names), len(g.base_edges)
        for message in fx.messages:
            rep = mf.analyze(joint, message)
            v_ip = mf.input_nodes(joint, g, message)
            for t in range(1, g.horizon + 1):
                for v in g.nodes_at(t):
                    try:
                        h = mf.find_info_paths(rep, g, v, v_ip)
                    except (NoPathFound, ModelViolationAtInput):
                        continue
                    if h.node_visits > n_base * v.time or h.edge_inspections > e_base * v.time:
                        ok = False
                        worst = f"{name}:{v}"
    _report("6 (path-search instrumentation)", ok, worst or "all queries within bounds")


def test_criterion_7_separability(fixtures, joints, sk_joint):
    ok = True
    for name, fx in fixtures.items():
        joint = sk_joint if fx.spec.is_gaussian else joints[name]
        for message in fx.messages:
            for t in joint.times():
                r, s = mf.separability_partition(joint, t, message)
                ok &= (r | s) == frozenset(joint.edges_at(t)) and not (r & s)
    _report("7 (separability partitions)", ok)


def test_criterion_8_verdict_characterization_on_random_systems():
    t0 = time.perf_counter()
    violations = 0
    import random as pyrandom

    for i in range(N_RANDOM_SYSTEMS):
        spec = random_system(SEED_BASE + i)
        joint = mf.enumerate_joint(spec)
        rng = pyrandom.Random(i)
        for t in joint.times():
            cands = [e for e in joint.edges_at(t) if not joint.is_constant(e)]
            for e in joint.edges_at(t):
                has, _ = mf.edge_flow(joint, e)
                if joint.dependent(["M"], [e]) and not has:
                    violations += 1  # (a) plain dependence must imply flow
                others = [x for x in cands if x != e]
                subsets = [
                    sub
                    for k in range(len(others) + 1)
                    for sub in itertools.combinations(others, k)
                ]
                if len(subsets) > 12:
                    subsets = rng.sample(subsets, 12)
                for sub in subsets:
                    if sub:
                        gain = joint.cmi(["M"], list(sub), [e]) - joint.cmi(
                            ["M"], list(sub)
                        )
                        if gain > 1e-9 and not has:
                            violations += 1  # (b) conditioning gain implies flow
                if not has and any(
                    joint.dependent(["M"], [e], list(sub)) for sub in subsets
                ):
                    violations += 1  # (c) no-flow verdicts must be exhaustive
    elapsed = time.perf_counter() - t0
    _report(
        "8 (verdict characterization)",
        violations == 0,
        f"{N_RANDOM_SYSTEMS} systems, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_9_hidden_nodes(fixtures, joints):
    g1 = fixtures["ce1"].spec.graph
    mask_c = mf.ObservationMask(frozenset({"C"}))
    ok = mf.hidden_node_alarm(joints["ce1"], g1, mask_c, 1)

    gi = fixtures["hidden-ignored"].spec.graph
    mask_h = mf.ObservationMask(frozenset({"H"}))
    ok &= not any(
        mf.hidden_node_alarm(joints["hidden-ignored"], gi, mask_h, t)
        for t in range(gi.horizon - 1)
    )
    ok &= mf.edge_flow(joints["hidden-ignored"], edge("H", 1, "A"))[0]

    gl = fixtures["hidden-local"].spec.graph
    ok &= not any(
        mf.hidden_node_alarm(joints["hidden-local"], gl, mask_h, t)
        for t in range(gl.horizon - 1)
    )
    ok &= mf.local_markov_violations(joints["hidden-local"], gl, mask_h, 1) == frozenset(
        {NodeRef("B", 2)}
    )

    gm = fixtures["hidden-masked"].spec.graph
    ok &= not any(
        mf.hidden_node_alarm(joints["hidden-masked"], gm, mask_h, t)
        for t in range(gm.horizon - 1)
    )
    ok &= all(
        mf.local_markov_violations(joints["hidden-masked"], gm, mask_h, t) == frozenset()
        for t in range(gm.horizon - 1)
    )
    _report("9 (hidden-node alarms)", ok)


def test_criterion_10_sampled_detector_calibration(fixtures, joints):
    t0 = time.perf_counter()
    alpha = 0.01
    n_trials = 10_000
    n_runs = 20
    ok = True
    details = []
    for name in ("ce1", "ce2", "ce3"):
        fx = fixtures[name]
        exact = mf.analyze(joints[name])
        agree_runs = 0
        null_tests = 0
        false_alarms = 0
        for run in range(n_runs):
            trials = mf.sample_trials(fx.spec, n_trials, seed=SEED_BASE + 1000 + run)
            run_ok = True
            for i, e in enumerate(sorted(trials.edge_vars)):
                verdict = mf.detect_flow_sampled(
                    trials,
                    e,
                    alpha=alpha,
                    max_subset_size=2,
                    n_perm=1999,
                    seed=SEED_BASE + 7919 * run + i,
                )
                if verdict.has_flow != exact.has_flow(e):
                    run_ok = False
                if not exact.has_flow(e):
                    null_tests += 1
                    false_alarms += int(verdict.has_flow)
            agree_runs += int(run_ok)
        rate = false_alarms / null_tests
        details.append(f"{name}: {agree_runs}/{n_runs} runs, FA {rate:.4f}")
        ok &= agree_runs >= 19  # >= 95% of 20
        ok &= rate <= 2 * alpha
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300
    _report("10 (sampled calibration)", ok, "; ".join(details) + f", {elapsed:.0f}s")
