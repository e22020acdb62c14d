import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import msgflow as mf
from msgflow import (
    ContinuousSamplingWarning,
    DegenerateTestWarning,
    ValidationError,
)
from msgflow.graph import NodeRef, edge
from randsys import pad_mask, random_noisy_system, random_system
from reference import (
    assert_same_table,
    check_trials,
    per_trial,
    reference_cascade,
    reference_test,
    unpruned,
)


@pytest.fixture(scope="module")
def ce1_trials(fixtures):
    return mf.sample_trials(fixtures["ce1"].spec, 10_000, seed=42)


def test_rows_live_in_exact_support(fixtures, joints):
    trials = mf.sample_trials(fixtures["ce1"].spec, 4, seed=7)
    support = set(joints["ce1"].rows)
    assert trials.total == 4
    for row in trials.rows:
        assert tuple(row) in support
    # Fewer trials than outcomes: only outcomes some trial holds are rows.
    check_trials(trials, fixtures["ce1"].spec, 4)


def test_seeded_determinism(fixtures):
    a = mf.sample_trials(fixtures["ce2"].spec, 500, seed=11)
    b = mf.sample_trials(fixtures["ce2"].spec, 500, seed=11)
    c = mf.sample_trials(fixtures["ce2"].spec, 500, seed=12)
    assert a.rows == b.rows and a.weights.tolist() == b.weights.tolist()
    assert (a.rows, a.weights.tolist()) != (c.rows, c.weights.tolist())


def test_empirical_mean_concentrates(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 100_000, seed=5)
    mean = sum(m * w for m, w in zip(trials.column("M"), trials.weights.tolist())) / trials.total
    assert 0.49 <= mean <= 0.51


def test_row_consistency_with_forward_pass(fixtures):
    # Re-propagating the drawn sources reproduces each row exactly; with the
    # pad value visible on its own edges we can reconstruct the sources.
    spec = fixtures["ce1"].spec
    trials = mf.sample_trials(spec, 200, seed=3)
    cols = {v: i for i, v in enumerate(trials.variables)}
    for row in trials.rows:
        m = row[cols["M"]]
        z = row[cols[edge("C", 0, "C")]]
        values = spec.propagate({"M": m}, {NodeRef("C", 0): z})
        for e in trials.edge_vars:
            assert values[e] == row[cols[e]]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_trials_match_per_trial_reference(seed):
    spec = random_system(seed)
    check_trials(mf.sample_trials(spec, 200, seed=seed), spec, 200)


@pytest.mark.parametrize("name", ["output-msg", "fft-phase", "mult-msg", "hidden-masked"])
def test_trials_match_reference_on_fixtures(fixtures, name):
    # A derived message, ComplexQ transmissions, a two-component message.
    spec = fixtures[name].spec
    check_trials(mf.sample_trials(spec, 300, seed=8), spec, 300)


def _discrete_cases(fixtures):
    named = [(name, fx.spec) for name, fx in fixtures.items() if not fx.spec.is_continuous]
    return named + [(f"random_system({s})", random_system(s)) for s in range(50)]


def test_merged_trials_keep_every_weight_grid(fixtures):
    # Each grid of a (message component, edge, conditioning set of at most
    # two edges of its slice) test equals the grid of the same trials
    # expanded to one row of weight 1 per trial.
    for name, spec in _discrete_cases(fixtures):
        trials = mf.sample_trials(spec, 200, seed=3)
        expanded = per_trial(trials)
        for m, e in itertools.product(trials.message_vars, trials.edge_vars):
            others = [x for x in trials.edges_at(e.time) if x != e]
            for k in range(3):
                for sub in itertools.combinations(others, k):
                    got = trials.weight_grid([m], [e], list(sub))
                    want = expanded.weight_grid([m], [e], list(sub))
                    assert got.dtype == want.dtype, (name, m, e, sub)
                    assert got.tolist() == want.tolist(), (name, m, e, sub)


def test_merged_rows_are_bounded_by_the_source_alphabets(fixtures):
    for name, spec in _discrete_cases(fixtures):
        trials = mf.sample_trials(spec, 3_000, seed=5)
        assert trials.total == 3_000, name
        assert trials.n_rows <= spec.realization_count(), name


@pytest.mark.parametrize("system", [8, 3])
def test_sampled_counts_follow_the_exact_law(system):
    # The G goodness-of-fit test of 10^5 trials against the exact joint:
    # p <= 0.05 should happen in roughly 5% of seeds, at most 16 of 200 as
    # in the calibration test below.  System 8 draws fair bits only; system
    # 3 has a message of law (1/5, 4/5) and noise of law (1/3, 2/3).  This
    # frozen experiment yields 8 hits on system 8 and 6 on system 3.
    spec = random_noisy_system(system)
    joint = mf.enumerate_joint(spec)
    expected = {row: 10**5 * float(p) for row, p in zip(joint.rows, joint.probs)}
    hits = 0
    for seed in range(200):
        trials = mf.sample_trials(spec, 10**5, seed=seed)
        g = 2 * sum(w * math.log(w / expected[row])
                    for row, w in zip(trials.rows, trials.weights.tolist()))
        hits += mf.sampling.chi2_sf(g, len(expected) - 1) <= 0.05
    assert hits <= 16


def test_sampling_memory_does_not_grow_with_the_trial_count():
    # 10^7 trials of binary pad-mask k3d3 (128 outcomes) hold no array of
    # one entry per trial.
    spec = pad_mask(3, 3, 2)
    tracemalloc.start()
    try:
        trials = mf.sample_trials(spec, 10**7, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trials.total == 10**7 and trials.n_rows <= 128
    assert peak < 16 * 2**20


def test_gaussian_trials_keep_one_row_per_trial(fixtures):
    # Float draws are all distinct: every trial keeps its own row of
    # weight 1, in the order of the message's draws, which come from the
    # first stream spawned from the seed.
    spec = fixtures["sk"].spec
    with pytest.warns(ContinuousSamplingWarning):
        trials = mf.sample_trials(spec, 500, seed=9)
    rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
    draws = rng.normal(0.0, math.sqrt(float(spec.message.variance)), size=500)
    assert trials.n_rows == 500 and trials.weights.tolist() == [1] * 500
    assert trials.column("M") == draws.tolist()


def test_plug_in_cmi_close_to_exact(ce1_trials):
    est = ce1_trials.cmi(["M"], [edge("A", 1, "B")], [edge("C", 1, "B")])
    assert abs(est - 1.0) < 0.05


def test_plug_in_constant_column_zero(ce1_trials):
    assert ce1_trials.cmi(["M"], [edge("B", 0, "B")]) == 0.0


def test_plug_in_bias_level(ce1_trials):
    est = ce1_trials.cmi(["M"], [edge("C", 1, "B")])
    assert est <= 0.01


def test_gaussian_sampling_warns_and_ci_rejects(fixtures):
    with pytest.warns(ContinuousSamplingWarning):
        trials = mf.sample_trials(fixtures["sk"].spec, 50, seed=1)
    with pytest.raises(ValidationError):
        trials.cmi(["M"], [edge("A", 0, "B")])


def test_permutation_rejects_synergy(ce1_trials):
    p = mf.permutation_ci_test(
        ce1_trials, ["M"], [edge("A", 1, "B")], [edge("C", 1, "B")],
        n_perm=999, seed=0,
    )
    assert p <= 0.01


def test_permutation_unconditional_single_stratum(ce1_trials):
    # No conditioning: one stratum, a plain independence permutation test.
    p = mf.permutation_ci_test(ce1_trials, ["M"], [edge("A", 0, "A")], n_perm=199, seed=0)
    assert p == pytest.approx(1 / 200)


def test_permutation_level_calibration(fixtures):
    # Independent columns: p <= 0.05 should happen in roughly 5% of repeats
    # (binomial noise band on 200 draws reaches ~8%).  The run is fully
    # seeded; this frozen experiment yields 11 hits.
    spec = fixtures["ce1"].spec
    hits = 0
    n_rep = 200
    for s in range(n_rep):
        trials = mf.sample_trials(spec, 1000, seed=900_000 + s)
        p = mf.permutation_ci_test(
            trials, ["M"], [edge("C", 0, "A")], n_perm=99, seed=s
        )
        if p <= 0.05:
            hits += 1
    assert hits <= 16


def _exact_permutation_p(rows):
    """The permutation p-value of rows (a, b, c) by brute force: every
    permutation of b within each c stratum, all equally likely.  The
    statistic is Σ n_ab·log2 n_ab over each stratum's cells, which differs
    from the plug-in conditional information by terms the permutation fixes.
    """
    strata = {}
    for a, b, c in rows:
        a_col, b_col = strata.setdefault(c, ([], []))
        a_col.append(a)
        b_col.append(b)

    def term(a_col, b_col):
        return sum(k * math.log2(k) for k in Counter(zip(a_col, b_col)).values())

    observed = sum(term(a, b) for a, b in strata.values())
    dist, total = Counter({0.0: 1}), 1
    for a_col, b_col in strata.values():
        per = Counter(round(term(a_col, perm), 9) for perm in itertools.permutations(b_col))
        joint = Counter()
        for x, m in dist.items():
            for y, k in per.items():
                joint[round(x + y, 9)] += m * k
        dist, total = joint, total * math.factorial(len(b_col))
    return sum(m for x, m in dist.items() if x >= observed - 1e-6) / total


EXACT_CASES = {
    # one stratum; A with 2, 3 and 4 values, B with 2, 2 and 3
    "a2": [(0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0),
           (1, 1, 0), (1, 1, 0), (1, 0, 0), (1, 1, 0)],
    "a3": [(0, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 0),
           (2, 1, 0), (2, 1, 0), (2, 0, 0), (1, 1, 0)],
    "a4": [(0, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 0),
           (2, 2, 0), (2, 2, 0), (3, 1, 0), (3, 2, 0)],
    # two free strata and one forced by its constant A
    "strata": [(0, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 0), (2, 1, 0), (2, 1, 0),
               (0, 1, 1), (1, 0, 1), (1, 0, 1), (2, 1, 1), (2, 2, 1), (0, 2, 1),
               (0, 0, 2), (0, 1, 2), (0, 2, 2)],
}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_permutation_p_matches_exact_null(name):
    # The Monte Carlo p-value estimates the exact one: (1 + X)/(1 + n) with
    # X ~ Binomial(n, p).  A band of 4.5 standard deviations fails a correct
    # sampler with probability below 1e-5 per case.
    rows = EXACT_CASES[name]
    exact = _exact_permutation_p(rows)
    assert 0.2 < exact < 0.8
    c_vars = ["C"] if len({c for _, _, c in rows}) > 1 else []
    n = 19_999
    p = mf.permutation_ci_test(
        mf.DiscreteJoint(["A", "B", "C"], rows), ["A"], ["B"], c_vars, n_perm=n, seed=3
    )
    hits = round(p * (n + 1)) - 1
    assert abs(hits / n - exact) <= 4.5 * math.sqrt(exact * (1 - exact) / n)


def test_permutation_degenerate_strata_warns():
    # Every stratum holds one row: no permutation moves anything.
    rows = [(0, 0, 0), (1, 1, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]
    joint = mf.DiscreteJoint(["A", "B", "C"], rows)
    with pytest.warns(DegenerateTestWarning):
        p = mf.permutation_ci_test(joint, ["A"], ["B"], ["C"], n_perm=19, seed=0)
    assert p == 1.0


@pytest.mark.parametrize(
    "weights", [[10**9] * 4, [1, 1, 1, 10**9]], ids=["object-grid", "int64-grid"]
)
def test_permutation_rejects_strata_beyond_the_draw_limit(weights):
    joint = mf.DiscreteJoint(["A", "B"], [(0, 0), (0, 1), (1, 0), (1, 1)], weights)
    with pytest.raises(ValidationError, match="below 1000000000"):
        mf.permutation_ci_test(joint, ["A"], ["B"], n_perm=9, seed=0)


def test_permutation_runs_object_grids_of_small_strata():
    # Four strata of 8e8 make a total whose square exceeds int64 (an object
    # grid), while each stratum stays below the draw limit.
    rows = list(itertools.product((0, 1), (0, 1), range(4)))
    joint = mf.DiscreteJoint(["A", "B", "C"], rows, [2 * 10**8] * len(rows))
    assert joint.weights.dtype == object
    assert mf.permutation_ci_test(joint, ["A"], ["B"], ["C"], n_perm=9, seed=0) == 1.0


def test_permutation_forced_strata_leave_the_free_one_to_decide():
    # One free stratum (A and B equal on six rows) among strata of one row;
    # the p-value is the free stratum's alone, drawn from the same stream.
    free = [(0, 0, 9), (0, 0, 9), (0, 0, 9), (1, 1, 9), (1, 1, 9), (1, 1, 9)]
    rows = free + [(0, 0, 0), (1, 1, 1), (0, 1, 2), (1, 0, 3)]
    args = (["A"], ["B"], ["C"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = mf.permutation_ci_test(mf.DiscreteJoint(["A", "B", "C"], rows), *args,
                                   n_perm=1999, seed=4)
    alone = mf.permutation_ci_test(mf.DiscreteJoint(["A", "B", "C"], free), *args,
                                   n_perm=1999, seed=4)
    # The identity and the swapped table reach the observed statistic:
    # 2 of the C(6, 3) = 20 equally likely tables.
    assert _exact_permutation_p(free) == 0.1
    assert p == alone
    assert 0.07 < p < 0.13


def test_detect_flow_cascade_stages(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 10_000, seed=42)
    v = mf.detect_flow_sampled(
        trials, edge("A", 1, "B"), alpha=0.05, max_subset_size=1, n_perm=999, seed=1
    )
    assert v.has_flow and v.witness == (edge("C", 1, "B"),)
    assert len(v.p_values) == 2  # marginal, then the first singleton rejects

    trials2 = mf.sample_trials(fixtures["ce2"].spec, 10_000, seed=42)
    v2 = mf.detect_flow_sampled(
        trials2, edge("A", 1, "B"), alpha=0.05, max_subset_size=2, n_perm=999, seed=1
    )
    assert v2.has_flow
    assert v2.witness == (edge("C", 1, "B"), edge("D", 1, "B"))  # pair stage needed
    assert len(v2.p_values) == 4


def test_detect_null_edge_all_p_high(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 2_000, seed=9)
    v = mf.detect_flow_sampled(
        trials, edge("B", 0, "B"), alpha=0.05, max_subset_size=1, n_perm=99, seed=1
    )
    assert v == mf.FlowEntry(edge("B", 0, "B"), False, None, None, (), 0.05, 0, 0)  # no test


def test_detect_validates_subset_size(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 100, seed=9)
    with pytest.raises(ValidationError):
        mf.detect_flow_sampled(trials, edge("A", 1, "B"), max_subset_size=-1)
    with pytest.raises(ValidationError):  # checked before a constant edge returns
        mf.detect_flow_sampled(trials, edge("B", 0, "B"), max_subset_size=-1)


def test_trial_counts_beyond_int64_are_invalid(fixtures, monkeypatch):
    # numpy takes multinomial trial counts as int64: 2^63 - 1 is the most.
    np.random.default_rng(0).multinomial(mf.sampling.MAX_TRIALS, [0.5, 0.5])
    with pytest.raises((TypeError, OverflowError)):
        np.random.default_rng(0).multinomial(mf.sampling.MAX_TRIALS + 1, [0.5, 0.5])

    def no_draws(*args, **kwargs):
        raise AssertionError("the trial count is checked before any draw")

    monkeypatch.setattr(mf.sampling.np.random, "SeedSequence", no_draws)
    monkeypatch.setattr(mf.sampling, "ColumnPass", no_draws)
    for n in (mf.sampling.MAX_TRIALS + 1, 10**20):
        with pytest.raises(ValidationError, match=r"2\^63 - 1"):
            mf.sample_trials(fixtures["ce1"].spec, n, seed=1)


def test_negative_seeds_are_invalid(fixtures):
    spec = fixtures["ce1"].spec
    trials = mf.sample_trials(spec, 100, seed=9)
    live, constant = edge("A", 1, "B"), edge("B", 0, "B")
    for call in (
        lambda: mf.sample_trials(spec, 100, seed=-1),
        lambda: mf.detect_flow_sampled(trials, live, seed=-1),
        lambda: mf.detect_flow_sampled(trials, constant, seed=-1),  # before it returns
        lambda: mf.permutation_ci_test(trials, ["M"], [live], seed=-1),
        lambda: mf.permutation_ci_test(trials, ["M"], [constant], seed=-1),  # p = 1, no draw
    ):
        with pytest.raises(ValidationError, match="seed -1 is negative"):
            call()


@pytest.mark.parametrize("name", ["ce2", "butterfly"])
def test_subset_size_is_clamped_to_the_component(fixtures, name):
    # Any size beyond the edge's source component plans the same family.
    trials = mf.sample_trials(fixtures[name].spec, 1_000, seed=11)
    sizes = []
    for m in trials.message_vars:
        for i, e in enumerate(sorted(trials.edge_vars)):
            size = len(mf.flow._component(trials, [e], frozenset([e])))
            same = dict(alpha=0.05, n_perm=19, seed=i, message=m)
            clamped = mf.detect_flow_sampled(trials, e, max_subset_size=50, **same)
            assert clamped == mf.detect_flow_sampled(trials, e, max_subset_size=size, **same)
            sizes.append(size)
    assert max(sizes) >= 2


def _cascades_match_reference(trials) -> int:
    """Compare every non-constant cascade with ``reference_cascade``; count them."""
    n = 0
    for m in trials.message_vars:
        for i, e in enumerate(sorted(trials.edge_vars)):
            if trials.is_constant(e):
                continue
            args = (trials, e, 0.05, 2, 199, 17 * i + 3, m)
            assert mf.detect_flow_sampled(*args) == reference_cascade(*args), (m, e)
            n += 1
    return n


CASCADE_FIXTURES = ["ce1", "ce2", "ce3", "mult-msg", "hidden-ignored"]


@pytest.mark.parametrize("name", CASCADE_FIXTURES)
def test_cascade_matches_the_whole_slice_reference(fixtures, name):
    # Trials without sources search the whole slice, with the same p-values.
    trials = unpruned(mf.sample_trials(fixtures[name].spec, 3_000, seed=5))
    assert _cascades_match_reference(trials) > 0


@pytest.mark.parametrize("name", CASCADE_FIXTURES)
def test_cascade_matches_the_component_reference(fixtures, name):
    spec = fixtures[name].spec
    trials = mf.sample_trials(spec, 3_000, seed=5)
    assert trials.sources == spec.sources()
    assert _cascades_match_reference(trials) > 0


def test_derived_message_trials_search_the_whole_slice(fixtures):
    # A derived message is a function of the noise: the trials carry no
    # sources, and every cascade searches its whole slice.
    trials = mf.sample_trials(fixtures["output-msg"].spec, 2_000, seed=6)
    assert trials.sources is None
    assert _cascades_match_reference(trials) > 0


def test_detection_agrees_with_exact_on_ce1(fixtures, joints):
    trials = mf.sample_trials(fixtures["ce1"].spec, 10_000, seed=2024)
    exact = mf.analyze(joints["ce1"])
    for e in trials.edge_vars:
        v = mf.detect_flow_sampled(
            trials, e, alpha=0.01, max_subset_size=2, n_perm=1999, seed=77
        )
        assert v.has_flow == exact.has_flow(e), e


def test_p_values_deterministic(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 2_000, seed=4)
    args = (trials, ["M"], [edge("A", 1, "B")], [edge("C", 1, "B")])
    assert mf.permutation_ci_test(*args, n_perm=299, seed=5) == mf.permutation_ci_test(
        *args, n_perm=299, seed=5
    )


def test_csv_round_trip(fixtures, tmp_path):
    trials = mf.sample_trials(fixtures["ce1"].spec, 50, seed=13)
    path = tmp_path / "trials.csv"
    trials.to_csv(path)
    lines = path.read_text().splitlines()
    # One weighted line per distinct draw of the sources.
    assert lines[0].startswith("M,") and lines[0].endswith(",#weight")
    assert len(lines) == 1 + trials.n_rows < 1 + trials.total
    assert_same_table(mf.DiscreteJoint.from_csv(path), trials)


def test_detection_rate_monotone_in_trial_count(fixtures, joints):
    # Agreement with the exact verdicts should not degrade as trials grow.
    # The run is fully seeded.  Each cascade allows a false alarm with
    # probability up to alpha, which would break the last assertion; none
    # occurs in this block of seeds (the block from 550_000 holds one at
    # 10,000 trials, as about one run in 200 does).
    spec = fixtures["ce1"].spec
    exact = mf.analyze(joints["ce1"])
    edges = sorted(e for e in exact.entries)
    rates = []
    for n in (100, 1000, 10_000):
        agree = 0
        total = 0
        for run in range(20):
            trials = mf.sample_trials(spec, n, seed=550_020 + run)
            for i, e in enumerate(edges):
                v = mf.detect_flow_sampled(
                    trials,
                    e,
                    alpha=0.01,
                    max_subset_size=2,
                    n_perm=999,
                    seed=31 * run + i,
                )
                agree += int(v.has_flow == exact.has_flow(e))
                total += 1
        rates.append(agree / total)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] == 1.0


def test_cascade_draws_enough_replicates_to_reach_its_level(fixtures):
    # A0->A1 shares no source with another edge, so its cascade is the one
    # marginal test at level 0.05.  At 20 trials its table [[11, 0], [0, 9]]
    # expects 9·9/20 = 4.05 < 5 trials in a cell, so it runs by permutation.
    # With 9 permutations no p-value is below 1/10; the cascade draws
    # ceil(1/0.05) = 20 replicates instead.
    trials = mf.sample_trials(fixtures["ce1"].spec, 20, seed=1)
    args = (edge("A", 0, "A"), 0.05, 1)
    assert trials.weight_grid(["M"], [args[0]]).tolist() == [[[11, 0], [0, 9]]]
    v = mf.detect_flow_sampled(trials, *args, n_perm=9, seed=0)
    assert (v.n_tests_planned, v.replicates, v.level) == (1, 20, 0.05)
    assert v.has_flow and v.witness == ()
    assert v.p_values == (((), 1 / 21),)
    # Over the whole slice the family holds three tests at level 0.05/3;
    # 19 permutations cannot reach it, and ceil(3/0.05) = 60 replicates do.
    v = mf.detect_flow_sampled(unpruned(trials), *args, n_perm=19, seed=0)
    assert (v.n_tests_planned, v.replicates) == (3, 60)
    assert v.has_flow and v.witness == ()
    assert v.p_values == (((), 1 / 61),)
    # At 2,000 trials the table is dense: a G-test, no replicate drawn.
    v = mf.detect_flow_sampled(mf.sample_trials(fixtures["ce1"].spec, 2_000, seed=1), *args,
                               n_perm=9, seed=0)
    assert (v.n_tests_planned, v.replicates) == (1, 0)
    assert v.has_flow and v.p_values == (((), 0.0),)


def test_component_cascade_agrees_with_exact_on_noisy_systems():
    # The README's sampled settings: 10,000 trials, alpha 0.01, 1,999
    # permutations, subsets of at most two edges.  On the null edges, false
    # alarms stay within acceptance 10's bound of 2 alpha.  No flow is missed
    # whose minimal witness fits the cap and whose exact quantified value
    # exceeds 0.01 bits; weaker ones may be (0.0018 bits at most here).
    nulls = alarms = flows = pruned = 0
    missed = []
    for seed in range(60):
        spec = random_noisy_system(seed)
        joint = mf.enumerate_joint(spec)
        trials = mf.sample_trials(spec, 10_000, seed=seed)
        for m in trials.message_vars:
            exact = mf.analyze(joint, m, quantify=True)
            for i, e in enumerate(sorted(trials.edge_vars)):
                if trials.is_constant(e):
                    continue
                v = mf.detect_flow_sampled(trials, e, 0.01, 2, 1999, 1000 * seed + i, m)
                n = sum(x != e and not trials.is_constant(x) for x in trials.edges_at(e.time))
                pruned += v.n_tests_planned < sum(math.comb(n, j) for j in range(min(2, n) + 1))
                want = exact.entries[e]
                if not want.has_flow:
                    nulls += 1
                    alarms += v.has_flow
                elif len(want.witness) <= 2:
                    flows += 1
                    if not v.has_flow and want.quantified > 0.01:
                        missed.append((seed, m, e, want.quantified))
    assert nulls > 300 and flows > 200 and pruned > 400
    assert alarms <= 2 * 0.01 * nulls
    assert missed == []


# ----- the G-test and its routing -----------------------------------------


def test_chi2_tail_matches_closed_forms():
    # Even df: Q(k, z) = e^-z Σ_{i<k} z^i / i! with z = x/2.  df 1: erfc(sqrt(x/2)).
    xs = [0.0, 1e-9, 0.01, 0.3, 1.0, 2.5, 5.0, 9.9, 10.0, 10.1, 25.0, 60.0, 150.0,
          400.0, 900.0, 1300.0, 1410.0, 1500.0, 2000.0, 2500.0]

    def even(x, df):
        # Each Poisson term in logs, so that none underflows before the sum.
        z = x / 2
        if z == 0:
            return 1.0
        return sum(math.exp(i * math.log(z) - z - math.lgamma(i + 1)) for i in range(df // 2))

    for df, closed in [(1, lambda x, _: math.erfc(math.sqrt(x / 2)))] + [
        (df, even) for df in (2, 4, 8, 20, 60, 200)
    ]:
        ps = [mf.sampling.chi2_sf(x, df) for x in xs]
        for x, p in zip(xs, ps):
            assert math.isclose(p, closed(x, df), rel_tol=1e-12, abs_tol=1e-300), (df, x)
        assert ps[0] == 1.0 and ps[-1] == 0.0  # the tail underflows
        assert all(q <= p for p, q in zip(ps, ps[1:])), df
    # A fine sweep across the switch from series to fraction at x = df + 2.
    sweep = [mf.sampling.chi2_sf(11.0 + i * 1e-3, 10) for i in range(2001)]
    assert all(q <= p for p, q in zip(sweep, sweep[1:]))
    assert mf.sampling.chi2_sf(3.0, 0) == 1.0


def _g_brute_force(trials, a, b, c):
    """G and df summed over the free strata, built from the rows one at a time."""
    col = {v: i for i, v in enumerate(trials.variables)}
    strata = {}
    for row, w in zip(trials.rows, trials.weights.tolist()):
        cell = strata.setdefault(tuple(row[col[x]] for x in c), Counter())
        cell[row[col[a]], row[col[b]]] += w
    g, df = 0.0, 0
    for cell in strata.values():
        rows, cols = Counter(), Counter()
        for (x, y), w in cell.items():
            rows[x] += w
            cols[y] += w
        if len(rows) > 1 and len(cols) > 1:
            w_c = sum(rows.values())
            df += (len(rows) - 1) * (len(cols) - 1)
            g += 2 * sum(w * math.log(w * w_c / (rows[x] * cols[y])) for (x, y), w in cell.items())
    return g, df


@pytest.mark.parametrize("name", ["ce1", "ce2", "ce3", "mult-msg"])
def test_g_statistic_is_the_plug_in_cmi(fixtures, name):
    trials = mf.sample_trials(fixtures[name].spec, 2_000, seed=3)
    n_tests = 0
    for m in trials.message_vars:
        for e in sorted(trials.edge_vars):
            if trials.is_constant(e):
                continue
            for sub in mf.flow._subsets(mf.flow._component(trials, [e], frozenset([e])), 2):
                s = mf.sampling._strata(trials.weight_grid([m], [e], list(sub)))
                g, df = mf.sampling._g_statistic(s)
                want = 2 * trials.total * math.log(2) * trials.cmi([m], [e], list(sub))
                assert g == pytest.approx(want, rel=1e-9, abs=1e-9), (m, e, sub)
                brute_g, brute_df = _g_brute_force(trials, m, e, sub)
                assert df == brute_df
                assert g == pytest.approx(max(brute_g, 0.0), rel=1e-9, abs=1e-9)
                n_tests += 1
    assert n_tests > 5


def test_forced_strata_add_nothing_to_g_or_df():
    # Two free strata, then strata with one A value, one B value, one trial.
    free = [(0, 0, 0)] * 5 + [(0, 1, 0)] * 2 + [(1, 0, 0)] * 3 + [(1, 1, 0)] * 6 + [
        (0, 0, 1), (1, 1, 1), (2, 2, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1)]
    forced = [(0, 0, 2), (0, 1, 2), (0, 1, 2), (1, 1, 3), (2, 1, 3), (2, 1, 3), (1, 0, 4)]
    stats = []
    for rows in (free, free + forced):
        joint = mf.DiscreteJoint(["A", "B", "C"], rows)
        grid = joint.weight_grid(["A"], ["B"], ["C"])
        stats.append(mf.sampling._g_statistic(mf.sampling._strata(grid)))
    (g_free, df_free), (g_all, df_all) = stats
    assert df_free == df_all == 1 + 4
    assert g_all == pytest.approx(g_free, rel=1e-12)
    assert g_free == pytest.approx(_g_brute_force(
        mf.DiscreteJoint(["A", "B", "C"], free), "A", "B", ["C"])[0], rel=1e-12)


def test_empty_strata_add_nothing_to_g_or_df():
    # A weight-0 row holding a new conditioning value makes an empty stratum,
    # which must not count (0 − 1)(0 − 1) = 1 degree of freedom.
    rows = [(m, e, c) for c in (0, 1) for m in (0, 1) for e in (0, 1)]
    weights = [20, 22, 19, 21, 30, 28, 33, 29]
    g_stats, tests = [], []
    for extra in ([], [(0, 0, 2)]):
        joint = mf.DiscreteJoint(["M", "E", "C"], rows + extra, weights + [0] * len(extra))
        grid = joint.weight_grid(["M"], ["E"], ["C"])
        g_stats.append(mf.sampling._g_statistic(mf.sampling._strata(grid)))
        tests.append(mf.sampling._ci_test(grid, n_perm=99, seed=0, i=0))
    assert g_stats[0][1] == 2
    assert g_stats[1] == g_stats[0]
    assert tests[1] == tests[0] and tests[0][1] == 0  # G-tests, same p


def _two_by_two(n, a, b, extra=()):
    """One stratum of weight n with A margin (a, n − a) and B margin
    (b, n − b), whose smallest expected count is a·b/n; plus ``extra`` rows
    of weight 1 in strata of their own."""
    cells = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    x = a // 2
    weights = [x, a - x, b - x, n - a - b + x]
    return mf.DiscreteJoint(["A", "B", "C"], cells + list(extra), weights + [1] * len(extra))


@pytest.mark.parametrize(
    "b, route", [(499, "permutation"), (500, "G"), (501, "G")], ids=["4.99", "5", "5.01"]
)
def test_cochran_rule_routes_the_test(b, route):
    # Smallest expected count 20·b/2000: 4.99, exactly 5 and 5.01.  A forced
    # stratum of one trial, whose cell expects 1, does not count.
    for extra in ((), [(1, 1, 7)]):
        joint = _two_by_two(2_000, 20, b, extra)
        args = (joint, ["A"], ["B"], ["C"] if extra else [])
        grid = joint.weight_grid(*args[1:])
        p, drawn = mf.sampling._ci_test(grid, n_perm=99, seed=5, i=0)
        if route == "G":
            assert drawn == 0
            assert p == mf.sampling.chi2_sf(*mf.sampling._g_statistic(mf.sampling._strata(grid)))
        else:
            assert drawn == 99
            # Test 0 of a cascade seeded by 5 permutes with SeedSequence(5)'s first spawn.
            stream = np.random.SeedSequence(5).spawn(1)[0]
            stream_seed = int(stream.generate_state(1, np.uint32)[0])
            assert p == mf.permutation_ci_test(*args, n_perm=99, seed=stream_seed)


def test_cochran_rule_skips_values_a_stratum_lacks():
    # Stratum 0 lacks B = 2 and stratum 1 lacks A = 2; every occupied cell
    # expects 20 trials, so the test is a G-test.
    cells = [(a, b, 0) for a in range(3) for b in range(2)]
    cells += [(a, b, 1) for a in range(2) for b in range(3)]
    joint = mf.DiscreteJoint(["A", "B", "C"], cells, [20] * len(cells))
    assert mf.sampling._ci_test(joint.weight_grid(["A"], ["B"], ["C"]), 99, 0, 0) == (1.0, 0)


def test_replicates_count_a_permutation_test_before_a_g_test():
    # Three trials hold e = 2, all with M = 0 and c = 1: the marginal table
    # expects 1.5 trials in cell (M = 1, e = 2) and permutes.  Given c, the
    # stratum c = 1 is forced and c = 0 is dense, so the second test is a
    # G-test; the entry still records the first test's replicates.
    e, c = edge("A", 0, "B"), edge("C", 0, "B")
    rows = [(m, x, 0) for m in (0, 1) for x in (0, 1)] + [(0, 2, 1)]
    trials = mf.DiscreteJoint(["M", e, c], rows, [40, 40, 40, 40, 3])
    v = mf.detect_flow_sampled(trials, e, 0.05, 1, n_perm=99, seed=0)
    assert [sub for sub, _ in v.p_values] == [(), (c,)]
    assert not v.has_flow and v.p_values[1][1] == 1.0
    assert v.replicates == 99


def test_ci_test_degenerate_strata_warn_and_draw_nothing():
    rows = [(0, 0, 0), (1, 1, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]
    joint = mf.DiscreteJoint(["A", "B", "C"], rows)
    with pytest.warns(DegenerateTestWarning):
        assert mf.sampling._ci_test(joint.weight_grid(["A"], ["B"], ["C"]), 19, 0, 0) == (1.0, 0)


def test_dense_strata_beyond_the_draw_limit_take_the_g_test():
    # The permutation test refuses a stratum of 10^9; the G-test needs no draw.
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    flat = mf.DiscreteJoint(["A", "B"], cells, [10**9] * 4)
    assert flat.weights.dtype == object
    assert mf.sampling._ci_test(flat.weight_grid(["A"], ["B"]), 9, 0, 0) == (1.0, 0)
    tilted = mf.DiscreteJoint(["A", "B"], cells, [2 * 10**9, 10**9, 10**9, 2 * 10**9])
    assert mf.sampling._ci_test(tilted.weight_grid(["A"], ["B"]), 9, 0, 0) == (0.0, 0)


@st.composite
def _weighted_tables(draw):
    """Up to 30 weighted rows over M, E and 0–3 conditioning columns, each
    binary or ternary.  A zero weight leaves its values in the alphabets
    with no trial, and its conditioning value an empty stratum; few rows
    over many strata leave strata forced to one value of M or of E."""
    arities = draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5))
    rows = draw(st.lists(
        st.tuples(*(st.integers(0, k - 1) for k in arities)), min_size=1, max_size=30
    ))
    weights = draw(st.lists(st.integers(0, 40), min_size=len(rows), max_size=len(rows)))
    return rows, [max(weights[0], 1)] + weights[1:]


# Four strata below the draw limit over two binary conditioning columns:
# 3.6·10^9 trials in all, so the weights are Python ints.  Stratum (0, 0)
# has a margin of two trials and permutes.
_OBJECT_TABLE = (
    [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)]
    + [(m, e, 1, c) for c in (0, 1) for m in (0, 1) for e in (0, 1)]
    + [(m, e, 0, 1) for m in (0, 1) for e in (0, 1)],
    [5 * 10**8, 4 * 10**8, 1, 1] + [3 * 10**8, 10**8, 10**8, 4 * 10**8] * 3,
)


@settings(max_examples=300, deadline=None)
@given(_weighted_tables(), st.integers(0, 4), st.integers(0, 2**32 - 1))
@example(_OBJECT_TABLE, 2, 7)
# E's second value is held only by a zero-weight row: E is constant.
@example(([(0, 0, 0), (1, 0, 1), (0, 1, 0)], [1, 1, 0]), 0, 0)
def test_ci_test_on_the_cascade_grid_matches_the_reference(table, i, seed):
    # _ci_test on a grid from the cascade's query gives the reference test's
    # (p, replicates drawn): same route, same G and df, same permutations.
    rows, weights = table
    cond = tuple(f"C{j}" for j in range(len(rows[0]) - 2))
    joint = mf.DiscreteJoint(["M", "E", *cond], rows, weights)
    stream = np.random.SeedSequence(seed).spawn(i + 1)[i]
    stream_seed = int(stream.generate_state(1, np.uint32)[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = mf.sampling._ci_test(joint.grid_query(["M"])(("E",), cond), 19, seed, i)
        want = reference_test(joint, "M", "E", cond, 19, stream_seed)
    assert got == want
    # The test warns exactly when both columns have two occupied values and
    # every stratum holds at most one trial; a value held only by zero-weight
    # rows does not count.
    held = [row for row, w in zip(rows, weights) if w]
    strata = Counter()
    for row, w in zip(rows, weights):
        strata[row[2:]] += w
    degenerate = (
        len({row[0] for row in held}) > 1
        and len({row[1] for row in held}) > 1
        and max(strata.values()) <= 1
    )
    assert [w.category for w in caught] == [DegenerateTestWarning] * degenerate
    if table == _OBJECT_TABLE:
        assert joint.weights.dtype == object and got[1] == 19


@pytest.mark.parametrize("n_trials, alarms_max, misses_max", [(300, 0, 20), (10_000, 1, 4)])
def test_cascade_agrees_with_exact_under_both_tests(n_trials, alarms_max, misses_max):
    # random_noisy_system seeds 0–39 at alpha 0.01, cap 2.  False alarms stay
    # within acceptance 10's bound of 2 alpha per null edge.  The counts the
    # permutation-only cascade gave on trials drawn one at a time (0 and 20
    # at 300 trials, 1 and 4 at 10,000) bound the alarms and misses; the
    # multinomial sampler's trials give 0 and 20, and 0 and 0.
    nulls = alarms = misses = 0
    for seed in range(40):
        spec = random_noisy_system(seed)
        joint = mf.enumerate_joint(spec)
        trials = mf.sample_trials(spec, n_trials, seed=seed)
        for m in trials.message_vars:
            exact = mf.analyze(joint, m)
            for i, e in enumerate(sorted(trials.edge_vars)):
                if trials.is_constant(e):
                    continue
                v = mf.detect_flow_sampled(trials, e, 0.01, 2, 999, 1000 * seed + i, m)
                if exact.entries[e].has_flow:
                    misses += not v.has_flow
                else:
                    nulls += 1
                    alarms += v.has_flow
    assert nulls > 200
    assert alarms <= min(alarms_max, 2 * 0.01 * nulls)
    assert misses <= misses_max


def test_cascade_matches_the_reference_on_sparse_trials(fixtures):
    # At 60 trials some cascades run permutation tests; each one must match
    # the reference, route and p-value alike.
    permuted = 0
    for name in CASCADE_FIXTURES:
        trials = mf.sample_trials(fixtures[name].spec, 60, seed=5)
        for t in (trials, unpruned(trials)):
            assert _cascades_match_reference(t) > 0
            permuted += sum(
                mf.detect_flow_sampled(t, e, 0.05, 2, 199, 17 * i + 3, m).replicates > 0
                for m in t.message_vars
                for i, e in enumerate(sorted(t.edge_vars))
                if not t.is_constant(e)
            )
    assert permuted >= 4


def test_analyze_sampled_applies_the_seed_policy(fixtures):
    # Message i draws from the i-th child of SeedSequence(seed), and the k-th
    # sorted edge from the k-th child of that, as one uint64.
    trials = mf.sample_trials(fixtures["mult-msg"].spec, 300, seed=3)
    reports = mf.analyze_sampled(trials, alpha=0.05, max_subset_size=1, n_perm=49, seed=7)
    assert list(reports) == list(trials.message_vars) == ["M1", "M2"]
    edges = sorted(trials.edge_vars)
    for m, stream in zip(reports, np.random.SeedSequence(7).spawn(2)):
        assert reports[m].engine == "sampled" and list(reports[m].entries) == edges
        for e, child in zip(edges, stream.spawn(len(edges))):
            seed = int(child.generate_state(1, np.uint64)[0])
            want = mf.detect_flow_sampled(trials, e, 0.05, 1, 49, seed, message=m)
            assert reports[m].entries[e] == want
    # A message's report depends on its place in the list, not on the others.
    alone = mf.analyze_sampled(trials, ["M1"], 0.05, 1, 49, 7)
    assert alone["M1"] == reports["M1"]


def test_analyze_sampled_rejects_a_repeated_message(ce1_trials):
    with pytest.raises(ValidationError, match=r"more than once: \['M', 'M'\]"):
        mf.analyze_sampled(ce1_trials, ["M", "M"])
