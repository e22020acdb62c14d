import warnings

import pytest
from hypothesis import given, settings, strategies as st

import msgflow as mf
from msgflow import (
    ContinuousSamplingWarning,
    DegenerateTestWarning,
    TrialMatrix,
    ValidationError,
)
from msgflow.graph import NodeRef, edge
from randsys import random_system
from reference import assert_same_table, reference_trials


@pytest.fixture(scope="module")
def ce1_trials(fixtures):
    return mf.sample_trials(fixtures["ce1"].spec, 10_000, seed=42)


def test_rows_live_in_exact_support(fixtures, joints):
    trials = mf.sample_trials(fixtures["ce1"].spec, 4, seed=7)
    support = set(joints["ce1"].rows)
    assert trials.n_rows == 4
    for row in trials.rows:
        assert tuple(row) in support


def test_seeded_determinism(fixtures):
    a = mf.sample_trials(fixtures["ce2"].spec, 500, seed=11)
    b = mf.sample_trials(fixtures["ce2"].spec, 500, seed=11)
    c = mf.sample_trials(fixtures["ce2"].spec, 500, seed=12)
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_empirical_mean_concentrates(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 100_000, seed=5)
    mean = sum(trials.column("M")) / trials.n_rows
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
    assert_same_table(mf.sample_trials(spec, 200, seed=seed), reference_trials(spec, 200, seed))


@pytest.mark.parametrize("name", ["output-msg", "fft-phase", "mult-msg", "hidden-masked"])
def test_trials_match_reference_on_fixtures(fixtures, name):
    # A derived message, ComplexQ transmissions, a two-component message.
    spec = fixtures[name].spec
    assert_same_table(mf.sample_trials(spec, 300, seed=8), reference_trials(spec, 300, 8))


def test_plug_in_cmi_close_to_exact(ce1_trials):
    est = mf.plug_in_cmi(ce1_trials, ["M"], [edge("A", 1, "B")], [edge("C", 1, "B")])
    assert abs(est - 1.0) < 0.05


def test_plug_in_constant_column_zero(ce1_trials):
    assert mf.plug_in_cmi(ce1_trials, ["M"], [edge("B", 0, "B")]) == 0.0


def test_plug_in_bias_level(ce1_trials):
    est = mf.plug_in_cmi(ce1_trials, ["M"], [edge("C", 1, "B")])
    assert est <= 0.01


def test_gaussian_sampling_warns_and_ci_rejects(fixtures):
    with pytest.warns(ContinuousSamplingWarning):
        trials = mf.sample_trials(fixtures["sk"].spec, 50, seed=1)
    with pytest.raises(ValidationError):
        mf.plug_in_cmi(trials, ["M"], [edge("A", 0, "B")])


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
    # seeded; this frozen experiment yields 15 hits.
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


def test_permutation_degenerate_strata_warns(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 3, seed=2)
    # condition on the message itself: strata of size ~1 at n=3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = mf.permutation_ci_test(
            trials, ["M"], [edge("A", 1, "B")], [edge("A", 0, "A"), edge("C", 0, "A")],
            n_perm=19, seed=0,
        )
    if p == 1.0 and any(c.category is DegenerateTestWarning for c in caught):
        assert True
    else:
        # with 3 trials some stratum may still hold 2 rows; then the test ran
        assert 0 < p <= 1


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
    assert not v.has_flow
    assert all(p == 1.0 for _, p in v.p_values)  # constant column


def test_detect_validates_subset_size(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 100, seed=9)
    with pytest.raises(ValidationError):
        mf.detect_flow_sampled(trials, edge("A", 1, "B"), max_subset_size=5)


def test_detection_agrees_with_exact_on_ce1(fixtures, joints):
    trials = mf.sample_trials(fixtures["ce1"].spec, 10_000, seed=2024)
    exact = mf.analyze(joints["ce1"])
    for e in trials.edge_vars:
        cands = [x for x in trials.edges_at(e.time) if x != e and not trials.is_constant(x)]
        v = mf.detect_flow_sampled(
            trials, e, alpha=0.01, max_subset_size=min(2, len(cands)),
            n_perm=1999, seed=77,
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
    header = path.read_text().splitlines()[0]
    assert header.startswith("M,") and "#weight" not in header  # trials weigh 1
    again = TrialMatrix.from_csv(path)
    assert again.variables == trials.variables
    assert again.rows == trials.rows


def test_detection_rate_monotone_in_trial_count(fixtures, joints):
    # Agreement with the exact verdicts should not degrade as trials grow.
    spec = fixtures["ce1"].spec
    exact = mf.analyze(joints["ce1"])
    edges = sorted(e for e in exact.entries)
    rates = []
    for n in (100, 1000, 10_000):
        agree = 0
        total = 0
        for run in range(20):
            trials = mf.sample_trials(spec, n, seed=550_000 + run)
            for i, e in enumerate(edges):
                cands = [
                    x
                    for x in trials.edges_at(e.time)
                    if x != e and not trials.is_constant(x)
                ]
                v = mf.detect_flow_sampled(
                    trials,
                    e,
                    alpha=0.01,
                    max_subset_size=min(2, len(cands)),
                    n_perm=999,
                    seed=31 * run + i,
                )
                agree += int(v.has_flow == exact.has_flow(e))
                total += 1
        rates.append(agree / total)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] == 1.0


def test_cascade_draws_enough_replicates_to_reach_its_level(fixtures):
    # With 19 permutations no p-value is below 1/20 = 0.05, above the level
    # 0.05/3 of this three-test cascade; the cascade draws
    # ceil(3/0.05) = 60 replicates instead, so the flow is found.
    trials = mf.sample_trials(fixtures["ce1"].spec, 2_000, seed=1)
    v = mf.detect_flow_sampled(
        trials, edge("A", 0, "A"), alpha=0.05, max_subset_size=1, n_perm=19, seed=0
    )
    assert v.n_tests_planned == 3
    assert v.has_flow and v.witness == ()
    assert v.p_values == (((), 1 / 61),)
