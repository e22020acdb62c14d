import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import msgflow as mf
from msgflow import BudgetExceededError, MessageSpec, NoiseSpec, SystemSpec, ValidationError
from msgflow.exprs import edge_in, msg
from msgflow.graph import NodeRef, UnrolledGraph, edge
from msgflow.system import compress, first_rows, mixed_radix

from randsys import pad_mask, random_noisy_system, random_system
from reference import assert_same_table, reference_joint


def test_ce1_joint_shape(joints):
    j = joints["ce1"]
    assert len(j.rows) == 4
    assert all(p == Fraction(1, 4) for p in j.probs)
    assert j.variables[0] == "M"
    # masked transmission and the pad itself
    masked = j.support(edge("A", 1, "B"))
    assert set(masked) == {0, 1}


def test_ce2_joint_has_eight_rows(joints):
    j = joints["ce2"]
    assert len(j.rows) == 8
    assert all(p == Fraction(1, 8) for p in j.probs)


def test_constant_system_single_row():
    g = UnrolledGraph(("A", "B"), 2)
    spec = SystemSpec(g, MessageSpec.discrete(("M",), [((0,), 1)]))
    j = mf.enumerate_joint(spec)
    assert len(j.rows) == 1
    assert j.probs == (Fraction(1),)
    assert all(v == 0 for v in j.rows[0])


def test_cmi_values_ce1(joints):
    j = joints["ce1"]
    e_ab, e_cb = edge("A", 1, "B"), edge("C", 1, "B")
    assert j.cmi(["M"], [e_ab]) == 0.0
    assert j.cmi(["M"], [e_ab], [e_cb]) == pytest.approx(1.0, abs=1e-12)
    assert j.cmi(["M"], [e_ab, e_cb]) == pytest.approx(1.0, abs=1e-12)
    assert not j.dependent(["M"], [e_ab])
    assert j.dependent(["M"], [e_ab], [e_cb])


def test_cmi_of_constant_is_zero(joints):
    j = joints["ce1"]
    const_edge = edge("B", 0, "B")
    assert j.is_constant(const_edge)
    assert j.cmi(["M"], [const_edge]) == 0.0
    assert j.cmi(["M"], [const_edge], [edge("A", 0, "A")]) == 0.0


def test_entropy_via_self_information(joints):
    j = joints["ce1"]
    assert j.cmi(["M"], ["M"]) == pytest.approx(1.0)
    assert j.entropy([edge("A", 1, "B"), edge("C", 1, "B")]) == pytest.approx(2.0)


def test_cmi_set_validation(joints):
    j = joints["ce1"]
    with pytest.raises(ValidationError):
        j.cmi(["M"], ["M", edge("A", 0, "A")])  # partial overlap
    with pytest.raises(ValidationError):
        j.cmi(["M"], [edge("A", 0, "A")], ["M"])
    with pytest.raises(ValidationError):
        j.cmi(["M"], ["nope"])


def test_unknown_variables_raise_validation_errors(joints):
    j = joints["ce1"]
    for v in ("nope", edge("Z", 0, "Z")):
        with pytest.raises(ValidationError, match="unknown variable"):
            j.is_constant(v)
        with pytest.raises(ValidationError, match="unknown variable"):
            j.weight_grid(["M"], [v])
        with pytest.raises(ValidationError, match="unknown variable"):
            j.weight_grid([v], ["M"], [edge("A", 0, "A")])


def test_budget_guard():
    g = UnrolledGraph(("A",), 1)
    spec = SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        functions={NodeRef("A", 0): {edge("A", 0, "A"): msg()}},
        declared_inputs=("A",),
    )
    with pytest.raises(BudgetExceededError):
        mf.enumerate_joint(spec, budget=1)


def test_probabilities_consistent_with_propagation(joints, fixtures):
    spec = fixtures["ce3"].spec
    j = joints["ce3"]
    cols = {v: i for i, v in enumerate(j.variables)}
    for row in j.rows:
        m = row[cols["M"]]
        z = row[cols[edge("C", 0, "C")]]
        values = spec.propagate({"M": m}, {NodeRef("C", 0): z})
        for e in j.edge_vars:
            assert values[e] == row[cols[e]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_chain_rule_and_nonnegativity(seed):
    import random

    spec = random_system(seed)
    j = mf.enumerate_joint(spec)
    rng = random.Random(seed + 1)
    pool = [v for v in j.edge_vars if not j.is_constant(v)]
    if len(pool) < 2:
        return
    b = rng.sample(pool, k=min(len(pool), rng.randint(1, 2)))
    rest = [v for v in pool if v not in b]
    c = rng.sample(rest, k=min(len(rest), rng.randint(0, 2)))
    lhs = j.cmi(["M"], b + c)
    rhs = j.cmi(["M"], b) + j.cmi(["M"], c, b) if c else j.cmi(["M"], b)
    assert lhs >= -1e-12
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert j.dependent(["M"], b + c) == (lhs > 1e-9) or lhs <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_node_level_markov(seed):
    # Whatever a node emits is explained by what it received.
    spec = random_system(seed)
    j = mf.enumerate_joint(spec)
    g = spec.graph
    for t in range(1, g.horizon):
        for v in g.nodes_at(t):
            p = list(g.incoming(v))
            q = list(g.outgoing(v))
            if q:
                assert not j.dependent(["M"], q, p)


def test_node_level_markov_on_fixtures(joints, fixtures):
    for name, j in joints.items():
        g = fixtures[name].spec.graph
        m = fixtures[name].messages[0]
        for t in range(1, g.horizon):
            for v in g.nodes_at(t):
                q = list(g.outgoing(v))
                if q:
                    assert not j.dependent([m], q, list(g.incoming(v))), (name, v)


def _mixed_zero_system():
    # A0->A1 carries Z * 0: first the int 0, then Fraction(0), which equals
    # it but is not a bit, so the xor downstream fails on it.
    g = UnrolledGraph(("A",), 2)
    return SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        noise={NodeRef("A", 0): NoiseSpec.discrete(((1, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))))},
        functions={
            NodeRef("A", 0): {edge("A", 0, "A"): ("mul", ("noise", None), ("const", 0))},
            NodeRef("A", 1): {edge("A", 1, "A"): ("xor", ("edge", edge("A", 0, "A")), ("const", 0))},
        },
    )


def test_enumeration_surfaces_type_errors():
    # Both engines, on an xor of a Fraction and on an xor of Fraction(0).
    from msgflow import ExpressionTypeError
    from msgflow.exprs import const, msg

    g = UnrolledGraph(("A",), 1)
    spec = SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        functions={NodeRef("A", 0): {edge("A", 0, "A"): ("xor", msg(), const(Fraction(1, 2)))}},
        declared_inputs=("A",),
    )
    for system in (spec, _mixed_zero_system()):
        with pytest.raises(ExpressionTypeError):
            mf.enumerate_joint(system)
        with pytest.raises(ExpressionTypeError):
            mf.sample_trials(system, 200, seed=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_enumeration_matches_per_realization_reference(seed, biased):
    spec = random_system(seed)
    if biased:
        spec = _biased(spec)
    assert_same_table(mf.enumerate_joint(spec), reference_joint(spec))


def test_named_own_noise_reads_like_bare_noise():
    g = UnrolledGraph(("A",), 1)
    a0 = NodeRef("A", 0)
    spec = SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        noise={a0: NoiseSpec.bernoulli()},
        functions={a0: {edge("A", 0, "A"): ("xor", msg(), ("noise", a0))}},
        declared_inputs=("A",),
    )
    j = mf.enumerate_joint(spec)
    assert_same_table(j, reference_joint(spec))
    assert j.rows == ((0, 0), (0, 1), (1, 1), (1, 0))


@pytest.mark.parametrize("name", ["output-msg", "fft-phase", "mult-msg", "hidden-masked"])
def test_enumeration_matches_reference_on_fixtures(fixtures, name):
    # A derived message, ComplexQ transmissions, a two-component message.
    spec = fixtures[name].spec
    assert_same_table(mf.enumerate_joint(spec), reference_joint(spec))


def _walk_case(name):
    """Systems whose walk order differs from product order (A1 sorts before
    B0, but B0 is drawn first), each with odd-denominator laws."""
    g = UnrolledGraph(("A", "B", "C"), 2)
    a1, b0, c0 = NodeRef("A", 1), NodeRef("B", 0), NodeRef("C", 0)
    b0_law = NoiseSpec.discrete([(0, Fraction(1, 6)), (1, Fraction(1, 3)), (2, Fraction(1, 2))])
    a1_law = NoiseSpec.discrete([(0, Fraction(1, 5)), (1, Fraction(4, 5))])
    if name == "reordered":
        # B0's two even values merge once B0->A1 (its only reader) has run;
        # the merged row keeps the index of B0 = 0.
        noise = {b0: b0_law, a1: a1_law}
        total = ("add", edge_in(edge("A", 0, "A")), edge_in(edge("B", 0, "A")))
        fns = {
            NodeRef("A", 0): {edge("A", 0, "A"): msg()},
            NodeRef("B", 0): {edge("B", 0, "A"): ("mod", 2, ("noise", None))},
            NodeRef("A", 1): {edge("A", 1, "A"): ("add", total, ("noise", None))},
        }
        return SystemSpec(g, MessageSpec.bernoulli("M", Fraction(2, 7)), noise, fns, ("A",))
    if name == "derived-live":
        # M = A1 and B0 reads A1's noise before slice 0, and A1->A2 reads it
        # again after B0 is summed out: rows that differ only in A1's noise
        # must not merge.
        noise = {b0: NoiseSpec.bernoulli(Fraction(3, 4)), a1: a1_law}
        fns = {
            NodeRef("B", 0): {edge("B", 0, "A"): ("noise", None), edge("B", 0, "B"): ("noise", None)},
            NodeRef("A", 1): {edge("A", 1, "A"): ("xor", edge_in(edge("B", 0, "A")), ("noise", None))},
            NodeRef("B", 1): {edge("B", 1, "B"): ("edge", edge("B", 0, "B"))},
        }
        message = MessageSpec.derived(("M",), [("and", ("noise", a1), ("noise", b0))])
        return SystemSpec(g, message, noise, fns)
    # "mixed-types": C0->A1 carries 0 or 0.0 and A1->A2 their sum with B0's
    # bit and A1's 0 or 1.0.  Its first value equal to 1 is the int 1 in
    # product order (A1 = 0, B0 = 1, C0 = 1), but the float 1.0 in walk
    # order (B0 = 0, C0 = 1, A1 = 1.0); rows that differ only in 0 and 0.0
    # are one outcome of the table.
    noise = {
        b0: NoiseSpec.bernoulli(Fraction(1, 3)),
        c0: NoiseSpec.discrete([(1, Fraction(2, 5)), (1.5, Fraction(3, 5))]),
        a1: NoiseSpec.discrete([(0, Fraction(1, 7)), (1.0, Fraction(6, 7))]),
    }
    total = ("add", edge_in(edge("B", 0, "A")), edge_in(edge("C", 0, "A")))
    fns = {
        NodeRef("A", 0): {edge("A", 0, "A"): msg()},
        NodeRef("B", 0): {edge("B", 0, "A"): ("noise", None)},
        NodeRef("C", 0): {edge("C", 0, "A"): ("mul", ("noise", None), ("const", 0))},
        NodeRef("A", 1): {edge("A", 1, "A"): ("add", total, ("noise", None))},
    }
    return SystemSpec(g, MessageSpec.bernoulli("M"), noise, fns, ("A",))


@pytest.mark.parametrize("name", ["reordered", "derived-live", "mixed-types"])
def test_enumeration_across_sources(name):
    spec = _walk_case(name)
    j = mf.enumerate_joint(spec)
    assert_same_table(j, reference_joint(spec))
    if name == "mixed-types":
        assert [(type(x), x) for x in j.support(edge("A", 1, "A"))] == [
            (int, 0), (int, 1), (float, 2.0)
        ]
        assert (j.n_rows, spec.realization_count()) == (8, 16)


def test_enumeration_of_many_realizations_with_few_outcomes():
    # 2 * 16^5 = 2^21 realizations: M and the five reduced noises are
    # independent fair bits, and B decodes M.
    spec = pad_mask(2, 3, 16)
    assert spec.realization_count() == 2 ** 21
    j = mf.enumerate_joint(spec)
    assert j.n_rows == 64 and j.weights.tolist() == [1] * 64
    assert j.column(edge("B", 2, "B")) == j.column("M")
    bits = [j.column(edge(x, 0, x)) for x in ("PA", "PB", "DA", "DB", "DC")]
    assert len(set(zip(j.column("M"), *bits))) == 64


def test_enumeration_above_int64_keeps_product_order():
    # 3 * 2^64 realizations: the message's stride, 2^64, and the largest
    # index pass int64.  Every noise only feeds a constant edge, so the
    # rows are the message's values in pmf order.
    names = ["N" + chr(65 + i // 26) + chr(65 + i % 26) for i in range(64)]
    g = UnrolledGraph(["A", *names], 1, [(x, x) for x in ["A", *names]])
    spec = SystemSpec(
        g,
        MessageSpec.discrete(
            ("M",), [((2,), Fraction(1, 2)), ((0,), Fraction(1, 3)), ((1,), Fraction(1, 6))]
        ),
        noise={NodeRef(x, 0): NoiseSpec.bernoulli() for x in names},
        functions={
            NodeRef("A", 0): {edge("A", 0, "A"): msg()},
            **{NodeRef(x, 0): {edge(x, 0, x): ("mul", ("noise", None), ("const", 0))} for x in names},
        },
        declared_inputs=("A",),
    )
    assert spec.realization_count() == 3 * 2 ** 64
    with pytest.raises(BudgetExceededError):
        mf.enumerate_joint(spec)
    j = mf.enumerate_joint(spec, budget=2 ** 70)
    assert j.column("M") == j.column(edge("A", 0, "A")) == [2, 0, 1]
    assert j.probs == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert all(j.is_constant(edge(x, 0, x)) for x in names)


_TABLE_CASES = (
    [name for name in mf.FIXTURE_NAMES if name != "sk"]  # sk is linear-Gaussian
    + [f"randsys-{seed}" for seed in range(0, 300, 30)]
    + [f"noisy-{seed}" for seed in range(0, 200, 20)]
)


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_producers_number_values_by_first_appearance(fixtures, case):
    # ``from_codes`` keeps the codes it is given: enumerate_joint and
    # sample_trials must hand it each column's values numbered by first
    # appearance, every one of them held by some row.
    kind, _, seed = case.partition("-")
    if kind == "randsys":
        spec = random_system(int(seed))
    elif kind == "noisy":
        spec = random_noisy_system(int(seed))
    else:
        spec = fixtures[case].spec
    for table in (mf.enumerate_joint(spec), mf.sample_trials(spec, 300, seed=5)):
        assert table.codes.dtype == np.int64
        for codes, values in zip(table.codes, table.values):
            k = len(values)
            assert codes[first_rows(codes, k)].tolist() == list(range(k))


def test_from_codes_rejects_fractional_and_negative_weights():
    # int() would truncate 1.5 and 2.5 to 1 and 2, and -0.5 to 0.
    codes, values = np.array([[0, 1], [0, 1]]), [(0, 1), (0, 1)]
    for bad in ([1.5, 2.5], [Fraction(1, 2), 1], [1, -1], [1, -0.5]):
        with pytest.raises(ValidationError):
            mf.DiscreteJoint.from_codes(["A", "B"], codes, values, bad)
    j = mf.DiscreteJoint.from_codes(["A", "B"], codes, values, [1.0, np.int64(3)])
    assert j.probs == (Fraction(1, 4), Fraction(3, 4))


def test_weighted_csv_round_trip(tmp_path):
    j = mf.DiscreteJoint(["M"], [(0,), (1,)], [Fraction(1, 3), Fraction(2, 3)])
    path = tmp_path / "joint.csv"
    j.to_csv(path)
    assert path.read_text().splitlines() == ["M,#weight", "0,1", "1,2"]
    again = mf.DiscreteJoint.from_csv(path)
    assert again.probs == j.probs
    assert again.entropy(["M"]) == pytest.approx(0.918, abs=5e-4)
    for bad in ("-1", "1.5", "x", ""):
        path.write_text(f"M,#weight\n0,1\n1,{bad}\n")
        with pytest.raises(ValidationError):
            mf.DiscreteJoint.from_csv(path)


def test_zero_weight_csv_round_trip(tmp_path):
    # The rows constructor accepts zero-weight rows, so from_csv reads them back.
    j = mf.DiscreteJoint(["A", "B"], [(0, 0), (1, 1)], [1, 0])
    path = tmp_path / "joint.csv"
    j.to_csv(path)
    assert path.read_text().splitlines() == ["A,B,#weight", "0,0,1", "1,1,0"]
    again = mf.DiscreteJoint.from_csv(path)
    assert again.rows == j.rows and again.weights.tolist() == [1, 0]


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "trials.csv"
    path.write_text("M,A0->A1\n0,1\n\n1,0\n\n")
    trials = mf.DiscreteJoint.from_csv(path)
    assert trials.variables == ("M", edge("A", 0, "A"))
    assert trials.rows == ((0, 1), (1, 0))


def test_empty_csv_is_a_validation_error(tmp_path):
    for text in ("", "\n\n"):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match="no header"):
            mf.DiscreteJoint.from_csv(path)


def test_mixed_regimes_rejected():
    from msgflow import NoiseSpec

    g = UnrolledGraph(("A",), 1)
    with pytest.raises(ValidationError):
        SystemSpec(
            g,
            MessageSpec.bernoulli("M"),
            noise={NodeRef("A", 0): NoiseSpec.gaussian(1)},
        )
    with pytest.raises(ValidationError):
        SystemSpec(
            g,
            MessageSpec.gaussian("M", 1),
            noise={NodeRef("A", 0): NoiseSpec.bernoulli()},
        )
    with pytest.raises(ValidationError):
        mf.enumerate_joint(mf.build("sk").spec)


def _brute_force(j, a, b, c):
    """Dependence and I(A;B|C) from the decoded rows in exact Fractions."""
    cols = {v: i for i, v in enumerate(j.variables)}
    key = lambda row, vs: tuple(row[cols[v]] for v in vs)
    p_abc, p_ac, p_bc, p_c = {}, {}, {}, {}
    for row, p in zip(j.rows, j.probs):
        x, y, z = key(row, a), key(row, b), key(row, c)
        p_abc[(x, y, z)] = p_abc.get((x, y, z), 0) + p
        p_ac[(x, z)] = p_ac.get((x, z), 0) + p
        p_bc[(y, z)] = p_bc.get((y, z), 0) + p
        p_c[z] = p_c.get(z, 0) + p
    dep = any(
        p_abc.get((x, y, z), 0) * p_c[z] != p_ac[(x, z)] * p_bc[(y, z2)]
        for (x, z) in p_ac
        for (y, z2) in p_bc
        if z2 == z
    )
    bits = sum(
        float(p) * math.log2(p * p_c[z] / (p_ac[(x, z)] * p_bc[(y, z)]))
        for (x, y, z), p in p_abc.items()
        if p
    )
    return dep, bits


def _biased(spec):
    """The same system with odd-denominator message and noise laws."""
    return SystemSpec(
        spec.graph,
        MessageSpec.bernoulli("M", Fraction(2, 7)),
        noise={v: NoiseSpec.bernoulli(Fraction(i + 1, 5)) for i, v in enumerate(spec.noise_nodes())},
        functions=spec.functions,
        declared_inputs=tuple(spec.declared_inputs),
    )


def _check_kernel(j, rng, n_queries):
    """Random queries, conditioning on up to three edges, against _brute_force;
    A is the message, B itself, or the message with the edges left over."""
    pool = list(j.edge_vars)
    for _ in range(n_queries):
        b = rng.sample(pool, k=min(len(pool), rng.randint(1, 2)))
        rest = [v for v in pool if v not in b]
        c = rng.sample(rest, k=min(len(rest), rng.randint(0, 3)))
        left = [v for v in rest if v not in c]
        more = rng.sample(left, k=min(len(left), rng.randint(1, 2)))
        for a in (list(j.message_vars), b, list(j.message_vars) + more):
            dep, bits = _brute_force(j, a, b, c)
            assert j.dependent(a, b, c) == dep, (a, b, c)
            assert j.cmi(a, b, c) == pytest.approx(bits, abs=1e-12), (a, b, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_kernel_matches_fraction_brute_force(seed):
    import random

    _check_kernel(mf.enumerate_joint(_biased(random_system(seed))), random.Random(seed), 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_kernel_matches_fraction_brute_force_on_random_tables(seed):
    # Alphabets of up to four values, rational weights and zero-weight rows,
    # which randsys's binary systems do not produce.
    import random

    rng = random.Random(seed)
    variables = ["M"] + [edge(x, 0, y) for x in "AB" for y in "AB"]
    sizes = [rng.randint(1, 4) for _ in variables]
    rows = [tuple(rng.randrange(k) for k in sizes) for _ in range(12)]
    weights = [Fraction(rng.randint(0, 4), rng.choice((1, 3, 7))) for _ in rows]
    weights[0] += 1
    _check_kernel(mf.DiscreteJoint(variables, rows, weights), rng, 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_kernel_matches_fraction_brute_force_on_multi_column_sets(seed):
    # A, B and C of two or three columns each, with alphabets of up to five
    # values, so every axis of the grid is a mixed-radix key.
    import random

    rng = random.Random(seed)
    variables = ["M", "N"] + [edge(x, 0, y) for x in "ABC" for y in "AB"]
    sizes = [rng.randint(1, 5) for _ in variables]
    n = rng.randint(1, 30)
    rows = [tuple(rng.randrange(k) for k in sizes) for _ in range(n)]
    weights = [rng.randint(0, 3) for _ in rows]
    weights[0] += 1
    j = mf.DiscreteJoint(variables, rows, weights)
    for _ in range(4):
        edges = rng.sample(variables[2:], 5)
        a, b, c = variables[:2], edges[:2], edges[2:]
        dep, bits = _brute_force(j, a, b, c)
        assert j.dependent(a, b, c) == dep, (a, b, c)
        assert j.cmi(a, b, c) == pytest.approx(bits, abs=1e-12), (a, b, c)
    _check_kernel(j, rng, 6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 200), st.booleans(), st.integers(0, 10**6))
def test_compress_is_np_unique(n, k, give_k, seed):
    # The presence table (k <= 2n) and the sort (k > 2n, or k unknown) both
    # give np.unique's inverse and count.
    key = np.random.default_rng(seed).integers(0, k, size=n)
    inverse, count = compress(key, k if give_k else None)
    uniq, want = np.unique(key, return_inverse=True)
    assert inverse.tolist() == want.tolist()
    assert count == len(uniq)


def _ranks(rows):
    """Each row's rank among the distinct rows, in lexicographic order."""
    order = {r: i for i, r in enumerate(sorted(set(rows)))}
    return [order[r] for r in rows]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.lists(st.integers(1, 5), min_size=1, max_size=8),
       st.integers(0, 10**6))
def test_mixed_radix_orders_rows_by_their_values(n, sizes, seed):
    # Mixed radix keeps the partition and order that compressing after
    # every column gives: lexicographic, first column most significant.
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, size, size=n) for size in sizes]
    key, k = mixed_radix(zip(cols, sizes), n)
    assert k <= n and key.max() < k
    assert compress(key, k)[0].tolist() == _ranks(list(zip(*(c.tolist() for c in cols))))


def test_mixed_radix_compresses_before_int64_overflows():
    # 70 binary columns: 2^70 codes pass int64, so the key is compressed
    # on the way, and the order is still that of the rows' bits.
    rng = np.random.default_rng(3)
    n = 50
    cols = [rng.integers(0, 2, size=n) for _ in range(70)]
    cols[0][:] = 1  # the top bit alone would overflow any int64 key
    key, k = mixed_radix(((c, 2) for c in cols), n)
    assert key.dtype == np.int64 and k <= n
    assert key.tolist() == _ranks(list(zip(*(c.tolist() for c in cols))))


def test_kernel_exact_beyond_int64():
    # An independent 2x2 table with weights near 10^24, products of margins, and one
    # cell raised by 1: the squared total overflows int64, and the raise is
    # far below float resolution, so only exact integers see the dependence.
    u, v = (3 ** 25, 3 ** 25 + 2), (5 ** 17, 5 ** 17 + 4)
    rows = [(m, x, m ^ x) for m in (0, 1) for x in (0, 1)]
    for bump in (0, 1):
        weights = [u[m] * v[x] + (bump if (m, x) == (1, 1) else 0) for m, x, _ in rows]
        j = mf.DiscreteJoint(["M", "X", "Y"], rows, weights)
        assert j.total ** 2 > 2 ** 63 and j.weights.dtype == object
        for a, b, c in ((["M"], ["X"], []), (["M"], ["Y"], ["X"]), (["M"], ["M"], ["X"])):
            dep, bits = _brute_force(j, a, b, c)
            assert j.dependent(a, b, c) == dep
            assert j.cmi(a, b, c) == pytest.approx(bits, abs=1e-12)
        assert j.dependent(["M"], ["X"]) == bool(bump)
