import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import msgflow as mf
from msgflow import discrete
from msgflow import BudgetExceededError, MessageSpec, NoiseSpec, SystemSpec, ValidationError
from msgflow.exprs import msg
from msgflow.graph import NodeRef, UnrolledGraph, edge

from randsys import random_system
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
@given(st.integers(0, 10**6), st.booleans(), st.sampled_from([3, 7, None]))
def test_enumeration_matches_per_realization_reference(seed, biased, chunk):
    # Small chunks put chunk boundaries inside every system.
    spec = random_system(seed)
    if biased:
        spec = _biased(spec)
    with mock.patch.object(discrete, "CHUNK", chunk or discrete.CHUNK):
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


def test_enumeration_across_chunks():
    # 2 * 2 * 3 * 5 * 7 * 11 = 4620 realizations: the second chunk is
    # partial, and holds rows first seen in the first chunk (realizations
    # 4081-4157 share M, B0's and C0's values) and rows first seen in itself
    # (C0 = 4 from 4158 on).  Every law has an odd denominator.
    names = ("A", "B", "C", "D", "E")
    g = UnrolledGraph(names, 2)
    laws = {"B": 3, "C": 5, "D": 7, "E": 11}
    noise = {
        NodeRef(x, 0): NoiseSpec.discrete([(i, Fraction(2 * i + 1, k * k)) for i in range(k)])
        for x, k in laws.items()
    }
    noise[NodeRef("A", 1)] = NoiseSpec.bernoulli(Fraction(2, 3))
    functions = {NodeRef(x, 0): {edge(x, 0, "A"): ("mod", 2, ("noise", None))} for x in laws}
    for x in "BC":
        functions[NodeRef(x, 0)][edge(x, 0, x)] = ("noise", None)
    functions[NodeRef("A", 0)] = {edge("A", 0, "A"): msg()}
    total = ("edge", edge("A", 0, "A"))
    for x in laws:
        total = ("add", total, ("edge", edge(x, 0, "A")))
    functions[NodeRef("A", 1)] = {edge("A", 1, "A"): ("mod", 3, ("add", total, ("noise", None)))}
    functions[NodeRef("B", 1)] = {edge("B", 1, "B"): ("mod", 2, ("edge", edge("B", 0, "B")))}
    functions[NodeRef("C", 1)] = {edge("C", 1, "A"): ("edge", edge("C", 0, "C"))}
    spec = SystemSpec(
        g, MessageSpec.bernoulli("M", Fraction(1, 3)), noise=noise,
        functions=functions, declared_inputs=("A",),
    )
    n = spec.realization_count()
    assert n > discrete.CHUNK and n % discrete.CHUNK
    assert_same_table(mf.enumerate_joint(spec), reference_joint(spec))


def test_weighted_csv_round_trip(tmp_path):
    j = mf.DiscreteJoint(["M"], [(0,), (1,)], [Fraction(1, 3), Fraction(2, 3)])
    path = tmp_path / "joint.csv"
    j.to_csv(path)
    assert path.read_text().splitlines() == ["M,#weight", "0,1", "1,2"]
    again = mf.DiscreteJoint.from_csv(path)
    assert again.probs == j.probs
    assert again.entropy(["M"]) == pytest.approx(0.918, abs=5e-4)
    for bad in ("0", "-1", "1.5", "x", ""):
        path.write_text(f"M,#weight\n0,1\n1,{bad}\n")
        with pytest.raises(ValidationError):
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
    """Random queries, conditioning on up to three edges, against _brute_force."""
    pool = list(j.edge_vars)
    for _ in range(n_queries):
        b = rng.sample(pool, k=min(len(pool), rng.randint(1, 2)))
        rest = [v for v in pool if v not in b]
        c = rng.sample(rest, k=min(len(rest), rng.randint(0, 3)))
        for a in (list(j.message_vars), b):
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
