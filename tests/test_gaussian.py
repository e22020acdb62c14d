import itertools
import math
import random
from fractions import Fraction

import pytest

import msgflow as mf
from msgflow import MessageSpec, NoiseSpec, NonAffineError, SystemSpec, ValidationError
from msgflow.cli import main
from msgflow.errors import ExpressionTypeError
from msgflow.exprs import const, edge_in, msg, noise
from msgflow.graph import NodeRef, UnrolledGraph, edge
from msgflow.system import save_system
from msgflow.values import Affine, make_complex, vadd, vmul, vneg, vsub
from randsys import random_affine_system
from reference import reference_cond_var


def test_sk_second_estimate_variance(sk_joint):
    assert sk_joint.variance(edge("B", 3, "A")) == Fraction(3, 2)


def test_identity_relay_covariance(sk_joint):
    assert sk_joint.covariance("M", edge("A", 0, "B")) == 1


def test_estimate_orthogonal_to_noise_difference(sk_joint):
    # Cov(second estimate, (Z1 - Z2)/2) = Cov(Mhat2, Mhat1 - Mhat2) = 0
    m1, m2 = edge("B", 1, "A"), edge("B", 3, "A")
    assert sk_joint.covariance(m2, m1) == sk_joint.variance(m2)


def test_information_about_message(sk_joint):
    m1, m2, m3 = edge("B", 1, "A"), edge("B", 3, "A"), edge("B", 5, "A")
    assert sk_joint.cmi(["M"], [m1, m2]) == pytest.approx(0.5 * math.log2(3), abs=1e-12)
    assert sk_joint.cmi(["M"], [m3]) == pytest.approx(1.0, abs=1e-12)
    assert sk_joint.cmi(["M"], []) == 0.0


def test_infinite_information_on_noiseless_copy(sk_joint):
    assert sk_joint.cmi(["M"], [edge("A", 0, "B")]) == math.inf
    # conditioned on a perfect copy, nothing more can be learned
    assert sk_joint.cmi(["M"], [edge("B", 1, "A")], [edge("A", 0, "A")]) == 0.0


def test_sk_sigma_parameter():
    fx = mf.build("sk", sigma2=Fraction(1, 2), iterations=2)
    g = mf.linear_propagate(fx.spec)
    m2 = edge("B", 3, "A")
    assert g.variance(m2) == 1 + Fraction(1, 2) / 4 * 2
    assert g.cmi(["M"], [m2]) == pytest.approx(0.5 * math.log2(1 + 4), abs=1e-12)


def test_scalar_restriction(sk_joint):
    with pytest.raises(ValidationError):
        sk_joint.cmi(["M", edge("A", 0, "B")], [edge("B", 1, "A")])


@pytest.mark.parametrize("query", ["dependent", "cmi"])
def test_overlapping_sets_are_refused(sk_joint, query):
    # As on a discrete table: a conditioning set that meets B, or an A that
    # meets B without equalling it, is refused rather than answered.
    e, f = edge("A", 0, "B"), edge("B", 1, "A")
    ask = getattr(sk_joint, query)
    with pytest.raises(ValidationError):
        ask(["M"], [e], [e])
    with pytest.raises(ValidationError):
        ask(["M"], [f], ["M"])
    with pytest.raises(ValidationError):
        ask([e], [e, f])


def test_information_of_the_message_about_itself(sk_joint):
    # A == B is allowed: Var(M | M) = 0, so the bits are infinite.
    assert sk_joint.dependent(["M"], ["M"])
    assert sk_joint.cmi(["M"], ["M"]) == math.inf


def _one_edge(expr, noisy=True):
    """A0->A1 computes ``expr`` from the message and, if ``noisy``, A0's noise."""
    return SystemSpec(
        UnrolledGraph(("A",), 1),
        MessageSpec.gaussian("M", 1),
        noise={NodeRef("A", 0): NoiseSpec.gaussian(4)} if noisy else {},
        functions={NodeRef("A", 0): {edge("A", 0, "A"): expr}},
        declared_inputs=("A",),
    )


@pytest.mark.parametrize("expr", [
    ("xor", msg(), noise()),
    ("not", msg()),
    ("mod", 2, msg()),
    ("concat", msg(), noise()),
    ("add", msg(), const(make_complex(0, 1))),
    const(make_complex(0, 1)),
    ("mul", msg(), noise()),
    ("mul", ("add", msg(), const(1)), ("sub", noise(), msg())),
], ids=["xor", "not", "mod", "concat", "complex-sum", "complex-const", "product", "product-of-sums"])
def test_non_affine_rejected(expr, tmp_path):
    spec = _one_edge(expr)
    with pytest.raises(NonAffineError, match="^edge A0->A1: "):
        mf.linear_propagate(spec)
    path = tmp_path / "spec.json"
    save_system(spec, path)
    assert main(["analyze", "--spec", str(path)]) == 3


@pytest.mark.parametrize("expr, var, cov_m", [
    (("xor", const(1), const(1)), 0, 0),
    (("select", 0, ("concat", msg(), noise())), 1, 1),
    (("select", 1, ("concat", msg(), noise())), 4, 0),
    (("mul", ("sub", msg(), msg()), noise()), 0, 0),
    (("mul", ("mod", 3, const(5)), ("add", msg(), noise())), 20, 2),
], ids=["xor-of-constants", "select-msg", "select-noise", "cancelled-product", "mod-of-constant"])
def test_values_that_are_affine_are_accepted(expr, var, cov_m):
    # The node functions run on affine values, so an expression is accepted
    # whenever its value is affine, whatever operators build it.
    g = mf.linear_propagate(_one_edge(expr))
    assert g.variance(edge("A", 0, "A")) == var
    assert g.covariance("M", edge("A", 0, "A")) == cov_m


def test_noise_leaf_of_a_noiseless_node_reads_zero():
    g = mf.linear_propagate(_one_edge(("add", msg(), noise()), noisy=False))
    assert g.variance(edge("A", 0, "A")) == 1
    assert g.covariance("M", edge("A", 0, "A")) == 1


def test_affine_arithmetic():
    m, z = Affine("M"), Affine("Z")
    form = vsub(vmul(Fraction(1, 2), vadd(m, 3)), vneg(z))
    assert (form.const, form.coeffs) == (Fraction(3, 2), {"M": Fraction(1, 2), "Z": 1})
    zero = vsub(m, m)
    assert (zero.const, zero.coeffs) == (0, {})
    assert vmul(zero, z).coeffs == {}
    assert vmul(vadd(zero, 2), z).coeffs == {"Z": 2}
    with pytest.raises(NonAffineError):
        vmul(m, vadd(z, 1))
    with pytest.raises(ExpressionTypeError):
        vadd(m, make_complex(1, 1))


def _twin_covariance(spec):
    """The covariance matrix of the gaussian ``spec``'s variables, computed by
    exact enumeration of its node functions on a uniform +-s message and
    +-s noises, s the square root of each variance (all variances here are
    squares of rationals)."""
    def pm(var):
        root = Fraction(math.isqrt(var.numerator), math.isqrt(var.denominator))
        assert root * root == var
        return [(-root, Fraction(1, 2)), (root, Fraction(1, 2))]

    twin = SystemSpec(
        spec.graph,
        MessageSpec.discrete(("M",), [((x,), p) for x, p in pm(spec.message.variance)]),
        noise={v: NoiseSpec.discrete(pm(ns.variance)) for v, ns in spec.noise.items()},
        functions=spec.functions,
        declared_inputs=tuple(spec.declared_inputs),
    )
    joint = mf.enumerate_joint(twin)
    rows, probs = joint.rows, joint.probs
    mean = [sum(p * row[i] for row, p in zip(rows, probs)) for i in range(len(joint.variables))]
    return joint.variables, [
        [sum(p * (row[i] - mi) * (row[j] - mj) for row, p in zip(rows, probs))
         for j, mj in enumerate(mean)]
        for i, mi in enumerate(mean)
    ]


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)], ids=["0-99", "100-199"])
def test_covariance_matches_enumeration_of_the_same_functions(seeds):
    # Second moments of affine functions depend only on the sources'
    # variances, so a two-point law of the same variance gives the same
    # covariance; the enumeration runs the node functions on plain rationals.
    for seed in seeds:
        spec = random_affine_system(seed)
        g = mf.linear_propagate(spec)
        variables, cov = _twin_covariance(spec)
        assert variables == g.variables, seed
        assert [list(row) for row in g.cov] == cov, seed


def test_covariance_symmetric_psd_diagonal(sk_joint):
    n = len(sk_joint.variables)
    for i in range(n):
        assert sk_joint.cov[i][i] >= 0
        for j in range(n):
            assert sk_joint.cov[i][j] == sk_joint.cov[j][i]


def test_conditional_variance_monotone(sk_joint):
    m1, m2 = edge("B", 1, "A"), edge("B", 3, "A")
    v0 = sk_joint.cond_var("M")
    v1 = sk_joint.cond_var("M", [m1])
    v2 = sk_joint.cond_var("M", [m1, m2])
    assert v0 >= v1 >= v2
    assert v0 == 1
    assert v1 == Fraction(1, 2)
    assert v2 == Fraction(1, 3)


def test_singular_conditioning_exact():
    # Conditioning on a duplicated coordinate must not break the exact solve.
    fx = mf.build("sk", iterations=1)
    g = mf.linear_propagate(fx.spec)
    y1a, y1b = edge("A", 0, "B"), edge("A", 0, "A")  # both carry the message
    assert g.cond_var("M", [y1a, y1b]) == 0
    assert g.cmi(["M"], [edge("B", 1, "B")], [y1a, y1b]) == 0.0


def _random_gram(seed):
    """Affine rows over 1-4 base variables of random positive variances: 2-7
    rows, some zero, some copies and some combinations of earlier ones."""
    rng = random.Random(seed)
    bases = [f"U{k}" for k in range(rng.randint(1, 4))]
    variances = {b: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for b in bases}
    rows = []
    for _ in range(rng.randint(2, 7)):
        kind = rng.choice(["fresh", "fresh", "zero", "copy", "combine"] if rows else ["fresh"])
        if kind == "fresh":
            row = {b: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for b in bases}
        elif kind == "zero":
            row = {}
        elif kind == "copy":
            row = dict(rng.choice(rows))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            fa, fb = rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 3)
            row = {k: fa * a.get(k, 0) + fb * b.get(k, 0) for k in bases}
        rows.append(row)
    return rows, variances


def test_cond_var_matches_gram_schmidt_reference():
    # Every conditional variance of a random Gram covariance, with zero,
    # duplicated and combined rows and with v among the given, equals the
    # residual of v's affine row after Gram–Schmidt over the given rows.
    for seed in range(60):
        rows, variances = _random_gram(seed)
        n = len(rows)
        dot = lambda a, b: sum(c * b.get(k, 0) * variances[k] for k, c in a.items())
        names = [f"X{i}" for i in range(n)]
        g = mf.GaussianJoint(names, [[dot(a, b) for b in rows] for a in rows])
        for v in range(n):
            for size in range(4):
                for given in itertools.combinations(range(n), size):
                    want = reference_cond_var(rows, variances, v, given)
                    assert g.cond_var(names[v], [names[x] for x in given]) == want, (seed, v, given)


@pytest.mark.parametrize("cov, v, given", [
    ([[0, 1], [1, 0]], "B", ["A"]),
    ([[1, 2], [2, 1]], "B", ["A"]),
    ([[-1, 0], [0, 1]], "A", []),
], ids=["zero-pivot-nonzero-row", "negative-schur-complement", "negative-variance"])
def test_covariance_that_is_not_psd_is_refused(cov, v, given):
    g = mf.GaussianJoint(["A", "B"], cov)
    with pytest.raises(ValidationError):
        g.cond_var(v, given)


def test_ordering_agrees_with_matched_discretization():
    # Affine chain: first hop is a perfect copy, second adds noise.  The
    # gaussian volumes and a small integer-alphabet analogue must order the
    # two hops the same way.
    g = UnrolledGraph(("A", "B"), 2, adjacency=[("A", "B"), ("B", "B")])
    gauss = SystemSpec(
        g,
        MessageSpec.gaussian("M", 1),
        noise={NodeRef("B", 1): NoiseSpec.gaussian(1)},
        functions={
            NodeRef("A", 0): {edge("A", 0, "B"): msg()},
            NodeRef("B", 1): {edge("B", 1, "B"): ("add", edge_in(edge("A", 0, "B")), noise())},
        },
        declared_inputs=("A",),
    )
    gj = mf.linear_propagate(gauss)
    disc = SystemSpec(
        g,
        MessageSpec.discrete(("M",), [((v,), Fraction(1, 3)) for v in (0, 1, 2)]),
        noise={NodeRef("B", 1): NoiseSpec.bernoulli()},
        functions=gauss.functions,
        declared_inputs=("A",),
    )
    dj = mf.enumerate_joint(disc)
    first, second = edge("A", 0, "B"), edge("B", 1, "B")
    f_gauss = (mf.quantified_flow(gj, first), mf.quantified_flow(gj, second))
    f_disc = (mf.quantified_flow(dj, first), mf.quantified_flow(dj, second))
    assert f_gauss[0] > f_gauss[1] > 0
    assert f_disc[0] > f_disc[1] > 0
