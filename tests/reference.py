"""One-realization references for the column forward pass.

``reference_joint`` and ``reference_trials`` rebuild what ``enumerate_joint``
and ``sample_trials`` return, one realization at a time through
``SystemSpec.propagate``, accumulating exact probabilities as Fractions.
``assert_same_table`` compares two tables column by column, telling equal
values of different types apart.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

import msgflow as mf
from msgflow.exprs import EvalEnv, compile_expr


def _variables(spec) -> tuple:
    g = spec.graph
    return tuple(spec.message.components) + tuple(
        e for t in range(g.horizon) for e in g.edges_at(t)
    )


def reference_row(spec, msg: tuple, noise: dict) -> tuple:
    """One realization's outcome: the message components, then every edge in
    time order.  ``msg`` is the message's value tuple; a derived message
    computes its own from the noise."""
    if spec.message.kind == "derived":
        env = EvalEnv(edges={}, noise_values=dict(noise))
        msg = tuple(compile_expr(x)(env) for x in spec.message.exprs)
    edges = spec.propagate(dict(zip(spec.message.components, msg)), noise)
    return tuple(msg) + tuple(edges[e] for e in _variables(spec)[len(msg):])


def reference_joint(spec) -> mf.DiscreteJoint:
    """``enumerate_joint`` one realization at a time, in itertools.product order."""
    nodes = spec.noise_nodes()
    msg_pmf = spec.message.pmf if spec.message.kind == "discrete" else (((), Fraction(1)),)
    acc: dict = {}
    for m, p_msg in msg_pmf:
        for choice in itertools.product(*(spec.noise[v].pmf for v in nodes)):
            noise = {v: x for v, (x, _) in zip(nodes, choice)}
            row = reference_row(spec, m, noise)
            acc[row] = acc.get(row, 0) + p_msg * math.prod(p for _, p in choice)
    return mf.DiscreteJoint(_variables(spec), list(acc), list(acc.values()))


def reference_trials(spec, n: int, seed: int) -> mf.DiscreteJoint:
    """``sample_trials`` one trial at a time, from the same draws: message
    first (none for a derived message), then the noises by node."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def draw(pmf):
        probs = np.array([float(p) for _, p in pmf])
        return [pmf[i][0] for i in rng.choice(len(pmf), size=n, p=probs / probs.sum())]

    msgs = draw(spec.message.pmf) if spec.message.kind == "discrete" else [()] * n
    noise = {v: draw(spec.noise[v].pmf) for v in spec.noise_nodes()}
    rows = [
        reference_row(spec, msgs[i], {v: d[i] for v, d in noise.items()}) for i in range(n)
    ]
    return mf.DiscreteJoint(_variables(spec), rows)


def assert_same_table(got: mf.DiscreteJoint, want: mf.DiscreteJoint) -> None:
    assert got.variables == want.variables
    typed = lambda t: [[(repr(x), x) for x in vs] for vs in t.values]
    assert typed(got) == typed(want)
    assert np.array_equal(got.codes, want.codes)
    assert got.weights.dtype == want.weights.dtype
    assert got.weights.tolist() == want.weights.tolist()
    assert got.total == want.total
