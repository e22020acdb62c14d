"""References the tests compare against.

``reference_joint`` rebuilds what ``enumerate_joint`` returns, one
realization at a time through ``SystemSpec.propagate``, accumulating exact
probabilities as Fractions.  ``check_trials`` checks ``sample_trials``
against it: every sampled row is an outcome of the system, and the weights
count the trials.  ``per_trial`` expands merged trials to one row per trial.
``assert_same_table`` compares two tables column by column, telling equal
values of different types apart.  ``unpruned`` gives a joint whose flow
search tries every subset of the slice, the brute force that the search
pruned by shared sources must agree with; ``set_answers`` collects the
edge-set questions to compare on both.  ``reference_cascade`` is the
sampled cascade written as its own loop over the subsets of
``reference_component``: the edge's source component, grown one edge at a
time over pairs of edges that share a source, or the whole slice when the
trials carry no sources.  Each of its tests (``reference_test``) picks the
G-test or the permutation test by its own loop over strata.
``stopped_search_length`` counts the subsets a quantified search tries
before it stops, from Fraction probabilities summed over the rows.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter
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


def check_trials(trials: mf.DiscreteJoint, spec, n: int) -> None:
    """Sampled trials of ``spec``: distinct rows, each a row of
    ``reference_joint`` with its values' types, of positive weights summing
    to n."""
    typed = lambda rows: [tuple(map(repr, row)) for row in rows]
    support = set(typed(reference_joint(spec).rows))
    rows = typed(trials.rows)
    assert len(set(rows)) == len(rows) and set(rows) <= support
    assert trials.variables == _variables(spec)
    assert min(trials.weights.tolist()) > 0 and sum(trials.weights.tolist()) == trials.total == n


def per_trial(trials: mf.DiscreteJoint) -> mf.DiscreteJoint:
    """``trials`` unmerged: each row of weight w becomes w rows of weight 1."""
    rows = [row for row, w in zip(trials.rows, trials.weights.tolist()) for _ in range(w)]
    return mf.DiscreteJoint(trials.variables, rows)


def assert_same_table(got: mf.DiscreteJoint, want: mf.DiscreteJoint) -> None:
    assert got.variables == want.variables
    typed = lambda t: [[(repr(x), x) for x in vs] for vs in t.values]
    assert typed(got) == typed(want)
    assert np.array_equal(got.codes, want.codes)
    assert got.weights.dtype == want.weights.dtype
    assert got.weights.tolist() == want.weights.tolist()
    assert got.total == want.total


def unpruned(joint):
    """A copy of ``joint`` without sources: its flow search covers the whole slice."""
    out = copy.copy(joint)
    out.sources = None
    return out


def set_answers(joint, message) -> dict:
    """``set_flow`` on every pair of same-time edges and on each whole slice,
    and each slice's ``separability_partition``."""
    out = {}
    for t in joint.times():
        edges = tuple(sorted(joint.edges_at(t)))
        for sub in itertools.chain(itertools.combinations(edges, 2), [edges]):
            out[sub] = mf.set_flow(joint, sub, message)
        out[t] = mf.separability_partition(joint, t, message)
    return out


def reference_component(trials, edge) -> tuple:
    """The non-constant edges of ``edge``'s slice, other than ``edge``, that
    reach it through a chain of edges each sharing a source with the next;
    every non-constant edge of the slice when ``trials.sources`` is None."""
    cands = tuple(
        e
        for e in sorted(trials.edges_at(edge.time))
        if e != edge and not trials.is_constant(e)
    )
    if trials.sources is None:
        return cands
    seen, todo = {edge}, [edge]
    while todo:
        x = todo.pop()
        for y in cands:
            if y not in seen and trials.sources[x] & trials.sources[y]:
                seen.add(y)
                todo.append(y)
    return tuple(e for e in cands if e in seen)


def stopped_search_length(joint, m, edge) -> int:
    """How many subsets of ``reference_component`` a quantified search of
    ``edge`` tries, in (cardinality, canonical order): up to and including
    the first witness S with I(m; edge | S) = min(H(m), H(edge)), that is,
    with m independent of S and fixed by (edge, S), or the same with m and
    edge swapped; every subset if there is none."""
    col = {v: i for i, v in enumerate(joint.variables)}
    rows = list(zip(joint.rows, joint.probs))

    def law(*groups) -> Counter:
        out = Counter()
        for row, p in rows:
            out[tuple(tuple(row[col[v]] for v in g) for g in groups)] += p
        return out

    cands = reference_component(joint, edge)
    tried = 0
    for k in range(len(cands) + 1):
        for sub in itertools.combinations(cands, k):
            tried += 1
            xys, s_law = law([m], [edge], sub), law(sub)
            xs, ys = law([m], sub), law([edge], sub)
            dependent = any(
                xys[x, y, c] * s_law[c,] != xs[x, c] * ys[y, c2]
                for x, c in xs
                for y, c2 in ys
                if c == c2
            )

            def saturates(x_law, x_s, pick) -> bool:
                independent = all(
                    x_s[x[0], c[0]] == px * pc for x, px in x_law.items() for c, pc in s_law.items()
                )
                fixed = Counter(pick(x, y, c) for (x, y, c), p in xys.items() if p)
                return independent and max(fixed.values()) == 1

            if dependent and (
                saturates(law([m]), xs, lambda x, y, c: (y, c))
                or saturates(law([edge]), ys, lambda x, y, c: (x, c))
            ):
                return tried
    return tried


def reference_test(trials, m, edge, sub, n_perm, seed) -> tuple:
    """One cascade test as ``(p, replicates drawn)``, routed by its own loop
    over the strata of ``sub``: the G-test when every cell of a free stratum
    (two occupied values of ``m`` and of ``edge``) expects at least 5
    trials, w_ac·w_bc >= 5·w_c in integers, with G = 2·n·ln 2·``cmi`` and
    df = Σ (R_c − 1)(K_c − 1) over the free strata; ``permutation_ci_test``
    otherwise.  A constant column or a table of single-trial strata is p = 1
    with no test."""
    col = {v: i for i, v in enumerate(trials.variables)}
    strata = {}
    for row, w in zip(trials.rows, trials.weights.tolist()):
        if w:
            cell = strata.setdefault(tuple(row[col[x]] for x in sub), Counter())
            cell[row[col[m]], row[col[edge]]] += w
    if len({a for cell in strata.values() for a, _ in cell}) < 2 or len(
        {b for cell in strata.values() for _, b in cell}
    ) < 2:
        return 1.0, 0
    if all(sum(cell.values()) <= 1 for cell in strata.values()):
        return 1.0, 0
    dense, df = True, 0
    for cell in strata.values():
        rows, cols = Counter(), Counter()
        for (a, b), w in cell.items():
            rows[a] += w
            cols[b] += w
        if len(rows) > 1 and len(cols) > 1:
            df += (len(rows) - 1) * (len(cols) - 1)
            w_c = sum(rows.values())
            dense = dense and all(r * k >= 5 * w_c for r in rows.values() for k in cols.values())
    if dense:
        g = 2 * trials.total * math.log(2) * trials.cmi([m], [edge], list(sub))
        return mf.sampling.chi2_sf(g, df), 0
    return mf.permutation_ci_test(trials, [m], [edge], list(sub), n_perm=n_perm, seed=seed), n_perm


def reference_cascade(trials, edge, alpha, max_subset_size, n_perm, seed, message=None):
    """``detect_flow_sampled`` over every subset of ``reference_component``
    of at most ``max_subset_size`` edges, with one spawned stream per planned
    test, each test run by ``reference_test``; a constant edge runs its
    tests like any other."""
    m = trials.default_message(message)
    cands = reference_component(trials, edge)
    top = min(max_subset_size, len(cands))
    n_tests = sum(math.comb(len(cands), k) for k in range(top + 1))
    level = alpha / n_tests
    n_perm = max(n_perm, math.ceil(n_tests / alpha))
    streams = np.random.SeedSequence(seed).spawn(n_tests)
    p_values = []
    replicates = i = 0
    for k in range(top + 1):
        for sub in itertools.combinations(cands, k):
            stream_seed = int(streams[i].generate_state(1, np.uint32)[0])
            p, drawn = reference_test(trials, m, edge, sub, n_perm, stream_seed)
            i += 1
            replicates = max(replicates, drawn)
            p_values.append((sub, p))
            if p <= level:
                return mf.FlowEntry(
                    edge, True, sub, None, tuple(p_values), level, n_tests, replicates
                )
    return mf.FlowEntry(edge, False, None, None, tuple(p_values), level, n_tests, replicates)
