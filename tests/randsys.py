"""Seeded generator of small random systems for property tests.

Systems stay small on purpose: at most four base nodes and four time steps,
binary alphabets, at most two intrinsic noise sources, so exact enumeration
and exhaustive subset searches stay cheap across hundreds of draws.
``random_affine_system`` draws linear-Gaussian systems of the same size for
the covariance engine.  ``pad_mask`` builds the binary pad-mask systems of
many realizations and few outcomes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from msgflow import MessageSpec, NoiseSpec, SystemSpec, UnrolledGraph
from msgflow.exprs import const, edge_in, msg, noise

NAMES = ("A", "B", "C", "D")


def _random_expr(rng: random.Random, leaves: list):
    if not leaves:
        return const(rng.randint(0, 1)) if rng.random() < 0.15 else None
    r = rng.random()
    if r < 0.2:
        return None  # edge stays at the constant 0
    leaf = lambda: rng.choice(leaves)
    if r < 0.55:
        return leaf()
    if r < 0.68:
        return ("not", leaf())
    op = rng.choice(("xor", "xor", "xor", "and", "or"))
    return (op, leaf(), leaf())


def random_system(seed: int) -> SystemSpec:
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    names = NAMES[:n]
    horizon = rng.randint(1, 4)

    base = {(a, a) for a in names}
    extras = sorted((a, b) for a in names for b in names if a != b)
    rng.shuffle(extras)
    base.update(extras[: rng.randint(0, min(4, len(extras)))])
    graph = UnrolledGraph(names, horizon, base)

    eligible = [v for v in graph.nodes if v.time < horizon]
    n_noise = rng.randint(0, min(2, len(eligible)))
    noise_nodes = rng.sample(eligible, k=n_noise) if n_noise else []
    noise_map = {v: NoiseSpec.bernoulli() for v in noise_nodes}
    inputs = tuple(sorted(rng.sample(names, k=rng.randint(1, n))))

    functions = {}
    for t in range(horizon):
        for v in graph.nodes_at(t):
            leaves = []
            if t == 0:
                if v.name in inputs:
                    leaves.append(msg())
            else:
                leaves.extend(edge_in(e) for e in graph.incoming(v))
            if v in noise_map:
                leaves.append(noise())
            fns = {}
            for e in graph.outgoing(v):
                expr = _random_expr(rng, leaves)
                if expr is not None:
                    fns[e] = expr
            if fns:
                functions[v] = fns
    return SystemSpec(
        graph,
        MessageSpec.bernoulli("M"),
        noise=noise_map,
        functions=functions,
        declared_inputs=inputs,
    )


def random_noisy_system(seed: int) -> SystemSpec:
    """A small system with three to five independent binary noise sources.

    Noisy nodes mostly copy their own noise or xor it into what they read,
    so edges of one slice often share no source; about one system in three
    has a message of two components, which may be dependent.  The flow
    search prunes by shared sources, and these systems exercise it where
    ``random_system``, with at most two sources, seldom does.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    names = NAMES[:n]
    horizon = rng.randint(2, 3)

    base = {(a, a) for a in names}
    extras = sorted((a, b) for a in names for b in names if a != b)
    rng.shuffle(extras)
    base.update(extras[: rng.randint(0, 3)])
    graph = UnrolledGraph(names, horizon, base)

    eligible = [v for v in graph.nodes if v.time < horizon]
    noise_nodes = rng.sample(eligible, k=rng.randint(3, min(5, len(eligible))))
    laws = (NoiseSpec.bernoulli(), NoiseSpec.bernoulli(Fraction(1, 3)))
    noise_map = {v: rng.choice(laws) for v in noise_nodes}
    inputs = tuple(sorted(rng.sample(names, k=rng.randint(1, n))))
    if rng.random() < 1 / 3:
        weights = [rng.randint(0, 3) for _ in range(4)]
        weights[rng.randrange(4)] += 1
        pmf = [
            ((a, b), Fraction(w, sum(weights)))
            for (a, b), w in zip(((0, 0), (0, 1), (1, 0), (1, 1)), weights)
        ]
        message = MessageSpec.discrete(("M1", "M2"), pmf)
        msg_leaves = [msg("M1"), msg("M2")]
    else:
        message = MessageSpec.bernoulli("M")
        msg_leaves = [msg()]

    functions = {}
    for t in range(horizon):
        for v in graph.nodes_at(t):
            if t == 0:
                leaves = msg_leaves if v.name in inputs else []
            else:
                leaves = [edge_in(e) for e in graph.incoming(v)]
            fns = {}
            for e in graph.outgoing(v):
                if v in noise_map and rng.random() < 0.6:
                    expr = noise() if not leaves or rng.random() < 0.4 else (
                        "xor", rng.choice(leaves), noise()
                    )
                else:
                    expr = _random_expr(rng, leaves + [noise()] * (v in noise_map))
                if expr is not None:
                    fns[e] = expr
            if fns:
                functions[v] = fns
    return SystemSpec(
        graph, message, noise=noise_map, functions=functions, declared_inputs=inputs
    )


_AFFINE_CONSTANTS = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _random_affine_expr(rng: random.Random, leaves: list, depth: int = 2):
    """An add/sub/negate/mul-by-constant tree over ``leaves`` and constants."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        if not leaves or rng.random() < 0.15:
            return const(rng.choice(_AFFINE_CONSTANTS))
        return rng.choice(leaves)
    sub = lambda: _random_affine_expr(rng, leaves, depth - 1)
    if r < 0.45:
        return ("negate", sub())
    if r < 0.7:
        return ("mul", const(rng.choice(_AFFINE_CONSTANTS)), sub())
    return (rng.choice(("add", "sub")), sub(), sub())


def random_affine_system(seed: int) -> SystemSpec:
    """A small linear-Gaussian system: at most three base nodes, horizon at
    most three, at most four noise sources of variance 1, 1/4 or 4, and node
    functions built from add, sub, negate, multiplication by a rational
    constant and rational constants, over the message, the node's noise and
    its incoming edges.  The message has variance 1."""
    rng = random.Random(seed)
    names = NAMES[: rng.randint(1, 3)]
    horizon = rng.randint(1, 3)
    base = {(a, a) for a in names}
    base.update((a, b) for a in names for b in names if a != b and rng.random() < 0.5)
    graph = UnrolledGraph(names, horizon, base)

    eligible = [v for v in graph.nodes if v.time < horizon]
    noise_nodes = rng.sample(eligible, k=rng.randint(0, min(4, len(eligible))))
    variances = (1, Fraction(1, 4), 4)
    noise_map = {v: NoiseSpec.gaussian(rng.choice(variances)) for v in noise_nodes}
    inputs = tuple(sorted(rng.sample(names, k=rng.randint(1, len(names)))))

    functions = {}
    for t in range(horizon):
        for v in graph.nodes_at(t):
            leaves = [msg()] if t == 0 and v.name in inputs else []
            leaves.extend(edge_in(e) for e in graph.incoming(v))
            if v in noise_map:
                leaves.append(noise())
            fns = {e: _random_affine_expr(rng, leaves) for e in graph.outgoing(v)}
            functions[v] = {e: x for e, x in fns.items() if rng.random() < 0.85}
    return SystemSpec(
        graph,
        MessageSpec.gaussian("M"),
        noise=noise_map,
        functions=functions,
        declared_inputs=inputs,
    )


def pad_mask(k: int, d: int, w: int) -> SystemSpec:
    """A binary pad-mask system: A sends M + k pads mod 2 to B, which
    subtracts them; each pad and each of d decoys draws noise on 0..w-1."""
    return SystemSpec.from_json_dict(pad_mask_doc(k, d, w))


def pad_mask_doc(k: int, d: int, w: int) -> dict:
    """``pad_mask``'s system document, in the form ``bench/padmask.py``
    writes: every probability an integer pair, [1, 2] or [1, w]."""
    pads = ["P" + "ABCDEFGH"[i] for i in range(k)]
    decoys = ["D" + "ABCDEFGH"[i] for i in range(d)]
    reduced = ["mod", 2, ["noise"]]
    law = {"kind": "discrete", "pmf": [{"value": v, "p": [1, w]} for v in range(w)]}
    adjacency = [["A", "A"], ["A", "B"], ["B", "B"]]
    functions = {"A0": {"A1": ["msg"]}}
    masked, decoded = ["edge", "A0", "A1"], ["edge", "A1", "B2"]
    for p in pads:
        adjacency += [[p, "A"], [p, p], [p, "B"]]
        functions[f"{p}0"] = {"A1": reduced, f"{p}1": reduced}
        functions[f"{p}1"] = {"B2": ["edge", f"{p}0", f"{p}1"]}
        masked = ["add", masked, ["edge", f"{p}0", "A1"]]
        decoded = ["sub", decoded, ["edge", f"{p}1", "B2"]]
    for x in decoys:
        adjacency += [[x, x], [x, "B"]]
        functions[f"{x}0"] = {f"{x}1": reduced}
        functions[f"{x}1"] = {"B2": ["edge", f"{x}0", f"{x}1"]}
    functions["A1"] = {"B2": ["mod", 2, masked]}
    functions["B2"] = {"B3": ["mod", 2, decoded]}
    return {
        "nodes": ["A", "B", *pads, *decoys],
        "horizon": 3,
        "adjacency": adjacency,
        "message": {"kind": "discrete", "components": ["M"],
                    "pmf": [{"value": [m], "p": [1, 2]} for m in range(2)]},
        "noise": {f"{x}0": law for x in pads + decoys},
        "functions": functions,
        "declared_inputs": ["A"],
    }
