"""Pad-mask systems: a constructive generalisation of the ce1/ce2 fixtures.

A pad-mask system has an input node ``A``, a receiver ``B``, ``k`` pad nodes
``PA, PB, ...`` and ``d`` decoy nodes ``DA, DB, ...`` over horizon 3:

* t=0: ``A0->A1`` carries the message M (uniform on 0..q-1); each pad node
  draws noise on 0..w-1 and sends it, reduced mod q, both to ``A1`` and to
  itself; each decoy node does the same but only to itself.
* t=1: ``A1->B2`` carries M + sum(pads) mod q; each pad and decoy node relays
  its value to ``B2``.
* t=2: ``B2->B3`` decodes M = masked - sum(pads) mod q.

Because w is a multiple of q, every reduced pad is uniform and independent of
everything else, which fixes every verdict and witness by construction:

* ``A0->A1`` and ``B2->B3`` depend on M marginally (witness ``()``);
* the masked edge ``A1->B2`` is independent of M given any set of t=1 edges
  that lacks one pad, so its unique minimal witness is the k pad edges;
* each pad edge ``P1->B2`` needs the masked edge and the other k-1 pads;
* no other edge ever flows, so each non-constant one searches all 2^(c-1)
  subsets of the c non-constant edges in its slice.

Decoding adds the pads in the mask and subtracts them in the decoder; adding
them in the decoder as well is wrong for q > 2.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass


@dataclass(frozen=True)
class Rung:
    """One pad-mask system: k pads, d decoys, noise width w, alphabet q."""

    k: int
    d: int
    q: int = 2
    w: int = 2

    def __post_init__(self):
        if self.k < 1 or self.d < 0 or self.q < 2 or self.w % self.q:
            raise ValueError(f"invalid pad-mask rung {self}")

    @property
    def name(self) -> str:
        return f"padmask-k{self.k}-d{self.d}-q{self.q}-w{self.w}"

    @property
    def realizations(self) -> int:
        return self.q * self.w ** (self.k + self.d)

    @property
    def rows(self) -> int:
        """Distinct outcomes: M and one reduced value per pad and decoy."""
        return self.q ** (1 + self.k + self.d)

    @property
    def widest_slice(self) -> int:
        """Non-constant edges at t=0, the widest slice."""
        return 1 + 2 * self.k + self.d

    def roles(self) -> tuple[str, ...]:
        letters = string.ascii_uppercase
        pads = tuple("P" + letters[i] for i in range(self.k))
        decoys = tuple("D" + letters[i] for i in range(self.d))
        return ("A", "B") + pads + decoys


def relabel(rung: Rung, seed) -> dict[str, str]:
    """A seeded renaming of the roles, so canonical edge order varies by seed.

    ``seed=None`` keeps the role names.
    """
    roles = rung.roles()
    if seed is None:
        return {r: r for r in roles}
    rng = random.Random(seed)
    names: set[str] = set()
    while len(names) < len(roles):
        names.add("".join(rng.choices(string.ascii_uppercase, k=3)))
    return dict(zip(roles, rng.sample(sorted(names), len(roles))))


def _edge(a: str, t: int, b: str) -> list:
    return ["edge", f"{a}{t}", f"{b}{t + 1}"]


def _chain(op: str, first: list, rest: list) -> list:
    out = first
    for x in rest:
        out = [op, out, x]
    return out


def spec_dict(rung: Rung, names: dict[str, str]) -> dict:
    """The system as a SystemSpec JSON document, with roles renamed by ``names``."""
    roles = rung.roles()
    a, b = names["A"], names["B"]
    pads = [names[r] for r in roles[2 : 2 + rung.k]]
    decoys = [names[r] for r in roles[2 + rung.k :]]
    q, w = rung.q, rung.w
    reduced_noise = ["mod", q, ["noise"]]
    law = {"kind": "discrete", "pmf": [{"value": v, "p": [1, w]} for v in range(w)]}

    adjacency = [[a, a], [a, b], [b, b]]
    functions: dict = {f"{a}0": {f"{a}1": ["msg"]}}
    for p in pads:
        adjacency += [[p, a], [p, p], [p, b]]
        functions[f"{p}0"] = {f"{a}1": reduced_noise, f"{p}1": reduced_noise}
        functions[f"{p}1"] = {f"{b}2": _edge(p, 0, p)}
    for x in decoys:
        adjacency += [[x, x], [x, b]]
        functions[f"{x}0"] = {f"{x}1": reduced_noise}
        functions[f"{x}1"] = {f"{b}2": _edge(x, 0, x)}
    functions[f"{a}1"] = {
        f"{b}2": ["mod", q, _chain("add", _edge(a, 0, a), [_edge(p, 0, a) for p in pads])]
    }
    functions[f"{b}2"] = {
        f"{b}3": ["mod", q, _chain("sub", _edge(a, 1, b), [_edge(p, 1, b) for p in pads])]
    }
    return {
        "nodes": [names[r] for r in roles],
        "horizon": 3,
        "adjacency": adjacency,
        "message": {
            "kind": "discrete",
            "components": ["M"],
            "pmf": [{"value": [m], "p": [1, q]} for m in range(q)],
        },
        "noise": {f"{n}0": law for n in pads + decoys},
        "functions": functions,
        "declared_inputs": [a],
    }


def expected(rung: Rung) -> dict:
    """Verdicts by construction, in role names.

    Returns ``{"flow": {edge: witness}, "paths": {target: [path]}}`` where an
    edge id is ``"A0->A1"`` and a witness is a sorted list of edge ids.  Edges
    absent from ``flow`` carry no flow.
    """
    pads = [f"{p}1->B2" for p in rung.roles()[2 : 2 + rung.k]]
    flow = {"A0->A1": [], "B2->B3": [], "A1->B2": sorted(pads)}
    for p in pads:
        flow[p] = sorted(["A1->B2"] + [x for x in pads if x != p])
    return {"flow": flow, "paths": {"B3": [["A0", "A1", "B2", "B3"]]}}
