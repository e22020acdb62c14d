"""Builders for the worked example systems, with pinned expected results.

Each fixture packages a system together with the edge sets the detector must
flag and, where meaningful, the exact flow paths to chosen targets.  Each
catalogue entry says in one word where its expected results come from:
*given* when the behavior is part of the example's external statement of
record, *derived* when it was computed independently (by hand enumeration or
a closed form) before being frozen here, *none* when it pins no result.

Fixture catalogue:

* ``ce1`` (given) — relay masks the secret with a one-time pad; a joint look
  at the pad and the masked value reveals it (pure synergy).
* ``ce2`` (derived) — same idea with two pads, so single-edge conditioning
  stays blind.
* ``ce3`` (given) — pad masking plus a duplicated masked copy, so
  conditioning on *all* other edges stays blind too.
* ``mult-msg`` (given) — two dependent messages sharing a component; both
  flows appear on both wires.
* ``butterfly`` (given) — two-message crossover relay: after the mixing node
  combines the messages, every downstream wire carries flow about both.
* ``fft-even`` / ``fft-phase`` (given) — a 4-point spectral transform with
  the message encoded in the even part, or in the phase, of the input signal.
* ``sk`` (derived) — iterative feedback coding: a sender repeatedly transmits
  the receiver's estimation error over a noisy forward link with noiseless
  feedback.
* ``output-msg`` (given) — a gated boolean circuit whose message is defined
  at the output; the active branch depends on an external parameter.
* ``hidden-ignored`` (derived) / ``hidden-local`` (none) / ``hidden-masked``
  (none) — small systems for the unobserved-node alarms: a relevant hidden
  wire that the receiver ignores; a hidden wire caught only by the per-node
  check; and a hidden wire masked by a redundant observed copy that no
  observational check can catch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ValidationError
from .exprs import Expr, const, edge_in, msg, noise
from .graph import EdgeRef, NodeRef, UnrolledGraph, edge
from .system import MessageSpec, NoiseSpec, SystemSpec
from .values import make_complex


@dataclass(frozen=True)
class Fixture:
    name: str
    spec: SystemSpec
    messages: tuple[str, ...]
    expected_flow: dict[str, frozenset[EdgeRef]] = field(default_factory=dict)
    expected_paths: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = field(
        default_factory=dict
    )


def _edges(*triples) -> frozenset[EdgeRef]:
    return frozenset(edge(a, t, b) for a, t, b in triples)


def _xor(a: Expr, b: Expr) -> Expr:
    return ("xor", a, b)


def _build_ce1() -> Fixture:
    g = UnrolledGraph(("A", "B", "C"), 3)
    spec = SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        noise={NodeRef("C", 0): NoiseSpec.bernoulli()},
        functions={
            NodeRef("A", 0): {edge("A", 0, "A"): msg()},
            NodeRef("C", 0): {edge("C", 0, "A"): noise(), edge("C", 0, "C"): noise()},
            NodeRef("A", 1): {
                edge("A", 1, "B"): _xor(edge_in(edge("A", 0, "A")), edge_in(edge("C", 0, "A")))
            },
            NodeRef("C", 1): {edge("C", 1, "B"): edge_in(edge("C", 0, "C"))},
            NodeRef("B", 2): {
                edge("B", 2, "B"): _xor(edge_in(edge("A", 1, "B")), edge_in(edge("C", 1, "B")))
            },
        },
        declared_inputs=("A",),
    )
    return Fixture(
        "ce1",
        spec,
        ("M",),
        expected_flow={
            "M": _edges(("A", 0, "A"), ("A", 1, "B"), ("C", 1, "B"), ("B", 2, "B"))
        },
    )


def _build_ce2() -> Fixture:
    g = UnrolledGraph(("A", "B", "C", "D"), 3)
    in_a1 = _xor(
        _xor(edge_in(edge("A", 0, "A")), edge_in(edge("C", 0, "A"))),
        edge_in(edge("D", 0, "A")),
    )
    out_b2 = _xor(
        _xor(edge_in(edge("A", 1, "B")), edge_in(edge("C", 1, "B"))),
        edge_in(edge("D", 1, "B")),
    )
    spec = SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        noise={
            NodeRef("C", 0): NoiseSpec.bernoulli(),
            NodeRef("D", 0): NoiseSpec.bernoulli(),
        },
        functions={
            NodeRef("A", 0): {edge("A", 0, "A"): msg()},
            NodeRef("C", 0): {edge("C", 0, "A"): noise(), edge("C", 0, "C"): noise()},
            NodeRef("D", 0): {edge("D", 0, "A"): noise(), edge("D", 0, "D"): noise()},
            NodeRef("A", 1): {edge("A", 1, "B"): in_a1},
            NodeRef("C", 1): {edge("C", 1, "B"): edge_in(edge("C", 0, "C"))},
            NodeRef("D", 1): {edge("D", 1, "B"): edge_in(edge("D", 0, "D"))},
            NodeRef("B", 2): {edge("B", 2, "B"): out_b2},
        },
        declared_inputs=("A",),
    )
    return Fixture(
        "ce2",
        spec,
        ("M",),
        expected_flow={
            "M": _edges(
                ("A", 0, "A"),
                ("A", 1, "B"),
                ("C", 1, "B"),
                ("D", 1, "B"),
                ("B", 2, "B"),
            )
        },
    )


def _build_ce3() -> Fixture:
    g = UnrolledGraph(("A", "B", "C", "D"), 3)
    spec = SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        noise={NodeRef("C", 0): NoiseSpec.bernoulli()},
        functions={
            NodeRef("A", 0): {edge("A", 0, "A"): msg(), edge("A", 0, "D"): msg()},
            NodeRef("C", 0): {
                edge("C", 0, "A"): noise(),
                edge("C", 0, "D"): noise(),
                edge("C", 0, "C"): noise(),
            },
            NodeRef("A", 1): {
                edge("A", 1, "B"): _xor(edge_in(edge("A", 0, "A")), edge_in(edge("C", 0, "A")))
            },
            NodeRef("D", 1): {
                edge("D", 1, "B"): _xor(edge_in(edge("A", 0, "D")), edge_in(edge("C", 0, "D")))
            },
            NodeRef("C", 1): {
                edge("C", 1, "B"): edge_in(edge("C", 0, "C")),
                edge("C", 1, "C"): edge_in(edge("C", 0, "C")),
            },
            NodeRef("B", 2): {
                edge("B", 2, "B"): _xor(edge_in(edge("A", 1, "B")), edge_in(edge("C", 1, "B")))
            },
        },
        declared_inputs=("A",),
    )
    return Fixture(
        "ce3",
        spec,
        ("M",),
        expected_flow={
            "M": _edges(
                ("A", 0, "A"),
                ("A", 0, "D"),
                ("A", 1, "B"),
                ("D", 1, "B"),
                ("C", 1, "B"),
                ("C", 1, "C"),
                ("B", 2, "B"),
            )
        },
    )


def _build_mult_msg() -> Fixture:
    g = UnrolledGraph(("A", "B"), 1)
    pmf = []
    for m, mp, shared in itertools.product((0, 1), repeat=3):
        pmf.append(((2 * m + shared, 2 * mp + shared), Fraction(1, 8)))
    spec = SystemSpec(
        g,
        MessageSpec.discrete(("M1", "M2"), pmf),
        functions={
            NodeRef("A", 0): {edge("A", 0, "A"): msg("M1")},
            NodeRef("B", 0): {edge("B", 0, "B"): msg("M2")},
        },
        declared_inputs=("A", "B"),
    )
    both = _edges(("A", 0, "A"), ("B", 0, "B"))
    return Fixture(
        "mult-msg",
        spec,
        ("M1", "M2"),
        expected_flow={"M1": both, "M2": both},
    )


def _build_butterfly() -> Fixture:
    g = UnrolledGraph(("A", "B", "C"), 4)
    pmf = [((a, b), Fraction(1, 4)) for a, b in itertools.product((0, 1), repeat=2)]
    relay = edge_in
    spec = SystemSpec(
        g,
        MessageSpec.discrete(("M1", "M2"), pmf),
        functions={
            NodeRef("C", 0): {edge("C", 0, "A"): msg("M1"), edge("C", 0, "B"): msg("M2")},
            NodeRef("A", 1): {
                edge("A", 1, "A"): relay(edge("C", 0, "A")),
                edge("A", 1, "C"): relay(edge("C", 0, "A")),
            },
            NodeRef("B", 1): {
                edge("B", 1, "B"): relay(edge("C", 0, "B")),
                edge("B", 1, "C"): relay(edge("C", 0, "B")),
            },
            NodeRef("A", 2): {edge("A", 2, "A"): relay(edge("A", 1, "A"))},
            NodeRef("B", 2): {edge("B", 2, "B"): relay(edge("B", 1, "B"))},
            NodeRef("C", 2): {
                edge("C", 2, "C"): _xor(edge_in(edge("A", 1, "C")), edge_in(edge("B", 1, "C")))
            },
            NodeRef("A", 3): {edge("A", 3, "A"): relay(edge("A", 2, "A"))},
            NodeRef("B", 3): {edge("B", 3, "B"): relay(edge("B", 2, "B"))},
            NodeRef("C", 3): {
                edge("C", 3, "A"): relay(edge("C", 2, "C")),
                edge("C", 3, "B"): relay(edge("C", 2, "C")),
            },
        },
        declared_inputs=("C",),
    )
    shared_late = [
        ("A", 2, "A"),
        ("B", 2, "B"),
        ("C", 2, "C"),
        ("A", 3, "A"),
        ("B", 3, "B"),
        ("C", 3, "A"),
        ("C", 3, "B"),
    ]
    return Fixture(
        "butterfly",
        spec,
        ("M1", "M2"),
        expected_flow={
            "M1": _edges(("C", 0, "A"), ("A", 1, "A"), ("A", 1, "C"), *shared_late),
            "M2": _edges(("C", 0, "B"), ("B", 1, "B"), ("B", 1, "C"), *shared_late),
        },
        expected_paths={
            ("M1", "A4"): (
                ("C0", "A1", "A2", "A3", "A4"),
                ("C0", "A1", "C2", "C3", "A4"),
            ),
            ("M2", "A4"): (("C0", "B1", "C2", "C3", "A4"),),
            ("M1", "B4"): (("C0", "A1", "C2", "C3", "B4"),),
        },
    )


def _fft_wiring() -> dict:
    """Two butterfly stages of a 4-point transform; inputs enter bit-reversed.

    Lane A holds input 0, lane B input 2, lane C input 1, lane D input 3.
    Stage one forms sum/difference pairs; stage two applies the twiddle
    factors (the principal fourth root used here is -j).
    """
    omega = make_complex(0, -1)
    omega3 = make_complex(0, 1)
    return {
        NodeRef("A", 1): {
            edge("A", 1, "A"): ("add", edge_in(edge("A", 0, "A")), edge_in(edge("B", 0, "A"))),
            edge("A", 1, "C"): ("add", edge_in(edge("A", 0, "A")), edge_in(edge("B", 0, "A"))),
        },
        NodeRef("B", 1): {
            edge("B", 1, "B"): ("sub", edge_in(edge("A", 0, "B")), edge_in(edge("B", 0, "B"))),
            edge("B", 1, "D"): ("sub", edge_in(edge("A", 0, "B")), edge_in(edge("B", 0, "B"))),
        },
        NodeRef("C", 1): {
            edge("C", 1, "A"): ("add", edge_in(edge("C", 0, "C")), edge_in(edge("D", 0, "C"))),
            edge("C", 1, "C"): ("add", edge_in(edge("C", 0, "C")), edge_in(edge("D", 0, "C"))),
        },
        NodeRef("D", 1): {
            edge("D", 1, "B"): ("sub", edge_in(edge("C", 0, "D")), edge_in(edge("D", 0, "D"))),
            edge("D", 1, "D"): ("sub", edge_in(edge("C", 0, "D")), edge_in(edge("D", 0, "D"))),
        },
        NodeRef("A", 2): {
            edge("A", 2, "A"): ("add", edge_in(edge("A", 1, "A")), edge_in(edge("C", 1, "A")))
        },
        NodeRef("B", 2): {
            edge("B", 2, "B"): (
                "add",
                edge_in(edge("B", 1, "B")),
                ("mul", const(omega), edge_in(edge("D", 1, "B"))),
            )
        },
        NodeRef("C", 2): {
            edge("C", 2, "C"): ("sub", edge_in(edge("A", 1, "C")), edge_in(edge("C", 1, "C")))
        },
        NodeRef("D", 2): {
            edge("D", 2, "D"): (
                "add",
                edge_in(edge("B", 1, "D")),
                ("mul", const(omega3), edge_in(edge("D", 1, "D"))),
            )
        },
    }


def _build_fft_even() -> Fixture:
    g = UnrolledGraph(("A", "B", "C", "D"), 3)
    functions = dict(_fft_wiring())
    functions[NodeRef("A", 0)] = {edge("A", 0, "A"): msg(), edge("A", 0, "B"): msg()}
    functions[NodeRef("B", 0)] = {edge("B", 0, "A"): msg(), edge("B", 0, "B"): msg()}
    spec = SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        functions=functions,
        declared_inputs=("A", "B"),
    )
    return Fixture(
        "fft-even",
        spec,
        ("M",),
        expected_flow={
            "M": _edges(
                ("A", 0, "A"),
                ("A", 0, "B"),
                ("B", 0, "A"),
                ("B", 0, "B"),
                ("A", 1, "A"),
                ("A", 1, "C"),
                ("A", 2, "A"),
                ("C", 2, "C"),
            )
        },
    )


def _build_fft_phase() -> Fixture:
    g = UnrolledGraph(("A", "B", "C", "D"), 3)
    functions = dict(_fft_wiring())
    quarter = const(Fraction(1, 4))
    lane = lambda coeff: ("add", quarter, ("mul", msg(), const(coeff)))
    functions[NodeRef("A", 0)] = {
        edge("A", 0, "A"): quarter,
        edge("A", 0, "B"): quarter,
    }
    functions[NodeRef("B", 0)] = {
        edge("B", 0, "A"): lane(Fraction(-1, 2)),
        edge("B", 0, "B"): lane(Fraction(-1, 2)),
    }
    functions[NodeRef("C", 0)] = {
        edge("C", 0, "C"): lane(make_complex(Fraction(-1, 4), Fraction(1, 4))),
        edge("C", 0, "D"): lane(make_complex(Fraction(-1, 4), Fraction(1, 4))),
    }
    functions[NodeRef("D", 0)] = {
        edge("D", 0, "C"): lane(make_complex(Fraction(-1, 4), Fraction(-1, 4))),
        edge("D", 0, "D"): lane(make_complex(Fraction(-1, 4), Fraction(-1, 4))),
    }
    spec = SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        functions=functions,
        declared_inputs=("B", "C", "D"),
    )
    return Fixture(
        "fft-phase",
        spec,
        ("M",),
        expected_flow={
            "M": _edges(
                ("B", 0, "A"),
                ("B", 0, "B"),
                ("C", 0, "C"),
                ("C", 0, "D"),
                ("D", 0, "C"),
                ("D", 0, "D"),
                ("A", 1, "A"),
                ("A", 1, "C"),
                ("B", 1, "B"),
                ("B", 1, "D"),
                ("C", 1, "A"),
                ("C", 1, "C"),
                ("D", 1, "B"),
                ("D", 1, "D"),
                ("A", 2, "A"),
                ("B", 2, "B"),
            )
        },
    )


def _build_sk(sigma2=1, iterations: int = 3) -> Fixture:
    sigma2 = Fraction(sigma2)
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    if iterations < 1:
        raise ValidationError("need at least one iteration")
    horizon = 2 * iterations
    g = UnrolledGraph(("A", "B"), horizon)
    functions: dict = {
        NodeRef("A", 0): {edge("A", 0, "A"): msg(), edge("A", 0, "B"): msg()}
    }
    noise_map: dict = {}
    for t in range(1, horizon):
        fns: dict = {edge("A", t, "A"): edge_in(edge("A", t - 1, "A"))}
        if t % 2 == 0:
            # Sender turn: retransmit the current estimation error.
            fns[edge("A", t, "B")] = (
                "sub",
                edge_in(edge("A", t - 1, "A")),
                edge_in(edge("B", t - 1, "A")),
            )
        functions[NodeRef("A", t)] = fns
    for i in range(1, iterations + 1):
        t = 2 * i - 1
        noise_map[NodeRef("B", t)] = NoiseSpec.gaussian(sigma2)
        received = ("add", edge_in(edge("A", t - 1, "B")), noise())
        if i == 1:
            estimate = received
        else:
            estimate = (
                "add",
                edge_in(edge("B", t - 1, "B")),
                ("mul", const(Fraction(1, i)), received),
            )
        fns = {edge("B", t, "B"): estimate}
        if t + 1 <= horizon:
            fns[edge("B", t, "A")] = estimate
        functions[NodeRef("B", t)] = fns
        if t + 1 < horizon:
            functions[NodeRef("B", t + 1)] = {
                edge("B", t + 1, "B"): edge_in(edge("B", t, "B"))
            }
    spec = SystemSpec(
        g,
        MessageSpec.gaussian("M", 1),
        noise=noise_map,
        functions=functions,
        declared_inputs=("A",),
    )
    flow = set()
    for t in range(horizon):
        flow.add(edge("A", t, "A"))
        if t >= 1:
            flow.add(edge("B", t, "B"))
        if t % 2 == 0:
            flow.add(edge("A", t, "B"))
        else:
            flow.add(edge("B", t, "A"))
    return Fixture(
        "sk",
        spec,
        ("M",),
        expected_flow={"M": frozenset(flow)},
    )


def _build_output_msg(gate: Optional[int] = 1) -> Fixture:
    g = UnrolledGraph(("A", "B", "C"), 2)
    noise_map = {
        NodeRef("A", 0): NoiseSpec.bernoulli(),
        NodeRef("C", 0): NoiseSpec.bernoulli(),
    }
    if gate is None:
        gate_in_node: Expr = noise()
        gate_in_msg: Expr = ("noise", NodeRef("B", 1))
        noise_map[NodeRef("B", 1)] = NoiseSpec.bernoulli()
    elif gate in (0, 1):
        gate_in_node = const(gate)
        gate_in_msg = const(gate)
    else:
        raise ValidationError("gate must be 0, 1 or None (random)")

    def mux(g_leaf: Expr, z1: Expr, z2: Expr) -> Expr:
        return _xor(("and", g_leaf, z1), ("and", ("not", g_leaf), z2))

    spec = SystemSpec(
        g,
        MessageSpec.derived(
            ("M",),
            (mux(gate_in_msg, ("noise", NodeRef("A", 0)), ("noise", NodeRef("C", 0))),),
        ),
        noise=noise_map,
        functions={
            NodeRef("A", 0): {edge("A", 0, "B"): noise()},
            NodeRef("C", 0): {edge("C", 0, "B"): noise()},
            NodeRef("B", 1): {
                edge("B", 1, "B"): mux(
                    gate_in_node,
                    edge_in(edge("A", 0, "B")),
                    edge_in(edge("C", 0, "B")),
                )
            },
        },
    )
    if gate == 1:
        flow = _edges(("A", 0, "B"), ("B", 1, "B"))
    elif gate == 0:
        flow = _edges(("C", 0, "B"), ("B", 1, "B"))
    else:
        flow = _edges(("A", 0, "B"), ("C", 0, "B"), ("B", 1, "B"))
    return Fixture(
        "output-msg",
        spec,
        ("M",),
        expected_flow={"M": flow},
    )


def _build_hidden_ignored() -> Fixture:
    g = UnrolledGraph(("A", "H"), 3)
    pmf = [(((h, v),), Fraction(1, 4)) for h, v in itertools.product((0, 1), repeat=2)]
    spec = SystemSpec(
        g,
        MessageSpec.discrete(("M",), pmf),
        functions={
            NodeRef("A", 0): {
                edge("A", 0, "A"): ("select", 1, msg()),
                edge("A", 0, "H"): ("select", 0, msg()),
            },
            NodeRef("A", 1): {edge("A", 1, "A"): edge_in(edge("A", 0, "A"))},
            NodeRef("H", 1): {edge("H", 1, "A"): edge_in(edge("A", 0, "H"))},
            NodeRef("A", 2): {edge("A", 2, "A"): edge_in(edge("A", 1, "A"))},
        },
        declared_inputs=("A",),
    )
    return Fixture(
        "hidden-ignored",
        spec,
        ("M",),
        expected_flow={
            "M": _edges(
                ("A", 0, "A"), ("A", 0, "H"), ("A", 1, "A"), ("H", 1, "A"), ("A", 2, "A")
            )
        },
    )


def _hidden_pad_system(redundant_copy: bool) -> SystemSpec:
    g = UnrolledGraph(("A", "B", "C", "H"), 3)
    functions = {
        NodeRef("A", 0): {edge("A", 0, "A"): msg()},
        NodeRef("C", 0): {
            edge("C", 0, "A"): noise(),
            edge("C", 0, "C"): noise(),
            edge("C", 0, "H"): noise(),
        },
        NodeRef("A", 1): {
            edge("A", 1, "B"): _xor(edge_in(edge("A", 0, "A")), edge_in(edge("C", 0, "A")))
        },
        NodeRef("C", 1): {edge("C", 1, "C"): edge_in(edge("C", 0, "C"))},
        NodeRef("H", 1): {edge("H", 1, "B"): edge_in(edge("C", 0, "H"))},
        NodeRef("B", 2): {
            edge("B", 2, "B"): _xor(edge_in(edge("A", 1, "B")), edge_in(edge("H", 1, "B")))
        },
    }
    if redundant_copy:
        functions[NodeRef("C", 1)][edge("C", 1, "B")] = edge_in(edge("C", 0, "C"))
    return SystemSpec(
        g,
        MessageSpec.bernoulli("M"),
        noise={NodeRef("C", 0): NoiseSpec.bernoulli()},
        functions=functions,
        declared_inputs=("A",),
    )


def _build_hidden_local() -> Fixture:
    return Fixture("hidden-local", _hidden_pad_system(redundant_copy=False), ("M",))


def _build_hidden_masked() -> Fixture:
    return Fixture("hidden-masked", _hidden_pad_system(redundant_copy=True), ("M",))


_BUILDERS = {
    "ce1": _build_ce1,
    "ce2": _build_ce2,
    "ce3": _build_ce3,
    "mult-msg": _build_mult_msg,
    "butterfly": _build_butterfly,
    "fft-even": _build_fft_even,
    "fft-phase": _build_fft_phase,
    "sk": _build_sk,
    "output-msg": _build_output_msg,
    "hidden-ignored": _build_hidden_ignored,
    "hidden-local": _build_hidden_local,
    "hidden-masked": _build_hidden_masked,
}

FIXTURE_NAMES = tuple(_BUILDERS)


def build(name: str, **params) -> Fixture:
    """Build a named fixture; ``sk`` takes (sigma2, iterations), ``output-msg``
    takes gate (0, 1, or None for a fair random gate)."""
    if name not in _BUILDERS:
        raise ValidationError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return _BUILDERS[name](**params)
