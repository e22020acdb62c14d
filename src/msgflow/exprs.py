"""Expression trees for node computations.

An expression is a nested tuple headed by an operator name.  Leaves reference
an incoming edge transmission, the node's own intrinsic random variable, a
named intrinsic variable of another node (allowed only in derived-message
definitions), a message component, or an exact constant.

The JSON wire form is prefix notation as nested arrays, e.g.::

    ["xor", ["edge", "A0", "B1"], ["noise"]]

Operators: xor, and, or, not (0/1 ints); add, sub, mul, negate (exact
rational/complex arithmetic); const; select k (tuple component); concat
(build a tuple); mod q (integers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ExpressionTypeError, SpecParseError
from .graph import EdgeRef, NodeRef
from .values import (
    Value,
    require_bit,
    require_int,
    value_from_json,
    value_to_json,
    vadd,
    vmul,
    vneg,
    vsub,
)

Expr = tuple

CONST_ZERO: Expr = ("const", 0)

_BINARY = {"xor", "and", "or", "add", "sub", "mul"}
_UNARY = {"not", "negate"}


def msg(name: Optional[str] = None) -> Expr:
    return ("msg", name)


def noise(node: Optional[NodeRef] = None) -> Expr:
    return ("noise", node)


def edge_in(e: EdgeRef) -> Expr:
    return ("edge", e)


def const(v: Value) -> Expr:
    return ("const", v)


def parse_expr(obj) -> Expr:
    """Decode the nested-array JSON form into an expression tree."""
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], str):
        raise SpecParseError(f"expression must be a non-empty array: {obj!r}")
    op, *args = obj
    if op == "edge":
        if len(args) != 2:
            raise SpecParseError(f"edge leaf needs src and dst ids: {obj!r}")
        return ("edge", EdgeRef(NodeRef.parse(args[0]), NodeRef.parse(args[1])))
    if op == "noise":
        if not args:
            return ("noise", None)
        if len(args) == 1:
            return ("noise", NodeRef.parse(args[0]))
        raise SpecParseError(f"noise leaf takes at most one node id: {obj!r}")
    if op == "msg":
        if not args:
            return ("msg", None)
        if len(args) == 1 and isinstance(args[0], str):
            return ("msg", args[0])
        raise SpecParseError(f"msg leaf takes at most one component name: {obj!r}")
    if op == "const":
        if len(args) != 1:
            raise SpecParseError(f"const takes one value: {obj!r}")
        return ("const", value_from_json(args[0]))
    if op in _BINARY:
        if len(args) != 2:
            raise SpecParseError(f"{op} takes two operands: {obj!r}")
        return (op, parse_expr(args[0]), parse_expr(args[1]))
    if op in _UNARY:
        if len(args) != 1:
            raise SpecParseError(f"{op} takes one operand: {obj!r}")
        return (op, parse_expr(args[0]))
    if op == "select":
        if len(args) != 2 or not isinstance(args[0], int):
            raise SpecParseError(f"select takes an index and an operand: {obj!r}")
        return ("select", args[0], parse_expr(args[1]))
    if op == "mod":
        if len(args) != 2 or not isinstance(args[0], int) or args[0] < 1:
            raise SpecParseError(f"mod takes a positive modulus and an operand: {obj!r}")
        return ("mod", args[0], parse_expr(args[1]))
    if op == "concat":
        if not args:
            raise SpecParseError("concat needs at least one operand")
        return ("concat", *[parse_expr(a) for a in args])
    raise SpecParseError(f"unknown operator {op!r}")


def expr_to_json(expr: Expr):
    op = expr[0]
    if op == "edge":
        e: EdgeRef = expr[1]
        return ["edge", str(e.src), str(e.dst)]
    if op == "noise":
        return ["noise"] if expr[1] is None else ["noise", str(expr[1])]
    if op == "msg":
        return ["msg"] if expr[1] is None else ["msg", expr[1]]
    if op == "const":
        return ["const", value_to_json(expr[1])]
    if op in ("select", "mod"):
        return [op, expr[1], expr_to_json(expr[2])]
    if op == "concat":
        return ["concat", *[expr_to_json(a) for a in expr[1:]]]
    return [op, *[expr_to_json(a) for a in expr[1:]]]


def leaf_refs(expr: Expr):
    """Yield every (kind, payload) leaf in the expression."""
    op = expr[0]
    if op in ("edge", "noise", "msg"):
        yield (op, expr[1])
    elif op == "const":
        return
    elif op in ("select", "mod"):
        yield from leaf_refs(expr[2])
    else:
        for sub in expr[1:]:
            yield from leaf_refs(sub)


@dataclass
class EvalEnv:
    """Bindings visible while evaluating one node's expressions."""

    edges: dict
    own_noise: Value = 0
    msg_values: dict = field(default_factory=dict)
    noise_values: dict = field(default_factory=dict)


def compile_expr(expr: Expr) -> Callable[[EvalEnv], Value]:
    """Compile to a closure; raises ExpressionTypeError lazily at evaluation."""
    op = expr[0]
    if op == "const":
        v = expr[1]
        return lambda env: v
    if op == "edge":
        e = expr[1]
        return lambda env: env.edges[e]
    if op == "noise":
        node = expr[1]
        if node is None:
            return lambda env: env.own_noise
        return lambda env: env.noise_values[node]
    if op == "msg":
        name = expr[1]
        if name is None:
            return lambda env: _sole_msg(env)
        return lambda env: env.msg_values[name]
    if op in ("not",):
        f = compile_expr(expr[1])
        return lambda env: 1 - require_bit(f(env), "not")
    if op == "negate":
        f = compile_expr(expr[1])
        return lambda env: vneg(f(env))
    if op == "select":
        k, f = expr[1], compile_expr(expr[2])
        def _select(env: EvalEnv) -> Value:
            v = f(env)
            if not isinstance(v, tuple) or not 0 <= k < len(v):
                raise ExpressionTypeError(f"select {k} needs a tuple of length > {k}, got {v!r}")
            return v[k]
        return _select
    if op == "mod":
        q, f = expr[1], compile_expr(expr[2])
        return lambda env: require_int(f(env), "mod") % q
    if op == "concat":
        fs = [compile_expr(a) for a in expr[1:]]
        return lambda env: tuple(f(env) for f in fs)
    fa, fb = compile_expr(expr[1]), compile_expr(expr[2])
    if op == "xor":
        return lambda env: require_bit(fa(env), "xor") ^ require_bit(fb(env), "xor")
    if op == "and":
        return lambda env: require_bit(fa(env), "and") & require_bit(fb(env), "and")
    if op == "or":
        return lambda env: require_bit(fa(env), "or") | require_bit(fb(env), "or")
    if op == "add":
        return lambda env: vadd(fa(env), fb(env))
    if op == "sub":
        return lambda env: vsub(fa(env), fb(env))
    if op == "mul":
        return lambda env: vmul(fa(env), fb(env))
    raise SpecParseError(f"unknown operator {op!r}")


def _sole_msg(env: EvalEnv) -> Value:
    if len(env.msg_values) != 1:
        raise ExpressionTypeError(
            "bare msg leaf is ambiguous: message has several components"
        )
    return next(iter(env.msg_values.values()))
