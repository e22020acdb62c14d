"""Expression trees for node computations.

An expression is a nested tuple headed by an operator name.  Its leaves are
an incoming edge transmission, the node's own intrinsic random variable, a
named intrinsic variable of another node (allowed only in derived-message
definitions), a message component, or an exact constant.  ``compile_expr``
resolves each non-constant leaf once, left to right, through the caller's
resolver (the system's read rule ``SystemSpec.leaf_key``, which checks it)
to the variable it reads or to 0; the compiled function reads one dict from
variables to values.

The JSON wire form is prefix notation as nested arrays, e.g.::

    ["xor", ["edge", "A0", "B1"], ["noise"]]

Every other operator is one row of ``OPERATORS``: xor, and, or, not (0/1
ints); add, sub, mul, negate (exact rational/complex arithmetic); select k
(tuple component); concat (build a tuple); mod q (integers).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional

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


def _select(k: int, v: Value) -> Value:
    if not isinstance(v, tuple) or not 0 <= k < len(v):
        raise ExpressionTypeError(f"select {k} needs a tuple of length > {k}, got {v!r}")
    return v[k]


class Operator(NamedTuple):
    """The least value of each integer parameter, the operand count (None:
    one or more), and the value function of (*parameters, *operands)."""

    params: tuple
    arity: Optional[int]
    fn: Callable[..., Value]


OPERATORS = {
    "xor": Operator((), 2, lambda a, b: require_bit(a, "xor") ^ require_bit(b, "xor")),
    "and": Operator((), 2, lambda a, b: require_bit(a, "and") & require_bit(b, "and")),
    "or": Operator((), 2, lambda a, b: require_bit(a, "or") | require_bit(b, "or")),
    "not": Operator((), 1, lambda a: 1 - require_bit(a, "not")),
    "add": Operator((), 2, vadd),
    "sub": Operator((), 2, vsub),
    "mul": Operator((), 2, vmul),
    "negate": Operator((), 1, vneg),
    "select": Operator((0,), 1, _select),
    "mod": Operator((1,), 1, lambda q, a: require_int(a, "mod") % q),
    "concat": Operator((), None, lambda *vs: vs),
}


def _operator(op) -> Operator:
    row = OPERATORS.get(op)
    if row is None:
        raise SpecParseError(f"unknown operator {op!r}")
    return row


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
    lows, arity, _ = _operator(op)
    k = len(lows)
    n = len(args) - k  # operands, after the parameters
    # A JSON boolean is a Python int, but no parameter.
    if (n != arity if arity else n < 1) or k and not all(
        type(p) is int and p >= low for p, low in zip(args, lows)
    ):
        wants = "".join(f"an integer >= {low}, " for low in lows)
        raise SpecParseError(f"{op} takes {wants}{arity or 'one or more'} operand(s): {obj!r}")
    return (op, *args[:k], *map(parse_expr, args[k:]))


def expr_to_json(expr: Expr):
    op = expr[0]
    if op == "edge":
        return ["edge", *map(str, expr[1])]  # an EdgeRef is the pair (src, dst)
    if op in ("noise", "msg"):
        return [op] if expr[1] is None else [op, str(expr[1])]
    if op == "const":
        return ["const", value_to_json(expr[1])]
    k = 1 + len(_operator(op).params)
    return [*expr[:k], *map(expr_to_json, expr[k:])]


def compile_expr(expr: Expr, key: Callable[[str, object], object]) -> Callable[[dict], Value]:
    """Compile to a closure over one environment, a dict from variables to
    values.  ``key(kind, payload)`` names the variable an edge, noise or msg
    leaf reads, or None for a leaf that reads 0; it runs once per leaf, here.
    ExpressionTypeError is raised lazily, at evaluation."""
    op = expr[0]
    if op == "const":
        v = expr[1]
        return lambda env: v
    if op in ("edge", "noise", "msg"):
        k = key(op, expr[1])
        return (lambda env: 0) if k is None else (lambda env: env[k])
    params, arity, fn = _operator(op)
    k = 1 + len(params)
    if params:
        fn = partial(fn, *expr[1:k])
    if arity == 1:
        fa = compile_expr(expr[k], key)
        return lambda env: fn(fa(env))
    if arity == 2:
        fa, fb = compile_expr(expr[k], key), compile_expr(expr[k + 1], key)
        return lambda env: fn(fa(env), fb(env))
    fs = [compile_expr(a, key) for a in expr[k:]]
    return lambda env: fn(*[f(env) for f in fs])
