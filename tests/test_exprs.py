from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from msgflow import ExpressionTypeError, SpecParseError
from msgflow.exprs import (
    OPERATORS,
    compile_expr,
    const,
    edge_in,
    expr_to_json,
    msg,
    noise,
    parse_expr,
)
from msgflow.graph import edge
from msgflow.values import ComplexQ, make_complex, value_from_json, value_to_json, vmul


def _key(kind, payload):
    """A leaf's variable: its payload, or "own" for a bare noise leaf and "M"
    for a bare msg leaf."""
    return payload if payload is not None else {"noise": "own", "msg": "M"}[kind]


def _run(expr, **env):
    return compile_expr(expr, _key)({"own": env.get("own", 0), "M": env.get("m", 0)})


def test_boolean_ops():
    e = ("xor", ("and", msg(), const(1)), ("not", const(0)))
    assert _run(e, m=0) == 1
    assert _run(e, m=1) == 0


def test_arithmetic_and_complex():
    w = make_complex(0, -1)
    e = ("add", const(Fraction(1, 4)), ("mul", const(w), const(w)))
    # (-j)*(-j) = -1; 1/4 - 1 = -3/4
    assert _run(e) == Fraction(-3, 4)
    assert vmul(w, make_complex(0, 1)) == 1  # -j * j normalizes to a rational


def test_whole_rational_results_are_ints():
    # 1/2 * 2 is the int 1, as the constant [2, 2] is, so xor accepts it.
    for one in (["mul", ["const", [1, 2]], ["const", 2]], ["const", [2, 2]]):
        assert _run(parse_expr(["xor", one, ["const", 0]])) == 1
    for e in (
        ("add", const(Fraction(1, 2)), const(Fraction(1, 2))),
        ("sub", const(Fraction(3, 2)), const(Fraction(1, 2))),
        ("negate", const(Fraction(2, 1))),
    ):
        assert type(_run(e)) is int
    assert _run(("mul", const(Fraction(1, 3)), const(2))) == Fraction(2, 3)


def test_select_concat_mod():
    e = ("select", 1, ("concat", const(5), ("mod", 3, const(7))))
    assert _run(e) == 1


def test_type_errors():
    with pytest.raises(ExpressionTypeError):
        _run(("xor", const(2), const(1)))
    with pytest.raises(ExpressionTypeError):
        _run(("mod", 2, const(Fraction(1, 2))))
    with pytest.raises(ExpressionTypeError):
        _run(("select", 3, const(1)))


def test_edge_and_noise_leaves():
    e01 = edge("A", 0, "B")
    expr = ("xor", edge_in(e01), noise())
    out = compile_expr(expr, _key)({e01: 1, "own": 1})
    assert out == 0


def test_json_round_trip():
    exprs = [
        ("xor", edge_in(edge("A", 0, "B")), noise()),
        ("add", const(Fraction(1, 3)), ("mul", msg("M1"), const(make_complex(1, Fraction(-1, 2))))),
        ("concat", ("select", 0, msg()), ("mod", 4, const(9))),
        ("not", ("or", const(0), const(1))),
        ("negate", ("sub", const(2), const(5))),
    ]
    for expr in exprs:
        assert parse_expr(expr_to_json(expr)) == expr


def test_parse_rejects_garbage():
    for bad in ([], ["frobnicate", 1], ["xor", ["const", 0]], ["select", "x", ["const", 0]], 17):
        with pytest.raises(SpecParseError):
            parse_expr(bad)


def _operands(n):
    return [["const", i] for i in range(n)]


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_every_operator_row_parses_strictly(op):
    # A well-formed node per row: each parameter at its least value, then
    # its operand count of operands (one for concat).
    lows, arity, _ = OPERATORS[op]
    params = list(lows)
    n = arity or 1
    good = [op, *params, *_operands(n)]
    expr = parse_expr(good)
    assert expr_to_json(expr) == good and parse_expr(expr_to_json(expr)) == expr
    bad = [[op, *params, *_operands(n + 1)]] if arity else []
    bad.append([op, *params, *_operands(n - 1)])
    for i, low in enumerate(lows):
        for wrong in (None, True, False, 1.5, "1", low - 1):
            bad.append([op, *params[:i], *([] if wrong is None else [wrong]), *params[i + 1 :],
                        *_operands(n)])
    for obj in bad:
        with pytest.raises(SpecParseError):
            parse_expr(obj)


@given(st.fractions(), st.fractions())
def test_complex_normalization(re, im):
    v = make_complex(re, im)
    if im == 0:
        assert not isinstance(v, ComplexQ)
    else:
        assert isinstance(v, ComplexQ)
    assert value_from_json(value_to_json(v)) == v
