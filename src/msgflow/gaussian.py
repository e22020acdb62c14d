"""Linear-Gaussian joint distributions.

For systems whose node functions are all affine and whose message and noise
are scalar Gaussians, every transmission is a rational linear combination of
the base variables (message, intrinsic noises) plus a constant, and the
covariance matrix, kept in exact rational arithmetic, describes everything
the flow tests read (a constant shifts no variance, so no mean is kept).

Conditional variances are computed by solving the (possibly singular, always
consistent) normal equations with exact fraction elimination, so "variance is
exactly zero" — the noiseless-recovery case that makes mutual information
infinite — is decided without any tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .discrete import JointVariables, VarId
from .errors import ExpressionTypeError, NonAffineError, ValidationError
from .exprs import EvalEnv
from .system import SystemSpec
from .values import Affine


def _solve_psd(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve ``mat @ x = rhs`` exactly for a PSD Gram matrix.

    The system is consistent whenever ``rhs`` lies in the range of ``mat``
    (always true for covariance blocks of a joint law); free coordinates are
    set to zero.
    """
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if a[r][n] != 0:
            raise ValidationError("inconsistent covariance system; matrix is not PSD")
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = a[r][n]
    return x


class GaussianJoint(JointVariables):
    """Covariance over (message, edge transmissions), exact rationals."""

    engine = "gaussian"

    def __init__(self, variables: Sequence[VarId], cov: Sequence[Sequence[Fraction]]) -> None:
        super().__init__(variables)
        self.cov: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in cov
        )
        n = len(self.variables)
        if len(self.cov) != n or any(len(row) != n for row in self.cov):
            raise ValidationError("covariance shape mismatch")
        for i in range(n):
            for j in range(i, n):
                if self.cov[i][j] != self.cov[j][i]:
                    raise ValidationError("covariance must be symmetric")
        self._cond_cache: dict = {}

    def is_constant(self, v: VarId) -> bool:
        i = self._col(v)
        return self.cov[i][i] == 0

    def variance(self, v: VarId) -> Fraction:
        i = self._col(v)
        return self.cov[i][i]

    def covariance(self, u: VarId, v: VarId) -> Fraction:
        return self.cov[self._col(u)][self._col(v)]

    def cond_var(self, v: VarId, given: Sequence[VarId] = ()) -> Fraction:
        """Exact Var(v | given)."""
        i = self._col(v)
        cols = tuple(sorted(self._col(g) for g in set(given)))
        key = (i, cols)
        if key in self._cond_cache:
            return self._cond_cache[key]
        if not cols:
            out = self.cov[i][i]
        else:
            sub = [[self.cov[r][c] for c in cols] for r in cols]
            rhs = [self.cov[r][i] for r in cols]
            x = _solve_psd(sub, rhs)
            out = self.cov[i][i] - sum(r * xi for r, xi in zip(rhs, x))
        self._cond_cache[key] = out
        return out

    def dependent(
        self,
        a_vars: Sequence[VarId],
        b_vars: Sequence[VarId],
        c_vars: Sequence[VarId] = (),
    ) -> bool:
        """Exact test of I(a; B | C) > 0 for a scalar first argument."""
        a = self._scalar_first(a_vars)
        if not b_vars:
            return False
        v1 = self.cond_var(a, tuple(c_vars))
        v2 = self.cond_var(a, tuple(c_vars) + tuple(b_vars))
        return v2 < v1

    def cmi(
        self,
        a_vars: Sequence[VarId],
        b_vars: Sequence[VarId],
        c_vars: Sequence[VarId] = (),
    ) -> float:
        """I(a; B | C) in bits for a scalar first argument; may be +inf."""
        a = self._scalar_first(a_vars)
        if not b_vars:
            return 0.0
        v1 = self.cond_var(a, tuple(c_vars))
        v2 = self.cond_var(a, tuple(c_vars) + tuple(b_vars))
        if v1 == v2:
            return 0.0
        if v2 == 0:
            return math.inf
        return 0.5 * math.log2(v1 / v2)

    def ci_query(self, a_vars: Sequence[VarId]):
        """``DiscreteJoint.ci_query`` for a scalar A, by ``dependent`` and
        ``cmi`` on the cached conditional variances; an infinite value
        saturates."""
        self._scalar_first(a_vars)

        def ask(b_vars: tuple, c_vars: Sequence[VarId]):
            if not self.dependent(a_vars, b_vars, c_vars):
                return None
            return lambda: ((q := self.cmi(a_vars, b_vars, c_vars)), math.isinf(q))

        return ask

    def _scalar_first(self, a_vars: Sequence[VarId]) -> VarId:
        a_vars = tuple(a_vars)
        if len(a_vars) != 1:
            raise ValidationError(
                "the gaussian backend computes information about a scalar variable only"
            )
        return a_vars[0]


def linear_propagate(spec: SystemSpec) -> GaussianJoint:
    """Exact second-order propagation through an affine system.

    ``SystemSpec.propagate``'s compiled node functions run, in its order, on
    the message ``Affine(M)`` and each noise node v as ``Affine(v)``; the
    covariance is assembled from the coefficients of the affine forms they
    return and the base variances.  Any other transmission value, or a
    function that fails on affine inputs, raises NonAffineError naming the
    edge.  The joint records each edge's random sources
    (``SystemSpec.sources``) for the flow search.
    """
    if not spec.is_gaussian:
        raise ValidationError("linear_propagate needs a gaussian message")
    msg_name = spec.message.components[0]
    base_var = {msg_name: spec.message.variance}
    base_var.update((v, ns.variance) for v, ns in spec.noise.items())

    graph = spec.graph
    env = EvalEnv(
        edges=dict.fromkeys(graph.edges, 0),
        msg_values={msg_name: Affine(msg_name)},
        noise_values={v: Affine(v) for v in spec.noise},
    )
    for v, e, fn in spec.compiled():
        env.own_noise = env.noise_values.get(v, 0)
        try:
            value = fn(env)
        except (ExpressionTypeError, NonAffineError) as exc:
            raise NonAffineError(f"edge {e}: {exc}") from exc
        if not isinstance(value, (Affine, int, Fraction)):
            raise NonAffineError(f"edge {e}: {value!r} is not an affine form")
        env.edges[e] = value

    edge_order = tuple(e for t in range(graph.horizon) for e in graph.edges_at(t))
    variables: tuple = (msg_name,) + edge_order
    rows = [{msg_name: Fraction(1)}] + [getattr(env.edges[e], "coeffs", {}) for e in edge_order]
    # Each row weighted by the base variances once: c_ik·σ²_k·c_jk is one product.
    scaled = [{k: c * base_var[k] for k, c in r.items()} for r in rows]
    n = len(variables)
    cov = [[Fraction(0)] * n for _ in range(n)]
    live = [i for i in range(n) if rows[i]]  # a constant edge's row and column are 0
    for x, i in enumerate(live):
        ri = rows[i]
        for j in live[x:]:
            rj = rows[j]
            small, big = (scaled[i], rj) if len(ri) <= len(rj) else (scaled[j], ri)
            s = Fraction(0)
            for k, wk in small.items():
                ck = big.get(k)
                if ck is not None:
                    s += wk * ck
            cov[i][j] = cov[j][i] = s
    joint = GaussianJoint(variables, cov)
    joint.sources = spec.sources()
    return joint
