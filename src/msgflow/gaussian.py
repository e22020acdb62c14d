"""Linear-Gaussian joint distributions.

For systems whose node functions are all affine and whose message and noise
are scalar Gaussians, every transmission is a rational linear combination of
the base variables (message, intrinsic noises) plus a constant, and the
covariance matrix, kept in exact rational arithmetic, describes everything
the flow tests read (a constant shifts no variance, so no mean is kept).

A conditional variance Var(v|S) is the Schur complement of S's block, got by
one forward elimination of S in exact fractions that skips each zero pivot
(a variable fixed by the earlier ones) and refuses a covariance that is not
positive semidefinite, so "variance is exactly zero" — the noiseless-recovery
case that makes mutual information infinite — is decided without any
tolerance.  The joint answers one question, ``ci_query``, from two
conditional variances, Var(a|C) and Var(a|B,C); ``dependent`` and ``cmi``
ask it after the set checks every joint shares, so overlapping variable sets
are refused as on a discrete table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .discrete import JointVariables, VarId
from .errors import ExpressionTypeError, NonAffineError, ValidationError
from .system import SystemSpec
from .values import Affine


def _schur(block: list[list[Fraction]]) -> Fraction:
    """Var(v | given) from the covariance ``block`` ordered (given..., v), by
    forward elimination of each earlier variable in turn.

    After eliminating a set S the trailing block is Cov(rest | S), and in a
    PSD matrix that block is PSD too.  In a PSD block |c_ij|² ≤ c_ii·c_jj, so
    a zero pivot has a zero row: its variable is a function of S, and
    skipping it is the same as dropping it.  The last cell is then
    Var(v | given); when v is itself given, its duplicate row drops to 0.  A
    negative pivot, or a zero pivot whose row is not zero, shows that the
    covariance is not PSD and raises ValidationError.  The block is
    eliminated in place.
    """
    for k, row in enumerate(block):
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1 :])):
            raise ValidationError("covariance is not positive semidefinite")
        for lower in block[k + 1 :]:
            if lower[k]:  # 0 below a zero pivot: its row, so its column, is 0
                f = lower[k] / pivot
                lower[k + 1 :] = [x - f * y for x, y in zip(lower[k + 1 :], row[k + 1 :])]
    return block[-1][-1]


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
        """Exact Var(v | given), by ``_schur``."""
        i = self._col(v)
        cols = tuple(sorted(self._col(g) for g in set(given)))
        key = (i, cols)
        if key not in self._cond_cache:
            order = cols + (i,)
            self._cond_cache[key] = _schur([[self.cov[r][c] for c in order] for r in order])
        return self._cond_cache[key]

    def ci_query(self, a_vars: Sequence[VarId]):
        """``DiscreteJoint.ci_query`` for a scalar A, on the cached
        conditional variances: ``ask(B, C)`` is None when Var(a|B,C) ==
        Var(a|C), and otherwise gives ½·log2(Var(a|C) / Var(a|B,C)) bits, or
        +inf when Var(a|B,C) is 0, where the bits saturate."""
        a_vars = tuple(a_vars)
        if len(a_vars) != 1:
            raise ValidationError(
                "the gaussian backend computes information about a scalar variable only"
            )

        def ask(b_vars: tuple, c_vars: Sequence[VarId]):
            v1 = self.cond_var(a_vars[0], tuple(c_vars))
            v2 = self.cond_var(a_vars[0], tuple(c_vars) + tuple(b_vars))
            if v1 == v2:
                return None
            return lambda: (math.inf, True) if v2 == 0 else (0.5 * math.log2(v1 / v2), False)

        return ask


def linear_propagate(spec: SystemSpec) -> GaussianJoint:
    """Exact second-order propagation through an affine system.

    ``SystemSpec.propagate``'s compiled node functions run, in its order,
    over one environment that holds the message as ``Affine(M)``, each noise
    node v as ``Affine(v)`` and every edge, 0 until its function runs; the
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

    env: dict = dict.fromkeys(spec.graph.edges, 0)
    env[msg_name] = Affine(msg_name)
    env.update((v, Affine(v)) for v in spec.noise)
    for e, fn, _ in spec.compiled():
        try:
            value = fn(env)
        except (ExpressionTypeError, NonAffineError) as exc:
            raise NonAffineError(f"edge {e}: {exc}") from exc
        if not isinstance(value, (Affine, int, Fraction)):
            raise NonAffineError(f"edge {e}: {value!r} is not an affine form")
        env[e] = value

    rows = [{msg_name: Fraction(1)}] + [getattr(env[e], "coeffs", {}) for e in spec.variables[1:]]
    # Each row weighted by the base variances once: c_ik·σ²_k·c_jk is one product.
    scaled = [{k: c * base_var[k] for k, c in r.items()} for r in rows]
    n = len(spec.variables)
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
    joint = GaussianJoint(spec.variables, cov)
    joint.sources = spec.sources()
    return joint
