"""Input-affine system abstraction and the adaptive-cruise-control instance.

The controller stack only ever talks to a :class:`SystemModel`, which bundles
the dynamics ``xdot = f(x) + g(x) u``, the safety output ``h`` together with
its Lie derivatives up to the relative degree ``m``, the input gain
``phi = L_g L_f^(m-1) h`` (the only place the input enters the m-th
derivative of ``h``), CLF terms, the input box, the controller's input cost
and the fallback input.  The car-following instance built by
:func:`acc_model` is the one concrete model shipped here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

Array = np.ndarray

CLF_FORMS = ("quadratic", "linear")


def make_state(z: float, v: float) -> Array:
    """Build a validated state vector (gap distance [m], ego speed [m/s])."""
    x = np.array([float(z), float(v)], dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"state entries must be finite, got {x}")
    return x


@dataclass(frozen=True)
class AccParams:
    """Longitudinal car-following parameters.

    Units: M [kg]; vp, vd [m/s]; f0 [N]; f1 [N s/m]; f2 [N s^2/m^2];
    lp [m]; g_grav [m/s^2].  ca and cd scale the acceleration/braking
    authority as fractions of g, c3 is the CLF convergence rate and w the
    slack penalty weight in the controller objective.
    """

    M: float = 1650.0
    vp: float = 13.89
    vd: float = 24.0
    f0: float = 0.1
    f1: float = 5.0
    f2: float = 0.25
    lp: float = 10.0
    g_grav: float = 9.81
    ca: float = 0.4
    cd: float = 0.4
    c3: float = 2.0
    w: float = 1.0e5

    def __post_init__(self) -> None:
        positive = (
            ("M", self.M), ("vp", self.vp), ("vd", self.vd), ("lp", self.lp),
            ("g_grav", self.g_grav), ("ca", self.ca), ("cd", self.cd),
            ("c3", self.c3), ("w", self.w),
        )
        for name, value in positive:
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value}")
        for name, value in (("f0", self.f0), ("f1", self.f1), ("f2", self.f2)):
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be nonnegative, got {value}")

    @cached_property
    def _rhs_operands(self) -> tuple[Array, ...]:
        """f0, f1, f2, M and vp as read-only 0-d arrays: a Python float
        operand is converted on every ufunc call, which a batch of states
        pays at each of its ufuncs."""
        operands = tuple(np.array(value) for value in
                         (self.f0, self.f1, self.f2, self.M, self.vp))
        for operand in operands:
            operand.setflags(write=False)
        return operands

    @property
    def u_min(self) -> float:
        """Maximum braking force [N]."""
        return -self.cd * self.M * self.g_grav

    @property
    def u_max(self) -> float:
        """Maximum traction force [N]."""
        return self.ca * self.M * self.g_grav


@dataclass(frozen=True)
class SystemModel:
    """Affine system with one input and one safety output of relative
    degree ``m``.

    ``lie_stack(x)`` returns the m+1 drift terms ``[h, L_f h, ..., L_f^m h]``
    and ``phi(x)`` the input gain of the m-th derivative, so that

        d^m h / dt^m = L_f^m h(x) + phi(x) u.

    ``clf_terms(x)`` returns ``(V, L_f V, L_g V)``.  Every evaluator takes
    states of shape (..., n), ``rhs`` also a float input or inputs shaped
    like the leading axes, and returns its values over those leading axes:
    ``lie_stack`` (..., m+1), ``rhs`` (..., n) and ``phi`` and the CLF terms
    (...); ``rhs(x, u, out)`` writes into ``out`` (shaped like ``x``, not
    ``x``) when given.  A batch equals its per-state calls bit for bit, so
    worst-case bounds over a box and the lookahead rollouts need no
    Python-level loop.  All evaluators are pure functions.

    ``cost(x)`` returns the floats ``(diag, linear)`` of the controller's
    input cost ``diag * u * u + linear * u`` at one state, and ``fallback``
    is the input held while the QP is infeasible.
    """

    n: int
    m: int
    rhs: Callable[..., Array]
    lie_stack: Callable[[Array], Array]
    phi: Callable[[Array], Array]
    clf_terms: Callable[[Array], tuple[Array, Array, Array]]
    u_min: float
    u_max: float
    cost: Callable[[Array], tuple[float, float]]
    fallback: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"relative degree must be >= 1, got {self.m}")
        for name in ("u_min", "u_max", "fallback"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != ():  # the QP solver and the event log take one input
                raise ValueError(f"{name} must be a float: the controller takes "
                                 f"one input, got shape {value.shape}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        if self.u_min > self.u_max:
            raise ValueError("need u_min <= u_max")
        if not self.u_min <= self.fallback <= self.u_max:
            raise ValueError("fallback input must lie in the input box")


def resistance_force(v, p: AccParams):
    """Rolling/drag resistance f0*sgn(v) + f1*v + f2*v^2 [N]; sgn(0) = 0.

    Elementwise for an array of speeds."""
    return p.f0 * np.sign(v) + p.f1 * v + p.f2 * v * v


def effort_integrand(u: Array, v: Array, p: AccParams) -> Array:
    """Squared net acceleration ((u - F_r(v)) / M)^2, the control effort."""
    return ((u - resistance_force(v, p)) / p.M) ** 2


def _columns(x: Array, *values) -> Array:
    """The values as the columns of a new last axis over the leading axes
    of the states x, in a fresh C-ordered array."""
    out = np.empty((*x.shape[:-1], len(values)))
    for j, value in enumerate(values):
        out[..., j] = value
    return out


def acc_dynamics_rhs(x: Array, u, p: AccParams, out: Array | None = None) -> Array:
    """Time derivative of (gap, speed) under traction/braking force u [N],
    written into ``out`` (shaped like ``x``) when given, else a new array.

    ``x`` is (..., 2) and ``u`` a float force or forces over the leading
    axes of ``x``.  One state is evaluated in Python floats, a batch in place
    with ufuncs; both do the IEEE operations of :func:`resistance_force` in
    its order, so a batch equals its per-state calls bit for bit."""
    out = np.empty(x.shape) if out is None else out
    if x.ndim == 1:  # one state: Python floats cost less than numpy scalars
        force = float(u)
        v = x.item(1)
        # sgn(v) as a comparison; a NaN speed still propagates through f1 * v
        fr = p.f0 * ((v > 0.0) - (v < 0.0)) + p.f1 * v + p.f2 * v * v
        out[0], out[1] = p.vp - v, (force - fr) / p.M
        return out
    # a batch: the operations of resistance_force, in its order, in place;
    # the last argument of each ufunc is its output (positional: cheaper)
    f0, f1, f2, M, vp = p._rhs_operands
    v = x[..., 1]
    rate, scratch = out[..., 1], out[..., 0]
    np.multiply(f0, np.sign(v, rate), rate)
    np.add(rate, np.multiply(f1, v, scratch), rate)
    np.multiply(np.multiply(f2, v, scratch), v, scratch)
    np.add(rate, scratch, rate)
    np.divide(np.subtract(u, rate, rate), M, rate)
    np.subtract(vp, v, scratch)
    return out


def acc_lie_stack(x: Array, p: AccParams):
    """Safety output h = z - lp and its derivatives along the dynamics.

    Returns (h, L_f h, L_f^2 h, L_g L_f h) over the leading axes of ``x``;
    the last is the constant -1/M.  The gap closes at vp - v and the input
    enters at the second derivative through -1/M.
    """
    z, v = x[..., 0][()], x[..., 1][()]
    return (z - p.lp, p.vp - v, resistance_force(v, p) / p.M, -1.0 / p.M)


def acc_clf_terms(x: Array, p: AccParams, form: str = "quadratic"):
    """Speed-tracking CLF terms (V, L_f V, L_g V) over the leading axes of
    ``x``; the linear form's L_g V is the constant 1/M.

    The quadratic form V = (v - vd)^2 satisfies the two-sided quadratic
    bounds a CLF requires; the signed linear form V = v - vd is kept as an
    option for comparison runs but does not.
    """
    v = x[..., 1][()]
    fr = resistance_force(v, p)
    if form == "quadratic":
        err = v - p.vd
        return err * err, -2.0 * err * fr / p.M, 2.0 * err / p.M
    if form == "linear":
        return v - p.vd, -fr / p.M, 1.0 / p.M
    raise ValueError(f"unknown clf form {form!r}")


def acc_model(p: AccParams, clf_form: str = "quadratic") -> SystemModel:
    """Build the car-following :class:`SystemModel` (n=2, m=2)."""

    def rhs(x: Array, u, out: Array | None = None) -> Array:
        return acc_dynamics_rhs(x, u, p, out)  # positional, as counters see it

    def lie_stack(x: Array) -> Array:
        h, lfh, lf2h, _ = acc_lie_stack(x, p)
        return _columns(x, h, lfh, lf2h)

    def phi(x: Array) -> Array:
        return np.full(x.shape[:-1], -1.0 / p.M)

    def clf_terms(x: Array):
        V, lfV, lgV = acc_clf_terms(x, p, clf_form)
        return V, lfV, np.full(x.shape[:-1], lgV)

    def cost(x: Array) -> tuple[float, float]:
        # effort_integrand expanded in u; the constant term is dropped
        m2 = p.M**2
        return 1.0 / m2, float(-2.0 * resistance_force(x[1], p) / m2)

    return SystemModel(
        n=2,
        m=2,
        rhs=rhs,
        lie_stack=lie_stack,
        phi=phi,
        clf_terms=clf_terms,
        u_min=p.u_min,
        u_max=p.u_max,
        cost=cost,
        fallback=p.u_min,  # maximum braking
    )
