"""Continuous-time integration under a zero-order-hold input.

Closed-loop segments between events are integrated with the adaptive
Dormand-Prince 5(4) pair.  The stepper here does only what the trigger
needs, but each of its floating-point operations is the one scipy's RK45
driver (``solve_ivp(method="RK45", dense_output=True, events=...)``) does:
the same tableau, initial step, step-size control, interpolant, face
sign-change rule and Brent root search.  Its segments are therefore
bit-identical to that driver's, without the driver's per-face event
callbacks, interpolant objects and wrapper calls around the rhs.  The
tableau and Brent's method are carried in this module, so scipy is not
imported at run time: the tableau is written as the rational literals
that scipy's ``RK45`` evaluates, giving the same floats, and ``_brent``
repeats the operations of scipy's ``brentq`` in their order.  The event
time is the first instant the state leaves the trigger box; it is
located by root finding on the dense interpolant of the step that
crossed.  Dense log samples are produced at a fixed spacing independent of
the internal adaptive steps, each from the interpolant of its step.

Step sizes, error norms and the root search's interpolant powers are
Python floats, and the elementwise parts of the dense samples are one array
operation per segment: the same IEEE operations, so the same bits, without
numpy-scalar overhead.  Every dot product stays the BLAS call scipy makes,
on the same operands (``ndarray.dot`` is the C function behind ``np.dot``,
without its dispatch wrapper): OpenBLAS picks an FMA kernel per CPU, so a
sum written out in Python would match scipy on some machines only.

The lookahead rollouts of the time-scale selection need no event location,
only the dense samples, so they take one classic fixed-step RK4 step per
sample and advance a whole batch of constant inputs together through the
model's vectorised right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemModel
from .robust_bounds import Box

Array = np.ndarray

DENSE_DT = 0.01  # log sample spacing [s]

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980) with Shampine's
# quartic interpolant, as the rational literals of scipy's RK45
_N_STAGES = 6
_ORDER = 4  # of the error estimator
_A_ROWS = [
    np.array([1/5]),
    np.array([3/40, 9/40]),
    np.array([44/45, -56/15, 32/9]),
    np.array([19372/6561, -25360/2187, 64448/6561, -212/729]),
    np.array([9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]),
]
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_EXPONENT = -1 / (_ORDER + 1)
_ONES = np.ones((_P.shape[1], 1))  # the interpolant's powers x, x^2, ... by cumprod
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class IntegratorConfig:
    """Trigger-integration tolerances, all positive and finite; rel_tol of
    at least 100 eps, below which the step-size control cannot work.
    trigger_bisection_tol is only the Zeno threshold of simulate_closed_loop
    (an inter-event time at or below it aborts the run); the exit-time
    search does not read it, as Brent's method there runs to 4 eps."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 0.01
    trigger_bisection_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_step", "trigger_bisection_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.rel_tol < 100 * _EPS:
            raise ValueError(f"rel_tol must be at least 100 eps, got {self.rel_tol}")


class IntegrationError(RuntimeError):
    """Integrator failure; carries the last valid time and state."""

    def __init__(self, message: str, t_last: float, x_last: Array):
        super().__init__(message)
        self.t_last = t_last
        self.x_last = np.asarray(x_last, dtype=float)


@dataclass(frozen=True)
class Segment:
    """One inter-event piece of trajectory under a constant input.

    ``times``/``states`` are the dense log samples (strictly increasing,
    first at t_start, last at t_end).  exit_reason is "trigger" when the
    box was left, "horizon_end" otherwise.
    """

    t_start: float
    t_end: float
    times: Array
    states: Array
    exit_reason: str


def _dense_times(t_start: float, t_end: float, dt: float = DENSE_DT) -> Array:
    if t_end <= t_start:
        return np.array([t_start])
    n_inner = int(np.floor((t_end - t_start) / dt * (1 - 1e-12)))
    times = t_start + dt * np.arange(n_inner + 1)
    if t_end - times[-1] > 1e-12:
        times = np.append(times, t_end)
    else:
        times[-1] = t_end
    return times


def _rms(x: Array) -> float:
    """np.linalg.norm(x) / sqrt(size): the norm is sqrt(x . x)."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(rhs, u, t: float, y0: Array, f0: Array, span: float,
                  cfg: IntegratorConfig):
    """The first step size from (t, y0) over an interval of length span
    (Hairer, Norsett & Wanner, Sec. II.4), computed as scipy's
    ``select_initial_step``; an IntegrationError at (t, y0) when the
    derivative f0 is not finite or the step size is not positive."""
    if not np.isfinite(f0).all():
        raise IntegrationError(f"derivative {f0} at t={t} is not finite", t, y0)
    scale = cfg.abs_tol + np.abs(y0) * cfg.rel_tol
    with np.errstate(over="ignore"):  # an overflow fails the step check below
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0.0:  # the scaled derivative overflowed
        raise IntegrationError(f"first step size {h0} at t={t} is not positive", t, y0)
    d2 = _rms((rhs(y0 + h0 * f0, u) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ORDER + 1))
    return min(100 * h0, h1, span, cfg.max_step)


@dataclass(slots=True)
class _Step:
    """One accepted step from t_old to t_new and its quartic interpolant
    y_old + h * Q (x, x^2, x^3, x^4), with x = (t - t_old) / h."""

    t_old: float
    t_new: float
    h: float
    y_old: Array
    Q: Array

    def at(self, t: float) -> Array:
        x = (t - self.t_old) / self.h
        x2 = x * x  # the powers as cumprod forms them
        return self.h * self.Q.dot(np.array([x, x2, x2 * x, x2 * x * x])) + self.y_old


def integrate_until_trigger(
    x_k: Array,
    u,
    box: Box,
    t_start: float,
    t_horizon: float,
    model: SystemModel,
    cfg: IntegratorConfig,
) -> Segment:
    """Integrate under constant input until the state exits the box or the
    horizon ends.

    The trigger fires on the first strict exit through any face; a start
    state sitting on a face with outward flow exits immediately.  Every
    dense sample before the trigger is checked to lie in the box inflated
    by the absolute tolerance.  The segment equals, bit for bit, the one
    ``solve_ivp(method="RK45", dense_output=True)`` gives with one
    terminal event per face, and calls ``model.rhs`` as often.
    """
    x_k = np.asarray(x_k, dtype=float)
    if t_horizon <= t_start:
        raise ValueError("horizon must extend past the segment start")
    rhs = model.rhs
    t, t_bound = float(t_start), float(t_horizon)
    y = x_k
    f = rhs(y, u)
    h_abs = _initial_step(rhs, u, t, y, f, t_bound - t, cfg)
    K = np.empty((_N_STAGES + 1, y.size))  # the stages of the last step
    KT = [K[:s].T for s in range(_N_STAGES + 2)]  # the first s stages, as columns
    # faces upper_0, lower_0, upper_1, ...: a face fires when its outward
    # gap (y_i - bound) * outward goes from <= 0 to >= 0 over a step
    faces = [
        (i, bound, outward)
        for i, pair in enumerate(zip(box.upper.tolist(), box.lower.tolist()))
        for bound, outward in zip(pair, (1.0, -1.0))
    ]
    gap = _outward_gaps(y, faces)
    ends, steps = [t], []
    exit_face = None
    y_abs = np.abs(y)
    while exit_face is None and t < t_bound:
        t_new, y_new, f_new, y_abs, h_abs = _step(
            rhs, u, t, y, f, y_abs, h_abs, t_bound, K, KT, cfg)
        step = _Step(t, t_new, t_new - t, y, KT[-1].dot(_P))
        gap_new = _outward_gaps(y_new, faces)
        fired = [
            face for face, old, new in zip(faces, gap, gap_new) if old <= 0 <= new
        ]
        t, y, f, gap = t_new, y_new, f_new, gap_new
        if fired:
            roots = np.array([_root(step, i, bound) for i, bound, _ in fired])
            first = np.argsort(roots)[0]
            exit_face, t = fired[first], roots[first]
            y = step.at(t)
        ends.append(t)
        steps.append(step)

    t_end = float(t) if exit_face is not None else t_horizon
    times = _dense_times(t_start, t_end)
    if times.size == 1:
        states = y[None, :].copy()
    else:
        states = _dense_states(ends, steps, times, y.size)
        states[0] = x_k
        states[-1] = y

    interior = states[:-1] if exit_face is not None else states
    if not box.contains(interior, tol=cfg.abs_tol):
        raise IntegrationError("pre-trigger sample escaped the event box", t_end, y)
    return Segment(
        t_start=t_start,
        t_end=t_end,
        times=times,
        states=states,
        exit_reason="trigger" if exit_face is not None else "horizon_end",
    )


def _step(rhs, u, t, y, f, y_abs, h_abs, t_bound, K, KT, cfg: IntegratorConfig):
    """One accepted Dormand-Prince step from (t, y) with f = rhs(y, u) and
    y_abs = |y|, under scipy's RK45 step-size control.  K[:s].T is KT[s].
    Fills K with the step's stages and returns (t_new, y_new, f_new,
    |y_new|, next h_abs); step sizes and error norms are Python floats."""
    min_step = 10 * abs(math.nextafter(t, math.inf) - t)
    if h_abs > cfg.max_step:
        h_abs = cfg.max_step
    elif h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            raise IntegrationError(
                "Required step size is less than spacing between numbers.", t, y)
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        h_abs = abs(h)
        K[0] = f
        for s, a in enumerate(_A_ROWS, start=1):
            K[s] = rhs(y + KT[s].dot(a) * h, u)
        y_new = y + h * KT[-2].dot(_B)
        f_new = K[-1] = rhs(y_new, u)
        y_new_abs = np.abs(y_new)
        scale = cfg.abs_tol + np.maximum(y_abs, y_new_abs) * cfg.rel_tol
        error_norm = _rms(KT[-1].dot(_E) * h / scale)
        if error_norm < 1:
            break
        if math.isnan(error_norm):  # no step size would ever be accepted
            raise IntegrationError("the error estimate is not a number", t, y)
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
        rejected = True
    if error_norm == 0:
        factor = _MAX_FACTOR
    else:
        factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT)
    next_h_abs = h_abs * (min(1, factor) if rejected else factor)
    return t_new, y_new, f_new, y_new_abs, next_h_abs


def _outward_gaps(y: Array, faces: list) -> list:
    y = y.tolist()
    return [(y[i] - bound) * outward for i, bound, outward in faces]


def _root(step: _Step, i: int, bound: float) -> float:
    """The time inside the step at which coordinate i crosses bound, by
    Brent's method on the step's interpolant."""
    return _brent(
        lambda t: float(step.at(t)[i]) - bound,
        step.t_old, step.t_new, xtol=4 * _EPS, rtol=4 * _EPS,
    )


def _brent(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100):
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4), with
    the floating-point operations of scipy's ``brentq`` in their order.

    f(a) and f(b) must differ in sign bit unless one is zero.  A NaN value
    of f, or no convergence within maxiter iterations, raises
    IntegrationError carrying the abscissa and value where it stopped.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise IntegrationError(
                f"the function is not a number at {x!r}", x, [fx])
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an underflow; C's inf or NaN bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise IntegrationError(
        f"Brent's method did not converge in {maxiter} iterations", xcur, [fcur])


def _dense_states(ends: list, steps: list, times: Array, n: int) -> Array:
    """(len(times), n) samples, each from the interpolant of the step that
    contains it; a sample on a breakpoint belongs to the earlier step.

    The abscissae, their powers, the h scaling and the y_old offset are one
    array operation each over all samples; only the product with each
    step's Q is made per step, on that step's columns of the powers."""
    which = np.searchsorted(ends, times, side="left") - 1
    which = np.clip(which, 0, len(steps) - 1)
    t_old, h = np.array([(step.t_old, step.h) for step in steps])[which].T
    p = (_ONES * ((times - t_old) / h)).cumprod(axis=0)
    y = np.empty((times.size, n))
    cuts = (np.flatnonzero(np.diff(which)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, times.size]):
        y[lo:hi] = steps[which[lo]].Q.dot(p[:, lo:hi]).T
    y *= h[:, None]
    y += np.array([step.y_old for step in steps])[which]
    return y


def integrate_fixed_horizon(
    x0: Array,
    u,
    horizon: float,
    model: SystemModel,
    dt: float = DENSE_DT,
) -> tuple[Array, Array]:
    """Integrate under constant input over [0, horizon] with classic RK4,
    one step per dense sample at spacing dt, both endpoints included.

    ``u`` is one input, giving states of shape (n_samples, n), or an array
    of inputs rolled out together from the same start, giving states of
    shape (n_samples, *u.shape, n).  Returns (times, states).  The slopes
    are written through ``model.rhs(x, u, out)`` into four buffers kept for
    the whole rollout.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(u, dtype=float)
    times = _dense_times(0.0, horizon, dt)
    states = np.empty((times.size, *inputs.shape, x0.size))
    states[0] = x0
    rhs = model.rhs
    # the step x + h/6 (k1 + 2 (k2 + k3) + k4), operation for operation, in the
    # stage state and the four slopes (the sum built in k2), with 0-d scalars; the
    # last argument of each ufunc is its output (positional and 0-d: cheaper)
    stage, k1, k2, k3, k4 = np.empty((5, *states[0].shape))
    half, step, sixth, two = np.empty(()), np.empty(()), np.empty(()), np.array(2.0)
    x = states[0]
    for i, h in enumerate(np.diff(times).tolist(), start=1):
        half[()], step[()], sixth[()] = 0.5 * h, h, h / 6.0
        rhs(x, inputs, k1)
        rhs(np.add(x, np.multiply(half, k1, stage), stage), inputs, k2)
        rhs(np.add(x, np.multiply(half, k2, stage), stage), inputs, k3)
        rhs(np.add(x, np.multiply(step, k3, stage), stage), inputs, k4)
        np.multiply(two, np.add(k2, k3, k2), k2)
        np.add(np.add(k1, k2, k2), k4, k2)
        x = np.add(x, np.multiply(sixth, k2, k2), states[i])
    if not np.isfinite(states).all():
        raise IntegrationError("rollout state is not finite", 0.0, x0)
    return times, states
