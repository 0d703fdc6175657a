"""Full-batch L-BFGS ascent with a backtracking line search.

Shared by every trainer in the library.  :func:`ascend` maximizes f by
quasi-Newton steps (Liu & Nocedal 1989, Math. Programming 45):

* **Direction.**  The first trial direction is g/|g|.  After that it is
  the two-loop L-BFGS direction H g over the last ``MEMORY`` curvature
  pairs (s, y), with s the accepted step, y = g_old - g_new and the
  initial scale s.y / y.y of the newest pair.  A pair whose
  s.y <= ``CURVATURE`` |s| |y| is not kept, so H stays positive definite.
* **Line search.**  The unit step is tried first and shrunk until the
  trial passes the Armijo test f(x + t d) >= f + ``ARMIJO`` t g.d, so the
  recorded objective trace is nondecreasing.  A rejected trial's step is
  replaced by the maximizer of the quadratic through f, g.d and the
  trial's value, kept within ``SHRINK_FLOOR`` and ``SHRINK`` times the
  step (Nocedal & Wright 2006, sec. 3.5), so a search needs fewer trials
  than plain halving; a trial whose value is not finite halves the step.
  The search gives up below ``MIN_STEP``.  When the search along the
  L-BFGS direction fails, the memory is cleared and the search is tried
  once more along g/|g|; when that fails too, the ascent stops.
* **Stop rule.**  The ascent also stops after an accepted step that gains
  at most ``FTOL`` times the total gain since x0.  The test is relative to
  the bound's own progress, so it does not depend on the bound's additive
  constants, and it keeps the ascent from spending its budget on steps of
  no consequence near the optimum.  ``iters`` is therefore a budget of
  accepted steps, which an ascent need not use up.

Each trainer writes its objective as two halves: ``forward(x) -> (f, state)``
computes the value and keeps what the gradient needs (Gram matrices, their
factors, the Phi statistics), and ``backward(state) -> g`` turns that state
into the gradient.  One :class:`Objective` per ascent joins them into the
``value_and_grad(x, need_grad)`` callable that :func:`ascend` takes.  The
line search evaluates trial points value-only and then asks for the gradient
at the trial it accepts, so the objective keeps the last point's forward
state: a gradient request at that same point runs only the backward.  Every
accepted step thus costs one forward, not two, and the arithmetic, hence
every value, gradient and trajectory, is the same as recomputing it.  The
same object counts its value and gradient evaluations and its failed ones,
keeps the last failure's reason and tells which rule stopped the ascent, so
each trainer records every ascent from the objective alone.

Every trainer lays out its parameter vector with one :class:`BlockSpec`.
``pack`` takes the blocks' values by name, ``unpack`` returns them by name,
and ``flatten`` lays out a gradient given by name in the stored coordinates,
with zeros for the blocks a trainer holds fixed.
"""

from __future__ import annotations

import collections
import math

import numpy as np

__all__ = ["BlockSpec", "Objective", "ascend"]

# failures of a trial point that mean "outside the feasible region": the
# objective there is -inf and the line search shrinks its step.
# OverflowError is a Python float overflowing, e.g. ``beta ** 2``.  A
# ValueError is bad input or a programming error and propagates; the CLI
# maps this same tuple to its numeric-failure exit code
_NUMERICAL_FAILURES = (np.linalg.LinAlgError, FloatingPointError, OverflowError)

# constants of :func:`ascend`: the curvature pairs the L-BFGS direction
# keeps; the line search's largest and smallest factor between trials, its
# smallest step and its Armijo constant; the least s.y / (|s| |y|) of a
# kept pair; and the relative gain that ends the ascent
MEMORY = 10
SHRINK = 0.5
SHRINK_FLOOR = 0.1
MIN_STEP = 1e-14
ARMIJO = 1e-4
CURVATURE = 1e-10
FTOL = 2.2e-9


class BlockSpec:
    """Named blocks ``(name, shape, log)`` laid end to end in one vector; a
    ``log`` block holds a positive value, stored as its log."""

    def __init__(self, blocks):
        self.blocks = [(name, tuple(shape), log) for name, shape, log in blocks]
        self.size = sum(math.prod(shape) for _, shape, _ in self.blocks)

    def pack(self, values):
        """The vector of ``values[name]`` over the blocks."""
        return np.concatenate([np.ravel(np.log(values[name]) if log
                                        else values[name])
                               for name, _, log in self.blocks], dtype=float)

    def unpack(self, x):
        """``{name: value}`` from a vector.  Raises ValueError on a vector of
        the wrong length, FloatingPointError when an ``exp`` overflows or
        gives 0.0."""
        if np.shape(x) != (self.size,):
            raise ValueError(f"parameter vector length {np.size(x)}, "
                             f"expected {self.size}")
        values, i = {}, 0
        with np.errstate(over="raise"):
            for name, shape, log in self.blocks:
                block = x[i:i + math.prod(shape)].reshape(shape)
                value = np.exp(block) if log else block.copy()
                if log and not np.all(value > 0.0):
                    raise FloatingPointError(f"exp of block {name!r} gives 0.0")
                values[name] = value
                i += block.size
        return values

    def flatten(self, grads, frozen=()):
        """The vector of ``grads[name]`` (d/dlog for a log block), with
        zeros for the blocks named in ``frozen``."""
        return np.concatenate([np.zeros(math.prod(shape)) if name in frozen
                               else np.ravel(grads[name])
                               for name, shape, _ in self.blocks], dtype=float)


class Objective:
    """The ``value_and_grad(x, need_grad)`` that :func:`ascend` takes, built
    from a forward and a backward, with the record of what it served.

    ``forward(x)`` returns ``(f, state)``; ``backward(state)`` returns the
    gradient at the same x.  The objective keeps a copy of the last x, which
    is what ``forward`` is given, with its f (``value``) and state.  A
    gradient request at an equal x passes the kept state to ``backward`` and
    lets go of it; any other x drops the kept state before the new forward
    runs, so two forward states are never alive at once.  A numerical
    failure in either half (:data:`_NUMERICAL_FAILURES`) or a gradient with
    a non-finite entry returns ``(-inf, None)``: ``failed`` counts those
    results and ``failure`` keeps the last one's reason.  ``value_evals``
    and ``grad_evals`` count the value-only and the gradient requests.
    """

    def __init__(self, forward, backward):
        self.forward, self.backward = forward, backward
        self.value_evals = self.grad_evals = self.failed = 0
        self.failure = None
        self._last = {}     # x, f and, until a backward takes it, state
        self._served = None     # a stop reason for the last call, or None

    @property
    def value(self):
        """f at the last x, or None when its forward failed."""
        return self._last.get("f")

    def __call__(self, x, need_grad=True):
        if need_grad:
            self.grad_evals += 1
        else:
            self.value_evals += 1
        last = self._last
        try:
            if not ("x" in last and np.array_equal(x, last["x"])
                    and ("state" in last or not need_grad)):
                last.clear()    # the old state goes before the new forward
                # the forward gets a private copy: its state may hold views
                # of x, and the caller may change its array afterwards
                x = np.array(x, dtype=float)
                f, state = self.forward(x)
                last.update(x=x, f=f, state=state)
                del state       # the kept copy is the only reference
            g = self.backward(last.pop("state")) if need_grad else None
            if need_grad and not np.all(np.isfinite(g)):
                raise FloatingPointError("its gradient is not finite")
            f = last["f"]
        except _NUMERICAL_FAILURES as exc:
            self.failed += 1
            self.failure = str(exc)
            f, g = -np.inf, None
        self._served = ("no step" if not need_grad
                        else "gradient failed" if g is None
                        else "zero gradient" if not np.any(g) else None)
        return f, g

    def record(self, budget, trace, **labels):
        """``labels`` plus this ascent's budget, accepted steps, the three
        counts, ``failure``, the last failure's reason (None when ``failed``
        is 0), and ``stop``, why :func:`ascend` stopped, read from the calls
        it made: ``"no step"`` when its last call was a line-search trial
        (every trial of the last search failed), ``"gradient failed"`` or
        ``"zero gradient"`` when the last gradient was None or all zero,
        ``"budget"`` when it accepted ``budget`` steps, and else
        ``"converged"``, the FTOL rule."""
        accepted = len(trace) - 1
        stop = self._served or ("budget" if accepted == budget else "converged")
        return dict(labels, budget=int(budget), accepted=accepted,
                    value_evals=self.value_evals, grad_evals=self.grad_evals,
                    failed=self.failed, failure=self.failure, stop=stop)


def _lbfgs_direction(g, pairs):
    """The two-loop L-BFGS ascent direction H g (Nocedal & Wright, Alg. 7.4).

    ``pairs`` holds ``(s, y, 1/s.y)`` oldest first, with s the accepted step
    and y = g_old - g_new, the curvature pair of -f; H's initial scale is
    s.y / y.y of the newest pair.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(np.dot(s, q))
        q -= alpha * y
        alphas.append(alpha)
    _, y, rho = pairs[-1]
    d = q / (rho * float(np.dot(y, y)))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        d += (alpha - rho * float(np.dot(y, d))) * s
    return d


def _search(value_and_grad, x, f, d, slope):
    """Armijo backtracking along the ascent direction ``d`` with slope
    ``slope`` = g.d > 0: the first ``(x + t d, f there)`` from t = 1 down to
    MIN_STEP whose value rises by at least ARMIJO t slope, or None.

    After a rejected trial the next t is the maximizer of the quadratic
    through f, the slope and the trial's value, kept within
    [SHRINK_FLOOR t, SHRINK t]; after a trial whose value is not finite it
    is SHRINK t.  Trials are value-only; ``f`` and ``slope`` are floats.
    """
    t = 1.0
    while t >= MIN_STEP:
        x_new = x + t * d
        f_new = float(value_and_grad(x_new, False)[0])
        if f_new >= f + ARMIJO * t * slope:     # False for a NaN
            return x_new, f_new
        # the quadratic's curvature is -excess / t^2: concave when the trial
        # falls short of the linear model, as every finite rejected one does
        # unless rounding hides the difference
        excess = f + slope * t - f_new
        if math.isfinite(f_new) and excess > 0.0:
            t = min(max(0.5 * slope * t * t / excess, SHRINK_FLOOR * t),
                    SHRINK * t)
        else:
            t *= SHRINK
    return None


def ascend(value_and_grad, x0, iters):
    """Maximize ``f`` given ``value_and_grad(x, need_grad) -> (f, g or None)``
    by L-BFGS with a backtracking line search.

    Line-search trial points are evaluated with ``need_grad=False`` so that
    implementations can skip the expensive backward pass there; the gradient
    is then requested at the accepted trial point, which
    :class:`Objective` serves from that trial's forward.  The ascent
    stops early when no trial along the gradient passes the line search,
    when the gradient is zero, when an accepted step gains at most FTOL of
    the total gain since x0, or when the gradient at the accepted point
    fails (``g`` is None): then it ends there, with the line search's value
    for it.

    Parameters
    ----------
    x0 : initial parameter vector (1-D float array).
    iters : maximum number of accepted steps.

    Returns
    -------
    (x, trace) : final parameters and the objective values at x0 and after
    every accepted step (length <= iters + 1, nondecreasing).
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_and_grad(x, True)
    if not np.isfinite(f):
        raise FloatingPointError("objective not finite at the initial point")
    f = float(f)
    trace = [f]
    pairs = collections.deque(maxlen=MEMORY)
    for _ in range(int(iters)):
        gnorm = math.sqrt(float(np.dot(g, g)))
        if gnorm == 0.0:
            break
        accepted = None
        if pairs:
            d = _lbfgs_direction(g, pairs)
            slope = float(np.dot(g, d))
            if slope > 0.0:
                accepted = _search(value_and_grad, x, f, d, slope)
            if accepted is None:
                pairs.clear()   # the curvature misled: restart from g
        if accepted is None:
            accepted = _search(value_and_grad, x, f, g / gnorm, gnorm)
        if accepted is None:
            break
        x_new, f_new = accepted
        _, g_new = value_and_grad(x_new, True)
        trace.append(f_new)
        gain = f_new - f
        s, x, f = x_new - x, x_new, f_new
        if g_new is None or gain <= FTOL * (f - trace[0]):
            break
        y = g - g_new
        sy = float(np.dot(s, y))
        if sy > CURVATURE * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        g = g_new
    return x, np.asarray(trace)
