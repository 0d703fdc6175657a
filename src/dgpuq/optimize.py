"""Full-batch gradient ascent with backtracking line search.

Shared by every trainer in the library.  Steps are only accepted when they
satisfy a (weak) Armijo increase condition with constant ``ARMIJO``, so the
recorded objective trace is nondecreasing.  The first step tried is
``STEP0``; a rejected trial is scaled by ``SHRINK`` until it falls below
``MIN_STEP``, and an accepted step, scaled by ``GROW`` and capped at
``MAX_STEP``, is the next iteration's first trial.  Every trainer uses these
constants.

Each trainer writes its objective as two halves: ``forward(x) -> (f, state)``
computes the value and keeps what the gradient needs (Gram matrices, their
factors, the Phi statistics), and ``backward(state) -> g`` turns that state
into the gradient.  :func:`cached_objective` joins them into the
``value_and_grad(x, need_grad)`` callable that :func:`ascend` takes.  The
line search evaluates trial points value-only and then asks for the gradient
at the trial it accepts, so the callable keeps the last point's forward
state: a gradient request at that same point runs only the backward.  Every
accepted step thus costs one forward, not two, and the arithmetic, hence
every value, gradient and trajectory, is the same as recomputing it.

Every trainer lays out its parameter vector with one :class:`BlockSpec`.
``pack`` takes the blocks' values by name, ``unpack`` returns them by name,
and ``flatten`` lays out a gradient given by name in the stored coordinates,
with zeros for the blocks a trainer holds fixed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BlockSpec", "ascend", "cached_objective"]

# failures of a trial point that mean "outside the feasible region": the
# objective there is -inf and the line search shrinks its step.
# OverflowError is a Python float overflowing, e.g. ``beta ** 2``.  A
# ValueError is bad input or a programming error and propagates; the CLI
# maps this same tuple to its numeric-failure exit code
_NUMERICAL_FAILURES = (np.linalg.LinAlgError, FloatingPointError, OverflowError)

# line-search constants of :func:`ascend`
STEP0 = 0.1
SHRINK = 0.5
GROW = 1.3
MAX_STEP = 1e3
MIN_STEP = 1e-14
ARMIJO = 1e-4


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


def cached_objective(forward, backward):
    """``value_and_grad(x, need_grad)`` built from a forward and a backward.

    ``forward(x)`` returns ``(f, state)``; ``backward(state)`` returns the
    gradient at the same x.  The callable keeps a copy of the last x, which
    is what ``forward`` is given, with its f and state.  A gradient request
    at an equal x passes the kept state to ``backward`` and lets go of it;
    any other x drops the kept state before the new forward runs, so two
    forward states are never alive at once.  A numerical failure in either
    half (:data:`_NUMERICAL_FAILURES`) or a gradient with a non-finite
    entry returns ``(-inf, None)``.
    """
    last = {}   # x, f and, until a backward takes it, state

    def value_and_grad(x, need_grad=True):
        reuse = ("x" in last and np.array_equal(x, last["x"])
                 and ("state" in last or not need_grad))
        if not reuse:
            last.clear()    # the old state goes before the new forward runs
            # the forward gets a private copy: its state may hold views of
            # x, and the caller may change its array afterwards
            x = np.array(x, dtype=float)
            try:
                f, state = forward(x)
            except _NUMERICAL_FAILURES:
                return -np.inf, None
            last.update(x=x, f=f, state=state)
            del state       # the kept copy is the only reference
        if not need_grad:
            return last["f"], None
        try:
            g = backward(last.pop("state"))
        except _NUMERICAL_FAILURES:
            return -np.inf, None
        if not np.all(np.isfinite(g)):
            return -np.inf, None
        return last["f"], g

    return value_and_grad


def ascend(value_and_grad, x0, iters):
    """Maximize ``f`` given ``value_and_grad(x, need_grad) -> (f, g or None)``.

    Line-search trial points are evaluated with ``need_grad=False`` so that
    implementations can skip the expensive backward pass there; the gradient
    is then requested at the accepted trial point, which
    :func:`cached_objective` serves from that trial's forward.  When that
    gradient fails (``g`` is None), the ascent stops at the accepted point
    with the line search's value for it.

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
    trace = [float(f)]
    step = STEP0
    for _ in range(int(iters)):
        gnorm_sq = float(np.dot(g, g))
        if gnorm_sq == 0.0:
            break

        def search(s):
            while s >= MIN_STEP:
                x_new = x + s * g
                f_new, _ = value_and_grad(x_new, False)
                if np.isfinite(f_new) and f_new >= f + ARMIJO * s * gnorm_sq:
                    return s, x_new, f_new
                s *= SHRINK
            return None

        accepted = search(step)
        if accepted is None and step < STEP0:
            # the carried step may have shrunk past a rough patch; retry fresh
            accepted = search(STEP0)
        if accepted is None:
            break
        step_acc, x, f = accepted
        _, g = value_and_grad(x, True)
        trace.append(float(f))
        if g is None:
            break       # no gradient at the accepted point: stop there
        step = min(step_acc * GROW, MAX_STEP)
    return x, np.asarray(trace)
