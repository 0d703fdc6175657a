"""The line search's objective: one forward per accepted step, same trajectory."""

import weakref

import numpy as np
import pytest

from dgpuq import deepgp, gp, gplvm
from dgpuq.optimize import ascend, cached_objective
from helpers import recomputing_objective


class _State:
    """Forward state of the quadratic below; weak-referenceable."""

    def __init__(self, x):
        self.x = x.copy()


class Quadratic:
    """f(x) = -|x - c|^2 split into halves that count their calls."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.forwards = 0
        self.backwards = 0
        self.states = []

    def forward(self, x):
        # the helper must have dropped every earlier state before this call
        assert all(ref() is None for ref in self.states)
        self.forwards += 1
        state = _State(x)
        self.states.append(weakref.ref(state))
        return -float(np.sum((x - self.c) ** 2)), state

    def backward(self, state):
        self.backwards += 1
        return -2.0 * (state.x - self.c)

    def fresh(self, x):
        return -float(np.sum((x - self.c) ** 2)), -2.0 * (x - self.c)


class TestCachedObjective:
    def test_gradient_at_the_last_point_reuses_its_forward(self):
        q = Quadratic([1.0, -2.0])
        vg = cached_objective(q.forward, q.backward)
        x = np.array([0.5, 0.5])
        f_val, g_none = vg(x, False)
        f, g = vg(x.copy(), True)
        assert g_none is None
        assert (q.forwards, q.backwards) == (1, 1)
        f_ref, g_ref = q.fresh(x)
        assert f == f_val == f_ref
        np.testing.assert_array_equal(g, g_ref)
        # the consumed state is released by the helper as well
        assert q.states[0]() is None

    @pytest.mark.parametrize("change", ["in_place", "new_array"])
    def test_stale_state_is_not_reused(self, change):
        q = Quadratic([1.0, -2.0, 0.25])
        vg = cached_objective(q.forward, q.backward)
        x = np.array([0.5, 0.5, 0.5])
        vg(x, False)
        if change == "in_place":
            x[1] += 0.75
        else:
            x = x + np.array([0.0, 0.75, 0.0])
        f, g = vg(x, True)
        f_ref, g_ref = q.fresh(x)
        assert f == f_ref
        np.testing.assert_array_equal(g, g_ref)
        assert q.forwards == 2

    def test_state_that_aliases_the_point_survives_a_caller_change(self):
        c = np.array([2.0, -1.0])
        vg = cached_objective(lambda x: (-float(np.sum((x - c) ** 2)), x),
                              lambda x: -2.0 * (x - c))
        x = np.array([0.5, 0.5])
        x_kept = x.copy()
        vg(x, False)
        x[:] = 9.0                   # the caller reuses its array
        f, g = vg(x_kept, True)
        np.testing.assert_array_equal(g, -2.0 * (x_kept - c))

    def test_a_second_gradient_request_runs_the_forward_again(self):
        q = Quadratic([3.0])
        vg = cached_objective(q.forward, q.backward)
        x = np.array([1.0])
        g1 = vg(x, True)[1]
        g2 = vg(x, True)[1]
        np.testing.assert_array_equal(g1, g2)
        assert (q.forwards, q.backwards) == (2, 2)

    def test_ascent_never_holds_two_states(self):
        q = Quadratic(np.linspace(-1.0, 1.0, 5))
        x, trace = ascend(cached_objective(q.forward, q.backward), np.zeros(5), 20)
        assert np.all(np.diff(trace) >= 0.0)
        assert q.backwards == len(trace)
        assert sum(ref() is not None for ref in q.states) <= 1

    @pytest.mark.parametrize("half", ["forward", "backward"])
    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError, FloatingPointError,
                                     ValueError])
    def test_numerical_failure_is_minus_inf(self, half, exc):
        q = Quadratic([0.0])

        def fail(*args):
            raise exc("numerical failure")

        halves = {"forward": q.forward, "backward": q.backward, half: fail}
        vg = cached_objective(halves["forward"], halves["backward"])
        assert vg(np.array([1.0]), True) == (-np.inf, None)

    def test_programming_errors_propagate(self):
        def broken(x):
            raise TypeError("shape bug")

        vg = cached_objective(broken, None)
        with pytest.raises(TypeError):
            vg(np.array([1.0]), False)


# ---------------------------------------------------------------------------
# The three trainers' objectives
# ---------------------------------------------------------------------------

_rng = np.random.default_rng(3)
X = _rng.uniform(0.0, 1.0, (24, 2))
Y = np.column_stack([np.sin(2.0 * np.pi * X[:, 0]), X[:, 0] * X[:, 1],
                     np.cos(np.pi * X[:, 1])]) + 0.05 * _rng.standard_normal((24, 3))

# module whose ascend runs the objective, the function that marks one
# forward of that objective, and a small training run
TRAINERS = {
    "gp": (gp, "_build", lambda: gp.fit(X, Y, iters=25)),
    "gplvm": (gplvm, "layer_bound",
              lambda: gplvm.train_gplvm(Y, 2, 8, iters=30, seed=1)),
    "deepgp": (deepgp, "_first_latent_forward",
               lambda: deepgp.train_deep(X, Y, dims=[2, 2], m_inducing=[8, 8],
                                         iters=12, init_iters=20, seed=1)),
}


def _spy_ascend(mp, module, forwards=None):
    """Record each ``module.ascend`` call's result and its counts.

    The counts follow the benchmark tracer's protocol: every call of the
    objective is a value or a gradient evaluation by its ``need_grad``.
    """
    runs = []
    real = module.ascend

    def spied(value_and_grad, x0, *args, **kwargs):
        counts = {"value_evals": 0, "grad_evals": 0}

        def counted(x, need_grad=True):
            counts["grad_evals" if need_grad else "value_evals"] += 1
            return value_and_grad(x, need_grad)

        start = forwards[0] if forwards else 0
        x, trace = real(counted, x0, *args, **kwargs)
        counts["accepted"] = len(trace) - 1
        counts["forwards"] = (forwards[0] if forwards else 0) - start
        runs.append({"x0": np.array(x0), "x": x, "trace": trace, **counts})
        return x, trace

    mp.setattr(module, "ascend", spied)
    return runs


@pytest.mark.parametrize("name", list(TRAINERS))
def test_trajectory_matches_recomputing_reference(monkeypatch, name):
    module, _, train = TRAINERS[name]
    results = {}
    for reference in (False, True):
        with monkeypatch.context() as mp:
            runs = _spy_ascend(mp, module)
            if reference:
                mp.setattr(module, "cached_objective", recomputing_objective)
            train()
        results[reference] = runs
    cached, recomputed = results[False], results[True]
    assert len(cached) == len(recomputed) > 0
    # the line search rejected trial points on the way
    assert sum(r["value_evals"] - r["accepted"] for r in cached) > 0
    for a, b in zip(cached, recomputed):
        np.testing.assert_array_equal(a["x"], b["x"])
        np.testing.assert_array_equal(a["trace"], b["trace"])


@pytest.mark.parametrize("name", list(TRAINERS))
def test_one_forward_per_value_evaluation(monkeypatch, name):
    module, forward_name, train = TRAINERS[name]
    forwards = [0]
    real_forward = getattr(module, forward_name)

    def counted_forward(*args, **kwargs):
        forwards[0] += 1
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(module, forward_name, counted_forward)
    runs = _spy_ascend(monkeypatch, module, forwards)
    train()
    assert runs
    for r in runs:
        assert r["accepted"] > 0
        # the initial point, then one forward per line-search trial: each
        # accepted trial's gradient reuses that trial's forward
        assert r["forwards"] == r["value_evals"] + 1
        # one gradient at the start and one per accepted step
        assert r["grad_evals"] == r["accepted"] + 1


@pytest.mark.parametrize("name", list(TRAINERS))
def test_trainer_gradient_after_a_changed_point_is_fresh(monkeypatch, name):
    module, _, train = TRAINERS[name]
    pairs = []
    real = module.cached_objective

    def capturing(forward, backward):
        pairs.append((forward, backward))
        return real(forward, backward)

    with monkeypatch.context() as mp:
        runs = _spy_ascend(mp, module)
        mp.setattr(module, "cached_objective", capturing)
        train()
    forward, backward = pairs[-1]
    x = runs[-1]["x0"].copy()
    vg = cached_objective(forward, backward)
    vg(x, False)
    x[0] += 1e-2                          # in place, after the value call
    f, g = vg(x, True)
    f_ref, state = forward(x.copy())
    assert f == f_ref
    np.testing.assert_array_equal(g, backward(state))
