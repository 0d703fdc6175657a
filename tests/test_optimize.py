"""The line search's objective: one forward per accepted step, same trajectory."""

import weakref

import numpy as np
import pytest

from dgpuq import deepgp, gplvm, optimize
from dgpuq.kernels import ARDParams
from dgpuq.optimize import BlockSpec, Objective, ascend
from dgpuq.rng import rng_for
from helpers import (RecomputingObjective, spy_ascend, hand_gplvm_pack,
                     hand_gplvm_unpack, hand_gplvm_grad, hand_pack_params,
                     hand_unpack_params, hand_grad_vector)


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
        vg = Objective(q.forward, q.backward)
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
        vg = Objective(q.forward, q.backward)
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
        vg = Objective(lambda x: (-float(np.sum((x - c) ** 2)), x),
                       lambda x: -2.0 * (x - c))
        x = np.array([0.5, 0.5])
        x_kept = x.copy()
        vg(x, False)
        x[:] = 9.0                   # the caller reuses its array
        f, g = vg(x_kept, True)
        np.testing.assert_array_equal(g, -2.0 * (x_kept - c))

    def test_a_second_gradient_request_runs_the_forward_again(self):
        q = Quadratic([3.0])
        vg = Objective(q.forward, q.backward)
        x = np.array([1.0])
        g1 = vg(x, True)[1]
        g2 = vg(x, True)[1]
        np.testing.assert_array_equal(g1, g2)
        assert (q.forwards, q.backwards) == (2, 2)

    def test_ascent_never_holds_two_states(self):
        q = Quadratic(np.linspace(-1.0, 1.0, 5))
        x, trace = ascend(Objective(q.forward, q.backward), np.zeros(5), 20)
        assert np.all(np.diff(trace) >= 0.0)
        assert q.backwards == len(trace)
        assert sum(ref() is not None for ref in q.states) <= 1

    @pytest.mark.parametrize("half", ["forward", "backward"])
    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError, FloatingPointError,
                                     OverflowError])
    def test_numerical_failure_is_minus_inf(self, half, exc):
        q = Quadratic([0.0])

        def fail(*args):
            raise exc("numerical failure")

        halves = {"forward": q.forward, "backward": q.backward, half: fail}
        vg = Objective(halves["forward"], halves["backward"])
        assert vg(np.array([1.0]), True) == (-np.inf, None)
        assert (vg.failed, vg.failure) == (1, "numerical failure")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_is_minus_inf(self, bad):
        q = Quadratic([0.0])
        vg = Objective(q.forward, lambda state: np.array([bad]))
        assert vg(np.array([1.0]), True) == (-np.inf, None)
        assert (vg.failed, vg.failure) == (1, "its gradient is not finite")
        # the value alone is still served
        assert vg(np.array([1.0]), False) == (-1.0, None)
        assert vg.failed == 1

    def test_failed_trial_is_counted_and_named_in_the_record(self):
        # f(x) = -(x - 1)^2 whose forward fails beyond x = 0.5: the unit
        # step's trial fails and the next, at 0.5, is accepted
        q = Quadratic([1.0])

        def forward(x):
            if x[0] > 0.5:
                raise np.linalg.LinAlgError("dpotrf failed with info=3")
            return q.forward(x)

        vg = Objective(forward, q.backward)
        _, trace = ascend(vg, np.zeros(1), 1)
        assert [vg.value_evals, vg.grad_evals] == [2, 2]
        assert vg.failure == "dpotrf failed with info=3"
        record = vg.record(1, trace)
        assert (record["failed"], record["accepted"]) == (1, 1)
        assert record["failure"] == "dpotrf failed with info=3"

    def test_failed_gradient_at_an_accepted_point_stops_there(self):
        q = Quadratic([1.0, -2.0, 0.5])
        accepted = []

        def backward(state):
            if q.backwards == 1:            # the first accepted step
                accepted.append(state.x)
                raise FloatingPointError("non-finite gradient")
            return q.backward(state)

        x, trace = ascend(Objective(q.forward, backward), np.ones(3), 5)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= 0.0)
        assert len(trace) == 2 and len(accepted) == 1
        np.testing.assert_array_equal(x, accepted[0])
        assert trace[-1] == q.fresh(x)[0]

    def test_programming_errors_propagate(self):
        def broken(x):
            raise TypeError("shape bug")

        vg = Objective(broken, None)
        with pytest.raises(TypeError):
            vg(np.array([1.0]), False)

    @pytest.mark.parametrize("half", ["forward", "backward"])
    def test_value_error_propagates(self, half):
        # bad input or a shape bug, not a trial outside the feasible region
        q = Quadratic([0.0])

        def fail(*args):
            raise ValueError("operands could not be broadcast together")

        halves = {"forward": q.forward, "backward": q.backward, half: fail}
        vg = Objective(halves["forward"], halves["backward"])
        with pytest.raises(ValueError, match="broadcast"):
            vg(np.array([1.0]), True)


# ---------------------------------------------------------------------------
# The two trainers' objectives
# ---------------------------------------------------------------------------

_rng = np.random.default_rng(3)
X = _rng.uniform(0.0, 1.0, (24, 2))
Y = np.column_stack([np.sin(2.0 * np.pi * X[:, 0]), X[:, 0] * X[:, 1],
                     np.cos(np.pi * X[:, 1])]) + 0.05 * _rng.standard_normal((24, 3))

# module whose ascend runs the objective, the functions each of which marks
# one forward of an objective that ascend runs, and a small training run
# whose line searches reject some trial; deepgp.ascend runs only
# train_deep's joint phase: its greedy GP-LVM fits ascend through
# gplvm.ascend.  The deepgp run rejects trials in three of its five ascents
# (2, 3 and 4 of them) on OpenBLAS's Haswell and SkylakeX kernels alike
TRAINERS = {
    "gplvm": (gplvm, ("layer_bound",),
              lambda: gplvm.train_gplvm(Y, 2, 8, iters=30, seed=1)),
    "deepgp": (deepgp, ("_first_latent_forward",),
               lambda: deepgp.train_deep(X, Y, dims=[2, 2], m_inducing=[8, 8],
                                         iters=60, init_iters=40, seed=3)),
}


@pytest.mark.parametrize("name", list(TRAINERS))
def test_trajectory_matches_recomputing_reference(monkeypatch, name):
    module, _, train = TRAINERS[name]
    results = {}
    for reference in (False, True):
        with monkeypatch.context() as mp:
            runs = []
            for spied in dict.fromkeys((gplvm, module)):    # every ascent
                spy_ascend(mp, spied, runs)
                if reference:
                    mp.setattr(spied, "Objective", RecomputingObjective)
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
    module, forward_names, train = TRAINERS[name]
    forwards = [0]
    for forward_name in forward_names:
        def counted_forward(*args, _real=getattr(module, forward_name), **kwargs):
            forwards[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, forward_name, counted_forward)
    runs = spy_ascend(monkeypatch, module, forwards=forwards)
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
    real = module.Objective

    def capturing(forward, backward):
        pairs.append((forward, backward))
        return real(forward, backward)

    with monkeypatch.context() as mp:
        runs = spy_ascend(mp, module)
        mp.setattr(module, "Objective", capturing)
        train()
    forward, backward = pairs[-1]
    x = runs[-1]["x0"].copy()
    vg = Objective(forward, backward)
    vg(x, False)
    x[0] += 1e-2                          # in place, after the value call
    f, g = vg(x, True)
    f_ref, state = forward(x.copy())
    assert f == f_ref
    np.testing.assert_array_equal(g, backward(state))


# ---------------------------------------------------------------------------
# The block spec against the hand-indexed packers
# ---------------------------------------------------------------------------

def _capture_ascend(mp, module):
    """Record each ``module.ascend`` call's x0 and objective."""
    runs = []
    real = module.ascend

    def spied(value_and_grad, x0, *args, **kwargs):
        runs.append((np.array(x0), value_and_grad))
        return real(value_and_grad, x0, *args, **kwargs)

    mp.setattr(module, "ascend", spied)
    return runs


def _model_params(model):
    il = model.input_layer
    out = [il.kernel.sigma_h_sq, il.kernel.weights, il.noise_var, il.mu_bar,
           il.lam]
    for layer in model.hidden_layers:
        out += [layer.inducing.inputs, layer.kernel.sigma_h_sq,
                layer.kernel.weights, layer.beta]
    for layer in model.hidden_layers[1:]:
        out += [layer.latent.means, layer.latent.variances]
    return out


def _gplvm_case(mp, run):
    n, (q, m), seed = Y.shape[0], (2, 8), 1
    runs = _capture_ascend(mp, gplvm)
    gplvm.train_gplvm(Y, q, m, iters=6, seed=seed)
    x0, vg = runs[0][0], runs[run][1]
    rng = rng_for(seed)
    mu0 = gplvm._pca_latent(Y, q, rng)
    Z0 = mu0[np.sort(rng.choice(n, size=m, replace=False))]
    y_var = float(np.var(Y))

    def new(x):
        st = gplvm._layer_state(gplvm._spec(n, q, m).unpack(x))
        return [st.latent.means, st.latent.variances, st.inducing.inputs,
                st.kernel.sigma_h_sq, st.kernel.weights, st.beta], vg(x, True)[1]

    def hand(x):
        mu_bar, lam, Z, kern, beta = hand_gplvm_unpack(x, n, q, m)
        st = gplvm.LayerState(kern, beta, gplvm.VariationalLatent(
            mu_bar, 1.0 / (1.0 + lam)), gplvm.InducingSet(inputs=Z))
        return ([mu_bar, 1.0 / (1.0 + lam), Z, kern.sigma_h_sq, kern.weights,
                 beta], hand_gplvm_grad(
                    gplvm._elbo_backward(gplvm._elbo_forward(st, Y)[1]), lam,
                    kern, beta, freeze_beta=run == 0))

    return x0, hand_gplvm_pack(mu0, np.full((n, q), 9.0), Z0,
                               ARDParams(y_var, np.ones(q)), 100.0 / y_var), new, hand


def _deep_case(mp):
    runs = _capture_ascend(mp, deepgp)
    model = deepgp.train_deep(X, Y, dims=[2, 2], m_inducing=[6, 6],
                              iters=2, init_iters=6, seed=1)
    x0 = deepgp.pack_params(model)
    (_, vg), = runs             # the joint phase

    def new(x):
        return _model_params(deepgp.unpack_params(model, x)), vg(x, True)[1]

    def hand(x):
        m = hand_unpack_params(model, x)
        g = deepgp._deep_backward(deepgp._deep_forward(m)[1])
        return _model_params(m), hand_grad_vector(g, m.n_latents)

    return x0, hand_pack_params(model), new, hand


SPEC_CASES = {
    "gplvm_frozen_beta": lambda mp: _gplvm_case(mp, 0),
    "gplvm": lambda mp: _gplvm_case(mp, 1),
    "deep_two_layers": _deep_case,
}


@pytest.mark.parametrize("case", list(SPEC_CASES))
def test_spec_layout_matches_the_hand_packers(monkeypatch, case):
    x, x_hand, new, hand = SPEC_CASES[case](monkeypatch)
    assert np.array_equal(x, x_hand)
    x = x + 1e-3 * np.random.default_rng(5).standard_normal(x.size)
    params, grad = new(x)
    params_hand, grad_hand = hand(x)
    assert len(params) == len(params_hand)
    for a, b in zip(params, params_hand):
        assert np.array_equal(a, b)
    assert np.array_equal(grad, grad_hand)


def test_spec_unpack_rejects_a_bad_vector():
    spec = BlockSpec([("a", (2, 3), False), ("b", (), True)])
    x = spec.pack({"a": np.arange(6.0).reshape(2, 3), "b": 2.0})
    np.testing.assert_array_equal(spec.unpack(x)["a"], np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError):
        spec.unpack(x[:-1])
    x[-1] = 800.0               # exp(800) overflows
    with pytest.raises(FloatingPointError):
        spec.unpack(x)


def test_spec_unpack_rejects_an_exp_that_gives_zero():
    # exp(-800) underflows to 0.0, which no log block can hold
    with pytest.raises(FloatingPointError):
        BlockSpec([("beta", (), True)]).unpack(np.array([-800.0]))


class Logged:
    """A hand-built ``value_and_grad`` over ``fn(x) -> (f, g)`` that logs
    each call's point and ``need_grad``."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, x, need_grad):
        self.calls.append((np.array(x), need_grad))
        f, g = self.fn(x)
        return f, (g if need_grad else None)

    def counts(self):
        """(value-only evaluations, gradient evaluations)."""
        grads = sum(need for _, need in self.calls)
        return len(self.calls) - grads, grads


class TestAscendStops:
    """The rules that end an ascent, on hand-built objectives."""

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_non_finite_start_raises(self, bad):
        vg = Logged(lambda x: (bad, None))
        with pytest.raises(FloatingPointError, match="initial point"):
            ascend(vg, np.zeros(2), 5)
        assert vg.counts() == (0, 1)

    def test_zero_gradient_stops_at_the_start(self):
        c = np.array([1.0, -2.0])
        vg = Logged(lambda x: (-float(np.sum((x - c) ** 2)), -2.0 * (x - c)))
        x, trace = ascend(vg, c, 5)
        np.testing.assert_array_equal(x, c)
        np.testing.assert_array_equal(trace, [0.0])
        assert vg.counts() == (0, 1)

    def test_no_armijo_step_stops_at_the_last_accepted_point(self):
        # a tent with its peak at 1: the first trial, the unit step along
        # g/|g| = 1, lands on the peak; every later trial falls on the far
        # slope
        vg = Logged(lambda x: (float(x[0]), np.ones(1)) if x[0] <= 1.0
                    else (2.0 - float(x[0]), -np.ones(1)))
        x, trace = ascend(vg, np.zeros(1), 5)
        np.testing.assert_array_equal(x, [1.0])
        np.testing.assert_array_equal(trace, [0.0, 1.0])
        assert np.all(np.diff(trace) >= 0.0)
        # the gradient did not change, so no curvature pair is kept: the
        # next search runs along g/|g| again from the unit step.  The
        # quadratic through f = 1, slope 1 and f(1 + t) = 1 - t peaks at
        # t/4, so each trial quarters the step until it is below MIN_STEP,
        # and the search is not retried
        steps, s = [], 1.0
        while s >= optimize.MIN_STEP:
            steps.append(s)
            s /= 4.0
        trials = [x[0] for x, need in vg.calls[3:]]
        assert trials == [1.0 + s for s in steps]
        assert vg.counts() == (1 + len(steps), 2)
        assert len(steps) == 24

    def test_trial_that_is_not_finite_halves_the_step(self):
        # f(x) = x up to 0.3 and -inf beyond: no quadratic to fit, so the
        # unit step halves until the trial is feasible
        vg = Logged(lambda x: (float(x[0]) if x[0] <= 0.3 else -np.inf,
                               np.ones(1)))
        x, trace = ascend(vg, np.zeros(1), 1)
        assert [x[0] for x, need in vg.calls if not need] == [1.0, 0.5, 0.25]
        np.testing.assert_array_equal(x, [0.25])
        np.testing.assert_array_equal(trace, [0.0, 0.25])

    def test_failed_quasi_newton_search_restarts_along_the_gradient(self):
        # f = -(x - c).A.(x - c), and -inf beyond the line through the first
        # accepted point x1 with normal n = (-1, 4).  The L-BFGS direction
        # at x1 (19 degrees) points across that line and the gradient (9
        # degrees) does not, so every L-BFGS trial is infeasible and halves
        # the step down to MIN_STEP; the memory is then cleared and the
        # unit step along g/|g| is taken
        A, c, n = np.diag([1.0, 10.0]), np.array([3.0, 1.0]), np.array([-1.0, 4.0])
        g0 = 2.0 * A @ c
        x1 = g0 / np.sqrt(g0 @ g0)

        def fn(x):
            if (x - x1) @ n > 0.0:
                return -np.inf, None
            return -float((x - c) @ A @ (x - c)), -2.0 * A @ (x - c)

        vg = Logged(fn)
        x, trace = ascend(vg, np.zeros(2), 2)
        trials = [(z, fn(z)[0]) for z, need in vg.calls[3:] if not need]
        halvings = int(np.floor(np.log2(1.0 / optimize.MIN_STEP))) + 1
        assert len(trials) == halvings + 1
        assert all(f == -np.inf for _, f in trials[:-1])
        g1 = fn(x1)[1]
        np.testing.assert_array_equal(trials[-1][0], x1 + g1 / np.sqrt(g1 @ g1))
        np.testing.assert_array_equal(x, trials[-1][0])
        np.testing.assert_array_equal(trace, [fn(z)[0] for z in
                                              (np.zeros(2), x1, x)])

    def test_quadratic_converges_within_a_few_dozen_steps(self):
        # f = b.x - x.A.x/2 in 20 dimensions, A of condition 1e2 in a random
        # basis: L-BFGS stops by its own rule near the maximizer A^-1 b,
        # well inside its budget
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        A = (Q * np.logspace(0.0, 2.0, 20)) @ Q.T
        b = rng.standard_normal(20)
        x_star = np.linalg.solve(A, b)
        vg = Logged(lambda x: (float(b @ x - 0.5 * x @ A @ x), b - A @ x))
        x, trace = ascend(vg, np.zeros(20), 200)
        assert len(trace) - 1 <= 60
        assert np.all(np.diff(trace) >= 0.0)
        assert np.linalg.norm(x - x_star) <= 1e-4 * np.linalg.norm(x_star)

    def test_step_of_negligible_gain_stops_the_ascent(self):
        # a smooth concave f: the gains shrink as the steps close in on the
        # maximizer c, and the ascent stops after the first whose gain is
        # at most FTOL of the total, long before its budget
        c = np.array([1.0, -2.0])
        vg = Logged(lambda x: (-float(np.sum(np.cosh(x - c))),
                               -np.sinh(x - c)))
        x, trace = ascend(vg, np.zeros(2), 1000)
        gains = np.diff(trace)
        total = trace - trace[0]
        assert len(trace) - 1 < 100
        assert gains[-1] <= optimize.FTOL * total[-1]
        assert np.all(gains[:-1] > optimize.FTOL * total[1:-1])
        np.testing.assert_allclose(x, c, atol=1e-4)


class TestStopReason:
    """``Objective.record`` names why :func:`ascend` stopped, one reason per
    hand-built objective ``fn(x) -> (f, g)``."""

    @staticmethod
    def stop(fn, x0, budget):
        objective = Objective(lambda x: (fn(x)[0], x), lambda x: fn(x)[1])
        _, trace = ascend(objective, np.asarray(x0, dtype=float), budget)
        return objective.record(budget, trace)["stop"]

    def test_budget(self):
        c = np.array([1.0, -2.0])
        assert self.stop(lambda x: (-float(np.sum(np.cosh(x - c))),
                                    -np.sinh(x - c)), np.zeros(2), 3) == "budget"

    def test_converged(self):
        c = np.array([1.0, -2.0])
        assert self.stop(lambda x: (-float(np.sum(np.cosh(x - c))),
                                    -np.sinh(x - c)),
                         np.zeros(2), 1000) == "converged"

    def test_no_step(self):
        # the tent of TestAscendStops: no trial beyond the peak passes
        assert self.stop(lambda x: (float(x[0]), np.ones(1)) if x[0] <= 1.0
                         else (2.0 - float(x[0]), -np.ones(1)),
                         np.zeros(1), 5) == "no step"

    def test_zero_gradient(self):
        c = np.array([1.0, -2.0])
        assert self.stop(lambda x: (-float(np.sum((x - c) ** 2)),
                                    -2.0 * (x - c)), c, 5) == "zero gradient"

    def test_gradient_failed(self):
        # f(x) = x with a gradient that is not finite beyond x = 0.5: the
        # first step is accepted and its gradient fails
        assert self.stop(lambda x: (float(x[0]),
                                    np.ones(1) if x[0] <= 0.5
                                    else np.full(1, np.nan)),
                         np.zeros(1), 5) == "gradient failed"
