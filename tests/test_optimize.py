"""The line search's objective: one forward per accepted step, same trajectory."""

import weakref

import numpy as np
import pytest

from dgpuq import deepgp, gp, gplvm
from dgpuq.kernels import ARDParams, RBFParams, gram
from dgpuq.optimize import BlockSpec, ascend, cached_objective
from dgpuq.rng import rng_for
from helpers import (recomputing_objective, hand_pack_theta, hand_unpack_theta,
                     hand_gplvm_pack, hand_gplvm_unpack, hand_gplvm_grad,
                     hand_pack_params, hand_unpack_params, hand_grad_vector)


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
                                     OverflowError])
    def test_numerical_failure_is_minus_inf(self, half, exc):
        q = Quadratic([0.0])

        def fail(*args):
            raise exc("numerical failure")

        halves = {"forward": q.forward, "backward": q.backward, half: fail}
        vg = cached_objective(halves["forward"], halves["backward"])
        assert vg(np.array([1.0]), True) == (-np.inf, None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_is_minus_inf(self, bad):
        q = Quadratic([0.0])
        vg = cached_objective(q.forward, lambda state: np.array([bad]))
        assert vg(np.array([1.0]), True) == (-np.inf, None)
        # the value alone is still served
        assert vg(np.array([1.0]), False) == (-1.0, None)

    def test_failed_gradient_at_an_accepted_point_stops_there(self):
        q = Quadratic([1.0, -2.0, 0.5])
        accepted = []

        def backward(state):
            if q.backwards == 1:            # the first accepted step
                accepted.append(state.x)
                raise FloatingPointError("non-finite gradient")
            return q.backward(state)

        x, trace = ascend(cached_objective(q.forward, backward), np.ones(3), 5)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= 0.0)
        assert len(trace) == 2 and len(accepted) == 1
        np.testing.assert_array_equal(x, accepted[0])
        assert trace[-1] == q.fresh(x)[0]

    def test_programming_errors_propagate(self):
        def broken(x):
            raise TypeError("shape bug")

        vg = cached_objective(broken, None)
        with pytest.raises(TypeError):
            vg(np.array([1.0]), False)

    @pytest.mark.parametrize("half", ["forward", "backward"])
    def test_value_error_propagates(self, half):
        # bad input or a shape bug, not a trial outside the feasible region
        q = Quadratic([0.0])

        def fail(*args):
            raise ValueError("operands could not be broadcast together")

        halves = {"forward": q.forward, "backward": q.backward, half: fail}
        vg = cached_objective(halves["forward"], halves["backward"])
        with pytest.raises(ValueError, match="broadcast"):
            vg(np.array([1.0]), True)


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


def _gp_case(mp):
    y_var = float(np.var(Y))     # fit's start: median heuristic, 1 % noise
    kern = RBFParams(y_var, gp._median_heuristic(X))
    runs = _capture_ascend(mp, gp)
    built = []                  # the (kernel, noise_var) of each forward
    real_build = gp._build
    mp.setattr(gp, "_build", lambda k, nv, *args: built.append((k, nv))
               or real_build(k, nv, *args))
    gp.fit(X, Y, iters=2)
    x0, vg = runs[0]

    def new(x):
        g = vg(x, True)[1]
        k, nv = built[-1]
        return [k.sigma_h_sq, k.weights, nv], g

    def hand(x):
        k, nv = hand_unpack_theta(x)
        grads = gp.log_marginal_grad(gp.build_model(k, nv, X, Y),
                                     gram(X, X, k))
        return [k.sigma_h_sq, k.weights, nv], np.concatenate(
            [[grads[0]], grads[1], [grads[2]]])

    return x0, hand_pack_theta(kern, 0.01 * y_var), new, hand


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
    vg = runs[0][1]

    def new(x):
        return _model_params(deepgp.unpack_params(model, x)), vg(x, True)[1]

    def hand(x):
        m = hand_unpack_params(model, x)
        g = deepgp._deep_backward(deepgp._deep_forward(m)[1])
        return _model_params(m), hand_grad_vector(g, m.n_latents)

    return x0, hand_pack_params(model), new, hand


SPEC_CASES = {
    "gp_theta": _gp_case,
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
