"""The benchmark's three workloads and the metrics they report.

Every workload has a set-up, a timed pass of three stages and a set of
correctness checks.  The stages fill the same three roles everywhere:

* ``build``   - the offline cost: ``gen-data`` (mc-64), ``train``
  (surrogate-32), the fixed joint-bound sequence (paper-700);
* ``predict`` - outputs at given inputs: re-solving dataset inputs with the
  Darcy solver (mc-64), ``predict`` (surrogate-32), ``deepgp.predict``
  (paper-700);
* ``uq``      - the output statistics: ``mc-baseline`` (mc-64), ``uq``
  (surrogate-32), ``uq.uq_report`` (paper-700).

CLI stages run in-process through ``dgpuq.cli.main(argv)``, so their
outputs are the CLI's real files.  Library entry points are looked up as
module attributes at call time, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("mc-64", "surrogate-32", "paper-700")
ROLES = ("build", "predict", "uq")


def ensure_source():
    """Put the checkout's ``src`` on the path; fail if it is not there."""
    if not (SRC / "dgpuq" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dgpuq sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


ensure_source()

import numpy as np  # noqa: E402

from dgpuq import cli, darcy, deepgp, io, uq  # noqa: E402
from dgpuq.deepgp import DeepGPModel, InputLayer  # noqa: E402
from dgpuq.gplvm import InducingSet, LayerState, VariationalLatent  # noqa: E402
from dgpuq.kernels import ARDParams, RBFParams, gram, pairwise_sqdist  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402

PDF_AT = "0.5,0.5"

# short stages run this many times per pass and report the median; the
# 2-second paper-scale predict runs fewer times to keep the run short
SHORT_REPEATS = 5
PAPER_PREDICT_REPEATS = 3

# a probe taken this recently (seconds) still stands for the machine's speed
PROBE_REUSE_S = 0.5


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    grid: int
    out_grid: int
    kle: int
    n: int                  # training / dataset samples
    held: int = 0           # held-out or re-solved samples
    mc: int = 0             # plain-MC samples
    dims: str = ""
    inducing: str = ""
    init_iters: int = 0
    iters: int = 0
    inner: int = 120
    repeats: int = 0
    warm_grid: int = 32


SIZES = {
    "mc-64": Sizes(grid=64, out_grid=32, kle=50, n=200, held=20, mc=60),
    "surrogate-32": Sizes(grid=32, out_grid=16, kle=50, n=150, held=200,
                          mc=1000, dims="8,8", inducing="30,30",
                          init_iters=40, iters=10, repeats=50),
    "paper-700": Sizes(grid=64, out_grid=32, kle=50, n=700, held=200,
                       dims="30,30", inducing="50,50", repeats=10),
}

# seconds-long sizes for the smoke tests
TINY = {
    "mc-64": Sizes(grid=8, out_grid=4, kle=5, n=6, held=3, mc=6, warm_grid=8),
    "surrogate-32": Sizes(grid=8, out_grid=4, kle=5, n=24, held=6, mc=12,
                          dims="2,2", inducing="5,5", init_iters=4, iters=2,
                          inner=8, repeats=2),
    "paper-700": Sizes(grid=8, out_grid=4, kle=5, n=24, held=6, dims="3,3",
                       inducing="5,5", inner=8, repeats=2),
}


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------

class Run:
    """State of one benchmark run: seeds, work directory, checks, stages."""

    def __init__(self, seed, sizes, work):
        self.seed = int(seed)
        self.sizes = sizes
        self.work = Path(work)
        # independent streams for the training set, the held-out set, the
        # MC reference and the UQ/probe draws, all derived from the seed
        train, held, mc, draw = np.random.SeedSequence(self.seed).spawn(4)
        self.seeds = {k: int(s.generate_state(1)[0] & 0x7FFFFFFF)
                      for k, s in (("train", train), ("held", held),
                                   ("mc", mc), ("draw", draw))}
        self.tracer = None
        self.probe = None
        self._probe_s, self._probe_at = None, -1e9
        self.raw = {}
        self.log = []
        self.attempted = 0
        self.failures = []
        self.quality = {}
        self.state = {}

    def path(self, *parts):
        return str(self.work.joinpath(*parts))

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @contextlib.contextmanager
    def stage(self, name):
        span = (self.tracer.stage(name) if self.tracer is not None
                else contextlib.nullcontext())
        with span:
            yield

    def timed(self, name, fn, *args, cal=True):
        """Run one stage; return (time, result).

        The time is in seconds, or, while ``probe`` is set and ``cal`` is
        true, in probe units: the stage's seconds over the mean probe time
        just before and after it.  The seconds are kept in ``raw`` always.
        """
        before = None
        if cal and self.probe is not None:
            recent = time.perf_counter() - self._probe_at < PROBE_REUSE_S
            before = self._probe_s if recent else self._measure_speed()
        with self.stage(name):
            t0 = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - t0
        self.raw.setdefault(name, []).append(seconds)
        self.log.append(("stage", name, t0, seconds))
        if before is None:
            return seconds, result
        return seconds / (0.5 * (before + self._measure_speed())), result

    def _measure_speed(self):
        self._probe_s = self.probe.seconds()
        self._probe_at = time.perf_counter()
        self.log.append(("probe", "", self._probe_at, self._probe_s))
        return self._probe_s

    def cli(self, name, argv, cal=True):
        """Run one CLI stage in-process; a nonzero exit is a failed check."""
        def call():
            with contextlib.redirect_stdout(sys.stderr):
                return cli.main([str(a) for a in argv])
        seconds, code = self.timed(name, call, cal=cal)
        if not self.check(f"{name} exits 0", code == 0):
            raise RuntimeError(f"{name} exited {code}")
        return seconds


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _gen_data(run, name, out, n, seed, grid=None, out_grid=None, cal=True):
    s = run.sizes
    return run.cli(name, ["gen-data", "--n", n,
                          "--grid", grid or s.grid,
                          "--out-grid", out_grid or s.out_grid,
                          "--kle", s.kle, "--seed", seed, "--out", out],
                   cal=cal)


def _rel_err(a, b):
    return float(np.linalg.norm(np.ravel(a) - np.ravel(b))
                 / np.linalg.norm(np.ravel(b)))


# ---------------------------------------------------------------------------
# mc-64: the plain Monte Carlo ground truth; no GP code runs
# ---------------------------------------------------------------------------

def mc64_setup(run):
    # warm-up at a small grid so that lazy imports and the solver's first
    # call are paid here, not in the timed gen-data
    s = run.sizes
    _fresh(run.path("warm"))
    _gen_data(run, "setup:gen-data", run.path("warm"), 20, run.seeds["held"],
              grid=s.warm_grid, out_grid=s.warm_grid // 2)
    run.cli("setup:mc-baseline", ["mc-baseline", "--kle-manifest",
                                  run.path("warm"), "--n", 20, "--seed",
                                  run.seeds["mc"], "--out", run.path("warm", "mc")])


def mc64_pass(run):
    s = run.sizes
    _fresh(run.path("pass"))
    data, mc = run.path("pass", "data"), run.path("pass", "mc")
    build = _gen_data(run, "gen-data", data, s.n, run.seeds["train"],
                      cal=False)
    uq_s = statistics.median(
        run.cli("mc-baseline", ["mc-baseline", "--kle-manifest", data,
                                "--n", s.mc, "--pdf-at", PDF_AT,
                                "--seed", run.seeds["mc"], "--out", mc])
        for _ in range(SHORT_REPEATS))
    info = io.load_kle_from_manifest(data)
    K = io.read_matrix(os.path.join(data, "K.dgpm"))[:s.held]

    def resolve():
        grid, out_grid = info["grid"], info["out_grid"]
        sols = [darcy.solve(grid, k, info["source"]) for k in K]
        p = np.vstack([darcy.restrict(sol.pressure, grid.nx, grid.ny,
                                      out_grid.nx, out_grid.ny) for sol in sols])
        return sols, p

    timings = [run.timed("resolve", resolve) for _ in range(SHORT_REPEATS)]
    predict_s = statistics.median(t for t, _ in timings)
    sols, p = timings[-1][1]
    run.state.update(info=info, K=K, sols=sols, p=p)
    return {"build": build, "predict": predict_s, "uq": uq_s}


def mc64_checks(run):
    data, mc = run.path("pass", "data"), run.path("pass", "mc")
    info, K, sols = run.state["info"], run.state["K"], run.state["sols"]
    p_data = io.read_matrix(os.path.join(data, "p.dgpm"))[:len(K)]
    run.check("re-solved pressure equals the dataset",
              np.array_equal(run.state["p"], p_data))
    centers = info["grid"].cell_centers()
    f = np.array([darcy.source_term(c, info["source"]) for c in centers])
    resid = max(float(np.max(np.abs(darcy.flux_divergence(sol, k) - f)))
                for sol, k in zip(sols[:5], K[:5]))
    run.quality["flux_residual_rel"] = resid / float(np.max(np.abs(f)))
    run.check("flux divergence matches the source",
              run.quality["flux_residual_rel"] < 1e-8)
    var = io.read_matrix(os.path.join(mc, "variance.dgpm"))
    run.check("MC variance finite and >= 0",
              bool(np.all(np.isfinite(var)) and np.all(var >= 0)))
    pdf = np.loadtxt(os.path.join(mc, "pdf_0.csv"), delimiter=",", skiprows=1)
    mass = float(np.trapezoid(pdf[:, 1], pdf[:, 0]))
    run.quality["pdf_mass"] = mass
    run.check("MC PDF integrates to 1", abs(mass - 1.0) < 1e-9)


# ---------------------------------------------------------------------------
# surrogate-32: the small train -> predict -> uq pipeline
# ---------------------------------------------------------------------------

def surrogate_setup(run):
    s = run.sizes
    _fresh(run.path("setup"))
    data = run.path("setup", "data")
    _gen_data(run, "setup:gen-data", data, s.n, run.seeds["train"])
    _gen_data(run, "setup:gen-data-held", run.path("setup", "held"), s.held,
              run.seeds["held"])
    run.cli("setup:mc-baseline", ["mc-baseline", "--kle-manifest", data,
                                  "--n", s.mc, "--seed", run.seeds["mc"],
                                  "--out", run.path("setup", "mcref")])


@contextlib.contextmanager
def _capture_saved_model(sink):
    """Keep the in-memory model ``train`` hands to ``io.save_model``."""
    original = io.save_model

    def capture(out_dir, model, extra_meta=None):
        sink.append(model)
        return original(out_dir, model, extra_meta)

    io.save_model = capture
    try:
        yield
    finally:
        io.save_model = original


def surrogate_pass(run):
    s = run.sizes
    _fresh(run.path("pass"))
    data = run.path("setup", "data")
    model_dir = run.path("pass", "model")
    saved = []
    with _capture_saved_model(saved):
        build = run.cli("train", ["train", "--data", data, "--dims", s.dims,
                                  "--inducing", s.inducing,
                                  "--layers", len(s.dims.split(",")),
                                  "--init-iters", s.init_iters,
                                  "--iters", s.iters,
                                  "--seed", run.seeds["train"],
                                  "--out", model_dir], cal=False)
    predict_s = statistics.median(
        run.cli("predict", ["predict", "--model", model_dir,
                            "--inputs", run.path("setup", "held", "K.dgpm"),
                            "--out", run.path("pass", "pred")])
        for _ in range(SHORT_REPEATS))
    uq_s = statistics.median(
        run.cli("uq", ["uq", "--model", model_dir, "--kle-manifest", data,
                       "--inner", s.inner, "--repeats", s.repeats,
                       "--pdf-at", PDF_AT, "--seed", run.seeds["draw"],
                       "--out", run.path("pass", "uq")])
        for _ in range(SHORT_REPEATS))
    run.state["model"] = saved[-1]
    return {"build": build, "predict": predict_s, "uq": uq_s}


def surrogate_checks(run):
    trace = np.loadtxt(run.path("pass", "model", "elbo_trace.csv"),
                       delimiter=",", skiprows=1, ndmin=2)[:, 1]
    run.check("ELBO trace finite and nondecreasing",
              bool(np.all(np.isfinite(trace)) and np.all(np.diff(trace) >= 0)))
    Xheld = io.read_matrix(run.path("setup", "held", "K.dgpm"))
    mean = io.read_matrix(run.path("pass", "pred", "mean.dgpm"))
    var = io.read_matrix(run.path("pass", "pred", "variance.dgpm"))
    mem_mean, mem_var = deepgp.predict(run.state["model"], Xheld)
    run.check("reloaded model predicts bit-identically",
              np.array_equal(mean, mem_mean) and np.array_equal(var, mem_var))
    run.check("predictive variance >= 0", bool(np.all(var >= 0)))

    def field(*parts):
        return io.read_matrix(run.path(*parts)).ravel()

    uq_var = field("pass", "uq", "mean_of_variance.dgpm")
    run.check("UQ moments finite, variance >= 0",
              bool(np.all(np.isfinite(field("pass", "uq", "mean_of_mean.dgpm")))
                   and np.all(np.isfinite(uq_var)) and np.all(uq_var >= 0)))

    run.quality.update(
        final_elbo=float(trace[-1]),
        predict_rel_err=_rel_err(mean, io.read_matrix(
            run.path("setup", "held", "p.dgpm"))),
        uq_mean_rel_err=_rel_err(field("pass", "uq", "mean_of_mean.dgpm"),
                                 field("setup", "mcref", "mean.dgpm")),
        uq_var_rel_err=_rel_err(field("pass", "uq", "mean_of_variance.dgpm"),
                                field("setup", "mcref", "variance.dgpm")),
    )


# ---------------------------------------------------------------------------
# paper-700: paper-scale joint bound, predict and uq_report on a fixed model
# ---------------------------------------------------------------------------

def _pca(Y, q):
    Yc = Y - Y.mean(axis=0)
    U, sv, _ = np.linalg.svd(Yc, full_matrices=False)
    scores = U[:, :q] * sv[:q]
    return scores / scores[:, 0].std()


def initial_model(X, Y, dims, inducing):
    """A deep GP with a deterministic, untrained initialisation.

    The last latent is a PCA projection of the outputs and each earlier
    latent a PCA projection of the one after it; inducing inputs are evenly
    spaced latent rows; the input kernel uses the median heuristic.
    """
    n = X.shape[0]
    latents = [None] * len(dims)
    data = Y
    for t in range(len(dims) - 1, -1, -1):
        latents[t] = _pca(data, dims[t])
        data = latents[t]
    sub = X[::max(1, n // 200)]
    sq = pairwise_sqdist(sub, sub, np.ones(X.shape[1]))
    med = float(np.median(sq[np.triu_indices_from(sq, k=1)]))
    h1_var = float(np.var(latents[0]))
    il = InputLayer(kernel=RBFParams(tau0_sq=h1_var,
                                     lengthscale_inv=np.full(X.shape[1], 1.0 / med)),
                    noise_var=0.01 * h1_var, mu_bar=np.zeros_like(latents[0]),
                    lam=np.full_like(latents[0], 10.0))
    layers = []
    for t, (q, m) in enumerate(zip(dims, inducing)):
        out = latents[t + 1] if t + 1 < len(dims) else Y
        out_var = float(np.var(out))
        idx = np.linspace(0, n - 1, m).astype(int)
        layers.append(LayerState(
            kernel=ARDParams(sigma_h_sq=out_var, weights=np.ones(q)),
            beta=100.0 / out_var,
            latent=VariationalLatent(means=latents[t].copy(),
                                     variances=np.full_like(latents[t], 0.1)),
            inducing=InducingSet(inputs=latents[t][idx].copy())))
    model = DeepGPModel(X=X, Y=Y, input_layer=il, hidden_layers=layers,
                        dims=list(dims))
    # mean of the first latent is C @ mu_bar: solve for the PCA latent
    C = gram(X, X, il.kernel) + il.noise_var * np.eye(n)
    il.mu_bar = np.linalg.solve(C, latents[0])
    return model


def paper_setup(run):
    s = run.sizes
    _fresh(run.path("setup"))
    data = run.path("setup", "data")
    _gen_data(run, "setup:gen-data", data, s.n, run.seeds["train"])
    info = io.load_kle_from_manifest(data)
    X = io.read_matrix(os.path.join(data, "K.dgpm"))
    Y = io.read_matrix(os.path.join(data, "p.dgpm"))
    dims = [int(d) for d in s.dims.split(",")]
    inducing = [int(m) for m in s.inducing.split(",")]
    run.state["model"] = initial_model(X, Y, dims, inducing)
    run.state["dist"] = uq.InputDistribution(kle=info["kle"])
    run.state["Xstar"] = uq.sample_inputs(run.state["dist"], s.held,
                                          seed=run.seeds["held"])
    direction = np.random.default_rng(run.seeds["draw"]).standard_normal(
        deepgp.pack_params(run.state["model"]).size)
    run.state["direction"] = direction / np.linalg.norm(direction)


FD_STEP = 1e-4


def paper_pass(run):
    s = run.sizes
    model = run.state["model"]
    d = run.state["direction"]

    def shifted_elbo(step):
        x = deepgp.pack_params(model)
        return deepgp.elbo(deepgp.unpack_params(model, x + step * d))

    # value, gradient, then a central difference of the value along a
    # fixed direction: the gradient check rides on the timed sequence
    t_value, value = run.timed("joint-bound:elbo", deepgp.elbo, model,
                               cal=False)
    t_grad, grad = run.timed("joint-bound:elbo_grad_vector",
                             deepgp.elbo_grad_vector, model, cal=False)
    t_plus, plus = run.timed("joint-bound:elbo+hd", shifted_elbo, FD_STEP,
                             cal=False)
    t_minus, minus = run.timed("joint-bound:elbo-hd", shifted_elbo, -FD_STEP,
                               cal=False)
    build = t_value + t_grad + t_plus + t_minus
    run.state["bound"] = (value, float(grad @ d),
                          (plus - minus) / (2.0 * FD_STEP))

    def predict():
        model._pred_cache.clear()   # each call builds its layer caches
        return deepgp.predict(model, run.state["Xstar"])

    def uq_report():
        return uq.uq_report(model, run.state["dist"], n_prime=s.inner,
                            n_repeats=s.repeats, seed=run.seeds["draw"])

    predict_times = [run.timed("predict", predict)
                     for _ in range(PAPER_PREDICT_REPEATS)]
    uq_times = [run.timed("uq", uq_report) for _ in range(SHORT_REPEATS)]
    run.state["pred"] = predict_times[-1][1]
    run.state["report"] = uq_times[-1][1]
    return {"build": build,
            "predict": statistics.median(t for t, _ in predict_times),
            "uq": statistics.median(t for t, _ in uq_times)}


def paper_checks(run):
    value, directional, central = run.state["bound"]
    err = abs(directional - central) / max(abs(directional), abs(central), 1e-12)
    run.quality.update(final_elbo=float(value), grad_fd_rel_err=float(err))
    run.check("ELBO finite", bool(np.isfinite(value)))
    run.check("gradient matches a central difference", err < 1e-4)
    mean, var = run.state["pred"]
    run.check("predictive moments finite, variance >= 0",
              bool(np.all(np.isfinite(mean)) and np.all(var >= 0)))
    report = run.state["report"]
    run.check("UQ variance finite and >= 0",
              bool(np.all(np.isfinite(report.mean_of_variance))
                   and np.all(report.mean_of_variance >= 0)))


PLANS = {
    "mc-64": (mc64_setup, mc64_pass, mc64_checks),
    "surrogate-32": (surrogate_setup, surrogate_pass, surrogate_checks),
    "paper-700": (paper_setup, paper_pass, paper_checks),
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

MAX_SETUPS = 3


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return the full record (metrics, checks, quality).

    Untraced (``trace`` false): set up repeatedly - up to MAX_SETUPS times
    or until ``seconds`` are spent - then repeat the timed pass until
    ``seconds`` are spent, and report medians.  Traced: set up once under
    the tracer, run one untraced pass, then one traced pass, both timed in
    seconds; the per-layer metrics come from the spans of the set-up and
    the traced pass, and the tracing overhead is the difference of the two
    passes.
    """
    sizes = (TINY if tiny else SIZES)[workload]
    setup, timed_pass, checks = PLANS[workload]
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    run = Run(seed, sizes, work)
    try:
        if trace:
            record = _traced(run, setup, timed_pass, checks)
        else:
            record = _untraced(run, setup, timed_pass, checks, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=workload, seed=int(seed), seeds=run.seeds,
                  attempted=run.attempted, failed=len(run.failures),
                  failures=run.failures, quality=run.quality,
                  sizes=sizes.__dict__)
    return record


def _untraced(run, setup, timed_pass, checks, seconds):
    setups = []
    while len(setups) < MAX_SETUPS and (not setups or sum(setups) < seconds):
        t0 = time.perf_counter()
        setup(run)
        setups.append(time.perf_counter() - t0)
    run.probe = calibrate.Probe()
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        passes.append(timed_pass(run))
    run.probe = None
    checks(run)
    metrics = {"setup_s": statistics.median(setups),
               "build_s": statistics.median(p["build"] for p in passes)}
    for role in ("predict", "uq"):
        metrics[f"{role}_cal"] = statistics.median(p[role] for p in passes)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "setups_s": setups, "passes_cal": passes,
            "log": run.log,
            "stage_seconds": {name: statistics.median(v)
                              for name, v in run.raw.items()}}


def _traced(run, setup, timed_pass, checks):
    run.tracer = tracing.Tracer().install()
    try:
        setup(run)
        run.tracer.uninstall()
        plain = timed_pass(run)
        run.tracer.install()
        traced = timed_pass(run)
    finally:
        run.tracer.uninstall()
    checks(run)
    overhead = sum(traced.values()) - sum(plain.values())
    metrics = layer_metrics(run.tracer)
    metrics.update({f"traced.{role}_s": traced[role] for role in ROLES})
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / sum(plain.values())
    metrics["trace.spans"] = len(run.tracer.spans)
    metrics.update({f"quality.{k}": run.quality.get(k, 0.0) for k in QUALITY})
    metrics["bench.failed_frac"] = len(run.failures) / max(run.attempted, 1)
    return {"metrics": metrics, "plain_pass_s": plain, "traced_pass_s": traced,
            "tracer": run.tracer}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

QUALITY = ("final_elbo", "predict_rel_err", "uq_mean_rel_err",
           "uq_var_rel_err", "grad_fd_rel_err", "flux_residual_rel")

# (metric, span name, statistic); the statistic is computed over every span
# of that name in the set-up and the traced pass
LAYER_SPECS = [
    ("random_field.kle_decompose.s", "random_field.kle_decompose", "total_s"),
    ("random_field.permeability.calls", "random_field.permeability", "calls"),
    ("random_field.permeability.busy_s", "random_field.permeability", "total_s"),
    ("darcy.solve.calls", "darcy.solve", "calls"),
    ("darcy.solve.ms_p50", "darcy.solve", "ms_p50"),
    ("darcy.solve.ms_p99", "darcy.solve", "ms_p99"),
    ("darcy.solve.busy_s", "darcy.solve", "total_s"),
    ("darcy.restrict.busy_s", "darcy.restrict", "total_s"),
    ("io.write_matrix.calls", "io.write_matrix", "calls"),
    ("io.write_matrix.bytes", "io.write_matrix", "bytes"),
    ("io.write_matrix.busy_s", "io.write_matrix", "total_s"),
    ("io.save_model.s", "io.save_model", "total_s"),
    ("io.load_model.s", "io.load_model", "total_s"),
    ("io.read_matrix.busy_s", "io.read_matrix", "total_s"),
    ("kernels.gram.calls", "kernels.gram", "calls"),
    ("kernels.gram.busy_s", "kernels.gram", "total_s"),
    ("kernels.chol_psd.calls", "kernels.chol_psd", "calls"),
    ("kernels.chol_psd.busy_s", "kernels.chol_psd", "total_s"),
    ("kernels.chol_psd.jittered", "kernels.chol_psd", "jittered"),
    ("gp.fit.s", "gp.fit", "total_s"),
    ("gplvm.train_gplvm.s", "gplvm.train_gplvm", "total_s"),
    ("gplvm.recover_inducing_posterior.busy_s",
     "gplvm.recover_inducing_posterior", "total_s"),
    ("gplvm.layer_bound.calls", "gplvm.layer_bound", "calls"),
    ("gplvm.layer_bound.ms_p50", "gplvm.layer_bound", "ms_p50"),
    ("gplvm.layer_bound.busy_s", "gplvm.layer_bound", "total_s"),
    ("gplvm.layer_bound_grads.calls", "gplvm.layer_bound_grads", "calls"),
    ("gplvm.layer_bound_grads.ms_p50", "gplvm.layer_bound_grads", "ms_p50"),
    ("gplvm.layer_bound_grads.busy_s", "gplvm.layer_bound_grads", "total_s"),
    ("deepgp.train_deep.s", "deepgp.train_deep", "total_s"),
    ("deepgp.elbo.self_ms", "deepgp.elbo", "self_ms"),
    ("deepgp.elbo_grad_vector.self_ms", "deepgp.elbo_grad_vector", "self_ms"),
    ("deepgp.predict.s", "deepgp.predict", "total_s"),
    ("deepgp.predict_layer1.busy_s", "deepgp.predict_layer1", "total_s"),
    ("deepgp.propagate.busy_s", "deepgp.propagate", "total_s"),
    ("uq.propagate_realization.calls", "uq.propagate_realization", "calls"),
    ("uq.propagate_realization.ms_p50", "uq.propagate_realization", "ms_p50"),
    ("uq.propagate_realization.ms_p99", "uq.propagate_realization", "ms_p99"),
    ("uq.sample_inputs.busy_s", "uq.sample_inputs", "total_s"),
    ("uq.kde_curve.busy_s", "uq.kde_curve", "total_s"),
    ("uq.mc_baseline.s", "uq.mc_baseline", "total_s"),
]
ASCEND_CALLERS = ("gp", "gplvm", "deepgp")


def _stat(spans, self_s, stat):
    if stat == "calls":
        return len(spans)
    if stat == "bytes":
        return sum(s.info["bytes"] for s in spans)
    if stat == "jittered":
        return sum(1 for s in spans if s.info["jitter"] != 0.0)
    if not spans:
        return 0.0
    if stat == "total_s":
        return float(sum(s.duration for s in spans))
    if stat == "self_ms":
        return 1e3 * float(sum(self_s[s.id] for s in spans))
    ms = 1e3 * np.array([s.duration for s in spans])
    return float(np.percentile(ms, 50 if stat == "ms_p50" else 99))


def layer_metrics(tracer):
    self_s = tracer.self_times()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    out = {name: _stat(by_name.get(span, []), self_s, stat)
           for name, span, stat in LAYER_SPECS}
    ascends = by_name.get("optimize.ascend", [])
    out["deepgp.joint.self_s"] = float(sum(self_s[s.id] for s in ascends
                                           if s.caller == "deepgp"))
    for caller in ASCEND_CALLERS:
        mine = [s.info for s in ascends if s.caller == caller]
        counts = {k: sum(i[k] for i in mine)
                  for k in ("value_evals", "grad_evals", "accepted")}
        for k, v in counts.items():
            out[f"optimize.ascend.{caller}.{k}"] = v
        out[f"optimize.ascend.{caller}.accept_ratio"] = (
            counts["accepted"] / counts["value_evals"]
            if counts["value_evals"] else 0.0)
    return out
