"""Command-line front end: generate -> train -> predict -> uq -> baseline.

The linear-algebra thread pools are sized by the standard variables
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and
NUMEXPR_NUM_THREADS, which must be set before Python starts.  Each command
imports numpy and the modules it needs when it runs, so ``--help`` and
argument errors load no numpy.

Exit codes: 0 success, 2 usage or validation error (``ValueError`` or
``FileNotFoundError``), 3 numeric failure (one of
``optimize._NUMERICAL_FAILURES``).  Any other exception propagates.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

EXIT_USAGE = 2
EXIT_NUMERIC = 3

# dataset target name -> the DarcySolution field it restricts
FIELDS = {"p": "pressure", "ux": "vel_x", "uy": "vel_y"}


def _parse_dims(flag, text):
    """``flag``'s value ``text`` as a list of positive integers."""
    try:
        dims = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        dims = []
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"{flag} must be a comma-separated list of positive "
                         f"integers, got {text!r}")
    return dims


def _check_at_least(*checks):
    """Raise ValueError naming the first ``(flag, value, low)`` whose value
    is below low."""
    for flag, value, low in checks:
        if value < low:
            raise ValueError(f"{flag} must be at least {low}, got {value}")


def _parse_locations(text):
    locs = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise ValueError(f"location {part!r} is not 'x,y'")
        try:
            locs.append((float(bits[0]), float(bits[1])))
        except ValueError:
            raise ValueError(f"location {part!r} is not numeric") from None
    if not locs:
        raise ValueError("no locations parsed")
    return locs


def _read_finite(path):
    """The matrix container at ``path``; a row with a NaN or inf entry is a
    ValueError naming the file and the row."""
    import numpy as np
    from . import io

    M = io.read_matrix(path)
    bad = ~np.isfinite(M).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: row {int(np.argmax(bad))} has a non-finite "
                         "entry")
    return M


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    import numpy as np
    from .random_field import Grid2D, ExpCovSpec, kle_decompose
    from .darcy import SourceSpec, solve, restrict
    from .rng import GEN_DATA_STREAM
    from .uq import _simulate_blocks
    from . import io

    _check_at_least(("--n", args.n, 1), ("--grid", args.grid, 2),
                    ("--out-grid", args.out_grid, 2), ("--kle", args.kle, 1),
                    ("--seed", args.seed, 0))
    if args.grid % args.out_grid:
        raise ValueError("--grid must be divisible by --out-grid")
    grid = Grid2D(args.grid, args.grid)
    out_grid = Grid2D(args.out_grid, args.out_grid)
    if args.kle > grid.n_cells:
        raise ValueError(f"--kle must be at most {grid.n_cells}, got {args.kle}")
    cov = ExpCovSpec(s_g_sq=args.sg, lambdas=(args.lam, args.lam), mean=args.mean)
    source = SourceSpec(rate=args.rate, width=args.width)

    def simulator(K):
        """A block of fields to its restricted targets, (rows, 3, out cells)."""
        sol = solve(grid, K, source)
        return np.stack([restrict(getattr(sol, field), grid.nx, grid.ny,
                                  out_grid.nx, out_grid.ny)
                         for field in FIELDS.values()], axis=1)

    kle = kle_decompose(grid, cov, args.kle)
    n = args.n
    data = {"K": np.empty((n, grid.n_cells))}
    data.update((name, np.empty((n, out_grid.n_cells))) for name in FIELDS)
    for start, K, Y in _simulate_blocks(simulator, kle, n, args.seed,
                                        GEN_DATA_STREAM):
        rows = slice(start, start + len(K))
        data["K"][rows] = K
        for j, name in enumerate(FIELDS):
            data[name][rows] = Y[:, j]

    io.write_dataset_manifest(
        args.out, grid=grid, out_grid=out_grid, cov=cov, kle=kle, source=source,
        seed=args.seed, fields=data)
    print(f"wrote dataset ({n} samples, {grid.nx}x{grid.ny} -> "
          f"{out_grid.nx}x{out_grid.ny}) to {args.out}")


def cmd_train(args):
    from .deepgp import train_deep
    from .gplvm import effective_dims
    from . import io

    _check_at_least(("--iters", args.iters, 0),
                    ("--init-iters", args.init_iters, 0), ("--seed", args.seed, 0))
    info = io.load_kle_from_manifest(args.data)
    files = info["files"]
    if args.target not in files:
        raise ValueError(f"--target must be one of {sorted(files)}")
    dims = _parse_dims("--dims", args.dims)
    inducing = _parse_dims("--inducing", args.inducing)
    if args.layers not in (None, len(dims)):
        raise ValueError(f"--layers {args.layers} does not match --dims {args.dims}")
    if len(inducing) != len(dims):
        raise ValueError("--inducing must have one entry per layer")

    X = _read_finite(files["K"])
    Y = _read_finite(files[args.target])
    model = train_deep(X, Y, dims=dims, m_inducing=inducing, iters=args.iters,
                       init_iters=args.init_iters, seed=args.seed)

    io.write_training_tables(args.out, model)
    retained = {f"layer{t + 1}": effective_dims(layer.kernel)
                for t, layer in enumerate(model.hidden_layers)}
    io.save_model(args.out, model, extra_meta={
        "target": args.target, "dataset": os.path.abspath(args.data),
        "output_grid": info["out_grid"], "input_grid": info["grid"],
        "retained_dims": {k: list(map(int, v)) for k, v in retained.items()},
    })
    print(f"trained model on {args.target} "
          f"(final ELBO {model.training_meta['final_elbo']:.4f}) -> {args.out}")


def cmd_predict(args):
    from .deepgp import predict
    from . import io

    model = io.load_model(args.model)
    Xstar = _read_finite(args.inputs)
    if Xstar.shape[1] != model.X.shape[1]:
        raise ValueError(f"inputs have {Xstar.shape[1]} columns, model "
                         f"expects {model.X.shape[1]}")
    mean, var = predict(model, Xstar)
    io.write_fields(args.out, {"mean": mean, "variance": var})
    print(f"wrote predictions for {Xstar.shape[0]} inputs to {args.out}")


def cmd_uq(args):
    from .random_field import Grid2D
    from .uq import InputDistribution, uq_report
    from . import io

    _check_at_least(("--inner", args.inner, 2), ("--repeats", args.repeats, 2),
                    ("--seed", args.seed, 0))
    model = io.load_model(args.model)
    info = io.load_kle_from_manifest(args.kle_manifest)
    out_grid_dims = model.training_meta.get("output_grid")
    out_grid = Grid2D(*out_grid_dims) if out_grid_dims else info["out_grid"]
    if out_grid.n_cells != model.Y.shape[1]:
        raise ValueError("model output dimension does not match the output grid")
    n_cells = info["kle"].grid.n_cells
    if n_cells != model.X.shape[1]:
        raise ValueError(f"KLE manifest fields have {n_cells} cells, model "
                         f"expects {model.X.shape[1]} input columns")
    pdf_at = _parse_locations(args.pdf_at) if args.pdf_at else None
    report = uq_report(model, InputDistribution(kle=info["kle"]),
                       n_prime=args.inner, n_repeats=args.repeats,
                       seed=args.seed, pdf_at=pdf_at, out_grid=out_grid)
    io.write_report(
        args.out,
        {"format": io.UQ_REPORT_FORMAT, "n_inner": report.n_inner,
         "n_repeats": report.n_repeats, "seed": args.seed,
         "out_grid": out_grid},
        {name: getattr(report, name) for name in
         ("mean_of_mean", "mean_of_variance", "errorbar_mean",
          "errorbar_variance")},
        report.pdf_points)
    print(f"wrote UQ report ({args.inner} inner x {args.repeats} repeats) "
          f"to {args.out}")


def cmd_mc_baseline(args):
    from .darcy import solve, restrict
    from .uq import InputDistribution, mc_baseline
    from . import io

    _check_at_least(("--n", args.n, 2), ("--seed", args.seed, 0))
    info = io.load_kle_from_manifest(args.kle_manifest)
    grid, out_grid, source = info["grid"], info["out_grid"], info["source"]
    target = args.target

    def simulator(K):
        """A block of fields to its restricted target, (rows, out cells)."""
        return restrict(getattr(solve(grid, K, source), FIELDS[target]),
                        grid.nx, grid.ny, out_grid.nx, out_grid.ny)

    pdf_at = _parse_locations(args.pdf_at) if args.pdf_at else None
    mean, var, pdfs = mc_baseline(simulator, InputDistribution(kle=info["kle"]),
                                  N=args.n, seed=args.seed, pdf_at=pdf_at,
                                  out_grid=out_grid)
    io.write_report(
        args.out,
        {"format": io.MC_REPORT_FORMAT, "n": args.n, "seed": args.seed,
         "target": target, "out_grid": out_grid},
        {"mean": mean, "variance": var}, pdfs)
    print(f"wrote plain-MC baseline ({args.n} runs of {target}) to {args.out}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """Every command's parser, built once; :func:`main` runs ``cmd_<name>``."""
    p = argparse.ArgumentParser(prog="dgpuq",
                                description="Deep-GP surrogates and UQ for "
                                            "Darcy flow")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a simulator dataset")
    g.add_argument("--n", type=int, default=700)
    g.add_argument("--grid", type=int, default=64)
    g.add_argument("--out-grid", type=int, default=32)
    g.add_argument("--kle", type=int, default=50)
    g.add_argument("--lambda", dest="lam", type=float, default=0.1)
    g.add_argument("--sg", type=float, default=1.0)
    g.add_argument("--mean", type=float, default=0.0)
    g.add_argument("--rate", type=float, default=10.0)
    g.add_argument("--width", type=float, default=0.125)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a deep GP on a dataset target")
    t.add_argument("--data", required=True)
    t.add_argument("--target", choices=tuple(FIELDS), default="p")
    t.add_argument("--layers", type=int, help="default: one per --dims entry")
    t.add_argument("--dims", default="30,30")
    t.add_argument("--inducing", default="50,50")
    t.add_argument("--iters", type=int, default=50,
                   help="budget of accepted steps of the joint phase; the "
                        "ascent may stop before using it up, once the bound "
                        "stops rising (default: %(default)s)")
    t.add_argument("--init-iters", type=int, default=150,
                   help="budget of accepted steps of each greedy GP-LVM fit, "
                        "which it may likewise leave unused "
                        "(default: %(default)s)")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)

    pr = sub.add_parser("predict", help="predict with a trained model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--inputs", required=True)
    pr.add_argument("--out", required=True)

    u = sub.add_parser("uq", help="uncertainty propagation report")
    u.add_argument("--model", required=True)
    u.add_argument("--kle-manifest", required=True)
    u.add_argument("--inner", type=int, default=120)
    u.add_argument("--repeats", type=int, default=100)
    u.add_argument("--pdf-at", default=None)
    u.add_argument("--seed", type=int, default=0)
    u.add_argument("--out", required=True)

    b = sub.add_parser("mc-baseline", help="plain Monte Carlo over the solver")
    b.add_argument("--kle-manifest", required=True)
    b.add_argument("--n", type=int, default=10000)
    b.add_argument("--target", choices=tuple(FIELDS), default="p")
    b.add_argument("--pdf-at", default=None)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    from .optimize import _NUMERICAL_FAILURES
    # LinAlgError subclasses ValueError, so it must be caught first
    try:
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except _NUMERICAL_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
