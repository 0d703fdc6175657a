"""Command-line front end: generate -> train -> predict -> uq -> baseline.

The linear-algebra thread pools are sized by the standard variables
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and
NUMEXPR_NUM_THREADS, which must be set before Python starts.  Each command
imports numpy and the modules it needs when it runs, so ``--help`` and
argument errors load no numpy.

Exit codes: 0 success, 2 usage or validation error, 3 numeric failure:
one of ``optimize._NUMERICAL_FAILURES`` (the line search's rule) or the
``RuntimeError`` of a failed ``mc-baseline`` simulator run.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_USAGE = 2
EXIT_NUMERIC = 3

# dataset target name -> the DarcySolution field it restricts
FIELDS = {"p": "pressure", "ux": "vel_x", "uy": "vel_y"}


def _fail_usage(msg):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _parse_dims(text):
    try:
        dims = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        _fail_usage(f"cannot parse dimension list {text!r}")
    if not dims or any(d < 1 for d in dims):
        _fail_usage(f"dimension list must be positive integers, got {text!r}")
    return dims


def _parse_locations(text):
    locs = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            _fail_usage(f"location {part!r} is not 'x,y'")
        try:
            locs.append((float(bits[0]), float(bits[1])))
        except ValueError:
            _fail_usage(f"location {part!r} is not numeric")
    if not locs:
        _fail_usage("no locations parsed")
    return locs


def _write_fields(out_dir, arrays):
    """Write each array to ``<name>.dgpm`` in ``out_dir`` (a 1-D array as one
    row); return the name -> file map."""
    from . import io

    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, arr in arrays.items():
        files[name] = f"{name}.dgpm"
        io.write_matrix(os.path.join(out_dir, files[name]), arr)
    return files


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    import numpy as np
    from .random_field import (Grid2D, ExpCovSpec, kle_decompose,
                               sample_permeability)
    from .darcy import SourceSpec, solve, restrict
    from .rng import rng_for, GEN_DATA_STREAM
    from . import io

    if args.n < 1:
        _fail_usage("--n must be at least 1")
    if args.out_grid < 1:
        _fail_usage("--out-grid must be at least 1")
    if args.grid % args.out_grid:
        _fail_usage("--grid must be divisible by --out-grid")
    grid = Grid2D(args.grid, args.grid)
    out_grid = Grid2D(args.out_grid, args.out_grid)
    if args.kle > grid.n_cells:
        _fail_usage("--kle exceeds the number of grid cells")
    cov = ExpCovSpec(s_g_sq=args.sg, lambdas=(args.lam, args.lam), mean=args.mean)
    source = SourceSpec(rate=args.rate, width=args.width)

    kle = kle_decompose(grid, cov, args.kle)
    n = args.n
    data = {"K": np.empty((n, grid.n_cells))}
    data.update((name, np.empty((n, out_grid.n_cells))) for name in FIELDS)
    for i in range(n):
        rng = rng_for(args.seed, GEN_DATA_STREAM, i)
        data["K"][i] = sample_permeability(kle, rng)
        sol = solve(grid, data["K"][i], source)
        for name, field in FIELDS.items():
            data[name][i] = restrict(getattr(sol, field), grid.nx, grid.ny,
                                     out_grid.nx, out_grid.ny)

    io.write_dataset_manifest(
        args.out, grid=grid, out_grid=out_grid, cov=cov, kle=kle, source=source,
        n=n, seed=args.seed, files=_write_fields(args.out, data))
    print(f"wrote dataset ({n} samples, {grid.nx}x{grid.ny} -> "
          f"{out_grid.nx}x{out_grid.ny}) to {args.out}")


def cmd_train(args):
    from .deepgp import train_deep
    from .gplvm import effective_dims
    from . import io

    manifest = os.path.join(args.data, "manifest.json")
    if not os.path.exists(manifest):
        _fail_usage(f"no dataset manifest at {manifest}")
    info = io.load_kle_from_manifest(manifest)
    doc = info["doc"]
    if args.target not in doc["files"]:
        _fail_usage(f"--target must be one of {sorted(doc['files'])}")
    dims = _parse_dims(args.dims)
    inducing = _parse_dims(args.inducing)
    if args.layers != len(dims):
        _fail_usage(f"--layers {args.layers} does not match --dims {args.dims}")
    if len(inducing) != len(dims):
        _fail_usage("--inducing must have one entry per layer")

    X = io.read_matrix(os.path.join(args.data, doc["files"]["K"]))
    Y = io.read_matrix(os.path.join(args.data, doc["files"][args.target]))
    model = train_deep(X, Y, dims=dims, m_inducing=inducing, iters=args.iters,
                       init_iters=args.init_iters, seed=args.seed)

    os.makedirs(args.out, exist_ok=True)
    trace = model.training_meta["elbo_trace"]
    io.write_csv(os.path.join(args.out, "elbo_trace.csv"), ["iter", "elbo"],
                 [(i, float(v)) for i, v in enumerate(trace)])
    rows = []
    for t, layer in enumerate(model.hidden_layers):
        for k, w in enumerate(layer.kernel.weights):
            rows.append((t + 1, k, float(w)))
    io.write_csv(os.path.join(args.out, "ard_weights.csv"),
                 ["layer", "dim", "weight"], rows)
    retained = {f"layer{t + 1}": effective_dims(layer.kernel)
                for t, layer in enumerate(model.hidden_layers)}
    io.save_model(args.out, model, extra_meta={
        "target": args.target, "dataset": os.path.abspath(args.data),
        "output_grid": doc["out_grid"], "input_grid": doc["grid"],
        "retained_dims": {k: list(map(int, v)) for k, v in retained.items()},
    })
    print(f"trained model on {args.target} "
          f"(final ELBO {model.training_meta['final_elbo']:.4f}) -> {args.out}")


def cmd_predict(args):
    from .deepgp import predict
    from . import io

    model = io.load_model(args.model)
    Xstar = io.read_matrix(args.inputs)
    if Xstar.shape[1] != model.X.shape[1]:
        _fail_usage(f"inputs have {Xstar.shape[1]} columns, model expects "
                    f"{model.X.shape[1]}")
    mean, var = predict(model, Xstar)
    os.makedirs(args.out, exist_ok=True)
    io.write_matrix(os.path.join(args.out, "mean.dgpm"), mean)
    io.write_matrix(os.path.join(args.out, "variance.dgpm"), var)
    print(f"wrote predictions for {Xstar.shape[0]} inputs to {args.out}")


def _write_pdfs(out_dir, pdfs):
    """Write each density estimate to pdf_<i>.csv; return the manifest entries."""
    import numpy as np
    from . import io

    entries = []
    for i, pdf in enumerate(pdfs):
        fname = f"pdf_{i}.csv"
        rows = np.column_stack([pdf.abscissae, pdf.mean_density, pdf.lower,
                                pdf.upper]).tolist()
        io.write_csv(os.path.join(out_dir, fname),
                     ["x", "mean", "lower", "upper"], rows)
        entries.append({"location": list(pdf.location), "column": pdf.column,
                        "file": fname})
    return entries


def cmd_uq(args):
    from .random_field import Grid2D
    from .uq import InputDistribution, uq_report
    from . import io

    model = io.load_model(args.model)
    info = io.load_kle_from_manifest(args.kle_manifest)
    out_grid_dims = model.training_meta.get("output_grid") or info["doc"]["out_grid"]
    out_grid = Grid2D(*out_grid_dims)
    if out_grid.n_cells != model.Y.shape[1]:
        _fail_usage("model output dimension does not match the output grid")
    n_cells = info["kle"].grid.n_cells
    if n_cells != model.X.shape[1]:
        _fail_usage(f"KLE manifest fields have {n_cells} cells, model expects "
                    f"{model.X.shape[1]} input columns")
    pdf_at = _parse_locations(args.pdf_at) if args.pdf_at else None
    report = uq_report(model, InputDistribution(kle=info["kle"]),
                       n_prime=args.inner, n_repeats=args.repeats,
                       seed=args.seed, pdf_at=pdf_at, out_grid=out_grid)
    fields = _write_fields(args.out, {
        name: getattr(report, name) for name in
        ("mean_of_mean", "mean_of_variance", "errorbar_mean",
         "errorbar_variance")})
    doc = {"format": "dgpuq-uq-v1", "n_inner": report.n_inner,
           "n_repeats": report.n_repeats, "seed": args.seed,
           "pdfs": _write_pdfs(args.out, report.pdf_points),
           "fields": fields, "out_grid": out_grid_dims}
    io._json_dump(os.path.join(args.out, "report.json"), doc)
    print(f"wrote UQ report ({args.inner} inner x {args.repeats} repeats) "
          f"to {args.out}")


def cmd_mc_baseline(args):
    from .darcy import solve, restrict
    from .uq import InputDistribution, mc_baseline
    from . import io

    info = io.load_kle_from_manifest(args.kle_manifest)
    grid, out_grid, source = info["grid"], info["out_grid"], info["source"]
    target = args.target

    def simulator(K):
        return restrict(getattr(solve(grid, K, source), FIELDS[target]),
                        grid.nx, grid.ny, out_grid.nx, out_grid.ny)

    pdf_at = _parse_locations(args.pdf_at) if args.pdf_at else None
    mean, var, pdfs = mc_baseline(simulator, InputDistribution(kle=info["kle"]),
                                  N=args.n, seed=args.seed, pdf_at=pdf_at,
                                  out_grid=out_grid)
    fields = _write_fields(args.out, {"mean": mean, "variance": var})
    doc = {"format": "dgpuq-mc-v1", "n": args.n, "seed": args.seed,
           "target": target, "pdfs": _write_pdfs(args.out, pdfs),
           "fields": fields, "out_grid": [out_grid.nx, out_grid.ny]}
    io._json_dump(os.path.join(args.out, "report.json"), doc)
    print(f"wrote plain-MC baseline ({args.n} runs of {target}) to {args.out}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
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
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a deep GP on a dataset target")
    t.add_argument("--data", required=True)
    t.add_argument("--target", choices=tuple(FIELDS), default="p")
    t.add_argument("--layers", type=int, default=2)
    t.add_argument("--dims", default="30,30")
    t.add_argument("--inducing", default="50,50")
    t.add_argument("--iters", type=int, default=50)
    t.add_argument("--init-iters", type=int, default=150)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="predict with a trained model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--inputs", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    u = sub.add_parser("uq", help="uncertainty propagation report")
    u.add_argument("--model", required=True)
    u.add_argument("--kle-manifest", required=True)
    u.add_argument("--inner", type=int, default=120)
    u.add_argument("--repeats", type=int, default=100)
    u.add_argument("--pdf-at", default=None)
    u.add_argument("--seed", type=int, default=0)
    u.add_argument("--out", required=True)
    u.set_defaults(func=cmd_uq)

    b = sub.add_parser("mc-baseline", help="plain Monte Carlo over the solver")
    b.add_argument("--kle-manifest", required=True)
    b.add_argument("--n", type=int, default=10000)
    b.add_argument("--target", choices=tuple(FIELDS), default="p")
    b.add_argument("--pdf-at", default=None)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_mc_baseline)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    from .optimize import _NUMERICAL_FAILURES
    # LinAlgError subclasses ValueError, so it must be caught first
    try:
        args.func(args)
    except (*_NUMERICAL_FAILURES, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
