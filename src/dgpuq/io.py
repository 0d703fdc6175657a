"""File formats: this module alone reads and writes every JSON document and
decides the layout of every output directory.

The matrix container is the universal exchange format: a one-line magic,
one ASCII header line ``rows cols f64le`` and a row-major little-endian
float64 payload.  Writes and reads round-trip bit-exactly.  Model files,
dataset manifests and reports are JSON documents whose array fields are
named references to sibling containers.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import __version__
from .kernels import RBFParams, ARDParams
from .random_field import Grid2D, ExpCovSpec, KLExpansion
from .darcy import SourceSpec
from .gplvm import LayerState, VariationalLatent, InducingSet
from .deepgp import DeepGPModel, InputLayer

__all__ = [
    "write_matrix",
    "read_matrix",
    "save_model",
    "load_model",
    "write_dataset_manifest",
    "load_kle_from_manifest",
    "write_fields",
    "write_training_tables",
    "write_report",
    "write_csv",
]

MAGIC = b"DGPM1\n"
MODEL_FORMAT = "dgpuq-model-v1"
DATASET_FORMAT = "dgpuq-dataset-v1"
UQ_REPORT_FORMAT = "dgpuq-uq-v1"
MC_REPORT_FORMAT = "dgpuq-mc-v1"


def write_matrix(path, arr):
    """Write a 2-D float64 array as a matrix container."""
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(arr, dtype="<f8")))
    if a.ndim != 2:
        raise ValueError(f"matrix container holds 2-D arrays, got shape {a.shape}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{a.shape[0]} {a.shape[1]} f64le\n".encode("ascii"))
        fh.write(a.data)


def read_matrix(path) -> np.ndarray:
    """Read a matrix container; raises ValueError on malformed files.

    The payload is read straight into the returned array, whose size the
    header fixes once the file's remaining length has been checked.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = fh.readline().decode("ascii").split()
        if len(header) != 3 or header[2] != "f64le":
            raise ValueError(f"{path}: bad header {header}")
        rows, cols = int(header[0]), int(header[1])
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = 8 * rows * cols
        if size != expected:
            raise ValueError(f"{path}: payload is {size} bytes, "
                             f"expected {expected}")
        out = np.empty((rows, cols), dtype="<f8")
        got = fh.readinto(out)
    if got != expected:
        raise ValueError(f"{path}: payload is {got} bytes, expected {expected}")
    return out


def _jsonable(obj):
    """The JSON form of what json cannot write itself: a grid as [nx, ny],
    an array as a flat list of floats and anything else as its str."""
    if isinstance(obj, Grid2D):
        return [obj.nx, obj.ny]
    if isinstance(obj, np.ndarray):
        return [float(x) for x in np.ravel(obj)]
    return str(obj)


def _json_dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# the JSON type a field must have, by the name an error gives it
_KINDS = {
    "a number": lambda v: _is_int(v) or isinstance(v, float),
    "an integer list": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "an integer pair": lambda v: (isinstance(v, list) and len(v) == 2
                                  and all(map(_is_int, v))),
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
}


def _read_document(path, name, fmt):
    """Read the ``fmt`` JSON document at ``path`` (``path/name`` for a
    directory); return its path, a reader, ``field("layers.0.beta",
    "a number")`` for ``doc["layers"][0]["beta"]``, which must have that
    :data:`_KINDS` type, and ``matrix(dotted)``, the container whose file
    name that string field holds, beside the document.  Invalid JSON,
    another format, or an absent or wrong-typed field is a ValueError
    naming the file (and the field)."""
    if os.path.isdir(path):
        path = os.path.join(path, name)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"{path}: not a {fmt} document")

    def field(dotted, kind):
        value = doc
        for key in dotted.split("."):
            try:
                value = value[int(key) if isinstance(value, list) else key]
            except (KeyError, IndexError, TypeError, ValueError):
                raise ValueError(f"{path}: missing field {dotted!r}") from None
        if not _KINDS[kind](value):
            raise ValueError(f"{path}: field {dotted!r} must be {kind}, got "
                             f"{json.dumps(value)[:60]}")
        return value

    def matrix(dotted):
        return read_matrix(os.path.join(os.path.dirname(path),
                                        field(dotted, "a string")))

    return path, field, matrix


def save_model(out_dir, model: DeepGPModel, extra_meta=None):
    """Persist a trained model as model.json plus sibling containers."""
    os.makedirs(out_dir, exist_ok=True)

    def put(name, arr):
        write_matrix(os.path.join(out_dir, name), arr)
        return name

    il = model.input_layer
    doc = {
        "format": MODEL_FORMAT,
        "version": __version__,
        "dims": [int(d) for d in model.dims],
        "data": {
            "X": put("train_x.dgpm", model.X),
            "Y": put("train_y.dgpm", model.Y),
        },
        "input_layer": {
            # the file keeps the (tau0_sq, b) form of the ARD kernel, w = 2b
            "tau0_sq": float(il.kernel.sigma_h_sq),
            "noise_var": float(il.noise_var),
            "arrays": {
                "lengthscale_inv": put("input_lengthscale_inv.dgpm",
                                       0.5 * il.kernel.weights[None, :]),
                "mu_bar": put("input_mu_bar.dgpm", il.mu_bar),
                "lam": put("input_lam.dgpm", il.lam),
            },
        },
        "layers": [],
        "training": dict(model.training_meta, **(extra_meta or {})),
    }
    for t, layer in enumerate(model.hidden_layers):
        doc["layers"].append({
            "sigma_h_sq": float(layer.kernel.sigma_h_sq),
            "beta": float(layer.beta),
            "arrays": {
                "weights": put(f"layer{t}_weights.dgpm",
                               layer.kernel.weights[None, :]),
                "inducing_inputs": put(f"layer{t}_inducing.dgpm",
                                       layer.inducing.inputs),
                "latent_means": put(f"layer{t}_latent_means.dgpm",
                                    layer.latent.means),
                "latent_variances": put(f"layer{t}_latent_vars.dgpm",
                                        layer.latent.variances),
            },
        })
    _json_dump(os.path.join(out_dir, "model.json"), doc)
    return os.path.join(out_dir, "model.json")


def load_model(model_dir) -> DeepGPModel:
    """Reload a persisted model; reloaded predictions are bit-identical."""
    path, field, get = _read_document(model_dir, "model.json", MODEL_FORMAT)
    X = get("data.X")
    Y = get("data.Y")
    il = InputLayer(
        kernel=RBFParams(tau0_sq=field("input_layer.tau0_sq", "a number"),
                         lengthscale_inv=get("input_layer.arrays.lengthscale_inv").ravel()),
        noise_var=field("input_layer.noise_var", "a number"),
        mu_bar=get("input_layer.arrays.mu_bar"),
        lam=get("input_layer.arrays.lam"),
    )
    layers = []
    for t in range(len(field("layers", "a list"))):
        at = f"layers.{t}."
        layers.append(LayerState(
            kernel=ARDParams(sigma_h_sq=field(at + "sigma_h_sq", "a number"),
                             weights=get(at + "arrays.weights").ravel()),
            beta=field(at + "beta", "a number"),
            latent=VariationalLatent(means=get(at + "arrays.latent_means"),
                                     variances=get(at + "arrays.latent_variances")),
            inducing=InducingSet(inputs=get(at + "arrays.inducing_inputs")),
        ))
    dims = field("dims", "an integer list")
    _check_model_shapes(path, X, Y, il, layers, dims)
    return DeepGPModel(X=X, Y=Y, input_layer=il, hidden_layers=layers,
                       dims=dims, training_meta=field("training", "an object"))


def _check_model_shapes(path, X, Y, il, layers, dims):
    """Raise ValueError naming the first field whose shape disagrees."""

    def expect(field, got, want):
        if tuple(got) != tuple(want):
            raise ValueError(f"{path}: {field} has shape {tuple(got)}, "
                             f"expected {tuple(want)}")

    n = X.shape[0]
    expect("data.Y rows", Y.shape[:1], (n,))
    if not dims or len(layers) != len(dims):
        raise ValueError(f"{path}: {len(layers)} layers for {len(dims)} dims")
    expect("input_layer.mu_bar", il.mu_bar.shape, (n, dims[0]))
    expect("input_layer.lam", il.lam.shape, (n, dims[0]))
    expect("input_layer.lengthscale_inv", il.kernel.weights.shape,
           X.shape[1:])
    # a latent's variances are checked against its means on construction
    for t, (layer, q) in enumerate(zip(layers, dims)):
        expect(f"layers.{t}.latent_means", layer.latent.means.shape, (n, q))


def write_fields(out_dir, arrays):
    """Write each array to ``<name>.dgpm`` in ``out_dir`` (a 1-D array as one
    row); return the name -> file map."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, arr in arrays.items():
        files[name] = f"{name}.dgpm"
        write_matrix(os.path.join(out_dir, files[name]), arr)
    return files


def write_dataset_manifest(out_dir, *, grid: Grid2D, out_grid: Grid2D,
                           cov: ExpCovSpec, kle: KLExpansion,
                           source: SourceSpec, seed: int, fields: dict):
    """Write a dataset: each field array (one sample a row, ``K`` the
    permeabilities) to ``<name>.dgpm``, the KL expansion and manifest.json."""
    files = write_fields(out_dir, fields)
    kle_files = write_fields(out_dir, {"kle_eigenvalues": kle.eigenvalues,
                                       "kle_eigenfields": kle.eigenfields})
    doc = {
        "format": DATASET_FORMAT,
        "version": __version__,
        "n": len(fields["K"]),
        "seed": int(seed),
        "grid": grid,
        "out_grid": out_grid,
        "cov": {"s_g_sq": cov.s_g_sq, "lambdas": list(cov.lambdas),
                "mean": cov.mean},
        "kle": {"k_xi": int(kle.k_xi),
                "eigenvalues": kle_files["kle_eigenvalues"],
                "eigenfields": kle_files["kle_eigenfields"]},
        "source": {"rate": source.rate, "width": source.width},
        "files": files,
    }
    path = os.path.join(out_dir, "manifest.json")
    _json_dump(path, doc)
    return path


def load_kle_from_manifest(manifest_path):
    """Rebuild a dataset's ``grid``, ``out_grid``, ``kle`` and ``source``
    from its manifest; ``files`` maps each stored field name (``K`` always
    among them) to its container's path."""
    path, field, get = _read_document(manifest_path, "manifest.json",
                                      DATASET_FORMAT)
    base = os.path.dirname(path)
    field("files.K", "a string")
    grid = Grid2D(*field("grid", "an integer pair"))
    kle = KLExpansion(eigenvalues=get("kle.eigenvalues").ravel(),
                      eigenfields=get("kle.eigenfields"),
                      mean=field("cov.mean", "a number"), grid=grid)
    return {"grid": grid,
            "out_grid": Grid2D(*field("out_grid", "an integer pair")),
            "kle": kle,
            "source": SourceSpec(rate=field("source.rate", "a number"),
                                 width=field("source.width", "a number")),
            "files": {name: os.path.join(base,
                                         field(f"files.{name}", "a string"))
                      for name in field("files", "an object")}}


def write_training_tables(out_dir, model: DeepGPModel):
    """Write the ELBO trace to elbo_trace.csv and each hidden layer's ARD
    weights (layers counted from 1) to ard_weights.csv."""
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "elbo_trace.csv"), ["iter", "elbo"],
              [(i, float(v)) for i, v in
               enumerate(model.training_meta["elbo_trace"])])
    write_csv(os.path.join(out_dir, "ard_weights.csv"),
              ["layer", "dim", "weight"],
              [(t + 1, k, float(w))
               for t, layer in enumerate(model.hidden_layers)
               for k, w in enumerate(layer.kernel.weights)])


def write_report(out_dir, meta, fields, pdfs):
    """Write a UQ or plain-MC report: each field array to ``<name>.dgpm``,
    each density estimate to ``pdf_<i>.csv`` and report.json, which holds
    ``meta`` and names both."""
    doc = dict(meta, fields=write_fields(out_dir, fields), pdfs=[])
    for i, pdf in enumerate(pdfs):
        fname = f"pdf_{i}.csv"
        rows = np.column_stack([pdf.abscissae, pdf.mean_density, pdf.lower,
                                pdf.upper]).tolist()
        write_csv(os.path.join(out_dir, fname),
                  ["x", "mean", "lower", "upper"], rows)
        doc["pdfs"].append({"location": list(pdf.location),
                            "column": pdf.column, "file": fname})
    path = os.path.join(out_dir, "report.json")
    _json_dump(path, doc)
    return path


def write_csv(path, header, rows):
    """Plain CSV writer; floats rendered with full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")
