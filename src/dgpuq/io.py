"""File formats: binary matrix containers, model files, dataset manifests.

The matrix container is the universal exchange format: a one-line magic,
one ASCII header line ``rows cols f64le`` and a row-major little-endian
float64 payload.  Writes and reads round-trip bit-exactly.  Model and
dataset manifests are JSON documents whose array fields are named
references to sibling containers.
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
    "write_csv",
]

MAGIC = b"DGPM1\n"
MODEL_FORMAT = "dgpuq-model-v1"
DATASET_FORMAT = "dgpuq-dataset-v1"


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


def _json_dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

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
        "training": _jsonable_meta(model.training_meta),
    }
    if extra_meta:
        doc["training"].update(_jsonable_meta(extra_meta))
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


def _jsonable_meta(meta):
    out = {}
    for k, v in meta.items():
        if isinstance(v, np.ndarray):
            out[k] = [float(x) for x in np.ravel(v)]
        elif isinstance(v, (int, float, str, bool, list, dict)) or v is None:
            out[k] = v
        else:
            out[k] = str(v)
    return out


def load_model(model_dir) -> DeepGPModel:
    """Reload a persisted model; reloaded predictions are bit-identical."""
    path = model_dir
    if os.path.isdir(path):
        path = os.path.join(path, "model.json")
    doc = _json_load(path)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file (format {doc.get('format')!r})")
    base = os.path.dirname(path)

    def get(name):
        return read_matrix(os.path.join(base, name))

    X = get(doc["data"]["X"])
    Y = get(doc["data"]["Y"])
    il_doc = doc["input_layer"]
    il = InputLayer(
        kernel=RBFParams(tau0_sq=il_doc["tau0_sq"],
                         lengthscale_inv=get(il_doc["arrays"]["lengthscale_inv"]).ravel()),
        noise_var=il_doc["noise_var"],
        mu_bar=get(il_doc["arrays"]["mu_bar"]),
        lam=get(il_doc["arrays"]["lam"]),
    )
    layers = []
    for l_doc in doc["layers"]:
        arrays = l_doc["arrays"]
        layers.append(LayerState(
            kernel=ARDParams(sigma_h_sq=l_doc["sigma_h_sq"],
                             weights=get(arrays["weights"]).ravel()),
            beta=l_doc["beta"],
            latent=VariationalLatent(means=get(arrays["latent_means"]),
                                     variances=get(arrays["latent_variances"])),
            inducing=InducingSet(inputs=get(arrays["inducing_inputs"])),
        ))
    dims = [int(d) for d in doc["dims"]]
    _check_model_shapes(path, X, Y, il, layers, dims)
    return DeepGPModel(X=X, Y=Y, input_layer=il, hidden_layers=layers,
                       dims=dims, training_meta=doc.get("training", {}))


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
    for t, (layer, q) in enumerate(zip(layers, dims)):
        expect(f"layers[{t}].latent_means", layer.latent.means.shape, (n, q))
        expect(f"layers[{t}].latent_variances", layer.latent.variances.shape,
               (n, q))


# ---------------------------------------------------------------------------
# Dataset manifest and KLE persistence
# ---------------------------------------------------------------------------

def write_dataset_manifest(out_dir, *, grid: Grid2D, out_grid: Grid2D,
                           cov: ExpCovSpec, kle: KLExpansion,
                           source: SourceSpec, n: int, seed: int, files: dict):
    os.makedirs(out_dir, exist_ok=True)
    write_matrix(os.path.join(out_dir, "kle_eigenvalues.dgpm"),
                 kle.eigenvalues[None, :])
    write_matrix(os.path.join(out_dir, "kle_eigenfields.dgpm"), kle.eigenfields)
    doc = {
        "format": DATASET_FORMAT,
        "version": __version__,
        "n": int(n),
        "seed": int(seed),
        "grid": [grid.nx, grid.ny],
        "out_grid": [out_grid.nx, out_grid.ny],
        "cov": {"s_g_sq": cov.s_g_sq, "lambdas": list(cov.lambdas),
                "mean": cov.mean},
        "kle": {"k_xi": int(kle.k_xi),
                "eigenvalues": "kle_eigenvalues.dgpm",
                "eigenfields": "kle_eigenfields.dgpm"},
        "source": {"rate": source.rate, "width": source.width},
        "files": files,
    }
    path = os.path.join(out_dir, "manifest.json")
    _json_dump(path, doc)
    return path


def load_kle_from_manifest(manifest_path):
    """Rebuild the KL expansion and problem geometry from a dataset manifest."""
    path = manifest_path
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    doc = _json_load(path)
    if doc.get("format") != DATASET_FORMAT:
        raise ValueError(f"{path}: not a dataset manifest")
    base = os.path.dirname(path)
    grid = Grid2D(*doc["grid"])
    out_grid = Grid2D(*doc["out_grid"])
    kle = KLExpansion(
        eigenvalues=read_matrix(os.path.join(base, doc["kle"]["eigenvalues"])).ravel(),
        eigenfields=read_matrix(os.path.join(base, doc["kle"]["eigenfields"])),
        mean=doc["cov"]["mean"], grid=grid)
    source = SourceSpec(rate=doc["source"]["rate"], width=doc["source"]["width"])
    return {"grid": grid, "out_grid": out_grid, "kle": kle, "source": source,
            "doc": doc}


def write_csv(path, header, rows):
    """Plain CSV writer; floats rendered with full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")
