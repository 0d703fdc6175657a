"""File formats: this module alone reads and writes every JSON document and
decides the layout of every output directory.

The matrix container is the universal exchange format: a one-line magic,
one ASCII header line ``rows cols f64le`` and a row-major little-endian
float64 payload.  Writes and reads round-trip bit-exactly.  Model files,
dataset manifests and reports are JSON documents whose array fields are
named references to sibling containers.

A ``dgpuq-model-v4`` model.json holds ``dims``, ``training``, ``numbers``
(the scalar parameters), ``arrays`` (each other array's name and its
``<name>.dgpm`` container) and ``digest``.  The names are
:func:`deepgp.model_arrays`' own: the training data, the parameters, layer
0's stored latent and the prediction factors, which depend on the
parameters alone and are written once, at save.  Loading checks every
name (:func:`deepgp.check_model_array_names`) before it reads any
container, then reads every container, checks every shape
(:func:`deepgp.model_from_arrays`) and then the digest, a SHA-256 over
every number and every container's payload, so a file edited after saving
is rejected; the loaded model holds all the factors and rebuilds none.  A
``dgpuq-model-v1``, ``-v2`` or ``-v3`` directory must be retrained.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np

from . import __version__
from .random_field import Grid2D, ExpCovSpec, KLExpansion
from .darcy import SourceSpec
from .deepgp import (DeepGPModel, check_model_array_names, model_arrays,
                     model_from_arrays)

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
# the header line: two decimal counts and the payload's type
_HEADER = re.compile(rb"(\d+) (\d+) f64le\n")
MODEL_FORMAT = "dgpuq-model-v4"
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
        header = fh.readline()
        counts = _HEADER.fullmatch(header)
        if counts is None:
            raise ValueError(f"{path}: bad header {header[:60]!r}, expected "
                             "'<rows> <cols> f64le'")
        rows, cols = int(counts[1]), int(counts[2])
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
    """The JSON form of what json cannot write itself: a grid as [nx, ny]
    and an array as a flat list of floats.  Anything else is a TypeError,
    so a wrong type in a record is an error, not a string."""
    if isinstance(obj, Grid2D):
        return [obj.nx, obj.ny]
    if isinstance(obj, np.ndarray):
        return [float(x) for x in np.ravel(obj)]
    raise TypeError(f"object of type {type(obj).__name__} is not JSON "
                    "serializable")


def _json_dump(path, doc):
    # encoded before the file is opened, so a TypeError leaves no part of it
    text = json.dumps(doc, indent=2, sort_keys=True, default=_jsonable)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# the JSON type a field must have, by the name an error gives it
_KINDS = {
    "a number": lambda v: _is_int(v) or isinstance(v, float),
    "an integer list": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "an integer pair": lambda v: (isinstance(v, list) and len(v) == 2
                                  and all(map(_is_int, v))),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
}


def _read_document(path, name, fmt):
    """Read the ``fmt`` JSON document at ``path`` (``path/name`` for a
    directory); return its path, a reader, ``field("numbers.beta0",
    "a number")`` for ``doc["numbers"]["beta0"]``, which must have that
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
                value = value[key]
            except (KeyError, TypeError):
                raise ValueError(f"{path}: missing field {dotted!r}") from None
        if not _KINDS[kind](value):
            raise ValueError(f"{path}: field {dotted!r} must be {kind}, got "
                             f"{json.dumps(value)[:60]}")
        return value

    def matrix(dotted):
        return read_matrix(os.path.join(os.path.dirname(path),
                                        field(dotted, "a string")))

    return path, field, matrix


def _model_digest(values):
    """SHA-256, in hex, over ``{name: value}``: each name and its value as
    little-endian float64, in name order."""
    h = hashlib.sha256()
    for name in sorted(values):
        h.update(name.encode("ascii") + b"\0")
        h.update(np.ascontiguousarray(values[name], dtype="<f8"))
    return h.hexdigest()


def save_model(out_dir, model: DeepGPModel, extra_meta=None):
    """Persist a model as model.json plus one container per array of
    :func:`deepgp.model_arrays`, the scalars among them in ``numbers``.

    The prediction factors are the model's ``_pred_cache``: all built here
    if it is empty and written as they are otherwise, so a caller who
    changed a parameter must clear it first.
    """
    # built first: a model that cannot be factored writes no file
    arrays = model_arrays(model)
    doc = {
        "format": MODEL_FORMAT,
        "version": __version__,
        "dims": [int(d) for d in model.dims],
        "training": dict(model.training_meta, **(extra_meta or {})),
        "numbers": {name: float(v) for name, v in arrays.items()
                    if np.ndim(v) == 0},
        "arrays": write_fields(out_dir, {name: v for name, v in arrays.items()
                                         if np.ndim(v) > 0}),
        "digest": _model_digest(arrays),
    }
    _json_dump(os.path.join(out_dir, "model.json"), doc)
    return os.path.join(out_dir, "model.json")


def load_model(model_dir) -> DeepGPModel:
    """Reload a persisted model, prediction factors included, so that it
    predicts bit-identically to the saved one without rebuilding them.

    Every field is type-checked and every array's name checked before any
    container is read: a name listed in both ``numbers`` and ``arrays`` is
    a ValueError naming it and model.json.  A container that cannot be
    read is a ValueError naming its file.  Then every shape is checked and
    the digest must match the containers and numbers as read, so a file
    edited after saving is a ValueError naming model.json, not a stale
    prediction.
    """
    path, field, get = _read_document(model_dir, "model.json", MODEL_FORMAT)
    dims = field("dims", "an integer list")
    training = field("training", "an object")
    if "output_grid" in training:
        field("training.output_grid", "an integer pair")
    numbers = {name: field(f"numbers.{name}", "a number")
               for name in field("numbers", "an object")}
    files = field("arrays", "an object")
    digest = field("digest", "a string")
    both = sorted(numbers.keys() & files.keys())
    if both:
        raise ValueError(f"{path}: model array '{both[0]}' is listed in both "
                         "'numbers' and 'arrays'")
    try:
        check_model_array_names(numbers.keys() | files.keys(), dims)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    arrays = {name: get(f"arrays.{name}") for name in files} | numbers
    try:
        model = model_from_arrays(arrays, dims, training)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if _model_digest(arrays) != digest:
        raise ValueError(f"{path}: field 'digest' does not match the arrays "
                         "and numbers read: a file changed after the model "
                         "was saved")
    return model


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
    among them) to its container's path.  Eigenfields that are not one row
    per eigenvalue and one column per grid cell or hold a non-finite entry,
    and an eigenvalue that is not finite and non-negative, are a ValueError
    naming the manifest."""
    path, field, get = _read_document(manifest_path, "manifest.json",
                                      DATASET_FORMAT)
    base = os.path.dirname(path)
    field("files.K", "a string")
    grid = Grid2D(*field("grid", "an integer pair"))
    vals, fields = get("kle.eigenvalues").ravel(), get("kle.eigenfields")
    if fields.shape != (vals.size, grid.n_cells):
        raise ValueError(f"{path}: field 'kle.eigenfields' has shape "
                         f"{fields.shape}, expected ({vals.size}, "
                         f"{grid.n_cells}): one row per eigenvalue, one "
                         "column per grid cell")
    if not np.isfinite(fields).all():
        raise ValueError(f"{path}: field 'kle.eigenfields' has a non-finite "
                         "entry")
    if not (np.isfinite(vals) & (vals >= 0.0)).all():
        raise ValueError(f"{path}: field 'kle.eigenvalues' must be finite and "
                         "non-negative")
    kle = KLExpansion(eigenvalues=vals, eigenfields=fields,
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
