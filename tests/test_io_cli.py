import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import dgpuq
from dgpuq import io
from dgpuq.deepgp import train_deep, predict
from dgpuq.kernels import ARDParams
from dgpuq.rng import rng_for, MC_BASELINE_STREAM
from helpers import one_realization


def cli_env(**overrides):
    """The test environment with the imported package's source on the path."""
    src = os.path.dirname(os.path.dirname(dgpuq.__file__))
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "dgpuq.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=cli_env())


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestMatrixContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(7, 13))
        path = tmp_path / "a.dgpm"
        io.write_matrix(path, arr)
        back = io.read_matrix(path)
        assert back.shape == (7, 13)
        assert np.array_equal(arr, back)
        io.write_matrix(path, back)
        assert np.array_equal(io.read_matrix(path), arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dgpm"
        path.write_bytes(b"NOPE1\n2 2 f64le\n" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            io.read_matrix(path)

    @pytest.mark.parametrize("size", [16, 33], ids=["truncated", "trailing"])
    def test_payload_of_wrong_length_rejected(self, tmp_path, size):
        path = tmp_path / "odd.dgpm"
        path.write_bytes(b"DGPM1\n2 2 f64le\n" + b"\x00" * size)
        with pytest.raises(ValueError, match=f"payload is {size} bytes"):
            io.read_matrix(path)

    def test_round_trip_holds_one_copy(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(500, 400))
        path = tmp_path / "big.dgpm"
        tracemalloc.start()
        try:
            io.write_matrix(path, arr)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = io.read_matrix(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert write_peak < 0.1 * arr.nbytes
        assert read_peak < 1.1 * arr.nbytes
        assert back.dtype == np.float64 and back.flags.writeable
        assert np.array_equal(back, arr)

    def test_three_dimensional_array_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"2-D arrays, got shape "
                                             r"\(2, 3, 4\)"):
            io.write_matrix(tmp_path / "a.dgpm", np.zeros((2, 3, 4)))
        assert not (tmp_path / "a.dgpm").exists()

    def test_header_dtype_enforced(self, tmp_path):
        path = tmp_path / "odd.dgpm"
        path.write_bytes(b"DGPM1\n2 2 f32le\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="header"):
            io.read_matrix(path)

    @pytest.mark.parametrize("header", [b"a b f64le\n", b"2 \xff2 f64le\n",
                                        b"-1 2 f64le\n"],
                             ids=["non-numeric", "non-ascii", "negative"])
    def test_malformed_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "odd.dgpm"
        path.write_bytes(b"DGPM1\n" + header + b"\x00" * 32)
        with pytest.raises(ValueError) as info:
            io.read_matrix(path)
        assert str(info.value).startswith(f"{path}: bad header")


def save_tiny_model(out_dir, outputs=3, **extra_meta):
    rng = rng_for(78)
    X = rng.uniform(0, 1, (12, 2))
    Y = rng.normal(size=(12, outputs))
    model = train_deep(X, Y, dims=[2], m_inducing=[6], iters=5, seed=1,
                       init_iters=20)
    io.save_model(out_dir, model, extra_meta)


class TestModelPersistence:
    def test_reload_reproduces_predictions_bitwise(self, tmp_path):
        rng = rng_for(77)
        X = rng.uniform(0, 1, (20, 2))
        Y = np.column_stack([np.sin(3 * X[:, 0]), X[:, 1] ** 2,
                             X[:, 0] * X[:, 1]])
        model = train_deep(X, Y, dims=[2], m_inducing=[8], iters=15, seed=5,
                           init_iters=30)
        Xs = rng.uniform(0, 1, (9, 2))
        mean0, var0 = predict(model, Xs)
        io.save_model(tmp_path / "mdl", model)
        back = io.load_model(tmp_path / "mdl")
        mean1, var1 = predict(back, Xs)
        assert np.array_equal(mean0, mean1)
        assert np.array_equal(var0, var1)

    def test_reload_reproduces_realizations_bitwise(self, tmp_path):
        rng = rng_for(81)
        X = rng.uniform(0, 1, (14, 2))
        Y = np.column_stack([np.cos(2 * X[:, 0]), X[:, 0] - X[:, 1]])
        model = train_deep(X, Y, dims=[2, 2], m_inducing=[5, 5], iters=4,
                           seed=2, init_iters=15)
        Xs = rng.uniform(0, 1, (7, 2))
        draw0 = one_realization(model, Xs, 5, 1, 2)
        io.save_model(tmp_path / "mdl", model)
        back = io.load_model(tmp_path / "mdl")
        # the loaded factors, not a rebuild, feed the draw
        assert back._pred_cache["input_chol"].flags.f_contiguous
        draw1 = one_realization(back, Xs, 5, 1, 2)
        assert np.array_equal(draw0, draw1)

    def test_model_file_schema(self, tmp_path):
        save_tiny_model(tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "model.json").read_text())
        assert doc["format"] == "dgpuq-model-v4"
        for name in doc["arrays"].values():
            assert (tmp_path / "m" / name).exists()

    def test_format_string_is_pinned_with_the_array_table(self):
        # what a model holds, by name and shape, for dims (2, 3), next to the
        # format string that names it: a change to the table that does not
        # bump the format fails here
        from dgpuq.deepgp import check_model_array_names
        table = {"X": ("n", "kappa"), "Y": ("n", "nu"), "tau0_sq": (),
                 "b": ("kappa",), "noise_var": (), "mu_bar": ("n", 2),
                 "lam": ("n", 2), "input_chol": ("n", "n"),
                 "input_norms": (1, "n")}
        for t, (q, q_out) in enumerate([(2, 3), (3, "nu")]):
            m = f"m{t}"
            table.update({f"Hu{t}": (m, q), f"sigma_h_sq{t}": (),
                          f"weights{t}": (q,), f"beta{t}": (),
                          f"means{t}": ("n", q), f"variances{t}": ("n", q),
                          f"layer{t}_V": (m, q_out), f"layer{t}_B": (m, m)})
        params, factors = check_model_array_names(table, (2, 3))
        assert (io.MODEL_FORMAT, {**params, **factors}) == (
            "dgpuq-model-v4", table)

    def test_cli_saved_model_holds_exactly_its_arrays(self, desk_dataset,
                                                       tmp_path):
        from dgpuq import cli
        from dgpuq.deepgp import model_arrays
        mdl = tmp_path / "m"
        assert cli.main(["train", "--data", str(desk_dataset), "--dims", "2,2",
                         "--inducing", "4,4", "--iters", "2",
                         "--init-iters", "3", "--out", str(mdl)]) == 0
        arrays = model_arrays(io.load_model(mdl))
        doc = json.loads((mdl / "model.json").read_text())
        assert doc["numbers"].keys() | doc["arrays"].keys() == arrays.keys()
        assert sorted(os.listdir(mdl)) == sorted(
            [f"{name}.dgpm" for name, v in arrays.items() if np.ndim(v)]
            + ["model.json", "elbo_trace.csv", "ard_weights.csv"])

    # the tiny model: n = 12 rows, one 2-dim layer with 6 inducing inputs;
    # the ids name each array by where the model holds it
    @pytest.mark.parametrize("name, shape, field", [
        ("lam.dgpm", (3, 5), "lam"),
        ("weights0.dgpm", (1, 1), "weights0"),
        ("Hu0.dgpm", (6, 1), "Hu0"),
        ("variances0.dgpm", (12, 1), "variances0")],
        ids=["input_layer.lam", "layers.0.weights", "layers.0.inducing_inputs",
             "layers.0.latent_variances"])
    def test_wrong_shape_array_rejected(self, tmp_path, name, shape, field):
        save_tiny_model(tmp_path / "m")
        io.write_matrix(tmp_path / "m" / name, np.ones(shape))
        with pytest.raises(ValueError) as info:
            io.load_model(tmp_path / "m")
        assert str(info.value).startswith(
            f"{tmp_path / 'm' / 'model.json'}: model array '{field}' has "
            f"shape {shape}")

    def test_loaded_model_rebuilds_no_prediction_factor(self, tmp_path,
                                                        monkeypatch):
        from dgpuq import deepgp, gplvm, kernels, uq
        save_tiny_model(tmp_path / "m")
        model = io.load_model(tmp_path / "m")
        n = model.X.shape[0]
        calls = []

        def spy(name, original):
            def wrapped(*args, **kwargs):
                calls.append((name, args))
                return original(*args, **kwargs)
            return wrapped

        for name in ("gram", "chol_psd", "layer_bound"):
            for module in (kernels, gplvm, deepgp, uq):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        spy(name, getattr(module, name)))
        Xs = rng_for(79).uniform(0, 1, (5, 2))
        predict(model, Xs)
        one_realization(model, Xs, 3)
        assert calls, "the spies saw no call at all"
        assert not [c for c in calls if c[0] == "layer_bound"]
        assert not [c for c in calls if c[0] == "gram"
                    and any(a is model.X for a in c[1][:2])]
        assert not [c for c in calls if c[0] == "chol_psd"
                    and np.shape(c[1][0]) == (n, n)]

    def test_non_model_json_rejected(self, tmp_path):
        (tmp_path / "model.json").write_text(json.dumps({"format": "x"}))
        with pytest.raises(ValueError):
            io.load_model(tmp_path)

    @pytest.mark.parametrize("field, message", [
        ("numbers.tau0_sq", "model array 'tau0_sq' is missing"),
        ("numbers.beta0", "model array 'beta0' is missing"),
        ("digest", "missing field 'digest'")],
        ids=["input_layer.tau0_sq", "layers.0.beta", "digest"])
    def test_missing_field_named_with_its_path(self, tmp_path, field,
                                               message):
        save_tiny_model(tmp_path / "m")
        path = tmp_path / "m" / "model.json"
        doc = json.loads(path.read_text())
        *parents, last = [int(k) if k.isdigit() else k
                          for k in field.split(".")]
        entry = doc
        for key in parents:
            entry = entry[key]
        del entry[last]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message) as info:
            io.load_model(tmp_path / "m")
        assert str(info.value).startswith(f"{path}: ")


def edit_model_json(model_dir, field, value):
    """Set the dotted ``field`` of model_dir's model.json to ``value``;
    return the document's path."""
    path = model_dir / "model.json"
    doc = json.loads(path.read_text())
    *parents, last = [int(k) if k.isdigit() else k for k in field.split(".")]
    entry = doc
    for key in parents:
        entry = entry[key]
    entry[last] = value(entry[last]) if callable(value) else value
    path.write_text(json.dumps(doc))
    return path


class TestModelDigest:
    def predict_exit(self, model_dir, tmp_path):
        from dgpuq import cli
        io.write_matrix(tmp_path / "x.dgpm", np.zeros((4, 2)))
        return cli.main(["predict", "--model", str(model_dir),
                         "--inputs", str(tmp_path / "x.dgpm"),
                         "--out", str(tmp_path / "p")])

    def test_beta_edited_after_save_exits_2(self, tmp_path, capsys):
        save_tiny_model(tmp_path / "m")
        path = edit_model_json(tmp_path / "m", "numbers.beta0",
                               lambda beta: 2.0 * beta)
        assert self.predict_exit(tmp_path / "m", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "field 'digest'" in err
        assert not (tmp_path / "p").exists()

    def test_container_rewritten_after_save_exits_2(self, tmp_path, capsys):
        save_tiny_model(tmp_path / "m")
        mu_bar = tmp_path / "m" / "mu_bar.dgpm"
        io.write_matrix(mu_bar, io.read_matrix(mu_bar) + 1e-12)
        assert self.predict_exit(tmp_path / "m", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "m" / "model.json") in err
        assert "field 'digest'" in err

    @pytest.mark.parametrize("fmt", ["dgpuq-model-v1", "dgpuq-model-v2",
                                     "dgpuq-model-v3"])
    def test_old_model_exits_2_naming_the_format(self, tmp_path, capsys, fmt):
        save_tiny_model(tmp_path / "m")
        path = edit_model_json(tmp_path / "m", "format", fmt)
        assert self.predict_exit(tmp_path / "m", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "dgpuq-model-v4" in err


class TestCsv:
    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        values = [0.1, 1.0 / 3.0, 2.5e-17]
        io.write_csv(path, ["i", "v"], [(i, v) for i, v in enumerate(values)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,v"
        for i, line in enumerate(lines[1:]):
            assert float(line.split(",")[1]) == values[i]


class TestReport:
    def test_report_of_an_unknown_object_raises(self, tmp_path):
        # a grid and an array have JSON forms; anything else is an error,
        # not its str, and no part of report.json is written
        with pytest.raises(TypeError, match="object of type object is not "
                                            "JSON serializable"):
            io.write_report(tmp_path, {"format": io.UQ_REPORT_FORMAT,
                                       "seed": object()},
                            {"mean": np.zeros(2)}, [])
        assert not (tmp_path / "report.json").exists()


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    t0 = time.time()
    res = run_cli("gen-data", "--n", "10", "--grid", "16", "--out-grid", "8",
                  "--kle", "10", "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert time.time() - t0 < 10.0  # desk-scale smoke budget
    return out


MC_ARGV = ["mc-baseline", "--kle-manifest", "{data}/manifest.json"]
TRAIN_ARGV = ["train", "--data", "{data}"]
UQ_ARGV = ["uq", "--model", "{tmp}/m", "--kle-manifest", "{data}/manifest.json",
           "--inner", "2", "--repeats", "2"]


def copy_without(out_dir, data, name):
    """Copy the dataset to out_dir/d, its manifest without ``files.<name>``."""
    shutil.copytree(data, out_dir / "d")
    doc = json.loads((data / "manifest.json").read_text())
    del doc["files"][name]
    (out_dir / "d" / "manifest.json").write_text(json.dumps(doc))


def tiny_model_and_three_columns(out_dir, data):
    save_tiny_model(out_dir / "m")
    io.write_matrix(out_dir / "x3.dgpm", np.zeros((4, 3)))


class TestCli:
    def test_gen_data_outputs(self, desk_dataset):
        doc = json.loads((desk_dataset / "manifest.json").read_text())
        assert doc["n"] == 10
        assert doc["files"] == {name: f"{name}.dgpm"
                                for name in ("K", "p", "ux", "uy")}
        assert "flags" not in doc
        K = io.read_matrix(desk_dataset / "K.dgpm")
        p = io.read_matrix(desk_dataset / "p.dgpm")
        assert K.shape == (10, 256)
        assert p.shape == (10, 64)
        assert np.all(K > 0)

    def test_gen_data_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            res = run_cli("gen-data", "--n", "4", "--grid", "16", "--out-grid",
                          "8", "--kle", "6", "--seed", "11", "--out", str(out))
            assert res.returncode == 0, res.stderr
        for name in ("K.dgpm", "p.dgpm", "ux.dgpm", "uy.dgpm"):
            assert file_hash(a / name) == file_hash(b / name)

    def test_gen_data_on_a_160_by_160_grid(self, tmp_path):
        t0 = time.time()
        res = run_cli("gen-data", "--n", "1", "--grid", "160", "--out-grid",
                      "32", "--kle", "50", "--out", str(tmp_path / "fine"))
        assert res.returncode == 0, res.stderr
        assert time.time() - t0 < 10.0  # desk-scale smoke budget
        assert io.read_matrix(tmp_path / "fine" / "p.dgpm").shape == (1, 1024)

    def test_gen_data_and_mc_baseline_draw_different_inputs(self, tmp_path):
        from dgpuq.uq import InputDistribution, mc_baseline
        res = run_cli("gen-data", "--n", "1", "--grid", "16", "--out-grid",
                      "8", "--kle", "10", "--seed", "0", "--out",
                      str(tmp_path / "d"))
        assert res.returncode == 0, res.stderr
        info = io.load_kle_from_manifest(tmp_path / "d" / "manifest.json")
        drawn = []
        mc_baseline(lambda K: drawn.append(K) or K[..., :1],
                    InputDistribution(kle=info["kle"]), N=2, seed=0)
        K0 = io.read_matrix(tmp_path / "d" / "K.dgpm")[0]
        assert not np.allclose(drawn[0], K0)

    def test_gen_data_equals_a_per_sample_loop(self, tmp_path):
        # 256 cells: blocks of 32 rows, so 70 samples run as 32, 32 and 6
        from dgpuq import cli
        from dgpuq.darcy import solve, restrict
        from dgpuq.random_field import sample_permeability
        from dgpuq.rng import GEN_DATA_STREAM
        assert cli.main(["gen-data", "--n", "70", "--grid", "16", "--out-grid",
                         "8", "--kle", "10", "--sg", "4", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        info = io.load_kle_from_manifest(tmp_path / "manifest.json")
        grid, source = info["grid"], info["source"]
        K = np.array([sample_permeability(info["kle"],
                                          rng_for(3, GEN_DATA_STREAM, i))
                      for i in range(70)])
        p = np.array([restrict(solve(grid, k, source).pressure, 16, 16, 8, 8)
                      for k in K])
        np.testing.assert_array_equal(io.read_matrix(tmp_path / "K.dgpm"), K)
        np.testing.assert_array_equal(io.read_matrix(tmp_path / "p.dgpm"), p)

    def test_invalid_grid_combo_exits_2(self, tmp_path):
        res = run_cli("gen-data", "--n", "2", "--grid", "16", "--out-grid",
                      "7", "--out", str(tmp_path / "x"))
        assert res.returncode == 2

    def test_zero_output_grid_exits_2(self, tmp_path):
        res = run_cli("gen-data", "--n", "2", "--grid", "16", "--out-grid",
                      "0", "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        assert "--out-grid" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("args, flag, value", [
        (["--out-grid", "1"], "--out-grid", 1),
        (["--grid", "1", "--out-grid", "1"], "--grid", 1),
        (["--grid", "16", "--out-grid", "0"], "--out-grid", 0)])
    def test_gen_data_grid_below_two_names_its_flag(self, tmp_path, capsys,
                                                     args, flag, value):
        from dgpuq import cli
        code = cli.main(["gen-data", "--n", "2", *args,
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag} must be at least 2, got {value}\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen-data", "--kle", "0"], "--kle must be at least 1, got 0"),
        (["gen-data", "--grid", "8", "--out-grid", "4", "--kle", "65"],
         "--kle must be at most 64, got 65"),
        (["gen-data", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["train", "--data", "{tmp}/nope", "--seed", "-1"],
         "--seed must be at least 0, got -1"),
        (["uq", "--model", "{tmp}/nope", "--kle-manifest", "{tmp}/nope",
          "--inner", "1"], "--inner must be at least 2, got 1"),
        (["uq", "--model", "{tmp}/nope", "--kle-manifest", "{tmp}/nope",
          "--repeats", "1"], "--repeats must be at least 2, got 1"),
        (["uq", "--model", "{tmp}/nope", "--kle-manifest", "{tmp}/nope",
          "--seed", "-2"], "--seed must be at least 0, got -2"),
        (["mc-baseline", "--kle-manifest", "{tmp}/nope", "--n", "1"],
         "--n must be at least 2, got 1"),
        (["mc-baseline", "--kle-manifest", "{tmp}/nope", "--seed", "-1"],
         "--seed must be at least 0, got -1")],
        ids=["gen-data-kle", "gen-data-kle-cells", "gen-data-seed",
             "train-seed", "uq-inner", "uq-repeats", "uq-seed", "mc-n",
             "mc-seed"])
    def test_count_or_seed_below_its_floor_names_its_flag(
            self, tmp_path, capsys, argv, message):
        # the files named do not exist: the flag is checked before any read
        from dgpuq import cli
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_mc_baseline_pdf_location_outside_the_domain_exits_2(
            self, desk_dataset, tmp_path):
        res = run_cli("mc-baseline", "--kle-manifest",
                      str(desk_dataset / "manifest.json"), "--n", "4",
                      "--pdf-at", "0.5,0.5;1.7,0.2", "--out", str(tmp_path / "mc"))
        assert res.returncode == 2
        assert "(1.7, 0.2)" in res.stderr
        assert not (tmp_path / "mc").exists()

    def test_full_pipeline_and_reload_determinism(self, desk_dataset, tmp_path):
        mdl = tmp_path / "mdl"
        res = run_cli("train", "--data", str(desk_dataset), "--target", "p",
                      "--layers", "2", "--dims", "3,3", "--inducing", "8,8",
                      "--iters", "12", "--init-iters", "25", "--seed", "1",
                      "--out", str(mdl))
        assert res.returncode == 0, res.stderr
        trace = np.loadtxt(mdl / "elbo_trace.csv", delimiter=",", skiprows=1)
        assert np.all(np.diff(trace[:, 1]) >= -1e-6)

        pred = tmp_path / "pred"
        res = run_cli("predict", "--model", str(mdl), "--inputs",
                      str(desk_dataset / "K.dgpm"), "--out", str(pred))
        assert res.returncode == 0, res.stderr
        var = io.read_matrix(pred / "variance.dgpm")
        assert np.all(var > 0)

        pred2 = tmp_path / "pred2"
        res = run_cli("predict", "--model", str(mdl), "--inputs",
                      str(desk_dataset / "K.dgpm"), "--out", str(pred2))
        assert res.returncode == 0
        assert file_hash(pred / "mean.dgpm") == file_hash(pred2 / "mean.dgpm")

        uqd = tmp_path / "uq"
        res = run_cli("uq", "--model", str(mdl), "--kle-manifest",
                      str(desk_dataset / "manifest.json"), "--inner", "8",
                      "--repeats", "3", "--pdf-at", "0.5,0.5", "--seed", "2",
                      "--out", str(uqd))
        assert res.returncode == 0, res.stderr
        eb = io.read_matrix(uqd / "errorbar_mean.dgpm")
        assert eb.shape == (1, 64) and np.all(eb >= 0)
        doc = json.loads((uqd / "report.json").read_text())
        assert doc["fields"] == {name: f"{name}.dgpm" for name in (
            "mean_of_mean", "mean_of_variance", "errorbar_mean",
            "errorbar_variance")}
        assert (uqd / "pdf_0.csv").exists()

    def test_train_whose_trial_beta_overflows_does_not_crash(self, tmp_path):
        # a joint-phase line-search trial takes beta past 1.3e154, where the
        # Python float beta ** 2 of the layer bound raises OverflowError
        data = tmp_path / "d"
        res = run_cli("gen-data", "--n", "150", "--grid", "32", "--out-grid",
                      "16", "--seed", "11", "--out", str(data))
        assert res.returncode == 0, res.stderr
        res = run_cli("train", "--data", str(data), "--layers", "1", "--dims",
                      "8", "--inducing", "30", "--iters", "5", "--init-iters",
                      "10", "--seed", "3", "--out", str(tmp_path / "m"))
        assert res.returncode in (0, 3), res.stderr

    def test_gen_data_solver_failure_names_the_sample(self, monkeypatch,
                                                     tmp_path, capsys):
        from dgpuq import cli, darcy
        argv = ["gen-data", "--n", "4", "--grid", "8", "--out-grid", "4",
                "--kle", "5", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        K2 = io.read_matrix(tmp_path / "K.dgpm")[2]
        capsys.readouterr()
        real = darcy.solve

        def failing(grid, K, source):
            if any(np.array_equal(row, K2) for row in np.atleast_2d(K)):
                raise np.linalg.LinAlgError("band is not positive definite")
            return real(grid, K, source)

        monkeypatch.setattr(darcy, "solve", failing)
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            "numeric failure: simulator failed at sample 2: band is not "
            "positive definite\n")

    def test_overflow_in_a_command_exits_3(self, monkeypatch, tmp_path):
        from dgpuq import cli

        def overflow(args):
            raise OverflowError("Numerical result out of range")

        monkeypatch.setattr(cli, "cmd_predict", overflow)
        assert cli.main(["predict", "--model", "m", "--inputs", "x",
                         "--out", str(tmp_path)]) == 3

    def test_runtime_error_in_a_command_propagates(self, monkeypatch,
                                                   tmp_path):
        from dgpuq import cli

        def broken(args):
            raise RuntimeError("not a numerical failure")

        monkeypatch.setattr(cli, "cmd_predict", broken)
        with pytest.raises(RuntimeError, match="not a numerical failure"):
            cli.main(["predict", "--model", "m", "--inputs", "x",
                      "--out", str(tmp_path)])

    def test_key_error_in_a_command_propagates(self, monkeypatch, tmp_path):
        from dgpuq import cli

        def broken(args):
            return {}["not a usage error"]

        monkeypatch.setattr(cli, "cmd_predict", broken)
        with pytest.raises(KeyError, match="not a usage error"):
            cli.main(["predict", "--model", "m", "--inputs", "x",
                      "--out", str(tmp_path)])

    def test_two_calls_build_one_parser(self, monkeypatch, tmp_path):
        import argparse
        from dgpuq import cli
        parsers, real = [], argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        monkeypatch.setattr(cli, "cmd_predict", lambda args: None)
        for _ in range(2):
            assert cli.main(["predict", "--model", "m", "--inputs", "x",
                             "--out", str(tmp_path)]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_predict_on_a_model_without_dims_names_file_and_field(
            self, tmp_path, capsys):
        from dgpuq import cli
        save_tiny_model(tmp_path / "m")
        path = tmp_path / "m" / "model.json"
        doc = json.loads(path.read_text())
        del doc["dims"]
        path.write_text(json.dumps(doc))
        io.write_matrix(tmp_path / "x.dgpm", np.zeros((4, 2)))
        assert cli.main(["predict", "--model", str(tmp_path / "m"),
                         "--inputs", str(tmp_path / "x.dgpm"),
                         "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'dims'" in err
        assert not (tmp_path / "p").exists()

    def test_train_on_a_manifest_without_inputs_names_files_k(
            self, desk_dataset, tmp_path, capsys):
        from dgpuq import cli
        doc = json.loads((desk_dataset / "manifest.json").read_text())
        del doc["files"]["K"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        assert cli.main(["train", "--data", str(tmp_path),
                         "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "'files.K'" in err

    @pytest.mark.parametrize("field, value", [
        ("dims", [None]),
        pytest.param("numbers.tau0_sq", "x", id="input_layer.tau0_sq-x"),
        pytest.param("numbers.beta0", [1.0], id="layers.0.beta-value2"),
        ("training", 3),
        ("training.output_grid", "x"), ("training.output_grid", [64])])
    def test_predict_on_a_wrong_typed_field_names_file_and_field(
            self, tmp_path, capsys, field, value):
        from dgpuq import cli
        save_tiny_model(tmp_path / "m")
        path = edit_model_json(tmp_path / "m", field, value)
        io.write_matrix(tmp_path / "x.dgpm", np.zeros((4, 2)))
        assert cli.main(["predict", "--model", str(tmp_path / "m"),
                         "--inputs", str(tmp_path / "x.dgpm"),
                         "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"field '{field}' must be" in err

    @pytest.mark.parametrize("field, value", [
        ("grid", [32]), ("files", {"K": 7}),
        ("source", {"rate": None, "width": 0.125})])
    def test_train_on_a_wrong_typed_manifest_field_exits_2(
            self, desk_dataset, tmp_path, capsys, field, value):
        from dgpuq import cli
        data = tmp_path / "d"
        shutil.copytree(desk_dataset, data)
        doc = json.loads((data / "manifest.json").read_text())
        doc[field] = value
        (data / "manifest.json").write_text(json.dumps(doc))
        assert cli.main(["train", "--data", str(data),
                         "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and f"field '{field}" in err

    def test_truncated_model_json_names_the_file(self, tmp_path, capsys):
        from dgpuq import cli
        save_tiny_model(tmp_path / "m")
        path = tmp_path / "m" / "model.json"
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        assert cli.main(["predict", "--model", str(tmp_path / "m"),
                         "--inputs", str(tmp_path / "x.dgpm"),
                         "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not valid JSON" in err

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--n", "0", "--out", "{tmp}/x"],
        ["gen-data", "--grid", "16", "--out-grid", "7", "--out", "{tmp}/x"],
        ["train", "--data", "{tmp}/nope", "--out", "{tmp}/m"],
        ["mc-baseline", "--kle-manifest", "{data}/manifest.json",
         "--pdf-at", "0.5", "--out", "{tmp}/mc"],
    ])
    def test_usage_error_returns_2_in_process(self, desk_dataset, tmp_path,
                                              capsys, argv):
        from dgpuq import cli
        argv = [a.format(data=desk_dataset, tmp=tmp_path) for a in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("iters, init_iters, flag", [
        ("-3", "-2", "--iters"), ("5", "-2", "--init-iters"),
        ("-1", "0", "--iters")])
    def test_train_with_a_negative_iteration_count_names_the_flag(
            self, desk_dataset, tmp_path, capsys, iters, init_iters, flag):
        from dgpuq import cli
        code = cli.main(["train", "--data", str(desk_dataset), "--dims", "2,2",
                         "--inducing", "4,4", "--iters", iters,
                         "--init-iters", init_iters,
                         "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be")
        assert not (tmp_path / "m").exists()

    def test_train_with_zero_iterations_keeps_the_greedy_init(
            self, desk_dataset, tmp_path, capsys):
        from dgpuq import cli
        code = cli.main(["train", "--data", str(desk_dataset), "--dims", "2,2",
                         "--inducing", "4,4", "--iters", "0",
                         "--init-iters", "0", "--out", str(tmp_path / "m")])
        assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "m" / "model.json").read_text())
        assert len(doc["training"]["elbo_trace"]) == 1

    @pytest.mark.parametrize("broken, message", [
        ("sigma_h_sq", "layer 2 degenerated in the greedy fit: its sigma_h_sq "
                       "fell from "),
        ("beta", "the joint bound is not finite at its start: layer 1: ")],
        ids=["collapsed-greedy-layer", "bound-not-finite-at-joint-start"])
    def test_train_of_a_degenerate_layer_exits_3_naming_it(
            self, desk_dataset, tmp_path, capsys, monkeypatch, broken,
            message):
        from dgpuq import cli, deepgp
        real = deepgp.train_gplvm

        def breaking(*args, **kwargs):
            layer, trace = real(*args, **kwargs)
            if broken == "beta":
                layer.beta = 1e200
            else:
                layer.kernel = ARDParams(1e-12 * layer.kernel.sigma_h_sq,
                                         layer.kernel.weights)
            return layer, trace

        monkeypatch.setattr(deepgp, "train_gplvm", breaking)
        code = cli.main(["train", "--data", str(desk_dataset), "--dims", "2,2",
                         "--inducing", "4,4", "--iters", "2",
                         "--init-iters", "3", "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"numeric failure: {message}")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "m").exists()

    def test_train_takes_its_layer_count_from_dims(self, desk_dataset,
                                                   tmp_path, capsys):
        from dgpuq import cli
        code = cli.main(["train", "--data", str(desk_dataset), "--dims", "3",
                         "--inducing", "8", "--iters", "2", "--init-iters", "3",
                         "--out", str(tmp_path / "m")])
        assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "m" / "model.json").read_text())
        assert doc["dims"] == [3]
        code = cli.main(["train", "--data", str(desk_dataset), "--layers", "3",
                         "--dims", "3", "--inducing", "8",
                         "--out", str(tmp_path / "m3")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --layers 3 does not match --dims 3\n")

    def test_train_layer_mismatch_exits_2(self, desk_dataset, tmp_path):
        res = run_cli("train", "--data", str(desk_dataset), "--layers", "3",
                      "--dims", "3,3", "--inducing", "8,8",
                      "--out", str(tmp_path / "m2"))
        assert res.returncode == 2

    @pytest.mark.parametrize("argv, setup, message", [
        pytest.param(MC_ARGV + ["--pdf-at", "0.5,x"], None,
                     "location '0.5,x' is not numeric",
                     id="pdf-at-not-numeric"),
        pytest.param(MC_ARGV + ["--pdf-at", ";"], None, "no locations parsed",
                     id="pdf-at-empty"),
        pytest.param(["train", "--data", "{tmp}/d", "--target", "ux"],
                     lambda tmp, data: copy_without(tmp, data, "ux"),
                     "--target must be one of ['K', 'p', 'uy']",
                     id="target-not-in-manifest"),
        pytest.param(TRAIN_ARGV + ["--dims", "2,2", "--inducing", "4"], None,
                     "--inducing must have one entry per layer",
                     id="inducing-count"),
        pytest.param(TRAIN_ARGV + ["--dims", "300,3", "--inducing", "5,5"],
                     None, "layer 1: latent dimension must satisfy "
                     "1 <= q <= 3, got 300", id="dims-wider-than-next-layer"),
        pytest.param(TRAIN_ARGV + ["--dims", "2,2", "--inducing", "60,6"],
                     None, "layer 1: inducing count must satisfy "
                     "1 <= m <= 10, got 60", id="inducing-above-rows"),
        pytest.param(TRAIN_ARGV + ["--inducing", "0,5"], None,
                     "--inducing must be a comma-separated list of positive "
                     "integers, got '0,5'", id="inducing-not-positive"),
        pytest.param(TRAIN_ARGV + ["--dims", "2,x"], None,
                     "--dims must be a comma-separated list of positive "
                     "integers, got '2,x'", id="dims-not-integers"),
        pytest.param(["predict", "--model", "{tmp}/m", "--inputs",
                      "{tmp}/x3.dgpm"], tiny_model_and_three_columns,
                     "inputs have 3 columns, model expects 2",
                     id="predict-columns"),
        pytest.param(UQ_ARGV, lambda tmp, data: save_tiny_model(tmp / "m"),
                     "model output dimension does not match the output grid",
                     id="uq-output-grid"),
        pytest.param(UQ_ARGV, lambda tmp, data: save_tiny_model(
                         tmp / "m", outputs=4, output_grid=[2, 2]),
                     "KLE manifest fields have 256 cells, model expects 2 "
                     "input columns", id="uq-input-cells")])
    def test_bad_input_exits_2_naming_it(self, desk_dataset, tmp_path,
                                         capsys, argv, setup, message):
        from dgpuq import cli
        if setup is not None:
            setup(tmp_path, desk_dataset)
        argv = [a.format(data=desk_dataset, tmp=tmp_path) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_predict_on_wrong_shape_model_exits_2(self, tmp_path):
        save_tiny_model(tmp_path / "m")
        io.write_matrix(tmp_path / "m" / "lam.dgpm", np.ones((3, 5)))
        io.write_matrix(tmp_path / "x.dgpm", np.zeros((4, 2)))
        res = run_cli("predict", "--model", str(tmp_path / "m"), "--inputs",
                      str(tmp_path / "x.dgpm"), "--out", str(tmp_path / "p"))
        assert res.returncode == 2
        assert "model array 'lam'" in res.stderr

    def test_predict_names_a_stray_array_before_reading_any(self, tmp_path,
                                                            capsys):
        from dgpuq import cli
        save_tiny_model(tmp_path / "m")
        path = edit_model_json(tmp_path / "m", "arrays.junk", "missing.dgpm")
        io.write_matrix(tmp_path / "x.dgpm", np.zeros((4, 2)))
        assert cli.main(["predict", "--model", str(tmp_path / "m"),
                         "--inputs", str(tmp_path / "x.dgpm"),
                         "--out", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unknown model array 'junk'\n")

    def test_predict_names_an_array_that_is_also_a_number(self, tmp_path,
                                                          capsys):
        # beta0 is one of the model's numbers; its container is never
        # written, so reading it first would name the missing file instead
        from dgpuq import cli
        save_tiny_model(tmp_path / "m")
        path = edit_model_json(tmp_path / "m", "arrays.beta0", "beta0.dgpm")
        io.write_matrix(tmp_path / "x.dgpm", np.zeros((4, 2)))
        assert cli.main(["predict", "--model", str(tmp_path / "m"),
                         "--inputs", str(tmp_path / "x.dgpm"),
                         "--out", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: model array 'beta0' is listed in both 'numbers' "
            "and 'arrays'\n")
        assert not (tmp_path / "p").exists()

    def test_predict_on_a_broken_container_names_that_file(self, tmp_path,
                                                           capsys):
        from dgpuq import cli
        save_tiny_model(tmp_path / "m")
        (tmp_path / "m" / "lam.dgpm").write_bytes(b"not a container\n")
        io.write_matrix(tmp_path / "x.dgpm", np.zeros((4, 2)))
        assert cli.main(["predict", "--model", str(tmp_path / "m"),
                         "--inputs", str(tmp_path / "x.dgpm"),
                         "--out", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'm' / 'lam.dgpm'}: bad magic")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predict_on_a_non_finite_input_names_file_and_row(
            self, tmp_path, capsys, bad):
        from dgpuq import cli
        save_tiny_model(tmp_path / "m")
        X = np.zeros((4, 2))
        X[2, 1] = bad
        io.write_matrix(tmp_path / "x.dgpm", X)
        assert cli.main(["predict", "--model", str(tmp_path / "m"),
                         "--inputs", str(tmp_path / "x.dgpm"),
                         "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'x.dgpm'}: row 2 has a "
                       "non-finite entry\n")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("name, row, col, bad", [
        ("p", 4, 17, np.nan), ("K", 7, 0, np.inf)], ids=["nan-in-p", "inf-in-K"])
    def test_train_on_a_non_finite_entry_names_file_and_row(
            self, desk_dataset, tmp_path, capsys, name, row, col, bad):
        from dgpuq import cli
        data = tmp_path / "d"
        shutil.copytree(desk_dataset, data)
        M = io.read_matrix(data / f"{name}.dgpm")
        M[row, col] = bad
        io.write_matrix(data / f"{name}.dgpm", M)
        assert cli.main(["train", "--data", str(data), "--dims", "2",
                         "--inducing", "4", "--iters", "2", "--init-iters", "3",
                         "--out", str(tmp_path / "m")]) == 2
        assert capsys.readouterr().err == (
            f"error: {data / f'{name}.dgpm'}: row {row} has a non-finite "
            "entry\n")
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("shape", [(9, 256), (10, 250)],
                             ids=["rows", "columns"])
    def test_eigenfields_of_the_wrong_shape_name_the_manifest(
            self, desk_dataset, tmp_path, capsys, shape):
        # the dataset has 10 eigenvalues on a 16 x 16 grid
        from dgpuq import cli
        data = tmp_path / "d"
        shutil.copytree(desk_dataset, data)
        io.write_matrix(data / "kle_eigenfields.dgpm", np.ones(shape))
        message = (f"{data / 'manifest.json'}: field 'kle.eigenfields' has "
                   f"shape {shape}, expected (10, 256)")
        with pytest.raises(ValueError, match=re.escape(message)):
            io.load_kle_from_manifest(data)
        assert cli.main(["mc-baseline", "--kle-manifest", str(data), "--n", "2",
                         "--out", str(tmp_path / "mc")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("name, index, bad, field, what", [
        ("kle_eigenfields", (3, 40), np.nan, "eigenfields", "has a non-finite"),
        ("kle_eigenfields", (0, 0), -np.inf, "eigenfields", "has a non-finite"),
        ("kle_eigenvalues", (0, 2), np.nan, "eigenvalues", "must be finite"),
        ("kle_eigenvalues", (0, 9), np.inf, "eigenvalues", "must be finite"),
        ("kle_eigenvalues", (0, 5), -1e-3, "eigenvalues", "must be finite")],
        ids=["nan-field", "inf-field", "nan-value", "inf-value",
             "negative-value"])
    def test_non_finite_kle_names_the_manifest(self, desk_dataset, tmp_path,
                                               capsys, name, index, bad, field,
                                               what):
        from dgpuq import cli
        data = tmp_path / "d"
        shutil.copytree(desk_dataset, data)
        M = io.read_matrix(data / f"{name}.dgpm")
        M[index] = bad
        io.write_matrix(data / f"{name}.dgpm", M)
        message = f"{data / 'manifest.json'}: field 'kle.{field}' {what}"
        with pytest.raises(ValueError, match=re.escape(message)):
            io.load_kle_from_manifest(data)
        save_tiny_model(tmp_path / "m")
        for argv in (["mc-baseline", "--kle-manifest", str(data), "--n", "2"],
                     ["uq", "--model", str(tmp_path / "m"), "--kle-manifest",
                      str(data), "--inner", "2", "--repeats", "2"],
                     ["train", "--data", str(data), "--dims", "2",
                      "--inducing", "4", "--iters", "2", "--init-iters", "3"]):
            assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")
            assert not (tmp_path / "out").exists()

    def test_uq_on_a_manifest_of_another_grid_exits_2(self, desk_dataset,
                                                        tmp_path):
        mdl = tmp_path / "mdl"
        res = run_cli("train", "--data", str(desk_dataset), "--target", "p",
                      "--layers", "1", "--dims", "2", "--inducing", "4",
                      "--iters", "2", "--init-iters", "3", "--out", str(mdl))
        assert res.returncode == 0, res.stderr
        other = tmp_path / "other"
        res = run_cli("gen-data", "--n", "1", "--grid", "32", "--out-grid",
                      "8", "--kle", "10", "--out", str(other))
        assert res.returncode == 0, res.stderr
        res = run_cli("uq", "--model", str(mdl), "--kle-manifest",
                      str(other / "manifest.json"), "--inner", "4",
                      "--repeats", "2", "--out", str(tmp_path / "uq"))
        assert res.returncode == 2
        # named as a manifest/model mismatch, not as a failed realization
        assert "KLE manifest" in res.stderr
        assert "1024" in res.stderr and "256" in res.stderr
        assert not (tmp_path / "uq").exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        res = run_cli("train", "--data", str(tmp_path / "nope"),
                      "--out", str(tmp_path / "m3"))
        assert res.returncode == 2

    def test_mc_baseline_minimal(self, desk_dataset, tmp_path):
        out = tmp_path / "mc"
        res = run_cli("mc-baseline", "--kle-manifest",
                      str(desk_dataset / "manifest.json"), "--n", "2",
                      "--seed", "4", "--out", str(out))
        assert res.returncode == 0, res.stderr
        var = io.read_matrix(out / "variance.dgpm")
        assert np.all(var >= 0)

    def test_mc_baseline_streaming_mean_oracle(self, desk_dataset, tmp_path):
        out = tmp_path / "mc2"
        res = run_cli("mc-baseline", "--kle-manifest",
                      str(desk_dataset / "manifest.json"), "--n", "30",
                      "--target", "p", "--seed", "9", "--out", str(out))
        assert res.returncode == 0, res.stderr
        mean = io.read_matrix(out / "mean.dgpm").ravel()

        # independent loop oracle over the same derived sample seeds
        from dgpuq.darcy import solve, restrict
        from dgpuq.random_field import permeability
        info = io.load_kle_from_manifest(desk_dataset / "manifest.json")
        grid, og = info["grid"], info["out_grid"]
        acc = np.zeros(og.n_cells)
        for i in range(30):
            rng = rng_for(9, MC_BASELINE_STREAM, i)
            xi = np.clip(rng.uniform(size=info["kle"].k_xi), 1e-15, 1 - 1e-15)
            sol = solve(grid, permeability(info["kle"], xi), info["source"])
            acc += restrict(sol.pressure, grid.nx, grid.ny, og.nx, og.ny)
        assert np.abs(mean - acc / 30).max() < 1e-12

    @pytest.mark.parametrize("module", ["dgpuq", "dgpuq.cli"])
    def test_import_has_no_side_effects(self, module):
        env = cli_env(DGP_THREADS="1")
        for var in BLAS_THREAD_VARS:
            env.pop(var, None)
        code = ("import json, os, sys\n"
                "before = dict(os.environ)\n"
                f"import {module}\n"
                "print(json.dumps({'environ_unchanged': dict(os.environ) == before,"
                " 'numpy_loaded': 'numpy' in sys.modules}))\n")
        res = subprocess.run([sys.executable, "-W", "always", "-c", code],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert json.loads(res.stdout) == {"environ_unchanged": True,
                                          "numpy_loaded": False}

    def test_suite_pins_blas_to_one_thread(self):
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps to find the loaded BLAS")
        res = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE],
                             capture_output=True, text=True, env=cli_env())
        assert res.returncode == 0, res.stderr
        counts = [int(line.split()[-1]) for line in res.stdout.splitlines()]
        if not counts:
            pytest.skip("no OpenBLAS loaded; nothing to read the count from")
        assert counts == [1] * len(counts), res.stdout


def source_nodes(*owners):
    """``(file name, node)`` for every syntax node of every package module
    but the ``owners``."""
    import ast
    src = os.path.dirname(dgpuq.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name in owners:
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            yield name, node


def private_names_from(module, node):
    """The private names of ``module`` that an import or attribute node
    reaches for."""
    import ast
    if isinstance(node, ast.ImportFrom):
        mod = "." * node.level + (node.module or "")
        return [a.name for a in node.names
                if mod in ("." + module, "dgpuq." + module)
                and a.name.startswith("_")]
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == module and node.attr.startswith("_")):
        return [f"{module}.{node.attr}"]
    return []


class TestOneOwnerOfFormats:
    """Only ``io`` reads or writes JSON, and no module reaches into io's
    private helpers, so every on-disk layout has a single owner."""

    def test_only_io_touches_json_or_io_internals(self):
        import ast
        offences = []
        for name, node in source_nodes("io.py"):
            if isinstance(node, ast.Import):
                bad = [a.name for a in node.names
                       if a.name.split(".")[0] == "json"]
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "json"
                  and not node.level):
                bad = [node.module]
            else:
                bad = private_names_from("io", node)
            offences += [f"{name}:{node.lineno}: {b}" for b in bad]
        assert offences == []


class TestOneOwnerOfPredictionState:
    """Only ``deepgp`` names ``_pred_cache`` or its own private names, so
    the prediction factors have a single owner and a single layout."""

    def test_only_deepgp_touches_the_prediction_cache(self):
        import ast
        offences = []
        for name, node in source_nodes("deepgp.py"):
            bad = private_names_from("deepgp", node)
            if (isinstance(node, ast.Attribute) and node.attr == "_pred_cache"
                    or isinstance(node, ast.Name) and node.id == "_pred_cache"):
                bad.append("_pred_cache")
            offences += [f"{name}:{node.lineno}: {b}" for b in bad]
        assert offences == []


class TestOneOwnerOfModelState:
    """Only ``deepgp`` and ``gplvm`` build the model's parts, so what a
    model holds is laid out once: every other module goes through
    ``deepgp.model_arrays`` and ``deepgp.model_from_arrays``."""

    def test_only_deepgp_and_gplvm_build_model_parts(self):
        import ast
        parts = {"DeepGPModel", "InputLayer", "LayerState",
                 "VariationalLatent", "InducingSet"}
        offences = []
        for name, node in source_nodes("deepgp.py", "gplvm.py"):
            if isinstance(node, ast.Call):
                fn = node.func
                called = fn.id if isinstance(fn, ast.Name) else getattr(
                    fn, "attr", None)
                if called in parts:
                    offences.append(f"{name}:{node.lineno}: {called}")
        assert offences == []


def package_modules():
    """``(name, module)`` for every module of the package, imported."""
    import importlib
    import pkgutil
    return [(info.name, importlib.import_module(f"dgpuq.{info.name}"))
            for info in pkgutil.iter_modules(dgpuq.__path__)]


class TestPublicNames:
    """A module's ``__all__`` names exactly what it offers: the benchmark
    tracer (``bench/tracing.py``) fetches each name with ``getattr`` and
    times only the functions listed there."""

    def test_every_exported_name_is_defined(self):
        missing = []
        for name, mod in package_modules():
            missing += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ())
                        if not hasattr(mod, attr)]
        assert missing == []

    def test_every_public_function_is_exported(self):
        # cli's commands are reached through main, not imported
        import inspect
        unlisted = []
        for name, mod in package_modules():
            if name == "cli":
                continue
            unlisted += [f"{name}.{attr}" for attr, fn in vars(mod).items()
                         if inspect.isfunction(fn)
                         and fn.__module__ == mod.__name__
                         and not attr.startswith("_")
                         and attr not in getattr(mod, "__all__", ())]
        assert unlisted == []


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# loads numpy's and scipy's BLAS, then asks every loaded OpenBLAS for its
# own count
BLAS_THREADS_PROBE = """
import ctypes, os
import numpy, scipy.linalg
getters = ("openblas_get_num_threads", "openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
with open("/proc/self/maps") as fh:
    paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
for path in sorted(p for p in paths if ".so" in os.path.basename(p)):
    lib = ctypes.CDLL(path)
    fn = next((getattr(lib, g) for g in getters if hasattr(lib, g)), None)
    if fn is not None:
        fn.restype = ctypes.c_int
        print(os.path.basename(path), fn())
"""
