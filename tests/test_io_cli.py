import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import dgpuq
from dgpuq import io
from dgpuq.deepgp import train_deep, predict
from dgpuq.rng import rng_for, MC_BASELINE_STREAM


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

    def test_header_dtype_enforced(self, tmp_path):
        path = tmp_path / "odd.dgpm"
        path.write_bytes(b"DGPM1\n2 2 f32le\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="header"):
            io.read_matrix(path)


def save_tiny_model(out_dir):
    rng = rng_for(78)
    X = rng.uniform(0, 1, (12, 2))
    Y = rng.normal(size=(12, 3))
    model = train_deep(X, Y, dims=[2], m_inducing=[6], iters=5, seed=1,
                       init_iters=20)
    io.save_model(out_dir, model)


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

    def test_model_file_schema(self, tmp_path):
        save_tiny_model(tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "model.json").read_text())
        assert doc["format"] == "dgpuq-model-v1"
        for name in doc["data"].values():
            assert (tmp_path / "m" / name).exists()
        for layer in doc["layers"]:
            for name in layer["arrays"].values():
                assert (tmp_path / "m" / name).exists()

    def test_wrong_shape_array_rejected(self, tmp_path):
        save_tiny_model(tmp_path / "m")
        io.write_matrix(tmp_path / "m" / "input_lam.dgpm", np.ones((3, 5)))
        with pytest.raises(ValueError, match="input_layer.lam"):
            io.load_model(tmp_path / "m")

    def test_non_model_json_rejected(self, tmp_path):
        (tmp_path / "model.json").write_text(json.dumps({"format": "x"}))
        with pytest.raises(ValueError):
            io.load_model(tmp_path)


class TestCsv:
    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        values = [0.1, 1.0 / 3.0, 2.5e-17]
        io.write_csv(path, ["i", "v"], [(i, v) for i, v in enumerate(values)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,v"
        for i, line in enumerate(lines[1:]):
            assert float(line.split(",")[1]) == values[i]


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    t0 = time.time()
    res = run_cli("gen-data", "--n", "10", "--grid", "16", "--out-grid", "8",
                  "--kle", "10", "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert time.time() - t0 < 10.0  # desk-scale smoke budget
    return out


class TestCli:
    def test_gen_data_outputs(self, desk_dataset):
        doc = json.loads((desk_dataset / "manifest.json").read_text())
        assert doc["n"] == 10
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
        mc_baseline(lambda K: drawn.append(K) or K[:1],
                    InputDistribution(kle=info["kle"]), N=2, seed=0)
        K0 = io.read_matrix(tmp_path / "d" / "K.dgpm")[0]
        assert not np.allclose(drawn[0], K0)

    def test_invalid_grid_combo_exits_2(self, tmp_path):
        res = run_cli("gen-data", "--n", "2", "--grid", "16", "--out-grid",
                      "7", "--out", str(tmp_path / "x"))
        assert res.returncode == 2

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
        assert np.all(eb >= 0)
        assert (uqd / "pdf_0.csv").exists()

    def test_train_layer_mismatch_exits_2(self, desk_dataset, tmp_path):
        res = run_cli("train", "--data", str(desk_dataset), "--layers", "3",
                      "--dims", "3,3", "--inducing", "8,8",
                      "--out", str(tmp_path / "m2"))
        assert res.returncode == 2

    def test_predict_on_wrong_shape_model_exits_2(self, tmp_path):
        save_tiny_model(tmp_path / "m")
        io.write_matrix(tmp_path / "m" / "input_lam.dgpm", np.ones((3, 5)))
        io.write_matrix(tmp_path / "x.dgpm", np.zeros((4, 2)))
        res = run_cli("predict", "--model", str(tmp_path / "m"), "--inputs",
                      str(tmp_path / "x.dgpm"), "--out", str(tmp_path / "p"))
        assert res.returncode == 2
        assert "input_layer.lam" in res.stderr

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

    def test_dgp_threads_env_respected(self, desk_dataset, tmp_path):
        env = cli_env(DGP_THREADS="1")
        res = subprocess.run(
            [sys.executable, "-m", "dgpuq.cli", "mc-baseline",
             "--kle-manifest", str(desk_dataset / "manifest.json"),
             "--n", "2", "--seed", "1", "--out", str(tmp_path / "mt")],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr

    def test_dgp_threads_caps_blas_on_package_import(self):
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps to find the loaded BLAS")
        env = cli_env(DGP_THREADS="1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            env.pop(var, None)
        res = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        counts = [int(line.split()[-1]) for line in res.stdout.splitlines()]
        if not counts:
            pytest.skip("no OpenBLAS loaded; nothing to read the count from")
        assert counts == [1] * len(counts), res.stdout

    @pytest.mark.parametrize("code, preset, warns", [
        ("import numpy, dgpuq", False, True),
        ("import dgpuq, numpy", False, False),
        ("import numpy, dgpuq", True, False),
    ], ids=["numpy_first", "dgpuq_first", "numpy_first_vars_preset"])
    def test_dgp_threads_warns_when_it_cannot_take_effect(self, code, preset,
                                                          warns):
        env = cli_env(DGP_THREADS="1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            if preset:
                env[var] = "1"
            else:
                env.pop(var, None)
        res = subprocess.run([sys.executable, "-W", "always", "-c", code],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert ("RuntimeWarning" in res.stderr) == warns, res.stderr
        assert ("DGP_THREADS" in res.stderr) == warns, res.stderr


# imports the CLI module, then asks every loaded OpenBLAS for its own count
BLAS_THREADS_PROBE = """
import ctypes, os
import dgpuq.cli
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
