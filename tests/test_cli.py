import dataclasses
import json
import os

import numpy as np
import pytest

from tvnet import cli, storage
from tvnet.errors import InvalidInputError


def manifest_dict(out, **overrides):
    d = {
        "n": 5, "T": 80, "train_len": 50, "test_len": 30,
        "k_true": 4, "k_learned": 3, "seeds": [0, 1],
        "kernel": {"family": "gaussian", "bandwidth": 6.0,
                   "truncation": 3.0, "normalize": True},
        "lambda_beta": 0.05, "alpha": 0.5, "lambda_A": 0.001,
        "lambda_keller": 0.05, "gamma": 0.75, "nu": 0.01,
        "batch_size": 1000, "max_outer_iters": 4, "smoothness": 10.0,
        "output_dir": str(out),
    }
    d.update(overrides)
    return d


def write_manifest(tmp_path, **overrides):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest_dict(tmp_path / "out", **overrides)))
    return str(path)


def load(tmp_path, **overrides):
    return cli.load_manifest(write_manifest(tmp_path, **overrides))


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = load(tmp_path)
        again = cli.ExperimentManifest.from_dict(m.to_dict())
        assert again == m

    def test_missing_field_named(self, tmp_path):
        d = manifest_dict(tmp_path)
        del d["lambda_beta"]
        with pytest.raises(InvalidInputError, match="lambda_beta"):
            cli.ExperimentManifest.from_dict(d)

    def test_bad_values_listed(self, tmp_path):
        d = manifest_dict(tmp_path, alpha=3.0, gamma=-1.0)
        with pytest.raises(InvalidInputError) as info:
            cli.ExperimentManifest.from_dict(d)
        assert "alpha" in str(info.value) and "gamma" in str(info.value)

    def test_split_exceeding_T(self, tmp_path):
        d = manifest_dict(tmp_path, train_len=60, test_len=30)
        with pytest.raises(InvalidInputError, match="train_len"):
            cli.ExperimentManifest.from_dict(d)

    def test_out_override(self, tmp_path):
        path = write_manifest(tmp_path)
        m = cli.load_manifest(path, out_override=str(tmp_path / "elsewhere"))
        assert m.output_dir == str(tmp_path / "elsewhere")


class TestStorage:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3))
        path = tmp_path / "m.csv"
        storage.write_csv_matrix(path, M)
        assert np.array_equal(storage.read_csv_matrix(path), M)

    def test_basis_json_round_trip(self, tmp_path):
        from tvnet.basis import random_hollow_bases
        bases = random_hollow_bases(4, 2, 3)
        d = storage.basis_set_to_dict(bases)
        again = storage.basis_set_from_dict(json.loads(json.dumps(d)))
        assert np.array_equal(again.bases, bases.bases)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        storage.atomic_write_text(tmp_path / "a.txt", "hello")
        assert (tmp_path / "a.txt").read_text() == "hello"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_array_bytes_depend_on_the_values_only(self, tmp_path):
        A = np.random.default_rng(0).standard_normal((4, 3, 3))
        storage.write_array(tmp_path / "a.npy", A)
        storage.write_array(tmp_path / "b.npy", A.copy())
        assert ((tmp_path / "a.npy").read_bytes()
                == (tmp_path / "b.npy").read_bytes())

    @pytest.mark.parametrize("layout", [np.asfortranarray,
                                        lambda A: A.astype(">f8"),
                                        lambda A: A.astype(np.float32)])
    def test_array_stored_as_c_order_little_endian_float64(self, tmp_path,
                                                           layout):
        A = layout(np.random.default_rng(1).standard_normal((4, 3, 3)))
        storage.write_array(tmp_path / "a.npy", A)
        storage.write_array(tmp_path / "c.npy",
                            np.array(A, dtype="<f8", order="C"))
        assert ((tmp_path / "a.npy").read_bytes()
                == (tmp_path / "c.npy").read_bytes())
        B = storage.read_array(tmp_path / "a.npy")
        assert B.dtype.str == "<f8" and B.flags.c_contiguous
        assert np.array_equal(B, A)

    @pytest.mark.parametrize("m", [0, 1, 6])
    def test_array_round_trip_bitwise(self, tmp_path, m):
        rng = np.random.default_rng(m)
        A = (rng.standard_normal((m, 3, 3))
             * 10.0 ** rng.integers(-300, 300, (m, 3, 3)))
        if m:
            A[0, 0, :] = -0.0, 5e-324, np.nan
        storage.write_array(tmp_path / "a.npy", A)
        B = storage.read_array(tmp_path / "a.npy")
        assert B.shape == A.shape and B.tobytes() == A.tobytes()


class TestGenerate:
    def test_one_file_set_per_seed(self, tmp_path):
        m = load(tmp_path)
        cli.cmd_generate(m, echo=lambda *_: None)
        for seed in (0, 1):
            d = cli.data_dir(m, seed)
            for name in ("sequence.csv", "labels.csv", "truth.json"):
                assert os.path.exists(os.path.join(d, name))
        X = storage.read_csv_matrix(
            os.path.join(cli.data_dir(m, 0), "sequence.csv"))
        assert X.shape == (80, 5)

    def test_rerun_is_noop_with_identical_bytes(self, tmp_path):
        m = load(tmp_path)
        cli.cmd_generate(m, echo=lambda *_: None)
        path = os.path.join(cli.data_dir(m, 0), "sequence.csv")
        before = open(path, "rb").read()
        ran = cli.generate_one(m, 0)
        assert not ran
        # force a regeneration and compare the bytes
        os.unlink(os.path.join(cli.data_dir(m, 0), "stamp.json"))
        assert cli.generate_one(m, 0)
        assert open(path, "rb").read() == before


@pytest.fixture
def generated(tmp_path):
    m = load(tmp_path)
    cli.cmd_generate(m, echo=lambda *_: None)
    return m


class TestFit:
    def test_unknown_method(self, generated):
        with pytest.raises(InvalidInputError):
            cli.cmd_fit(generated, 0, "mystery", echo=lambda *_: None)

    def test_unknown_method_makes_no_directory(self, generated):
        with pytest.raises(InvalidInputError, match="basis-supervised"):
            cli.fit_one(generated, 0, "mystery")
        assert not os.path.exists(cli.fit_dir(generated, 0, "mystery"))

    def test_unlisted_seed(self, generated):
        with pytest.raises(InvalidInputError):
            cli.cmd_fit(generated, 99, "keller", echo=lambda *_: None)

    def test_missing_data_is_io_error(self, tmp_path):
        m = load(tmp_path)
        with pytest.raises(FileNotFoundError):
            cli.fit_one(m, 0, "keller")

    def test_pca_writes_k_learned_bases(self, generated):
        cli.fit_one(generated, 0, "keller")
        cli.fit_one(generated, 0, "pca")
        d = storage.read_json(os.path.join(cli.fit_dir(generated, 0, "pca"),
                                           "bases.json"))
        assert d["k"] == generated.k_learned and d["n"] == generated.n

    def test_pca_artifact_holds_the_init_bitwise(self, generated):
        for seed in generated.seeds:
            cli.fit_one(generated, seed, "keller")
            cli.fit_one(generated, seed, "pca")
            path = os.path.join(cli.fit_dir(generated, seed, "pca"),
                                "bases.json")
            read = storage.basis_set_from_dict(storage.read_json(path))
            direct = cli._init_from_keller(generated, seed)
            assert read.bases.tobytes() == direct.bases.tobytes()

    @pytest.mark.parametrize("method", ["basis", "basis-supervised"])
    def test_basis_stages_need_the_pca_artifact(self, generated, method):
        cli.fit_one(generated, 0, "keller")
        with pytest.raises(FileNotFoundError, match="method=pca"):
            cli.fit_one(generated, 0, method)

    def test_basis_trace_non_increasing_full_batch(self, generated):
        cli.fit_one(generated, 0, "keller")
        cli.fit_one(generated, 0, "pca")
        cli.fit_one(generated, 0, "basis")
        trace = storage.read_csv_matrix(
            os.path.join(cli.fit_dir(generated, 0, "basis"),
                         "trace.csv")).ravel()
        assert np.all(np.diff(trace) <= 1e-9)
        log = storage.read_json(os.path.join(cli.fit_dir(generated, 0,
                                                         "basis"),
                                             "fitlog.json"))
        assert set(log) >= {"method", "seed", "iterations", "converged",
                            "wall_time_s"}

    def test_supervised_gamma_one_matches_basis_bytes(self, tmp_path):
        m = load(tmp_path, gamma=1.0, seeds=[0])
        cli.cmd_generate(m, echo=lambda *_: None)
        for method in ("keller", "pca", "basis", "basis-supervised"):
            cli.fit_one(m, 0, method)
        a = open(os.path.join(cli.fit_dir(m, 0, "basis"), "bases.json"),
                 "rb").read()
        b = open(os.path.join(cli.fit_dir(m, 0, "basis-supervised"),
                              "bases.json"), "rb").read()
        assert a == b

    def test_keller_fitlog_counts_rows(self, generated):
        cli.fit_one(generated, 0, "keller")
        log = storage.read_json(os.path.join(
            cli.fit_dir(generated, 0, "keller"), "fitlog.json"))
        rows = generated.T * generated.n
        assert log["iterations"] == generated.T
        assert log["rows_nonconverged"] == 0
        assert rows <= log["sweeps"] < 100 * rows
        assert "converged" not in log

    def test_refit_skipped_when_fresh(self, generated):
        cli.fit_one(generated, 0, "keller")
        assert not cli.fit_one(generated, 0, "keller")

    def test_fitlog_counts_outer_iterations(self, generated):
        cli.fit_one(generated, 0, "keller")
        cli.fit_one(generated, 0, "pca")
        cli.fit_one(generated, 0, "basis")
        log = storage.read_json(os.path.join(cli.fit_dir(generated, 0,
                                                         "basis"),
                                             "fitlog.json"))
        trace = storage.read_csv_matrix(
            os.path.join(cli.fit_dir(generated, 0, "basis"), "trace.csv"))
        assert 1 <= log["iterations"] <= generated.max_outer_iters
        # the trace holds the start, one point per accepted step and the end
        assert len(trace) <= log["iterations"] + 2
        # full batch: the tolerance test runs after every iteration
        assert log["tol_checks"] == log["iterations"]
        assert log["converged"] or log["iterations"] == generated.max_outer_iters


class TestKellerArtifact:
    """A malformed estimates.npy stops the stages that read it with a
    validation error naming the file."""

    def fit_pca_over(self, generated, tmp_path, capsys, damage):
        cli.fit_one(generated, 0, "keller")
        path = os.path.join(cli.fit_dir(generated, 0, "keller"),
                            "estimates.npy")
        damage(path)
        code = cli.main(["fit", "--manifest", write_manifest(tmp_path),
                         "--seed", "0", "--method", "pca"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error: ") and path in err

    @pytest.mark.parametrize("change", [lambda A: A[1:],
                                        lambda A: A[:, :, :-1],
                                        lambda A: A.astype(np.float32)],
                             ids=["times", "columns", "float32"])
    def test_wrong_shape_or_dtype(self, generated, tmp_path, capsys, change):
        self.fit_pca_over(generated, tmp_path, capsys,
                          lambda path: np.save(path, change(np.load(path))))

    @pytest.mark.parametrize("damage", [
        lambda path: os.truncate(path, os.path.getsize(path) // 2),
        lambda path: os.truncate(path, 0),
        lambda path: np.save(path, np.array([{"a": 1}]), allow_pickle=True),
    ], ids=["truncated", "empty", "pickled"])
    def test_unreadable(self, generated, tmp_path, capsys, damage):
        self.fit_pca_over(generated, tmp_path, capsys, damage)


@pytest.fixture
def fitted(generated):
    for seed in generated.seeds:
        for method in cli.METHODS:
            cli.fit_one(generated, seed, method)
    return generated


class TestEval:
    def test_report_schema_and_row_count(self, fitted):
        cli.eval_one(fitted, 0)
        d = cli.eval_dir(fitted, 0)
        report = storage.read_json(os.path.join(d, "report.json"))
        assert report["schema_version"] == cli.SCHEMA_VERSION
        assert {r["method"] for r in report["results"]} == set(cli.METHODS)
        for r in report["results"]:
            assert set(r) == {"method", "error", "similarity"}
        rows = open(os.path.join(d, "rows.csv")).read().splitlines()
        assert rows[0] == cli.REPORT_HEADER
        assert len(rows) == 1 + len(cli.METHODS)

    def test_oracle_row_has_zero_error(self, fitted):
        cli.eval_one(fitted, 0, oracle=True)
        report = storage.read_json(os.path.join(cli.eval_dir(fitted, 0),
                                                "report.json"))
        oracle = [r for r in report["results"] if r["method"] == "oracle"]
        assert len(oracle) == 1 and oracle[0]["error"] == 0.0

    def test_pca_features_match_per_estimate_loop(self, fitted):
        from reference import pca_projection_features
        for seed in fitted.seeds:
            A = cli._load_keller_estimates(fitted, seed)
            bases = cli._load_bases(fitted, seed, "pca")
            assert np.array_equal(cli.pca_projection_features(A, bases),
                                  pca_projection_features(A, bases))

    def test_missing_artifact_named(self, generated):
        cli.fit_one(generated, 0, "keller")
        with pytest.raises(FileNotFoundError, match="pca"):
            cli.eval_one(generated, 0)

    def test_reads_each_artifact_once(self, fitted, monkeypatch):
        read = []
        # read_codes_csv reads through read_csv_matrix
        for name in ("read_json", "read_csv_matrix", "read_array"):
            def counted(path, _read=getattr(storage, name)):
                read.append(os.path.relpath(path, fitted.output_dir))
                return _read(path)
            monkeypatch.setattr(storage, name, counted)
        cli.eval_one(fitted, 0)
        artifacts = [r for r in read if not r.endswith("stamp.json")]
        assert sorted(artifacts) == sorted(set(artifacts))
        assert len(artifacts) == len(cli.STAGES["eval"].inputs)


class TestExperiment:
    def test_end_to_end_and_cache(self, tmp_path):
        m = load(tmp_path, seeds=[0, 1])
        messages = []
        cli.cmd_experiment(m, echo=messages.append)
        agg_path = os.path.join(cli.report_dir(m), "aggregate.csv")
        before = open(agg_path, "rb").read()
        lines = before.decode().splitlines()
        assert lines[0] == cli.AGGREGATE_HEADER
        assert len(lines) == 1 + len(cli.METHODS)
        # one line per stage that ran (six per seed, then the aggregate)
        # and a closing line
        assert len(messages) == 2 * 6 + 1 + 1
        assert messages[-1] == "experiment complete (13 stages ran)"

        messages.clear()
        cli.cmd_experiment(m, echo=messages.append)
        assert messages == ["up-to-date"]
        assert open(agg_path, "rb").read() == before

    def test_single_seed_sd_zero(self, tmp_path):
        m = load(tmp_path, seeds=[1])
        cli.cmd_experiment(m, echo=lambda *_: None)
        report = storage.read_json(os.path.join(cli.report_dir(m),
                                                "report.json"))
        for entry in report["methods"]:
            assert entry["error_sd"] == 0.0

    def test_rows_byte_identical_after_cache_clear(self, tmp_path):
        m = load(tmp_path, seeds=[0])
        cli.cmd_experiment(m, echo=lambda *_: None)
        rows_path = os.path.join(cli.eval_dir(m, 0), "rows.csv")
        before = open(rows_path, "rb").read()
        for root, _, files in os.walk(m.output_dir):
            for f in files:
                if f == "stamp.json":
                    os.unlink(os.path.join(root, f))
        cli.cmd_experiment(m, echo=lambda *_: None)
        assert open(rows_path, "rb").read() == before


def seed_pass(m, seed=0):
    """Which stages of one seed ran (True) or were up-to-date (False)."""
    ran = {"generate": cli.generate_one(m, seed)}
    for method in cli.METHODS:
        ran[method] = cli.fit_one(m, seed, method)
    ran["eval"] = cli.eval_one(m, seed)
    return ran


class TestStageCache:
    def test_every_manifest_field_keys_some_stage(self):
        keyed = {f for stage in cli.STAGES.values() for f in stage.fields}
        names = {f.name for f in dataclasses.fields(cli.ExperimentManifest)}
        assert names - keyed == {"output_dir"}

    def test_gamma_edit_reruns_only_what_reads_gamma(self, tmp_path):
        assert all(seed_pass(load(tmp_path, seeds=[0])).values())
        ran = seed_pass(load(tmp_path, seeds=[0], gamma=0.5))
        assert ran == {"generate": False, "keller": False, "pca": False,
                       "basis": False, "basis-supervised": True,
                       "eval": True}

    def test_keller_edit_reruns_keller_and_downstream(self, tmp_path):
        assert all(seed_pass(load(tmp_path, seeds=[0])).values())
        ran = seed_pass(load(tmp_path, seeds=[0], lambda_keller=0.02))
        assert ran == {"generate": False, "keller": True, "pca": True,
                       "basis": True, "basis-supervised": True,
                       "eval": True}

    def test_version_bump_reruns_its_stage(self, tmp_path, monkeypatch):
        m = load(tmp_path, seeds=[0])
        seed_pass(m)
        bases = os.path.join(cli.fit_dir(m, 0, "basis"), "bases.json")
        before = open(bases, "rb").read()
        monkeypatch.setitem(cli.STAGES, "basis", cli.STAGES["basis"]._replace(
            version=cli.STAGES["basis"].version + 1))
        ran = seed_pass(m)
        # the rerun writes the same bytes, so nothing downstream reruns
        assert ran == {"generate": False, "keller": False, "pca": False,
                       "basis": True, "basis-supervised": False,
                       "eval": False}
        assert open(bases, "rb").read() == before


class TestMain:
    def test_validation_exit_code(self, tmp_path):
        d = manifest_dict(tmp_path / "out", alpha=9.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert cli.main(["generate", "--manifest", str(path)]) == 1

    @pytest.mark.parametrize("field, value", [
        ("n", "ten"), ("seeds", ["a"]), ("n", None), ("T", [5]),
        ("kernel", 5), ("n", 5.7), ("train_len", 49.9), ("batch_size", True),
        ("seeds", [True]), ("lambda_A", float("inf")), ("nu", float("inf")),
        ("smoothness", float("inf")),
        ("kernel", {"family": "gaussian", "bandwidth": 6.0,
                    "truncation": 3.0, "normalize": "no"})])
    def test_wrong_field_type_is_validation_error(self, tmp_path, capsys,
                                                  field, value):
        d = manifest_dict(tmp_path / "out", **{field: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert cli.main(["generate", "--manifest", str(path)]) == 1
        assert f"invalid manifest: bad {field}:" in capsys.readouterr().err

    def test_empty_test_split_rejected_before_any_stage(self, tmp_path,
                                                         capsys):
        path = write_manifest(tmp_path, test_len=0)
        assert cli.main(["experiment", "--manifest", path]) == 1
        assert "train_len and test_len must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "data").exists()

    def test_manifest_not_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("5")
        assert cli.main(["generate", "--manifest", str(path)]) == 1

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert cli.main(["generate", "--manifest",
                         str(tmp_path / "nope.json")]) == 2

    def test_generate_ok(self, tmp_path):
        path = write_manifest(tmp_path, seeds=[0])
        assert cli.main(["generate", "--manifest", path]) == 0
