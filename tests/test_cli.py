import json

import pytest

from tvclust.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

from conftest import count_calls

NAN = float("nan")
GENERAL = {"kind": "general", "means": [[0.0, 0.0]], "weights": [1.0],
           "covs": [[[1.0, 0.0], [0.0, 1.0]]]}


def _generate(tmp_path, kind="grid", extra=()):
    out = tmp_path / "data.csv"
    args = [
        "generate",
        "--gen-kind",
        kind,
        "--gen-c-true",
        "4",
        "--gen-per-cluster-n",
        "20",
        "--gen-sigma",
        "0.5",
        "--gen-seed",
        "3",
        "--out",
        str(out),
    ]
    args.extend(extra)
    assert main(args) == EXIT_OK
    return out


class TestGenerate:
    def test_writes_csv_and_labels(self, tmp_path, capsys):
        out = _generate(tmp_path)
        assert out.exists()
        assert (tmp_path / "data.csv.labels").exists()
        assert "80 points" in capsys.readouterr().out

    def test_counts_default_to_the_generator_spec(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--gen-kind", "grid", "--out", str(out)]) == EXIT_OK
        assert "wrote 2500 points" in capsys.readouterr().out

    def test_uniform_needs_box(self, tmp_path):
        code = main(
            [
                "generate",
                "--gen-kind",
                "uniform",
                "--gen-c-true",
                "4",
                "--gen-per-cluster-n",
                "5",
                "--out",
                str(tmp_path / "u.csv"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_uniform_with_box(self, tmp_path):
        out = _generate(tmp_path, kind="uniform", extra=["--gen-box", "0:10,0:10"])
        assert out.exists()


class TestFit:
    def test_fit_writes_trace_and_model(self, tmp_path, capsys):
        data = _generate(tmp_path)
        capsys.readouterr()
        trace_path = tmp_path / "trace.jsonl"
        model_path = tmp_path / "model.json"
        code = main(
            [
                "fit",
                "--data",
                str(data),
                "--algorithm",
                "kmeans",
                "--c",
                "4",
                "--seed",
                "1",
                "--out",
                str(trace_path),
                "--model-out",
                str(model_path),
            ]
        )
        assert code == EXIT_OK
        final = json.loads(capsys.readouterr().out)
        assert final["reason"] in ("converged", "max_iters")
        assert trace_path.exists() and model_path.exists()
        first = json.loads(trace_path.read_text().splitlines()[0])
        assert set(first) == {"iter", "J", "F", "L", "gap", "sigma2", "n_changed", "events"}

    def test_missing_data_file_is_io_error(self, tmp_path):
        code = main(
            [
                "fit",
                "--data",
                str(tmp_path / "absent.csv"),
                "--algorithm",
                "kmeans",
                "--c",
                "2",
            ]
        )
        assert code == EXIT_IO

    def test_ragged_csv_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n2\n")
        code = main(
            ["fit", "--data", str(bad), "--algorithm", "kmeans", "--c", "2"]
        )
        assert code == EXIT_IO

    def test_invalid_parameter_combination_is_config_error(self, tmp_path):
        data = _generate(tmp_path)
        code = main(
            [
                "fit",
                "--data",
                str(data),
                "--algorithm",
                "kmeans",
                "--c",
                "4",
                "--c-prime",
                "2",
            ]
        )
        assert code == EXIT_CONFIG

    def test_nan_epsilon_is_config_error(self, tmp_path):
        data = _generate(tmp_path)
        code = main(
            ["fit", "--data", str(data), "--algorithm", "lazy_kmeans", "--c", "4",
             "--epsilon", "nan"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "labels,words",
        [
            ("0\n1\nx\n", "invalid literal"),
            ("0\n1\n", "2 labels for 80 points"),
            ("0\n" * 79 + "-1\n", "negative label -1"),
        ],
        ids=["non_integer", "wrong_count", "negative"],
    )
    def test_bad_labels_file_is_io_error(self, tmp_path, capsys, labels, words):
        data = _generate(tmp_path)
        (tmp_path / "data.csv.labels").write_text(labels)
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--algorithm", "kmeans", "--c", "4"])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith("parse error: labels file") and words in err
        assert "Traceback" not in err

    def test_argparse_rejects_unknown_algorithm(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", "x.csv", "--algorithm", "magic", "--c", "2"])
        assert exc.value.code == 2


class TestExperiment:
    def test_generated_source(self, tmp_path, capsys):
        out_dir = tmp_path / "exp"
        code = main(
            [
                "experiment",
                "--gen-kind",
                "grid",
                "--gen-c-true",
                "4",
                "--gen-per-cluster-n",
                "15",
                "--gen-sigma",
                "0.5",
                "--algorithm",
                "kmeans",
                "--c",
                "4",
                "--restarts",
                "3",
                "--seed",
                "9",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["failures"] == 0
        assert (out_dir / "summary.json").exists()
        assert len(list(out_dir.glob("trace_*.jsonl"))) == 3

    def test_requires_exactly_one_source(self, tmp_path):
        code = main(
            [
                "experiment",
                "--algorithm",
                "kmeans",
                "--c",
                "4",
                "--out",
                str(tmp_path / "exp"),
            ]
        )
        assert code == EXIT_CONFIG


class TestAudit:
    def test_audit_iso_model(self, tmp_path, capsys):
        data = _generate(tmp_path)
        model_path = tmp_path / "model.json"
        main(
            [
                "fit",
                "--data",
                str(data),
                "--algorithm",
                "kmeans",
                "--c",
                "4",
                "--seed",
                "1",
                "--model-out",
                str(model_path),
            ]
        )
        capsys.readouterr()
        code = main(["audit", "--data", str(data), "--model", str(model_path)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "iso"
        assert report["L"] >= report["F"] - 1e-10
        assert report["gap"] >= -1e-10

    def test_audit_general_model(self, tmp_path, capsys):
        data = _generate(tmp_path)
        model_path = tmp_path / "model.json"
        main(
            [
                "fit",
                "--data",
                str(data),
                "--algorithm",
                "em_gmm",
                "--c",
                "4",
                "--seed",
                "1",
                "--max-iters",
                "30",
                "--model-out",
                str(model_path),
            ]
        )
        capsys.readouterr()
        out_path = tmp_path / "audit.json"
        code = main(
            [
                "audit",
                "--data",
                str(data),
                "--model",
                str(model_path),
                "--out",
                str(out_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        assert report["kind"] == "general"
        assert report["L"] >= report["F"] - 1e-10

    def test_audit_iso_model_builds_distances_and_j_once(self, tmp_path, capsys, monkeypatch):
        # the closed forms of claim (A) read the audit's own d2 and J
        data = _generate(tmp_path)
        model_path = tmp_path / "model.json"
        fit = ["fit", "--data", str(data), "--algorithm", "kmeans", "--c", "4", "--seed", "1",
               "--model-out", str(model_path)]
        assert main(fit) == EXIT_OK
        d2_calls = count_calls(monkeypatch, "models", "squared_distances")
        j_calls = count_calls(monkeypatch, "diagnostics", "objective_j")
        assert main(["audit", "--data", str(data), "--model", str(model_path)]) == EXIT_OK
        assert (len(d2_calls), len(j_calls)) == (1, 1)

    def test_audit_general_model_builds_log_joints_once(self, tmp_path, capsys, monkeypatch):
        data = _generate(tmp_path)
        model_path = tmp_path / "model.json"
        fit = ["fit", "--data", str(data), "--algorithm", "em_gmm", "--c", "4", "--seed", "1",
               "--max-iters", "5", "--model-out", str(model_path)]
        assert main(fit) == EXIT_OK
        calls = count_calls(
            monkeypatch, "models", "log_joints", lambda y, model, *rest: hasattr(model, "covs")
        )
        assert main(["audit", "--data", str(data), "--model", str(model_path)]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"kind": "iso", "sigma2": 1.0}',
            '{"kind": "iso", "means": [[0.0]], "sigma2": "x"}',
        ],
    )
    def test_malformed_model_is_io_error(self, tmp_path, capsys, text):
        data = _generate(tmp_path)
        model_path = tmp_path / "model.json"
        model_path.write_text(text)
        code = main(["audit", "--data", str(data), "--model", str(model_path)])
        assert code == EXIT_IO
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "snapshot,names",
        [
            ({"kind": "iso", "means": [[0.0, 0.0]], "sigma2": 1e-320}, "L_at_model_sigma2"),
            (dict(GENERAL, covs=[[[1e-320, 0.0], [0.0, 1e-320]]]), "F, L, gap"),
        ],
        ids=["iso", "general"],
    )
    def test_overflowing_bounds_are_numeric_error(self, tmp_path, capsys, snapshot, names):
        from tvclust.cli import EXIT_NUMERIC

        data = tmp_path / "three.csv"
        data.write_text("1,2\n3,4\n5,6\n")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(snapshot))
        out_path = tmp_path / "audit.json"
        capsys.readouterr()
        code = main(["audit", "--data", str(data), "--model", str(model_path),
                     "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.err == f"numeric error: audit values are not finite: {names}\n"
        assert captured.out == ""
        assert not out_path.exists()

    def test_invalid_model_is_config_error(self, tmp_path):
        data = _generate(tmp_path)
        model_path = tmp_path / "model.json"
        model_path.write_text('{"kind": "iso", "means": [[0.0, 0.0]], "sigma2": -1.0}')
        code = main(["audit", "--data", str(data), "--model", str(model_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "snapshot",
        [
            {"kind": "iso", "means": [[0.0, 0.0, 0.0]], "sigma2": 1.0},
            {
                "kind": "general",
                "means": [[0.0, 0.0, 0.0]],
                "weights": [1.0],
                "covs": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]],
            },
        ],
        ids=["iso", "general"],
    )
    def test_dimension_mismatch_is_config_error(self, tmp_path, capsys, snapshot):
        data = _generate(tmp_path)  # 2-D points
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(snapshot))
        capsys.readouterr()
        code = main(["audit", "--data", str(data), "--model", str(model_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error:") and "dimension" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "snapshot,words",
        [
            ({"kind": "iso", "means": [], "sigma2": 1.0}, "non-empty C x D matrix"),
            ({"kind": "iso", "means": [[NAN, 0.0]], "sigma2": 1.0}, "means must be finite"),
            (dict(GENERAL, covs=[[1.0, 0.0], [0.0, 1.0]]), "covs must have shape (C, D, D)"),
            (dict(GENERAL, weights=[0.5, 0.5]), "disagree on C or D"),
            (dict(GENERAL, weights=[-0.5]), "weights must be nonnegative and finite"),
            (dict(GENERAL, covs=[[[NAN, 0.0], [0.0, 1.0]]]), "error: covs must be finite"),
            (dict(GENERAL, means=5), "non-empty C x D matrix"),
            (dict(GENERAL, means=[[[0.0, 0.0]]]), "non-empty C x D matrix"),
            (dict(GENERAL, means=[]), "non-empty C x D matrix"),
        ],
        ids=["iso_empty_means", "iso_nan_means", "general_covs_2d", "general_c_mismatch",
             "general_negative_weight", "general_nan_cov", "general_scalar_means",
             "general_3d_means", "general_empty_means"],
    )
    def test_invalid_model_message(self, tmp_path, capsys, snapshot, words):
        data = _generate(tmp_path)  # 2-D points
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(snapshot))
        capsys.readouterr()
        code = main(["audit", "--data", str(data), "--model", str(model_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error:") and words in err
        assert "Traceback" not in err


class TestRejectedInputs:
    """Values numpy's generators reject deep inside a command exit 2 up front."""

    GRID = ["--gen-kind", "grid", "--gen-c-true", "4"]
    KMEANS = ["--algorithm", "kmeans", "--c", "4"]

    @pytest.mark.parametrize(
        "case,words",
        [
            ("fit_seed", "seed must be >= 0"),
            ("experiment_seed", "seed must be >= 0"),
            ("generate_gen_seed", "seed must be >= 0"),
            ("experiment_gen_seed", "seed must be >= 0"),
            ("experiment_infinite_box", "finite"),
            ("generate_overflowing_box", "finite"),
            ("fit_c_exceeds_n", "need 1 <= c <= N, got c=81, N=80"),
            ("generate_bad_box_axis", "bad --gen-box axis '2'; expected lo:hi"),
            ("generate_without_kind", "generate requires --gen-kind"),
            ("generate_infinite_sigma", "gen_sigma must be positive and finite"),
            ("generate_overflowing_spacing", "points must be finite"),
            ("generate_overflowing_sigma", "points must be finite"),
            ("generate_grid_with_box", "grid kind does not take domain_box"),
            ("generate_uniform_with_spacing", "uniform kind does not take spacing"),
            ("experiment_data_with_box_and_spacing",
             "experiment with --data does not take --gen-spacing, --gen-box"),
            ("experiment_data_with_default_valued_counts",
             "experiment with --data does not take --gen-c-true, --gen-per-cluster-n"),
            ("experiment_data_with_sigma_and_seed",
             "experiment with --data does not take --gen-sigma, --gen-seed"),
        ],
    )
    def test_config_error_without_traceback(self, tmp_path, capsys, case, words):
        data = str(_generate(tmp_path))
        out = str(tmp_path / "out")
        args = {
            "fit_seed": ["fit", "--data", data, *self.KMEANS, "--seed", "-1"],
            "experiment_seed": ["experiment", "--data", data, *self.KMEANS, "--seed", "-1",
                                "--out", out],
            "generate_gen_seed": ["generate", *self.GRID, "--gen-seed", "-1", "--out", out],
            "experiment_gen_seed": ["experiment", *self.GRID, "--gen-seed", "-1", *self.KMEANS,
                                    "--out", out],
            "experiment_infinite_box": ["experiment", "--gen-kind", "uniform", "--gen-box",
                                        "0:inf", *self.KMEANS, "--out", out],
            "generate_overflowing_box": ["generate", "--gen-kind", "uniform",
                                         "--gen-box=-1e308:1e308", "--out", out],
            "fit_c_exceeds_n": ["fit", "--data", data, "--algorithm", "kmeans", "--c", "81"],
            "generate_bad_box_axis": ["generate", "--gen-kind", "uniform", "--gen-box", "0:1,2",
                                      "--out", out],
            "generate_without_kind": ["generate", "--out", out],
            "generate_infinite_sigma": ["generate", *self.GRID, "--gen-sigma", "inf",
                                        "--out", out],
            "generate_overflowing_spacing": ["generate", "--gen-kind", "grid", "--gen-c-true",
                                             "9", "--gen-spacing", "1e308", "--out", out],
            "generate_overflowing_sigma": ["generate", "--gen-kind", "uniform", "--gen-box",
                                           "0:1", "--gen-sigma", "1e308", "--out", out],
            "generate_grid_with_box": ["generate", *self.GRID, "--gen-per-cluster-n", "5",
                                       "--gen-box", "0:1", "--out", out],
            "generate_uniform_with_spacing": ["generate", "--gen-kind", "uniform", "--gen-box",
                                              "0:1", "--gen-spacing", "3", "--out", out],
            "experiment_data_with_box_and_spacing": ["experiment", "--data", data, "--gen-box",
                                                     "0:1", "--gen-spacing", "3", *self.KMEANS,
                                                     "--out", out],
            "experiment_data_with_default_valued_counts": [
                "experiment", "--data", data, "--gen-c-true", "25", "--gen-per-cluster-n", "100",
                *self.KMEANS, "--out", out],
            "experiment_data_with_sigma_and_seed": ["experiment", "--data", data, "--gen-sigma",
                                                    "1", "--gen-seed", "0", *self.KMEANS,
                                                    "--out", out],
        }[case]
        capsys.readouterr()
        code = main(args)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error:") and words in err
        assert "Traceback" not in err

    def test_zero_worker_threads(self, tmp_path, capsys, monkeypatch):
        data = str(_generate(tmp_path))
        monkeypatch.setenv("TVEM_THREADS", "0")
        capsys.readouterr()
        code = main(["experiment", "--data", data, *self.KMEANS, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error:") and "TVEM_THREADS must be >= 1" in err
        assert "Traceback" not in err


class TestNumericExit:
    def test_all_restart_failures_exit_code(self, tmp_path):
        from tvclust import Dataset, save_csv
        from tvclust.cli import EXIT_NUMERIC

        data = tmp_path / "tiny.csv"
        save_csv(Dataset([[0.0], [1.0], [5.0]]), data)
        code = main(
            [
                "experiment",
                "--data",
                str(data),
                "--algorithm",
                "sigma_pi",
                "--c",
                "3",
                "--seeding",
                "uniform",
                "--restarts",
                "2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("algorithm", ["kmeans", "em_gmm"])
    @pytest.mark.parametrize("seeding", ["dsquared", "uniform"])
    def test_overflow_scale_exits_numeric(self, tmp_path, capsys, algorithm, seeding):
        # squared distances of points at the 1e160 scale overflow to inf
        import numpy as np

        from tvclust import Dataset, save_csv
        from tvclust.cli import EXIT_NUMERIC

        data = tmp_path / "huge.csv"
        save_csv(Dataset(np.random.default_rng(0).normal(size=(200, 2)) * 1e160), data)
        capsys.readouterr()
        code = main(
            [
                "fit",
                "--data",
                str(data),
                "--algorithm",
                algorithm,
                "--c",
                "3",
                "--seeding",
                seeding,
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric error:") and "not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("algorithm", ["em_gmm", "sigma_pi"])
    def test_zero_scatter_cluster_exits_numeric(self, tmp_path, capsys, algorithm):
        # two groups of exact duplicates: each cluster's scatter is zero, so
        # the relative covariance ridge is zero too (documented, no floor)
        import numpy as np

        from tvclust import Dataset, save_csv
        from tvclust.cli import EXIT_NUMERIC

        data = tmp_path / "dups.csv"
        points = np.repeat(np.array([[1.0, 2.0], [5.0, 5.0]]), 10, axis=0)
        save_csv(Dataset(points), data)
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--algorithm", algorithm, "--c", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric error:")
        assert "Traceback" not in err
