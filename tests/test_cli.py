"""End-to-end CLI tests through click's runner."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from pointcrf import PointCloud, write_cloud, write_probabilities
from pointcrf.cli import main
from util import random_cloud


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **overrides):
    config = {
        "input": {"path": str(path.parent / "cloud.csv"), "format": "csv-xyz"},
        "output": {"dir": str(path.parent / "out")},
        "graph": {"method": "knn", "k": 2},
        "crf": {"steps": 5, "schedule": "jacobi", "compat": "identity",
                "activation": "identity", "tol": 0.0},
        "diffusion": {"steps": 4},
        "seed": 0,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path.write_text(json.dumps(config))
    return path


def make_cloud(tmp_path, n=6, d=2, seed=0):
    cloud = random_cloud(np.random.default_rng(seed), n, d=d)
    write_cloud(cloud, tmp_path / "cloud.csv", "csv-xyz")
    return cloud


def two_node_fixture(tmp_path):
    cloud = PointCloud(
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        features=np.array([[0.0], [2.0]]),
    )
    write_cloud(cloud, tmp_path / "cloud.csv", "csv-xyz")
    return cloud


class TestBuildGraph:
    def test_three_points_k1_gives_three_edges(self, runner, tmp_path):
        make_cloud(tmp_path, n=3)
        config = write_config(tmp_path / "config.json", graph={"method": "knn", "k": 1})
        result = runner.invoke(main, ["build-graph", "--config", str(config)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "graph.csv").read_text().splitlines()
        assert rows[0] == "src,dst,distance"
        assert len(rows) - 1 == 3

    def test_saturated_k_gives_complete_edge_list(self, runner, tmp_path):
        make_cloud(tmp_path, n=5)
        config = write_config(tmp_path / "config.json", graph={"method": "knn", "k": 10})
        result = runner.invoke(main, ["build-graph", "--config", str(config)])
        assert result.exit_code == 0
        rows = (tmp_path / "out" / "graph.csv").read_text().splitlines()
        assert len(rows) - 1 == 5 * 4

    def test_missing_input_fails_with_stderr_message(self, runner, tmp_path):
        config = write_config(tmp_path / "config.json")
        result = runner.invoke(main, ["build-graph", "--config", str(config)])
        assert result.exit_code != 0
        assert "not found" in result.output

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        make_cloud(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": {"path": "cloud.csv"}, "bogus": 1}))
        result = runner.invoke(main, ["build-graph", "--config", str(config)])
        assert result.exit_code != 0
        assert "bogus" in result.output

    def test_output_dir_precedence_flag_env_config(self, runner, tmp_path, monkeypatch):
        make_cloud(tmp_path, n=3)
        config = write_config(tmp_path / "config.json", graph={"method": "knn", "k": 1})
        monkeypatch.setenv("POINTCRF_OUTPUT_DIR", str(tmp_path / "from-env"))
        result = runner.invoke(main, ["build-graph", "--config", str(config)])
        assert result.exit_code == 0
        assert (tmp_path / "from-env" / "graph.csv").exists()
        result = runner.invoke(
            main,
            ["build-graph", "--config", str(config), "--output-dir", str(tmp_path / "from-flag")],
        )
        assert result.exit_code == 0
        assert (tmp_path / "from-flag" / "graph.csv").exists()


class TestSmooth:
    def test_infinite_tolerance_returns_activated_unary(self, runner, tmp_path):
        cloud = make_cloud(tmp_path)
        config = write_config(tmp_path / "config.json", crf={"tol": float("inf"),
                                                             "steps": 5,
                                                             "compat": "identity",
                                                             "activation": "identity"})
        result = runner.invoke(main, ["smooth", "--config", str(config)])
        assert result.exit_code == 0, result.output
        from pointcrf import read_cloud

        smoothed = read_cloud(tmp_path / "out" / "smoothed.csv", "csv-xyz")
        np.testing.assert_array_equal(smoothed.features, cloud.features)
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(trace) == 2  # header plus the initial energy only

    def test_two_node_fixture_trace_converges_to_exact_energy(self, runner, tmp_path):
        two_node_fixture(tmp_path)
        config = write_config(
            tmp_path / "config.json",
            graph={"method": "knn", "k": 1},
            crf={"steps": 300, "tol": 1e-13, "compat": "identity", "activation": "identity"},
        )
        result = runner.invoke(main, ["smooth", "--config", str(config)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
        energies = [float(r.split(",")[1]) for r in rows]
        # energy of the exact solution [2/3, 4/3] on the halved-weight model:
        # (2/3)^2 + (2/3)^2 + 2 * 0.5 * (2/3)^2 = 4/3
        np.testing.assert_allclose(energies[-1], 4.0 / 3.0, atol=1e-10)
        assert energies[0] == pytest.approx(4.0 + 0.0, abs=1e-12)

    def test_check_exact_reports_deviation(self, runner, tmp_path):
        two_node_fixture(tmp_path)
        config = write_config(
            tmp_path / "config.json",
            graph={"method": "knn", "k": 1},
            crf={"steps": 400, "tol": 1e-14, "compat": "identity", "activation": "identity"},
        )
        result = runner.invoke(main, ["smooth", "--config", str(config), "--check-exact"])
        assert result.exit_code == 0
        line = [l for l in result.output.splitlines() if "max deviation" in l]
        assert line and float(line[0].rsplit(" ", 1)[1]) <= 1e-10


class TestRefineLabels:
    def test_zero_kernel_keeps_probabilities(self, runner, tmp_path):
        make_cloud(tmp_path, n=5)
        probs = np.array([[0.7, 0.3]] * 5)
        write_probabilities(tmp_path / "probs.csv", probs)
        kernel = tmp_path / "kernel.txt"
        kernel.write_text(
            "pointwise-transform 1\nlayers 2\n"
            "layer 0 3 3 identity\n"
            "weights 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0\n"
            "bias 0.0 0.0 0.0\n"
            "layer 1 1 1 identity\nweights 0.0\nbias 0.0\n"
        )
        config = write_config(
            tmp_path / "config.json",
            discrete={"steps": 3, "kernel_file": str(kernel),
                      "feature_source": "positions",
                      "probabilities": str(tmp_path / "probs.csv")},
        )
        result = runner.invoke(main, ["refine-labels", "--config", str(config)])
        assert result.exit_code == 0, result.output
        out = (tmp_path / "out" / "probabilities.csv").read_text()
        refined = np.array([[float(v) for v in r.split(",")] for r in out.splitlines()])
        np.testing.assert_array_equal(refined, probs)

    def test_malformed_probability_row_names_the_row(self, runner, tmp_path):
        make_cloud(tmp_path, n=3)
        (tmp_path / "probs.csv").write_text("0.5,0.5\n0.8,0.1\n0.5,0.5\n")
        config = write_config(
            tmp_path / "config.json",
            discrete={"probabilities": str(tmp_path / "probs.csv")},
        )
        result = runner.invoke(main, ["refine-labels", "--config", str(config)])
        assert result.exit_code != 0
        assert "row 2" in result.output

    def test_writes_hard_labels(self, runner, tmp_path):
        make_cloud(tmp_path, n=4)
        write_probabilities(tmp_path / "probs.csv", np.array([[0.9, 0.1]] * 4))
        config = write_config(
            tmp_path / "config.json",
            discrete={"steps": 2, "probabilities": str(tmp_path / "probs.csv")},
        )
        result = runner.invoke(main, ["refine-labels", "--config", str(config)])
        assert result.exit_code == 0
        labels = (tmp_path / "out" / "labels.csv").read_text().split()
        assert labels == ["0", "0", "0", "0"]


class TestDiffuseCompare:
    def test_report_columns_and_step_one_equality(self, runner, tmp_path):
        make_cloud(tmp_path, n=8)
        config = write_config(tmp_path / "config.json", diffusion={"steps": 5})
        with pytest.warns(UserWarning, match="Dirichlet energy is negative"):
            result = runner.invoke(main, ["diffuse-compare", "--config", str(config)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()
        assert rows[0] == "step,crf_fidelity,crf_dirichlet,diff_fidelity,diff_dirichlet"
        assert len(rows) - 1 == 5
        first = rows[1].split(",")
        assert abs(float(first[1]) - float(first[3])) <= 1e-9


class TestSweepSteps:
    def test_single_entry_matches_smooth_trace(self, runner, tmp_path):
        make_cloud(tmp_path, n=7)
        config = write_config(tmp_path / "config.json", crf={"steps": 1,
                                                             "compat": "identity",
                                                             "activation": "identity"})
        smooth = runner.invoke(main, ["smooth", "--config", str(config)])
        assert smooth.exit_code == 0
        trace_rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        final_energy = trace_rows[-1].split(",")[1]
        sweep = runner.invoke(
            main, ["sweep-steps", "--config", str(config), "--steps-list", "1"]
        )
        assert sweep.exit_code == 0
        sweep_rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert sweep_rows[1].split(",")[1] == final_energy

    def test_gauss_seidel_energy_non_increasing_in_steps(self, runner, tmp_path):
        make_cloud(tmp_path, n=14, d=2, seed=3)
        config = write_config(
            tmp_path / "config.json",
            graph={"method": "knn", "k": 3},
            crf={"schedule": "gauss-seidel", "symmetrize": True,
                 "compat": "identity", "activation": "identity"},
        )
        result = runner.invoke(
            main, ["sweep-steps", "--config", str(config), "--steps-list", "1,2,4,8,16"]
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        energies = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


class TestCheckOracle:
    def test_passes_and_writes_report(self, runner, tmp_path):
        make_cloud(tmp_path, n=9, d=2)
        config = write_config(tmp_path / "config.json")
        result = runner.invoke(main, ["check-oracle", "--config", str(config)])
        assert result.exit_code == 0, result.output
        report = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
        assert report[0] == "max_deviation,relative_deviation,sweeps"
        assert float(report[1].split(",")[1]) <= 1e-8


class TestInputFiles:
    @pytest.mark.parametrize(
        "command, section, key",
        [
            ("smooth", "crf", "unary_file"),
            ("smooth", "crf", "projection_file"),
            ("refine-labels", "discrete", "kernel_file"),
        ],
    )
    def test_truncated_layer_file_is_a_config_error(self, runner, tmp_path, command, section, key):
        make_cloud(tmp_path, n=4)
        write_probabilities(tmp_path / "probs.csv", np.full((4, 2), 0.5))
        truncated = tmp_path / "layers.txt"
        truncated.write_text(
            "pointwise-transform 1\nlayers 1\nlayer 0 2 2 identity\nweights 1.0 0.0 0.0 1.0\n"
        )
        overrides = {"discrete": {"probabilities": str(tmp_path / "probs.csv")}}
        overrides.setdefault(section, {})[key] = str(truncated)
        config = write_config(tmp_path / "config.json", **overrides)
        result = runner.invoke(main, [command, "--config", str(config)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{truncated}: truncated at layer 0" in result.output

    def test_missing_compat_factor_file_is_a_config_error(self, runner, tmp_path):
        make_cloud(tmp_path)
        config = write_config(tmp_path / "config.json", crf={"compat": "identiy"})
        result = runner.invoke(main, ["smooth", "--config", str(config)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit), result.exception
        assert "compat factor file not found: identiy" in result.output


class TestConfigValues:
    @pytest.mark.parametrize(
        "overrides, command, key",
        [
            ({"crf": {"symmetrize": "false"}}, "smooth", "crf.symmetrize"),
            ({"graph": {"k": "eight"}}, "build-graph", "graph.k"),
            ({"graph": {"k": 2.5}}, "build-graph", "graph.k"),
            ({"seed": "x"}, "build-graph", "seed"),
            ({"graph": {"k": 0}}, "build-graph", "graph.k"),
            ({"graph": {"method": "dilated-knn", "dilation": 0}}, "build-graph", "graph.dilation"),
            ({"graph": {"method": "radius", "radius": 0.0}}, "build-graph", "graph.radius"),
            ({"graph": {"method": "radius", "radius": -1.0}}, "build-graph", "graph.radius"),
            ({"diffusion": {"steps": 0}}, "diffuse-compare", "diffusion.steps"),
            ({"discrete": {"labels": "3"}}, "build-graph", "discrete.labels"),
            ({"diffusion": {"coefficient": 5.0}}, "diffuse-compare", "coefficient"),
            ({"diffusion": {"tol": -1}}, "diffuse-compare", "tol"),
            ({"diffusion": {"max_steps": "x"}}, "diffuse-compare", "max_steps"),
            ({"threads": 1}, "build-graph", "threads"),
        ],
    )
    def test_bad_value_is_a_config_error_naming_the_key(
        self, runner, tmp_path, overrides, command, key
    ):
        make_cloud(tmp_path)
        write_probabilities(tmp_path / "probs.csv", np.full((6, 3), 1.0 / 3.0))
        overrides.setdefault("discrete", {})["probabilities"] = str(tmp_path / "probs.csv")
        config = write_config(tmp_path / "config.json", **overrides)
        result = runner.invoke(main, [command, "--config", str(config)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Error:" in result.output and key in result.output
