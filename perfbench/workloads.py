"""The four benchmark workloads: inputs, the timed job, and its check.

Each workload has the same shape:

* ``prepare(ws)`` writes the run's set-up files (configs, weights, kernel,
  fixed clouds) from the seed;
* ``make_job(ws, index)`` generates one job's inputs and clears stale
  outputs; it runs outside the timed interval;
* ``run(context, job)`` is the timed job;
* ``check(job, output)`` raises ``CheckFailed`` unless the output agrees
  with the benchmark's own reference; it also runs outside the timed
  interval.

Each class docstring says why the workload exists; BENCHMARK.json carries
the same reasons in short.
"""

import contextlib
import io
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import reference as ref
from reference import require


class JobError(Exception):
    """The program raised or a CLI command exited non-zero."""


@dataclass
class Workspace:
    """Where a run keeps its generated inputs and outputs, and its seed."""

    workdir: Path
    seed: int


def run_cli(main, args) -> str:
    """Run one CLI command in-process; return what it wrote to stderr."""
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        code = main(args, standalone_mode=False)
    if code not in (None, 0):
        raise JobError(f"{args[0]} exited with code {code}: {captured.getvalue()[-500:]}")
    return captured.getvalue()


def read_table(path: Path, skip_header: bool = False) -> np.ndarray:
    require(path.is_file(), f"{path.name} was not written")
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1 if skip_header else 0)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# scene-smooth
# ---------------------------------------------------------------------------

class SceneSmooth:
    """CLI ``smooth --check-exact`` on a fresh 4096-point CSV scan (d=8, k=16,
    scaled-identity compat, 10 jacobi steps).

    The brute-force kNN build is about two thirds of the job and sets peak
    memory (its N x N x 3 difference table). The job also covers the CG
    branch of ``solve_exact`` (32768 unknowns), the per-step energy trace and
    the CSV write side.
    """
    name = "scene-smooth"
    points = 4096
    round_size = 1
    K, STEPS, DIM, SLOPE, EPSILON = 16, 10, 8, 0.1, 1e-4

    def prepare(self, ws: Workspace) -> None:
        inputs.write_config(ws.workdir / "smooth.json", {
            "input": {"path": str(ws.workdir / "scan.csv"), "format": "csv-xyz"},
            "output": {"dir": str(ws.workdir / "out")},
            "graph": {"method": "knn", "k": self.K},
            "crf": {"steps": self.STEPS, "schedule": "jacobi", "compat": "scaled-identity",
                    "epsilon": self.EPSILON, "activation": "leaky_relu", "slope": self.SLOPE},
            "seed": ws.seed,
        })

    def make_job(self, ws: Workspace, index: int) -> dict:
        positions, features = inputs.smooth_field_cloud(
            inputs.stream(ws.seed, 1, index), self.points, self.DIM)
        inputs.write_cloud_csv(ws.workdir / "scan.csv", positions, features)
        return {"positions": positions, "features": features,
                "config": ws.workdir / "smooth.json", "out": fresh_dir(ws.workdir / "out")}

    def run(self, context: dict, job: dict) -> str:
        return run_cli(context["main"], ["smooth", "--config", str(job["config"]), "--check-exact"])

    def check(self, job: dict, stderr: str) -> None:
        positions, features = job["positions"], job["features"]
        nbrs = ref.knn(positions, self.K)
        sim = ref.edge_matrix(nbrs, ref.softmax_similarity(features, nbrs))
        coupling = (1.0 + self.EPSILON) * np.eye(self.DIM)
        trajectory = ref.jacobi(features, sim, coupling, self.STEPS)
        smoothed = read_table(job["out"] / "smoothed.csv")
        require(smoothed.shape == (self.points, 3 + self.DIM), f"smoothed.csv shape {smoothed.shape}")
        require(np.array_equal(smoothed[:, :3], positions), "smoothed.csv positions changed")
        ref.close_relative("smoothed features", smoothed[:, 3:],
                           ref.leaky(trajectory[-1], self.SLOPE), 1e-9)
        trace = read_table(job["out"] / "trace.csv", skip_header=True)
        require(trace.shape == (self.STEPS + 1, 2), f"trace.csv shape {trace.shape}")
        require(bool(np.all(np.isfinite(trace))), "trace.csv has non-finite rows")
        energies = [ref.smoothing_energy(features, x, sim, coupling) for x in trajectory]
        ref.close_relative("trace energies", trace[:, 1], np.array(energies), 1e-9)
        match = re.search(r"max deviation from exact solve: (\S+)", stderr)
        require(match is not None and np.isfinite(float(match.group(1))),
                "no finite exact-solve deviation reported")


# ---------------------------------------------------------------------------
# train-step
# ---------------------------------------------------------------------------

class TrainStep:
    """One decoder training step through the library on 1024 points:
    farthest point sampling (0.25), kNN interpolation of 32-wide coarse
    features, a k=16 graph, ``crf_convolve`` (2-layer unary, 16->8
    projection, random compat factor, 5 jacobi steps) and ``crf_gradients``
    on a random cotangent.

    Per-node Python loops do most of the work (similarity softmax twice,
    energy trace, backward scatter, interpolation); the graph build is about
    a third of the job and no files are touched.
    """
    name = "train-step"
    points = 1024
    round_size = 1
    K, RATIO, INTERP_K, COARSE_DIM, GUIDE_DIM, OUT_DIM = 16, 0.25, 3, 32, 16, 8
    COARSE = 256  # ceil(RATIO * points)
    STEPS, SLOPE, EPSILON = 5, 0.1, 1e-4

    def prepare(self, ws: Workspace) -> None:
        rng = inputs.stream(ws.seed, 2)
        self.unary = [inputs.random_layer(rng, self.COARSE_DIM, 32, f"leaky_relu:{self.SLOPE}"),
                      inputs.random_layer(rng, 32, self.GUIDE_DIM, "identity")]
        self.projection = [inputs.random_layer(rng, self.GUIDE_DIM, self.OUT_DIM, "identity")]
        self.factor = rng.normal(scale=0.5 / np.sqrt(self.GUIDE_DIM),
                                 size=(self.GUIDE_DIM, self.GUIDE_DIM))
        inputs.write_transform(ws.workdir / "unary.txt", self.unary)
        inputs.write_transform(ws.workdir / "projection.txt", self.projection)
        inputs.write_csv_table(ws.workdir / "compat_factor.csv", self.factor)

    def make_job(self, ws: Workspace, index: int) -> dict:
        rng = inputs.stream(ws.seed, 3, index)
        positions, features = inputs.smooth_field_cloud(rng, self.points, self.GUIDE_DIM)
        return {
            "positions": positions,
            "features": features,
            "coarse_features": rng.normal(size=(self.COARSE, self.COARSE_DIM)),
            "upstream": rng.normal(size=(self.points, self.GUIDE_DIM)),
            "direction_rng": inputs.stream(ws.seed, 4, index),
        }

    def run(self, context: dict, job: dict) -> dict:
        import pointcrf as pc

        cloud = pc.PointCloud(job["positions"], job["features"])
        sample = pc.farthest_point_sample(cloud, self.RATIO)
        coarse = pc.PointCloud(job["positions"][sample.selected], job["coarse_features"])
        upsampled = pc.knn_interpolate(coarse, job["positions"], k=self.INTERP_K)
        graph = pc.knn_graph(cloud, self.K)
        args = (upsampled, graph, context["unary"], context["projection"], job["features"],
                context["cfg"])
        output = pc.crf_convolve(*args)
        grads = pc.crf_gradients(*args, job["upstream"])
        return {"selected": sample.selected, "upsampled": upsampled, "output": output,
                "grads": grads}

    def _forward(self, job, nbrs, params):
        out, kinks = ref.crf_layer(params["inputs"], job["features"], nbrs, params["unary"],
                                   params["projection"], params["factor"], self.EPSILON,
                                   self.STEPS, self.SLOPE)
        return float(np.sum(job["upstream"] * out)), out, kinks

    def check(self, job: dict, result: dict) -> None:
        positions = job["positions"]
        selected = ref.farthest_points(positions, self.COARSE)
        require(np.array_equal(result["selected"], selected), "farthest point sample differs")
        upsampled = ref.interpolate(positions[selected], job["coarse_features"], positions,
                                    self.INTERP_K)
        ref.close_relative("interpolated features", result["upsampled"], upsampled, 1e-12)
        nbrs = ref.knn(positions, self.K)
        params = {"inputs": upsampled, "unary": self.unary, "projection": self.projection,
                  "factor": self.factor}
        _, out, kinks = self._forward(job, nbrs, params)
        ref.close_relative("layer output", result["output"], out, 1e-9)
        self._check_gradient(job, nbrs, params, out, kinks, result["grads"])

    def _check_gradient(self, job, nbrs, params, out, kinks, grads) -> None:
        """Central difference of <upstream, layer(params)> along one random
        direction in all parameters at once, against the analytic cotangents."""
        rng = job["direction_rng"]
        direction = {
            "inputs": rng.normal(size=params["inputs"].shape),
            "unary": [(rng.normal(size=w.shape), rng.normal(size=b.shape), a)
                      for w, b, a in params["unary"]],
            "projection": [(rng.normal(size=w.shape), rng.normal(size=b.shape), a)
                           for w, b, a in params["projection"]],
            "factor": rng.normal(size=params["factor"].shape),
        }
        analytic = float(np.sum(grads.inputs * direction["inputs"]))
        analytic += float(np.sum(grads.compat_factor * direction["factor"]))
        for stack, cotangents in (("unary", grads.unary), ("projection", grads.projection)):
            for (gw, gb), (dw, db, _) in zip(cotangents, direction[stack]):
                analytic += float(np.sum(gw * dw) + np.sum(gb * db))

        def shifted(t):
            moved = {
                "inputs": params["inputs"] + t * direction["inputs"],
                "factor": params["factor"] + t * direction["factor"],
            }
            for stack in ("unary", "projection"):
                moved[stack] = [(w + t * dw, b + t * db, a) for (w, b, a), (dw, db, _)
                                in zip(params[stack], direction[stack])]
            return self._forward(job, nbrs, moved)

        # Central difference along the direction, with a step small enough
        # that no leaky-relu pre-activation changes sign: rates from a trial
        # step bound the distance to the nearest kink.
        trial = 1e-6
        (up, _, kinks_up), (down, _, kinks_down) = shifted(trial), shifted(-trial)
        step = trial
        for k0, ku, kd in zip(kinks, kinks_up, kinks_down):
            rate = np.abs(ku - kd) / (2.0 * trial)
            moving = rate > 0
            if moving.any():
                step = min(step, 0.5 * float(np.min(np.abs(k0[moving]) / rate[moving])))
        if step < trial:
            (up, _, _), (down, _, _) = shifted(step), shifted(-step)
        numeric = (up - down) / (2.0 * step)
        # Cancellation in (up - down) costs about eps * |loss terms| / step.
        roundoff = 10.0 * np.finfo(float).eps * float(np.sum(np.abs(job["upstream"] * out))) / step
        err = abs(numeric - analytic)
        require(err <= 1e-8 * abs(analytic) + roundoff,
                f"directional derivative {analytic!r} vs central difference {numeric!r} "
                f"(step {step:.1e})")


# ---------------------------------------------------------------------------
# label-refine
# ---------------------------------------------------------------------------

class LabelRefine:
    """CLI ``refine-labels`` on 1024 points, 13 labels, 10 steps, with a
    2-component kernel file over positions+features and an N x 13
    probabilities CSV.

    ``crf_discrete`` per-node loops roughly equal the graph build, and it is
    the read-heavy I/O beside scene-smooth's writes.
    """
    name = "label-refine"
    points = 1024
    round_size = 1
    K, LABELS, STEPS, DIM = 16, 13, 10, 4
    POSTERIOR_TOL = 1e-10

    def prepare(self, ws: Workspace) -> None:
        rng = inputs.stream(ws.seed, 5)
        # One component mostly spatial, one over the features alone.
        spatial = np.vstack([rng.normal(scale=4.0, size=(3, 3)),
                             rng.normal(scale=0.3, size=(self.DIM, 3))])
        appearance = np.vstack([np.zeros((3, 2)), rng.normal(scale=0.7, size=(self.DIM, 2))])
        self.projections, self.weights = [spatial, appearance], np.array([1.0, 0.5])
        inputs.write_kernel(ws.workdir / "kernel.txt", self.projections, self.weights)
        inputs.write_config(ws.workdir / "refine.json", {
            "input": {"path": str(ws.workdir / "cloud.csv"), "format": "csv-xyz"},
            "output": {"dir": str(ws.workdir / "out")},
            "graph": {"method": "knn", "k": self.K},
            "discrete": {"steps": self.STEPS, "labels": self.LABELS,
                         "compat": "potts-complement",
                         "kernel_file": str(ws.workdir / "kernel.txt"),
                         "feature_source": "positions+features",
                         "probabilities": str(ws.workdir / "probabilities.csv")},
            "seed": ws.seed,
        })

    def make_job(self, ws: Workspace, index: int) -> dict:
        rng = inputs.stream(ws.seed, 6, index)
        positions, features = inputs.smooth_field_cloud(rng, self.points, self.DIM)
        unary = inputs.random_probabilities(rng, self.points, self.LABELS)
        inputs.write_cloud_csv(ws.workdir / "cloud.csv", positions, features)
        inputs.write_csv_table(ws.workdir / "probabilities.csv", unary)
        return {"positions": positions, "features": features, "unary": unary,
                "config": ws.workdir / "refine.json", "out": fresh_dir(ws.workdir / "out")}

    def run(self, context: dict, job: dict) -> str:
        return run_cli(context["main"], ["refine-labels", "--config", str(job["config"])])

    def check(self, job: dict, stderr: str) -> None:
        nbrs = ref.knn(job["positions"], self.K)
        compat = np.ones((self.LABELS, self.LABELS)) - np.eye(self.LABELS)
        want = ref.label_posterior(job["unary"], np.hstack([job["positions"], job["features"]]),
                                   nbrs, self.projections, self.weights, compat, self.STEPS)
        got = read_table(job["out"] / "probabilities.csv")
        require(got.shape == want.shape, f"probabilities.csv shape {got.shape}")
        err = float(np.max(np.abs(got - want)))
        # Ten potts-complement steps amplify a last-bit difference in any
        # input about 500-fold (measured: 1e-15 -> 5.6e-13), so two correct
        # float64 routes can differ by ~1e-12. 1e-10 leaves that margin.
        require(err <= self.POSTERIOR_TOL, f"posterior differs from the reference by {err:.3e}")
        labels = read_table(job["out"] / "labels.csv")
        require(labels.shape == (self.points, 1), f"labels.csv shape {labels.shape}")
        require(np.array_equal(labels[:, 0], np.argmax(got, axis=1)),
                "labels.csv is not the posterior argmax")


# ---------------------------------------------------------------------------
# balanced-oracle
# ---------------------------------------------------------------------------

class BalancedOracle:
    """CLI ``check-oracle``, ``diffuse-compare`` and a gauss-seidel ``smooth``
    on 512-point clouds (d=4, k=8, ``crf.symmetrize``).

    The only path through dense Sinkhorn, coordinate-descent sweeps, the
    gauss-seidel schedule, the dense branch of ``solve_exact`` (2048
    unknowns) and the diffusion and Dirichlet loops. Graph build is
    negligible, so a graph change should not move it.
    """
    name = "balanced-oracle"
    points = 512
    # Sinkhorn time depends strongly on the cloud, so every run cycles the
    # same number of clouds and measures whole cycles.
    round_size = 4
    K, DIM, STEPS, DIFFUSION_STEPS = 8, 4, 10, 20
    ORACLE_BOUND, STEP_ONE_BOUND = 1e-8, 1e-12

    def prepare(self, ws: Workspace) -> None:
        for c in range(self.round_size):
            positions, features = inputs.smooth_field_cloud(
                inputs.stream(ws.seed, 7, c), self.points, self.DIM)
            inputs.write_cloud_csv(ws.workdir / f"cloud{c}.csv", positions, features)
            inputs.write_config(ws.workdir / f"oracle{c}.json", {
                "input": {"path": str(ws.workdir / f"cloud{c}.csv"), "format": "csv-xyz"},
                "output": {"dir": str(ws.workdir / f"out{c}")},
                "graph": {"method": "knn", "k": self.K},
                "crf": {"steps": self.STEPS, "schedule": "gauss-seidel", "symmetrize": True},
                "diffusion": {"steps": self.DIFFUSION_STEPS},
                "seed": ws.seed,
            })

    def make_job(self, ws: Workspace, index: int) -> dict:
        c = index % self.round_size
        return {"config": ws.workdir / f"oracle{c}.json", "out": fresh_dir(ws.workdir / f"out{c}")}

    def run(self, context: dict, job: dict) -> dict:
        config = str(job["config"])
        return {cmd: run_cli(context["main"], [cmd, "--config", config])
                for cmd in ("check-oracle", "diffuse-compare", "smooth")}

    def check(self, job: dict, stderr: dict) -> None:
        oracle = read_table(job["out"] / "oracle.csv", skip_header=True)
        require(oracle.shape == (1, 3), f"oracle.csv shape {oracle.shape}")
        require(oracle[0, 1] <= self.ORACLE_BOUND,
                f"oracle relative deviation {oracle[0, 1]:.3e} > {self.ORACLE_BOUND:.0e}")
        match = re.search(r"step-1 max difference between processes: (\S+)",
                          stderr["diffuse-compare"])
        require(match is not None, "diffuse-compare reported no step-1 difference")
        step_one = float(match.group(1))
        require(step_one <= self.STEP_ONE_BOUND,
                f"step-1 difference {step_one:.3e} > {self.STEP_ONE_BOUND:.0e}")
        trace = read_table(job["out"] / "trace.csv", skip_header=True)
        require(trace.shape == (self.STEPS + 1, 2), f"trace.csv shape {trace.shape}")
        energy = trace[:, 1]
        # Rounding slack only: 1e-12 of the energy, far below one step's decrease.
        rises = np.diff(energy) > 1e-12 * np.abs(energy[:-1])
        require(not rises.any(), f"gauss-seidel energy rises at step {int(np.argmax(rises)) + 1}")


WORKLOADS = {w.name: w for w in (SceneSmooth, TrainStep, LabelRefine, BalancedOracle)}
