"""Command-line surface: graph building, smoothing, label refinement,
diffusion comparison, oracle checks, and step sweeps.

Every command reads a JSON config (flags override config values), writes data
only to declared output files, and keeps diagnostics on stderr. Given the
same config and seed, outputs are byte identical across runs.
"""

import json
import os
import time
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import click
import numpy as np

from .cloud import (
    NeighborGraph,
    PointCloud,
    dilated_knn_graph,
    knn_graph,
    radius_graph,
    read_cloud,
    read_table,
    write_cloud,
    write_table,
)
from .crf_continuous import (
    ContinuousCrfState,
    CrfConfig,
    SimilarityField,
    balance_similarity,
    coordinate_descent_step,
    pairwise_similarity,
    run_crf,
    similarity_energy_model,
)
from .crf_discrete import (
    KernelMixture,
    LabelCompatibility,
    discrete_crf_infer,
    read_probabilities,
    write_probabilities,
)
from .diffusion import compare_crf_vs_diffusion
from .energy import CompatibilityMatrix, solve_exact
from .transform import Activation, PointwiseTransform

OUTPUT_DIR_ENV = "POINTCRF_OUTPUT_DIR"

ORACLE_MAX_SWEEPS = 10000
ORACLE_TOL = 1e-12
ORACLE_PASS_BOUND = 1e-8


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

class ConfigError(click.ClickException):
    """Invalid or unknown configuration content."""


def _take(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown config keys {sorted(unknown)}")


@dataclass
class GraphSection:
    method: str = "knn"
    k: int = 8
    dilation: int = 1
    radius: float | None = None


@dataclass
class CrfSection:
    steps: int = 10
    schedule: str = "jacobi"
    epsilon: float = 1e-4
    compat: str = "scaled-identity"
    activation: str = "leaky_relu"
    slope: float = 0.1
    tol: float = 0.0
    symmetrize: bool = False
    unary_file: str | None = None
    projection_file: str | None = None


@dataclass
class DiscreteSection:
    steps: int = 5
    labels: int | None = None
    compat: str = "potts-complement"
    kernel_file: str | None = None
    feature_source: str = "positions"
    probabilities: str | None = None


@dataclass
class DiffusionSection:
    steps: int = 20


@dataclass
class RunConfig:
    input_path: str | None = None
    input_format: str = "csv-xyz"
    output_dir: str | None = None
    graph: GraphSection = field(default_factory=GraphSection)
    crf: CrfSection = field(default_factory=CrfSection)
    discrete: DiscreteSection = field(default_factory=DiscreteSection)
    diffusion: DiffusionSection = field(default_factory=DiffusionSection)
    seed: int = 0


_KIND_NAMES = {bool: "a JSON boolean", int: "an integer", float: "a number", str: "a string"}


def _get(section: dict, key: str, default, kind, prefix: str, positive: bool = False):
    """``section[key]`` (or ``default``), which must be a JSON value of ``kind``.

    Nothing is coerced: ``"false"`` is not a boolean and ``"3"`` is not an
    integer. Integers count as numbers; None passes for optional keys.
    """
    value = section.get(key, default)
    if value is None and default is None:
        return None
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{prefix}{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{prefix}{key} must be > 0, got {value!r}")
    return float(value) if kind is float else value


def _object(raw: dict, name: str, allowed: set) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    _take(section, allowed, name)
    return section


def _section(raw: dict, name: str, cls, positive=()):
    """Build a section dataclass from ``raw[name]``, typed by its annotations."""
    spec = fields(cls)
    section = _object(raw, name, {f.name for f in spec})
    values = {}
    for f in spec:
        kind = next(t for t in (*typing.get_args(f.type), f.type) if t is not type(None))
        values[f.name] = _get(section, f.name, f.default, kind, f"{name}.", f.name in positive)
    return cls(**values)


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    _take(raw, {"input", "output", "graph", "crf", "discrete", "diffusion", "seed"}, str(path))
    inp = _object(raw, "input", {"path", "format"})
    out = _object(raw, "output", {"dir"})
    cfg = RunConfig(
        input_path=_get(inp, "path", None, str, "input."),
        input_format=_get(inp, "format", "csv-xyz", str, "input."),
        output_dir=_get(out, "dir", None, str, "output."),
        graph=_section(raw, "graph", GraphSection, positive={"k", "dilation", "radius"}),
        crf=_section(raw, "crf", CrfSection, positive={"steps"}),
        discrete=_section(raw, "discrete", DiscreteSection, positive={"steps", "labels"}),
        diffusion=_section(raw, "diffusion", DiffusionSection, positive={"steps"}),
        seed=_get(raw, "seed", 0, int, ""),
    )
    if cfg.input_format not in ("csv-xyz", "ply-ascii"):
        raise ConfigError("input.format must be csv-xyz or ply-ascii")
    if cfg.graph.method not in ("knn", "dilated-knn", "radius"):
        raise ConfigError("graph.method must be knn, dilated-knn, or radius")
    if cfg.discrete.feature_source not in ("positions", "features", "positions+features"):
        raise ConfigError("discrete.feature_source must be positions, features, or positions+features")
    return cfg


def _resolve_output_dir(cfg: RunConfig, flag_value: str | None) -> Path:
    chosen = flag_value or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir or "."
    out = Path(chosen)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cloud(cfg: RunConfig) -> PointCloud:
    if not cfg.input_path:
        raise ConfigError("no input path given (config input.path or --input)")
    try:
        return read_cloud(cfg.input_path, cfg.input_format)
    except FileNotFoundError:
        raise ConfigError(f"input file not found: {cfg.input_path}")
    except ValueError as exc:  # read_cloud names the file
        raise ConfigError(str(exc))


def _build_graph(cfg: RunConfig, cloud: PointCloud):
    g = cfg.graph
    if g.method == "radius" and g.radius is None:
        raise ConfigError("graph.radius is required for the radius method")
    try:
        if g.method == "knn":
            return knn_graph(cloud, g.k)
        if g.method == "dilated-knn":
            return dilated_knn_graph(cloud, g.k, g.dilation)
        return radius_graph(cloud, g.radius)
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}")


def _load_transform(path: str | None) -> PointwiseTransform:
    if path is None:
        return PointwiseTransform.identity()
    try:
        return PointwiseTransform.load(path)
    except FileNotFoundError:
        raise ConfigError(f"transform file not found: {path}")
    except ValueError as exc:
        raise ConfigError(str(exc))


def _compat_for(cfg: RunConfig, dim: int) -> CompatibilityMatrix:
    choice = cfg.crf.compat
    if choice == "identity":
        return CompatibilityMatrix.identity(dim)
    if choice == "scaled-identity":
        return CompatibilityMatrix(factor=np.eye(dim), epsilon=cfg.crf.epsilon)
    try:
        factor = read_table(choice)[0]
    except FileNotFoundError:
        raise ConfigError(f"compat factor file not found: {choice}")
    except ValueError as exc:
        raise ConfigError(str(exc))
    if factor.shape != (dim, dim):
        raise ConfigError(
            f"compat factor {choice} has shape {factor.shape}, expected ({dim}, {dim})"
        )
    return CompatibilityMatrix(factor=factor, epsilon=cfg.crf.epsilon)


def _crf_config(cfg: RunConfig, dim: int) -> CrfConfig:
    try:
        readout = Activation(kind=cfg.crf.activation, slope=cfg.crf.slope)
        return CrfConfig(
            compat=_compat_for(cfg, dim),
            steps=cfg.crf.steps,
            schedule=cfg.crf.schedule,
            convergence_tol=cfg.crf.tol,
            readout=readout,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path(), help="JSON run config.")(fn)
    fn = click.option("--input", "input_path", default=None, type=click.Path(), help="Override input.path.")(fn)
    fn = click.option("--format", "input_format", default=None,
                      type=click.Choice(["csv-xyz", "ply-ascii"]), help="Override input.format.")(fn)
    fn = click.option("--output-dir", default=None, type=click.Path(), help="Override the output directory.")(fn)
    return fn


def _prepare(config_path, input_path, input_format, output_dir):
    cfg = load_config(config_path)
    if input_path is not None:
        cfg.input_path = input_path
    if input_format is not None:
        cfg.input_format = input_format
    out = _resolve_output_dir(cfg, output_dir)
    return cfg, out


@dataclass
class _Prelude:
    """What the smoothing commands share."""

    cfg: RunConfig
    out: Path
    cloud: PointCloud
    guide: np.ndarray  # the smoothed features; they also drive the similarities
    sim: SimilarityField
    observed: np.ndarray | None  # unary output, the anchor (anchored runs only)
    crf: CrfConfig | None


def _prelude(config_path, input_path, input_format, output_dir, anchored=True) -> _Prelude:
    """Load the cloud, build the graph and the (optionally balanced) similarities.

    With ``anchored`` the unary transform is applied and the run's CrfConfig
    is built too. Feature-less clouds are smoothed on their coordinates.
    """
    cfg, out = _prepare(config_path, input_path, input_format, output_dir)
    cloud = _load_cloud(cfg)
    graph = _build_graph(cfg, cloud)
    guide = cloud.features if cloud.feature_dim > 0 else cloud.positions.copy()
    observed = run_cfg = None
    if anchored:
        observed = _load_transform(cfg.crf.unary_file).apply(guide)
        run_cfg = _crf_config(cfg, observed.shape[1])
    sim = pairwise_similarity(guide, graph, _load_transform(cfg.crf.projection_file))
    if cfg.crf.symmetrize:
        sim = balance_similarity(sim)
    return _Prelude(cfg, out, cloud, guide, sim, observed, run_cfg)


@click.group()
def main():
    """Point-cloud CRF smoothing, label refinement, and diffusion tools."""


@main.command("build-graph")
@_common_options
def cmd_build_graph(config_path, input_path, input_format, output_dir):
    """Build the configured neighbor graph and write it as a CSV edge list."""
    cfg, out = _prepare(config_path, input_path, input_format, output_dir)
    graph = _build_graph(cfg, _load_cloud(cfg))
    rows = zip(graph.edge_src.tolist(), graph.indices.tolist(), graph.weights.tolist())
    target = out / "graph.csv"
    write_table(target, rows, "src,dst,distance")
    click.echo(f"wrote {graph.num_edges} edges to {target}", err=True)


@main.command("smooth")
@_common_options
@click.option("--check-exact", is_flag=True, help="Also solve the exact system and report the deviation.")
def cmd_smooth(config_path, input_path, input_format, output_dir, check_exact):
    """Run message-passing smoothing; write the smoothed cloud and energy trace."""
    run = _prelude(config_path, input_path, input_format, output_dir)
    state = run_crf(ContinuousCrfState.from_observed(run.observed), run.sim, run.crf)
    smoothed = run.crf.readout.apply(state.latent)

    fmt = run.cfg.input_format
    cloud_out = run.out / ("smoothed.ply" if fmt == "ply-ascii" else "smoothed.csv")
    write_cloud(PointCloud(positions=run.cloud.positions, features=smoothed), cloud_out, fmt)
    trace_out = run.out / "trace.csv"
    write_table(trace_out, enumerate(state.energy_trace), "step,energy")
    click.echo(
        f"applied {state.steps_done} steps; wrote {cloud_out} and {trace_out}", err=True
    )
    if check_exact:
        exact = solve_exact(similarity_energy_model(run.sim, run.crf.compat, run.observed))
        deviation = float(np.max(np.abs(state.latent - exact), initial=0.0))
        click.echo(f"max deviation from exact solve: {deviation!r}", err=True)


@main.command("refine-labels")
@_common_options
@click.option("--probabilities", "prob_path", default=None, type=click.Path(),
              help="Override discrete.probabilities (N x L CSV of unary probabilities).")
def cmd_refine_labels(config_path, input_path, input_format, output_dir, prob_path):
    """Refine per-point label probabilities with the discrete CRF."""
    cfg, out = _prepare(config_path, input_path, input_format, output_dir)
    cloud = _load_cloud(cfg)
    graph = _build_graph(cfg, cloud)
    source = prob_path or cfg.discrete.probabilities
    if source is None:
        raise ConfigError("no probabilities given (discrete.probabilities or --probabilities)")
    try:
        unary = read_probabilities(source)
    except FileNotFoundError:
        raise ConfigError(f"probabilities file not found: {source}")
    except ValueError as exc:
        raise ConfigError(str(exc))
    if unary.shape[0] != cloud.num_points:
        raise ConfigError(
            f"probability rows ({unary.shape[0]}) do not match cloud size ({cloud.num_points})"
        )
    if cfg.discrete.labels is not None and unary.shape[1] != cfg.discrete.labels:
        raise ConfigError(
            f"probability columns ({unary.shape[1]}) do not match discrete.labels "
            f"({cfg.discrete.labels})"
        )
    if cfg.discrete.feature_source == "positions":
        features = cloud.positions
    elif cloud.feature_dim == 0:
        raise ConfigError(f"discrete.feature_source is {cfg.discrete.feature_source!r}, "
                          f"but {cfg.input_path} has no feature columns")
    elif cfg.discrete.feature_source == "features":
        features = cloud.features
    else:
        features = np.hstack([cloud.positions, cloud.features])
    if cfg.discrete.kernel_file is not None:
        try:
            mix = KernelMixture.load(cfg.discrete.kernel_file)
        except (FileNotFoundError, ValueError) as exc:
            raise ConfigError(str(exc))
    else:
        mix = KernelMixture.default(features.shape[1])
    labels = unary.shape[1]
    preset = cfg.discrete.compat
    if preset == "identity":
        compat = LabelCompatibility.identity(labels)
    elif preset == "potts-complement":
        compat = LabelCompatibility.potts_complement(labels)
    else:
        try:
            compat = LabelCompatibility.load(preset)
        except (FileNotFoundError, ValueError) as exc:
            raise ConfigError(str(exc))
        if compat.num_labels != labels:
            raise ConfigError(
                f"compatibility matrix is {compat.num_labels} x {compat.num_labels}, "
                f"expected {labels}"
            )
    try:
        result = discrete_crf_infer(unary, features, graph, mix, compat, cfg.discrete.steps)
    except ValueError as exc:
        raise ConfigError(str(exc))
    prob_out = out / "probabilities.csv"
    write_probabilities(prob_out, result.posterior)
    hard = np.argmax(result.posterior, axis=1)
    labels_out = out / "labels.csv"
    write_table(labels_out, hard[:, None])
    click.echo(f"refined {unary.shape[0]} rows; wrote {prob_out} and {labels_out}", err=True)


@main.command("diffuse-compare")
@_common_options
def cmd_diffuse_compare(config_path, input_path, input_format, output_dir):
    """Compare identity-coupled message passing against half-rate diffusion."""
    run = _prelude(config_path, input_path, input_format, output_dir, anchored=False)
    report = compare_crf_vs_diffusion(run.guide, run.sim, run.cfg.diffusion.steps)
    target = run.out / "compare.csv"
    write_table(
        target,
        [(r.step, r.crf_fidelity, r.crf_dirichlet, r.diffusion_fidelity, r.diffusion_dirichlet)
         for r in report.rows],
        "step,crf_fidelity,crf_dirichlet,diff_fidelity,diff_dirichlet",
    )
    click.echo(
        f"step-1 max difference between processes: {report.step_one_max_difference!r}",
        err=True,
    )
    click.echo(f"wrote {target}", err=True)


@main.command("sweep-steps")
@_common_options
@click.option("--steps-list", default="1,2,5,10,20,50", show_default=True,
              help="Comma-separated step counts to sweep.")
@click.option("--timing", is_flag=True,
              help="Record, for each count, the wall time to reach it inside the one run "
                   "(off by default so outputs are deterministic).")
def cmd_sweep_steps(config_path, input_path, input_format, output_dir, steps_list, timing):
    """Run the smoother at several step counts; record energy and fidelity.

    One run is resumed across the distinct counts in ascending order, which
    equals a fresh run per count (early stop included); rows keep the given
    order.
    """
    try:
        step_counts = [int(tok) for tok in steps_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad --steps-list value: {steps_list!r}")
    if not step_counts or any(t < 1 for t in step_counts):
        raise ConfigError("--steps-list needs positive integers")
    run = _prelude(config_path, input_path, input_format, output_dir)
    state = ContinuousCrfState.from_observed(run.observed)
    reached, done = {}, 0
    start = time.perf_counter()
    for count in sorted(set(step_counts)):
        if state.steps_done == done:  # otherwise the run stopped early and stays stopped
            state = run_crf(state, run.sim, replace(run.crf, steps=count - done))
            fidelity = float(np.linalg.norm(state.latent - run.observed))
            row = (state.energy_trace[-1], fidelity, time.perf_counter() - start)
        reached[count], done = row, count
    rows = []
    for count in step_counts:
        energy, fidelity, elapsed = reached[count]
        rows.append((count, energy, fidelity, elapsed if timing else 0.0))
        click.echo(f"steps={count}: energy={energy!r} ({elapsed:.3f}s)", err=True)
    target = run.out / "sweep.csv"
    write_table(target, rows, "steps,final_energy,fidelity,wall_time_s")
    click.echo(f"wrote {target}", err=True)


@main.command("check-oracle")
@_common_options
def cmd_check_oracle(config_path, input_path, input_format, output_dir):
    """Verify the iterative solver against the exact closed-form solution."""
    run = _prelude(config_path, input_path, input_format, output_dir)
    observed, compat = run.observed, run.crf.compat
    model = similarity_energy_model(run.sim, compat, observed)

    # Iterate the general per-node minimizer on the symmetrized edge weights;
    # it shares its fixed point with the exact solve for any input field.
    s_sym = model.symmetrized_similarity()
    sym = NeighborGraph(s_sym.shape[0], s_sym.indptr, s_sym.indices, s_sym.data)
    latent = observed.copy()
    for sweeps in range(1, ORACLE_MAX_SWEEPS + 1):
        updated = coordinate_descent_step(observed, latent, sym, sym.weights, compat)
        change = float(np.max(np.abs(updated - latent), initial=0.0))
        latent = updated
        if change < ORACLE_TOL:
            break
    exact = solve_exact(model)
    deviation = float(np.max(np.abs(latent - exact), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(exact), initial=0.0))
    relative = deviation / scale
    target = run.out / "oracle.csv"
    write_table(target, [(deviation, relative, sweeps)], "max_deviation,relative_deviation,sweeps")
    click.echo(f"iterative vs exact: max deviation {deviation!r} after {sweeps} sweeps", err=True)
    if relative > ORACLE_PASS_BOUND:
        raise click.ClickException(
            f"oracle check failed: relative deviation {relative:.3e} > {ORACLE_PASS_BOUND:.0e}"
        )
    click.echo(f"wrote {target}", err=True)


if __name__ == "__main__":
    main()
