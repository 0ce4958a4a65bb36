"""One-time library set-up of each workload, timed as ``setup_s``.

Only the standard library is imported at module level: importing numpy,
scipy and the package is part of what each function does, so a fresh
process that times one of these calls measures the whole set-up.
"""

from pathlib import Path


def cli(workdir: Path) -> dict:
    """CLI workloads: the command module and everything it imports."""
    import pointcrf.cli

    return {"main": pointcrf.cli.main}


def cli_with_kernel(workdir: Path) -> dict:
    """refine-labels: the CLI plus the kernel file it reads."""
    context = cli(workdir)
    import pointcrf

    context["kernel"] = pointcrf.KernelMixture.load(workdir / "kernel.txt")
    return context


def train_step(workdir: Path) -> dict:
    """Library training step: transform weight files and the layer config."""
    import numpy as np
    import pointcrf as pc

    factor = np.loadtxt(workdir / "compat_factor.csv", delimiter=",", ndmin=2)
    return {
        "unary": pc.PointwiseTransform.load(workdir / "unary.txt"),
        "projection": pc.PointwiseTransform.load(workdir / "projection.txt"),
        "cfg": pc.CrfConfig(
            compat=pc.CompatibilityMatrix(factor=factor),
            steps=5,
            schedule="jacobi",
            readout=pc.Activation.leaky_relu(0.1),
        ),
    }


BY_WORKLOAD = {
    "scene-smooth": cli,
    "train-step": train_step,
    "label-refine": cli_with_kernel,
    "balanced-oracle": cli,
}
