"""The README's library example runs as written against a small seeded scan."""

import re
from pathlib import Path

import numpy as np

from pointcrf import write_cloud
from util import random_cloud

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    cloud = random_cloud(np.random.default_rng(7), 40, d=3)
    write_cloud(cloud, tmp_path / "scene.csv", "csv-xyz")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["smoothed"].shape == namespace["exact"].shape == (40, 3)
    assert np.all(np.isfinite(namespace["smoothed"]))
