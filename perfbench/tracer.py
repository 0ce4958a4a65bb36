"""Span tracing around calls into the package's public functions.

The tracer wraps functions from outside the package: every module namespace
that holds a traced function gets the wrapper (``pointcrf.cli.knn_graph`` as
well as ``pointcrf.cloud.knn_graph``), and so do the methods and CLI command
callbacks listed below. Spans stay in memory with parent links and are
written out once, when the run ends. Nothing in the package is edited.
"""

import functools
import json
import time
import tracemalloc
import warnings

# (defining module, function) pairs traced wherever they are referenced.
FUNCTIONS = {
    "cloud": ["read_cloud", "write_cloud", "knn_graph", "farthest_point_sample",
              "knn_interpolate"],
    "energy": ["evaluate_energy", "solve_exact", "dirichlet_energy"],
    "crf_continuous": ["pairwise_similarity", "balance_similarity", "crf_step", "run_crf",
                       "crf_convolve", "crf_gradients", "coordinate_descent_step"],
    "crf_discrete": ["read_probabilities", "write_probabilities", "kernel_weights",
                     "discrete_crf_step", "discrete_crf_infer"],
    "diffusion": ["diffusion_step", "multichannel_dirichlet", "compare_crf_vs_diffusion"],
}
# PointwiseTransform methods, reported under the ``transform`` layer.
TRANSFORM_METHODS = ["apply", "apply_with_trace", "backward"]
# CLI subcommand callbacks, reported as ``cli.<command>``.
CLI_COMMANDS = {
    "smooth": "cmd_smooth",
    "refine_labels": "cmd_refine_labels",
    "diffuse_compare": "cmd_diffuse_compare",
    "check_oracle": "cmd_check_oracle",
}
MODULES = ["cloud", "transform", "energy", "crf_continuous", "crf_discrete", "diffusion", "cli"]

STALL_MESSAGE = "similarity balancing stalled"


def span_names():
    """Every traced span name, ``<module>.<function>``."""
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"transform.{m}" for m in TRANSFORM_METHODS]
    names += [f"cli.{c}" for c in CLI_COMMANDS]
    return names


class Tracer:
    """Records spans (name, start, end, parent, job) for calls into the package.

    With ``memory=True`` each span also records its peak traced allocation
    above the allocation level at entry, in MB (tracemalloc must be running);
    nested spans fold their peaks into their parents.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self._stack = []
        self._job = None
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        import importlib

        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        originals = {}
        for mod, fns in FUNCTIONS.items():
            for fn in fns:
                originals[id(getattr(modules[mod], fn))] = f"{mod}.{fn}"
        wrappers = {}
        for namespace in [package, *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                name = originals.get(id(value)) if callable(value) else None
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._patch(namespace, attr, wrappers[name])
        cls = modules["transform"].PointwiseTransform
        for method in TRANSFORM_METHODS:
            self._patch(cls, method, self._wrap(f"transform.{method}", getattr(cls, method)))
        for command, attr in CLI_COMMANDS.items():
            cmd = getattr(modules["cli"], attr)
            self._patch(cmd, "callback", self._wrap(f"cli.{command}", cmd.callback))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- spans --------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self._job = job

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return traced

    def _call(self, name, fn, args, kwargs):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": self._job,
            "name": name,
        }
        self.spans.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            span["_base"], span["_peak"] = current, current
        self._stack.append(span)
        caught = None
        span["start"] = time.perf_counter()
        try:
            if name == "crf_continuous.balance_similarity":
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                _, peak = tracemalloc.get_traced_memory()
                top = max(span.pop("_peak"), peak)
                span["peak_mb"] = (top - span.pop("_base")) / 1e6
                if self._stack:
                    self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], top)
            if caught is not None:
                span["stalls"] = sum(STALL_MESSAGE in str(w.message) for w in caught)
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if name == "cloud.knn_graph":
            span["edges"] = int(result.num_edges)
        return result

    # -- results ------------------------------------------------------------

    def per_job(self):
        """{job: {name: {"self_s", "calls", "peak_mb", "stalls", "edges"}}}."""
        child_time = {}
        for span in self.spans:
            if span["parent"] is not None:
                dur = span["end"] - span["start"]
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + dur
        jobs = {}
        for span in self.spans:
            entry = jobs.setdefault(span["job"], {}).setdefault(
                span["name"], {"self_s": 0.0, "calls": 0, "peak_mb": 0.0, "stalls": 0, "edges": 0}
            )
            entry["self_s"] += span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            entry["calls"] += 1
            entry["peak_mb"] = max(entry["peak_mb"], span.get("peak_mb", 0.0))
            entry["stalls"] += span.get("stalls", 0)
            entry["edges"] += span.get("edges", 0)
        return jobs

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
