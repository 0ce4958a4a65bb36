"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs one real job and expects it to pass its check,
then feeds deliberately corrupted outputs to the check and expects each job
to count as failed, and expects a job whose program call raises to count as
failed too. Finally it runs ``run.py`` briefly on every workload, traced and
untraced, and expects exactly the metrics BENCHMARK.json names, each printed
by name with its unit. Exits non-zero on the first unmet expectation.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def bump_csv_cell(path: Path, row: int, col: int, factor: float) -> None:
    set_csv_cell(path, row, col, lambda value: value * factor)


def set_csv_cell(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def smoothed_off_by_ppm(job, _):
    bump_csv_cell(job["out"] / "smoothed.csv", 0, 3, 1.0 + 1e-6)


def trace_row_dropped(job, _):
    path = job["out"] / "trace.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def forward_off_by_ppm(_, result):
    result["output"][0, 0] *= 1.0 + 1e-6


def gradient_off(_, result):
    result["grads"].compat_factor[0, 0] += 1e-2 * abs(result["grads"].compat_factor).max()


def posterior_off(job, _):
    set_csv_cell(job["out"] / "probabilities.csv", 0, 0, lambda value: value + 1e-9)


def labels_swapped(job, _):
    path = job["out"] / "labels.csv"
    labels = path.read_text().split()
    labels[0] = str((int(labels[0]) + 1) % 13)
    path.write_text("".join(v + "\n" for v in labels))


def step_one_gap(_, stderr):
    stderr["diffuse-compare"] = "step-1 max difference between processes: 1e-09\n"


def energy_rise(job, _):
    bump_csv_cell(job["out"] / "trace.csv", 11, 1, 1.5)


def oracle_missed(job, _):
    set_csv_cell(job["out"] / "oracle.csv", 1, 1, lambda _: 1e-7)


TAMPERS = {
    "scene-smooth": [smoothed_off_by_ppm, trace_row_dropped],
    "train-step": [forward_off_by_ppm, gradient_off],
    "label-refine": [posterior_off, labels_swapped],
    "balanced-oracle": [step_one_gap, energy_rise, oracle_missed],
}


class Raising:
    """Stands in for a workload whose program call raises."""

    def run(self, context, job):
        raise RuntimeError("injected failure")


def check_workload(name: str, root: Path) -> None:
    import libsetup
    import workloads

    workload = workloads.WORKLOADS[name]()
    ws = workloads.Workspace(workdir=root / ".perfbench-runs" / "selftest" / name, seed=11)
    workloads.fresh_dir(ws.workdir)
    workload.prepare(ws)
    context = libsetup.BY_WORKLOAD[name](ws.workdir)

    results = [run.run_job(workload, context, workload.make_job(ws, 0))]
    expect(results[0]["error"] is None, f"{name}: clean job failed: {results[0]['error']}")
    for tamper in TAMPERS[name]:
        outcome = run.run_job(workload, context, workload.make_job(ws, 0), after_run=tamper)
        expect(outcome["error"] is not None and outcome["error"].startswith("check failed"),
               f"{name}: check accepted output corrupted by {tamper.__name__}")
        results.append(outcome)
    outcome = run.run_job(Raising(), context, workload.make_job(ws, 0))
    expect(outcome["error"] == "RuntimeError: injected failure",
           f"{name}: a raising job was not counted as failed")
    results.append(outcome)
    metrics = run.end_to_end(workload, results, [1.0])
    expect(metrics["success_ratio"][0] == 1.0 / len(results),
           f"{name}: success_ratio {metrics['success_ratio'][0]} ignores failed jobs")
    print(f"ok {name}: clean job passes; {len(results) - 1} corrupted or raising jobs fail")


def check_printed_metrics(name: str, trace: int, root: Path, spec: dict) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300, check=False,
    )
    expect(done.returncode == 0, f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {lines[:-1]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if not trace:
        for ungated in run.UNGATED:
            expect(any(line.startswith(f"{ungated} = ") for line in lines),
                   f"{name}: {ungated} not printed")
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(result['metrics']) ^ {m['name'] for m in wanted})}")
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        expect(got["unit"] == metric["unit"], f"{metric['name']}: unit {got['unit']}")
        pattern = rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])} \("
        expect(any(re.match(pattern, line) for line in lines),
               f"{name} trace={trace}: {metric['name']} not printed with its unit")
    print(f"ok {name} trace={trace}: {len(wanted)} metrics printed")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    try:
        for name in names:
            check_workload(name, root)
        for name in names:
            for trace in (0, 1):
                check_printed_metrics(name, trace, root, spec)
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
