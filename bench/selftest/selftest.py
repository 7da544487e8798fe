"""Self-test of the benchmark itself.

Run from the repository root:

    python3 bench/selftest/selftest.py

It checks that
1. every workload, run at a tiny size with --trace 0 and --trace 1, passes
   its output checks and emits exactly the metrics BENCHMARK.json names,
   with their units;
2. the output checks accept a good copy of every output file and reject a
   corrupted copy of it, including a reference IRF table perturbed in the
   8th significant digit;
3. run.py exits non-zero without printing a result in a directory that
   holds only BENCHMARK.json and bench/.
It writes only under .bench_run/selftest/ and exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(Path("src").resolve()))

import checks  # noqa: E402
import workloads  # noqa: E402

WORK = Path(".bench_run") / "selftest"
ENV = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        self.failures += not ok


def run_bench(workload, trace, cwd="."):
    argv = [sys.executable, str(Path("bench/run.py")), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emitted_metrics(t, spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                t.expect(False, f"{workload} trace {trace}: no JSON result\n{proc.stdout}{proc.stderr}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            t.expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                     f"{workload} trace {trace}: exit 0 and result keys")
            t.expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                     f"{workload} trace {trace}: outputs correct ({result['attempted']} commands)")
            t.expect(got == want, f"{workload} trace {trace}: emits every {key} metric with its unit")


def rewrite(path, edit):
    """Apply edit(rows) to the data rows of a CSV file in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


def scale(rows, row, col, factor):
    rows[row][col] = repr(float(rows[row][col]) * factor)


def swap_band(rows):
    rows[3][3], rows[3][4] = rows[3][4], rows[3][3]


def check_corruption(t):
    """Good outputs pass; each corrupted copy is rejected."""
    cases = {  # workload -> (output file, corruption, description)
        "panel_long": [
            ("series.csv", lambda r: scale(r, 5, 5, 1 + 1e-6), "between term off by 1e-6"),
            ("series.csv", lambda r: r.pop(), "last quarter missing"),
            ("growth.csv", lambda r: scale(r, 7, 3, 1 + 1e-6), "one growth rate off by 1e-6"),
        ],
        "irf_default": [
            ("irf_total.csv", swap_band, "lower and upper swapped"),
            ("irf_components.csv", lambda r: r.pop(), "last row missing"),
        ],
        "irf_control_long": [
            ("irf_components.csv", swap_band, "lower and upper swapped"),
            ("irf_components.csv", lambda r: r.__setitem__(2, r[2][:2] + ["nan"] + r[2][3:]),
             "non-finite point"),
        ],
    }
    for name, corruptions in cases.items():
        root = WORK / name
        shutil.rmtree(root, ignore_errors=True)
        workloads.write_inputs(name, 0, True, root / "inputs")
        workload = workloads.make(name, 0, True, root / "inputs")
        good = root / "good"
        by_file = {}
        for command in workload.commands:
            argv = [sys.executable, "-m", "wageineq.cli", *command.args, "--out", str(good)]
            subprocess.run(argv, env=ENV, check=True, stdout=subprocess.DEVNULL, timeout=170)
            for fname in {f for f, _, _ in corruptions}:
                if (good / fname).is_file():
                    by_file.setdefault(fname, command)
        for command in workload.commands:
            t.expect(command.check(good) == [], f"{name}: {command.args[0]} output passes its check")
        for i, (fname, corrupt, what) in enumerate(corruptions):
            bad = root / f"bad{i}"
            shutil.copytree(good, bad)
            rewrite(bad / fname, corrupt)
            errors = by_file[fname].check(bad)
            t.expect(bool(errors), f"{name}: {fname} with {what} is rejected: {errors[:1]}")

    # a changed RNG stream would move the bands far more than the 8th digit
    for name, fname, names in (
        ("irf_default", "irf_components.csv", workloads.COMPONENTS),
        ("irf_control_long", "irf_components.csv", workloads.COMPONENTS + ("indpro",)),
    ):
        ref = workloads.REFERENCE_DIR / name / "seed0" / fname
        copy = WORK / name / f"ref-{fname}"
        shutil.copyfile(ref, copy)
        t.expect(checks.check_irf(copy, names, workloads.HORIZON, ref) == [],
                 f"{name}: reference {fname} matches itself")
        rewrite(copy, lambda r: scale(r, 6, 2, 1 + 1e-7))
        errors = checks.check_irf(copy, names, workloads.HORIZON, ref)
        t.expect(bool(errors), f"{name}: point off by 1e-7 relative is rejected: {errors[:1]}")


def check_bare_directory(t):
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copyfile("BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("irf_default", 0, cwd=bare)
    t.expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
             f"bare directory: exit {proc.returncode}, no result printed")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    t = SelfTest()
    check_emitted_metrics(t, spec)
    check_corruption(t)
    check_bare_directory(t)
    print(f"{t.failures} failure(s)")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
