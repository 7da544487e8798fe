"""Regenerate the reference IRF tables the benchmark compares against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/make_reference.py [SEED ...]      # default: seeds 0..10

For each irf workload and seed it writes the inputs, runs the workload's
command once and copies the IRF CSVs to bench/reference/<workload>/seed<N>/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def main(argv):
    sys.path.insert(0, str(Path("src").resolve()))
    import workloads

    seeds = [int(s) for s in argv] or list(range(11))
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    work = Path(".bench_run") / "reference"
    for name in ("irf_default", "irf_control_long"):
        for seed in seeds:
            in_dir, out_dir = work / "inputs", work / "out"
            shutil.rmtree(work, ignore_errors=True)
            workloads.write_inputs(name, seed, False, in_dir)
            (command,) = workloads.make(name, seed, False, in_dir).commands
            argv = [sys.executable, "-m", "wageineq.cli", *command.args, "--out", str(out_dir)]
            subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
            dest = workloads.REFERENCE_DIR / name / f"seed{seed}"
            dest.mkdir(parents=True, exist_ok=True)
            for csv_path in sorted(out_dir.glob("irf_*.csv")):
                shutil.copyfile(csv_path, dest / csv_path.name)
            errors = command.check(out_dir)
            if errors:
                raise SystemExit(f"{name} seed {seed}: {errors}")
            print(f"{name} seed {seed}: {', '.join(p.name for p in sorted(dest.iterdir()))}")


if __name__ == "__main__":
    main(sys.argv[1:])
