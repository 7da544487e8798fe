"""wageineq benchmark: the real CLI in fresh processes, checked and timed.

Run from the repository root:

    python3 bench/run.py --workload irf_default --seed 0 --seconds 20 --trace 0

Each iteration runs the workload's command(s) as ``python -m wageineq.cli``
child processes with ``src`` on PYTHONPATH, one after another (a closed
loop with one client), and checks every output. Iterations repeat while
the next one is expected to end within --seconds. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced iterations with iterations under bench/traced_cli.py
and reports the per-layer metrics plus the tracing overhead. The last line
of standard output is the JSON result; the lines before it are a readable
report, also saved with the machine description under .bench_run/results/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s", "setup_s": "s"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s whatever the program does
SETUP_BATCH_S = 0.1  # set-up is timed in a batch this long before every round


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=0, help="workload seed; 0 = the fixtures' defaults")
    ap.add_argument("--seconds", type=float, default=20.0, help="how long to keep starting iterations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every workload (self-test only)")
    return ap.parse_args(argv)


def machine_info():
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        info["blas"] = "unknown"
    return info


def spawn(argv, env, log_path, timeout):
    """Run one child to completion; return (exit code or None, wall s, cpu s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return code, wall, cpu


class Runner:
    """Runs iterations of one workload and counts attempted and failed commands."""

    def __init__(self, workload, work_dir, deadline):
        self.workload = workload
        self.out_dir = work_dir / "out"
        self.log_dir = work_dir / "logs"
        self.trace_dir = work_dir / "traces"
        for d in (self.log_dir, self.trace_dir):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.iterations = 0

    def warm_up(self):
        """Import the package once so .pyc files and the file cache are ready."""
        argv = [sys.executable, "-c", "import wageineq.cli"]
        code, _, _ = spawn(argv, self.env, self.log_dir / "warm_up.log", timeout=60)
        if code != 0:
            raise SystemExit(f"error: cannot import wageineq.cli, see {self.log_dir / 'warm_up.log'}")

    def iteration(self, traced):
        """Run every command once; return (wall s, cpu s, traces or None)."""
        self.iterations += 1
        wall = cpu = 0.0
        traces = [] if traced else None
        for i, command in enumerate(self.workload.commands):
            tag = f"{self.iterations:03d}-{i}{'-traced' if traced else ''}"
            shutil.rmtree(self.out_dir, ignore_errors=True)
            args = [*command.args, "--out", str(self.out_dir)]
            if traced:
                trace_path = self.trace_dir / f"{tag}.json"
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), tag, *args]
            else:
                argv = [sys.executable, "-m", "wageineq.cli", *args]
            timeout = max(1.0, self.deadline - time.perf_counter())
            code, w, c = spawn(argv, self.env, self.log_dir / f"{tag}.log", timeout)
            wall, cpu = wall + w, cpu + c
            if code != 0:
                errors = [f"{command.args[0]} exited with {code}, see {self.log_dir / (tag + '.log')}"]
            else:
                errors = command.check(self.out_dir)
            if traced and code == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors.extend(errors)
        return wall, cpu, traces


def keep_going(started, seconds, rounds, deadline):
    """Start another round only if it should end within --seconds and the deadline."""
    if rounds == 0:
        return True
    now = time.perf_counter()
    per_round = (now - started) / rounds
    return now - started + per_round <= seconds and now + per_round < deadline


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def time_setup(write_inputs, times):
    """Write the inputs repeatedly for SETUP_BATCH_S, appending each time taken.

    Batches run before every round, so the reported median samples the
    same stretch of host time as the rounds themselves.
    """
    batch_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        write_inputs()
        times.append(time.perf_counter() - start)
        if start - batch_start >= SETUP_BATCH_S:
            return


def main(argv=None):
    run_start = time.perf_counter()
    if not Path("src/wageineq/cli.py").is_file():
        print("error: run from the repository root; src/wageineq/cli.py not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import layers
    import workloads

    args = parse_args(argv, workloads.NAMES)
    report = []

    def say(line=""):
        print(line)
        report.append(line)

    load_before = os.getloadavg()
    env = machine_info()
    work_dir = Path(".bench_run") / args.workload
    in_dir = work_dir / "inputs"
    setup_times = []

    def setup():
        time_setup(lambda: workloads.write_inputs(args.workload, args.seed, args.tiny, in_dir), setup_times)

    setup()
    workload = workloads.make(args.workload, args.seed, args.tiny, in_dir)
    deadline = run_start + RUN_LIMIT_S
    runner = Runner(workload, work_dir, deadline)
    runner.warm_up()

    say(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    say(f"closed loop, 1 client, fresh process per command: {' ; '.join(c.args[0] for c in workload.commands)}")
    walls, cpus, traced_walls, per_iteration, all_traces = [], [], [], [], []
    started = time.perf_counter()
    while keep_going(started, args.seconds, len(walls), deadline):
        if walls:
            setup()
        wall, cpu, _ = runner.iteration(traced=False)
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            wall, _, traces = runner.iteration(traced=True)
            traced_walls.append(wall)
            if len(traces) == len(workload.commands):
                per_iteration.append(layers.iteration_metrics(traces, workload))
                all_traces.extend(traces)

    if args.trace:
        if not per_iteration:
            raise SystemExit("error: no traced iteration succeeded")
        metrics = {
            name: statistics.median(m[name] for m in per_iteration) for name in layers.METRICS
            if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced_walls, walls))
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        say(f"per-layer metrics, median of {len(per_iteration)} traced iterations:")
        for name in layers.METRICS:
            say(f"  {name:40s} {metrics[name]:14.6g} {units[name]}")
        say(f"self time by span, mean per traced iteration (untraced wall {statistics.median(walls):.3f} s):")
        say(f"  {'span':32s} {'calls':>8s} {'total s':>10s} {'self s':>10s}")
        n = len(per_iteration)
        for name, calls, total, self_s in layers.self_time_ranking(all_traces):
            say(f"  {name:32s} {calls / n:8.0f} {total / n:10.4f} {self_s / n:10.4f}")
    else:
        units = E2E_UNITS
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # Times are totals over the run divided by its iterations: the host
        # alternates fast and slow phases lasting seconds, so iteration times
        # are bimodal and their median jumps between the modes from run to run.
        metrics = {
            "wall_s": statistics.fmean(walls),
            "cpu_s": statistics.fmean(cpus),
            "peak_rss_mb": peak_kb / 1024.0,
            "work_per_s": workload.work * len(walls) / sum(walls),
            "setup_s": statistics.median(setup_times),
        }
        for name, values in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup_times)):
            q1, q2, q3 = quartiles(values)
            say(f"  {name:12s} mean {statistics.fmean(values):.4f} s  median {q2:.4f}  "
                f"quartiles {q1:.4f} .. {q3:.4f}  runs {len(values)}")
        say(f"  {'peak_rss_mb':12s} {metrics['peak_rss_mb']:.1f} MB (largest child)")
        say(f"  {'work_per_s':12s} {metrics['work_per_s']:.1f} {workload.work_unit}/s "
            f"({workload.work} per iteration, {workload.work * len(walls)} in {sum(walls):.2f} s)")
    failed_frac = runner.failed / max(runner.attempted, 1)
    say(f"commands attempted {runner.attempted}, failed {runner.failed} (failed_frac {failed_frac:.3f})")
    for err in runner.errors[:10]:
        say(f"  FAILED: {err}")
    env["loadavg_before"], env["loadavg_after"] = load_before, os.getloadavg()
    say(f"machine: {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results_dir = Path(".bench_run") / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    saved = {"args": vars(args), "machine": env, "report": report, "result": result,
             "wall_s": walls, "cpu_s": cpus, "setup_s": setup_times, "traced_wall_s": traced_walls}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (results_dir / name).write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
