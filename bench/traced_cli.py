"""Run the wageineq CLI with spans recorded around each layer's public functions.

Usage: python3 bench/traced_cli.py TRACE_JSON TRACE_ID CLI_ARGS...

The package source is not touched: each function is replaced, in the
module its caller looks it up in, by a wrapper that records a span
[name, parent index, start, end]. Spans stay in memory and are written to
TRACE_JSON, with the time taken to import ``wageineq.cli``, when the CLI
exits. Run with ``src`` on PYTHONPATH.
"""

import functools
import json
import sys
import time

# (module the caller looks the name up in, attribute). The span is named
# after the module that defines the function: theil.decompose is looked up
# in panel by compute_series, varx.estimate in varx by bootstrap_bands and
# through ``vx.`` by cli.
TRACED = (
    ("cli", "run_decompose"),
    ("cli", "run_growth"),
    ("cli", "run_irf"),
    ("panel", "parse_wage_csv"),
    ("panel", "parse_shock_csv"),
    ("panel", "compute_series"),
    ("panel", "decompose"),
    ("panel", "growth_rates"),
    ("panel", "write_series_csv"),
    ("panel", "write_growth_csv"),
    ("theil", "theil_index"),
    ("varx", "build_design"),
    ("varx", "estimate"),
    ("varx", "dynamic_multipliers"),
    ("varx", "bootstrap_bands"),
    ("varx", "write_irf_csv"),
)


class Recorder:
    """In-memory span store; spans are identified by their list index."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, module, attr):
        fn = getattr(module, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, time.perf_counter(), None]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_.pop()

        setattr(module, attr, traced)


def main(argv):
    trace_path, trace_id, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    from wageineq import cli, panel, theil, varx

    import_s = time.perf_counter() - start
    modules = {"cli": cli, "panel": panel, "theil": theil, "varx": varx}
    recorder = Recorder()
    for module, attr in TRACED:
        recorder.wrap(modules[module], attr)
    try:
        cli.main(args=cli_args, prog_name="wageineq")
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": trace_id, "import_s": import_s, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
