"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 child.py --src DIR --result FILE [--setup-only] [--trace]
       -- <ehpolicy command line>

Set-up ends when ``ehpolicy`` (with numpy, scipy and yaml) is imported and
the preset or YAML config of the command line is loaded; the result file
records that moment on the monotonic clock, which the parent shares. The
command then runs through ``ehpolicy.cli.main``, timed by wall clock,
user plus system CPU and peak resident set. With ``--trace`` the public
functions of ``core``, ``chain``, ``optimize`` and ``harness`` are rebound
where their callers look them up, and the spans are written with the result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


class Tracer:
    """In-memory spans: [name, parent index, start, end, attributes]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def span(self, name, fn, attributes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self._stack[-1] if self._stack else -1,
                      time.perf_counter(), None, {}]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if attributes is not None:
                record[4] = attributes(args, kwargs, result)
            return result
        return traced

    def count(self, name, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def install_tracing(tracer):
    """Rebind each traced function in every module that looks it up by name.

    Returns the original cached functions, whose ``cache_info()`` gives the
    number of builds.
    """
    from ehpolicy import chain, cli, core, harness, optimize

    cached = {"core.next_state_table": core.next_state_table,
              "chain.charge_matrix": chain.charge_matrix}
    table = tracer.span("core.next_state_table", core.next_state_table)
    core.next_state_table = chain.next_state_table = table
    matrix = tracer.span("chain.charge_matrix", chain.charge_matrix)
    chain.charge_matrix = optimize.charge_matrix = matrix
    chain.exact_occupation = tracer.count("chain.reducible_route", chain.exact_occupation)
    harness.evaluate_policy = tracer.span("chain.evaluate_policy", chain.evaluate_policy)
    harness.simulate = tracer.span(
        "chain.simulate", chain.simulate, lambda a, k, r: {"frames": r.frames})
    search = tracer.span(
        "optimize.search", optimize.search_partition_policy,
        lambda a, k, r: {"candidates": r.evaluated_count})
    harness.search_partition_policy = optimize.search_partition_policy = search
    # the two-stage search's own work counts as search time; its stages
    # are the spans above and report the candidates
    harness.refine_partition_search = tracer.span(
        "optimize.search", optimize.refine_partition_search)
    harness.solve_perfect_soc = tracer.span(
        "optimize.solve_perfect_soc", optimize.solve_perfect_soc)
    harness.upper_bound = tracer.span(
        "optimize.upper_bound", optimize.upper_bound,
        lambda a, k, r: {"model": repr(a[0] if a else k["battery"])})
    for runner in ("run_search", "run_sweep", "run_simulate"):
        setattr(cli, runner, tracer.span(
            "harness", getattr(harness, runner), lambda a, k, r: {"rows": len(r)}))
    return cached


def _config_of(cli_args):
    for flag in ("--preset", "--config"):
        if flag in cli_args:
            return flag, cli_args[cli_args.index(flag) + 1]
    raise SystemExit("the command line names neither --preset nor --config")


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import ehpolicy.cli
    from ehpolicy.config import ScenarioConfig
    from ehpolicy.presets import get_preset

    if not Path(ehpolicy.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ehpolicy was imported from outside {src}")
    flag, value = _config_of(cli_args)
    if flag == "--preset":
        get_preset(value)
    else:
        ScenarioConfig.load(value)
    result = {"ready": time.monotonic()}

    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        cached = install_tracing(tracer) if tracer else {}
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        exit_code = ehpolicy.cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["exit_code"] = exit_code
        if tracer:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
            result["builds"] = {name: fn.cache_info().misses for name, fn in cached.items()}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
