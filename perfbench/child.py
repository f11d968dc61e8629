"""One measurement in a fresh interpreter: a set-up or one pass of a workload.

    python3 perfbench/child.py setup --workload W --seed N
    python3 perfbench/child.py pass --workload W --seed N [--trace-dir DIR]

Run from the root of a checkout; gkmcalc is imported from ``src/`` there.
The last line of standard output is one JSON object with the measurement.

A pass runs the workload's commands one after another through
``gkmcalc.cli.main`` with standard output captured, and compares each
command's output with the reference before the next command starts.  With
``--trace-dir`` the tracer's wrappers are installed first and the
per-layer metrics derived from the spans are added to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def import_program():
    """Import gkmcalc from the checkout's src/ and nowhere else."""
    src = Path.cwd() / "src"
    if not (src / "gkmcalc" / "__init__.py").is_file():
        raise SystemExit(f"no gkmcalc package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import gkmcalc.cli

    if not Path(gkmcalc.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported gkmcalc from {gkmcalc.cli.__file__}, not from {src}")
    return gkmcalc.cli


def setup(workload: str, seed: int) -> dict:
    """Import time plus build_graph and polarize once per graph."""
    xi = workloads.seeded_xi(seed, workloads.graphs(workload))
    start = time.perf_counter()
    import_program()
    from gkmcalc.builders import build_graph
    from gkmcalc.graph import polarize

    for spec in workloads.graphs(workload):
        polarize(build_graph(spec), [int(value) for value in xi[spec].split(",")])
    return {"setup_s": time.perf_counter() - start}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(workload: str, seed: int, trace_dir) -> dict:
    reference = json.loads(REFERENCE.read_text())
    argvs = workloads.commands(workload, seed)
    cli = import_program()
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer(Path(trace_dir))
        tracer.install()
    failures = []
    latencies = []
    cpu_start = _cpu_seconds()
    pass_start = time.perf_counter()
    for run_id, argv in enumerate(argvs):
        if tracer is not None:
            tracer.run = run_id
        start = time.perf_counter()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception as exc:  # a crash counts as a failed command
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        key = workloads.reference_key(argv)
        if code != 0:
            failures.append(f"{key}: exit {code}")
        elif out.getvalue() != reference.get(key):
            failures.append(f"{key}: output differs from the reference")
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - pass_start
    cpu = _cpu_seconds() - cpu_start
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(own, children) / 1024,
        "latencies": latencies,
        "attempted": len(argvs),
        "failures": failures,
    }
    if tracer is not None:
        tracer.flush()
        result["layers"] = tracer.derive()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "pass"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("xi-check",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup(args.workload, args.seed)
    else:
        result = run_pass(args.workload, args.seed, args.trace_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
