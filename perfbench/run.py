"""gkmcalc benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload session --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the program is imported from ``src/``.
Every set-up and every pass runs in a fresh interpreter (``child.py``), so
no pass inherits caches from another.

With ``--trace 0`` the run sets up eight times, then runs passes of the
workload until the next one would end after ``--seconds``, at least one,
then sets up eight times more; ``setup_s`` is the median of the sixteen
set-ups, taken on both sides of the passes so that a slow spell of the
machine does not fall on all of them.  Every other figure is taken per
pass and reported as the median over the passes; the latency percentiles
are taken over the commands, each command's latency being its median over
the passes.

With ``--trace 1`` the run makes one untraced pass and two traced passes.
The per-layer metrics come from the first traced pass; ``trace.overhead``
is its wall time over the untraced pass's.  The work counts (every
``*.calls``, ``thom.paths.count`` and
``symbolic.Polynomial.mul.term_pairs``) must be identical in the two
traced passes.

Every command's output is compared with ``perfbench/reference.json``; a
non-zero exit or a difference counts as failed, and the run then exits 1
after printing its result.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--self-check`` runs, for seeds 1 to 3, the commands on permutahedron:3
and complete:5 whose output does not depend on xi, and checks them against
the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS = 8  # before and again after the passes
DEADLINE_S = 170  # a run must end within 180 seconds
TRACE_DIR = Path(".perfbench") / "trace"
SELF_CHECK_SEEDS = (1, 2, 3)


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run child.py in its own process group and return its JSON result."""
    command = [sys.executable, str(HERE / "child.py"), *args]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    if out is None or proc.returncode != 0:
        # pool workers of a pass that did not finish belong to its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        reason = "out of time" if out is None else f"exit {proc.returncode}"
        raise BenchError(f"{' '.join(args)}: {reason}")
    return json.loads(out.splitlines()[-1])


def one_pass(workload: str, seed: int, deadline: float, trace: bool = False) -> dict:
    args = ["pass", "--workload", workload, "--seed", str(seed)]
    if trace:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
        TRACE_DIR.mkdir(parents=True)
        args += ["--trace-dir", str(TRACE_DIR)]
    return child(args, deadline)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# figures every pass reports, with their units
PASS_FIGURES = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def p80(values: list[float]) -> float:
    """80th percentile; with 65 commands, 13 lie beyond it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=5, method="inclusive")[3]


def setups(workload: str, seed: int, deadline: float) -> list[float]:
    return [
        child(["setup", "--workload", workload, "--seed", str(seed)], deadline)["setup_s"]
        for _ in range(SETUPS)
    ]


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[list[dict], dict]:
    setup_times = setups(workload, seed, deadline)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(one_pass(workload, seed, deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setup_times += setups(workload, seed, deadline)
    metrics = {
        name: metric(statistics.median(p[name] for p in passes), unit)
        for name, unit in PASS_FIGURES.items()
    }
    # each command's latency is its median over the passes, so one slow
    # sample of a command does not move the percentiles across commands
    per_command = [statistics.median(column) for column in zip(*(p["latencies"] for p in passes))]
    metrics["cmd_p50_s"] = metric(statistics.median(per_command), "s")
    metrics["cmd_p80_s"] = metric(p80(per_command), "s")
    metrics["setup_s"] = metric(statistics.median(setup_times), "s")
    return passes, metrics


EXACT = ("thom.paths.count", "symbolic.Polynomial.mul.term_pairs")


def exact_counts(layers: dict) -> dict:
    return {k: v["value"] for k, v in layers.items() if k.endswith(".calls") or k in EXACT}


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict]:
    plain = one_pass(workload, seed, deadline)
    first = one_pass(workload, seed, deadline, trace=True)
    second = one_pass(workload, seed, deadline, trace=True)
    one, two = exact_counts(first["layers"]), exact_counts(second["layers"])
    drift = sorted(k for k in one if one[k] != two[k])
    if drift:
        raise BenchError(f"counts differ between two traced passes: {drift}")
    metrics = dict(first["layers"])
    metrics["trace.overhead"] = metric(first["wall_s"] / plain["wall_s"], "ratio")
    return [plain, first, second], metrics


def self_check(deadline: float) -> int:
    failed = 0
    for seed in SELF_CHECK_SEEDS:
        result = one_pass("xi-check", seed, deadline)
        for line in result["failures"]:
            print(f"seed {seed}: {line}")
        failed += len(result["failures"])
        print(f"seed {seed}: {result['attempted']} xi-independent commands, "
              f"{len(result['failures'])} differ from the reference")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (Path("src") / "gkmcalc" / "__init__.py").is_file():
        print("perfbench: no src/gkmcalc here; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(deadline)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.trace:
            passes, metrics = measure_traced(args.workload, args.seed, deadline)
        else:
            passes, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failures = [line for p in passes for line in p["failures"]]
    for line in sorted(set(failures)):
        print(f"FAILED {line}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(f"error_rate {len(failures) / attempted} ratio over {attempted} commands "
          f"in {len(passes)} passes")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
