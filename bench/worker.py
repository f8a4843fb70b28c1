"""One workload in a fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--setup-only]

The process imports vpgbend from `src/` of the checkout it lives in, builds the
workload's inputs, then runs passes over the operation list in a closed loop
(each operation starts when the previous one returns) until `--seconds` have
passed.  With `--trace 1` the passes alternate untraced and traced.

Untraced passes run under the speed probe (`probe.py`); their times are
reported both as measured (`wall_s`) and at the probe's nominal machine speed
(`run_s`).  It prints one JSON object; `ready` is the CLOCK_MONOTONIC time at
which setup finished, so the parent can measure set-up time from the moment
it started the process, and `setup_scale` takes that time to nominal speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedProbe, setup_scale

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _import_program():
    if not (SRC / "vpgbend" / "__init__.py").is_file():
        sys.exit(f"error: no vpgbend package under {SRC}")
    sys.path.insert(0, str(SRC))
    import vpgbend
    import vpgbend.cli  # noqa: F401  (the CLI module is a traced layer)

    if Path(vpgbend.__file__).resolve().parent != SRC / "vpgbend":
        sys.exit(f"error: vpgbend imported from {vpgbend.__file__}, not {SRC}")


def run_pass(ops, stats, tracer=None, probe=None) -> float:
    """Run every operation once; return the summed time of the operations,
    less the time the probe spent inside them.

    Known-answer checks run after each operation, outside its timed region.
    """
    from workloads import KNOWN_DEFECTS, Verdict

    elapsed = 0.0
    for op in ops:
        error = None
        busy = probe.busy if probe else 0.0
        start = time.perf_counter()
        try:
            result = tracer.run_op(op.name, op.run) if tracer else op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed += time.perf_counter() - start - ((probe.busy - busy) if probe else 0.0)
        if error is None:
            try:
                verdict = op.check(result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is not None:
            verdict = Verdict(ok=False, decided=False, detail=error)
        stats["attempted"] += 1
        stats["decided"] += verdict.decided
        if not verdict.ok:
            stats["failed"] += 1
            if op.name not in KNOWN_DEFECTS:
                stats["unexpected"] += 1
            stats["failures"].setdefault(op.name, verdict.detail)
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import BUILDERS

    work = BENCH / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = BUILDERS[args.workload](args.seed, work, args.tiny)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        setup = {"ready": ready, "setup_scale": setup_scale()}
        report = setup if args.setup_only else {**measure(workload, args), **setup}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(workload, args) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    stats = {"attempted": 0, "failed": 0, "unexpected": 0, "decided": 0, "failures": {}}
    untraced, scaled, traced, layer_runs = [], [], [], []
    probe = SpeedProbe()
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer and len(untraced) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(workload.ops, stats, tracer=tracer))
            finally:
                tracer.uninstall()
            layer_runs.append((tracer.metrics(), list(tracer.spans)))
        else:
            with probe:
                untraced.append(run_pass(workload.ops, stats, probe=probe))
            scaled.append(untraced[-1] * probe.scale())
        if time.perf_counter() >= deadline and (not tracer or traced):
            break

    report = {
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "unexpected_failures": stats["unexpected"],
        "failures": stats["failures"],
        "wall_s": untraced,
        "metrics": {
            "run_s": statistics.median(scaled),
            "ok_frac": 1 - stats["failed"] / stats["attempted"],
            "decided_frac": stats["decided"] / stats["attempted"],
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if tracer:
        layers = {name: statistics.median(m[name] for m, _ in layer_runs) for name in layer_runs[0][0]}
        layers["bench.wall_s"] = statistics.median(untraced)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        report["metrics"].update(layers)
        write_spans(workload, args, layer_runs[-1][1])
    return report


def write_spans(workload, args, spans) -> None:
    """Spans of the last traced pass, one record per span, op names by op id."""
    path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    fields = ("op", "span", "parent", "name", "caller", "start", "end", "leaf_calls")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "ops": {i: op.name for i, op in enumerate(workload.ops, start=1)},
            "fields": fields,
            "spans": spans,
        }, fh)


if __name__ == "__main__":
    sys.exit(main())
