"""vpgbend benchmark: fixed workloads, end-to-end and per-layer metrics.

One run of one workload (the form the metrics contract in BENCHMARK.json is
written for; the last stdout line is the result object):

    python3 bench/run.py --workload check-sparse --seed 1 --seconds 20 --trace 0

Every workload in turn, printed as a table with units (`--trace 1` for the
per-layer metrics):

    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Repeat mode: N runs of one workload with seeds N0..N0+N-1, printing each
end-to-end metric's median, quartiles and spread against its bound:

    python3 bench/run.py --workload analyze --repeat 10 [--seed N0]

Each run starts the workload in a fresh single-threaded process
(`worker.py`) and, with `--trace 0`, four more processes that only set up, so
`setup_s` is a median of five.  Runs happen one at a time.  Times in the
end-to-end metrics are taken to a nominal machine speed by `probe.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s


class RunError(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _worker(argv, deadline: float) -> dict:
    """Run worker.py to completion; its result, with `setup_s` added."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(argv)} exceeded the run time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker {' '.join(argv)} failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["ready"] - started) * result["setup_scale"]
    return result


def single_run(spec: dict, workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    """One run: the contract's result object, plus the failures seen."""
    if not (ROOT / "src" / "vpgbend" / "__init__.py").is_file():
        raise RunError(f"no vpgbend package under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    main = _worker(argv + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    values = dict(main["metrics"])
    if not trace:
        setups = [main["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(argv + ["--setup-only"], deadline)["setup_s"])
        values["setup_s"] = statistics.median(setups)
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in names:
        if m["name"] not in values:
            raise RunError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {
        "correct": main["unexpected_failures"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "failures": main["failures"],
        "wall_s": statistics.median(main["wall_s"]),
    }


def _contract(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def _report_failures(workload: str, result: dict) -> None:
    for name, detail in result["failures"].items():
        print(f"{workload}: FAILED {name}: {detail.strip()}", file=sys.stderr)


def run_all(spec: dict, seed: int, seconds: float, trace: int, tiny: bool) -> int:
    status = 0
    for w in spec["workloads"]:
        result = single_run(spec, w["name"], seed, seconds, trace, tiny)
        _report_failures(w["name"], result)
        fail_frac = result["failed"] / result["attempted"]
        print(f"== {w['name']}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}  fail_frac={fail_frac:.6g} ratio  "
              f"pass wall time as measured={result['wall_s']:.6g} s")
        for name, m in result["metrics"].items():
            print(f"   {name:45s} {m['value']:>14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def run_repeat(spec: dict, workload: str, runs: int, seed: int, seconds: float, tiny: bool) -> int:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    values["wall_s"] = []  # as measured, for comparison with run_s; not judged
    for i in range(runs):
        result = single_run(spec, workload, seed + i, seconds, 0, tiny)
        _report_failures(workload, result)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        values["wall_s"].append(result["wall_s"])
        print(f"run {i + 1}/{runs} seed {seed + i}: "
              + "  ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    print(f"{'metric':14s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    summary = {}
    for m in spec["end_to_end"] + [{"name": "wall_s", "unit": "s", "bound": None}]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        summary[m["name"]] = {"values": vs, "median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = m["bound"]
        if bound is None:
            verdict, bound = "as measured, not judged", "-"
        else:
            verdict = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{m['name']:14s} {m['unit']:6s} {med:10.6g} {q1:10.6g} {q3:10.6g} {spread:8.4f} {bound:>6}  {verdict}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"repeat-{workload}-seed{seed}x{runs}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="vpgbend benchmark")
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--repeat", type=int, help="runs of --workload, one seed each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = ap.parse_args(argv)
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(spec, args.seed, args.seconds, args.trace, args.tiny)
        if args.repeat:
            return run_repeat(spec, args.workload, args.repeat, args.seed, args.seconds, args.tiny)
        result = single_run(spec, args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _report_failures(args.workload, result)
    print(json.dumps(_contract(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
