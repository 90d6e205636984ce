"""hallalg benchmark: one workload with cold engines, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify_suite, hall_numbers or classify (see README.md).  Each
round runs in a fresh interpreter (perfbench/worker.py) against the
checkout's src/, so engines and caches start cold.  Rounds repeat until
S seconds have passed, at least one; set-up is also sampled in separate
set-up-only interpreters.  With --trace 0 the last stdout line carries
the end-to-end metrics (medians over rounds), with times in reference
seconds (speed.py: seconds scaled by the machine's speed measured
during the same stretch of time); with --trace 1 the per-layer metrics
of one profiled round, in plain seconds.  A record of every run is kept
under perfbench/results/.  Exits 2 when the checkout has no hallalg
sources and 1 when a round cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402

WORKLOADS = ("verify_suite", "hall_numbers", "classify")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("query_p50_ms", "ms"), ("warm_s", "s"))
SETUP_SAMPLES = 10  # set-up-only interpreters before and again after the rounds
DEADLINE_S = 170.0


class RoundFailed(RuntimeError):
    pass


def run_worker(argv, env, timeout):
    """Run worker.py to its end and return its JSON record."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + argv,
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"worker {argv} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RoundFailed(f"worker {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "hallalg" / "__init__.py").is_file():
        print(f"perfbench: no hallalg sources under {src}", file=sys.stderr)
        return 2
    # Bytecode is cached under perfbench/.tmp, so set-up is import time
    # whether or not the caller's environment allows writing bytecode.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(HERE / ".tmp" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    rounds, setups = [], []

    def sample_setup():
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(run_worker(base + ["--setup-only"], env, remaining())["setup_s"])

    try:
        sample_setup()
        measured = time.monotonic()
        while True:
            tmp = HERE / ".tmp" / f"{os.getpid()}-{len(rounds)}"
            tmp.mkdir(parents=True, exist_ok=True)
            t = time.monotonic()
            try:
                rounds.append(run_worker(base + ["--trace", str(args.trace), "--tmp", str(tmp)],
                                         env, remaining()))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            last = time.monotonic() - t
            if (args.trace or time.monotonic() - measured >= args.seconds
                    or remaining() < 1.5 * last):
                break
        sample_setup()
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = [p for rnd in rounds for p in rnd["problems"]]
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if args.trace:
        units = {name: unit for name, unit, _ in layertrace.PER_LAYER}
        values = rounds[0]["trace"]
    else:
        setups += [rnd["setup_s"] for rnd in rounds]
        units = dict(END_TO_END)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "query_p50_ms": statistics.median(r["query_p50_ms"] for r in rounds),
            "warm_s": statistics.median(r["warm_s"] for r in rounds),
        }
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = {"args": vars(args), "setup_samples": setups, "rounds": rounds, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
