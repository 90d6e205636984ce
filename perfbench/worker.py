"""One benchmark round in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --tmp DIR
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Prints one JSON line: the round record (or only setup_s with --setup-only).
The checkout's src/ must be on PYTHONPATH.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import hallalg  # noqa: E402,F401  -- importing the program is part of set-up

import speed  # noqa: E402
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    inputs = workloads.build_inputs(args.workload, args.seed)
    raw_setup_s = time.perf_counter() - _START
    # Set-up lasts tens of ms, too short for the probe; the machine's
    # speed is taken straight after it instead.
    setup_s = raw_setup_s * speed.speed_now()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
    cache_dir = os.path.join(args.tmp, "cache")
    probe = speed.Probe(active=not args.trace)
    rnd = workloads.RUNNERS[args.workload](inputs, cache_dir, tracer, probe)
    factors = sorted(probe.factor)
    record = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        # the reference chunk's median time over the round: the machine's drift
        "ref_s": speed.NOMINAL_CHUNK_S / factors[len(factors) // 2] if factors else None,
        "speed_samples": len(factors),
        "wall_s": rnd.wall_s,
        "raw_wall_s": rnd.raw_wall_s,
        "warm_s": rnd.warm_s,
        "query_p50_ms": statistics.median(rnd.query_ms),
        "queries": len(rnd.query_ms),
        "criterion_s": rnd.criterion_s,
        "peak_rss_mb": rnd.peak_rss_mb,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "problems": rnd.problems,
        "hallalg": os.path.dirname(hallalg.__file__),
    }
    if tracer:
        record["trace"] = tracer.metrics(rnd.wall_s, rnd.criterion_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
