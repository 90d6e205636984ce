"""The benchmark's workloads: inputs made from a seed, timed phases, checks.

Each workload is one round in a fresh process (cold engines, jobs=1):

* verify_suite -- suite.run_all(), the work of `hallalg verify --all`,
  then every criterion but bialgebra again with the engines warm.
* hall_numbers -- cold submodule tables for every class of fixed grades,
  a few Hall-polynomial fits, and seeded `hallalg hallnum` queries
  against a fresh --cache-dir, each replayed warm during the pass.
* classify -- `hallalg isoclasses` for K2, A2 and c2full plus the
  nilpotent Jordan brute engine, against a fresh --cache-dir, each
  command replayed warm (reading the cache only) during the pass.

build_inputs() turns (workload, seed) into plain data; each RUNNERS entry
runs the timed phases under a speed.Probe and then the checks, and
returns a Round whose times are in reference seconds (see speed.py).
"""

from __future__ import annotations

import functools
import gc
import io
import json
import random
import resource
import statistics
import time
from collections import defaultdict

import checks
import speed

# Warm replays of each CLI command, spread over the cold pass.
REPEATS = 15

# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

# Grades whose every class gets a cold submodule table (hall_numbers).
TABLE_GRADES = (
    [(1, 2, (n,)) for n in range(1, 7)]
    + [(1, 3, (n,)) for n in range(1, 7)]
    + [(2, 2, d) for d in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3))]
    + [(2, 3, d) for d in ((1, 1), (2, 1), (2, 2), (3, 2))]
    + [(3, 2, d) for d in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2))]
    + [(3, 3, d) for d in ((1, 1, 1), (2, 1, 1), (2, 2, 1))]
)

# Grades whose classes each get one seeded hallnum query.  Every class is
# queried once, so the cost of a query (one cold table) does not depend on
# the seed; only which M and N are asked for, the syntax and the format do.
QUERY_GRADES = ((1, 2, (3,)), (1, 2, (4,)), (1, 2, (5,)), (1, 3, (3,)), (1, 3, (4,)),
                (2, 2, (2, 1)), (2, 2, (2, 2)), (2, 3, (2, 1)), (3, 2, (2, 1, 1)),
                (3, 3, (1, 1, 1)))

# Partition-syntax queries that hit the key-canonicalisation fault in
# cli._parse_cyclic_class: an M or N with two distinct parts is looked up
# under a key the engine never produces.  They run on every seed.
KNOWN_FAULT_QUERIES = (((3, 2, 1), (2, 1), (2, 1)), ((3, 1), (2, 1), (1,)))

# Jordan-quiver triples (lambda, mu, nu) with |lambda| = 4 and F != 0, by
# the degree n(lambda) - n(mu) - n(nu) of their Hall polynomial.
POLY_POOL = {
    1: [((2, 1, 1), (1, 1), (1, 1)), ((2, 2), (2, 1), (1,)), ((2, 2), (1,), (2, 1)),
        ((3, 1), (3,), (1,)), ((3, 1), (1,), (3,))],
    2: [((2, 1, 1), (2, 1), (1,)), ((2, 1, 1), (1,), (2, 1)), ((2, 1, 1), (2,), (1, 1)),
        ((2, 1, 1), (1, 1), (2,))],
}
POLY_PER_DEGREE = 2
POLY_CHECK_Q = 5  # a prime above every sample q = 2, 3, 4 used for the fit

QUIVER_ARROWS = {"k2": ((0, 1), (0, 1)), "a2": ((0, 1),), "c2full": ((0, 1), (1, 0))}

# Heavy grades drive wall_s; the light ones (every grade of total
# dimension 1..3 for each quiver and q) are most of the commands, so the
# median latency is a light command's.
CLASSIFY_GRADES = sorted(
    {("k2", 2, d) for d in ((2, 2), (1, 3), (3, 1), (2, 3), (3, 2))}
    | {("k2", 3, d) for d in ((1, 3), (2, 2))}
    | {("a2", 2, (2, 2)), ("a2", 2, (3, 3)), ("a2", 3, (2, 2)), ("a2", 3, (2, 3)),
       ("a2", 4, (2, 3)), ("a2", 5, (2, 2))}
    | {("c2full", 2, d) for d in ((2, 2), (2, 3), (3, 2))}
    | {("c2full", 3, (2, 2))}
    | {(quiver, q, (a, t - a)) for quiver in QUIVER_ARROWS for q in (2, 3, 4, 5)
       for t in (1, 2, 3) for a in range(t + 1)}
)
JORDAN_BRUTE = [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)]


def _selector(r):
    return "c1" if r == 1 else f"cr:{r}"


def _hall_queries(rng):
    queries = []
    for r, q, d in QUERY_GRADES:
        for L in checks.multisegments(r, d):
            if (r, q) == (1, 2) and checks.key_partition(L) in [lam for lam, _, _ in
                                                             KNOWN_FAULT_QUERIES]:
                continue  # asked by a known-fault query; one query per class
            e = rng.choice([e for e in checks.sub_grades(d) if any(e) and e != d])
            rest = tuple(a - b for a, b in zip(d, e))
            M = rng.choice(checks.multisegments(r, rest))
            N = rng.choice(checks.multisegments(r, e))
            partition_syntax = (r == 1 and len(M) == 1 and len(N) == 1
                                and rng.random() < 0.5)
            queries.append({"r": r, "q": q, "L": L, "M": M, "N": N,
                            "partition": partition_syntax,
                            "format": rng.choice(("table", "json")), "known_fault": False})
    for lam, mu, nu in KNOWN_FAULT_QUERIES:
        queries.append({"r": 1, "q": 2, "L": checks.partition_key(lam),
                        "M": checks.partition_key(mu), "N": checks.partition_key(nu),
                        "partition": True, "format": "table", "known_fault": True})
    rng.shuffle(queries)
    for query in queries:
        if query["partition"]:
            render = lambda key: checks.render_partition(checks.key_partition(key))
        else:
            render = checks.render_multisegment
        query["argv"] = ["hallnum", "--quiver", _selector(query["r"]), "--q", str(query["q"]),
                         "--L", render(query["L"]), "--M", render(query["M"]),
                         "--N", render(query["N"]), "--format", query["format"]]
    return queries


def _interleave(rng, fixed, movable):
    """fixed in its own order, movable items at seeded places among them.

    Heavy operations keep one order on every seed: what ran before them
    changes their cost (allocator and cache state), so shuffling them
    would move wall_s with the seed."""
    keyed = [((i, 1, 0.0), item) for i, item in enumerate(fixed)]
    keyed += [((rng.randrange(len(fixed) + 1), 0, rng.random()), item) for item in movable]
    return [item for _, item in sorted(keyed, key=lambda kv: kv[0])]


def build_inputs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_suite":
        # run_all() takes no input; the seed picks the suite-built engine
        # data that is spot-checked after the run.
        return {
            "riedtmann": [(1, 2, (n,)) for n in sorted(rng.sample(range(2, 6), 2))]
                         + [(2, 2, d) for d in sorted(rng.sample(
                             [(a, b) for a in range(4) for b in range(4)
                              if 2 <= a + b <= 5], 3))],
            "mass": sorted(rng.sample([(a, b) for a in range(3) for b in range(3)
                                       if 1 <= a + b <= 4], 4)),
        }
    if workload == "hall_numbers":
        tables = [(r, q, d, L) for r, q, d in TABLE_GRADES for L in checks.multisegments(r, d)]
        polys = []
        for degree, pool in sorted(POLY_POOL.items()):
            for lam, mu, nu in rng.sample(pool, POLY_PER_DEGREE):
                polys.append({"lam": lam, "mu": mu, "nu": nu, "degree": degree})
        queries = _hall_queries(rng)
        # Queries are spread among the tables so that their latencies
        # sample the whole pass, not one stretch of it.
        order = _interleave(rng, [("table", i) for i in range(len(tables))],
                            [("poly", i) for i in range(len(polys))]
                            + [("query", i) for i in range(len(queries))])
        return {"tables": tables, "polys": polys, "queries": queries, "order": order}
    if workload == "classify":
        ops = [{"kind": "cli", "quiver": quiver, "q": q, "d": d,
                "format": rng.choice(("table", "json"))} for quiver, q, d in CLASSIFY_GRADES]
        ops += [{"kind": "jordan", "q": q, "d": (n,)} for q, n in JORDAN_BRUTE]
        for op in ops:
            op["light"] = sum(op["d"]) < (3 if op["kind"] == "jordan" else 4)
        ops = _interleave(rng, [op for op in ops if not op["light"]],
                          [op for op in ops if op["light"]])
        for op in ops:
            if op["kind"] == "cli":
                op["argv"] = ["isoclasses", "--quiver", op["quiver"], "--q", str(op["q"]),
                              "--d", ",".join(str(x) for x in op["d"]),
                              "--format", op["format"]]
        return {"ops": ops}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Round record
# ---------------------------------------------------------------------------


class Round:
    """What one round measured and what its checks found."""

    def __init__(self):
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.warm_s = 0.0
        self.query_ms = []
        self.criterion_s = {}
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def peak_point(self):
        """Record peak RSS now, after the timed phases and before the checks."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def op(self, ok, problem="", known_fault=False):
        """Count one operation; a wrong answer outside the known faults
        makes the round incorrect."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.problems.append(problem)


def _cli_call(cli, argv, cache_dir):
    out = io.StringIO()
    code = cli.main(argv + ["--cache-dir", cache_dir], out=out)
    return code, out.getvalue()


def _run_pass(steps, cli, cache_dir, rnd, tracer, probe):
    """Run the cold steps in order, replaying the CLI steps warm.

    steps is a list of (thunk, argv).  A step with an argv is a CLI
    command: it is replayed warm REPEATS times against the pass's cache
    directory, at evenly spaced points of the rest of the pass (the last
    ones after the final step), so that the replays sample the same
    stretch of time as the pass.

    Sets rnd.wall_s (the sum of the cold steps) and rnd.warm_s (one warm
    pass: the sum of each command's median replay time), both in reference
    seconds; returns the cold results and each step's cold latency in
    reference ms.
    """
    results, cold = [], []
    due = defaultdict(list)
    warm = defaultdict(list)
    gc.collect()
    if tracer:
        tracer.start()
    with probe:
        for i, (thunk, argv) in enumerate(steps):
            result, item = probe.timed(thunk)
            results.append(result)
            cold.append(item)
            if argv is not None:
                rest = len(steps) - 1 - i
                for j in range(REPEATS):
                    due[i + -(-(j + 1) * rest // REPEATS)].append(i)
            for c in due.pop(i, ()):
                argv = steps[c][1]
                output, item = probe.timed(_cli_call, cli, argv, cache_dir)
                warm[c].append(item)
                rnd.problems += checks.check_identical(
                    f"warm replay of {' '.join(argv)}", results[c], output)
    if tracer:
        tracer.stop()
    cold_s = [probe.scale(item) for item in cold]
    rnd.wall_s = sum(cold_s)
    rnd.raw_wall_s = sum(item.raw_s for item in cold)
    rnd.warm_s = sum(statistics.median(probe.scale(item) for item in items)
                     for items in warm.values())
    return results, [seconds * 1000 for seconds in cold_s]


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------


def _timer(record):
    """Wrapper factory for Patches.wrap: record(seconds) after every call."""
    def wrapper_of(fn):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(time.perf_counter() - start)
        return run
    return wrapper_of


def _item_timer(probe, items):
    """Wrapper factory for Patches.wrap: append a speed.Item per call."""
    def wrapper_of(fn):
        def run(*args, **kwargs):
            spent, start = probe.spent, time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                items.append(speed.Item(start, end, end - start - (probe.spent - spent)))
        return run
    return wrapper_of


def run_verify_suite(inputs, cache_dir, tracer, probe):
    """The queries of this workload are the suite's Hall products and
    coproducts (hallcore.multiply and comultiply calls) in the cold pass:
    tens of thousands of them, spread over the whole run.

    The warm pass runs every criterion but bialgebra again: bialgebra's
    warm cost (about 11 s) is recomputing Hall products, which the cold
    pass already measures, and leaving it out keeps a run short."""
    from hallalg import hallcore, suite
    from hallalg.repengine import get_brute_engine, get_nilpotent_engine, kronecker_quiver

    import layertrace

    rnd = Round()
    original = suite.CRITERIA
    timings = {}
    products = []
    patches = layertrace.Patches()
    for name in ("multiply", "comultiply"):
        patches.wrap(hallcore, name, _item_timer(probe, products))
    patches.wrap(suite, "CRITERIA", lambda criteria: tuple(
        (num, name, _timer(lambda dt, name=name: timings.__setitem__(name, dt))(fn))
        for num, name, fn in criteria))
    try:
        gc.collect()
        if tracer:
            tracer.start()
        with probe:
            cold, item = probe.timed(suite.run_all)
        if tracer:
            tracer.stop()
        patches.restore()
        rnd.wall_s = probe.scale(item)
        rnd.raw_wall_s = item.raw_s
        rnd.criterion_s = timings
        rnd.query_ms = [probe.scale(call) * 1000 for call in products]
        passes = [("cold", cold)]
        # A profiled cold pass takes over 100 s; the profiled round skips
        # the warm pass so that it stays within the run's time limit.
        if not tracer:
            gc.collect()
            with probe:
                warm, item = probe.timed(lambda: [(num, name, fn()) for num, name, fn
                                                  in original if name != "bialgebra"])
            rnd.warm_s = probe.scale(item)
            passes.append(("warm", warm))
    finally:
        patches.restore()
    rnd.peak_point()

    names = [name for _, name, _ in original]
    for label, results in passes:
        want = names if label == "cold" else [n for n in names if n != "bialgebra"]
        if [name for _, name, _ in results] != want:
            rnd.problems.append(f"{label} run_all returned criteria {[n for _, n, _ in results]}")
        for _, name, rep in results:
            rnd.op(rep.passed, f"{label} criterion {name} failed: {rep.detail}")

    # Spot checks on the engines the suite left warm.
    for r, q, d in inputs["riedtmann"]:
        engine = get_nilpotent_engine(r, q)
        tables = {c.key: engine.sub_table(c) for c in engine.classes(d)}
        rnd.problems += checks.check_riedtmann(r, q, d, tables)
    k2 = get_brute_engine(kronecker_quiver(), 2)
    for d in inputs["mass"]:
        rows = [(k2.aut_order(c), k2.orbit_size(c)) for c in k2.classes(d)]
        rnd.problems += checks.check_mass(f"K2 q=2 d={d}", 2, d, QUIVER_ARROWS["k2"], rows)
    return rnd


# ---------------------------------------------------------------------------
# hall_numbers
# ---------------------------------------------------------------------------


def _parse_hallnum(text, fmt):
    if fmt == "json":
        return json.loads(text)["value"]
    return int(text.strip())


def run_hall_numbers(inputs, cache_dir, tracer, probe):
    from hallalg import cli, repengine

    rnd = Round()
    engines = {}
    key = checks.partition_key

    def table(r, q, L):
        engine = engines.get((r, q))
        if engine is None:
            engine = engines[(r, q)] = repengine.NilpotentCyclicEngine(r, q)
        return engine.sub_table(engine.class_from_key(L))

    def poly(p):
        return repengine.hall_polynomial(1, key(p["lam"]), key(p["mu"]), key(p["nu"]),
                                         degree_bound=p["degree"])

    steps = []
    for kind, i in inputs["order"]:
        if kind == "table":
            r, q, _, L = inputs["tables"][i]
            steps.append((functools.partial(table, r, q, L), None))
        elif kind == "poly":
            steps.append((functools.partial(poly, inputs["polys"][i]), None))
        else:
            argv = inputs["queries"][i]["argv"]
            steps.append((functools.partial(_cli_call, cli, argv, cache_dir), argv))
    results, cold_ms = _run_pass(steps, cli, cache_dir, rnd, tracer, probe)
    rnd.peak_point()
    done = {step: res for step, res in zip(inputs["order"], results)}
    rnd.query_ms = [ms for (kind, _), ms in zip(inputs["order"], cold_ms) if kind == "query"]
    tables = {(r, q, L): done[("table", i)] for i, (r, q, _, L) in enumerate(inputs["tables"])}
    polys = [done[("poly", i)] for i in range(len(inputs["polys"]))]
    outputs = [done[("query", i)] for i in range(len(inputs["queries"]))]

    # Tables: one operation per class; grade-level identities on top.
    for r, q, d, L in inputs["tables"]:
        problems = checks.check_semisimple(r, q, L, tables[(r, q, L)])
        if r == 1:
            problems += checks.check_symmetry(q, L, tables[(r, q, L)])
        rnd.op(not problems, "; ".join(problems))
    for r, q, d in TABLE_GRADES:
        grade_tables = {L: tables[(r, q, L)] for L in checks.multisegments(r, d)}
        rnd.problems += checks.check_riedtmann(r, q, d, grade_tables)

    exact = {}

    def jordan_count(lam, q, mu, nu):
        if (lam, q) not in exact:
            exact[(lam, q)] = checks.jordan_hall_table(lam, q)
        return exact[(lam, q)].get((checks.partition_key(mu), checks.partition_key(nu)), 0)

    for p, poly in zip(inputs["polys"], polys):
        label = f"hall_polynomial {p['lam']}/{p['mu']}/{p['nu']}"
        problems = checks.check_hall_polynomial(
            label, poly.coeffs, p["degree"], POLY_CHECK_Q,
            jordan_count(p["lam"], POLY_CHECK_Q, p["mu"], p["nu"]))
        rnd.op(not problems, "; ".join(problems))

    for query, (code, text) in zip(inputs["queries"], outputs):
        r, q = query["r"], query["q"]
        if r == 1:
            want = jordan_count(checks.key_partition(query["L"]), q,
                                checks.key_partition(query["M"]), checks.key_partition(query["N"]))
        else:
            want = tables[(r, q, query["L"])].get((query["M"], query["N"]), 0)
        try:
            got = _parse_hallnum(text, query["format"]) if code == 0 else None
        except (ValueError, KeyError):
            got = None
        rnd.op(got == want, f"{' '.join(query['argv'])}: exit {code}, printed {text!r}, "
                            f"expected {want}", known_fault=query["known_fault"])
    return rnd


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _parse_isoclasses(text, fmt):
    """(aut, orbit_size) per class from `hallalg isoclasses` output."""
    if fmt == "json":
        return [(row["aut"], row["orbit_size"]) for row in json.loads(text)]
    lines = text.splitlines()
    if lines[0].split() != ["class", "aut", "orbit_size"]:
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [(int(line.split()[1]), int(line.split()[2])) for line in lines[1:]]


def run_classify(inputs, cache_dir, tracer, probe):
    from hallalg import cli
    from hallalg.repengine import get_brute_engine, jordan_quiver

    rnd = Round()

    def jordan(q, d):
        engine = get_brute_engine(jordan_quiver(), q, nilpotent=True)
        return [(engine.aut_order(c), engine.orbit_size(c)) for c in engine.classes(d)]

    steps = [(functools.partial(_cli_call, cli, op["argv"], cache_dir), op["argv"])
             if op["kind"] == "cli" else (functools.partial(jordan, op["q"], op["d"]), None)
             for op in inputs["ops"]]
    results, rnd.query_ms = _run_pass(steps, cli, cache_dir, rnd, tracer, probe)
    rnd.peak_point()

    for op, res in zip(inputs["ops"], results):
        label = f"{op.get('quiver', 'jordan-nil')} q={op['q']} d={op['d']}"
        if op["kind"] == "jordan":
            problems = checks.check_fine_herstein(label, op["q"], op["d"][0], res)
        else:
            code, text = res
            try:
                rows = _parse_isoclasses(text, op["format"]) if code == 0 else None
            except (ValueError, KeyError, IndexError):
                rows = None
            problems = ([f"{label}: exit {code}, output {text[:200]!r}"] if rows is None else
                        checks.check_mass(label, op["q"], op["d"],
                                          QUIVER_ARROWS[op["quiver"]], rows))
        rnd.op(not problems, "; ".join(problems))
    return rnd


RUNNERS = {"verify_suite": run_verify_suite, "hall_numbers": run_hall_numbers,
           "classify": run_classify}
