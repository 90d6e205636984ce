"""Command-line frontend: isoclass tables, Hall numbers and polynomials
(hallnum --symbolic is hallpoly), primitive-subspace bases and elements,
the verification suite, and Fourier checks.  Each mode of a command runs
through a suite._runner naming the flags it reads and their defaults: a
flag that is given is read, or refused with exit 2 before any engine work.

Exit codes: 0 success, 1 verification failure, 2 usage error (a request
rejected where it is parsed or checked against an engine cap),
3 any other error that escapes a command.  Reports are deterministic given
identical parameters; the class rows of brute-force grades and the Hall
numbers of nilpotent ones can be cached on disk, and warm runs reproduce
cold-run output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .fourier import gl_character_sum
from .gf import FieldSpec, gl_order
from .hallcore import primitive_subspace
from .partitions import parse_partition
from .primitives import (
    c_central, kron_p0, kron_pinf, kron_pK2,
    kronecker_tubes, p_cyclic, p_jordan, p_jordan_symbolic,
    tube_primitive, x_element,
)
from .repengine import (
    cyclic_quiver,
    a2_quiver,
    get_brute_engine,
    get_nilpotent_engine,
    hall_polynomial,
    is_regular_kronecker,
    kronecker_quiver,
    ms_canonical,
    ms_dim_vector,
    multisegment_str,
    parse_multisegment,
)
from .report import UsageError
from .suite import CHECK_RUNNERS, FOURIER_RUNNERS, _runner, run_all

CACHE_VERSION = f"hallalg-{__version__}-cache-2"
# 128 + SIGPIPE: the status a shell gives a writer whose reader went away
EXIT_BROKEN_PIPE = 141


# ---------------------------------------------------------------------------
# Quiver selectors and argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_selector(text: str):
    """Selector: c1 | cr:<r> | k2 | a2 | c2full."""
    text = text.strip().lower()
    if text == "c1":
        return ("nil", 1)
    if text.startswith("cr:"):
        try:
            r = int(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad cyclic rank in selector {text!r}")
        if r < 1:
            raise UsageError("cyclic rank must be >= 1")
        return ("nil", r)
    if text == "k2":
        return ("brute", kronecker_quiver())
    if text == "a2":
        return ("brute", a2_quiver())
    if text == "c2full":
        return ("brute", cyclic_quiver(2))
    raise UsageError(f"unknown quiver selector {text!r}")


def _parse_field_order(text: str) -> int:
    """argparse type of --q: a prime power."""
    try:
        return FieldSpec.from_order(int(text)).q
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a prime power")


def _parse_cache_dir(text: str) -> str:
    """argparse type of --cache-dir: a path that is or can be made a directory."""
    path = text
    while path and not os.path.isdir(path):
        if os.path.exists(path):
            raise argparse.ArgumentTypeError(f"{path!r} is not a directory")
        path = os.path.dirname(path)
    return text


def _parse_dimvec(text: str, nv: int):
    parts = text.replace("(", "").replace(")", "").split(",")
    try:
        d = tuple(int(x) for x in parts)
    except ValueError:
        raise UsageError(f"bad dimension vector {text!r}")
    if len(d) != nv or any(x < 0 for x in d):
        raise UsageError(f"dimension vector {text!r} does not fit the quiver")
    return d


def _parse_cyclic_class(text: str, r: int):
    """Partition form '(2,1)' (Jordan quiver), multisegment 'S1[2]+S2[1]',
    or '0' for the zero class; the key comes back canonical."""
    text = text.strip()
    if text == "0":
        return ()
    partition_syntax = text.startswith("(") or (text[:1].isdigit() and "[" not in text)
    if partition_syntax and r != 1:
        raise UsageError("partition class syntax is only valid for c1")
    try:
        if partition_syntax:
            lam = parse_partition(text)
            return ms_canonical(((0, part), mult) for part, mult in lam.exponential().items())
        return parse_multisegment(text, r)
    except ValueError as exc:
        raise UsageError(f"bad class {text!r}: {exc}") from exc


def _cyclic_triple(args):
    """The selector and the classes L, M, N of a hallnum or hallpoly
    command, whose quiver must be cyclic nilpotent."""
    selector = _parse_selector(args.quiver)
    if selector[0] != "nil":
        raise UsageError(f"{args.command} expects a cyclic nilpotent quiver (c1 or cr:<r>)")
    return (selector, *(_parse_cyclic_class(text, selector[1])
                        for text in (args.L, args.M, args.N)))


def _get_engine(selector, q0):
    kind, payload = selector
    if kind == "nil":
        return get_nilpotent_engine(payload, q0)
    return get_brute_engine(payload, q0)


# ---------------------------------------------------------------------------
# Disk cache (brute-force class rows, nilpotent Hall numbers)
# ---------------------------------------------------------------------------

def _load_cache(path, tag, q0, d, selector):
    """The payload cached at path, or None unless the file is readable, of
    this cache version, stored for this (quiver, q, grade), and its payload
    holds.  A brute-force file's payload is its class rows, which must pass
    _class_rows_hold.  A nilpotent file's is its Hall entries: non-negative
    ints under keys naming three classes of C_r, the first of this grade,
    and 0 wherever the grades of the other two do not add up to it."""
    kind, payload = selector
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("version") != CACHE_VERSION:
            return None
        if (data.get("quiver"), data.get("q"), data.get("grade")) != (tag, q0, list(d)):
            return None
        if kind == "brute":
            rows = data.get("classes")
            return rows if _class_rows_hold(rows, payload, q0, d) else None
        hall = data.get("hall")
        for key, value in hall.items():
            # unpacking raises ValueError unless the key names exactly three classes
            L, M, N = (ms_dim_vector(parse_multisegment(part, payload), payload)
                       for part in key.split("|"))
            if type(value) is not int or value < 0 or L != tuple(d):
                return None
            if value and tuple(map(sum, zip(M, N))) != L:
                return None
        return hall
    except (OSError, ValueError, AttributeError):
        return None


def _class_rows_hold(rows, quiver, q0, d) -> bool:
    """Whether rows are class rows as _compute_class_rows writes them for
    a brute-force quiver: a list of dicts with exactly the printed keys, a
    string "class" and positive int counts, each row satisfying
    orbit-stabilizer, aut * orbit_size = |G_d|, and the orbits partitioning
    the q^(sum over arrows of d_t d_h) points of the variety.  This is
    integer arithmetic alone: no field or engine grade is built."""
    if type(rows) is not list:
        return False
    group = 1  # |G_d| = prod_i |GL_{d_i}(F_q)|
    for n in d:
        group *= gl_order(q0, n)
    points = 0
    for row in rows:
        if type(row) is not dict or row.keys() != {"class", "aut", "orbit_size"}:
            return False
        name, aut, size = row["class"], row["aut"], row["orbit_size"]
        if type(name) is not str or type(aut) is not int or type(size) is not int:
            return False
        if aut < 1 or size < 1 or aut * size != group:
            return False
        points += size
    return points == q0 ** sum(d[t] * d[h] for t, h in quiver.arrows)


def _store_cache(path, data):
    """Write through a temp file of this writer's own, then rename it over
    path, so concurrent writers never interleave and readers see whole files."""
    import tempfile  # here, not at the top, so that runs which never write do not load it

    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _selector_tag(selector):
    kind, payload = selector
    return f"c{payload}nil" if kind == "nil" else payload.name.lower()


def _compute_class_rows(engine, d):
    rows = []
    for cls in engine.classes(d):
        row = {"class": cls.render(), "aut": engine.aut_order(cls)}
        if hasattr(engine, "orbit_size"):
            row["orbit_size"] = engine.orbit_size(cls)
        rows.append(row)
    return rows


def _cached_payload(selector, q0, d, cache_dir):
    """(path, payload) of the grade's cache file: payload is what
    _load_cache serves from it, or None on a miss; (None, None) without a
    cache dir."""
    if not cache_dir:
        return None, None
    tag = _selector_tag(selector)
    path = os.path.join(cache_dir, f"{tag}_q{q0}_d{'-'.join(map(str, d))}.json")
    return path, _load_cache(path, tag, q0, d, selector)


def _store_payload(path, selector, q0, d, payload):
    """Write a file holding one payload for the grade: a brute-force file
    its class rows ("classes"), a nilpotent file its Hall entries ("hall")."""
    name = "classes" if selector[0] == "brute" else "hall"
    _store_cache(path, {"version": CACHE_VERSION, "quiver": _selector_tag(selector),
                        "q": q0, "grade": list(d), name: payload})


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _emit_rows(rows, columns, fmt, out):
    if fmt == "json":
        out.write(json.dumps(rows, sort_keys=True) + "\n")
        return
    widths = [max(len(col), *(len(str(r.get(col, ""))) for r in rows)) if rows
              else len(col) for col in columns]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    out.write(header.rstrip() + "\n")
    for r in rows:
        line = "  ".join(str(r.get(col, "")).ljust(w)
                         for col, w in zip(columns, widths))
        out.write(line.rstrip() + "\n")


def _emit_report(rep, fmt, out):
    if fmt == "json":
        out.write(rep.to_json() + "\n")
    else:
        status = rep.status.upper()
        out.write(f"{rep.check:14s} {status:4s} {json.dumps(rep.params, sort_keys=True)}"
                  f" lhs={rep.lhs} rhs={rep.rhs}"
                  + (f" detail={rep.detail}" if rep.detail else "") + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _class_rows(selector, d, q, cache_dir=None):
    """The grade's class rows, served from and stored to cache_dir when one is given."""
    path, rows = _cached_payload(selector, q, d, cache_dir)
    if rows is None:
        rows = _compute_class_rows(_get_engine(selector, q), d)
        if path:
            _store_payload(path, selector, q, d, rows)
    return rows


# checking a nilpotent row would cost what computing it does, so none takes --cache-dir
CLASS_RUNNERS = {"nil": _runner(_class_rows, "q", q=2),
                 "brute": _runner(_class_rows, "q", "cache_dir", q=2, cache_dir=None)}


def cmd_isoclasses(args, out):
    selector = _parse_selector(args.quiver)
    nv = selector[1] if selector[0] == "nil" else selector[1].nv
    d = _parse_dimvec(args.d, nv)
    rows = CLASS_RUNNERS[selector[0]](f"isoclasses --quiver {args.quiver}",
                                      {"q": args.q, "cache_dir": args.cache_dir}, selector, d)
    columns = ["class", "aut"] + (["orbit_size"] if selector[0] == "brute" else [])
    _emit_rows(rows, columns, args.format, out)
    return 0


def _hall_number(selector, L, M, N, q, cache_dir):
    d = ms_dim_vector(L, selector[1])
    key = f"{multisegment_str(L)}|{multisegment_str(M)}|{multisegment_str(N)}"
    path, hall = _cached_payload(selector, q, d, cache_dir)
    hall = hall or {}
    value = hall.get(key)
    if value is None:
        engine = _get_engine(selector, q)
        value = engine.hall_number(engine.class_from_key(L), engine.class_from_key(M),
                                   engine.class_from_key(N))
        if path:
            hall[key] = value
            _store_payload(path, selector, q, d, hall)
    return {"q": q, "value": value}, str(value)


def _hall_polynomial(selector, L, M, N):
    poly = hall_polynomial(selector[1], L, M, N).render()
    return {"polynomial": poly}, poly


HALL_RUNNERS = {"hallnum": _runner(_hall_number, "q", "cache_dir", q=2, cache_dir=None),
                **dict.fromkeys(("hallnum --symbolic", "hallpoly"), _runner(_hall_polynomial))}


def cmd_hallnum(args, out):
    """hallnum, and hallpoly, which hallnum --symbolic runs: the value
    line, or with --format json an object naming L, M and N too."""
    selector, L, M, N = _cyclic_triple(args)
    mode = args.command + (" --symbolic" if getattr(args, "symbolic", None) else "")
    flags = {"q": args.q, "cache_dir": getattr(args, "cache_dir", None)}
    obj, line = HALL_RUNNERS[mode](mode, flags, selector, L, M, N)
    if args.format == "json":
        line = json.dumps({"L": multisegment_str(L), "M": multisegment_str(M),
                           "N": multisegment_str(N), **obj}, sort_keys=True)
    out.write(line + "\n")
    return 0


PRIMITIVE_RUNNER = _runner(_get_engine, "q", q=2)


def cmd_primitive(args, out):
    selector = _parse_selector(args.quiver)
    nv = selector[1] if selector[0] == "nil" else selector[1].nv
    d = _parse_dimvec(args.d, nv)
    engine = PRIMITIVE_RUNNER("primitive", {"q": args.q}, selector)
    predicate = None
    if args.reg:
        if selector[0] != "brute" or selector[1] != kronecker_quiver():
            raise UsageError("--reg is only meaningful for the k2 quiver")
        predicate = lambda c: is_regular_kronecker(engine, c)
    basis = primitive_subspace(engine, d, predicate=predicate)
    rows = [e.to_json_dict() for e in basis]
    if args.format == "json":
        out.write(json.dumps({"dim": len(basis), "basis": rows}) + "\n")
    else:
        out.write(f"dimension {len(basis)}\n")
        for e in basis:
            out.write(e.render() + "\n")
    return 0


def _printed(elt, fmt):
    return json.dumps(elt.to_json_dict()) if fmt == "json" else elt.render()


def _element(build, engine):
    """The cell of a family built as build(engine(q, *rank), n), where rank
    is the family's --r if it reads one."""
    return lambda n, q, fmt, *rank: _printed(build(engine(q, *rank), n), fmt)


def _cyclic_engine(q, r):
    if r < 2:
        raise UsageError("cyclic families need --r >= 2")
    return get_nilpotent_engine(r, q)


def _tube_element(m, deg, index, q, fmt):
    engine = get_brute_engine(kronecker_quiver(), q)
    tubes = [t for t in kronecker_tubes(engine, m * deg) if t.degree == deg]
    if not tubes or not 0 <= index < len(tubes):
        raise UsageError("no tube with that degree and index")
    return _printed(tube_primitive(engine, tubes[index], m), fmt)


def _jordan_symbolic(n, fmt):
    rows = [{"class": f"I{list(lam.parts)}", "coeff": poly.render()}
            for lam, poly in p_jordan_symbolic(n)]
    if fmt == "table":
        return " + ".join(f"({row['coeff']})*[{row['class']}]" for row in rows)
    return json.dumps({"family": "jordan_pn", "n": n, "terms": rows}, sort_keys=True)


# one runner per family, and one for jordan_pn --symbolic, whose --format defaults to json
ELEMENT_RUNNERS = {
    "jordan_pn": _runner(_element(p_jordan, lambda q: get_nilpotent_engine(1, q)),
                         "n", "q", "format", n=1, q=2, format="table"),
    "jordan_pn --symbolic": _runner(_jordan_symbolic, "n", "format", n=1, format="json"),
    **{family: _runner(_element(build, _cyclic_engine), "n", "q", "format", "r",
                       n=1, q=2, format="table", r=2)
       for family, build in (("cyclic_cn", c_central), ("cyclic_xn", x_element),
                             ("cyclic_pnr", p_cyclic))},
    "tube_pm": _runner(_tube_element, "m", "deg", "index", "q", "format",
                       m=1, deg=1, index=0, q=2, format="table"),
    **{family: _runner(_element(build, lambda q: get_brute_engine(kronecker_quiver(), q)),
                       "n", "q", "format", n=1, q=2, format="table")
       for family, build in (("kron_p0", kron_p0), ("kron_pinf", kron_pinf),
                             ("kron_pk2", kron_pK2))},
}


def cmd_element(args, out):
    """Construct one named primitive element and print it."""
    symbolic = args.symbolic and f"{args.family} --symbolic" in ELEMENT_RUNNERS
    mode = args.family + (" --symbolic" if symbolic else "")
    flags = {name: getattr(args, name) for name in ("q", "r", "n", "m", "deg", "index", "format")}
    flags["symbolic"] = None if symbolic else args.symbolic
    out.write(ELEMENT_RUNNERS[mode](f"element --family {mode}", flags) + "\n")
    return 0


def cmd_verify(args, out):
    fmt = args.format
    params = {"n": args.n, "r": args.r, "q": args.q}
    if args.all:
        if args.check:
            raise UsageError(f"verify --all takes no check name; got {args.check!r}")
        failed = 0
        for num, name, rep in _runner(run_all)("verify --all", params):
            if fmt == "json":
                out.write(json.dumps({"criterion": num, **rep.to_dict()},
                                     sort_keys=True) + "\n")
            else:
                out.write(f"criterion {num:2d} [{name}]: "
                          f"{'PASS' if rep.passed else 'FAIL'} ({rep.elapsed_ms} ms)"
                          + (f" {rep.detail}" if rep.detail else "") + "\n")
            if not rep.passed:
                failed += 1
        return 1 if failed else 0
    if not args.check:
        raise UsageError("verify needs a check name or --all")
    runner = CHECK_RUNNERS.get(args.check)
    if runner is None:
        known = ", ".join(sorted(CHECK_RUNNERS))
        raise UsageError(f"unknown check {args.check!r}; known checks: {known}")
    rep = runner(args.check, params)
    _emit_report(rep, fmt, out)
    return 0 if rep.passed else 1


def _glsum(fmt, n, q):
    value = gl_character_sum(n, q).render()
    return json.dumps({"n": n, "q": q, "value": value}) if fmt == "json" else value


# the one fourier check that prints a value, not a report
GLSUM_RUNNER = _runner(_glsum, "n", "q", n=1, q=2)


def cmd_fourier(args, out):
    params = {"n": args.n, "q": args.q, "pair": args.pair}
    if args.check == "glsum":
        out.write(GLSUM_RUNNER("glsum", params, args.format) + "\n")
        return 0
    rep = FOURIER_RUNNERS[args.check](args.check, params)
    _emit_report(rep, args.format, out)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    """The command-line parser.  Each subcommand's fn default is the name of
    its cmd_* function, which main looks up only when the command runs."""
    p = argparse.ArgumentParser(
        prog="hallalg",
        description="Exact Hall-algebra computations for cyclic and Kronecker "
                    "quivers over finite fields")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cache=False):
        sp.add_argument("--quiver", default="c1",
                        help="c1 | cr:<r> | k2 | a2 | c2full")
        sp.add_argument("--q", type=_parse_field_order, default=None,
                        help="prime power field size")
        if cache:
            sp.add_argument("--cache-dir", type=_parse_cache_dir, default=None)
        sp.add_argument("--format", choices=("table", "json"), default="table")

    sp = sub.add_parser("isoclasses", help="list isoclasses at a dimension vector")
    common(sp, cache=True)
    sp.add_argument("--d", required=True, help="dimension vector, e.g. 1,1")
    sp.set_defaults(fn="cmd_isoclasses")

    sp = sub.add_parser("hallnum", help="one exact Hall number")
    common(sp, cache=True)
    sp.add_argument("--L", required=True)
    sp.add_argument("--M", required=True)
    sp.add_argument("--N", required=True)
    sp.add_argument("--symbolic", action="store_true", default=None,
                    help="interpolate the Hall polynomial instead")
    sp.set_defaults(fn="cmd_hallnum")

    sp = sub.add_parser("hallpoly", help="Hall polynomial by interpolation")
    common(sp)
    sp.add_argument("--L", required=True)
    sp.add_argument("--M", required=True)
    sp.add_argument("--N", required=True)
    sp.set_defaults(fn="cmd_hallnum")

    sp = sub.add_parser("primitive", help="basis of the primitive subspace")
    common(sp)
    sp.add_argument("--d", required=True)
    sp.add_argument("--reg", action="store_true",
                    help="restrict to regular classes (k2 only)")
    sp.set_defaults(fn="cmd_primitive")

    sp = sub.add_parser("element", help="construct one named primitive element")
    sp.add_argument("--family", required=True,
                    choices=[mode for mode in ELEMENT_RUNNERS if " " not in mode])
    sp.add_argument("--q", type=_parse_field_order, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--deg", type=int, default=None)
    sp.add_argument("--index", type=int, default=None)
    sp.add_argument("--symbolic", action="store_true", default=None)
    sp.add_argument("--format", choices=("table", "json"), default=None)
    sp.set_defaults(fn="cmd_element")

    sp = sub.add_parser("verify", help="run verification checks")
    sp.add_argument("check", nargs="?", default=None)
    sp.add_argument("--all", action="store_true", help="run the full suite")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--q", type=_parse_field_order, default=None)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(fn="cmd_verify")

    sp = sub.add_parser("fourier", help="Fourier-transform checks")
    sp.add_argument("--check", default="a2", choices=(*FOURIER_RUNNERS, "glsum"))
    sp.add_argument("--pair", default=None, choices=("a2", "k2c2"))
    sp.add_argument("--q", type=_parse_field_order, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(fn="cmd_fourier")

    return p


_PARSER = None


def _parser():
    """The argument parser, built on the first call and reused after."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None, out=None):
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    try:
        code = globals()[args.fn](args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point stdout
        # at devnull so the flush at interpreter shutdown cannot raise
        # again, and exit as a shell reports a process ended by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only a faulting run pays for the import

        traceback.print_exc(file=sys.stderr)
        print(f"internal inconsistency: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
