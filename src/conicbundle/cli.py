"""Command-line front end: JSON in, verdict JSON out.

Exit codes: 0 = yes/success, 1 = no, 2 = usage or data error.  Output is
canonical (sorted keys, fixed indentation), so identical input bytes produce
identical output bytes.  Every yes-verdict carries a witness and every
no-verdict a machine-readable reason code.  A data error writes one JSON
object to stderr whose "error" is "malformed-json", "schema" (with the
"field" path), the name of a library error, or "internal".
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from contextlib import suppress
from functools import partial
from itertools import islice
from .errors import ConicBundleError, InvalidModel, ParseError, SchemaError


class _OnFirstUse:
    """A global that imports its module on first read and takes its place."""

    def __init__(self, alias: str, name: str):
        self._alias, self._name = alias, name

    def __getattr__(self, attr):
        module = importlib.import_module(self._name, __package__)
        globals()[self._alias] = module
        return getattr(module, attr)


if __name__ == "__main__":
    # A CLI process loads only the layers its subcommand reads.  Imported, the
    # module binds every layer now: it keeps them when a caller purges and
    # re-imports the package, and perfbench's tracer finds them all loaded.
    cm, dp, lat, pl, pj, poly, tw, random = (_OnFirstUse(alias, name) for alias, name in (
        ("cm", ".conic_model"), ("dp", ".delpezzo"), ("lat", ".lattice"), ("pl", ".planner"),
        ("pj", ".projline"), ("poly", ".polynomial"), ("tw", ".twist"), ("random", "random")))
else:
    import random
    from . import conic_model as cm, delpezzo as dp, lattice as lat
    from . import planner as pl, projline as pj, polynomial as poly, twist as tw


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- request decoding: the one reader of request JSON.  Each decoder takes
# (value, path) and raises SchemaError naming the full path of the bad value,
# such as model1.marks[0].y.  The library constructors check the invariants.


class _LongInt:
    """A JSON integer literal past sys.get_int_max_str_digits(): no decoder accepts it."""

    def __repr__(self):
        return "<integer literal past the digit limit>"

    @staticmethod
    def parse(text: str):
        try:
            return int(text)
        except ValueError:
            return _LongInt()


_REPEATED = object()  # the value of a key that a JSON object repeats: _field rejects it


def _object(pairs: list) -> dict:
    obj, seen = dict(pairs), set()
    if len(obj) < len(pairs):
        obj.update((key, _REPEATED) for key, _ in pairs if key in seen or seen.add(key))
    return obj


def _int(value, path: str) -> int:
    # bool is a subclass of int, but true is not a number
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(path, "integer literal past the digit limit"
                          if isinstance(value, _LongInt) else "expected a JSON integer")
    return value


def _int_token(value, path: str) -> int:
    # a rational token without denominator: ASCII digits, no "_" or "+"
    return _rat(value, path, partial(pj.token_ratio, integer=True))[0]


def _rat(value, path: str, parse=None):
    """A token read by parse: a rational by default, or a P^1 or integer token."""
    try:
        return (parse or pj.parse_rat)(value)
    except ParseError as exc:
        raise SchemaError(path, str(exc)) from None


def _p1(value, path: str) -> pj.ProjPoint:
    return _rat(value, path, pj.ProjPoint.from_token)


def _list_of(decode, length=None):
    """The decoder of a JSON list of values read by decode, as a tuple."""
    def decode_list(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise SchemaError(path, "expected a list")
        if length is not None and len(value) != length:
            raise SchemaError(path, f"expected {length} entries, got {len(value)}")
        return tuple(decode(v, f"{path}[{i}]") for i, v in enumerate(value))
    return decode_list


def _field(obj, path: str, key: str, decode, default=None):
    """obj[key] read by decode at path.key; an absent key gives default, or
    is an error when there is none."""
    sub = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        # a request that is not an object is reported at its first field
        raise SchemaError(path or sub, "expected an object" if path
                          else "the request is not a JSON object")
    if key not in obj:
        if default is None:
            raise SchemaError(sub, "missing required field")
        return default
    if obj[key] is _REPEATED:
        raise SchemaError(sub, "duplicate key")
    return decode(obj[key], sub)


_rats = _list_of(_rat)


def _model(value, path: str) -> cm.ConicModel:
    return cm.ConicModel(_field(value, path, "roots", _rats))


def _surf_point(value, path: str) -> cm.SurfPoint:
    return cm.SurfPoint(*(_field(value, path, k, _rat) for k in "xyz"))


def _marked(value, path: str) -> cm.MarkedModel:
    return cm.MarkedModel(_model(value, path),
                          _field(value, path, "marks", _list_of(_surf_point), ()))


def _config(value, path: str) -> pj.IntervalConfig:
    arcs = _list_of(_list_of(_p1, 2))(value, path)
    return pj.IntervalConfig(tuple(pj.Interval(s, e) for s, e in arcs))


def _rotation(value, path: str) -> tw.Rotation:
    try:
        return tw.Rotation(*(_field(value, path, k, _rat) for k in "cs"))
    except InvalidModel as exc:
        raise SchemaError(path, str(exc)) from None


def _twist(value, path: str) -> tw.TwistMap:
    return tw.TwistMap(_field(value, path, "base", _rotation),
                       poly.RatPoly(_field(value, path, "lambda", _rats)))


def _biconic(value, path: str) -> dp.BiconicModel:
    forms = [dp.BinQuadForm(*_field(value, path, m, _list_of(_rat, 3)))
             for m in ("m1", "m2", "m3")]
    return dp.BiconicModel(*forms, _field(value, path, "k", _int, 0))


def _bipoint(value, path: str) -> dp.BiPoint:
    return dp.BiPoint(_field(value, path, "xyz", _list_of(_int_token, 3)),
                      pj.ProjPoint(*_field(value, path, "t", _list_of(_int_token, 2))))


def _region(value, path: str) -> pl.Region:
    rects = _list_of(_list_of(_list_of(_rat, 2), 2))(value, path)
    return pl.Region(tuple(pl.Rect(x0, x1, y0, y1) for (x0, x1), (y0, y1) in rects))


# -- subcommands ----------------------------------------------------------------


def _cmd_decide_birational(payload):
    witness = cm.decide_birational(_field(payload, "", "model1", _model),
                                   _field(payload, "", "model2", _model))
    if witness is None:
        return 1, {"answer": False, "rule": cm.RULE_BIRATIONAL,
                   "reason": "no-interval-equivalence"}
    return 0, {"answer": True, "rule": cm.RULE_BIRATIONAL,
               "witness": witness.as_json()}


def _cmd_decide_iso(payload):
    result = cm.decide_marked_iso(_field(payload, "", "model1", _marked),
                                  _field(payload, "", "model2", _marked))
    if result is None:
        return 1, {"answer": False, "rule": cm.RULE_MARKED_ISO,
                   "reason": "no-count-compatible-equivalence"}
    nu, witness = result
    return 0, {"answer": True, "rule": cm.RULE_MARKED_ISO,
               "witness": {"perm": [i + 1 for i in nu], "moebius": witness.as_json()}}


def _cmd_decide_verytransitive(payload):
    verdict = cm.decide_very_transitive(_field(payload, "", "model", _marked))
    obj = verdict.as_json()
    obj["answer"] = verdict.very_transitive
    return (0 if verdict.very_transitive else 1), obj


def _cmd_realizable_perms(payload):
    config = _field(payload, "", "config", _config)
    if config.r < 1:
        raise SchemaError("config", "need at least one interval")
    perms = pj.realizable_permutations(config)
    entries = [{"perm": [i + 1 for i in nu], "witness": m.as_json()}
               for nu, m in sorted(perms.items())]
    return 0, {"count": len(entries), "permutations": entries}


def _cmd_stabilizer(payload):
    points = _field(payload, "", "points", _list_of(_p1))
    if len(set(points)) < 3:
        raise SchemaError("points", "need at least three distinct points")
    maps = pj.stabilizer(points)
    return 0, {"order": len(maps), "stabilizer": [m.as_json() for m in maps]}


def _cmd_twist(payload):
    model = _field(payload, "", "model", _model)
    pairs = _field(payload, "", "pairs", _list_of(_list_of(_surf_point, 2)), ())
    pins = _field(payload, "", "pins", _rats, ())
    jets = _field(payload, "", "jets", _list_of(_list_of(_rat, 2)), ())
    twist = tw.synthesize_twist(model, pairs, pins=pins, jets=jets)
    return 0, {"twist": twist.as_json(), "report": tw.verify_twist(model, twist).as_json()}


def _cmd_verify_twist(payload):
    report = tw.verify_twist(_field(payload, "", "model", _model),
                             _field(payload, "", "twist", _twist))
    obj = report.as_json()
    if not report.passed:
        obj["reason"] = "verification-failed"
    return (0 if report.passed else 1), obj


def _cmd_geiser(payload):
    image = dp.geiser(_field(payload, "", "model", _biconic),
                      _field(payload, "", "point", _bipoint)).as_json()
    return 0, {"image": image, "second_fibration": image["t"]}


def _cmd_biconic_image(payload):
    model = _field(payload, "", "model", _biconic)
    config = dp.biconic_interval_image(model)
    if model.k != config.r:
        raise SchemaError("model.k", f"declares {model.k} intervals, the real image has {config.r}")
    return 0, {"config": config.as_json(), "r": config.r}


def _cmd_lattice(payload):
    m = _field(payload, "", "m", _int)
    classes = lat.exceptional_classes(m)
    obj = {"m": m, "count": len(classes),
           "classes": [c.as_json() for c in classes],
           "singular_fibres": lat.singular_fibre_count(m)._asdict()}
    if m == 5:
        sigma, alpha = lat.deg4_sigma(), lat.deg4_alpha()
        obj["checks"] = {
            "sigma_involution": sigma.is_involution,
            "alpha_involution": alpha.is_involution,
            "sigma_fixed_free": not sigma.fixed_indices(),
            "alpha_fixed_free": not alpha.fixed_indices(),
            "form_preserved": lat.perm_preserves_form(sigma) and lat.perm_preserves_form(alpha),
            "commute": lat.perms_commute(sigma, alpha),
        }
        obj["sigma"] = list(sigma.mapping)
        obj["alpha"] = list(alpha.mapping)
    if m == 7:
        k = lat.canonical_class(7)
        reflected = [lat.geiser_reflection(c) for c in classes]
        obj["checks"] = {
            "reflection_fixes_k": lat.geiser_reflection(k) == k,
            "reflection_involution": all(
                lat.geiser_reflection(r) == c for c, r in zip(classes, reflected)),
            "reflection_permutes_classes": all(r in classes for r in reflected),
        }
    return 0, obj


def _cmd_region_path(payload):
    region = _field(payload, "", "rects", _region)
    start = _field(payload, "", "start", _list_of(_rat, 2))
    end = _field(payload, "", "end", _list_of(_rat, 2))
    fx = _field(payload, "", "forbidden_x", _rats, ())
    fy = _field(payload, "", "forbidden_y", _rats, ())
    path = pl.find_rect_path(region, start, end, fx, fy)
    if path is None:
        return 1, {"answer": False, "reason": "disconnected"}
    return 0, {"answer": True, "path": path.as_json(), "segments": len(path)}


def _failed(*checks) -> list:
    """The messages of the (holds, message) checks that do not hold."""
    return [message for holds, message in checks if not holds]


def _selftest(seed: int) -> dict:
    """The property-suite report for one seed.

    Each case adds the list of its failure messages to its suite; a suite's
    report counts its cases and joins their failures.  A case that raises is
    a defect, which run() reports as an internal error.
    """
    rng = random.Random(seed)
    suites = {name: [] for name in ("interval-configs", "twist-transport",
                                    "geiser-involution", "lattice", "planner")}

    configs = suites["interval-configs"]
    for r in (1, 2, 3):
        while len(configs) < 6 * r:  # six configurations of each r
            values = rng.sample(range(-40, 41), 2 * r)
            dens = [rng.choice((1, 1, 2, 3)) for _ in values]
            points = sorted(pj.Rat(v, d) for v, d in zip(values, dens))
            if len(set(points)) < 2 * r:
                continue
            config = pj.IntervalConfig.from_rat_pairs(zip(points[::2], points[1::2]))
            got = pj.config_equiv(config, config, tuple(range(r)))
            configs.append(_failed(
                (_config(config.as_json(), "config") == config, f"roundtrip broke for {config}"),
                (got is not None and got[0] == pj.Moebius.identity(),
                 f"self-equivalence missed the identity on {config}")))

    spins = [tw.rotation_from_param(lam) for lam in (0, 1, pj.Rat(1, 2), 2, pj.Rat(2, 3))]
    for roots in ((0, 1), (0, 1, 2, 3), (-2, -1, 1, 2), (0, 1, 4, 5, 8, 9)):
        model = cm.ConicModel(roots)
        fibers = [p for lo, hi in zip(model.roots[::2], model.roots[1::2])
                  for p in islice(tw.ladder_fibers(model, lo, hi), 1)]
        for _ in range(2):
            chosen = fibers[:rng.randint(1, len(fibers))]
            pairs = [(p, cm.SurfPoint(p.x, *rng.choice(spins).apply(p.y, p.z))) for p in chosen]
            # ladder fibers lie strictly inside their intervals, off every root
            twist = tw.synthesize_twist(model, pairs, pins=model.roots[:1])
            suites["twist-transport"].append([f"transport missed on roots {roots}"
                                              for p, q in pairs if tw.apply_twist(model, twist, p) != q])

    for arcs in ([(0, 1)], [(-2, 2)], [(0, 1), (2, 3)]):
        model = dp.biconic_from_config(pj.IntervalConfig.from_rat_pairs(arcs))
        for arc in dp.biconic_interval_image(model).intervals:
            for p in dp.fiber_points(model, arc.interior_point(), want=4):
                suites["geiser-involution"].append(_failed(
                    (dp.geiser(model, dp.geiser(model, p)) == p, f"involution broke at {p}")))

    # one case per class count, and one for every check the tables print
    tables = [_cmd_lattice({"m": m})[1] for m in (5, 6, 7)]
    for table, expected in zip(tables, (16, 27, 56)):
        suites["lattice"].append(_failed(
            (table["count"] == expected, f"class count for m={table['m']}")))
    suites["lattice"].append([f"m={table['m']} check {name}" for table in tables
                              for name, holds in table.get("checks", {}).items() if not holds])

    # find_rect_path validates every path it returns, so a case fails only
    # by raising
    for _ in range(10):
        rects = []
        for _ in range(rng.randint(2, 4)):
            x0, y0 = rng.randint(0, 6), rng.randint(0, 6)
            rects.append(pl.Rect(x0, x0 + rng.randint(1, 3), y0, y0 + rng.randint(1, 3)))
        region = pl.Region(tuple(rects))
        a = rects[0]
        b = rects[-1]
        start = ((a.x0 + a.x1) / 2, (a.y0 + a.y1) / 2)
        end = ((b.x0 + b.x1) / 2, (b.y0 + b.y1) / 2)
        pl.find_rect_path(region, start, end)
        suites["planner"].append([])

    report = [{"name": name, "cases": len(cases), "failures": [f for case in cases for f in case]}
              for name, cases in suites.items()]
    return {"seed": seed, "passed": not any(s["failures"] for s in report), "suites": report}


_HANDLERS = {
    "decide-birational": _cmd_decide_birational,
    "decide-iso": _cmd_decide_iso,
    "decide-verytransitive": _cmd_decide_verytransitive,
    "realizable-perms": _cmd_realizable_perms,
    "stabilizer": _cmd_stabilizer,
    "twist": _cmd_twist,
    "verify-twist": _cmd_verify_twist,
    "geiser": _cmd_geiser,
    "biconic-image": _cmd_biconic_image,
    "lattice": _cmd_lattice,
    "region-path": _cmd_region_path,
}

SUBCOMMANDS = (*_HANDLERS, "selftest")


def _stop(command, error=None):
    """Print the help of command's parser, or with None the top level's, and exit 0;
    or with an error, its usage and the error, and exit 2: argparse's texts at 78 columns."""
    prog = "conicbundle" if command is None else f"conicbundle {command}"
    if command is None:
        choices = "{" + ",".join(SUBCOMMANDS) + "}"
        usage = f"usage: {prog} [-h]\n{' ' * 19}{choices}\n{' ' * 19}..."
        text = ("Exact decision procedures for real conic-bundle models.\n\n"
                f"positional arguments:\n  {choices}\n\noptions:\n"
                "  -h, --help            show this help message and exit\n")
    else:
        flag, about = (("--seed SEED", "") if command == "selftest"
                       else ("--input INPUT", "    JSON request file (default: stdin)"))
        usage = f"usage: {prog} [-h] [{flag}]"
        # only decide-verytransitive's usage wraps, under its first option
        indent = "\n" + " " * len(f"usage: {prog} ") if len(usage) > 60 else " "
        usage += indent + "[--output OUTPUT]"
        text = (f"options:\n  -h, --help       show this help message and exit\n  {flag}{about}\n"
                "  --output OUTPUT  output file (default: stdout)\n")
    out = (sys.stdout or sys.stderr) if error is None else sys.stderr  # as argparse falls back
    with suppress(AttributeError, OSError):  # and skips a stream it cannot write to
        out.write(f"{usage}\n\n{text}" if error is None else f"{usage}\n{prog}: error: {error}\n")
    raise SystemExit(0 if error is None else 2)


def _option(arg: str, names: tuple, command):
    """How the parser with option strings names reads arg before any "--": None for
    a positional, else (its option string, "" if it has none; the attached argument or None)."""
    if arg[:1] != "-" or len(arg) == 1 or re.match(r"-\d+$|-\d*\.\d+$", arg):
        return None  # a negative number too: no option string here looks like one
    head, tail = arg.split("=", 1) if "=" in arg else (arg, None)
    if arg in names or tail is not None and head in names:
        return head, tail
    if arg[1] == "-":  # a long option by a unique prefix
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _stop(command, f"ambiguous option: {arg} could match {', '.join(found)}")
        if found:
            return found[0], tail
    elif arg[:2] in names:  # -h with the rest attached
        return arg[:2], arg[2:]
    if " " in arg:
        return None
    return "", None


def _read_argv(argv) -> dict:
    """The command, input, seed and output of a command line, which every interpreter
    reads as argparse 3.11 read it with the parser this CLI once built."""
    into = {"input": None, "seed": 0, "output": None}
    extras = []
    args = list(argv)
    command = None
    while True:  # the top-level parser reads up to the command, the command's the rest
        names = ("-h", "--help")
        if command is not None:
            names += ("--seed" if command == "selftest" else "--input", "--output")
        end = args.index("--") if "--" in args else len(args)
        found = [_option(arg, names, command) for arg in args[:end]] + [None] * (len(args) - end)
        steps = iter(range(len(args)))
        for i in steps:
            name, explicit = found[i] or (None, None)
            if command is None and name is None and args[i:] != ["--"]:
                if args[i] not in SUBCOMMANDS:
                    _stop(None, f"argument command: invalid choice: {args[i]!r} "
                                f"(choose from {', '.join(map(repr, SUBCOMMANDS))})")
                command, args = args[i], args[i + 1:]
                break
            if not name:
                extras.append(args[i])
            elif name in ("-h", "--help"):
                if explicit is None or name == "-h" and explicit and not explicit.lstrip("h"):
                    _stop(command)  # -hh reads as -h -h
                rest = explicit.lstrip("h") if name == "-h" else explicit
                _stop(command, f"argument -h/--help: ignored explicit argument {rest!r}")
            else:
                if explicit is None:
                    if i + 1 >= end or found[i + 1]:
                        _stop(command, f"argument {name}: expected one argument")
                    explicit = args[next(steps)]  # the next argument, skipped
                if explicit in ("", "--"):  # an empty value, or argparse's dropped "--"
                    _stop(command, f"argument {name}: expected one argument")
                if name == "--seed":
                    try:
                        into["seed"] = int(explicit)
                    except ValueError:
                        _stop(command, f"argument --seed: invalid int value: {explicit!r}")
                else:
                    into[name[2:]] = explicit
        else:
            if command is None:
                _stop(None, "the following arguments are required: command")
            if extras:
                _stop(None, f"unrecognized arguments: {' '.join(extras)}")
            return dict(into, command=command)


def run(argv) -> int:
    """Dispatch a command line; returns the process exit code."""
    try:
        args = _read_argv(argv)
    except SystemExit as exc:
        return exc.code

    raw = None
    if args["command"] != "selftest":
        try:
            if args["input"]:
                with open(args["input"], "r", encoding="utf-8") as fh:
                    raw = fh.read()
            elif sys.stdin is None:
                raise OSError("standard input is closed")
            else:
                raw = sys.stdin.read()
        except (OSError, UnicodeDecodeError) as exc:
            return _report(f"cannot read input: {exc}\n")

    try:
        if raw is None:
            obj = _selftest(args["seed"])
            code = 0 if obj["passed"] else 1
        else:
            try:
                request = json.loads(raw, parse_int=_LongInt.parse, object_pairs_hook=_object)
            except RecursionError:  # no line or column is known
                return _report(_dump({"error": "malformed-json", "message": "nested too deeply"}))
            code, obj = _HANDLERS[args["command"]](request)
    except json.JSONDecodeError as exc:
        return _report(_dump({"error": "malformed-json", "line": exc.lineno,
                              "column": exc.colno, "message": exc.msg}))
    except SchemaError as exc:
        return _report(_dump({"error": "schema", "field": exc.field, "message": str(exc)}))
    except ConicBundleError as exc:
        return _report(_dump({"error": type(exc).__name__, "message": str(exc)}))
    except Exception as exc:
        # a defect, not a verdict: exit 2 and no traceback
        return _report(_dump({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}))

    try:
        if args["output"]:
            with open(args["output"], "w", encoding="utf-8") as fh:
                fh.write(_dump(obj))
        elif sys.stdout is None:
            raise OSError("standard output is closed")
        else:
            sys.stdout.write(_dump(obj))
    except OSError as exc:
        return _report(f"cannot write output: {exc}\n")
    return code


def _report(text: str) -> int:
    """Write a data error to stderr, unless it is closed or fails, and give exit code 2."""
    with suppress(AttributeError, OSError):
        sys.stderr.write(text)
    return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
