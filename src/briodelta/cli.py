"""Command-line front end.

Five subcommands: solve (delta-solution JSON), curves (CSV tables of the
shock loci and rarefaction curves from a base state), sample (regular part
on an x-grid at fixed time, plus a sidecar listing the Dirac carriers),
verify (property suite report), fv-compare (finite-volume refinement
table).  Outputs land in --out, the BRIODELTA_OUT directory, or the
working directory, with fixed file names so reruns are byte-identical.
Every JSON output's text is byte for byte that of json.dumps with an indent
of 2: solution.json's is its fixed layout filled in one % format
(_solution_text), singular.json's and report.json's come from one writer,
_json_text.  CSV values are written as %.17g.  solution.json and report.json
match their packaged schemas by construction (solution_to_dict and
property_suite fix every type and enum); the tests check every such document
the CLI writes.  Each output's text is built before its file is opened, so a
document that cannot be encoded leaves an existing file alone.  An existing
output is overwritten in place through a raw descriptor and cut at the end of
the new text; the write is not atomic, so an interruption can leave it partial.

--config FILE holds a JSON object keyed by option (x_min for --x-min) whose
values win over flags, with a warning.  Each value is read by its option's
type and choices: a string as written, a number as its text, a list joined by
commas (--left, --right, --base, --ladder), null as not given.

Exit codes: 0 success, 1 bad input, usage errors included, or a solver
error (one machine-readable JSON line on stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import BrioState, RiemannData, TransState, lift
from .delta import sample_brio_many, solution_to_dict, solve_brio, wave_speeds
from .errors import BrioError, PreconditionError
from .riemann import build_fan
from .verify import FvGrid, compare_fan_fv, property_suite
from .wave_curves import DESCENDING_KINDS, tabulate_curve

ENV_OUT = "BRIODELTA_OUT"

_CURVE_KINDS = {
    "1": ("sw1", "rw1"),
    "2": ("sw2", "rw2"),
    "all": ("sw1", "sw2", "rw1", "rw2"),
    "inverse": ("sw2_inv", "rw2_inv"),
}

# Options whose value is a comma list.
_LIST_OPTIONS = ("--left", "--right", "--base", "--ladder")


def _parse_pair(value: str, what: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise PreconditionError(f"{what} must be two comma-separated numbers")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise PreconditionError(f"{what} must be numeric, got {value!r}")


def _config_value(action: argparse.Action, value):
    """Read one JSON config value the way its option reads a flag's text."""
    if value is None:
        return value
    if isinstance(value, list) and action.option_strings[0] in _LIST_OPTIONS:
        value = ",".join(map(str, value))
    if isinstance(value, (bool, list, dict)):
        raise PreconditionError(f"config {action.dest} cannot be {value!r}")
    try:
        value = (action.type or str)(str(value))
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"must be one of {', '.join(action.choices)}")
    except ValueError as e:
        raise ValueError(f"config {action.dest}: {e}") from None
    return value


def _apply_config(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    with open(args.config, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise PreconditionError("config file must hold a JSON object")
    options = {a.dest: a for a in args.parser._actions
               if a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(options))
    if unknown:
        raise PreconditionError(
            f"unknown config keys for {args.subcommand}: {', '.join(unknown)}")
    # Read all values before warning: a bad one leaves only the JSON error.
    values = {k: _config_value(options[k], v) for k, v in cfg.items()}
    for key, value in values.items():
        if getattr(args, key) is not None:
            print(f"warning: config file overrides --{key.replace('_', '-')}",
                  file=sys.stderr)
        setattr(args, key, value)


def _require_positive(name: str, value: float) -> float:
    if not value > 0.0:
        raise PreconditionError(f"{name} must be positive, got {value!r}")
    if value == math.inf:
        raise PreconditionError(f"{name} must be finite, got {value!r}")
    return value


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get(ENV_OUT) or "."
    # An existing directory costs one stat, not a FileExistsError caught.
    if not os.path.isdir(out):
        os.makedirs(out, exist_ok=True)
    return out


def _rewrite(path: str, text: str) -> None:
    """Write text as UTF-8 over the file at path, then cut the file at its end.

    An existing file is overwritten in place, not truncated to zero first:
    on ext4 a truncate to zero makes the following close flush the file to
    disk (auto_da_alloc), which costs far more than the write itself.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        n = os.write(fd, data)
        while n < len(data):
            n += os.write(fd, data[n:])
        os.ftruncate(fd, n)
    finally:
        os.close(fd)


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The classes json writes, and the bases it writes a subclass as, in its order.
_JSON_CLASSES = frozenset({float, str, dict, list, tuple, int, bool, type(None)})
_JSON_BASES = (float, str, dict, list, tuple, int)


def _json_text(o) -> str:
    """o as json.dumps writes it with an indent of 2, byte for byte, from one list of pieces.

    A value of a class json does not write raises TypeError, as in json; so
    does a key that is not a str (encode_basestring_ascii takes only str),
    where json would convert a number, bool or None.
    """
    out: list[str] = []
    _json_pieces(o, "\n", out)
    return "".join(out)


def _json_pieces(o, nl: str, out: list[str]) -> None:
    """Append o's text to out; nl is the line break plus o's indent.

    A subclass instance is written as its first base in _JSON_BASES.
    """
    kind = type(o)
    if kind not in _JSON_CLASSES:
        kind = next((base for base in _JSON_BASES if isinstance(o, base)), kind)
    if kind is float:
        text = float.__repr__(o)
        out.append(_FLOAT_NAMES.get(text, text))
    elif kind is str:
        out.append(encode_basestring_ascii(o))
    elif kind is dict:
        inner = nl + "  "
        sep = "{" + inner
        for key, value in o.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_pieces(value, inner, out)
            sep = "," + inner
        out.append(nl + "}" if o else "{}")
    elif kind is list or kind is tuple:
        inner = nl + "  "
        sep = "[" + inner
        for value in o:
            out.append(sep)
            _json_pieces(value, inner, out)
            sep = "," + inner
        out.append(nl + "]" if o else "[]")
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif kind is int:
        out.append(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dump_json(path: str, doc: dict) -> None:
    _rewrite(path, _json_text(doc) + "\n")


# solution.json as solution_to_dict lays it out, as % formats: the document
# with a %s for each of its two lists (and %%s for each leaf), and the list
# items by segment kind (None: a carrier), indented as items, a %s per leaf.
_UV = dict.fromkeys("uv")
_SOLUTION_LAYOUT = _json_text({"initial": {"left": _UV, "right": _UV}, "regular": "|",
                               "singular": "|", "options": {"flip_speed": None}}
                              ).replace("null", "%%s").replace('"|"', "%s")
_ITEM_LAYOUT = {kind: _json_text(dict.fromkeys(keys) | states).replace("\n", "\n    ")
                .replace("null", "%s") for kind, keys, states in (
    ("constant", ("xi_lo", "xi_hi", "kind"), {"state": _UV}),
    ("rarefaction", ("xi_lo", "xi_hi", "kind", "family", "v_sign"), {"left": _UV, "right": _UV}),
    (None, ("speed", "rate", "constant", "component"), {}))}


def _solution_text(doc: dict) -> str:
    """_json_text(doc) for a solution_to_dict document: its layout in one % format
    over its leaves, the values of its innermost dicts in key order."""
    leaves = [x for part in doc.values() for item in (part if type(part) is list else (part,))
              for v in item.values() for x in (v.values() if type(v) is dict else (v,))]
    layout = _SOLUTION_LAYOUT % tuple(
        "[\n    " + ",\n    ".join([_ITEM_LAYOUT[item.get("kind")] for item in doc[name]])
        + "\n  ]" if doc[name] else "[]" for name in ("regular", "singular"))
    return layout % tuple([_FLOAT_NAMES.get(t := float.__repr__(o), t) if type(o) is float
                           else _json_text(o) for o in leaves])


def _write_csv(path: str, header, rows) -> None:
    """Write a CSV table: header names, then rows of floats as %.17g.

    The text is what csv.writer gives for the header and the %.17g string of
    each value (no field needs quoting), formatted in one call with one
    "%.17g,...,%.17g" line, CRLF-terminated, per row.
    """
    values = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    _rewrite(path, ",".join(header) + "\r\n"
             + (line * len(values)) % tuple(values.ravel().tolist()))


def _riemann_data(args: argparse.Namespace) -> RiemannData:
    if args.left is None or args.right is None:
        raise PreconditionError("left and right states are required")
    ul, vl = _parse_pair(args.left, "left state")
    ur, vr = _parse_pair(args.right, "right state")
    return RiemannData(BrioState(ul, vl), BrioState(ur, vr))


def _cmd_solve(args: argparse.Namespace) -> int:
    data = _riemann_data(args)
    doc = solution_to_dict(solve_brio(data, flip_speed=args.flip_speed or "rh"))
    path = os.path.join(_out_dir(args), "solution.json")
    _rewrite(path, _solution_text(doc) + "\n")
    print(path)
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    if args.base is None:
        raise PreconditionError("a base state is required")
    bu, bq = _parse_pair(args.base, "base state")
    base = TransState(bu, bq)
    family = args.family or "all"
    span = _require_positive("span", args.span if args.span is not None
                             else 2.0)
    samples = args.samples if args.samples is not None else 257
    if samples < 2:
        raise PreconditionError("samples must be at least 2")
    out = _out_dir(args)
    written = []
    for kind in _CURVE_KINDS[family]:
        if kind in DESCENDING_KINDS:
            us = np.linspace(base.u - span, base.u, samples)
        else:
            us = np.linspace(base.u, base.u + span, samples)
        rows = tabulate_curve(kind, base, us)
        path = os.path.join(out, f"{kind}.csv")
        _write_csv(path, ("u", "q", "lambda"), rows)
        written.append(path)
    print("\n".join(written))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    data = _riemann_data(args)
    sol = solve_brio(data, flip_speed=args.flip_speed or "rh")
    t = _require_positive("time", args.time if args.time is not None else 1.0)
    speeds = wave_speeds(sol) + [0.0]
    x_min = args.x_min if args.x_min is not None else min(speeds) * t - 1.0
    x_max = args.x_max if args.x_max is not None else max(speeds) * t + 1.0
    if not x_max > x_min:
        raise PreconditionError("sampling window must have x_max > x_min")
    if not math.isfinite(x_max - x_min):
        raise PreconditionError("sampling window must be finite")
    nx = args.nx if args.nx is not None else 1001
    if nx < 2:
        raise PreconditionError("nx must be at least 2")
    x = np.linspace(x_min, x_max, nx)
    u, v = sample_brio_many(sol, x / t)
    out = _out_dir(args)
    csv_path = os.path.join(out, "samples.csv")
    _write_csv(csv_path, ("x", "u", "v"), np.column_stack((x, u, v)))
    sidecar = {
        "time": t,
        "carriers": [
            {"position": s.speed * t, "strength": s.strength(t),
             "speed": s.speed, "rate": s.rate, "constant": s.constant,
             "component": s.component}
            for s in sol.singular
        ],
    }
    side_path = os.path.join(out, "singular.json")
    _dump_json(side_path, sidecar)
    print(csv_path)
    print(side_path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = property_suite(args.seed if args.seed is not None else 0)
    path = os.path.join(_out_dir(args), "report.json")
    _dump_json(path, report)
    n_pass = sum(1 for c in report["checks"] if c["passed"])
    print(f"{n_pass}/{len(report['checks'])} checks passed ({path})")
    return 0 if n_pass == len(report["checks"]) else 2


def _cmd_fv_compare(args: argparse.Namespace) -> int:
    data = _riemann_data(args)
    fan = build_fan(lift(data.left), lift(data.right))
    x_min = args.x_min if args.x_min is not None else -5.0
    x_max = args.x_max if args.x_max is not None else 5.0
    T = _require_positive("final-time", args.final_time
                          if args.final_time is not None else 0.5)
    cfl = _require_positive("cfl", args.cfl if args.cfl is not None else 0.45)
    ladder = args.ladder if args.ladder is not None else "512,1024,2048,4096"
    ns = [int(p) for p in ladder.split(",")]
    rows = []
    for n in ns:
        err = compare_fan_fv(fan, FvGrid(x_min, x_max, n, cfl, T))
        rows.append((float(n), err))
    path = os.path.join(_out_dir(args), "fv_compare.csv")
    _write_csv(path, ("n", "l1_error"), rows)
    print(path)
    return 0


def _add_common(sub: argparse.ArgumentParser, handler) -> None:
    sub.set_defaults(handler=handler, parser=sub)
    sub.add_argument("--config", help="JSON config file; its keys override "
                     "command-line options (a warning is printed)")
    sub.add_argument("--out", help="output directory (default: "
                     f"${ENV_OUT} or the working directory)")


def _add_data_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--left", help="left state as u,v")
    sub.add_argument("--right", help="right state as u,v")


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors raise, so main reports them as JSON on stderr."""

    def error(self, message):
        raise PreconditionError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="briodelta",
        description="Exact delta-shock Riemann solver for a 2x2 model system",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="write the delta-solution JSON")
    _add_data_options(p)
    p.add_argument("--flip-speed", dest="flip_speed",
                   choices=("rh", "paper"))
    _add_common(p, _cmd_solve)

    p = sub.add_parser("curves", help="tabulate wave curves from a base state")
    p.add_argument("--base", help="base state as u,q")
    p.add_argument("--family", choices=tuple(_CURVE_KINDS))
    p.add_argument("--span", type=float, help="u-extent of each table "
                   "(default 2)")
    p.add_argument("--samples", type=int, help="rows per table (default 257)")
    _add_common(p, _cmd_curves)

    p = sub.add_parser("sample", help="sample the regular part on an x-grid")
    _add_data_options(p)
    p.add_argument("--flip-speed", dest="flip_speed",
                   choices=("rh", "paper"))
    p.add_argument("--time", type=float, help="sampling time (default 1)")
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--nx", type=int, help="grid points (default 1001)")
    _add_common(p, _cmd_sample)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--seed", type=int)
    _add_common(p, _cmd_verify)

    p = sub.add_parser("fv-compare", help="finite-volume refinement table")
    _add_data_options(p)
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--final-time", dest="final_time", type=float)
    p.add_argument("--cfl", type=float)
    p.add_argument("--ladder", help="comma-separated cell counts "
                   "(default 512,1024,2048,4096)")
    _add_common(p, _cmd_fv_compare)

    return parser


# One parser per process: parse_args keeps nothing between calls.
_PARSER = build_parser()
# Subcommand -> its own parser, which _PARSER hands the rest of argv to.
_SUBPARSERS = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices


def _attach_values(argv: list[str], sub: argparse.ArgumentParser) -> list[str]:
    """Rewrite `--x-min -1e-3` as `--x-min=-1e-3` for each option of sub that takes a value.

    argparse reads a token such as -1,2, -1e-3 or -inf as an option, not as
    the value of the option before it, so such a value parses only in the
    `=` form.  A token starting with `--` stays an option.
    """
    options = sub._option_string_actions
    out: list[str] = []
    for token in argv:
        if out and out[-1] in options and options[out[-1]].nargs != 0 \
                and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    try:
        if sub is None:
            args = _PARSER.parse_args(argv)
        else:  # _PARSER's namespace and usage errors, at the cost of sub alone
            args, extras = sub.parse_known_args(_attach_values(argv[1:], sub),
                                                argparse.Namespace(subcommand=argv[0]))
            if extras:
                _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
        _apply_config(args)
        return args.handler(args)
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 1
    except (BrioError, ValueError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
