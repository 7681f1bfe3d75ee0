"""Batch command-line front end: every operation, reproducible JSON out.

Exit codes: 0 success, 1 usage error, 2 class-precondition refusal,
3 fuel exhaustion.  Output is canonical JSON (sorted keys) so identical
invocations are byte-identical; rationals travel as "num/den" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Iterator

import abyss

from . import serialize as ser
from .errors import ClassRefusal, FuelExhausted
from .exact import DEFAULT_FUEL, Q2
from .sets import ComplementOfR2Open, FinitePointSet, R2Rep, sqrt2_family

# Handlers and shorthands reach algorithms, variation, reductions, selftest
# and the function families through the package's lazy exports, so a process
# imports only what its subcommand runs and compiles only the families it reads.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_FUEL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def default_fuel() -> int:
    """ABYSS_FUEL, read by the --fuel rule, or DEFAULT_FUEL when it is unset
    or empty."""
    env = os.environ.get("ABYSS_FUEL")
    if not env:
        return DEFAULT_FUEL
    try:
        return parse_fuel(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError("ABYSS_FUEL must be an integer >= 0, got %r" % env) from None


def parse_fuel(text: str) -> int:
    """--fuel: an integer n >= 0; 0 is a budget like any other."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("fuel must be >= 0, got %d" % n)
    return n


# shorthand name -> builder from the text after its ':'
_SHORTHANDS = {"identity": lambda arg: abyss.linear(1),
               "const": lambda arg: abyss.constant(Fraction(arg or "0")),
               "step": lambda arg: abyss.staircase([(Fraction(arg or "1/2"), 1)]),
               "pennyk": lambda arg: abyss.PennyK(sqrt2_family(), int(arg or 4))}


def parse_fn(spec: str):
    """Function spec: inline JSON, @file, or a shorthand name."""
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            return ser.fn_from_json(json.load(fh))
    if spec.startswith("{"):
        return ser.fn_from_json(json.loads(spec))
    name, _, arg = spec.partition(":")
    if name in _SHORTHANDS:
        return _SHORTHANDS[name](arg)
    # any other name is a function kind over the canonical seed set
    return ser.fn_from_json({"kind": name, "set": ser.set_json(sqrt2_family())})


def parse_point(text: str) -> Q2:
    """Point spec: a rational string, member:N of the canonical set, or a
    JSON object {\"a\": .., \"b\": ..}."""
    text = text.strip()
    if text.startswith("{"):
        return ser.q2_from_json(json.loads(text))
    if text.startswith("member:"):
        n = int(text.split(":", 1)[1])
        if n < 0:
            raise ValueError("member index must be >= 0, got %d" % n)
        return sqrt2_family().member(n)
    return Q2.of(Fraction(text))


def parse_closed_set(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "points":
        return FinitePointSet.of([parse_point(s) for s in arg.split(",") if s])
    if kind == "complement":
        return ComplementOfR2Open(parse_open_set(arg))
    raise ValueError("unknown closed-set spec %r" % (spec,))


def parse_open_set(spec: str) -> R2Rep:
    spans = []
    for chunk in spec.split(";"):
        if chunk:
            a, b = chunk.split(",")
            spans.append((Fraction(a), Fraction(b)))
    return R2Rep.from_intervals(spans)


def _emit(payload: dict, out_path=None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            ser.dump(payload, fh)
    else:
        ser.dump(payload, sys.stdout)


def _sample_grid(depth: int) -> Iterator[Fraction]:
    """The dyadic grid of [0,1] at a sample depth in 0..20, point by point:
    `rational_grid(DyadicInterval(0, 1), depth)`, at most 2^20 + 1 points,
    the bound of `naive_rational_sup`'s plain scan.  The depth is checked
    on the call, before any point is made."""
    if not 0 <= depth <= 20:
        raise ValueError("sample depth must be in 0..20, got %d" % depth)
    den = 1 << depth
    return (Fraction(j, den) for j in range(den + 1))


def _plot_data(f, path: str, grid: Iterator[Fraction]) -> None:
    with open(path, "w") as fh:
        fh.write("x,f(x)\n")
        for g in grid:
            v = f.eval(Q2.of(g))
            r = v.approx(48) if not v.is_rational else v.as_rational()
            fh.write("%s,%s\n" % (float(g), float(r)))


# name -> (summary, arguments, handler), in parser order; each also takes --out
SUBCOMMANDS = {}


def subcommand(name: str, summary: str, *arguments):
    """Register the decorated handler(args) -> payload as subcommand `name`;
    each argument is a (flags, keywords) pair for `add_argument`."""
    def register(handler):
        SUBCOMMANDS[name] = (summary, arguments, handler)
        return handler
    return register


def _arg(*flags, **keywords):
    return flags, keywords


# _run parses --fn into args.f and resolves --fuel before the handler runs
FN = _arg("--fn", required=True, help="function spec: shorthand name, inline JSON, or @file")
FUEL = _arg("--fuel", type=parse_fuel, default=None)
X = _arg("--x", required=True, help="point: rational, member:N, or JSON {a,b}")
INTERVAL = _arg("--interval", nargs=2, metavar=("P", "Q"), required=True)
K = _arg("--k", type=int, default=8, help="target accuracy 2^-k")


@subcommand("eval", "exact evaluation", FN, X, FUEL,
            _arg("--plot-data", default=None, help="CSV of (x, f(x)) on a dyadic grid"),
            _arg("--plot-depth", type=int, default=8))
def _evaluate(args):
    v = args.f.eval(parse_point(args.x))
    if args.plot_data:
        _plot_data(args.f, args.plot_data, _sample_grid(args.plot_depth))
    return {"value": ser.q2_json(v)}


@subcommand("sup", "supremum over an interval", FN, INTERVAL, K, FUEL)
def _supremum(args):
    p, q = map(Fraction, args.interval)
    # a limit exists only once its module is loaded, so no other --fn loads it
    if "abyss.limits" in sys.modules and isinstance(args.f, abyss.Baire1Limit):
        iv = abyss.sup_baire1(args.f, p, q, args.k, fuel=args.fuel)
    else:
        iv = abyss.sup_qc(args.f, p, q, args.k)
    return {"interval": ser.interval_json(iv)}


@subcommand("inf", "infimum over an interval", FN, INTERVAL, K, FUEL)
def _infimum(args):
    p, q = map(Fraction, args.interval)
    return {"interval": ser.interval_json(abyss.inf_usco(args.f, p, q, args.k))}


@subcommand("osc", "pointwise oscillation", FN, X, K, FUEL)
def _oscillation(args):
    iv = abyss.osc_point(args.f, parse_point(args.x), args.k, fuel=args.fuel)
    return {"interval": ser.interval_json(iv)}


@subcommand("continuity", "decide continuity at a point", FN, X, FUEL)
def _continuity(args):
    ans = abyss.is_continuous_at(args.f, parse_point(args.x), fuel=args.fuel)
    return {"continuous": ans.value.value, "fuel_spent": ans.fuel_spent}


def _sampler(modulus, field, to_json=lambda v: v):
    """The sampler of the exported modulus builder named `modulus`."""
    def sampler(f, args):
        G = getattr(abyss, modulus)(f, fuel=args.fuel)
        return lambda x: {field: to_json(G(x, args.k))}
    return sampler


# modulus kind -> sampler(f, args), which gives the fields of one probe's row
_MODULUS_KINDS = {"continuity": _sampler("modulus_continuity_qc", "value"),
                  "quasi": lambda f, args: lambda x: {"N": args.ball_exp, "interval": [
                      ser.rat_json(e) for e in
                      abyss.modulus_qc(f, x, args.k, args.ball_exp, fuel=args.fuel)]},
                  "usco": _sampler("natural_usco_modulus", "radius", ser.rat_json),
                  "lsco-on-cf": _sampler("lsco_modulus_on_cf", "value"),
                  "regulation": _sampler("modulus_regulation", "value")}


@subcommand("modulus", "sample a modulus at probe points", FN, K, FUEL,
            _arg("--kind", choices=_MODULUS_KINDS, default="continuity"),
            _arg("--probe", action="append", default=None, help="probe point (repeatable)"),
            _arg("--ball-exp", type=int, default=3, help="ball exponent N for the quasi kind"))
def _modulus(args):
    probes = [parse_point(s) for s in (args.probe or ["1/3", "1/2", "2/3"])]
    sample = _MODULUS_KINDS[args.kind](args.f, args)
    rows = [{"x": ser.q2_json(x), "k": args.k, **sample(x)} for x in probes]
    return {"modulus": {"kind": args.kind, "samples": rows}}


_POINT_METHODS = {"qc": lambda f, k, fuel: abyss.point_of_continuity_qc(f, k, fuel=fuel),
                  "usco": lambda f, k, fuel: abyss.point_of_continuity_usco(
                      f, abyss.natural_usco_modulus(f, fuel=fuel), k, fuel=fuel)}


@subcommand("point-of-continuity", "certified small-oscillation point", FN, K, FUEL,
            _arg("--method", choices=_POINT_METHODS, default="qc"))
def _point_of_continuity(args):
    x = _POINT_METHODS[args.method](args.f, args.k, fuel=args.fuel)
    cert = abyss.osc_point(args.f, x, args.k, fuel=args.fuel)
    return {"point": ser.rat_json(x), "certificate": ser.interval_json(cert)}


@subcommand("cousin", "finite subcover from a gauge", FN, FUEL)
def _cousin(args):
    balls = abyss.cousin_subcover(args.f, fuel=args.fuel)
    return {"cover": {"balls": [{"center": ser.rat_json(c),
                                 "radius": ser.rat_json(r)} for c, r in balls],
                      "count": len(balls)}}


@subcommand("limits", "one-sided limits", FN, X, K, FUEL)
def _limits(args):
    lr = abyss.limits_lr(args.f, parse_point(args.x), args.k)
    return {"left": None if lr.left is None else ser.interval_json(lr.left),
            "right": None if lr.right is None else ser.interval_json(lr.right)}


@subcommand("jumps", "enumerate jump discontinuities", FN, FUEL,
            _arg("--limit", type=int, default=16))
def _jumps(args):
    return {"jumps": [ser.q2_json(p) for p in abyss.jump_enum(args.f, limit=args.limit)]}


@subcommand("variation", "total variation on [0,x]", FN, X, K, FUEL)
def _variation(args):
    iv = abyss.total_variation_nbv(args.f, parse_point(args.x), args.k)
    return {"interval": ser.interval_json(iv)}


@subcommand("jordan", "monotone decomposition, sampled", FN, FUEL,
            _arg("--depth", type=int, default=4))
def _jordan(args):
    jp = abyss.jordan_nbv(args.f)
    # an iterator: _emit writes each row as it is computed
    rows = ({"x": ser.rat_json(g), "g": ser.q2_json(jp.g(g)), "h": ser.q2_json(jp.h(g))}
            for g in _sample_grid(args.depth))
    return {"jordan": {"samples": rows}}


@subcommand("rm-code", "rational-ball code of a radius-function open set",
            _arg("--open", required=True, dest="open_spec",
                 help="semicolon-separated rational interval pairs a,b;c,d"), FUEL)
def _rm_code(args):
    o = parse_open_set(args.open_spec)
    code = abyss.rm_code_from_r2_baire1(o, abyss.indicator_baire1(o), fuel=args.fuel)
    return {"rm_code": {
        "balls": [{"center": ser.rat_json(c), "radius": ser.rat_json(r)}
                  for c, r in code.prefix],
        "prefix_of_infinite": code.prefix_of_infinite}}


@subcommand("separator", "usco separating function of closed sets",
            _arg("--c0", required=True), _arg("--c1", required=True))
def _separator(args):
    sep = abyss.usco_separator(parse_closed_set(args.c0), parse_closed_set(args.c1))
    return {"separator": ser.fn_json(sep)}


# realiser family -> realise(A, k, fuel): its reduction, run on the canonical
# oracle for the seed set A
_REALISERS = {"sup": lambda A, k, fuel: abyss.realiser_from_sup(
                  abyss.exhaustive_sup_oracle(), A, k, fuel=fuel),
              "cliq": lambda A, k, fuel: abyss.realiser_from_cliq_modulus(
                  abyss.canonical_cliq_modulus(A), A, k, fuel=fuel),
              "regulation": lambda A, k, fuel: abyss.realiser_from_regulation_modulus(
                  abyss.canonical_regulation_modulus(A), A, k, fuel=fuel)}


@subcommand("realiser", "point outside the seed set from an oracle",
            _arg("--family", choices=_REALISERS, default="sup"),
            _arg("--k", type=int, default=16), FUEL)
def _realiser(args):
    A = sqrt2_family()
    rounds = min(args.fuel, 16)
    z = _REALISERS[args.family](A, args.k, rounds)
    certified = all(A.index_of(A.member(i)) == i and
                    A.member(i) != Q2.of(z) for i in range(rounds))
    return {"realiser": {"family": args.family, "point": ser.rat_json(z),
                         "certified_outside_prefix": certified,
                         "prefix_checked": rounds}}


@subcommand("demo-abyss", "baseline vs oracle on the spike instance",
            _arg("--family", choices=("penny",), default="penny"),
            _arg("--depth", type=int, default=20))
def _demo_abyss(args):
    depths = sorted({8, 16, min(args.depth, 24), args.depth})
    return {"demo": abyss.demo_abyss(sqrt2_family(), depths=tuple(depths)).to_jsonable()}


@subcommand("selftest", "deterministic battery over every subsystem")
def _selftest(args):
    return abyss.selftest.run_selftest()


def build_parser(argv) -> _Parser:
    """The parser for argv.  When argv starts with a subcommand, only that
    one is registered: the subparsers action takes every argument after it,
    so the top-level parser can then fail only on arguments the subcommand
    leaves unrecognized, and its usage line still lists every subcommand.
    Otherwise every subcommand is registered with its summary, so the
    top-level help and errors are whole, but only a subcommand argv names
    gets its arguments: argparse parses with no other."""
    p = _Parser(prog="abyss", description=__doc__)
    named = argv[:1] if argv and argv[0] in SUBCOMMANDS else None
    sub = p.add_subparsers(dest="command", required=True,
                           metavar="{%s}" % ",".join(SUBCOMMANDS) if named else None)
    for name in named or SUBCOMMANDS:
        summary, arguments, _ = SUBCOMMANDS[name]
        sp = sub.add_parser(name, help=summary)
        if name not in argv:
            continue
        for flags, keywords in arguments:
            sp.add_argument(*flags, **keywords)
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
    return p


def _run(args: argparse.Namespace) -> dict:
    _, arguments, handler = SUBCOMMANDS[args.command]
    # fuel is read first and only where it is taken, so a bad ABYSS_FUEL
    # cannot stop selftest, demo-abyss or separator
    if FUEL in arguments and args.fuel is None:
        args.fuel = default_fuel()
    if FN in arguments:
        args.f = parse_fn(args.fn)
    return handler(args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        payload = _run(args)
    except ClassRefusal as e:
        _emit({"refusal": {"operation": e.operation, "needed": e.needed,
                           "function": e.fn_kind, "tags": e.tags,
                           "statement": e.statement}}, args.out)
        return EXIT_REFUSED
    except FuelExhausted as e:
        _emit({"fuel_exhausted": {"message": str(e)}}, args.out)
        return EXIT_FUEL
    except (TypeError, ValueError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE
    _emit(payload, args.out)
    # only the selftest transcript carries all_pass
    return EXIT_OK if payload.get("all_pass", True) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
