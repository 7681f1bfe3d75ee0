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

from . import algorithms as alg
from . import reductions as red
from . import serialize as ser
from . import variation as var
from .errors import (ClassRefusal, ConstructionError, DomainError,
                     FuelExhausted, InvalidModulus, NotPointwiseEvaluable,
                     RepresentationInsufficient)
from .exact import DyadicInterval, Q2, rational_grid
from .sets import ComplementOfR2Open, FinitePointSet, R2Rep, sqrt2_family
from .selftest import run_selftest
from .universe import Baire1Limit, constant, linear, staircase

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
    """ABYSS_FUEL, read by the --fuel rule, or 64 when it is unset or empty."""
    env = os.environ.get("ABYSS_FUEL")
    if not env:
        return 64
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


def parse_fn(spec: str):
    """Function spec: inline JSON, @file, or a shorthand name."""
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            return ser.fn_from_json(json.load(fh))
    if spec.startswith("{"):
        return ser.fn_from_json(json.loads(spec))
    name, _, arg = spec.partition(":")
    if name == "identity":
        return linear(1)
    if name == "const":
        return constant(Fraction(arg or "0"))
    if name == "step":
        return staircase([(Fraction(arg or "1/2"), 1)])
    # any other name is a function kind over the canonical seed set
    doc = {"kind": name, "set": ser.set_json(sqrt2_family())}
    if name == "pennyk":
        doc["cutoff"] = int(arg or 4)
    return ser.fn_from_json(doc)


def parse_point(text: str) -> Q2:
    """Point spec: a rational string, member:N of the canonical set, or a
    JSON object {\"a\": .., \"b\": ..}."""
    text = text.strip()
    if text.startswith("{"):
        return ser.q2_from_json(json.loads(text))
    if text.startswith("member:"):
        return sqrt2_family().member(int(text.split(":", 1)[1]))
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
    text = ser.dumps(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _plot_data(f, path: str, depth: int) -> None:
    with open(path, "w") as fh:
        fh.write("x,f(x)\n")
        for g in rational_grid(DyadicInterval(0, 1), depth):
            v = f.eval(Q2.of(g))
            r = v.approx(48) if not v.is_rational else v.as_rational()
            fh.write("%s,%s\n" % (float(g), float(r)))


def build_parser() -> _Parser:
    p = _Parser(prog="abyss", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fn=True, point=False, interval=False, prec=True):
        if fn:
            sp.add_argument("--fn", required=True, help="function spec: shorthand "
                            "name, inline JSON, or @file")
        if point:
            sp.add_argument("--x", required=True, help="point: rational, member:N, "
                            "or JSON {a,b}")
        if interval:
            sp.add_argument("--interval", nargs=2, metavar=("P", "Q"), required=True)
        if prec:
            sp.add_argument("--k", type=int, default=8, help="target accuracy 2^-k")
        sp.add_argument("--fuel", type=parse_fuel, default=None)
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")

    sp = sub.add_parser("eval", help="exact evaluation")
    common(sp, point=True, prec=False)
    sp.add_argument("--plot-data", default=None, help="CSV of (x, f(x)) on a dyadic grid")
    sp.add_argument("--plot-depth", type=int, default=8)

    common(sub.add_parser("sup", help="supremum over an interval"), interval=True)
    common(sub.add_parser("inf", help="infimum over an interval"), interval=True)
    common(sub.add_parser("osc", help="pointwise oscillation"), point=True)

    sp = sub.add_parser("continuity", help="decide continuity at a point")
    common(sp, point=True, prec=False)

    sp = sub.add_parser("modulus", help="sample a modulus at probe points")
    common(sp)
    sp.add_argument("--kind", choices=("continuity", "quasi", "usco",
                                       "lsco-on-cf", "regulation"),
                    default="continuity")
    sp.add_argument("--probe", action="append", default=None,
                    help="probe point (repeatable)")
    sp.add_argument("--ball-exp", type=int, default=3,
                    help="ball exponent N for the quasi kind")

    sp = sub.add_parser("point-of-continuity", help="certified small-oscillation point")
    common(sp)
    sp.add_argument("--method", choices=("qc", "usco"), default="qc")

    common(sub.add_parser("cousin", help="finite subcover from a gauge"), prec=False)

    common(sub.add_parser("limits", help="one-sided limits"), point=True)

    sp = sub.add_parser("jumps", help="enumerate jump discontinuities")
    common(sp, prec=False)
    sp.add_argument("--limit", type=int, default=16)

    common(sub.add_parser("variation", help="total variation on [0,x]"), point=True)

    sp = sub.add_parser("jordan", help="monotone decomposition, sampled")
    common(sp, prec=False)
    sp.add_argument("--depth", type=int, default=4)

    sp = sub.add_parser("rm-code", help="rational-ball code of a radius-function open set")
    sp.add_argument("--open", required=True, dest="open_spec",
                    help="semicolon-separated rational interval pairs a,b;c,d")
    sp.add_argument("--fuel", type=parse_fuel, default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("separator", help="usco separating function of closed sets")
    sp.add_argument("--c0", required=True)
    sp.add_argument("--c1", required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("realiser", help="point outside the seed set from an oracle")
    sp.add_argument("--family", choices=("sup", "cliq", "regulation"), default="sup")
    sp.add_argument("--k", type=int, default=16)
    sp.add_argument("--fuel", type=parse_fuel, default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("demo-abyss", help="baseline vs oracle on the spike instance")
    sp.add_argument("--family", choices=("penny",), default="penny")
    sp.add_argument("--depth", type=int, default=20)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("selftest", help="deterministic battery over every subsystem")
    sp.add_argument("--out", default=None)
    return p


# modulus kinds sampled as (x, k, value) rows
_VALUE_MODULI = {"continuity": alg.modulus_continuity_qc,
                 "lsco-on-cf": alg.lsco_modulus_on_cf,
                 "regulation": var.modulus_regulation}


def _run(args) -> dict:
    cmd = args.command

    if cmd == "selftest":
        return run_selftest()

    if cmd == "demo-abyss":
        depths = sorted({8, 16, min(args.depth, 24), args.depth})
        rep = red.demo_abyss(sqrt2_family(), depths=tuple(depths))
        return {"demo": rep.to_jsonable()}

    if cmd == "separator":
        sep = alg.usco_separator(parse_closed_set(args.c0), parse_closed_set(args.c1))
        return {"separator": sep.to_jsonable()}

    # the subcommands above take no fuel, so a bad ABYSS_FUEL cannot stop them
    fuel = default_fuel() if args.fuel is None else args.fuel

    if cmd == "realiser":
        A = sqrt2_family()
        rounds = min(fuel, 16)
        if args.family == "sup":
            z = red.realiser_from_sup(red.exhaustive_sup_oracle(), A, args.k, fuel=rounds)
        elif args.family == "cliq":
            z = red.realiser_from_cliq_modulus(red.canonical_cliq_modulus(A), A,
                                               args.k, fuel=rounds)
        else:
            z = red.realiser_from_regulation_modulus(
                red.canonical_regulation_modulus(A), A, args.k, fuel=rounds)
        certified = all(A.index_of(A.member(i)) == i and
                        A.member(i) != Q2.of(z) for i in range(rounds))
        return {"realiser": {"family": args.family, "point": ser.rat_json(z),
                             "certified_outside_prefix": certified,
                             "prefix_checked": rounds}}

    if cmd == "rm-code":
        o = parse_open_set(args.open_spec)
        from .universe import indicator_baire1
        code = alg.rm_code_from_r2_baire1(o, indicator_baire1(o), fuel=fuel)
        return {"rm_code": {
            "balls": [{"center": ser.rat_json(c), "radius": ser.rat_json(r)}
                      for c, r in code.prefix],
            "prefix_of_infinite": code.prefix_of_infinite}}

    f = parse_fn(args.fn)

    if cmd == "eval":
        x = parse_point(args.x)
        v = f.eval(x)
        if getattr(args, "plot_data", None):
            _plot_data(f, args.plot_data, args.plot_depth)
        return {"value": ser.q2_json(v)}

    if cmd == "sup":
        p, q = Fraction(args.interval[0]), Fraction(args.interval[1])
        if isinstance(f, Baire1Limit):
            iv = alg.sup_baire1(f, p, q, args.k, fuel=fuel)
        else:
            iv = alg.sup_qc(f, p, q, args.k)
        return {"interval": ser.interval_json(iv)}

    if cmd == "inf":
        p, q = Fraction(args.interval[0]), Fraction(args.interval[1])
        return {"interval": ser.interval_json(alg.inf_usco(f, p, q, args.k))}

    if cmd == "osc":
        iv = alg.osc_point(f, parse_point(args.x), args.k, fuel=fuel)
        return {"interval": ser.interval_json(iv)}

    if cmd == "continuity":
        ans = alg.is_continuous_at(f, parse_point(args.x), fuel=fuel)
        return {"continuous": ans.value.value, "fuel_spent": ans.fuel_spent}

    if cmd == "modulus":
        probes = [parse_point(s) for s in (args.probe or ["1/3", "1/2", "2/3"])]
        if args.kind == "quasi":
            rows = [{"x": ser.q2_json(x), "k": args.k, "N": args.ball_exp,
                     "interval": [ser.rat_json(e) for e in
                                  alg.modulus_qc(f, x, args.k, args.ball_exp, fuel=fuel)]}
                    for x in probes]
        elif args.kind == "usco":
            psi = alg.natural_usco_modulus(f, fuel=fuel)
            rows = [{"x": ser.q2_json(x), "k": args.k,
                     "radius": ser.rat_json(psi(x, args.k))} for x in probes]
        else:
            G = _VALUE_MODULI[args.kind](f, fuel=fuel)
            rows = [{"x": ser.q2_json(x), "k": args.k, "value": G(x, args.k)}
                    for x in probes]
        return {"modulus": {"kind": args.kind, "samples": rows}}

    if cmd == "point-of-continuity":
        if args.method == "usco":
            psi = alg.natural_usco_modulus(f, fuel=fuel)
            x = alg.point_of_continuity_usco(f, psi, args.k, fuel=fuel)
        else:
            x = alg.point_of_continuity_qc(f, args.k, fuel=fuel)
        cert = alg.osc_point(f, x, args.k, fuel=fuel)
        return {"point": ser.rat_json(x), "certificate": ser.interval_json(cert)}

    if cmd == "cousin":
        balls = alg.cousin_subcover(f, fuel=fuel)
        return {"cover": {"balls": [{"center": ser.rat_json(c),
                                     "radius": ser.rat_json(r)} for c, r in balls],
                          "count": len(balls)}}

    if cmd == "limits":
        lr = var.limits_lr(f, parse_point(args.x), args.k)
        return {"left": None if lr.left is None else ser.interval_json(lr.left),
                "right": None if lr.right is None else ser.interval_json(lr.right)}

    if cmd == "jumps":
        pts = var.jump_enum(f, limit=args.limit)
        return {"jumps": [ser.q2_json(p) for p in pts]}

    if cmd == "variation":
        iv = var.total_variation_nbv(f, parse_point(args.x), args.k)
        return {"interval": ser.interval_json(iv)}

    if cmd == "jordan":
        jp = var.jordan_nbv(f)
        rows = []
        for g in rational_grid(DyadicInterval(0, 1), args.depth):
            rows.append({"x": ser.rat_json(g),
                         "g": ser.q2_json(jp.g(g)),
                         "h": ser.q2_json(jp.h(g))})
        return {"jordan": {"samples": rows}}

    raise ValueError("unknown subcommand %r" % (cmd,))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        payload = _run(args)
    except ClassRefusal as e:
        _emit({"refusal": {"operation": e.operation, "needed": e.needed,
                           "function": e.fn_kind, "tags": e.tags,
                           "statement": e.statement}}, getattr(args, "out", None))
        return EXIT_REFUSED
    except FuelExhausted as e:
        _emit({"fuel_exhausted": {"message": str(e)}}, getattr(args, "out", None))
        return EXIT_FUEL
    except (DomainError, ConstructionError, NotPointwiseEvaluable,
            RepresentationInsufficient, InvalidModulus, TypeError,
            ValueError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE
    _emit(payload, getattr(args, "out", None))
    if args.command == "selftest" and not payload.get("all_pass", False):
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
