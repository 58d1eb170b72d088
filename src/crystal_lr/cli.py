"""Command line front end.

One executable covers the multiplicity calculators (lr, genlr,
kostka-foulkes), the tensor product engine (decompose, pieri, extremal-lr),
the Hall-Littlewood action on the z-ring (hl-act), and the named
verification suites (verify).  Stdout carries UTF-8 JSON only; timings and
diagnostics go to stderr, so stdout is byte for byte reproducible per seed.

Each flag belongs to the one command that reads it: --margin to decompose
and extremal-lr, --dual to pieri, --mu and --T to hl-act, --seed and
--quick to verify.  A flag given to any other command, or before the
command name, is an unrecognized argument (exit 2).

Shapes are comma-separated integers; the empty shape may be written "" or
"0".  Exit codes: 0 success, 1 a verification check failed (its report
carries the first counterexample in full, and its count is the number of
cases run, the failing one included), 2 malformed input naming the
offending token or input too large for the recursive kernels, 3 a product
with a Bdual factor, which has no closed form here yet.  An internal fault
in a verify check fails that check with a report: exit 1, not 2.

Hosts that write no bytecode compile every imported source at each start,
which costs a one-shot query more than its answer.  So the module loads
only shapes, whose parsers every command uses, and each command its engine
when it runs: hl-act loads hall_littlewood and ring; decompose, pieri and
extremal-lr load lr_engine and crystal; verify loads every module.

Stdout is exactly json.dumps(payload, ensure_ascii=False, indent=2) plus a
newline, built by _to_json and written in one call.  The standard encoder
is pure Python whenever indent is set: json.dump streams an answer through
a generator, one write per token, which cost a query more than half the
time its answer took to compute.  _to_json shares the C string escaper
that ensure_ascii=False uses.
"""

import argparse
import functools
import sys
from json.encoder import encode_basestring

from . import shapes

# verify.SUITES' names, spelt out so that building the parser loads no
# verify; tests/test_cli.py holds the two equal
SUITES = ("bicrystal", "duality-en", "pieri", "s-action", "ore", "extremal",
          "hl", "annihilator")


def _entry_window(gshapes, margin):
    if margin < 0:
        raise ValueError("--margin must be nonnegative, got %d" % margin)
    ents = [0]
    for lam in gshapes:
        ents.extend(lam)
    return (min(ents) - margin, max(ents) + margin)


# ---------------------------------------------------------------- commands

def cmd_lr(args):
    lam = shapes.parse_partition(args.lam)
    mu = shapes.parse_partition(args.mu)
    nu = shapes.parse_partition(args.nu)
    return 0, {"c": shapes.lr_coefficient(lam, mu, nu)}


def cmd_genlr(args):
    lam = shapes.parse_gen_partition(args.lam)
    mu = shapes.parse_gen_partition(args.mu)
    nu = shapes.parse_gen_partition(args.nu)
    return 0, {"c": shapes.gen_lr_coefficient(lam, mu, nu)}


def cmd_kostka_foulkes(args):
    lam = shapes.parse_gen_partition(args.lam)
    mu = shapes.parse_gen_partition(args.mu)
    return 0, {"tpoly": shapes.tpoly_pairs(shapes.kostka_foulkes(lam, mu))}


def cmd_decompose(args):
    from .lr_engine import (decomposition_to_json, expr_decompose,
                            parse_tensor_expr)
    factors = parse_tensor_expr(args.expr)
    hws = [f[1] for f in factors if f[0] in ("B", "Bdual")]
    lo, hi = _entry_window(hws, args.margin)
    dec = expr_decompose(factors, (lo, hi))
    return 0, {"window": [lo, hi], "classes": decomposition_to_json(dec)}


def cmd_pieri(args):
    from .lr_engine import decomposition_to_json, pieri_column
    lam = shapes.parse_gen_partition(args.lam)
    dec = pieri_column(lam, args.a, dual=args.dual)
    return 0, {"dual": args.dual, "classes": decomposition_to_json(dec)}


def cmd_extremal_lr(args):
    from .lr_engine import decomposition_to_json, extremal_lr
    lam = shapes.parse_gen_partition(args.lam)
    mu = shapes.parse_partition(args.mu)
    nu = shapes.parse_partition(args.nu)
    rho = shapes.parse_gen_partition(args.rho)
    sigma = shapes.parse_partition(args.sigma)
    tau = shapes.parse_partition(args.tau)
    lo, hi = _entry_window([lam, rho], args.margin)
    dec = extremal_lr(lam, mu, nu, rho, sigma, tau, (lo, hi))
    return 0, {"window": [lo, hi], "classes": decomposition_to_json(dec)}


def cmd_hl_act(args):
    from . import hall_littlewood as hl
    mu = shapes.parse_gen_partition(args.mu)
    T = args.T if args.T is not None else max(0, hl.n_stat(mu))
    exp = hl.bt_word_action(mu, T)
    terms = [{"lambda": list(lam), "tpoly": shapes.tpoly_pairs(exp[lam])}
             for lam in sorted(exp)]
    return 0, {"basis": "z-schur", "T": T, "terms": terms}


def cmd_verify(args):
    from . import verify
    report = verify.run(args.suite, args.seed, args.quick)
    return (0 if report["status"] == "pass" else 1), report


# ---------------------------------------------------------------- parser

# built once per process; each call of main parses into a fresh Namespace
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crystal-lr",
        description="Exact multiplicities, tensor product decompositions "
                    "and verification suites for extremal weight crystals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, helptext, *positionals):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        for pos in positionals:
            p.add_argument(pos)
        return p

    def margin(p):
        p.add_argument("--margin", type=int, default=2,
                       help="letters added on each side of the default "
                            "index window")

    command("lr", cmd_lr, "Littlewood-Richardson coefficient",
            "lam", "mu", "nu")
    command("genlr", cmd_genlr, "LR coefficient for generalized partitions",
            "lam", "mu", "nu")
    command("kostka-foulkes", cmd_kostka_foulkes,
            "Kostka-Foulkes polynomial", "lam", "mu")

    p = command("decompose", cmd_decompose,
                "decompose a tensor product expression")
    p.add_argument("expr", help='e.g. "B(0) * Bcol(2)" or '
                                '"Bmn(1;) * Bmn(;1)"')
    margin(p)

    p = command("pieri", cmd_pieri, "column Pieri decomposition", "lam")
    p.add_argument("a", type=int, help="column height")
    p.add_argument("--dual", action="store_true",
                   help="tensor with the dual column")

    margin(command("extremal-lr", cmd_extremal_lr,
                   "decompose a product of two general classes",
                   "lam", "mu", "nu", "rho", "sigma", "tau"))

    p = command("hl-act", cmd_hl_act, "Hall-Littlewood word action on 1")
    p.add_argument("--mu", required=True,
                   help="mode word, weakly decreasing")
    p.add_argument("--T", type=int, default=None,
                   help="truncation order in t")

    p = command("verify", cmd_verify, "run a named verification suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized suites")
    p.add_argument("--quick", action="store_true",
                   help="smaller grids and sample counts")
    return parser


# ---------------------------------------------------------------- output

_NAMES = {True: "true", False: "false", None: "null"}


def _to_json(obj, pad="\n"):
    """json.dumps(obj, ensure_ascii=False, indent=2) for str-keyed dicts,
    lists, tuples, strs, ints, bools and None, in one pass; pad is the
    newline and indent that close obj's brackets."""
    kind = type(obj)
    if kind is str:
        return encode_basestring(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        if kind is dict:
            # the C escaper refuses a key that is not a str
            parts = [encode_basestring(k) + ": " + _to_json(v, inner)
                     for k, v in obj.items()]
            return "{" + inner + ("," + inner).join(parts) + pad + "}"
        parts = [_to_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if kind is bool or obj is None:
        return _NAMES[obj]
    raise TypeError("Object of type %s is not JSON serializable"
                    % kind.__name__)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        if argv and argv[0][:1] == "-" and argv[0] not in ("-h", "--help"):
            # argparse would take the flag's value for the command name
            parser.error("unrecognized arguments: %s" % argv[0])
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        code, payload = args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except RecursionError:
        # lr_coefficient's cell filler, enumerate_sst and characters._hl_p
        # still recurse
        print("error: %s: input too large for the recursive kernels"
              % args.command, file=sys.stderr)
        return 2
    sys.stdout.write(_to_json(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
