"""Seeded workloads for the crystal_lr benchmark.

Each workload is three plain functions:

* ``generate(rng)`` builds the item list from a ``random.Random``; items are
  tuples and dicts of ints only, so the program receives nothing but the
  generated inputs.
* ``run(item)`` is the timed call into ``crystal_lr``.  For the oracle
  workloads (census, components, zring) one item is one verification, as the
  ``verify`` suites do it: both the program's answer and its independent
  route are computed, and ``run`` returns the pair.  For ``queries`` one item
  is one CLI call and ``run`` returns its exit code and stdout.
* ``check(item, out)`` runs after the timed loop and returns True when the
  answer is right: the two routes agree, the verdict is ``ok``, or (for
  queries) the output matches an independent library route.

Item counts per kind are fixed; the seed picks the inputs within each kind.
"""

import contextlib
import io
import itertools
import json

from crystal_lr import characters, cli, crystal, matrices, ring, shapes
from crystal_lr import hall_littlewood as hl
from crystal_lr import lr_engine
from crystal_lr.lr_engine import ExtremalClass


def canon(obj):
    """JSON-able canonical form, for digests: dicts become sorted pair
    lists, Weights their keys."""
    if isinstance(obj, crystal.Weight):
        return canon(obj.key())
    if isinstance(obj, (ExtremalClass, matrices.BinaryMatrix)):
        return canon(obj.key())
    if isinstance(obj, dict):
        return sorted([canon(k), canon(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    return obj


def _grid(n, lo, hi):
    return [tuple(sorted(c, reverse=True)) for c in
            itertools.combinations_with_replacement(range(lo, hi + 1), n)]


def _shift(lam, c):
    return tuple(x + c for x in lam)


def _fmt(seq):
    return ",".join(str(x) for x in seq)


def _partitions_upto(total, max_length):
    return [mu for s in range(total + 1)
            for mu in shapes.partitions_of(s, max_length=max_length)]


# ---------------------------------------------------------------- census
#
# Cost of a census item depends on the item's shape relative to its window,
# not on where the window sits, so every seed runs the same template pool:
# each template is translated by its own seeded offset (lambda and window
# move together) and the item order is shuffled.  That keeps the count per
# kind and the batch cost fixed while the inputs differ from seed to seed.
# Predictions are window-free closed forms only; see README.md for the
# windowed extremal_lr prediction that is left out.

_LEVEL_ONE = {
    # the two level-one B (x) Bdual families of the pieri suite; the first
    # widens its window once before it passes
    False: ((0,), (1,), (-3, 3)),
    True: ((1,), (0,), (-4, 4)),
}
_BMN_PAIRS = [((1,), ()), ((), (1,)), ((1,), (1,)), ((2,), ()), ((1, 1), ()),
              ((), (2,)), ((2,), (1,))]


def _level_one_prediction(flipped, lam):
    cols = [((1,) * a, (1,) * (a + 1)) for a in range(4)]
    return {ExtremalClass(*(c[::-1] if flipped else c)): 1 for c in cols}


# Each predictor takes its arguments, then the item's lambda.  They look the
# closed forms up at call time, so that a traced run sees its wrappers.
PREDICTORS = {
    "pieri_column": lambda a, dual, lam: lr_engine.pieri_column(lam, a,
                                                                dual),
    "hw_past_level0": lambda mu, nu, lam: lr_engine.hw_past_level0(lam, mu,
                                                                   nu),
    "level_one": _level_one_prediction,
    "extremal_class": lambda mu, nu, lam: {ExtremalClass(mu, nu, lam): 1},
}


def census_generate(rng):
    items = []

    def add(kind, lam, window, factors, predict, *args):
        c = rng.randint(-2, 2)
        lam = _shift(lam, c)
        items.append({"kind": kind, "factors": factors(lam),
                      "window": _shift(window, c),
                      "predict": (predict, args + (lam,))})

    base = (-2, 2)
    for lam in _grid(1, -2, 2) + _grid(2, -2, 2):
        for a in ((1, 2, 3) if len(lam) == 1 else (1, 2)):
            add("pieri", lam, base, lambda l: [("B", l), ("Bcol", a)],
                "pieri_column", a, False)
            add("dual_pieri", lam, base,
                lambda l: [("B", l), ("Bmn", (), (1,) * a)],
                "pieri_column", a, True)
    for lam in [(0,), (1,), (-1,), (0, 0), (0, -1)]:
        for mu, nu in _BMN_PAIRS + [((1,), (1, 1))]:
            add("hw_bmn", lam, base, lambda l: [("B", l), ("Bmn", mu, nu)],
                "hw_past_level0", mu, nu)
    for flipped, (l1, l2, window) in _LEVEL_ONE.items():
        for _ in range(2):
            add("level_one", l1, window,
                lambda l: [("B", l), ("Bdual", _shift(l, l2[0] - l1[0]))],
                "level_one", flipped)
    for lam in [(0,), (1,), (-1,), (0, 0), (1, 0), (0, -1), (1, -1)]:
        for mu, nu in _BMN_PAIRS:
            add("bmn_prefix", lam, base, lambda l: [("Bmn", mu, nu), ("B", l)],
                "extremal_class", mu, nu)
    rng.shuffle(items)
    return items


def census_run(item):
    name, args = item["predict"]
    predicted = PREDICTORS[name](*args)
    return lr_engine.verify_truncated(item["factors"], item["window"],
                                      predicted, threads=1)


def census_check(item, report):
    return report["status"] == "ok"


# ---------------------------------------------------------------- components

_LR_LETTERS = 4
_LR_TOTAL = 5
_MATRIX_SHAPES = [(2, 3), (2, 4), (3, 3), (2, 5)]
_COMMUTE_ROWS, _COMMUTE_COLS = 4, 7


def components_generate(rng):
    items = []
    parts = _partitions_upto(_LR_TOTAL, 3)
    for mu in parts:
        for nu in parts:
            if sum(mu) + sum(nu) <= _LR_TOTAL and mu and nu:
                lo = rng.randint(-3, 3)
                items.append({"kind": "lr_product", "mu": mu, "nu": nu,
                              "lo": lo, "hi": lo + _LR_LETTERS - 1})
    # six censuses per matrix shape: the bicrystal items are the slowest
    # tenth of the batch, so p90 falls among items of one fixed cost
    for nrows, ncols in _MATRIX_SHAPES:
        for _ in range(6):
            items.append({"kind": "bicrystal", "rows": nrows, "cols": ncols,
                          "row_lo": rng.randint(-3, 3),
                          "col_lo": rng.randint(-3, 3)})
    for _ in range(100):
        items.append({"kind": "commutation",
                      "row_lo": rng.randint(-3, 3),
                      "col_lo": rng.randint(-3, 3),
                      "entries": tuple(
                          tuple(rng.randint(0, 1)
                                for _ in range(_COMMUTE_COLS))
                          for _ in range(_COMMUTE_ROWS))})
    rng.shuffle(items)
    return items


def _lr_product(mu, nu, lo, hi):
    words = {lam: [crystal.tableau_word(t)
                   for t in crystal.enumerate_sst(lam, lo, hi)]
             for lam in (mu, nu)}
    prod = [a + b for a in words[mu] for b in words[nu]]
    comps = dict(crystal.decompose_components(prod, range(lo, hi)))
    census = {}
    n = hi - lo + 1
    for lam in shapes.partitions_of(sum(mu) + sum(nu), max_length=n):
        c = shapes.lr_coefficient(lam, mu, nu)
        if c:
            hwv = crystal.weight(crystal.tableau_word(
                crystal.hw_tableau(lam, lo, hi)))
            census[(hwv, shapes.num_sst(lam, n))] = c
    return comps, census


def _bicrystal(nrows, ncols, row_lo, col_lo):
    row_hi, col_hi = row_lo + nrows - 1, col_lo + ncols - 1
    mats = list(matrices.enumerate_matrices(row_lo, row_hi, col_lo, col_hi))
    comps = dict(matrices.bicrystal_components(
        mats, col_colors=range(col_lo, col_hi),
        row_colors=range(row_lo, row_hi)))
    expected = {}
    for size in range(nrows * ncols + 1):
        for mu in shapes.partitions_of(size, max_part=nrows,
                                       max_length=ncols):
            key = mu + (0,) * (ncols - len(mu))
            expected[(key, shapes.num_sst(mu, ncols)
                      * shapes.num_sst(shapes.conjugate(mu), nrows))] = 1
    return comps, expected


def _commutation(row_lo, col_lo, entries):
    """Column operators against row operators on one matrix: returns the
    images along both orders for every color pair."""
    A = matrices.BinaryMatrix(row_lo, col_lo, entries)
    colops = (matrices.matrix_lower, matrices.matrix_raise)
    rowops = (matrices.cap_lower, matrices.cap_raise)
    lhs, rhs = [], []
    for k in range(col_lo, A.col_hi):
        for l in range(row_lo, A.row_hi):
            for cop, rop in itertools.product(colops, rowops):
                xA, yA = cop(A, k), rop(A, l)
                lhs.append(None if xA is None else rop(xA, l))
                rhs.append(None if yA is None else cop(yA, k))
    return lhs, rhs


def components_run(item):
    kind = item["kind"]
    if kind == "lr_product":
        return _lr_product(item["mu"], item["nu"], item["lo"], item["hi"])
    if kind == "bicrystal":
        return _bicrystal(item["rows"], item["cols"], item["row_lo"],
                          item["col_lo"])
    return _commutation(item["row_lo"], item["col_lo"], item["entries"])


def routes_agree(item, out):
    """Check of the oracle workloads: the program's route against the
    independent one."""
    got, want = out
    return got == want


# ---------------------------------------------------------------- zring

def _n_stat(mu):
    return sum(i * part for i, part in enumerate(mu))


def _random_dmono(rng):
    """A z-monomial of degree 2 with one s^+ and one s^- symbol: the cost of
    a triple grows fast with the symbol count, so it is fixed."""
    z = tuple(sorted((rng.randint(-4, 4) for _ in range(2)), reverse=True))
    return {(z, (rng.randint(1, 3),), (rng.randint(1, 3),)):
            rng.choice((-2, -1, 1, 2))}


def zring_generate(rng):
    items = []
    # mode words: the whole grid of the hl quick suite, every seed
    for mu in _partitions_upto(4, 3):
        if mu:
            items.append({"kind": "mode_word", "mu": mu})
    # defining relation and bar commutation: every mode pair once for each
    # monomial degree, with seeded monomials
    for m, n in itertools.product(range(-2, 3), repeat=2):
        for degree in (1, 2):
            mono = tuple(sorted((rng.randint(-2, 2) for _ in range(degree)),
                                reverse=True))
            items.append({"kind": "relation", "m": m, "n": n, "mono": mono})
    # skew actions, stratified by operand length and strip size
    for n in (2, 3):
        for size in (2, 3, 4):
            for _ in range(4):
                mu = rng.choice(list(shapes.partitions_of(size)))
                lam = tuple(sorted((rng.randint(-2, 2) for _ in range(n)),
                                   reverse=True))
                items.append({"kind": "s_action", "sign": rng.choice((1, -1)),
                              "mu": mu, "lam": lam})
    for _ in range(40):
        items.append({"kind": "assoc",
                      "triple": tuple(_random_dmono(rng) for _ in range(3))})
    rng.shuffle(items)
    return items


def _mode_word(mu):
    n = len(mu)
    got = hl.bt_word_action(mu, _n_stat(mu))
    classical = {shapes.normalize(lam): tp for lam, tp in got.items()
                 if all(x >= 0 for x in lam)}
    kostka = {}
    via_p = {}
    for lam in shapes.partitions_of(sum(mu), max_length=n):
        kp = shapes.kostka_foulkes(lam, mu)
        if kp:
            kostka[lam] = kp
        kp = characters.schur_to_hl(lam, n).get(mu, {})
        if kp:
            via_p[lam] = kp
    # one program route against two independent ones: charge and P-expansion
    return (classical, classical), (kostka, via_p)


def _relation(m, n, mono):
    f = hl.tr_from_r(ring.r_monomial(mono))
    relation = hl.bt_commutator_check(m, n, 2, f)
    lhs = hl.bt_bar_apply(m, hl.bt_apply(n, f, 2), 2)
    rhs = hl.bt_apply(n, hl.bt_bar_apply(m, f, 2), 2)
    return (relation, lhs), (True, rhs)


def _s_action(sign, mu, lam):
    n = len(lam)
    got = ring.s_operator(sign, shapes.conjugate(mu))(ring.z_schur(lam))
    if len(mu) > n:
        return got, {}
    inner = shapes.mu_star(mu, n) if sign > 0 else mu + (0,) * (n - len(mu))
    return got, ring.z_skew_schur(lam, inner)


def zring_run(item):
    kind = item["kind"]
    if kind == "mode_word":
        return _mode_word(item["mu"])
    if kind == "relation":
        return _relation(item["m"], item["n"], item["mono"])
    if kind == "s_action":
        return _s_action(item["sign"], item["mu"], item["lam"])
    a, b, c = item["triple"]
    return (ring.d_multiply(ring.d_multiply(a, b), c),
            ring.d_multiply(a, ring.d_multiply(b, c)))


# ---------------------------------------------------------------- queries
#
# Options go before "--" so that generalized partitions with a leading minus
# sign are read as positionals, as a shell user would write them.

# The same number of queries for every command: there is no measured CLI
# traffic to weight them by.
_QUERY_COMMANDS = ("lr", "genlr", "kostka-foulkes", "pieri", "decompose",
                   "extremal-lr", "hl-act")
_QUERIES_PER_COMMAND = 50


def _random_partition(rng, size, max_length):
    return rng.choice(list(shapes.partitions_of(size,
                                                max_length=max_length)))


def _random_gen(rng, n, lo=-2, hi=2):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(n)),
                        reverse=True))


def _random_gen_sum(rng, n, total):
    """A random weakly decreasing n-tuple with the given sum: shift a random
    one by the quotient and add 1 to a prefix for the remainder."""
    nu = _random_gen(rng, n)
    q, r = divmod(total - sum(nu), n)
    return tuple(x + q + (i < r) for i, x in enumerate(nu))


def _query(kind, rng):
    if kind == "lr":
        mu = _random_partition(rng, rng.randint(1, 5), 3)
        nu = _random_partition(rng, rng.randint(1, 5), 3)
        lam = _random_partition(rng, sum(mu) + sum(nu), len(mu) + len(nu))
        return ["lr", _fmt(lam), _fmt(mu), _fmt(nu)]
    if kind == "genlr":
        m, n = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        lam = _random_gen(rng, m + n)
        mu = _random_gen(rng, m)
        nu = _random_gen_sum(rng, n, sum(lam) - sum(mu))
        return ["genlr", "--", _fmt(lam), _fmt(mu), _fmt(nu)]
    if kind == "kostka-foulkes":
        size = rng.randint(2, 6)
        lam = _random_partition(rng, size, size)
        mu = _random_partition(rng, size, size)
        return ["kostka-foulkes", _fmt(lam), _fmt(mu)]
    if kind == "pieri":
        lam = _random_gen(rng, rng.randint(1, 2))
        a = rng.randint(1, 3)
        flag = ["--dual"] if rng.random() < 0.5 else []
        return ["pieri"] + flag + ["--", _fmt(lam), str(a)]
    if kind == "decompose":
        mu, nu, sigma, tau = (_random_partition(rng, rng.randint(0, 2), 2)
                              for _ in range(4))
        return ["decompose", "Bmn(%s;%s) * Bmn(%s;%s)"
                % (_fmt(mu), _fmt(nu), _fmt(sigma), _fmt(tau))]
    if kind == "extremal-lr":
        lam = _random_gen(rng, rng.randint(1, 2), -1, 1)
        rho = _random_gen(rng, 1, -1, 1)
        mu, nu, sigma, tau = (_random_partition(rng, rng.randint(0, 1), 1)
                              for _ in range(4))
        return ["extremal-lr", "--"] + [_fmt(x) for x in
                                        (lam, mu, nu, rho, sigma, tau)]
    mu = _random_partition(rng, rng.randint(1, 4), 3)
    return ["hl-act", "--mu", _fmt(mu)]


def queries_generate(rng):
    items = [{"kind": kind, "argv": _query(kind, rng)}
             for kind in _QUERY_COMMANDS
             for _ in range(_QUERIES_PER_COMMAND)]
    rng.shuffle(items)
    return items


def queries_run(item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(item["argv"]))
    return code, out.getvalue()


def _positionals(argv):
    return argv[argv.index("--") + 1:] if "--" in argv else argv[1:]


def _query_expected(kind, argv):
    """The answer by an independent library route."""
    pos = _positionals(argv)
    if kind == "lr":
        lam, mu, nu = (shapes.parse_partition(x) for x in pos)
        return {"c": shapes.lr_coefficient(lam, nu, mu)}
    if kind == "genlr":
        lam, mu, nu = (shapes.parse_gen_partition(x) for x in pos)
        split = characters.branch_split(lam, len(mu), len(nu))
        return {"c": split.get((mu, nu), 0)}
    if kind == "kostka-foulkes":
        lam, mu = (shapes.parse_partition(x) for x in pos)
        nvars = max(len(lam), len(mu))
        exp = characters.schur_to_hl(lam, nvars)
        return {"tpoly": shapes.tpoly_pairs(exp.get(mu, {}))}
    if kind == "pieri":
        dual = "--dual" in argv
        lam = shapes.parse_gen_partition(pos[0])
        col = (1,) * int(pos[1])
        dec = (lr_engine.hw_past_level0(lam, (), col) if dual
               else lr_engine.hw_past_level0(lam, col, ()))
        return {"dual": dual, "classes": lr_engine.decomposition_to_json(dec)}
    if kind == "decompose":
        (_, mu, nu), (_, sigma, tau) = lr_engine.parse_tensor_expr(pos[0])
        dec = lr_engine.level0_product(mu, nu, sigma, tau)
        return {"classes": lr_engine.decomposition_to_json(dec)}
    if kind == "extremal-lr":
        lam, rho = (shapes.parse_gen_partition(pos[i]) for i in (0, 3))
        mu, nu, sigma, tau = (shapes.parse_partition(pos[i])
                              for i in (1, 2, 4, 5))
        ents = [0] + list(lam) + list(rho)
        window = (min(ents) - 2, max(ents) + 2)
        factors = [("Bmn", mu, nu), ("B", lam), ("Bmn", sigma, tau),
                   ("B", rho)]
        dec = lr_engine.expr_decompose(factors, window)
        return {"window": list(window),
                "classes": lr_engine.decomposition_to_json(dec)}
    mu = shapes.parse_partition(argv[argv.index("--mu") + 1])
    n = len(mu)
    want = {}
    for lam in shapes.partitions_of(sum(mu), max_length=n):
        kp = shapes.kostka_foulkes(lam, mu)
        if kp:
            want[lam + (0,) * (n - len(lam))] = shapes.tpoly_pairs(kp)
    return want


def queries_check(item, out):
    code, text = out
    if code != 0:
        return False
    got = json.loads(text)
    want = _query_expected(item["kind"], item["argv"])
    if item["kind"] == "hl-act":
        got = {tuple(t["lambda"]): t["tpoly"] for t in got["terms"]
               if all(x >= 0 for x in t["lambda"])}
        return got == want
    if item["kind"] == "decompose":
        got = {"classes": got["classes"]}
    return got == want


WORKLOADS = {
    "census": (census_generate, census_run, census_check),
    "components": (components_generate, components_run, routes_agree),
    "zring": (zring_generate, zring_run, routes_agree),
    "queries": (queries_generate, queries_run, queries_check),
}
