"""Named verification suites: each check compares a closed formula or an
identity of the package with an independent computation.

A per-case check is a generator that yields None for each passing case and
a JSON-ready counterexample for a failing one; _scan runs it up to its first
counterexample, and a ValueError or AssertionError that a case raises is
that case's counterexample, {"error": "<type>: <message>"}.  A check's count
is the number of cases run, the failing one included, and every check stops
on its own first failure, independently of the other checks of its suite.
"""

import itertools
import random
import sys
import time
from functools import cache

from . import characters
from . import hall_littlewood as hl
from .crystal import (decompose_components, enumerate_sst, hw_tableau,
                      tableau_word, weight)
from .lr_engine import (ExtremalClass, hw_past_level0, pieri_column,
                        verify_truncated)
from .matrices import (BinaryMatrix, bicrystal_components, code_step,
                       enumerate_matrices, format_matrix)
from .ring import (annihilator_relations, apply_delem, d_multiply,
                   delem_to_json, expand_in_z_schur, h_delem, h_operator,
                   r_monomial, s_operator, z_schur, z_skew_schur)
from .shapes import (conjugate, gen_lr_coefficient, gen_partitions_box,
                     kostka_foulkes, lin_add, lr_coefficient, mu_star,
                     normalize, num_sst, partitions_of)


def _scan(cases):
    """(cases run, first counterexample or None)."""
    count = 0
    try:
        for bad in cases:
            count += 1
            if bad is not None:
                return count, bad
    except (ValueError, AssertionError) as exc:
        return count + 1, {"error": "%s: %s" % (type(exc).__name__, exc)}
    return count, None


def _check(name, result, extra=None):
    count, bad = result
    entry = {"name": name, "status": "pass" if bad is None else "fail",
             "count": count, **(extra or {})}
    if bad is not None:
        entry["counterexample"] = bad
    return entry


def _then(step, x, slot):
    return None if x is None else step(x)[slot]


# ---------------------------------------------------------------- bicrystal

def _commutation_cases(rng, count):
    # slot 1 lowers before slot 0 raises; column colors 1..6, then rows 1..3
    colsteps = [(k, code_step("column", 4, 7, k - 1)) for k in range(1, 7)]
    rowsteps = [(l, code_step("cap", 4, 7, l - 1)) for l in range(1, 4)]
    for _ in range(count):
        A = BinaryMatrix(1, 1, [tuple(rng.randint(0, 1) for _ in range(7))
                                for _ in range(4)])
        cols = [(k, col, col(A.bits)) for k, col in colsteps]
        rows = [(l, row, row(A.bits)) for l, row in rowsteps]
        yield next(({"matrix": format_matrix(A), "column_color": k,
                     "row_color": l, "column_op": ("raise", "lower")[s],
                     "row_op": ("raise", "lower")[t]}
                    for (k, col, x_col), s, (l, row, x_row), t
                    in itertools.product(cols, (1, 0), rows, (1, 0))
                    if _then(row, x_col[s], t) != _then(col, x_row[t], s)),
                   None)


def _suite_bicrystal(cfg):
    count = 500 if cfg["quick"] else 10000
    cases = _commutation_cases(random.Random(cfg["seed"]), count)
    return [_check("commutation", _scan(cases), {"rows": 4, "cols": 7})]


def _suite_duality_en(cfg):
    nrows, ncols = (2, 4) if cfg["quick"] else (3, 5)
    mats = list(enumerate_matrices(1, nrows, 1, ncols))

    def census():
        comps = dict(bicrystal_components(mats, col_colors=range(1, ncols),
                                          row_colors=range(1, nrows)))
        expected = {
            (mu, num_sst(mu, ncols) * num_sst(conjugate(mu), nrows)): 1
            for mu in gen_partitions_box(ncols, 0, nrows)}
        yield next(({"weight": list(key[0]), "size": key[1],
                     "got": comps.get(key, 0),
                     "expected": expected.get(key, 0)}
                    for key in sorted(set(comps) | set(expected))
                    if comps.get(key, 0) != expected.get(key, 0)), None)

    # one census case, counted as the matrices it walks
    return [_check("census", (len(mats), _scan(census())[1]),
                   {"rows": nrows, "cols": ncols})]


# ---------------------------------------------------------------- pieri

def _column_pieri_cases(span, amax, window):
    for lam in gen_partitions_box(2, -span, span):
        for a, dual in itertools.product(range(1, amax + 1), (False, True)):
            fac = ("Bmn", (), (1,) * a) if dual else ("Bcol", a)
            rep = verify_truncated([("B", lam), fac], window,
                                   pieri_column(lam, a, dual))
            yield None if rep["status"] == "ok" else {
                "lam": list(lam), "a": a, "dual": dual, "report": rep}


def _level_one_cases():
    fam = {ExtremalClass((1,) * a, (1,) * (a + 1)): 1 for a in range(4)}
    rep = verify_truncated([("B", (0,)), ("Bdual", (1,))], (-3, 3), fam)
    ok = rep["status"] == "ok" and rep["window"] == [-4, 4]
    yield None if ok else {"first": rep}
    flipped = {ExtremalClass((1,) * (a + 1), (1,) * a): 1 for a in range(4)}
    rep = verify_truncated([("B", (1,)), ("Bdual", (0,))], (-4, 4), flipped)
    yield None if rep["status"] == "ok" else {"second": rep}


def _suite_pieri(cfg):
    span, amax, window = ((1, 2, (-3, 3)) if cfg["quick"]
                          else (2, 3, (-5, 5)))
    return [
        _check("column-pieri", _scan(_column_pieri_cases(span, amax, window)),
               {"window": list(window)}),
        _check("level-one", _scan(_level_one_cases()), {"window": [-4, 4]}),
    ]


# ---------------------------------------------------------------- s-action

def _skew_grid(span, mus):
    """(n, lam, mu, sign, inner) with inner the shape that s^sign_mu strips
    from z_lam, None when mu has more than n rows."""
    for n in (1, 2, 3):
        for lam in gen_partitions_box(n, -span, span):
            for mu in mus:
                fits = len(mu) <= n
                inner_plus = mu_star(mu, n) if fits else None
                inner_minus = mu + (0,) * (n - len(mu)) if fits else None
                for sign, inner in ((+1, inner_plus), (-1, inner_minus)):
                    yield n, lam, mu, sign, inner


def _skew_action_cases(grid):
    for n, lam, mu, sign, inner in grid:
        got = s_operator(sign, conjugate(mu))(z_schur(lam))
        want = {} if inner is None else z_skew_schur(lam, inner)
        yield None if got == want else {
            "n": n, "lam": list(lam), "mu": list(mu), "sign": sign}


def _skew_expansion_cases(grid):
    for n, lam, _, _, inner in grid:
        want = {} if inner is None else z_skew_schur(lam, inner)
        if not want:
            continue
        exp = expand_in_z_schur(want, n)
        back = {}
        for eta, c in exp.items():
            back = lin_add(back, z_schur(eta), c)
        ok = back == want and all(gen_lr_coefficient(lam, inner, eta) == c
                                  for eta, c in exp.items())
        yield None if ok else {"n": n, "lam": list(lam),
                               "inner": list(inner)}


def _h_calculus_cases(nmax):
    for n in range(1, nmax + 1):
        for lam in gen_partitions_box(n, -2, 2):
            zl = z_schur(lam)
            up, down = h_operator(+1, n), h_operator(-1, n)
            ok = (up(zl) == z_schur(tuple(x + 1 for x in lam))
                  and down(zl) == z_schur(tuple(x - 1 for x in lam))
                  and all(up(h_operator(-1, i)(zl))
                          == h_operator(+1, n - i)(zl)
                          for i in range(n + 1)))
            yield None if ok else {"n": n, "lam": list(lam)}


def _suite_s_action(cfg):
    span, musz = (2, 3) if cfg["quick"] else (3, 4)
    mus = [mu for s in range(musz + 1) for mu in partitions_of(s)]
    nmax = 3 if cfg["quick"] else 4
    return [
        _check("skew-action", _scan(_skew_action_cases(_skew_grid(span, mus))),
               {"entry_span": span, "max_strip": musz}),
        _check("skew-expansion",
               _scan(_skew_expansion_cases(_skew_grid(span, mus)))),
        _check("h-calculus", _scan(_h_calculus_cases(nmax)),
               {"max_rank": nmax}),
    ]


# ---------------------------------------------------------------- ore

def _random_dmono(rng):
    z = tuple(sorted((rng.randint(-4, 4)
                      for _ in range(rng.randint(0, 3))), reverse=True))
    sp = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
    sm = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
    return {(z, sp, sm): rng.choice((-2, -1, 1, 2))}


def _commutator_cases(nmax):
    for n in range(1, nmax + 1):
        for k in range(-5, 6):
            for sign in (+1, -1):
                s = {((), (n,), ()) if sign > 0 else ((), (), (n,)): 1}
                zk = {((k,), (), ()): 1}
                comm = lin_add(d_multiply(s, zk), d_multiply(zk, s), -1)
                shift = k - n if sign > 0 else k + n
                want = {((shift,), (), ()): 1 if n % 2 else -1}
                yield None if comm == want else {
                    "n": n, "k": k, "sign": sign, "got": delem_to_json(comm)}


def _associativity_cases(rng, trips):
    for _ in range(trips):
        a, b, c = (_random_dmono(rng) for _ in range(3))
        left = d_multiply(d_multiply(a, b), c)
        right = d_multiply(a, d_multiply(b, c))
        yield None if left == right else {
            "a": delem_to_json(a), "b": delem_to_json(b),
            "c": delem_to_json(c)}


def _suite_ore(cfg):
    nmax = 3 if cfg["quick"] else 5
    trips = 100 if cfg["quick"] else 1000
    cases = _associativity_cases(random.Random(cfg["seed"]), trips)
    return [
        _check("commutators", _scan(_commutator_cases(nmax)),
               {"max_mode": nmax}),
        _check("associativity", _scan(cases)),
    ]


# ---------------------------------------------------------------- extremal

def _lr_oracle_cases(hi, total, maxlen):
    colors = range(1, hi)

    @cache
    def words_of(mu):
        return [tableau_word(t) for t in enumerate_sst(mu, 1, hi)]

    for smu in range(total + 1):
        for mu in partitions_of(smu, max_length=maxlen):
            for snu in range(total - smu + 1):
                for nu in partitions_of(snu, max_length=maxlen):
                    prod = [a + b for a in words_of(mu)
                            for b in words_of(nu)]
                    comps = dict(decompose_components(prod, colors))
                    census = {}
                    for lam in partitions_of(smu + snu, max_length=hi):
                        c = lr_coefficient(lam, mu, nu)
                        if c:
                            hwv = weight(tableau_word(
                                hw_tableau(lam, 1, hi)))
                            census[(hwv, num_sst(lam, hi))] = c
                    yield None if comps == census else {
                        "mu": list(mu), "nu": list(nu)}


def _cut_level0(poly, m, degree):
    return {e: c for e, c in poly.items() if sum(e[m:]) <= degree}


def _geometry_factor(m, p, q, degree):
    total = m + p + q
    out = {(0,) * total: 1}
    axes = [(i, m + j, -1) for i in range(m) for j in range(p)]
    axes += [(i, m + p + k, +1) for i in range(m) for k in range(q)]
    for i, j, xsign in axes:
        geom = {tuple((xsign * d if t == i else (d if t == j else 0))
                      for t in range(total)): 1
                for d in range(degree + 1)}
        out = _cut_level0(characters.lp_mul(out, geom), m, degree)
    return out


def _identity_block(rho, p, q, degree, szleft, past):
    """Compare, coefficient by coefficient up to the stated level-0 degree,
    the weighted sum of decomposition multiplicities landing on each target
    class over the fixed highest weight leg against the closed product form;
    one case per target class."""
    m = len(rho)

    @cache
    def lift(gen, offset):
        return characters.lp_lift(characters.laurent_schur(gen), m + p + q,
                                  offset)

    def legs(sigma, tau):
        """s_sigma'(y) s_tau'(w); y and w are the p and q after rho's m."""
        ys = (conjugate(sigma) + (0,) * p)[:p]
        ws = (conjugate(tau) + (0,) * q)[:q]
        return characters.lp_mul(lift(ys, m), lift(ws, m + p))

    def pairs(size):
        """(sigma, tau) of total size <= size, by |sigma| then |tau|."""
        return [(sigma, tau) for ssz in range(size + 1)
                for sigma in partitions_of(ssz, max_part=p)
                for tsz in range(size - ssz + 1)
                for tau in partitions_of(tsz, max_part=q)]

    lhs = {target: {} for target in pairs(szleft)}
    sizes = {sum(rho) + sum(sigma) - sum(tau) for sigma, tau in lhs}
    lob = (rho[-1] if rho else 0) - degree - 1
    hib = (rho[0] if rho else 0) + degree + 1
    for mu, nu in pairs(degree):
        base = legs(mu, nu)
        for s in sizes:
            for lam in gen_partitions_box(m, lob, hib, s - sum(mu) + sum(nu)):
                for cls, c in past(lam, mu, nu).items():
                    key = (cls.mu, cls.nu)
                    if cls.hw == rho and key in lhs:
                        term = characters.lp_mul(lift(lam, 0), base)
                        lhs[key] = lin_add(lhs[key], term, c)
    rhs_base = characters.lp_mul(lift(rho, 0),
                                 _geometry_factor(m, p, q, degree))
    for sigma, tau in lhs:
        rhs = characters.lp_mul(rhs_base, legs(sigma, tau))
        same = (_cut_level0(lhs[(sigma, tau)], m, degree)
                == _cut_level0(rhs, m, degree))
        yield None if same else {"rho": list(rho), "sigma": list(sigma),
                                 "tau": list(tau), "p": p, "q": q}


def _character_identity_cases(degree, budget):
    past = cache(hw_past_level0)
    for m in (0, 1, 2):
        for rho in gen_partitions_box(m, -budget, budget):
            szleft = budget - sum(abs(x) for x in rho)
            if szleft < 0:
                continue
            for p, q in itertools.product((1, 2), repeat=2):
                yield from _identity_block(rho, p, q, degree, szleft, past)


def _suite_extremal(cfg):
    if cfg["quick"]:
        hi, total, maxlen = 4, 5, 3
        degree, budget = 1, 2
    else:
        hi, total, maxlen = 6, 7, 4
        degree, budget = 2, 4
    return [
        _check("lr-oracle", _scan(_lr_oracle_cases(hi, total, maxlen)),
               {"letters": hi, "max_total": total}),
        _check("character-identity",
               _scan(_character_identity_cases(degree, budget)),
               {"degree": degree, "max_total": budget}),
    ]


# ---------------------------------------------------------------- hl

def _kostka_charge_cases(grid, action):
    for mu in grid:
        classical = {normalize(lam): tp for lam, tp in action(mu).items()
                     if all(x >= 0 for x in lam)}
        wanted = {}
        for lam in partitions_of(sum(mu), max_length=len(mu)):
            kp = kostka_foulkes(lam, mu)
            if kp:
                wanted[lam] = kp
        yield None if classical == wanted else {"mu": list(mu),
                                                "T": hl.n_stat(mu)}


def _p_expansion_cases(grid, action):
    hlrow = cache(characters.schur_to_hl)
    for mu in grid:
        n = len(mu)
        lam = next((lam for lam in partitions_of(sum(mu), max_length=n)
                    if action(mu).get(lam + (0,) * (n - len(lam)), {})
                    != hlrow(lam, n).get(mu, {})), None)
        yield None if lam is None else {"mu": list(mu), "lam": list(lam)}


def _monomial_t1_cases(grid):
    for mu in grid:
        T = hl.n_stat(mu)
        vals = []
        for extra in (0, 2):
            f = hl.tr_one()
            for mode in reversed(mu):
                f = hl.bt_apply(mode, f, T + extra)
            vals.append(hl.tr_eval(f, 1))
        stable = {k: v for k, v in vals[0].items()
                  if vals[1].get(k) == v}
        ok = stable.get(mu) == 1 and not any(v for k, v in stable.items()
                                             if k != mu)
        yield None if ok else {"mu": list(mu), "T": T}


def _suite_hl(cfg):
    maxsz = 4 if cfg["quick"] else 6
    grid = [mu for s in range(1, maxsz + 1)
            for mu in partitions_of(s, max_length=3)]
    # built inside the checks that read it, so a fault fails those checks
    action = cache(lambda mu: hl.bt_word_action(mu, hl.n_stat(mu)))
    extra = {"max_size": maxsz}
    checks = [
        _check("kostka-charge", _scan(_kostka_charge_cases(grid, action)),
               extra),
        _check("p-expansion", _scan(_p_expansion_cases(grid, action)),
               extra),
        _check("rodrigues-t0", _scan(
            None if hl.bt_word_action(mu, 0) == {mu: {0: 1}}
            else {"mu": list(mu)} for mu in grid), extra),
        _check("monomial-t1", _scan(_monomial_t1_cases(grid)), extra),
    ]
    span = 1 if cfg["quick"] else 2
    monos = [()] + [(k,) for k in range(-span, span + 1)]
    monos += gen_partitions_box(2, -span, span)
    samples = [hl.tr_from_r(r_monomial(m)) for m in monos]
    pairs = [(m, n, f, {"m": m, "n": n, "monomial": list(mono)})
             for m, n in itertools.product(range(-2, 3), repeat=2)
             for mono, f in zip(monos, samples)]
    checks.append(_check("defining-relation", _scan(
        None if hl.bt_commutator_check(m, n, 2, f) else bad
        for m, n, f, bad in pairs), {"T": 2}))
    checks.append(_check("bar-commutation", _scan(
        None if hl.bt_bar_apply(m, hl.bt_apply(n, f, 2), 2)
        == hl.bt_apply(n, hl.bt_bar_apply(m, f, 2), 2) else bad
        for m, n, f, bad in pairs), {"T": 2}))
    return checks


# ---------------------------------------------------------------- annihilator

def _annihilator_cases(span):
    for n in (1, 2, 3):
        rels = annihilator_relations(n)
        for lam in gen_partitions_box(n, -span, span):
            zl = z_schur(lam)
            for rel in rels:
                yield None if apply_delem(rel, zl) == {} else {
                    "n": n, "lam": list(lam), "relation": delem_to_json(rel)}


def _row_operator_cases(span):
    # the DElem route to h_k(gamma^+/-) against the direct operator
    for n in (1, 2, 3):
        for lam in gen_partitions_box(n, -span, span):
            zl = z_schur(lam)
            for sign, k in itertools.product((1, -1), (1, 2, 3)):
                via = apply_delem(h_delem(sign, k), zl)
                yield None if via == h_operator(sign, k)(zl) else {
                    "lam": list(lam), "sign": sign, "k": k}


def _suite_annihilator(cfg):
    span = 1 if cfg["quick"] else 2
    extra = {"entry_span": span}
    return [_check("relations-annihilate", _scan(_annihilator_cases(span)),
                   extra),
            _check("row-operators", _scan(_row_operator_cases(span)), extra)]


SUITES = {
    "bicrystal": _suite_bicrystal,
    "duality-en": _suite_duality_en,
    "pieri": _suite_pieri,
    "s-action": _suite_s_action,
    "ore": _suite_ore,
    "extremal": _suite_extremal,
    "hl": _suite_hl,
    "annihilator": _suite_annihilator,
}


def run(suite, seed, quick):
    """Run one named suite, or every suite for "all", and return the report.

    Each suite's time goes to stderr, so the report is reproducible per
    seed.
    """
    names = list(SUITES) if suite == "all" else [suite]
    cfg = {"seed": seed, "quick": quick}
    checks = []
    for name in names:
        t0 = time.perf_counter()
        part = SUITES[name](cfg)
        print("%s: %d check(s) in %.2fs" % (name, len(part),
                                            time.perf_counter() - t0),
              file=sys.stderr)
        for entry in part:
            entry["suite"] = name
        checks.extend(part)
    ok = all(entry["status"] == "pass" for entry in checks)
    return {"suite": suite, "seed": seed, "quick": quick,
            "status": "pass" if ok else "fail", "checks": checks}
