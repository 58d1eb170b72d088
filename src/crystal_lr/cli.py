"""Command line front end.

One executable covers the multiplicity calculators (lr, genlr,
kostka-foulkes), the tensor product engine (decompose, pieri, extremal-lr),
the Hall-Littlewood action on the z-ring (hl-act), and the named
verification suites (verify).  Results are UTF-8 JSON on stdout, or
indented key/value text with --format table; timings and other diagnostics
go to stderr, so stdout is byte for byte reproducible per seed.

Shapes are comma-separated integers; the empty shape may be written "" or
"0".  Exit codes: 0 success, 1 a verification check failed (its report
carries the first counterexample in full), 2 malformed input naming the
offending token, 3 a tensor product mixing positive and negative levels.
"""

import argparse
import itertools
import json
import random
import sys
import time

from . import characters, ring, shapes
from . import hall_littlewood as hl
from .crystal import (decompose_components, enumerate_sst, hw_tableau,
                      tableau_word, weight)
from .lr_engine import (ExtremalClass, MixedLevelError, decomposition_to_json,
                        expr_decompose, extremal_lr, hw_past_level0,
                        parse_tensor_expr, pieri_column, verify_truncated)
from .matrices import (BinaryMatrix, bicrystal_components, cap_lower,
                       cap_raise, enumerate_matrices, format_matrix,
                       matrix_lower, matrix_raise)
from .shapes import (conjugate, gen_lr_coefficient, gen_partitions_box,
                     kostka_foulkes, lin_add, lr_coefficient, mu_star,
                     num_sst, partitions_of, tpoly_pairs)


# ---------------------------------------------------------------- output

def _scalar(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if isinstance(v, (list, dict)):
        return json.dumps(v, ensure_ascii=False)
    return str(v)


def _table_lines(payload, indent, lines):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            nested = isinstance(v, dict) or (
                isinstance(v, list)
                and any(isinstance(x, (dict, list)) for x in v))
            if nested and v:
                lines.append("%s%s:" % (pad, k))
                _table_lines(v, indent + 1, lines)
            else:
                lines.append("%s%s: %s" % (pad, k, _scalar(v)))
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % pad)
                _table_lines(v, indent + 1, lines)
            else:
                lines.append("%s- %s" % (pad, _scalar(v)))
    else:
        lines.append("%s%s" % (pad, _scalar(payload)))


def _emit(payload, fmt):
    if fmt == "table":
        lines = []
        _table_lines(payload, 0, lines)
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        json.dump(payload, sys.stdout, ensure_ascii=False, indent=2)
        sys.stdout.write("\n")


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
    return 0, {"c": lr_coefficient(lam, mu, nu)}


def cmd_genlr(args):
    lam = shapes.parse_gen_partition(args.lam)
    mu = shapes.parse_gen_partition(args.mu)
    nu = shapes.parse_gen_partition(args.nu)
    return 0, {"c": gen_lr_coefficient(lam, mu, nu)}


def cmd_kostka_foulkes(args):
    lam = shapes.parse_gen_partition(args.lam)
    mu = shapes.parse_gen_partition(args.mu)
    return 0, {"tpoly": tpoly_pairs(kostka_foulkes(lam, mu))}


def cmd_decompose(args):
    factors = parse_tensor_expr(args.expr)
    hws = [f[1] for f in factors if f[0] in ("B", "Bdual")]
    lo, hi = _entry_window(hws, args.margin)
    dec = expr_decompose(factors, (lo, hi))
    return 0, {"window": [lo, hi], "classes": decomposition_to_json(dec)}


def cmd_pieri(args):
    lam = shapes.parse_gen_partition(args.lam)
    dec = pieri_column(lam, args.a, dual=args.dual)
    return 0, {"dual": args.dual, "classes": decomposition_to_json(dec)}


def cmd_extremal_lr(args):
    lam = shapes.parse_gen_partition(args.lam)
    mu = shapes.parse_partition(args.mu)
    nu = shapes.parse_partition(args.nu)
    rho = shapes.parse_gen_partition(args.rho)
    sigma = shapes.parse_partition(args.sigma)
    tau = shapes.parse_partition(args.tau)
    lo, hi = _entry_window([lam, rho], args.margin)
    dec = extremal_lr(lam, mu, nu, rho, sigma, tau, (lo, hi))
    return 0, {"window": [lo, hi], "classes": decomposition_to_json(dec)}


def _n_stat(mu):
    return sum(i * part for i, part in enumerate(mu))


def cmd_hl_act(args):
    mu = shapes.parse_gen_partition(args.mu)
    T = args.T if args.T is not None else max(0, _n_stat(mu))
    if T < 0:
        raise ValueError("truncation order must be nonnegative")
    exp = hl.bt_word_action(mu, T)
    terms = [{"lambda": list(lam), "tpoly": tpoly_pairs(exp[lam])}
             for lam in sorted(exp)]
    return 0, {"basis": "z-schur", "T": T, "terms": terms}


def cmd_verify(args):
    if args.suite == "all":
        todo = list(_SUITES.items())
    else:
        todo = [(args.suite, _SUITES[args.suite])]
    cfg = {"seed": args.seed, "quick": args.quick}
    checks = []
    for name, fn in todo:
        t0 = time.perf_counter()
        part = fn(cfg)
        print("%s: %d check(s) in %.2fs" % (name, len(part),
                                            time.perf_counter() - t0),
              file=sys.stderr)
        for entry in part:
            entry["suite"] = name
        checks.extend(part)
    ok = all(entry["status"] == "pass" for entry in checks)
    report = {"suite": args.suite, "seed": cfg["seed"], "quick": cfg["quick"],
              "status": "pass" if ok else "fail", "checks": checks}
    return (0 if ok else 1), report


# ---------------------------------------------------------------- suites

def _check(name, ok, count, extra=None, counterexample=None):
    entry = {"name": name, "status": "pass" if ok else "fail",
             "count": count}
    if extra:
        entry.update(extra)
    if not ok and counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


def _suite_bicrystal(cfg):
    rng = random.Random(cfg["seed"])
    count = 500 if cfg["quick"] else 10000
    colops = (("lower", matrix_lower), ("raise", matrix_raise))
    rowops = (("lower", cap_lower), ("raise", cap_raise))
    bad = None
    for _ in range(count):
        A = BinaryMatrix(1, 1, [tuple(rng.randint(0, 1) for _ in range(7))
                                for _ in range(4)])
        if bad:
            break
        rowed = {(l, rn): rop(A, l)
                 for l in range(1, 4) for rn, rop in rowops}
        for k, (cn, cop) in itertools.product(range(1, 7), colops):
            xA = cop(A, k)
            for l, (rn, rop) in itertools.product(range(1, 4), rowops):
                lhs = None if xA is None else rop(xA, l)
                yA = rowed[(l, rn)]
                rhs = None if yA is None else cop(yA, k)
                if lhs != rhs:
                    bad = {"matrix": format_matrix(A), "column_color": k,
                           "row_color": l, "column_op": cn, "row_op": rn}
                    break
            if bad:
                break
    return [_check("commutation", bad is None, count,
                   {"rows": 4, "cols": 7}, bad)]


def _suite_duality_en(cfg):
    nrows, ncols = (2, 4) if cfg["quick"] else (3, 5)
    mats = list(enumerate_matrices(1, nrows, 1, ncols))
    comps = dict(bicrystal_components(mats, col_colors=range(1, ncols),
                                      row_colors=range(1, nrows)))
    expected = {}
    for size in range(nrows * ncols + 1):
        for mu in partitions_of(size, max_part=nrows, max_length=ncols):
            key = mu + (0,) * (ncols - len(mu))
            expected[(key, num_sst(mu, ncols)
                      * num_sst(conjugate(mu), nrows))] = 1
    bad = None
    if comps != expected:
        for key in sorted(set(comps) | set(expected)):
            if comps.get(key, 0) != expected.get(key, 0):
                bad = {"weight": list(key[0]), "size": key[1],
                       "got": comps.get(key, 0),
                       "expected": expected.get(key, 0)}
                break
    return [_check("census", bad is None, len(mats),
                   {"rows": nrows, "cols": ncols}, bad)]


def _suite_pieri(cfg):
    span, amax, window = ((1, 2, (-3, 3)) if cfg["quick"]
                          else (2, 3, (-5, 5)))
    bad = None
    count = 0
    for lam in gen_partitions_box(2, -span, span):
        if bad:
            break
        for a, dual in itertools.product(range(1, amax + 1), (False, True)):
            fac = ("Bmn", (), (1,) * a) if dual else ("Bcol", a)
            rep = verify_truncated([("B", lam), fac], window,
                                   pieri_column(lam, a, dual))
            count += 1
            if rep["status"] != "ok":
                bad = {"lam": list(lam), "a": a, "dual": dual,
                       "report": rep}
                break
    checks = [_check("column-pieri", bad is None, count,
                     {"window": list(window)}, bad)]
    fam = {ExtremalClass((1,) * a, (1,) * (a + 1)): 1 for a in range(4)}
    rep1 = verify_truncated([("B", (0,)), ("Bdual", (1,))], (-3, 3), fam)
    flipped = {ExtremalClass((1,) * (a + 1), (1,) * a): 1 for a in range(4)}
    rep2 = verify_truncated([("B", (1,)), ("Bdual", (0,))], (-4, 4), flipped)
    ok = (rep1["status"] == "ok" and rep1["window"] == [-4, 4]
          and rep2["status"] == "ok")
    checks.append(_check("level-one", ok, 2, {"window": [-4, 4]},
                         None if ok else {"first": rep1, "second": rep2}))
    return checks


def _suite_s_action(cfg):
    span, musz = (2, 3) if cfg["quick"] else (3, 4)
    mus = [mu for s in range(musz + 1) for mu in partitions_of(s)]
    bad = bad_exp = None
    count = count_exp = 0
    for n in (1, 2, 3):
        if bad or bad_exp:
            break
        for lam in gen_partitions_box(n, -span, span):
            zl = ring.z_schur(lam)
            for mu in mus:
                fits = len(mu) <= n
                inner_plus = mu_star(mu, n) if fits else None
                inner_minus = mu + (0,) * (n - len(mu)) if fits else None
                for sign, inner in ((+1, inner_plus), (-1, inner_minus)):
                    got = ring.s_operator(sign, conjugate(mu))(zl)
                    want = ring.z_skew_schur(lam, inner) if fits else {}
                    count += 1
                    if got != want:
                        bad = {"n": n, "lam": list(lam), "mu": list(mu),
                               "sign": sign}
                        break
                    if not fits or not want:
                        continue
                    exp = ring.expand_in_z_schur(want, n)
                    back = {}
                    for eta, c in exp.items():
                        back = lin_add(back, ring.z_schur(eta), c)
                    count_exp += 1
                    if back != want or any(
                            gen_lr_coefficient(lam, inner, eta) != c
                            for eta, c in exp.items()):
                        bad_exp = {"n": n, "lam": list(lam),
                                   "inner": list(inner)}
                        break
                if bad or bad_exp:
                    break
            if bad or bad_exp:
                break
    checks = [
        _check("skew-action", bad is None, count,
               {"entry_span": span, "max_strip": musz}, bad),
        _check("skew-expansion", bad_exp is None, count_exp, None, bad_exp),
    ]
    nmax = 3 if cfg["quick"] else 4
    badh = None
    counth = 0
    for n in range(1, nmax + 1):
        if badh:
            break
        for lam in gen_partitions_box(n, -2, 2):
            zl = ring.z_schur(lam)
            up, down = ring.h_operator(+1, n), ring.h_operator(-1, n)
            ok = (up(zl) == ring.z_schur(tuple(x + 1 for x in lam))
                  and down(zl) == ring.z_schur(tuple(x - 1 for x in lam)))
            if ok:
                for i in range(n + 1):
                    if (up(ring.h_operator(-1, i)(zl))
                            != ring.h_operator(+1, n - i)(zl)):
                        ok = False
                        break
            counth += 1
            if not ok:
                badh = {"n": n, "lam": list(lam)}
                break
    checks.append(_check("h-calculus", badh is None, counth,
                         {"max_rank": nmax}, badh))
    return checks


def _random_dmono(rng):
    z = tuple(sorted((rng.randint(-4, 4)
                      for _ in range(rng.randint(0, 3))), reverse=True))
    sp = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
    sm = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
    return {(z, sp, sm): rng.choice((-2, -1, 1, 2))}


def _suite_ore(cfg):
    nmax = 3 if cfg["quick"] else 5
    bad = None
    count = 0
    for n in range(1, nmax + 1):
        if bad:
            break
        for k in range(-5, 6):
            for sign in (+1, -1):
                s = {((), (n,), ()) if sign > 0 else ((), (), (n,)): 1}
                zk = {((k,), (), ()): 1}
                comm = lin_add(ring.d_multiply(s, zk),
                               ring.d_multiply(zk, s), -1)
                shift = k - n if sign > 0 else k + n
                want = {((shift,), (), ()): 1 if n % 2 else -1}
                count += 1
                if comm != want:
                    bad = {"n": n, "k": k, "sign": sign,
                           "got": ring.delem_to_json(comm)}
                    break
            if bad:
                break
    checks = [_check("commutators", bad is None, count,
                     {"max_mode": nmax}, bad)]
    rng = random.Random(cfg["seed"])
    trips = 100 if cfg["quick"] else 1000
    bad2 = None
    for _ in range(trips):
        a, b, c = (_random_dmono(rng) for _ in range(3))
        left = ring.d_multiply(ring.d_multiply(a, b), c)
        right = ring.d_multiply(a, ring.d_multiply(b, c))
        if left != right:
            bad2 = {"a": ring.delem_to_json(a), "b": ring.delem_to_json(b),
                    "c": ring.delem_to_json(c)}
            break
    checks.append(_check("associativity", bad2 is None, trips, None, bad2))
    return checks


def _lr_oracle_scan(hi, total, maxlen):
    colors = range(1, hi)
    words = {}

    def words_of(mu):
        if mu not in words:
            words[mu] = [tableau_word(t) for t in enumerate_sst(mu, 1, hi)]
        return words[mu]

    count = 0
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
                    count += 1
                    if comps != census:
                        return count, {"mu": list(mu), "nu": list(nu)}
    return count, None


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


def _identity_block(rho, p, q, degree, szleft, cache):
    """Compare, coefficient by coefficient up to the stated level-0 degree,
    the weighted sum of decomposition multiplicities landing on each target
    class over the fixed highest weight leg against the closed product form;
    returns (targets checked, first failing target or None)."""
    m = len(rho)
    total = m + p + q
    zero = (0,) * total

    def lift(gen, offset):
        if not gen:
            return {zero: 1}
        return characters.lp_lift(characters.laurent_schur(gen), total,
                                  offset)

    def spart(part, nvars, offset):
        conj = conjugate(part) + (0,) * nvars
        return lift(conj[:nvars], offset)

    targets = []
    for ssz in range(szleft + 1):
        for sigma in partitions_of(ssz, max_part=p):
            for tsz in range(szleft - ssz + 1):
                for tau in partitions_of(tsz, max_part=q):
                    targets.append((sigma, tau))
    tkey = {t: ExtremalClass(t[0], t[1], rho or None) for t in targets}
    lob = (rho[-1] if rho else 0) - degree - 1
    hib = (rho[0] if rho else 0) + degree + 1
    lhs = {t: {} for t in targets}
    sx = {}
    for mu in (x for s in range(degree + 1)
               for x in partitions_of(s, max_part=p)):
        ymono = spart(mu, p, m)
        for nu in (x for s in range(degree - sum(mu) + 1)
                   for x in partitions_of(s, max_part=q)):
            base = characters.lp_mul(ymono, spart(nu, q, m + p))
            stotals = {}
            for t in targets:
                s = (sum(rho) + sum(t[0]) - sum(t[1]) - sum(mu) + sum(nu))
                stotals.setdefault(s, []).append(t)
            for s, tlist in stotals.items():
                for lam in gen_partitions_box(m, lob, hib, s):
                    key = (lam, mu, nu)
                    if key not in cache:
                        cache[key] = hw_past_level0(lam, mu, nu)
                    dec = cache[key]
                    term = None
                    for t in tlist:
                        c = dec.get(tkey[t], 0)
                        if not c:
                            continue
                        if term is None:
                            if lam not in sx:
                                sx[lam] = lift(lam, 0)
                            term = characters.lp_mul(sx[lam], base)
                        lhs[t] = lin_add(lhs[t], term, c)
    rhs_base = characters.lp_mul(lift(rho, 0),
                                 _geometry_factor(m, p, q, degree))
    checked = 0
    for sigma, tau in targets:
        rhs = characters.lp_mul(characters.lp_mul(rhs_base,
                                                  spart(sigma, p, m)),
                                spart(tau, q, m + p))
        if _cut_level0(lhs[(sigma, tau)], m, degree) != \
                _cut_level0(rhs, m, degree):
            return checked, {"rho": list(rho), "sigma": list(sigma),
                             "tau": list(tau), "p": p, "q": q}
        checked += 1
    return checked, None


def _abs_shapes(length, budget):
    return [lam for lam in gen_partitions_box(length, -budget, budget)
            if sum(abs(x) for x in lam) <= budget]


def _suite_extremal(cfg):
    if cfg["quick"]:
        hi, total, maxlen = 4, 5, 3
        degree, budget = 1, 2
    else:
        hi, total, maxlen = 6, 7, 4
        degree, budget = 2, 4
    count, bad = _lr_oracle_scan(hi, total, maxlen)
    checks = [_check("lr-oracle", bad is None, count,
                     {"letters": hi, "max_total": total}, bad)]
    cache = {}
    checked = 0
    bad2 = None
    for m in (0, 1, 2):
        if bad2:
            break
        for rho in _abs_shapes(m, budget):
            szleft = budget - sum(abs(x) for x in rho)
            for p, q in itertools.product((1, 2), repeat=2):
                n, bad2 = _identity_block(rho, p, q, degree, szleft, cache)
                checked += n
                if bad2:
                    break
            if bad2:
                break
    checks.append(_check("character-identity", bad2 is None, checked,
                         {"degree": degree, "max_total": budget}, bad2))
    return checks


def _suite_hl(cfg):
    maxsz = 4 if cfg["quick"] else 6
    grid = [mu for s in range(1, maxsz + 1)
            for mu in partitions_of(s, max_length=3)]
    hlrows = {}
    bad = {"kostka-charge": None, "p-expansion": None, "rodrigues-t0": None,
           "monomial-t1": None}
    for mu in grid:
        if any(bad.values()):
            break
        n = len(mu)
        T = _n_stat(mu)
        got = hl.bt_word_action(mu, T)
        classical = {shapes.normalize(lam): tp for lam, tp in got.items()
                     if all(x >= 0 for x in lam)}
        wanted = {}
        for lam in partitions_of(sum(mu), max_length=n):
            kp = kostka_foulkes(lam, mu)
            if kp:
                wanted[lam] = kp
        if classical != wanted:
            bad["kostka-charge"] = {"mu": list(mu), "T": T}
            continue
        for lam in partitions_of(sum(mu), max_length=n):
            if (lam, n) not in hlrows:
                hlrows[(lam, n)] = characters.schur_to_hl(lam, n)
            kp = hlrows[(lam, n)].get(mu, {})
            if got.get(lam + (0,) * (n - len(lam)), {}) != kp:
                bad["p-expansion"] = {"mu": list(mu), "lam": list(lam)}
                break
        if bad["p-expansion"]:
            continue
        if hl.bt_word_action(mu, 0) != {mu: {0: 1}}:
            bad["rodrigues-t0"] = {"mu": list(mu)}
            continue
        vals = []
        for extra in (0, 2):
            f = hl.tr_one()
            for mode in reversed(mu):
                f = hl.bt_apply(mode, f, T + extra)
            vals.append(hl.tr_eval(f, 1))
        stable = {k: v for k, v in vals[0].items()
                  if vals[1].get(k) == v}
        if stable.get(mu) != 1 or any(v for k, v in stable.items()
                                      if k != mu):
            bad["monomial-t1"] = {"mu": list(mu), "T": T}
    checks = [_check(name, bad[name] is None, len(grid),
                     {"max_size": maxsz}, bad[name])
              for name in ("kostka-charge", "p-expansion", "rodrigues-t0",
                           "monomial-t1")]
    span = 1 if cfg["quick"] else 2
    monos = [()] + [(k,) for k in range(-span, span + 1)]
    monos += gen_partitions_box(2, -span, span)
    samples = [hl.tr_from_r(ring.r_monomial(m)) for m in monos]
    badr = badb = None
    countr = 0
    for m, n in itertools.product(range(-2, 3), repeat=2):
        if badr or badb:
            break
        for mono, f in zip(monos, samples):
            countr += 1
            if not hl.bt_commutator_check(m, n, 2, f):
                badr = {"m": m, "n": n, "monomial": list(mono)}
                break
            lhs = hl.bt_bar_apply(m, hl.bt_apply(n, f, 2), 2)
            rhs = hl.bt_apply(n, hl.bt_bar_apply(m, f, 2), 2)
            if lhs != rhs:
                badb = {"m": m, "n": n, "monomial": list(mono)}
                break
    checks.append(_check("defining-relation", badr is None, countr,
                         {"T": 2}, badr))
    checks.append(_check("bar-commutation", badb is None, countr,
                         {"T": 2}, badb))
    return checks


def _suite_annihilator(cfg):
    span = 1 if cfg["quick"] else 2
    bad = None
    count = 0
    for n in (1, 2, 3):
        if bad:
            break
        rels = ring.annihilator_relations(n)
        for lam in gen_partitions_box(n, -span, span):
            zl = ring.z_schur(lam)
            for rel in rels:
                count += 1
                if ring.apply_delem(rel, zl) != {}:
                    bad = {"n": n, "lam": list(lam),
                           "relation": ring.delem_to_json(rel)}
                    break
            if bad:
                break
    return [_check("relations-annihilate", bad is None, count,
                   {"entry_span": span}, bad)]


_SUITES = {
    "bicrystal": _suite_bicrystal,
    "duality-en": _suite_duality_en,
    "pieri": _suite_pieri,
    "s-action": _suite_s_action,
    "ore": _suite_ore,
    "extremal": _suite_extremal,
    "hl": _suite_hl,
    "annihilator": _suite_annihilator,
}


# ---------------------------------------------------------------- parser

def _add_flags(p, nested):
    def dflt(v):
        return argparse.SUPPRESS if nested else v

    p.add_argument("--format", choices=("json", "table"),
                   default=dflt("json"), help="output format")
    p.add_argument("--seed", type=int, default=dflt(0),
                   help="seed for the randomized suites")
    p.add_argument("--margin", type=int, default=dflt(2),
                   help="letters added on each side of the default "
                        "index window")
    p.add_argument("--T", type=int, default=dflt(None),
                   help="truncation order in t")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crystal-lr",
        description="Exact multiplicities, tensor product decompositions "
                    "and verification suites for extremal weight crystals.")
    _add_flags(parser, nested=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        _add_flags(p, nested=True)
        p.set_defaults(func=func)
        return p

    p = command("lr", cmd_lr, "Littlewood-Richardson coefficient")
    for name in ("lam", "mu", "nu"):
        p.add_argument(name)

    p = command("genlr", cmd_genlr,
                "LR coefficient for generalized partitions")
    for name in ("lam", "mu", "nu"):
        p.add_argument(name)

    p = command("kostka-foulkes", cmd_kostka_foulkes,
                "Kostka-Foulkes polynomial")
    p.add_argument("lam")
    p.add_argument("mu")

    p = command("decompose", cmd_decompose,
                "decompose a tensor product expression")
    p.add_argument("expr", help='e.g. "B(0) * Bcol(2)" or '
                                '"Bmn(1;) * Bmn(;1)"')

    p = command("pieri", cmd_pieri, "column Pieri decomposition")
    p.add_argument("lam")
    p.add_argument("a", type=int, help="column height")
    p.add_argument("--dual", action="store_true",
                   help="tensor with the dual column")

    p = command("extremal-lr", cmd_extremal_lr,
                "decompose a product of two general classes")
    for name in ("lam", "mu", "nu", "rho", "sigma", "tau"):
        p.add_argument(name)

    p = command("hl-act", cmd_hl_act, "Hall-Littlewood word action on 1")
    p.add_argument("--mu", required=True,
                   help="mode word, weakly decreasing")

    p = command("verify", cmd_verify, "run a named verification suite")
    p.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    p.add_argument("--quick", action="store_true",
                   help="smaller grids and sample counts")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        code, payload = args.func(args)
    except MixedLevelError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
