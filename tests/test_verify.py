"""Each verify suite must be able to fail.

A mutant of one implementation, patched into crystal_lr.verify's namespace,
makes one named check fail.  The report must say so through the CLI, carry
the counterexample, and count the cases run up to and including the first
failing one.
"""

import itertools
import json
import random
from functools import cache

import pytest

from crystal_lr import characters, cli, matrices, verify
from crystal_lr.lr_engine import ExtremalClass
from crystal_lr.shapes import (bump, conjugate, gen_partitions_box, lin_add,
                               partitions_of)
from crystal_lr.verify import _cut_level0, _geometry_factor


def _drop_first_class(fn):
    def mutant(*args, **kwargs):
        dec = dict(fn(*args, **kwargs))
        if dec:
            del dec[next(iter(dec))]
        return dec
    return mutant


def _drop_last_of_several_terms(fn):
    def mutant(a, b):
        out = dict(fn(a, b))
        if len(out) > 1:
            del out[list(out)[-1]]
        return out
    return mutant


def _flip_sign(fn):
    return lambda sign, mu: fn(-sign, mu)


def _off_by_one_off_diagonal(fn):
    def mutant(lam, mu):
        kp = fn(lam, mu)
        return kp if lam == mu else lin_add(kp, {0: 1})
    return mutant


def _nonzero(fn):
    return lambda rel, f: {((0,),): 1}


def _kill_all(fn):
    return lambda d, f: {}


def _only_at_top_left_zero(fn):
    return lambda A, l: fn(A, l) if A.entries[0][0] == 0 else None


def _cap_lowering_at_top_left_zero(fn):
    """_only_at_top_left_zero on codes: cap steps lower only codes whose
    bit 0, the top-left entry, is clear."""
    def mutant(family, nrows, ncols, at):
        step = fn(family, nrows, ncols, at)
        if family != "cap":
            return step

        def cap(x):
            up, down = step(x)
            return up, down if x & 1 == 0 else None
        return cap
    return mutant


MUTANTS = [
    # every prediction loses a class, so the first case fails
    ("pieri", "pieri_column", _drop_first_class, "column-pieri", 1,
     {"lam": [-1, -1], "a": 1, "dual": False}),
    # s^+_() = s^-_() = 1, so the two empty-strip cases of the first lam
    # pass and mu = (1) with sign +1 is the first to fail
    ("s-action", "s_operator", _flip_sign, "skew-action", 3,
     {"n": 1, "lam": [-2], "mu": [1], "sign": 1}),
    # s^+_1 z_{-5} has two normal-ordered terms; losing one breaks the
    # first commutator
    ("ore", "d_multiply", _drop_last_of_several_terms, "commutators", 1,
     {"n": 1, "k": -5, "sign": 1}),
    ("extremal", "hw_past_level0", _drop_first_class, "character-identity",
     1, {"rho": [], "sigma": [], "tau": [], "p": 1, "q": 1}),
    # mu = (1) and (2) have only the diagonal shape; mu = (1,1), the third
    # grid entry, is the first with lam != mu
    ("hl", "kostka_foulkes", _off_by_one_off_diagonal, "kostka-charge", 3,
     {"mu": [1, 1], "T": 1}),
    ("annihilator", "apply_delem", _nonzero, "relations-annihilate", 1,
     {"n": 1, "lam": [-1]}),
    # an action that kills everything annihilates every relation; the DElem
    # route to h_1(gamma^+) z_(-1) = z_0 is the first to differ
    ("annihilator", "apply_delem", _kill_all, "row-operators", 1,
     {"lam": [-1], "sign": 1, "k": 1}),
    # every column move keeps the first matrix's corner 1, so the mutant
    # acts on neither side of any square there; on the second, lowering
    # column color 1 empties the corner and only one side acts
    ("bicrystal", "code_step", _cap_lowering_at_top_left_zero, "commutation",
     2,
     {"column_color": 1, "row_color": 1, "column_op": "lower",
      "row_op": "lower"}),
    # the count is the 2 x 4 matrices walked, 2^8; the dropped component
    # is the first matrix's, the zero matrix alone
    ("duality-en", "bicrystal_components", _drop_first_class, "census", 256,
     {"weight": [0, 0, 0, 0], "size": 1, "got": 0, "expected": 1}),
]


# a test id is the suite's name, with the check's name after a suite's first
# mutant
_IDS = []
for m in MUTANTS:
    _IDS.append(m[0] if m[0] not in _IDS else "%s-%s" % (m[0], m[3]))


@pytest.mark.parametrize("suite,name,mutate,check,count,where", MUTANTS,
                         ids=_IDS)
def test_suite_catches_mutant(monkeypatch, capsys, suite, name, mutate,
                              check, count, where):
    monkeypatch.setattr(verify, name, mutate(getattr(verify, name)))
    assert cli.main(["verify", suite, "--quick"]) == 1
    out = capsys.readouterr().out
    report = json.loads(out)
    # the failure report, exception strings included, is what json.dumps
    # prints
    assert out == json.dumps(report, ensure_ascii=False, indent=2) + "\n"
    assert report["status"] == "fail"
    (entry,) = [c for c in report["checks"] if c["name"] == check]
    assert entry["status"] == "fail"
    assert entry["count"] == count
    bad = entry["counterexample"]
    assert {k: bad[k] for k in where} == where




def _flip_one_odd_term(degree_ok):
    """A mode mutant: on a single monomial whose degree passes degree_ok,
    flip the sign of its j = 0, d = 1 term that lowers the first entry."""
    def mutate(fn):
        def mutant(k, f, T):
            out = {e: dict(sl) for e, sl in fn(k, f, T).items()}
            terms = [(e, z, c) for e, sl in f.items() for z, c in sl.items()]
            if len(terms) == 1 and degree_ok(len(terms[0][1])):
                (e, z, c), = terms
                key = tuple(sorted((k + 1, z[0] - 1, *z[1:]), reverse=True))
                bump(out.setdefault(e, {}), key, 2 * c)
            return {e: sl for e, sl in out.items() if sl}
        return mutant
    return mutate


def _drop_one_top_slice_term(fn):
    def mutant(k, f, T):
        out = {e: dict(sl) for e, sl in fn(k, f, T).items()}
        if out:
            top = out[max(out)]
            del top[next(iter(top))]
        return {e: sl for e, sl in out.items() if sl}
    return mutant


@pytest.mark.parametrize("mutate,failed,errors", [
    (_flip_one_odd_term(lambda degree: degree >= 2),
     {"defining-relation": 5, "bar-commutation": 5}, set()),
    (_drop_one_top_slice_term,
     {"kostka-charge": 1, "p-expansion": 1, "rodrigues-t0": 1,
      "monomial-t1": 1, "defining-relation": 2, "bar-commutation": 2},
     set()),
    # on the word actions' path the mutant leaves the action of (1, 1),
    # the third grid entry, outside the finite z-Schur span; each check
    # that builds it reports the error
    (_flip_one_odd_term(lambda degree: degree == 1),
     {"kostka-charge": 3, "p-expansion": 3, "rodrigues-t0": 3,
      "monomial-t1": 3, "defining-relation": 1, "bar-commutation": 2},
     {"kostka-charge", "p-expansion", "rodrigues-t0"}),
], ids=["flip-odd-d", "drop-top-term", "flip-degree-1"])
def test_hl_suite_catches_mode_mutant(monkeypatch, capsys, mutate, failed,
                                      errors):
    # every hl check reaches the mode through the module, verify.hl
    monkeypatch.setattr(verify.hl, "bt_apply", mutate(verify.hl.bt_apply))
    assert cli.main(["verify", "hl", "--quick"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    bad = [c for c in report["checks"] if c["status"] == "fail"]
    assert {c["name"]: c["count"] for c in bad} == failed
    assert {c["name"] for c in bad
            if c["counterexample"].get("error", "").startswith(
                "ValueError: not a finite z-Schur combination")} == errors


# the commutation check as it was before it read code_step: the four
# operators on BinaryMatrix objects
def retired_commutation_cases(rng, count):
    colops = (("lower", matrices.matrix_lower),
              ("raise", matrices.matrix_raise))
    rowops = (("lower", matrices.cap_lower), ("raise", matrices.cap_raise))
    then = lambda op, A, c: None if A is None else op(A, c)
    for _ in range(count):
        A = matrices.BinaryMatrix(1, 1, [
            tuple(rng.randint(0, 1) for _ in range(7)) for _ in range(4)])
        cols = {(k, cn, cop): cop(A, k)
                for k in range(1, 7) for cn, cop in colops}
        rows = {(l, rn, rop): rop(A, l)
                for l in range(1, 4) for rn, rop in rowops}
        yield next(({"matrix": matrices.format_matrix(A), "column_color": k,
                     "row_color": l, "column_op": cn, "row_op": rn}
                    for (k, cn, cop), (l, rn, rop)
                    in itertools.product(cols, rows)
                    if then(rop, cols[k, cn, cop], l)
                    != then(cop, rows[l, rn, rop], k)), None)


@pytest.mark.parametrize("mutated", [False, True],
                         ids=["sound", "cap-lowering-at-top-left-zero"])
def test_commutation_steps_match_retired_operators(monkeypatch, mutated):
    # seed 0's quick matrices, each route mutated in its own terms
    if mutated:
        monkeypatch.setattr(matrices, "cap_lower",
                            _only_at_top_left_zero(matrices.cap_lower))
        monkeypatch.setattr(verify, "code_step",
                            _cap_lowering_at_top_left_zero(verify.code_step))
    want = list(retired_commutation_cases(random.Random(0), 500))
    assert any(want) == mutated
    assert list(verify._commutation_cases(random.Random(0), 500)) == want


def test_bicrystal_suite_calls_no_matrix_operator(monkeypatch):
    def refuse(*args):
        raise RuntimeError("a matrix operator was called")
    # _act too, as the operators' bindings in other modules reach it
    for name in ("matrix_lower", "matrix_raise", "cap_lower", "cap_raise",
                 "_act"):
        monkeypatch.setattr(matrices, name, refuse)
    (entry,) = verify.SUITES["bicrystal"]({"seed": 0, "quick": True})
    assert entry["status"] == "pass" and entry["count"] == 500


def _raise_at_third(exc_type):
    yield None
    yield None
    raise exc_type("case three")


@pytest.mark.parametrize("exc_type", [ValueError, AssertionError])
def test_scan_reports_a_raising_case(exc_type):
    assert verify._scan(_raise_at_third(exc_type)) == (
        3, {"error": "%s: case three" % exc_type.__name__})


def test_duality_en_reports_a_raising_census(monkeypatch, capsys):
    def raising(mats, col_colors, row_colors):
        raise ValueError("no unique doubly-source")
    monkeypatch.setattr(verify, "bicrystal_components", raising)
    assert cli.main(["verify", "duality-en", "--quick"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["status"] == "fail"
    # the 2 x 4 matrices walked, 2^8
    assert entry["count"] == 256
    assert entry["counterexample"] == {
        "error": "ValueError: no unique doubly-source"}


# the character identity's block as it was before it read hw_past_level0's
# classes directly: targets keyed by ExtremalClass and grouped by size
def retired_identity_block(rho, p, q, degree, szleft, past):
    """Compare, coefficient by coefficient up to the stated level-0 degree,
    the weighted sum of decomposition multiplicities landing on each target
    class over the fixed highest weight leg against the closed product form;
    one case per target class."""
    m = len(rho)
    total = m + p + q
    zero = (0,) * total

    @cache
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
    tkey = {t: ExtremalClass(t[0], t[1], rho) for t in targets}
    lob = (rho[-1] if rho else 0) - degree - 1
    hib = (rho[0] if rho else 0) + degree + 1
    lhs = {t: {} for t in targets}
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
                    dec = past(lam, mu, nu)
                    term = None
                    for t in tlist:
                        c = dec.get(tkey[t], 0)
                        if not c:
                            continue
                        if term is None:
                            term = characters.lp_mul(lift(lam, 0), base)
                        lhs[t] = lin_add(lhs[t], term, c)
    rhs_base = characters.lp_mul(lift(rho, 0),
                                 _geometry_factor(m, p, q, degree))
    for sigma, tau in targets:
        rhs = characters.lp_mul(characters.lp_mul(rhs_base,
                                                  spart(sigma, p, m)),
                                spart(tau, q, m + p))
        same = (_cut_level0(lhs[(sigma, tau)], m, degree)
                == _cut_level0(rhs, m, degree))
        yield None if same else {"rho": list(rho), "sigma": list(sigma),
                                 "tau": list(tau), "p": p, "q": q}


def _drop_sigma_classes(fn):
    def mutant(lam, mu, nu):
        return {cls: c for cls, c in fn(lam, mu, nu).items() if not cls.mu}
    return mutant


# the quick grid under hw_past_level0 and two mutants of it; the full grid
# only unmutated, to keep the time down
@pytest.mark.parametrize("degree,budget,mutate", [
    (1, 2, None), (1, 2, _drop_first_class), (1, 2, _drop_sigma_classes),
    (2, 4, None),
], ids=["quick", "quick-drop-first", "quick-drop-sigma", "full"])
def test_identity_block_matches_retired_block(monkeypatch, degree, budget,
                                              mutate):
    # every block _character_identity_cases builds, with its own past
    blocks = []
    monkeypatch.setattr(verify, "_identity_block",
                        lambda *args: blocks.append(args) or iter(()))
    if mutate is not None:
        monkeypatch.setattr(verify, "hw_past_level0",
                            mutate(verify.hw_past_level0))
    list(verify._character_identity_cases(degree, budget))
    monkeypatch.undo()
    failures = 0
    for args in blocks:
        new = list(verify._identity_block(*args))
        assert new == list(retired_identity_block(*args)), args[:5]
        failures += sum(bad is not None for bad in new)
    assert (failures > 0) == (mutate is not None)
