"""Each verify suite must be able to fail.

A mutant of one implementation, patched into crystal_lr.verify's namespace,
makes one named check fail.  The report must say so through the CLI, carry
the counterexample, and count the cases run up to and including the first
failing one.
"""

import json

import pytest

from crystal_lr import cli, verify
from crystal_lr.shapes import bump, lin_add


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


def _only_at_top_left_zero(fn):
    return lambda A, l: fn(A, l) if A.entries[0][0] == 0 else None


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
    # every column move keeps the first matrix's corner 1, so the mutant
    # acts on neither side of any square there; on the second, lowering
    # column color 1 empties the corner and only one side acts
    ("bicrystal", "cap_lower", _only_at_top_left_zero, "commutation", 2,
     {"column_color": 1, "row_color": 1, "column_op": "lower",
      "row_op": "lower"}),
    # the count is the 2 x 4 matrices walked, 2^8; the first component
    # found, the one dropped, has weight (2, 2, 1, 1)
    ("duality-en", "bicrystal_components", _drop_first_class, "census", 256,
     {"weight": [2, 2, 1, 1], "got": 0, "expected": 1}),
]


@pytest.mark.parametrize("suite,name,mutate,check,count,where", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_suite_catches_mutant(monkeypatch, capsys, suite, name, mutate,
                              check, count, where):
    monkeypatch.setattr(verify, name, mutate(getattr(verify, name)))
    assert cli.main(["verify", suite, "--quick"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    (entry,) = [c for c in report["checks"] if c["name"] == check]
    assert entry["status"] == "fail"
    assert entry["count"] == count
    bad = entry["counterexample"]
    assert {k: bad[k] for k in where} == where




def _flip_one_odd_term(fn):
    """On a single monomial of degree >= 2, flip the sign of its j = 0,
    d = 1 term that lowers the first entry.  A flip on the word actions'
    path (degree 0 or 1 operands) makes an action non-finite in the z-Schur
    basis, and the suite then ends in an error before any check reports."""
    def mutant(k, f, T):
        out = {e: dict(sl) for e, sl in fn(k, f, T).items()}
        terms = [(e, z, c) for e, sl in f.items() for z, c in sl.items()]
        if len(terms) == 1 and len(terms[0][1]) >= 2:
            (e, z, c), = terms
            key = tuple(sorted((k + 1, z[0] - 1, *z[1:]), reverse=True))
            bump(out.setdefault(e, {}), key, 2 * c)
        return {e: sl for e, sl in out.items() if sl}
    return mutant


def _drop_one_top_slice_term(fn):
    def mutant(k, f, T):
        out = {e: dict(sl) for e, sl in fn(k, f, T).items()}
        if out:
            top = out[max(out)]
            del top[next(iter(top))]
        return {e: sl for e, sl in out.items() if sl}
    return mutant


@pytest.mark.parametrize("mutate,failed", [
    (_flip_one_odd_term, {"defining-relation", "bar-commutation"}),
    (_drop_one_top_slice_term, {"kostka-charge", "p-expansion",
                                "rodrigues-t0", "monomial-t1",
                                "defining-relation", "bar-commutation"}),
], ids=["flip-odd-d", "drop-top-term"])
def test_hl_suite_catches_mode_mutant(monkeypatch, capsys, mutate, failed):
    # every hl check reaches the mode through the module, verify.hl
    monkeypatch.setattr(verify.hl, "bt_apply", mutate(verify.hl.bt_apply))
    assert cli.main(["verify", "hl", "--quick"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert {c["name"] for c in report["checks"]
            if c["status"] == "fail"} == failed
