import itertools
import random

import pytest

from crystal_lr import characters, shapes


def test_laurent_schur_basics():
    assert characters.laurent_schur((0, 0)) == {(0, 0): 1}
    assert characters.laurent_schur((1, 0)) == {(1, 0): 1, (0, 1): 1}
    assert characters.laurent_schur((0, -1)) == {(-1, 0): 1, (0, -1): 1}
    assert characters.laurent_schur(()) == {(): 1}
    s21 = characters.laurent_schur((2, 1, 0))
    assert s21[(1, 1, 1)] == 2
    assert sum(s21.values()) == shapes.num_sst((2, 1), 3)


def test_laurent_schur_shift_invariance():
    for lam in [(1, -1), (2, 0, -2), (0, -1)]:
        base = characters.laurent_schur(lam)
        n = len(lam)
        for p in (1, 2):
            shifted = characters.laurent_schur(tuple(x + p for x in lam))
            back = {tuple(e - p for e in exps): c for exps, c in shifted.items()}
            assert back == base


def test_laurent_schur_symmetric():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randrange(2, 5)
        lam = tuple(sorted((rng.randrange(-2, 3) for _ in range(n)),
                           reverse=True))
        assert characters.is_symmetric(characters.laurent_schur(lam))


def test_schur_product_matches_lr():
    n = 3
    mu, nu = (2, 1), (1, 1)
    prod = characters.lp_mul(
        characters.laurent_schur(shapes._pad(mu, n)),
        characters.laurent_schur(shapes._pad(nu, n)))
    expect = {}
    for lam in shapes.partitions_of(sum(mu) + sum(nu), max_length=n):
        c = shapes.lr_coefficient(lam, mu, nu)
        if c:
            expect = shapes.lin_add(
                expect, characters.laurent_schur(shapes._pad(lam, n)), c)
    assert prod == expect


def test_branch_split_frozen():
    assert characters.branch_split((1, 0), 1, 1) == {
        ((1,), (0,)): 1, ((0,), (1,)): 1}
    assert characters.branch_split((0, 0), 1, 1) == {((0,), (0,)): 1}
    assert characters.branch_split((1, -1), 1, 1) == {
        ((1,), (-1,)): 1, ((0,), (0,)): 1, ((-1,), (1,)): 1}


def test_branch_split_matches_gen_lr():
    for total in (2, 3, 4):
        for m in range(1, total):
            n = total - m
            for lam in itertools.product(range(2, -3, -1), repeat=total):
                if not shapes.is_gen_partition(lam):
                    continue
                split = characters.branch_split(lam, m, n)
                for (mu, nu), c in split.items():
                    assert c == shapes.gen_lr_coefficient(lam, mu, nu), \
                        (lam, mu, nu)
                # completeness: total dimension in split variables
                assert sum(c for c in split.values()) >= 1


def test_hl_p_frozen():
    assert characters.hall_littlewood_P((1, 1), 2) == {(1, 1): {0: 1}}
    p2 = characters.hall_littlewood_P((2,), 2)
    assert p2 == {(2, 0): {0: 1}, (0, 2): {0: 1}, (1, 1): {0: 1, 1: -1}}


def test_hl_p_specializations():
    for mu in [(2,), (1, 1), (2, 1), (3, 1)]:
        nv = sum(mu)
        assert characters.hall_littlewood_P(mu, nv, t=0) == \
            characters.laurent_schur(shapes._pad(mu, nv))
        mono = characters.hall_littlewood_P(mu, nv, t=1)
        expect = {}
        for perm in set(itertools.permutations(shapes._pad(mu, nv))):
            expect[perm] = 1
        assert mono == expect


def test_hl_p_length_overflow():
    with pytest.raises(ValueError):
        characters.hall_littlewood_P((1, 1, 1), 2)


def test_schur_to_hl_matches_charge():
    for lam in [(2,), (1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        nv = sum(lam)
        exp = characters.schur_to_hl(lam, nv)
        for mu in shapes.partitions_of(sum(lam)):
            want = shapes.kostka_foulkes(lam, mu)
            got = exp.get(mu, {})
            if len(mu) > nv:
                continue
            assert got == want, (lam, mu)
