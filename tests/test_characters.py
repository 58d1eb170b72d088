import itertools
import random
from functools import cache

import pytest

from crystal_lr import characters, shapes
from crystal_lr.characters import _hl_p, lp_lift, lp_mul
from duality import inversion_sign
from test_shapes import filtered_horizontal_strips_below


# Retired from src/ (the characters module now reads both from the tableau
# crystal), kept as oracles: the bialternant ratio with exact division by
# each x_i - x_j, and the branching expansion that peels lex-maximal terms.

def _alternant(avec):
    n = len(avec)
    out = {}
    for perm in itertools.permutations(range(n)):
        exps = tuple(avec[perm[i]] for i in range(n))
        shapes.bump(out, exps, inversion_sign(perm))
    return out


def _divide_linear(f, i, j):
    """Exact division by (x_i - x_j); exponents must stay nonnegative."""
    f = dict(f)
    out = {}
    while f:
        e = max(f, key=lambda t: (t[i], t))
        c = f[e]
        if e[i] == 0:
            raise ArithmeticError("division by x_%d - x_%d not exact" % (i, j))
        q = list(e)
        q[i] -= 1
        q = tuple(q)
        shapes.bump(out, q, c)
        del f[e]
        r = list(q)
        r[j] += 1
        shapes.bump(f, tuple(r), c)
    return out


def bialternant_schur(lam):
    """Laurent Schur polynomial of a generalized partition, one variable per
    entry: (x_1...x_n)^{-p} s_{lam+(p^n)} for any p making the shift a
    partition."""
    lam = tuple(lam)
    n = len(lam)
    if n == 0:
        return {(): 1}
    if not shapes.is_gen_partition(lam):
        raise ValueError("not weakly decreasing: %r" % (lam,))
    p = max(0, -lam[-1])
    avec = tuple(lam[i] + p + (n - 1 - i) for i in range(n))
    f = _alternant(avec)
    for i in range(n):
        for j in range(i + 1, n):
            f = _divide_linear(f, i, j)
    if p:
        f = {tuple(x - p for x in e): c for e, c in f.items()}
    return f


def peel_split(lam, m, n):
    """Expand s_lam(x_1..x_{m+n}) into s_mu(x_1..x_m) * s_nu(x_{m+1}..x_{m+n}).

    Returns {(mu, nu): coeff} with mu, nu generalized partitions of lengths
    m and n.  Peels the lexicographically maximal term; its exponent blocks
    are always dominant, so elimination is triangular.
    """
    if m < 1 or n < 1:
        raise ValueError("both alphabets must be nonempty")
    if len(lam) != m + n:
        raise ValueError("lam must have length m+n")
    f = dict(bialternant_schur(lam))
    out = {}
    while f:
        e = max(f)
        mu, nu = e[:m], e[m:]
        assert shapes.is_gen_partition(mu) and shapes.is_gen_partition(nu)
        c = f[e]
        out[(mu, nu)] = c
        prod = lp_mul(lp_lift(bialternant_schur(mu), m + n, 0),
                      lp_lift(bialternant_schur(nu), m + n, m))
        f = shapes.lin_add(f, prod, -c)
    return out


# The strip-by-size loop of _hl_p, retired from src/ (_hl_p now walks the
# partitions interlacing mu once, for every strip size at once), kept as
# its oracle.  Its strips come from the filtered oracle of test_shapes, not
# from the walker that _hl_p reads.

@cache
def strip_by_size_hl_p(mu, nvars):
    if not mu:
        return {(0,) * nvars: {0: 1}}
    if nvars == 0:
        return {}
    out = {}
    for k in range(sum(mu) + 1):
        for nu in filtered_horizontal_strips_below(mu, k):
            psi = characters._psi(mu, nu)
            for e, tp in strip_by_size_hl_p(nu, nvars - 1).items():
                shapes.bump_poly(out, e + (k,), shapes.tpoly_mul(tp, psi))
    return out


def test_hl_p_is_the_strip_by_size_loop():
    cases = 0
    for n in range(7):
        for mu in shapes.partitions_of(n):
            for nvars in range(5):
                assert _hl_p(mu, nvars) == strip_by_size_hl_p(mu, nvars), (
                    mu, nvars)
                cases += 1
    assert cases == 150


# Moved from src/, where only these tests used them.

def lp_swap(a, i, j):
    """Swap variables i and j."""
    out = {}
    for e, c in a.items():
        f = list(e)
        f[i], f[j] = f[j], f[i]
        out[tuple(f)] = c
    return out


def is_symmetric(a):
    if not a:
        return True
    n = len(next(iter(a)))
    return all(lp_swap(a, i, i + 1) == a for i in range(n - 1))


def hall_littlewood_P(mu, nvars, t=None):
    """Hall-Littlewood P polynomial in nvars variables.

    With t=None the coefficients are TPoly dicts; an integer t specializes
    them (t=0 gives the Schur polynomial, t=1 the monomial one).
    """
    mu = shapes.normalize(mu)
    if len(mu) > nvars:
        raise ValueError("shape needs more than %d variables" % nvars)
    raw = _hl_p(mu, nvars)
    if t is None:
        return {e: dict(tp) for e, tp in raw.items()}
    out = {}
    for e, tp in raw.items():
        v = sum(c * t ** k for k, c in tp.items())
        if v:
            out[e] = v
    return out


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
        assert is_symmetric(characters.laurent_schur(lam))


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


def test_laurent_schur_matches_bialternant():
    for length in range(4):
        for lam in shapes.gen_partitions_box(length, -2, 3):
            assert characters.laurent_schur(lam) == bialternant_schur(lam), lam


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


def test_branch_split_matches_peel():
    for total in (2, 3, 4):
        for m in range(1, total):
            for lam in shapes.gen_partitions_box(total, -2, 2):
                assert characters.branch_split(lam, m, total - m) == \
                    peel_split(lam, m, total - m), (lam, m)


def test_branch_split_is_complete():
    # dimension identity: the split accounts for every tableau of lam
    def dim(gen, nvars):
        q = max(0, -gen[-1])
        return shapes.num_sst(tuple(x + q for x in gen), nvars)

    for total in (2, 3, 4):
        for m in range(1, total):
            n = total - m
            for lam in shapes.gen_partitions_box(total, -2, 2):
                split = characters.branch_split(lam, m, n)
                assert sum(c * dim(mu, m) * dim(nu, n)
                           for (mu, nu), c in split.items()) == \
                    dim(lam, total), (lam, m)


def test_bad_input_is_a_value_error():
    for lam in [(0, 1), (2, -1, 0)]:
        with pytest.raises(ValueError):
            characters.laurent_schur(lam)
    for lam, m, n in [((1, 0), 0, 2), ((1, 0), 2, 0), ((1, 0, 0), 1, 1),
                      ((0, 1), 1, 1)]:
        with pytest.raises(ValueError):
            characters.branch_split(lam, m, n)


def test_hl_p_frozen():
    assert hall_littlewood_P((1, 1), 2) == {(1, 1): {0: 1}}
    p2 = hall_littlewood_P((2,), 2)
    assert p2 == {(2, 0): {0: 1}, (0, 2): {0: 1}, (1, 1): {0: 1, 1: -1}}


def test_hl_p_specializations():
    for mu in [(2,), (1, 1), (2, 1), (3, 1)]:
        nv = sum(mu)
        assert hall_littlewood_P(mu, nv, t=0) == \
            characters.laurent_schur(shapes._pad(mu, nv))
        mono = hall_littlewood_P(mu, nv, t=1)
        expect = {}
        for perm in set(itertools.permutations(shapes._pad(mu, nv))):
            expect[perm] = 1
        assert mono == expect


def test_hl_p_length_overflow():
    with pytest.raises(ValueError):
        hall_littlewood_P((1, 1, 1), 2)


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
