import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from crystal_lr import crystal
from crystal_lr.ring import (_z_rho, annihilator_relations, apply_delem,
                             d_multiply, d_one, delem_to_json,
                             expand_in_z_schur, h_delem, h_operator, omega,
                             p_action, r_monomial, s_operator, z_schur,
                             z_skew_schur)
from crystal_lr.shapes import (bump, conjugate, gen_lr_coefficient,
                               lin_add, mu_star, normalize, partitions_of)
from duality import inversion_sign, r_mul


# ------------------------------------------------ power-sum oracle

@cache
def sym_character(lam, rho):
    """Character value of the symmetric group via border-strip recursion on
    beta numbers."""
    lam = normalize(lam)
    rho = normalize(rho)
    if sum(lam) != sum(rho):
        raise ValueError("size mismatch")
    if not rho:
        return 1
    n = len(lam) if lam else 1
    betas = tuple(lam[i] + n - 1 - i for i in range(len(lam)))
    if not betas:
        betas = (0,)
    r = rho[0]
    total = 0
    bset = set(betas)
    for b in betas:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        crossings = sum(1 for x in betas if nb < x < b)
        new = sorted(bset - {b} | {nb}, reverse=True)
        m = len(new)
        nlam = normalize(tuple(new[i] - (m - 1 - i) for i in range(m)))
        total += (-1 if crossings % 2 else 1) * sym_character(nlam, rho[1:])
    return total


def power_sum_s_operator(sign, mu):
    """The Schur-shape operator through its power-sum expansion
    s_mu = sum_rho chi^mu(rho)/z_rho p_rho, each p_r acting as a p_action
    of the opposite symbol family; results are asserted integral."""
    mu = normalize(mu)
    plan = []
    for rho in partitions_of(sum(mu)):
        chi = sym_character(mu, rho)
        if chi:
            plan.append((Fraction(chi, _z_rho(rho)), rho))
    psign = -sign
    den = math.lcm(*(c.denominator for c, _ in plan)) if plan else 1
    plan = [(int(c * den), rho) for c, rho in plan]

    def act(f):
        total = {}
        for coeff, rho in plan:
            g = f
            for r in rho:
                g = p_action(psign, r, g)
            for k, v in g.items():
                total[k] = total.get(k, 0) + coeff * v
        out = {}
        for k, v in total.items():
            q, r = divmod(v, den)
            if r:
                raise ValueError("non-integral s-operator result")
            if q:
                out[k] = q
        return out

    return act


def test_z_schur_frozen():
    assert z_schur((3,)) == {(3,): 1}
    assert z_schur((-2,)) == {(-2,): 1}
    assert z_schur((1, 0)) == {(1, 0): 1, (2, -1): -1}
    assert z_schur((0, 0)) == {(0, 0): 1, (1, -1): -1}
    assert z_schur((1, 1)) == {(1, 1): 1, (2, 0): -1}
    assert z_schur((2, 0)) == {(2, 0): 1, (3, -1): -1}
    assert z_schur((0, -1)) == {(0, -1): 1, (1, -2): -1}
    assert z_schur((1, -1)) == {(1, -1): 1, (2, -2): -1}
    assert z_schur((3, -1)) == {(3, -1): 1, (4, -2): -1}


def test_z_skew_frozen():
    assert z_skew_schur((0, 0), (0, -1)) == z_schur((1, 0))
    assert z_skew_schur((0, 0), (0, -2)) == {(2, 0): 1, (3, -1): -1}
    assert z_skew_schur((2, 0), (1, 1)) == z_schur((1, -1))
    assert z_skew_schur((1, 0), (1, 0)) == {(0, 0): 1, (2, -2): -1}
    assert z_skew_schur((1, 0), (0, 0)) == z_schur((1, 0))
    with pytest.raises(ValueError):
        z_skew_schur((1, 0), (1,))


# Retired from src/ (z_skew_schur now expands by rows, merging partial
# products), kept as the oracle of the Laplace expansion: Leibniz's sum over
# all n! permutations, each signed by its inversions.

def leibniz_z_skew_schur(lam, mu):
    """det(z_{lam_i - mu_j - i + j}); equal-length index vectors."""
    n = len(lam)
    if len(mu) != n:
        raise ValueError("length mismatch")
    out = {}
    for p in itertools.permutations(range(n)):
        ks = tuple(lam[i] - mu[p[i]] - i + p[i] for i in range(n))
        bump(out, tuple(sorted(ks, reverse=True)), inversion_sign(p))
    return out


def test_z_skew_schur_matches_leibniz_oracle():
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(0, 6)
        lam = tuple(rng.randint(-3, 3) for _ in range(n))
        mu = tuple(rng.randint(-3, 3) for _ in range(n))
        if rng.random() < 0.5:
            lam = tuple(sorted(lam, reverse=True))
            mu = tuple(sorted(mu, reverse=True))
        assert z_skew_schur(lam, mu) == leibniz_z_skew_schur(lam, mu)
    assert z_schur((0,) * 7) == leibniz_z_skew_schur((0,) * 7, (0,) * 7)


def test_expand_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(-3, 3) for _ in range(n)),
                           reverse=True))
        assert expand_in_z_schur(z_schur(lam), n) == {lam: 1}
    f = z_skew_schur((1, 0), (1, 0))
    assert expand_in_z_schur(f, 2) == {(0, 0): 1, (1, -1): 1}
    with pytest.raises(ValueError):
        expand_in_z_schur({(1,): 1, (2, 0): 1}, 1)
    with pytest.raises(ValueError, match=r"^not a finite z-Schur "
                       r"combination within cap=10000$"):
        expand_in_z_schur(r_monomial((1, 0)), 2)


def test_skew_expansion_matches_gen_lr():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(-2, 3) for _ in range(n)),
                           reverse=True))
        mu = tuple(sorted((rng.randint(-2, 3) for _ in range(n)),
                          reverse=True))
        got = expand_in_z_schur(z_skew_schur(lam, mu), n)
        for nu, c in got.items():
            assert gen_lr_coefficient(lam, mu, nu) == c
        for _ in range(10):
            nu = tuple(sorted((rng.randint(-4, 4) for _ in range(n)),
                              reverse=True))
            if sum(nu) == sum(lam) - sum(mu):
                assert gen_lr_coefficient(lam, mu, nu) == got.get(nu, 0)


def test_d_multiply_frozen():
    splus1 = {((), (1,), ()): 1}
    splus2 = {((), (2,), ()): 1}
    z0 = {((0,), (), ()): 1}
    assert d_multiply(splus1, z0) == {((0,), (1,), ()): 1, ((-1,), (), ()): 1}
    assert d_multiply(splus2, z0) == {((0,), (2,), ()): 1, ((-2,), (), ()): -1}
    assert d_multiply(d_one(), splus1) == splus1
    assert d_multiply(splus1, d_one()) == splus1


def test_commutator_realization():
    for n in range(1, 6):
        for k in range(-5, 6):
            for sign, sk in ((+1, lambda m: ((), (m,), ())),
                             (-1, lambda m: ((), (), (m,)))):
                s = {sk(n): 1}
                zk = {((k,), (), ()): 1}
                comm = lin_add(d_multiply(s, zk), d_multiply(zk, s), -1)
                shift = k - n if sign > 0 else k + n
                assert comm == {((shift,), (), ()): 1 if n % 2 else -1}


def _random_delem(rng):
    out = {}
    for _ in range(rng.randint(1, 2)):
        z = tuple(sorted((rng.randint(-4, 4)
                          for _ in range(rng.randint(0, 3))), reverse=True))
        sp = tuple(sorted(rng.randint(1, 3)
                          for _ in range(rng.randint(0, 2))))
        sm = tuple(sorted(rng.randint(1, 3)
                          for _ in range(rng.randint(0, 2))))
        out[(z, sp, sm)] = rng.randint(-2, 2)
    return {k: c for k, c in out.items() if c}


def test_d_multiply_associative():
    rng = random.Random(17)
    for _ in range(60):
        a, b, c = (_random_delem(rng) for _ in range(3))
        assert d_multiply(d_multiply(a, b), c) == \
            d_multiply(a, d_multiply(b, c))


def flat_s_times(sign, n, d):
    """The _s_times that wrote the derivation out on flat DElem keys, kept
    verbatim as the oracle for the one that reads p_action."""
    eps = 1 if n % 2 else -1
    shift = -n if sign > 0 else n
    out = {}
    for (z, sp, sm), c in d.items():
        if sign > 0:
            key = (z, tuple(sorted(sp + (n,))), sm)
        else:
            key = (z, sp, tuple(sorted(sm + (n,))))
        bump(out, key, c)
        for i in range(len(z)):
            zz = tuple(sorted(z[:i] + (z[i] + shift,) + z[i + 1:],
                              reverse=True))
            bump(out, (zz, sp, sm), c * eps)
    return out


def flat_d_multiply(a, b):
    out = {}
    for (z1, sp1, sm1), c1 in a.items():
        for (z2, sp2, sm2), c2 in b.items():
            carrier = {(z2, sp2, sm2): c1 * c2}
            for n in sm1:
                carrier = flat_s_times(-1, n, carrier)
            for n in sp1:
                carrier = flat_s_times(+1, n, carrier)
            for (z, sp, sm), c in carrier.items():
                key = (tuple(sorted(z1 + z, reverse=True)), sp, sm)
                bump(out, key, c)
    return out


def test_d_multiply_matches_flat_oracle():
    rng = random.Random(23)
    for _ in range(200):
        a, b = _random_delem(rng), _random_delem(rng)
        assert d_multiply(a, b) == flat_d_multiply(a, b), (a, b)


def test_p_action_frozen():
    assert p_action(+1, 1, {(0,): 1}) == {(-1,): 1}
    assert p_action(-1, 2, {(0, 0): 1}) == {(2, 0): -2}
    assert p_action(+1, 3, {(): 5}) == {}
    assert p_action(+1, 1, z_schur((0, 0))) == z_schur((0, -1))


def test_p_action_derivation():
    rng = random.Random(23)
    for _ in range(40):
        f = lin_add({}, r_monomial([rng.randint(-3, 3)
                                    for _ in range(rng.randint(0, 2))]),
                    rng.randint(-2, 2))
        g = lin_add({}, r_monomial([rng.randint(-3, 3)
                                    for _ in range(rng.randint(0, 2))]),
                    rng.randint(-2, 2))
        n = rng.randint(1, 3)
        sign = rng.choice((1, -1))
        lhs = p_action(sign, n, r_mul(f, g))
        rhs = {}
        for k, c in r_mul(p_action(sign, n, f), g).items():
            rhs[k] = rhs.get(k, 0) + c
        for k, c in r_mul(f, p_action(sign, n, g)).items():
            rhs[k] = rhs.get(k, 0) + c
        rhs = {k: c for k, c in rhs.items() if c}
        assert lhs == rhs


def test_sym_character():
    assert sym_character((1, 1), (2,)) == -1
    assert sym_character((2,), (2,)) == 1
    assert sym_character((2, 1), (1, 1, 1)) == 2
    assert sym_character((2, 1), (2, 1)) == 0
    assert sym_character((2, 1), (3,)) == -1
    assert sym_character((2, 2), (2, 2)) == 2


_shapes = st.integers(0, 5).flatmap(
    lambda size: st.sampled_from(list(partitions_of(size))))
_monomials = st.lists(st.integers(-3, 3), max_size=3).map(
    lambda ks: tuple(sorted(ks, reverse=True)))
_elements = st.dictionaries(_monomials,
                            st.integers(-3, 3).filter(bool), max_size=5)


@settings(deadline=None)
@given(st.sampled_from((-1, 1)), _shapes, _elements)
@example(1, (), {(): 2, (1,): -1, (2, 0, -1): 3})
@example(-1, (3, 1), {(0, 0): 1, (2, -1): -2, (1,): 1})
@example(1, (2, 2, 1), {(3, 0, -2): 1, (1,): 3, (): -1})
def test_s_operator_matches_power_sum_oracle(sign, mu, f):
    got = s_operator(sign, mu)(f)
    assert got == power_sum_s_operator(sign, mu)(f)
    if not mu:
        assert got == f
    elif all(len(z) < mu[0] for z in f):
        assert got == {}


def _compositions(m, n):
    """Weak compositions of m into n parts."""
    if n == 0:
        if m == 0:
            yield ()
        return
    for first in range(m, -1, -1):
        for rest in _compositions(m - first, n - 1):
            yield (first,) + rest


def composition_table(sign, mu, n):
    """The retired shift table of s_operator on degree n, one row per weak
    composition of |mu| into n parts (_compositions above, kept verbatim),
    with Kostka weights K_{mu',a} counted here as the tableaux of the free
    enumerator with content a, so that no shapes kernel is shared."""
    cols = conjugate(normalize(mu))
    kostka = Counter(
        tuple(sum(col.count(i) for col in t.cols) for i in range(1, n + 1))
        for t in crystal.enumerate_sst(cols, 1, n))
    rows = []
    for a in _compositions(sum(mu), n):
        k = kostka[a]
        if k:
            rows.append((tuple(sign * x for x in a), k))
    return rows


def test_s_operator_table_matches_compositions():
    """On one monomial whose indices lie far apart every table row gives
    its own result monomial, so the action reads back the table as a
    multiset: a row repeated would double its coefficient."""
    cases = 0
    for size in range(7):
        for mu in partitions_of(size):
            for n in range(6):
                z = tuple(100 * (n - i) for i in range(n))
                for sign in (-1, 1):
                    want = {}
                    for shift, k in composition_table(sign, mu, n):
                        bump(want, tuple(x + y for x, y in zip(z, shift)), k)
                    assert s_operator(sign, mu)({z: 1}) == want, (
                        sign, mu, n)
                    cases += 1
    assert cases == 360


def test_s_operator_frozen():
    z00 = z_schur((0, 0))
    assert s_operator(+1, (1,))(z00) == z_schur((1, 0))
    assert s_operator(+1, (2,))(z00) == z_schur((1, 1))
    assert s_operator(+1, (1, 1))(z00) == z_schur((2, 0))
    assert s_operator(-1, (1,))(z_schur((1, 0))) == \
        {(0, 0): 1, (2, -2): -1}


def test_h_reduction_frozen():
    z10 = z_schur((1, 0))
    step = h_operator(-1, 1)(z10)
    assert expand_in_z_schur(step, 2) == {(0, 0): 1, (1, -1): 1}
    two = h_operator(+1, 2)(step)
    direct = h_operator(+1, 1)(z10)
    assert two == direct
    assert expand_in_z_schur(direct, 2) == {(2, 0): 1, (1, 1): 1}


def _pad(mu, n):
    return tuple(mu) + (0,) * (n - len(mu))


def test_s_operator_both_branches():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(-3, 3) for _ in range(n)),
                           reverse=True))
        size = rng.randint(1, 4)
        mus = [m for m in partitions_of(size)]
        mu = mus[rng.randrange(len(mus))]
        zl = z_schur(lam)
        plus = s_operator(+1, conjugate(mu))(zl)
        minus = s_operator(-1, conjugate(mu))(zl)
        if len(mu) <= n:
            assert plus == z_skew_schur(lam, mu_star(mu, n))
            assert minus == z_skew_schur(lam, _pad(mu, n))
        else:
            assert plus == {}
            assert minus == {}


def test_h_action_on_basis():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(-2, 2) for _ in range(n)),
                           reverse=True))
        up = tuple(x + 1 for x in lam)
        assert h_operator(+1, n)(z_schur(lam)) == z_schur(up)
        assert h_operator(+1, n + 1 + rng.randint(0, 2))(z_schur(lam)) == {}
        down = tuple(x - 1 for x in lam)
        assert h_operator(-1, n)(z_schur(lam)) == z_schur(down)


def test_vertical_strip_rule():
    import itertools as it
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(-2, 2) for _ in range(n)),
                           reverse=True))
        for m in range(0, n + 1):
            got = h_operator(+1, m)(z_schur(lam))
            want = {}
            for bits in it.product((0, 1), repeat=n):
                if sum(bits) != m:
                    continue
                mu = tuple(lam[i] + bits[i] for i in range(n))
                if all(mu[i] >= mu[i + 1] for i in range(n - 1)):
                    for k, c in z_schur(mu).items():
                        want[k] = want.get(k, 0) + c
            assert got == {k: c for k, c in want.items() if c}


def test_h_general_reduction():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(-2, 2) for _ in range(n)),
                           reverse=True))
        i = rng.randint(0, n)
        lhs = h_operator(+1, n)(h_operator(-1, i)(z_schur(lam)))
        rhs = h_operator(+1, n - i)(z_schur(lam))
        assert lhs == rhs


def test_omega():
    assert omega({((3,), (), ()): 1}) == {((-3,), (), ()): 1}
    assert omega({((), (2,), ()): 1}) == {((), (), (2,)): 1}
    rng = random.Random(53)
    for _ in range(30):
        a = _random_delem(rng)
        assert omega(omega(a)) == a
    def lift(f):
        return {(z, (), ()): c for z, c in f.items()}

    for lam in [(1, 0), (2, 1), (0, -1), (3, 1, -2)]:
        assert omega(lift(z_schur(lam))) == \
            lift(z_schur(mu_star(lam, len(lam))))


def test_cyclic_generation():
    rng = random.Random(59)
    for _ in range(15):
        n = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(-2, 3) for _ in range(n)),
                           reverse=True))
        ell = max(-lam[-1], 0)
        mu = tuple(x + ell for x in lam)
        f = s_operator(+1, conjugate(normalize(mu)))(z_schur((0,) * n))
        for _ in range(ell):
            f = h_operator(-1, n)(f)
        assert f == z_schur(lam)


def test_apply_delem_composition():
    rng = random.Random(61)
    for _ in range(30):
        a, b = _random_delem(rng), _random_delem(rng)
        f = r_monomial([rng.randint(-3, 3)
                        for _ in range(rng.randint(0, 2))])
        assert apply_delem(d_multiply(a, b), f) == \
            apply_delem(a, apply_delem(b, f))


def test_annihilators():
    rng = random.Random(67)
    for n in range(1, 4):
        rels = annihilator_relations(n)
        assert rels[6] == {}
        for _ in range(10):
            lam = tuple(sorted((rng.randint(-2, 3) for _ in range(n)),
                               reverse=True))
            for rel in rels:
                assert apply_delem(rel, z_schur(lam)) == {}
    assert apply_delem(h_delem(+1, 2), {(5,): 1}) == {}


def test_apply_delem_returns_ints_and_refuses_a_non_integral_action():
    # s^-_1 takes z_0 to z_1: an integral Fraction comes back as an int, a
    # proper one is refused
    out = apply_delem({((), (), (1,)): Fraction(4, 2)}, {(0,): 1})
    assert out == {(1,): 2} and type(out[(1,)]) is int
    with pytest.raises(ValueError, match="^non-integral action$"):
        apply_delem({((), (), (1,)): Fraction(1, 2)}, {(0,): 1})


def test_json():
    assert delem_to_json({((), (1,), ()): 1}) == \
        [{"z": [], "splus": [1], "sminus": [], "c": 1}]
