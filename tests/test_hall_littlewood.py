import itertools
import random

import pytest

from crystal_lr import characters, ring, shapes
from crystal_lr import hall_littlewood as hl
from crystal_lr.hall_littlewood import bt_apply, tr_t_shift
from crystal_lr.shapes import (bump, bump_poly, conjugate,
                               gen_lr_coefficient, gen_partitions_box,
                               is_gen_partition, lr_coefficient, mu_star,
                               partitions_of)
from duality import inversion_sign, r_mul


def n_stat(mu):
    return sum(i * m for i, m in enumerate(mu))


def dominates(lam, mu):
    if sum(lam) != sum(mu):
        return False
    acc = 0
    for a, b in zip(lam, mu):
        acc += a - b
        if acc < 0:
            return False
    return True


def test_tr_helpers():
    a = hl.tr_from_r({(1,): 2, (0,): -1})
    b = hl.tr_t_shift(a, 2, 3)
    assert b == {2: {(1,): 2, (0,): -1}}
    assert hl.tr_t_shift(a, 4, 3) == {}
    assert hl.tr_add(a, hl.tr_t_shift(a, 0, 3, -1)) == {}
    assert hl.tr_eval({0: {(2,): 1}, 1: {(2,): -1}}, 1) == {}
    assert hl.tr_eval({0: {(2,): 1}, 1: {(2,): -1}}, 0) == {(2,): 1}
    assert hl.tr_omega({1: {(2, -1): 3}}) == {1: {(1, -2): 3}}


def test_bt_apply_frozen():
    for k in (-2, 0, 1, 4):
        assert hl.bt_apply(k, hl.tr_one(), 0) == {0: {(k,): 1}}
    # annihilators kill every higher term on degree 0, whatever T
    for T in (1, 3):
        assert hl.bt_apply(0, hl.tr_one(), T) == {0: {(0,): 1}}
    got = hl.bt_apply(1, hl.tr_from_r(ring.r_monomial((1,))), 1)
    assert got == {0: {(1, 1): 1, (2, 0): -1}, 1: {(2, 0): 1, (3, -1): -1}}


def test_bt_apply_degree_shift():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randrange(0, 3)
        ks = tuple(sorted((rng.randint(-3, 3) for _ in range(deg)),
                          reverse=True))
        f = tr_t_shift(hl.tr_from_r(ring.r_monomial(ks)),
                       rng.randrange(0, 2), 2)
        out = hl.bt_apply(rng.randint(-2, 2), f, 2)
        assert all(len(key) == deg + 1 for sl in out.values() for key in sl)


# Retired from src/ (bt_apply now fuses the row pass with the
# multiplication), kept as an oracle: every (j, d) term through two
# s_operator passes and an r_mul.

def two_pass_bt_apply(k, f, T):
    """Apply the mode operator b^t_k, raising z-degree by exactly one.

    The mode expands as sum_{j,d} (-1)^d t^j [multiply by z_{j+d+k}] o
    [lower by the row (d)] o [lower by the column (1^j)], left factor
    outermost.  The row factor kills everything of degree below d, so d
    stops at the slice degree and the first discarded term is checked to
    vanish; the column factor never annihilates, so j is cut by the
    truncation order alone.
    """
    out = {}
    for e, sl in f.items():
        deg = max((len(key) for key in sl), default=0)
        for j in range(T - e + 1):
            g = ring.s_operator(-1, (1,) * j)(sl)
            if not g:
                continue
            acc = out.setdefault(e + j, {})
            for d in range(deg + 2):
                h = ring.s_operator(-1, (d,))(g) if d else g
                if d > deg:
                    if h:
                        raise ValueError("row term beyond the operand degree"
                                         " did not vanish")
                    break
                if not h:
                    continue
                sign = -1 if d % 2 else 1
                term = r_mul(ring.r_monomial((j + d + k,)), h)
                for key, c in term.items():
                    bump(acc, key, sign * c)
    return {e: sl for e, sl in out.items() if sl}


def formula_bt_apply(k, f, T):
    """The mode on each monomial in closed form, cut at t^T:

        b^t_k prod z_{k_i} = sum_s z_{k+|s|} prod z_{k_i - s_i}
                             prod_{s_i > 0} (t^{s_i} - t^{s_i - 1})

    over s in N^n.  A factor with s_i > 0 starts at t^{s_i - 1}, so
    s_i <= T + 1 - e on slice e.  Shares no code with ring.s_operator.
    """
    out = {}
    for e, sl in f.items():
        top = T - e
        for z, c in sl.items():
            for s in itertools.product(range(top + 2), repeat=len(z)):
                weight = {0: 1}
                for si in (x for x in s if x):
                    nxt = {}
                    for p, w in weight.items():
                        for q, v in ((si, w), (si - 1, -w)):
                            if p + q <= top:
                                nxt[p + q] = nxt.get(p + q, 0) + v
                    weight = nxt
                key = tuple(sorted((k + sum(s),
                                    *(x - y for x, y in zip(z, s))),
                                   reverse=True))
                for p, w in weight.items():
                    if w:
                        bump(out.setdefault(e + p, {}), key, c * w)
    return {e: sl for e, sl in out.items() if sl}


def _random_trelem(rng, T):
    """1-3 slices at powers <= T, each of 1-3 monomials of degree 0-5 with
    entries in [-3, 3]; mixed degrees within a slice are allowed."""
    f = {}
    for _ in range(rng.randint(1, 3)):
        sl = {}
        for _ in range(rng.randint(1, 3)):
            key = tuple(sorted((rng.randint(-3, 3)
                                for _ in range(rng.randint(0, 5))),
                               reverse=True))
            bump(sl, key, rng.choice((-3, -2, -1, 1, 2, 3)))
        bump_poly(f, rng.randint(0, T), sl)
    return f


def test_bt_apply_matches_retired_routes():
    rng = random.Random(26)
    for _ in range(60):
        T = rng.randint(0, 4)
        f = _random_trelem(rng, T)
        k = rng.randint(-3, 3)
        got = bt_apply(k, f, T)
        assert got == two_pass_bt_apply(k, f, T)
        assert got == formula_bt_apply(k, f, T)


def test_formula_oracle_frozen():
    # the closed form alone, on the hand-checked case of test_bt_apply_frozen
    got = formula_bt_apply(1, hl.tr_from_r(ring.r_monomial((1,))), 1)
    assert got == {0: {(1, 1): 1, (2, 0): -1}, 1: {(2, 0): 1, (3, -1): -1}}


def test_rodrigues():
    for lam in [(2,), (1, 1), (2, 1), (3, 1, 0), (1, 0, -1)]:
        f = hl.tr_one()
        for m in reversed(lam):
            f = hl.bt_apply(m, f, 0)
        assert f == hl.tr_from_r(ring.z_schur(lam))


def test_word_action_frozen():
    assert hl.bt_word_action((1, 1), 1) == {(1, 1): {0: 1}, (2, 0): {1: 1}}
    # the t-tail walks the shape out one raising step per power
    assert hl.bt_word_action((1, 1), 3) == {
        (1, 1): {0: 1}, (2, 0): {1: 1}, (3, -1): {2: 1}, (4, -2): {3: 1}}
    for T in (0, 2):
        assert hl.bt_word_action((2,), T) == {(2,): {0: 1}}
    assert hl.bt_word_action((2, 1), 1) == {(2, 1): {0: 1}, (3, 0): {1: 1}}
    with pytest.raises(ValueError):
        hl.bt_word_action((0, 1), 1)


def test_word_action_kostka_foulkes():
    for n in (1, 2, 3):
        for size in range(0, 7):
            for mu in shapes.partitions_of(size, max_length=n):
                if len(mu) != n:
                    continue
                got = hl.bt_word_action(mu, n_stat(mu))
                classical = {shapes.normalize(lam): tp
                             for lam, tp in got.items()
                             if all(x >= 0 for x in lam)}
                for lam in shapes.partitions_of(size, max_length=n):
                    want = shapes.kostka_foulkes(lam, mu)
                    assert classical.pop(shapes.normalize(lam), {}) == want
                assert not classical


def test_word_action_hl_expansion():
    for n in (2, 3):
        for size in range(2, 6):
            for mu in shapes.partitions_of(size, max_length=n):
                if len(mu) != n:
                    continue
                got = hl.bt_word_action(mu, n_stat(mu))
                for lam in shapes.partitions_of(size, max_length=n):
                    want = characters.schur_to_hl(lam, n).get(
                        shapes.normalize(mu), {})
                    key = lam + (0,) * (n - len(lam))
                    assert got.get(key, {}) == want


def test_word_action_unitriangular():
    for mu in [(1, 1), (2, 1), (2, 2), (3, 1, 1), (2, 2, 2)]:
        got = hl.bt_word_action(mu, n_stat(mu))
        assert got[mu] == {0: 1}
        assert all(dominates(lam, mu) for lam in got)


def test_word_action_threshold_rerun():
    # the classical slice is already complete at T = sum (i-1) mu_i
    for mu in [(2, 1), (2, 2), (3, 1, 1)]:
        T = n_stat(mu)
        low = hl.bt_word_action(mu, T)
        high = hl.bt_word_action(mu, T + 2)
        for lam in set(low) | set(high):
            if all(x >= 0 for x in lam):
                assert low.get(lam, {}) == high.get(lam, {})


def test_word_action_t1_monomial():
    # finite truncation leaves boundary terms that keep moving outward;
    # the coefficients stable across T and T+2 are the t=1 value, and they
    # form exactly the plain monomial product
    for mu in [(1, 1), (2, 1), (3, 1), (2, 2, 1)]:
        T = max(1, n_stat(mu))
        f1, f2 = hl.tr_one(), hl.tr_one()
        for m in reversed(mu):
            f1 = hl.bt_apply(m, f1, T)
            f2 = hl.bt_apply(m, f2, T + 2)
        v1, v2 = hl.tr_eval(f1, 1), hl.tr_eval(f2, 1)
        mono = tuple(sorted(mu, reverse=True))
        stable = {k for k in set(v1) | set(v2)
                  if v1.get(k, 0) == v2.get(k, 0)}
        assert mono in stable
        assert all(v1.get(k, 0) == (1 if k == mono else 0) for k in stable)


def test_defining_relation():
    assert hl.bt_commutator_check(1, 0, 2, hl.tr_one())
    samples = [hl.tr_one(),
               hl.tr_from_r(ring.r_monomial((1,))),
               hl.tr_from_r(ring.r_monomial((2, -1)))]
    for m in range(-2, 3):
        for n in range(-2, 3):
            for f in samples:
                assert hl.bt_commutator_check(m, n, 2, f)


def test_bar_commutation():
    samples = [hl.tr_one(),
               hl.tr_from_r(ring.r_monomial((0,))),
               hl.tr_from_r(ring.r_monomial((1, -1)))]
    for m in range(-2, 3):
        for n in range(-2, 3):
            for f in samples:
                a = hl.bt_bar_apply(m, hl.bt_apply(n, f, 2), 2)
                b = hl.bt_apply(n, hl.bt_bar_apply(m, f, 2), 2)
                assert a == b


def test_bt_bar_frozen():
    assert hl.bt_bar_apply(2, hl.tr_one(), 1) == {0: {(-2,): 1}}


def test_trelem_invariant():
    # every operation returns a TRElem: {power <= T: nonempty slice}, each
    # slice zero-free and keyed by weakly decreasing monomials
    def check(f, T):
        for e, sl in f.items():
            assert sl and e <= T
            assert all(c and is_gen_partition(key) for key, c in sl.items())

    rng = random.Random(5)
    for _ in range(80):
        T = rng.randint(0, 3)
        f = {}
        for _ in range(rng.randint(1, 3)):
            ks = tuple(sorted((rng.randint(-2, 2)
                               for _ in range(rng.randrange(0, 3))),
                              reverse=True))
            f = hl.tr_add(f, tr_t_shift(hl.tr_from_r(ring.r_monomial(ks)),
                                        rng.randint(0, T), T,
                                        rng.choice((-1, 1))))
        k, m = rng.randint(-2, 2), rng.randint(-2, 2)
        outs = [f, bt_apply(k, f, T), bt_apply(m, bt_apply(k, f, T), T),
                hl.bt_bar_apply(k, f, T),
                hl.tr_add(f, tr_t_shift(f, 0, T, -1)),
                hl.tr_add(bt_apply(k, f, T), hl.bt_bar_apply(k, f, T)),
                tr_t_shift(f, rng.randint(0, 2), T)]
        for g in outs:
            check(g, T)


def test_bt_word_action_refuses_negative_order():
    # T < 0 would cut off even the t^0 slice of 1; the order is checked
    # before the mode word, as hl-act reports them
    for mu in [(), (1,), (1, 0), (0, 1)]:
        with pytest.raises(ValueError, match="^truncation order must be "
                           "nonnegative, got -1$"):
            hl.bt_word_action(mu, -1)


# ---------------------------------------------------------------- oracles
#
# The raising-product operator and its straightening, kept as oracles for
# the class expansion and for each other.

def bt_straighten(alpha):
    """Dominant rewriting of a mode word.

    Returns (sign, word) with the staircase-shifted entries sorted back
    into a weakly decreasing word, or (0, None) when the shift has a
    repeated entry and the word labels zero.
    """
    n = len(alpha)
    beta = [alpha[i] + n - 1 - i for i in range(n)]
    if len(set(beta)) < n:
        return 0, None
    srt = sorted(beta, reverse=True)
    lam = tuple(srt[i] - (n - 1 - i) for i in range(n))
    return inversion_sign([-b for b in beta]), lam


def bt_lambda(alpha, T):
    """Operator for the raising-product form of the alpha-labeled element.

    Expands prod_{i<j} (1 - t*R_ij) against the mode word alpha; R_ij bumps
    alpha_i up and alpha_j down, the pairs commute and each enters at most
    once, so every subset of pairs contributes one shifted word carrying
    sign and t-power its size.  Subsets larger than T fall out.
    """
    alpha = tuple(alpha)
    pairs = list(itertools.combinations(range(len(alpha)), 2))
    words = []
    for r in range(min(T, len(pairs)) + 1):
        for chosen in itertools.combinations(pairs, r):
            w = list(alpha)
            for i, j in chosen:
                w[i] += 1
                w[j] -= 1
            words.append((r, w))

    def act(f):
        out = {}
        for r, w in words:
            g = f
            for m in reversed(w):
                g = bt_apply(m, g, T)
            for key, tp in tr_t_shift(g, r, T, -1 if r % 2 else 1).items():
                bump_poly(out, key, tp)
        return out

    return act


def bt_lambda_classes(lam, T):
    """The same operator through its class expansion: sum over
    (eta, sigma, mu, nu) of (-1)^{|mu|} t^{|nu|} c^{lam}_{eta sigma*}
    c^{sigma}_{mu nu} [multiply by the eta z-Schur] o [lower by mu] o
    [lower by nu'], left factor outermost.

    mu is cut by its width against the operand degree and nu by the
    truncation order; eta then runs over the finitely many length-n shapes
    the outer coefficient allows.
    """
    lam = tuple(lam)
    if not is_gen_partition(lam):
        raise ValueError("label must be weakly decreasing")
    n = len(lam)
    if n == 0:
        return lambda f: tr_t_shift(f, 0, T)

    def act(f):
        out = {}
        for e, sl in f.items():
            deg = max((len(key) for key in sl), default=0)
            for snu in range(T - e + 1):
                for nu in partitions_of(snu, max_length=n):
                    if len(nu) > deg:
                        continue
                    gnu = ring.s_operator(-1, conjugate(nu))(sl)
                    if not gnu:
                        continue
                    for smu in range(n * deg + 1):
                        for mu in partitions_of(smu, max_length=n,
                                                max_part=deg):
                            g = ring.s_operator(-1, mu)(gnu)
                            if not g:
                                continue
                            msign = -1 if smu % 2 else 1
                            for sigma in partitions_of(smu + snu,
                                                       max_length=n):
                                c2 = lr_coefficient(sigma, mu, nu)
                                if not c2:
                                    continue
                                star = mu_star(sigma, n)
                                wide = sigma[0] if sigma else 0
                                for eta in gen_partitions_box(
                                        n, lam[-1] - smu - snu,
                                        lam[0] + wide,
                                        sum(lam) + smu + snu):
                                    c1 = gen_lr_coefficient(lam, eta, star)
                                    if not c1:
                                        continue
                                    term = r_mul(ring.z_schur(eta), g)
                                    for key, c in term.items():
                                        bump_poly(out, e + snu, {key: c},
                                                  msign * c1 * c2)
        return out

    return act


def test_bt_lambda_single_mode():
    f = hl.tr_from_r(ring.r_monomial((1, 0)))
    for a in (-1, 0, 2):
        assert bt_lambda((a,), 2)(f) == hl.bt_apply(a, f, 2)


def test_bt_lambda_on_one():
    # every lowering factor kills 1, so only the top class survives: the
    # action on 1 is the plain z-Schur element at every power of t
    for lam in [(1, 1), (2, 0), (2, 1), (2, 0, -1)]:
        assert bt_lambda(lam, 2)(hl.tr_one()) == \
            hl.tr_from_r(ring.z_schur(lam))


def test_straighten():
    assert bt_straighten((0, 1)) == (0, None)
    assert bt_straighten((0, 2)) == (-1, (1, 1))
    assert bt_straighten((2, 1)) == (1, (2, 1))
    assert bt_straighten((0, 1, 2)) == (0, None)
    assert bt_straighten((-1, 0, 2)) == (0, None)
    assert bt_straighten((1, -1, 2)) == (-1, (1, 1, 0))


def test_straightening_operator_equality():
    basis = [hl.tr_one(),
             hl.tr_from_r(ring.r_monomial((1,))),
             hl.tr_from_r(ring.r_monomial((1, 0))),
             hl.tr_from_r(ring.r_monomial((2, -1)))]
    grid2 = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    rng = random.Random(23)
    grid3 = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(12)]
    for alpha in grid2 + grid3:
        sign, dom = bt_straighten(alpha)
        act = bt_lambda(alpha, 2)
        if sign == 0:
            for f in basis:
                assert act(f) == {}
            continue
        ref = bt_lambda(dom, 2)
        for f in basis:
            got = act(f)
            want = hl.tr_t_shift(ref(f), 0, 2, sign)
            assert got == want


def test_class_pipeline_agrees():
    basis = [hl.tr_one(),
             hl.tr_from_r(ring.r_monomial((1,))),
             hl.tr_from_r(ring.r_monomial((1, 0))),
             hl.tr_from_r(ring.r_monomial((2, -1)))]
    for lam in [(1,), (0,), (-1,), (1, 1), (2, 0), (1, 0), (2, 1), (1, 1, 0)]:
        a = bt_lambda(lam, 2)
        b = bt_lambda_classes(lam, 2)
        for f in basis:
            assert a(f) == b(f)
    with pytest.raises(ValueError):
        bt_lambda_classes((0, 1), 1)


def test_injectivity_witness():
    seen = {}
    labels = [(a,) for a in range(-2, 3)]
    labels += [(a, b) for a in range(-2, 3) for b in range(-2, a + 1)]
    for lam in labels:
        out = bt_lambda(lam, 2)(hl.tr_one())
        key = tuple(sorted((k, tuple(sorted(tp.items())))
                           for k, tp in out.items()))
        assert key not in seen, (lam, seen[key])
        seen[key] = lam
