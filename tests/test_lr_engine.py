import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from crystal_lr import characters, cli, lr_engine, shapes
from crystal_lr.crystal import Weight
from crystal_lr.shapes import (bump, conjugate, gen_lr_coefficient,
                               gen_partitions_box, lr_coefficient, normalize)
from crystal_lr.lr_engine import (ExtremalClass, MixedLevelError,
                                  _coproduct, _lr_expand,
                                  decomposition_to_json, expr_decompose,
                                  extremal_lr,
                                  hw_past_level0, hw_product,
                                  level0_product,
                                  parse_tensor_expr, pieri_column,
                                  verify_truncated)


def star(v):
    return tuple(-x for x in reversed(v))


def rand_partition(rng, maxlen=2, maxpart=2):
    parts = [rng.randrange(1, maxpart + 1)
             for _ in range(rng.randrange(0, maxlen + 1))]
    return tuple(sorted(parts, reverse=True))


def rand_gen_partition(rng, n, lo=-2, hi=2):
    return tuple(sorted((rng.randrange(lo, hi + 1) for _ in range(n)),
                        reverse=True))


def test_extremal_class_normalization():
    c = ExtremalClass((2, 1, 0), (1, 0, 0))
    assert c.mu == (2, 1) and c.nu == (1,) and c.hw == ()
    assert c.level == 0
    # hw keeps trailing zeros: Lambda_(1,0) has level 2, Lambda_(1) level 1
    assert ExtremalClass(hw=(1, 0)).level == 2
    assert ExtremalClass(hw=(1,)).level == 1
    assert ExtremalClass(hw=(1, 0)) != ExtremalClass(hw=(1,))
    assert ExtremalClass(hw=None).hw == ()
    assert ExtremalClass((1,), (2,), (0, -1)).key() == (2, (0, -1), (1,), (2,))
    with pytest.raises(ValueError):
        ExtremalClass((0, 1), ())
    with pytest.raises(ValueError):
        ExtremalClass((), (), (1, 2))
    with pytest.raises(ValueError, match="mu and nu must be partitions"):
        ExtremalClass((), (1, -1))


def test_bmn_legs_must_be_partitions():
    # a leg that is no partition is refused as ExtremalClass refuses it,
    # not answered with a census mismatch, an IndexError or {}
    for mu, nu in [((-1,), ()), ((1, 2), ()), ((), (0, 1))]:
        msg = re.escape("mu and nu must be partitions: %r, %r" % (mu, nu))
        with pytest.raises(ValueError, match=msg):
            verify_truncated([("Bmn", mu, nu)], (-2, 2), {})
        with pytest.raises(ValueError, match=msg):
            hw_past_level0((0,), mu, nu)
    assert lr_engine._factor_norm(("Bmn", [2, 1, 0], (1, 0))) == (
        "Bmn", (2, 1), (1,))
    assert hw_past_level0((0,), (1, 0), ()) == hw_past_level0((0,), (1,), ())


def _refuses(call):
    """True when call() raises ValueError; False when it answers or fails
    with any other exception."""
    try:
        call()
    except ValueError:
        return True
    except Exception:
        return False
    return False


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="is_partition and is_gen_partition check order and "
                          "sign, not integrality")
@pytest.mark.parametrize("call", [
    # built
    lambda: ExtremalClass((1.5,), ()),
    # answers hw (1.5,) and (0.5,)
    lambda: hw_past_level0((0.5,), (1,), ()),
    # answers hw (0.5,)
    lambda: expr_decompose([("B", (0.5,))], (-2, 2)),
    # TypeError inside the census
    lambda: verify_truncated([("B", (0.5,)), ("Bcol", 1)], (-1, 1),
                             pieri_column((0.5,), 1)),
], ids=["ExtremalClass", "hw_past_level0", "expr_decompose",
        "verify_truncated"])
def test_non_integer_entries_are_refused(call):
    assert _refuses(call)


# a bool answered as a = 1 and a float failed with a TypeError
@pytest.mark.parametrize("call, got", [
    (lambda: pieri_column((0,), True), "True"),
    (lambda: pieri_column((0,), 1.0), "1.0"),
    (lambda: verify_truncated([("B", (0,)), ("Bcol", True)], (-1, 1), {}),
     "True"),
], ids=["pieri_column-bool", "pieri_column-float", "Bcol-bool"])
def test_column_length_must_be_an_int(call, got):
    with pytest.raises(ValueError, match="got %s$" % re.escape(got)):
        call()


def test_extremal_class_uniqueness():
    boxes = [ExtremalClass((1,), ()), ExtremalClass((), (1,)),
             ExtremalClass(hw=(1,))]
    assert len({c: None for c in boxes}) == 3
    assert ExtremalClass((1,), (), (2,)) == ExtremalClass((1, 0), (), (2,))


def test_decomposition_to_json_sorted():
    dec = {ExtremalClass((), (), (2,)): 1, ExtremalClass((1,), (), (1,)): 2,
           ExtremalClass((1,), (1,)): 3}
    out = decomposition_to_json(dec)
    # level first, then hw, mu, nu lexicographically
    assert [e["class"]["hw"] for e in out] == [None, [1], [2]]
    assert out[0] == {"class": {"mu": [1], "nu": [1], "hw": None}, "mult": 3}
    assert out[1]["mult"] == 2


def test_level0_product_frozen():
    assert level0_product((1,), (), (), (1,)) == {
        ExtremalClass((1,), (1,)): 1}
    assert level0_product((1,), (), (1,), ()) == {
        ExtremalClass((2,), ()): 1, ExtremalClass((1, 1), ()): 1}
    two = level0_product((2, 1), (1,), (1,), (1, 1))
    assert two[ExtremalClass((3, 1), (2, 1))] == 1
    assert two[ExtremalClass((2, 2), (1, 1, 1))] == 1
    assert len(two) == 6


def test_level0_product_commutes():
    rng = random.Random(5)
    for _ in range(25):
        mu, nu = rand_partition(rng), rand_partition(rng)
        sigma, tau = rand_partition(rng), rand_partition(rng)
        assert (level0_product(mu, nu, sigma, tau)
                == level0_product(sigma, tau, mu, nu))


def test_hw_product_frozen():
    assert hw_product((0,), (0,), (-3, 3)) == {
        (a, -a): 1 for a in range(4)}
    assert hw_product((1,), (0,), (-2, 2))[(1, 0)] == 1
    dec = hw_product((1, 0), (1,), (-2, 2))
    assert all(sum(z) == 2 for z in dec)
    assert all(-2 <= z[-1] and z[0] <= 2 for z in dec)


def test_hw_product_matches_branch_split():
    rng = random.Random(11)
    for _ in range(10):
        m, n = rng.randrange(1, 3), 1
        mu = rand_gen_partition(rng, m)
        nu = rand_gen_partition(rng, n)
        dec = hw_product(mu, nu, (-5, 5))
        for zeta, c in dec.items():
            assert characters.branch_split(zeta, m, n).get((mu, nu), 0) == c


def test_hw_product_with_the_trivial_factor():
    # B(Lambda_()) is the trivial crystal, so the window's box scan finds
    # exactly the other factor, when the window holds it
    fits = 0
    for n in range(4):
        for lam in gen_partitions_box(n, -3, 3):
            for lo, hi in [(-3, 3), (-1, 1), (0, 2), (-2, -1)]:
                want = {z: c for z in gen_partitions_box(n, lo, hi, sum(lam))
                        if (c := gen_lr_coefficient(z, lam, ()))}
                assert hw_product(lam, (), (lo, hi)) == want, (lam, lo, hi)
                assert hw_product((), lam, (lo, hi)) == want, (lam, lo, hi)
                fits += bool(want)
    assert fits == 170


def test_pieri_frozen():
    assert pieri_column((2,), 3) == {
        ExtremalClass((1,) * a, (), (5 - a,)): 1 for a in range(4)}
    assert pieri_column((1, 0), 0) == {ExtremalClass((), (), (1, 0)): 1}
    assert pieri_column((1, 0), 1) == {
        ExtremalClass((1,), (), (1, 0)): 1,
        ExtremalClass((), (), (2, 0)): 1,
        ExtremalClass((), (), (1, 1)): 1}
    assert pieri_column((1, 0), 1, dual=True) == {
        ExtremalClass((), (1,), (1, 0)): 1,
        ExtremalClass((), (), (0, 0)): 1,
        ExtremalClass((), (), (1, -1)): 1}
    with pytest.raises(ValueError):
        pieri_column((1,), -1)
    with pytest.raises(ValueError):
        pieri_column((0, 1), 1)


def brute_column_classes(lam, a, dual):
    # independent enumeration of the interlacing condition
    n = len(lam)
    out = set()
    for k in range(a + 1):
        size = a - k
        col = (1,) * k
        if not dual:
            ranges = [range(lam[i], (lam[i - 1] if i else lam[0] + size) + 1)
                      for i in range(n)]
            for mu in itertools.product(*ranges):
                if sum(mu) - sum(lam) == size:
                    out.add(ExtremalClass(col, (), mu or None))
        else:
            ranges = [range((lam[i + 1] if i + 1 < n else lam[-1] - size),
                            lam[i] + 1) for i in range(n)]
            for nu in itertools.product(*ranges):
                if sum(lam) - sum(nu) == size:
                    out.add(ExtremalClass((), col, nu or None))
    return out


def test_pieri_strip_support():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(0, 4)
        lam = rand_gen_partition(rng, n)
        a = rng.randrange(0, 4)
        dual = rng.random() < 0.5
        dec = pieri_column(lam, a, dual=dual)
        assert all(m == 1 for m in dec.values())
        assert set(dec) == brute_column_classes(lam, a, dual)


def test_pieri_matches_hw_past_level0():
    # true by definition now that pieri_column calls hw_past_level0; the
    # checks that share no code with them are
    # tests/test_shapes.py::test_pieri_column_is_the_strip_rule,
    # test_pieri_strip_support, verify pieri and the census's Pieri items
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randrange(1, 3)
        lam = rand_gen_partition(rng, n)
        a = rng.randrange(0, 4)
        assert pieri_column(lam, a) == hw_past_level0(lam, (1,) * a, ())
        assert (pieri_column(lam, a, dual=True)
                == hw_past_level0(lam, (), (1,) * a))


# The pieri_column that built the column's coproduct by hand and wrote out
# the star of its dual branch, retired from src/ and kept verbatim as the
# oracle of the column case of hw_past_level0.

def coproduct_leg(lam, coproduct):
    """The two-argument _past_leg, which took coproduct = _coproduct(mu, m)
    from its caller."""
    m = len(lam)
    q = -lam[-1] if lam else 0
    base = tuple(x + q for x in lam)
    out = {}
    for (sigma, alpha), c1 in coproduct.items():
        for kappa, c3 in _lr_expand(base, alpha, m).items():
            eta = tuple(x - q for x in kappa + (0,) * (m - len(kappa)))
            bump(out, (sigma, eta), c1 * c3)
    return out


def hand_coproduct_pieri_column(lam, a, dual=False):
    lam = tuple(lam)
    if not shapes.is_gen_partition(lam):
        raise ValueError("lam must be weakly decreasing")
    if a < 0:
        raise ValueError("column length must be nonnegative, got %d" % a)
    m = len(lam)
    coproduct = {((1,) * k, normalize((a - k,))): 1 for k in range(a + 1)}
    if dual:
        return {ExtremalClass((), tau, shapes.mu_star(zeta, m)): c
                for (tau, zeta), c in coproduct_leg(shapes.mu_star(lam, m),
                                                    coproduct).items()}
    return {ExtremalClass(sigma, (), eta): c
            for (sigma, eta), c in coproduct_leg(lam, coproduct).items()}


def test_pieri_column_matches_hand_coproduct_oracle():
    # items and order, as the census tests drop a class by position
    cases = 0
    for n in range(5):
        for lam in gen_partitions_box(n, -3, 3):
            for a in range(6):
                for dual in (False, True):
                    assert list(pieri_column(lam, a, dual).items()) == list(
                        hand_coproduct_pieri_column(lam, a, dual).items()), (
                            lam, a, dual)
                    cases += 1
    assert cases == 3960


def test_coproduct_memo_is_never_mutated():
    # every caller shares the cached dicts, so each must still equal a fresh
    # computation after a batch of calls
    _coproduct.cache_clear()
    rng = random.Random(41)
    keys = set()
    for _ in range(60):
        lam = rand_gen_partition(rng, rng.randrange(0, 4))
        a = rng.randrange(0, 4)
        mu, nu = rand_partition(rng), rand_partition(rng)
        pieri_column(lam, a, dual=rng.random() < 0.5)
        hw_past_level0(lam, mu, nu)
        keys |= {(p, len(lam)) for p in ((1,) * a, mu, nu) if p}
    assert _coproduct.cache_info().currsize == len(keys) > 20
    for mu, m in keys:
        assert _coproduct(mu, m) == _coproduct.__wrapped__(mu, m), (mu, m)


def test_hw_past_level0_frozen():
    assert hw_past_level0((2, 1), (), ()) == {
        ExtremalClass((), (), (2, 1)): 1}
    assert hw_past_level0((3,), (1,), ()) == {
        ExtremalClass((1,), (), (3,)): 1, ExtremalClass((), (), (4,)): 1}
    assert hw_past_level0((-2,), (), (1,)) == {
        ExtremalClass((), (1,), (-2,)): 1, ExtremalClass((), (), (-3,)): 1}
    assert hw_past_level0((), (2, 1), (1,)) == {
        ExtremalClass((2, 1), (1,)): 1}


def test_hw_past_level0_duality():
    rng = random.Random(31)
    for _ in range(15):
        lam = rand_gen_partition(rng, rng.randrange(1, 3))
        mu, nu = rand_partition(rng), rand_partition(rng)
        d1 = hw_past_level0(lam, mu, nu)
        d2 = hw_past_level0(star(lam), nu, mu)
        m1 = {(c.nu, c.mu, star(c.hw or ())): v for c, v in d1.items()}
        m2 = {(c.mu, c.nu, tuple(c.hw or ())): v for c, v in d2.items()}
        assert m1 == m2


def test_equal_length_lr_is_the_gl_tensor_rule():
    # c^lam_{eta alpha*} is the multiplicity of eta in lam (x) alpha on
    # GL_m: c^{eta+q}_{lam+q, alpha} after the shift q = -lam_m, and 0 when
    # eta+q is not a partition
    alphas = [a for n in range(4) for a in shapes.partitions_of(n)]
    nonzero = 0
    for m in range(1, 4):
        gens = list(gen_partitions_box(m, -2, 3))
        for lam in gens:
            q = -lam[-1]
            for alpha in alphas:
                if len(alpha) > m:
                    continue
                star = shapes.mu_star(alpha, m)
                for eta in gens:
                    c = gen_lr_coefficient(lam, eta, star)
                    shifted = tuple(x + q for x in eta)
                    if shifted[-1] < 0:
                        assert c == 0, (lam, eta, alpha)
                    else:
                        assert c == lr_coefficient(
                            shifted, tuple(x + q for x in lam), alpha), (
                                lam, eta, alpha)
                    nonzero += bool(c)
    assert nonzero > 700


def scanned_lr_expand(mu, nu, max_len=None):
    """The _lr_expand that scanned every partition of |mu| + |nu| with parts
    at most mu_1 + nu_1, kept verbatim as the oracle for the scan between
    the factors."""
    mu, nu = normalize(mu), normalize(nu)
    if not mu:
        return {nu: 1}
    if not nu:
        return {mu: 1}
    cap = len(mu) + len(nu)
    if max_len is not None:
        cap = min(cap, max_len)
    out = {}
    for lam in shapes.partitions_of(sum(mu) + sum(nu), max_length=cap,
                                    max_part=mu[0] + nu[0]):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[lam] = c
    return out


def test_lr_expand_matches_scanned_oracle():
    # every length cap from the longer factor to one past the sum of the
    # lengths, and none
    cases = nonzero = 0
    for n in range(9):
        for k in range(n + 1):
            for mu in shapes.partitions_of(k):
                for nu in shapes.partitions_of(n - k):
                    longer = max(len(mu), len(nu))
                    for max_len in [None] + list(
                            range(longer, len(mu) + len(nu) + 2)):
                        got = _lr_expand(mu, nu, max_len)
                        assert got == scanned_lr_expand(mu, nu, max_len), (
                            mu, nu, max_len)
                        cases += 1
                        nonzero += len(got)
    assert (cases, nonzero) == (1726, 4968)


@pytest.mark.parametrize("mu, nu, max_len", [((), (2,), 0),
                                             ((1, 1), (), 1)])
def test_lr_expand_factor_longer_than_cap(mu, nu, max_len):
    # no lam of length at most max_len contains the longer factor
    assert _lr_expand(mu, nu, max_len) == {}


def stack_subpartitions(mu):
    """The subpartitions enumerator that walked its own stack, kept verbatim
    as the oracle for the sigma range of _coproduct."""
    out = [()]
    stack = [((), 0)]
    while stack:
        prefix, i = stack.pop()
        if i == len(mu):
            continue
        hi = mu[i] if not prefix else min(mu[i], prefix[-1])
        for v in range(1, hi + 1):
            ext = prefix + (v,)
            out.append(ext)
            stack.append((ext, i + 1))
    return out


def test_subpartitions_match_stack_oracle():
    # with room for every strip, each sigma inside mu has a coproduct term
    for n in range(7):
        for mu in shapes.partitions_of(n):
            got = {sigma for sigma, _ in _coproduct(mu, n)}
            assert got == set(stack_subpartitions(mu)), mu


# The route through a box of eta candidates, retired from src/ and kept
# verbatim as the oracle for the coproduct and GL_m tensor rule.

def skew_multiplicities(outer, inner, max_len):
    """{alpha: c^outer_{inner, alpha}} with length of alpha at most max_len."""
    if not shapes.contains(outer, inner) or max_len < 0:
        return {}
    size = sum(outer) - sum(inner)
    out = {}
    for alpha in shapes.partitions_of(size, max_length=max_len,
                                      max_part=outer[0] if outer else 0):
        c = lr_coefficient(outer, inner, alpha)
        if c:
            out[alpha] = c
    return out


def subpartitions(mu):
    """All partitions contained in mu."""
    return [normalize(x) for x in
            shapes.decreasing_tuples((0,) * len(mu), mu)]


def past_mu(lam, mu):
    """{(sigma, eta): mult} with B(Lambda_lam) (x) B_{mu,()} the sum of
    mult B_{sigma,()} (x) B(Lambda_eta): mult sums c^{mu'}_{sigma' alpha}
    c^lam_{eta alpha*} over alpha, and a nonzero c^lam_{eta alpha*} forces
    lam_n <= eta_i <= lam_1 + alpha_1."""
    m = len(lam)
    lo, hi = (lam[-1], lam[0]) if lam else (0, 0)
    out = {}
    for sigma in subpartitions(mu):
        # strips longer than the hw cannot embed; the width bound
        # l(alpha) <= mu_1 is already forced by the skew coefficient
        for alpha, c1 in skew_multiplicities(conjugate(mu), conjugate(sigma),
                                             m).items():
            star = shapes.mu_star(alpha, m)
            top = hi + (alpha[0] if alpha else 0)
            for eta in gen_partitions_box(m, lo, top,
                                          total=sum(lam) + sum(alpha)):
                c3 = gen_lr_coefficient(lam, eta, star)
                if c3:
                    bump(out, (sigma, eta), c1 * c3)
    return out


def past_mu_hw_past_level0(lam, mu, nu):
    """B(Lambda_lam) (x) B_{mu,nu} = sum of B_{sigma,tau} (x) B(Lambda_rho)
    with the quadruple-LR multiplicity; always finite.

    B_{mu,nu} is the one class B_{mu,()} (x) B_{(),nu}.  The mu leg gives
    B_{sigma,()} (x) B(Lambda_eta).  The nu leg is its mirror under the star
    duality (mu <-> nu, hw -> -w0 hw): the mu leg on (eta*, nu), starred.
    """
    lam = tuple(lam)
    if not shapes.is_gen_partition(lam):
        raise ValueError("lam must be weakly decreasing")
    mu, nu = normalize(mu), normalize(nu)
    m = len(lam)
    out = {}
    for (sigma, eta), a in past_mu(lam, mu).items():
        for (tau, zeta), b in past_mu(shapes.mu_star(eta, m), nu).items():
            bump(out, (sigma, tau, shapes.mu_star(zeta, m)), a * b)
    return {ExtremalClass(s, t, r or None): c
            for (s, t, r), c in out.items()}


def two_leg_hw_past_level0(lam, mu, nu):
    """The hw_past_level0 that wrote the nu leg out by hand, kept verbatim as
    the oracle for the one-sided pass and its star mirror."""
    lam = tuple(lam)
    if not shapes.is_gen_partition(lam):
        raise ValueError("lam must be weakly decreasing")
    mu, nu = normalize(mu), normalize(nu)
    m = len(lam)
    mu_c, nu_c = conjugate(mu), conjugate(nu)
    out = {}
    for sigma in subpartitions(mu):
        for tau in subpartitions(nu):
            # strips longer than the hw cannot embed; the width bound
            # l(alpha) <= mu_1 is already forced by the skew coefficient
            for alpha, c1 in skew_multiplicities(mu_c, conjugate(sigma),
                                                 m).items():
                star = shapes.mu_star(alpha, m)
                for beta, c2 in skew_multiplicities(nu_c, conjugate(tau),
                                                    m).items():
                    beta_p = beta + (0,) * (m - len(beta))
                    asz, bsz = sum(alpha), sum(beta)
                    lob = (lam[-1] if lam else 0) - m * (alpha[0] if alpha
                                                         else 0) - asz
                    upb = (lam[0] if lam else 0) + (alpha[0] if alpha else 0)
                    for eta in gen_partitions_box(m, lob, upb,
                                                  total=sum(lam) + asz):
                        c3 = gen_lr_coefficient(lam, eta, star)
                        if not c3:
                            continue
                        for rho in gen_partitions_box(
                                m, (eta[-1] if eta else 0) - bsz,
                                eta[0] if eta else 0,
                                total=sum(eta) - bsz):
                            c4 = gen_lr_coefficient(eta, rho, beta_p)
                            if c4:
                                bump(out, (sigma, tau, rho),
                                     c1 * c2 * c3 * c4)
    return {ExtremalClass(s, t, r or None): c
            for (s, t, r), c in out.items()}


def test_hw_past_level0_matches_two_leg_oracle():
    parts = [mu for n in range(5) for mu in shapes.partitions_of(n)]
    pairs = [(mu, nu) for mu in parts for nu in parts
             if sum(mu) + sum(nu) <= 4]
    both_legs = 0
    for m in range(4):
        for lam in gen_partitions_box(m, -2, 2):
            for mu, nu in pairs:
                if m == 3 and sum(mu) + sum(nu) > 3:
                    continue
                got = hw_past_level0(lam, mu, nu)
                assert got == past_mu_hw_past_level0(lam, mu, nu), (
                    lam, mu, nu)
                if m < 3:
                    assert got == two_leg_hw_past_level0(lam, mu, nu), (
                        lam, mu, nu)
                both_legs += bool(lam and mu and nu and len(got) > 1)
    assert both_legs > 100


def gen_box(length, lo, hi, total):
    if length == 0:
        return [()] if total == 0 else []
    out = []

    def rec(i, prefix, acc):
        if i == length:
            if acc == total:
                out.append(tuple(prefix))
            return
        cap = hi if not prefix else min(hi, prefix[-1])
        for v in range(lo, cap + 1):
            rec(i + 1, prefix + [v], acc + v)

    rec(0, [], 0)
    return out


def parts_upto(size, maxpart):
    out = [()]
    for s in range(1, size + 1):
        out.extend(p for p in shapes.partitions_of(s)
                   if p and p[0] <= maxpart)
    return out


def character_identity_holds(rho, sigma, tau, p, q, degree):
    """Multiplicities of the fixed class B_{sigma,tau} (x) B(Lambda_rho),
    summed with Schur weights over all sources, reproduce the product of the
    class character with the geometric correction factors, exactly, up to the
    given total degree in the two finite alphabets."""
    m = len(rho)
    total = m + p + q
    zero = (0,) * total
    target = ExtremalClass(sigma, tau, rho or None)

    def sx(gen):
        return characters.lp_lift(characters.laurent_schur(gen), total, 0)

    def spart(part, nvars, offset):
        conj = shapes.conjugate(part)
        if len(conj) > nvars:
            return None
        if nvars == 0:
            return {zero: 1}
        conj = conj + (0,) * (nvars - len(conj))
        return characters.lp_lift(characters.laurent_schur(conj), total,
                                  offset)

    def cut(poly):
        return {e: c for e, c in poly.items() if sum(e[m:]) <= degree}

    lhs = {}
    lob = (rho[-1] if rho else 0) - degree - 1
    hib = (rho[0] if rho else 0) + degree + 1
    for mu in parts_upto(degree, p):
        ymono = spart(mu, p, m)
        if ymono is None:
            continue
        for nu in parts_upto(degree - sum(mu), q):
            wmono = spart(nu, q, m + p)
            if wmono is None:
                continue
            s = sum(rho) + sum(sigma) - sum(tau) - sum(mu) + sum(nu)
            for lam in gen_box(m, lob, hib, s):
                c = hw_past_level0(lam, mu, nu).get(target, 0)
                if not c:
                    continue
                term = characters.lp_mul(characters.lp_mul(sx(lam), ymono),
                                         wmono)
                lhs = shapes.lin_add(lhs, term, c)

    rhs = characters.lp_mul(characters.lp_mul(sx(rho), spart(sigma, p, m)),
                            spart(tau, q, m + p))
    for i in range(m):
        for j in range(p):
            geom = {tuple((-d if t == i else (d if t == m + j else 0))
                          for t in range(total)): 1
                    for d in range(degree + 1)}
            rhs = characters.lp_mul(rhs, geom)
    for i in range(m):
        for k in range(q):
            geom = {tuple((d if t == i or t == m + p + k else 0)
                          for t in range(total)): 1
                    for d in range(degree + 1)}
            rhs = characters.lp_mul(rhs, geom)
    return cut(lhs) == cut(rhs)


def test_character_identity():
    cases = [
        ((1,), (), (), 1, 1, 3),
        ((0,), (1,), (), 1, 1, 2),
        ((1, 0), (), (), 1, 1, 2),
        ((1,), (1,), (1,), 2, 2, 2),
        ((2, -1), (1,), (), 2, 1, 2),
        ((-1,), (), (1,), 1, 2, 2),
    ]
    for rho, sigma, tau, p, q, degree in cases:
        assert character_identity_holds(rho, sigma, tau, p, q, degree)


def test_extremal_lr_degenerations():
    # pure highest weight factors
    got = extremal_lr((1, 0), (), (), (0,), (), (), (-2, 2))
    want = {ExtremalClass((), (), z): c
            for z, c in hw_product((1, 0), (0,), (-2, 2)).items()}
    assert got == want
    # trivial second / first factor
    assert extremal_lr((1,), (2,), (1,), (), (), (), (-3, 3)) == {
        ExtremalClass((2,), (1,), (1,)): 1}
    assert extremal_lr((), (), (), (1,), (2,), (1,), (-3, 3)) == {
        ExtremalClass((2,), (1,), (1,)): 1}
    # no second highest weight factor: move, then multiply level-0 parts
    lam, mu, nu, sigma, tau = (1,), (1,), (), (1,), (1,)
    got = extremal_lr(lam, mu, nu, (), sigma, tau, (-9, 9))
    want = {}
    for cls, c in hw_past_level0(lam, sigma, tau).items():
        for lz, c2 in level0_product(mu, nu, cls.mu, cls.nu).items():
            key = ExtremalClass(lz.mu, lz.nu, cls.hw)
            want[key] = want.get(key, 0) + c * c2
    assert got == want


def test_extremal_lr_frozen():
    assert extremal_lr((0,), (1,), (), (0,), (), (), (-2, 2)) == {
        ExtremalClass((1,), (), (a, -a)): 1 for a in range(3)}


def test_extremal_lr_duality():
    rng = random.Random(41)
    for _ in range(6):
        lam, rho = rand_gen_partition(rng, 1), rand_gen_partition(rng, 1)
        mu, nu = rand_partition(rng, 1), rand_partition(rng, 1)
        sigma, tau = rand_partition(rng, 1, 1), rand_partition(rng, 1, 1)
        d1 = extremal_lr(lam, mu, nu, rho, sigma, tau, (-6, 6))
        d2 = extremal_lr(star(lam), nu, mu, star(rho), tau, sigma, (-6, 6))
        m1 = {(c.nu, c.mu, star(c.hw or ())): v for c, v in d1.items()}
        m2 = {(c.mu, c.nu, tuple(c.hw or ())): v for c, v in d2.items()}
        assert m1 == m2


# Retired from src/ (expr_decompose now multiplies by each single factor
# class inline), kept verbatim as the product of the associativity tests and
# as the oracle of expr_decompose.

def product_decomposition(d1, d2, window):
    """Decomposition of d1 (x) d2 for {class: mult} maps: the linear
    extension of extremal_lr."""
    out = {}
    for c1, a in d1.items():
        for c2, b in d2.items():
            for c3, m in extremal_lr(c1.hw, c1.mu, c1.nu, c2.hw, c2.mu,
                                     c2.nu, window).items():
                bump(out, c3, a * b * m)
    return out


def test_extremal_lr_associative():
    # level-zero classes of one and two boxes, level-one factors, and one
    # class of both kinds; at most two of the three factors of level one,
    # but for B(Lambda_1)^3 (an all-level-one triple costs about 20 ms)
    cube = (ExtremalClass(hw=(1,)),) * 3
    factors = ([ExtremalClass(mu, nu) for n in (1, 2) for k in range(n + 1)
                for mu in shapes.partitions_of(k)
                for nu in shapes.partitions_of(n - k)]
               + [ExtremalClass(hw=(a,)) for a in (-1, 0, 1)]
               + [ExtremalClass((1,), (), (0,))])
    win = (-7, 7)
    triples = 0
    for triple in itertools.product(factors, repeat=3):
        if all(c.level for c in triple) and triple != cube:
            continue
        d1, d2, d3 = ({c: 1} for c in triple)
        # each box moves intermediate hw entries by at most one, so classes
        # s + 1 steps inside the window are complete on either side
        s = sum(sum(c.mu) + sum(c.nu) for c in triple)

        def inner(dec):
            return {c: m for c, m in dec.items()
                    if not c.hw or (c.hw[0] <= win[1] - s - 1
                                    and c.hw[-1] >= win[0] + s + 1)}

        left = product_decomposition(product_decomposition(d1, d2, win), d3,
                                     win)
        right = product_decomposition(d1, product_decomposition(d2, d3, win),
                                      win)
        assert inner(left) == inner(right), triple
        triples += 1
    assert triples == 1268


def test_class_product_noncommutative():
    dualcol = ExtremalClass((), (1,))
    vac = ExtremalClass(hw=(0,))
    assert product_decomposition({dualcol: 1}, {vac: 1}, (-4, 4)) == {
        ExtremalClass((), (1,), (0,)): 1}
    assert product_decomposition({vac: 1}, {dualcol: 1}, (-4, 4)) == {
        ExtremalClass((), (1,), (0,)): 1,
        ExtremalClass((), (), (-1,)): 1}


# Moved from src/, where only this test used it.

def level0_canonical(w):
    """Dominant (mu, nu) with B(w) isomorphic to B_{mu,nu}, for w of level 0:
    positive eps coefficients sorted decreasingly, then negated negatives."""
    if w.level != 0:
        raise ValueError("weight has nonzero level %d" % w.level)
    pos = sorted((c for _, c in w.eps if c > 0), reverse=True)
    neg = sorted((-c for _, c in w.eps if c < 0), reverse=True)
    return tuple(pos), tuple(neg)


def test_level0_canonical():
    assert level0_canonical(Weight(0)) == ((), ())
    assert level0_canonical(Weight(0, {5: 1, -2: -1})) == ((1,), (1,))
    assert level0_canonical(Weight(0, {1: 2, 3: 1, 7: -1})) == ((2, 1), (1,))
    with pytest.raises(ValueError):
        level0_canonical(Weight(1, {0: 1}))
    # invariant under relocating the coefficients
    rng = random.Random(47)
    for _ in range(20):
        coeffs = [rng.randrange(-2, 3) for _ in range(4)]
        spots1 = rng.sample(range(-6, 7), 4)
        spots2 = rng.sample(range(-6, 7), 4)
        w1 = Weight(0, dict(zip(spots1, coeffs)))
        w2 = Weight(0, dict(zip(spots2, coeffs)))
        assert level0_canonical(w1) == level0_canonical(w2)


def test_parse_tensor_expr():
    assert parse_tensor_expr("B(2,0) * Bmn(1;1) * Bdual(1,1) * Bcol(2)") == [
        ("B", (2, 0)), ("Bmn", (1,), (1,)), ("Bdual", (1, 1)),
        ("Bmn", (1, 1), ())]
    assert parse_tensor_expr("Bmn(;1)") == [("Bmn", (), (1,))]
    assert parse_tensor_expr(" B(-1) ") == [("B", (-1,))]
    for bad in ["", "B(1", "Bx(1)", "Bmn(1)", "B()", "Bcol(x)",
                "B(1,2)"]:
        with pytest.raises(ValueError):
            parse_tensor_expr(bad)


def _offending_token(parse, text):
    """The stripped token an error from ``parse(text)`` must name: the whole
    text for a shape, the first factor that fails on its own for a tensor
    expression (factors are parsed left to right)."""
    if parse is not parse_tensor_expr:
        return text.strip()
    for piece in text.split("*"):
        try:
            parse_tensor_expr(piece)
        except ValueError:
            return piece.strip()
    raise AssertionError("no factor of %r fails alone" % text)


@given(st.sampled_from([shapes.parse_partition, shapes.parse_gen_partition,
                        parse_tensor_expr]),
       st.text(alphabet="01-,;() *Bmncoldua", max_size=12))
@example(parse_tensor_expr, "B()")
@example(parse_tensor_expr, "Bdual()")
@example(parse_tensor_expr, "B(0) * B( )")
def test_parsers_name_the_malformed_token(parse, text):
    try:
        parse(text)
    except ValueError as exc:
        assert repr(_offending_token(parse, text)) in str(exc)


def test_expr_decompose():
    dec = expr_decompose([("B", (2,)), ("Bcol", 2)], (-6, 6))
    assert dec == pieri_column((2,), 2)
    with pytest.raises(MixedLevelError):
        expr_decompose([("B", (0,)), ("Bdual", (0,))], (-3, 3))


def test_expr_decompose_is_the_left_fold_of_product_decomposition():
    # each factor as the class it names, read here rather than through
    # lr_engine's own factor normalization
    classes = {
        ("B", (0,)): ExtremalClass(hw=(0,)),
        ("B", (1, -1)): ExtremalClass(hw=(1, -1)),
        ("Bcol", 0): ExtremalClass(),
        ("Bcol", 1): ExtremalClass((1,)),
        ("Bcol", 2): ExtremalClass((1, 1)),
        ("Bmn", (), (1,)): ExtremalClass((), (1,)),
        ("Bmn", (2,), (1,)): ExtremalClass((2,), (1,)),
    }
    win = (-5, 5)
    cases = 0
    for length in (1, 2, 3):
        for factors in itertools.product(classes, repeat=length):
            want = {ExtremalClass(): 1}
            for fac in factors:
                want = product_decomposition(want, {classes[fac]: 1}, win)
            assert expr_decompose(list(factors), win) == want, factors
            cases += 1
    assert cases == 399


@pytest.mark.parametrize("argv", [
    ["decompose", "B(1)*B(0)", "--margin", "-5"],
    ["extremal-lr", "0", "1", "", "0", "", "", "--margin", "-9"],
])
def test_cli_rejects_negative_margin(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--margin" in err and argv[-1] in err


@pytest.mark.parametrize("flag,argv", [
    ("--seed", ["lr", "3,2,1", "2,1", "2,1", "--seed", "1"]),
    ("--margin", ["verify", "pieri", "--quick", "--margin", "4"]),
    ("--seed", ["hl-act", "--mu", "1", "--seed", "0"]),
    ("--T", ["decompose", "B(0)", "--T", "2"]),
    ("--seed", ["--seed", "0", "verify", "pieri", "--quick"]),
    ("--format", ["lr", "1", "1", "0", "--format", "table"]),
])
def test_cli_flag_only_on_its_command(flag, argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: %s" % flag in err


@pytest.mark.parametrize("argv", [
    ["pieri", "--", "0", "-1"],
    ["hl-act", "--mu", "0", "--T", "-1"],
])
def test_cli_names_out_of_range_value(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "got %s" % argv[-1] in err


@pytest.mark.parametrize("argv", [
    ["lr", "3000", "1500", "1500"],
    # the window's box was once scanned value by value at every position
    ["decompose", "B(0) * B(0)", "--margin", "100000"],
    ["decompose", "B(0) * B(0)", "--margin", "1000000000"],
])
def test_cli_names_oversized_input(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: %s: " % argv[0]) and "too large" in err


def test_cli_kostka_foulkes_one_long_row(capsys):
    """A single row of 1500 boxes once exhausted the recursion of the row
    fillings; the strip chain walks it as one strip."""
    assert cli.main(["kostka-foulkes", "1500", "1500"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == {"tpoly": [[0, 1]]}


def test_verify_pieri_and_self():
    rep = verify_truncated([("B", (1,)), ("Bcol", 2)], (-4, 4),
                           pieri_column((1,), 2))
    assert rep["status"] == "ok" and not rep["retried"]
    with pytest.raises(ValueError, match="threads=2"):
        verify_truncated([("B", (1,)), ("Bcol", 2)], (-4, 4),
                         pieri_column((1,), 2), threads=2)
    rep = verify_truncated([("Bmn", (1,), (1,))], (-2, 2),
                           {ExtremalClass((1,), (1,)): 1})
    assert rep["status"] == "ok"


def test_verify_level_one_pair():
    predicted = {ExtremalClass((1,) * a, (1,) * (a + 1)): 1
                 for a in range(4)}
    rep = verify_truncated([("B", (0,)), ("Bdual", (1,))], (-3, 3), predicted)
    assert rep["status"] == "ok"
    assert rep["retried"] and rep["window"] == [-4, 4]
    flipped = {ExtremalClass((1,) * (a + 1), (1,) * a): 1 for a in range(4)}
    rep = verify_truncated([("B", (1,)), ("Bdual", (0,))], (-4, 4), flipped)
    assert rep["status"] == "ok" and not rep["retried"]


def test_verify_level0_prefix():
    win = (-2, 2)
    rep = verify_truncated([("Bmn", (1,), ()), ("B", (0,)), ("B", (0,))],
                           win, extremal_lr((0,), (1,), (), (0,), (), (),
                                            win))
    assert rep["status"] == "ok" and not rep["retried"]
    rep = verify_truncated([("Bmn", (), (1,)), ("B", (0,))], (-3, 3),
                           {ExtremalClass((), (1,), (0,)): 1})
    assert rep["status"] == "ok"
    with pytest.raises(ValueError):
        verify_truncated([("B", (0,)), ("Bmn", (1,), ()), ("B", (0,))],
                         (-3, 3), {ExtremalClass((1,), (), (0, 0)): 1})


def test_verify_mismatch_and_too_small():
    rep = verify_truncated([("Bcol", 1), ("Bcol", 1)], (-2, 2),
                           {ExtremalClass((2,), ()): 1})
    assert rep["status"] == "mismatch"
    assert rep["lhs_components"] == 2 and rep["predicted_components"] == 1
    assert any(d["lhs"] == 1 and d["predicted"] == 0
               for d in rep["discrepancies"])
    rep = verify_truncated([("B", (20,))], (-1, 1),
                           {ExtremalClass(hw=(20,)): 1})
    assert rep["status"] == "window-too-small"
    assert "letters" in rep["detail"]
