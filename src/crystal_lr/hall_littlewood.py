"""Hall-Littlewood vertex operators on the z-ring.

A truncated element (TRElem) is a zero-free dict {monomial: TPoly}, summed
with shapes.bump_poly; the truncation order T is passed explicitly and
arithmetic drops every power of t above it.  The mode operator b^t_k raises
z-degree by one; words in the modes applied to 1 expand in the z-Schur basis
with Kostka-Foulkes coefficients, interpolating between a single z-Schur
class at t=0 and the plain monomial product at t=1.
"""

import itertools

from . import ring
from .shapes import (bump_poly, conjugate, gen_lr_coefficient,
                     gen_partitions_box, inversion_sign, is_gen_partition,
                     lr_coefficient, mu_star, partitions_of)


# ---------------------------------------------------------------- TRElem

def tr_one():
    return {(): {0: 1}}


def tr_from_r(f, j=0):
    """Lift a plain ring element onto the t^j slice."""
    return {k: {j: c} for k, c in f.items() if c}


def tr_add(a, b):
    out = dict(a)
    for k, tp in b.items():
        bump_poly(out, k, tp)
    return out


def tr_t_shift(f, j, T, c=1):
    """Multiply by c*t^j, dropping powers beyond T."""
    out = {}
    for k, tp in f.items():
        cur = {e + j: v * c for e, v in tp.items() if e + j <= T}
        if cur:
            out[k] = cur
    return out


def tr_slices(f, T):
    """Split into plain ring elements keyed by power of t."""
    out = {}
    for k, tp in f.items():
        for e, c in tp.items():
            if e <= T:
                out.setdefault(e, {})[k] = c
    return out


def tr_eval(f, t):
    """Specialize t to an integer; a plain ring element."""
    out = {}
    for k, tp in f.items():
        v = sum(c * t ** e for e, c in tp.items())
        if v:
            out[k] = v
    return out


def tr_omega(f):
    """z_k -> z_{-k} on every slice."""
    return {tuple(sorted((-x for x in k), reverse=True)): tp
            for k, tp in f.items()}


def tr_expand_schur(f, n, T):
    """Expand every t-slice in the z-Schur basis; {shape: TPoly}."""
    out = {}
    for e, sl in sorted(tr_slices(f, T).items()):
        for lam, c in ring.expand_in_z_schur(sl, n).items():
            out.setdefault(lam, {})[e] = c
    return out


# ---------------------------------------------------------------- modes

def bt_apply(k, f, T):
    """Apply the mode operator b^t_k, raising z-degree by exactly one.

    The mode expands as sum_{j,d} (-1)^d t^j [multiply by z_{j+d+k}] o
    [lower by the row (d)] o [lower by the column (1^j)], left factor
    outermost.  The row factor kills everything of degree below d, so d
    stops at the slice degree and the first discarded term is checked to
    vanish; the column factor never annihilates, so j is cut by the
    truncation order alone.
    """
    out = {}
    for e, sl in tr_slices(f, T).items():
        deg = max((len(key) for key in sl), default=0)
        for j in range(T - e + 1):
            g = ring.s_operator(-1, (1,) * j)(sl)
            if not g:
                continue
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
                term = ring.r_mul(ring.r_monomial((j + d + k,)), h)
                for key, c in term.items():
                    bump_poly(out, key, {e + j: c}, sign)
    return out


def bt_bar_apply(k, f, T):
    """The omega-conjugate mode: omega o b^t_k o omega."""
    return tr_omega(bt_apply(k, tr_omega(f), T))


def n_stat(mu):
    """Macdonald's n(mu) = sum_i (i-1) mu_i, the order T from which
    bt_word_action(mu, T) is complete on partition shapes."""
    return sum(i * part for i, part in enumerate(mu))


def bt_word_action(mu, T):
    """Act with b^t_{mu_1} ... b^t_{mu_n} on 1, rightmost mode first, and
    expand in the z-Schur basis.

    Returns {shape: TPoly} over length-n shapes.  For partition shapes the
    coefficient is the Kostka-Foulkes polynomial K_{shape,mu}(t), complete
    once T >= sum_i (i-1)*mu_i; shapes with negative entries carry t-tails
    that the truncation cuts off.
    """
    mu = tuple(mu)
    if not is_gen_partition(mu):
        raise ValueError("mode word must be weakly decreasing")
    f = tr_one()
    for m in reversed(mu):
        f = bt_apply(m, f, T)
    return tr_expand_schur(f, len(mu), T)


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
        for e, sl in tr_slices(f, T).items():
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
                                    term = ring.r_mul(ring.z_schur(eta), g)
                                    for key, c in term.items():
                                        bump_poly(out, key, {e + snu: c},
                                                  msign * c1 * c2)
        return out

    return act


def bt_commutator_check(m, n, T, sample):
    """Check the defining relation of the modes on one sample: b_m b_n -
    t b_n b_m - t b_{m+1} b_{n-1} + b_{n-1} b_{m+1} kills it mod t^{T+1}."""
    def w2(a, b):
        return bt_apply(a, bt_apply(b, sample, T), T)

    acc = w2(m, n)
    acc = tr_add(acc, tr_t_shift(w2(n, m), 1, T, -1))
    acc = tr_add(acc, tr_t_shift(w2(m + 1, n - 1), 1, T, -1))
    acc = tr_add(acc, w2(n - 1, m + 1))
    return not acc
