"""Hall-Littlewood vertex operators on the z-ring.

A truncated element (TRElem) is a zero-free dict {power of t: ring element},
one t-slice per power, slices summed with shapes.bump_poly; the truncation
order T is passed explicitly and arithmetic drops every power of t above it.
The mode operator b^t_k raises z-degree by one; words in the modes applied
to 1 expand in the z-Schur basis with Kostka-Foulkes coefficients,
interpolating between a single z-Schur class at t=0 and the plain monomial
product at t=1.  Each mode makes one merged column pass per power of t and
one fused row pass, which lowers and multiplies in the same loop.
"""

from itertools import product
from operator import sub

from . import ring
from .shapes import bump_poly, is_gen_partition, lin_add


# ---------------------------------------------------------------- TRElem

def tr_one():
    return {0: {(): 1}}


def tr_from_r(f):
    """Lift a plain ring element onto the t^0 slice."""
    sl = {k: c for k, c in f.items() if c}
    return {0: sl} if sl else {}


def tr_add(a, b):
    out = dict(a)
    for e, sl in b.items():
        bump_poly(out, e, sl)
    return out


def tr_t_shift(f, j, T, c=1):
    """Multiply by c*t^j, dropping powers beyond T."""
    return {e + j: {k: v * c for k, v in sl.items()}
            for e, sl in f.items() if e + j <= T}


def tr_eval(f, t):
    """Specialize t to an integer; a plain ring element."""
    out = {}
    for e, sl in f.items():
        out = lin_add(out, sl, t ** e)
    return out


def tr_omega(f):
    """z_k -> z_{-k} on every slice."""
    return {e: {tuple(sorted((-x for x in k), reverse=True)): c
                for k, c in sl.items()}
            for e, sl in f.items()}


# ---------------------------------------------------------------- modes

def bt_apply(k, f, T):
    """Apply the mode operator b^t_k, raising z-degree by exactly one.

    The mode expands as sum_{j,d} (-1)^d t^j [multiply by z_{j+d+k}] o
    [lower by the row (d)] o [lower by the column (1^j)], left factor
    outermost (Jing 1991).  The column pass is one ring.s_operator call per
    slice and power of t; it never annihilates, so j is cut by T alone.
    The row (d) lowers d distinct entries by one, so the row pass and the
    multiplication are one loop over the 0/1 vectors b of each monomial,
    d = |b|, which gives d <= degree by construction.  At j = 0 the column
    operator is the identity, so the slice passes through.
    """
    out = {}
    flips = {}
    for e, sl in f.items():
        for j in range(T - e + 1):
            g = ring.s_operator(-1, (1,) * j)(sl) if j else sl
            if not g:
                continue
            acc = out.setdefault(e + j, {})
            for z, c in g.items():
                rows = flips.get(len(z))
                if rows is None:
                    rows = flips[len(z)] = [
                        (b, sum(b), -1 if sum(b) % 2 else 1)
                        for b in product((0, 1), repeat=len(z))]
                for b, d, sign in rows:
                    key = tuple(sorted((j + d + k, *map(sub, z, b)),
                                       reverse=True))
                    # bump inlined: this is the inner loop of every mode
                    v = acc.get(key, 0) + sign * c
                    if v:
                        acc[key] = v
                    elif key in acc:
                        del acc[key]
    return {e: sl for e, sl in out.items() if sl}


def bt_bar_apply(k, f, T):
    """The omega-conjugate mode: omega o b^t_k o omega."""
    return tr_omega(bt_apply(k, tr_omega(f), T))


def n_stat(mu):
    """Macdonald's n(mu) = sum_i (i-1) mu_i, the order T from which
    bt_word_action(mu, T) is complete on partition shapes."""
    return sum(i * part for i, part in enumerate(mu))


def bt_word_action(mu, T):
    """Act with b^t_{mu_1} ... b^t_{mu_n} on 1, rightmost mode first, and
    expand each t-slice of the result in the z-Schur basis itself.

    Returns {shape: TPoly} over length-n shapes.  For partition shapes the
    coefficient is the Kostka-Foulkes polynomial K_{shape,mu}(t), complete
    once T >= sum_i (i-1)*mu_i; shapes with negative entries carry t-tails
    that the truncation cuts off.  T must be a nonnegative int.
    """
    if type(T) is not int:
        raise ValueError("truncation order must be an int, got %r" % (T,))
    if T < 0:
        raise ValueError("truncation order must be nonnegative, got %d" % T)
    mu = tuple(mu)
    if not is_gen_partition(mu):
        raise ValueError("mode word must be weakly decreasing")
    f = tr_one()
    for m in reversed(mu):
        f = bt_apply(m, f, T)
    out = {}
    for e, sl in sorted(f.items()):
        for lam, c in ring.expand_in_z_schur(sl, len(mu)).items():
            out.setdefault(lam, {})[e] = c
    return out


def bt_commutator_check(m, n, T, sample):
    """Check the defining relation of the modes on one sample: b_m b_n -
    t b_n b_m - t b_{m+1} b_{n-1} + b_{n-1} b_{m+1} kills it mod t^{T+1}.
    The t-shifted terms are built at order T - 1, as the shift drops their
    t^T slice and a mode's slice e reads only input slices <= e."""
    def w2(a, b, T):
        return bt_apply(a, bt_apply(b, sample, T), T)

    acc = w2(m, n, T)
    acc = tr_add(acc, tr_t_shift(w2(n, m, T - 1), 1, T, -1))
    acc = tr_add(acc, tr_t_shift(w2(m + 1, n - 1, T - 1), 1, T, -1))
    acc = tr_add(acc, w2(n - 1, m + 1, T))
    return not acc
