"""Hall-Littlewood vertex operators on the z-ring.

A truncated element (TRElem) is a zero-free dict {power of t: ring element},
one t-slice per power, slices summed with shapes.bump_poly; the truncation
order T is passed explicitly and arithmetic drops every power of t above it.
The mode operator b^t_k raises z-degree by one; words in the modes applied
to 1 expand in the z-Schur basis with Kostka-Foulkes coefficients,
interpolating between a single z-Schur class at t=0 and the plain monomial
product at t=1.  Each mode makes one merged column pass per power of t;
its row pass reads a table per monomial, memoized in a bounded LRU cache,
and only inserts the new index into each row of it.
"""

from functools import lru_cache
from itertools import groupby
from math import comb
from operator import sub

from . import ring
from .shapes import bump_poly, is_gen_partition, lin_add

# the row tables that _rows keeps, least recently used first out.  A table
# of degree n holds at most 2^n rows; verify hl reads about 400 tables, and
# hl-act --mu 0,0,0,0,0,0,0 --T 5 about 9000, where a miss costs about what
# the unmemoized row pass did.
ROWS_MAXSIZE = 1024


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

# 128 tables hold every run pattern of a monomial of degree at most 7
@lru_cache(maxsize=128)
def _lowerings(runs):
    """The lowerings of a monomial z whose runs of equal entries have the
    lengths runs: (b, |b|, weight) as three parallel tuples, one entry per
    distinct multiset z - b over the 0/1 vectors b.  Lowering r entries of
    a run of m gives the same multiset for C(m, r) vectors, so b lowers the
    last r of the run and weighs (-1)^r C(m, r); runs of different values
    differ by at least one and stay in order.  The entries come in the
    lexicographic order of the vectors b that each first stands for."""
    rows = [((), 0, 1)]
    for m in runs:
        rows = [(b + (0,) * (m - r) + (1,) * r, d + r,
                 (-1 if r % 2 else 1) * w * comb(m, r))
                for b, d, w in rows for r in range(m + 1)]
    return tuple(zip(*rows))


@lru_cache(maxsize=ROWS_MAXSIZE)
def _rows(z):
    """The row table of the weakly decreasing monomial z: the distinct
    pairs (z - b, d = |b|), each already sorted, with the summed sign of
    the vectors b that give it, as the parallel tuples (rests, ds,
    weights).  Cached per monomial and shared by every caller."""
    low = _lowerings(tuple(len(tuple(run)) for _, run in groupby(z)))
    return (tuple([tuple(map(sub, z, b)) for b in low[0]]),) + low[1:]


def bt_apply(k, f, T):
    """Apply the mode operator b^t_k, raising z-degree by exactly one.

    The mode expands as sum_{j,d} (-1)^d t^j [multiply by z_{j+d+k}] o
    [lower by the row (d)] o [lower by the column (1^j)], left factor
    outermost (Jing 1991).  The column pass is one ring.s_operator call per
    slice and power of t; it never annihilates, so j is cut by T alone.
    The row (d) lowers d distinct entries by one, so d <= degree by
    construction.  Each monomial of the column image reads its row table,
    the vectors b that give one multiset already merged, from _rows (an
    LRU cache of ROWS_MAXSIZE tables); the multiplication then only
    inserts j+d+k into each row.  At j = 0 the column operator is the
    identity, so the slice passes through.
    """
    out = {}
    for e, sl in f.items():
        for j in range(T - e + 1):
            g = ring.s_operator(-1, (1,) * j)(sl) if j else sl
            if not g:
                continue
            acc = out.setdefault(e + j, {})
            x = j + k
            for z, c in g.items():
                for rest, d, w in zip(*_rows(z)):
                    key = tuple(sorted((x + d, *rest), reverse=True))
                    # bump inlined: this is the inner loop of every mode
                    v = acc.get(key, 0) + w * c
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
