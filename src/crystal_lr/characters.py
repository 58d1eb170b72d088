"""Exact symmetric Laurent-polynomial arithmetic in finitely many variables.

A LaurentPoly is a zero-free dict mapping fixed-length integer exponent
tuples to integer coefficients, summed with the kernel of shapes.
Everything here is the character-side oracle: Laurent Schur polynomials via
the bialternant ratio, the two-alphabet branching expansion, and
Hall-Littlewood P polynomials with TPoly coefficients.
"""

import itertools
from functools import cache

from . import shapes


# ---------------------------------------------------------------- basics

def lp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            shapes.bump(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return out


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


def lp_lift(a, total, offset):
    """Embed a poly in k variables into `total` variables at slot `offset`."""
    out = {}
    for e, c in a.items():
        f = (0,) * offset + e + (0,) * (total - offset - len(e))
        out[f] = c
    return out


# ---------------------------------------------------------------- schur

def _alternant(avec):
    n = len(avec)
    out = {}
    for perm in itertools.permutations(range(n)):
        exps = tuple(avec[perm[i]] for i in range(n))
        shapes.bump(out, exps, shapes.inversion_sign(perm))
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


def laurent_schur(lam):
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


def branch_split(lam, m, n):
    """Expand s_lam(x_1..x_{m+n}) into s_mu(x_1..x_m) * s_nu(x_{m+1}..x_{m+n}).

    Returns {(mu, nu): coeff} with mu, nu generalized partitions of lengths
    m and n.  Peels the lexicographically maximal term; its exponent blocks
    are always dominant, so elimination is triangular.
    """
    if m < 1 or n < 1:
        raise ValueError("both alphabets must be nonempty")
    if len(lam) != m + n:
        raise ValueError("lam must have length m+n")
    f = dict(laurent_schur(lam))
    out = {}
    while f:
        e = max(f)
        mu, nu = e[:m], e[m:]
        assert shapes.is_gen_partition(mu) and shapes.is_gen_partition(nu)
        c = f[e]
        out[(mu, nu)] = c
        prod = lp_mul(lp_lift(laurent_schur(mu), m + n, 0),
                      lp_lift(laurent_schur(nu), m + n, m))
        f = shapes.lin_add(f, prod, -c)
    return out


# ---------------------------------------------------------------- HL P

def _psi(outer, inner):
    """Branching factor: product of (1 - t^{m_j(inner)}) over columns j where
    inner has one more part equal to j than outer does."""
    out = {0: 1}
    for j in range(1, (outer[0] if outer else 0) + 1):
        mo = sum(1 for p in outer if p == j)
        mi = sum(1 for p in inner if p == j)
        if mi == mo + 1:
            out = shapes.tpoly_mul(out, {0: 1, mi: -1})
    return out


@cache
def _hl_p(mu, nvars):
    if not mu:
        return {(0,) * nvars: {0: 1}}
    if nvars == 0:
        return {}
    out = {}
    for k in range(sum(mu) + 1):
        for nu in shapes.horizontal_strips_below(mu, k):
            psi = _psi(mu, nu)
            for e, tp in _hl_p(nu, nvars - 1).items():
                shapes.bump_poly(out, e + (k,), shapes.tpoly_mul(tp, psi))
    return out


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
        v = shapes.tpoly_eval(tp, t)
        if v:
            out[e] = v
    return out


def schur_to_hl(lam, nvars):
    """Expand s_lam = sum_mu K_{lam mu}(t) P_mu by triangular elimination.

    Returns {mu: TPoly}; the independent route to Kostka-Foulkes polynomials.
    """
    lam = shapes.normalize(lam)
    f = {e: {0: c} for e, c in laurent_schur(shapes._pad(lam, nvars)).items()}
    out = {}
    while f:
        e = max(f)
        mu = shapes.normalize(e)
        assert shapes.is_partition(e)
        ktp = f[e]
        out[mu] = ktp
        for pe, ptp in _hl_p(mu, nvars).items():
            shapes.bump_poly(f, pe, shapes.tpoly_mul(ptp, ktp), -1)
    return out
