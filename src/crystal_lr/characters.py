"""The character-side oracle: exact Laurent polynomials in finitely many
variables, as zero-free dicts from integer exponent tuples to integer
coefficients, summed with the kernel of shapes.

laurent_schur reads the contents of the tableaux of crystal.enumerate_sst,
and branch_split the contents of its sources for GL_m x GL_n (eps_k = 0 at
every color k but m; one per component).  schur_to_hl peels laurent_schur
by Hall-Littlewood P polynomials built with the horizontal-strip rule.
None of the routes these check reaches enumerate_sst: gen_lr_coefficient
counts lattice fillings, hw_past_level0 sums LR coefficients, and the
Kostka-Foulkes polynomials come from charge and from ring.s_operator.
"""

from functools import cache

from . import crystal, shapes


# ---------------------------------------------------------------- basics

def lp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            shapes.bump(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return out


def lp_lift(a, total, offset):
    """Embed a poly in k variables into `total` variables at slot `offset`."""
    out = {}
    for e, c in a.items():
        f = (0,) * offset + e + (0,) * (total - offset - len(e))
        out[f] = c
    return out


# ---------------------------------------------------------------- schur

def _tableau_content(lam, split=None):
    """{content - (p^n): count} over the tableaux of shape lam + (p^n) with
    entries in 1..n, n = len(lam) and p = max(0, -lam_n) the shift to a
    partition.  With split = m, only the tableaux with eps_k = 0 at every
    color k but m: enumerate_sst prunes by the block content (|s|^m,
    0^(n-m)) of the shape s = lam + (p^n), flat but for one step of |s| at
    color m, which no word of the shape climbs."""
    lam = tuple(lam)
    if not shapes.is_gen_partition(lam):
        raise ValueError("not weakly decreasing: %r" % (lam,))
    n = len(lam)
    p = max(0, -lam[-1]) if lam else 0
    shape = [x + p for x in lam]
    content = None
    if split is not None:
        content = [sum(shape)] * split + [0] * (n - split)
    out = {}
    for tab in crystal.enumerate_sst(shape, 1, n, content=content):
        e = [-p] * n
        for col in tab.cols:
            for v in col:
                e[v - 1] += 1
        shapes.bump(out, tuple(e), 1)
    return out


def laurent_schur(lam):
    """Laurent Schur polynomial of a generalized partition, one variable per
    entry: (x_1...x_n)^{-p} s_{lam+(p^n)} for any p making the shift a
    partition."""
    return _tableau_content(lam)


def branch_split(lam, m, n):
    """Expand s_lam(x_1..x_{m+n}) into s_mu(x_1..x_m) * s_nu(x_{m+1}..x_{m+n}).

    Returns {(mu, nu): coeff} with mu, nu generalized partitions of lengths
    m and n.  Restricted to GL_m x GL_n, each component of B(lam) has one
    source: the tableau with eps_k = 0 at every color k but m, of content
    (mu, nu).
    """
    if m < 1 or n < 1:
        raise ValueError("both alphabets must be nonempty")
    if len(lam) != m + n:
        raise ValueError("lam must have length m+n")
    return {(e[:m], e[m:]): c
            for e, c in _tableau_content(lam, split=m).items()}


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
    # the nu interlacing mu, mu_(i+1) <= nu_i <= mu_i, are the nu below mu
    # with mu/nu a horizontal strip, of size k = |mu| - |nu|
    for nu in shapes.decreasing_tuples((mu + (0,))[1:], mu):
        k = sum(mu) - sum(nu)
        psi = _psi(mu, nu)
        for e, tp in _hl_p(shapes.normalize(nu), nvars - 1).items():
            shapes.bump_poly(out, e + (k,), shapes.tpoly_mul(tp, psi))
    return out


def schur_to_hl(lam, nvars):
    """Expand s_lam = sum_mu K_{lam mu}(t) P_mu by triangular elimination.

    Returns {mu: TPoly}; the independent route to Kostka-Foulkes polynomials.
    """
    lam = shapes.normalize(lam)
    lam += (0,) * (nvars - len(lam))
    f = {e: {0: c} for e, c in laurent_schur(lam).items()}
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
