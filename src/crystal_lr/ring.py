"""The ring of z-polynomials and its Ore extension by the shift operators
s^+/s^-, with the derivation calculus (p, h, s families) acting on it.

An RElem is a zero-free dict mapping z-monomials to coefficients, added
and scaled with the kernel of shapes; a z-monomial is a weakly decreasing
tuple of integer indices (z_0 is a variable, nothing vanishes or
collapses).  A DElem is the same with keys (z-monomial, s^+ multiset, s^-
multiset) in normal order: all z's left of all s's, s^+ and s^- commuting.
Coefficients are ints; h_delem's, and what is built from them, are the only
rationals, and apply_delem returns ints and refuses a non-integral action.

Sign bookkeeping, fixed once: the symbol s^+_n acts as the derivation
gamma^+_n = (-1)^(n-1) sum_k z_{k-n} d/dz_k (indices drop), s^-_n raises
them.  The Schur-shape operator s_operator(sign, -) is named by the
direction it moves z indices: s_operator(+1, -) raises them, so it is the
image of s_mu under p_n -> gamma^-_n, and s_operator(-1, -) lowers them
through gamma^+_n.
"""

import itertools
from functools import cache
from operator import add

from .shapes import (bump, bump_poly, conjugate, lin_add, normalize,
                     partitions_of, sst_chains)


# ---------------------------------------------------------------- RElem

def r_monomial(ks):
    return {tuple(sorted(ks, reverse=True)): 1}


# ---------------------------------------------------------------- z-Schur

def z_schur(lam):
    """det(z_{lam_i - i + j}): the skew determinant with empty inner shape."""
    return z_skew_schur(lam, (0,) * len(lam))


def z_skew_schur(lam, mu):
    """det(z_{lam_i - mu_j - i + j}); equal-length index vectors.

    Laplace expansion row by row (Macdonald I.3), the partial products kept
    by the set S of columns used so far, equal ones merged: row i placed in
    column p after S adds one inversion per q in S with q > p.
    """
    n = len(lam)
    if len(mu) != n:
        raise ValueError("length mismatch")
    layer = {0: {(): 1}}
    for i in range(n):
        nxt = {}
        for used, part in layer.items():
            for p in range(n):
                if used >> p & 1:
                    continue
                x = lam[i] - mu[p] - i + p
                sign = -1 if (used >> p).bit_count() % 2 else 1
                acc = nxt.setdefault(used | 1 << p, {})
                for ks, c in part.items():
                    bump(acc, tuple(sorted((*ks, x), reverse=True)), sign * c)
        layer = nxt
    return layer[(1 << n) - 1]


_Z_SCHUR_CAP = 10000


def expand_in_z_schur(f, n):
    """Write a homogeneous element as a finite z-Schur combination by
    eliminating the lexicographically smallest monomial; every other
    monomial of a z-Schur element dominates its label, so each step is
    forced.  Monomials like z_1 z_0 expand to infinitely many z-Schur
    terms; a cap on the steps turns that into an error."""
    if any(len(k) != n for k in f):
        raise ValueError("element not homogeneous of degree %d" % n)
    work = f
    out = {}
    for _ in range(_Z_SCHUR_CAP):
        if not work:
            return out
        mu = min(work)
        c = work[mu]
        out[mu] = c
        work = lin_add(work, z_schur(mu), -c)
    raise ValueError("not a finite z-Schur combination within cap=%d"
                     % _Z_SCHUR_CAP)


# ---------------------------------------------------------------- DElem

def d_one():
    return {((), (), ()): 1}


def _s_times(sign, n, d):
    """Left-multiply by s^sign_n: s f = f s + gamma^sign_n(f) for the z-part
    f of each (s^+, s^-) pair, the keys of d.  Adding n keeps distinct pairs
    distinct, so only the gamma terms can meet keys already there."""
    if sign > 0:
        out = {(tuple(sorted(sp + (n,))), sm): f for (sp, sm), f in d.items()}
    else:
        out = {(sp, tuple(sorted(sm + (n,)))): f for (sp, sm), f in d.items()}
    for key, f in d.items():
        bump_poly(out, key, p_action(sign, n, f))
    return out


def d_multiply(a, b):
    out = {}
    for (z1, sp1, sm1), c1 in a.items():
        for (z2, sp2, sm2), c2 in b.items():
            carrier = {(sp2, sm2): {z2: c1 * c2}}
            for n in sm1:
                carrier = _s_times(-1, n, carrier)
            for n in sp1:
                carrier = _s_times(+1, n, carrier)
            for (sp, sm), f in carrier.items():
                for z, c in f.items():
                    key = (tuple(sorted(z1 + z, reverse=True)), sp, sm)
                    bump(out, key, c)
    return out


# ---------------------------------------------------------------- actions

def p_action(sign, n, f):
    """gamma^sign_n: the derivation with gamma(z_k) = (-1)^(n-1) z_{k -+ n}."""
    if n < 1:
        raise ValueError("n must be positive")
    eps = 1 if n % 2 else -1
    shift = -n if sign > 0 else n
    out = {}
    for z, c in f.items():
        for i in range(len(z)):
            zz = tuple(sorted(z[:i] + (z[i] + shift,) + z[i + 1:],
                              reverse=True))
            bump(out, zz, c * eps)
    return out


def apply_delem(d, f):
    """Act on an RElem: the s^+ symbols apply gamma^+, s^- apply gamma^-,
    then the z-part multiplies."""
    total = {}
    for (z, sp, sm), c in d.items():
        g = f
        for n in sm:
            g = p_action(-1, n, g)
        for n in sp:
            g = p_action(+1, n, g)
        for k, v in g.items():
            bump(total, tuple(sorted(z + k, reverse=True)), c * v)
    for v in total.values():
        if v.denominator != 1:
            raise ValueError("non-integral action")
    return {k: int(v) for k, v in total.items()}


def _z_rho(rho):
    out = 1
    counts = {}
    for r in rho:
        counts[r] = counts.get(r, 0) + 1
    for r, m in counts.items():
        out *= r ** m
        for i in range(1, m + 1):
            out *= i
    return out


@cache
def s_operator(sign, mu):
    """The Schur-shape operator s_mu(gamma), moving z indices up for sign
    +1 and down for sign -1.

    The gamma_n are commuting derivations, so p_n -> gamma_n makes the
    z-ring a module algebra over symmetric functions and s_mu acts on a
    product through the coproduct Delta s_lam = sum s_nu (x) s_{lam/nu}
    (Macdonald, Symmetric Functions and Hall Polynomials, I.5).  On a
    single variable gamma_n z_k = (-1)^(n-1) z_{k+sign*n}, so only column
    shapes survive there and

        s_mu z_{k1}...z_{kn} = sum_a K_{mu',a} z_{k1+sign a1}...z_{kn+sign an}

    over the weak compositions a of |mu| into n parts, with Kostka number
    weights.  A Kostka number is symmetric in the content, so the table
    walks the partitions of |mu| with at most n parts, counts each one's
    tableaux once and gives the weight to every distinct rearrangement of
    it padded to n parts.  Monomials of degree below mu_1 = len(mu') are
    killed; the empty shape acts as the identity.  The shift table of each
    degree is built on first use and kept with the (cached) operator.
    """
    mu = normalize(mu)
    cols = conjugate(mu)
    tables = {}

    def table(n):
        rows = tables.get(n)
        if rows is None:
            rows = tables[n] = []
            for p in partitions_of(sum(mu), max_length=n):
                k = sum(1 for _ in sst_chains(cols, p))
                if k:
                    padded = p + (0,) * (n - len(p))
                    rows.extend((tuple(sign * x for x in a), k)
                                for a in set(itertools.permutations(padded)))
        return rows

    def act(f):
        out = {}
        for z, c in f.items():
            for shift, k in table(len(z)):
                zz = tuple(sorted(map(add, z, shift), reverse=True))
                # bump inlined, as in lin_add: bt_apply's column pass
                v = out.get(zz, 0) + c * k
                if v:
                    out[zz] = v
                elif zz in out:
                    del out[zz]
        return out

    return act


def h_operator(sign, n):
    return s_operator(sign, (n,))


def h_delem(sign, n):
    """The single-row operator as a DElem: sum over cycle types with
    rational coefficients, in the opposite symbol family.  omega swaps the
    two families, so sign -1 is the omega image of sign +1."""
    if sign < 0:
        return omega(h_delem(+1, n))
    if n == 0:
        return d_one()
    from fractions import Fraction
    out = {}
    for rho in partitions_of(n):
        bump(out, ((), (), tuple(sorted(rho))), Fraction(1, _z_rho(rho)))
    return out


def omega(a):
    """z_k -> z_{-k}, s^+ <-> s^-; involutive ring map."""
    return {(tuple(sorted((-k for k in z), reverse=True)), sm, sp): c
            for (z, sp, sm), c in a.items()}


def annihilator_relations(n):
    """Generators of the annihilator of degree-n z-Schur span: single-row
    operators past the degree, and the mixed products reducing to a shorter
    row."""
    rels = []
    for m in range(n + 1, n + 4):
        rels.append(h_delem(+1, m))
        rels.append(h_delem(-1, m))
    for i in range(0, n + 1):
        prod = d_multiply(h_delem(+1, n), h_delem(-1, i))
        rels.append(lin_add(prod, h_delem(+1, n - i), -1))
    return rels


# ---------------------------------------------------------------- json

def delem_to_json(a):
    """A fractional coefficient is written as the string "p/q"."""
    return [{"z": list(z), "splus": list(sp), "sminus": list(sm),
             "c": int(c) if c.denominator == 1 else str(c)}
            for (z, sp, sm), c in sorted(a.items())]
