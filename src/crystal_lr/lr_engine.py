"""Decomposition rules for tensor products of extremal weight crystals.

Every isomorphism class handled here is B_{mu,nu} (x) B(Lambda_hw) with mu,
nu partitions and hw a generalized partition; the multiplicity formulas are
sums of products of Littlewood-Richardson numbers.  verify_truncated checks
any predicted decomposition against a brute-force source census of the
tensor product restricted to a finite letter window.
"""

from collections import Counter, namedtuple
from functools import cache

from . import crystal, shapes
from .crystal import Weight
from .shapes import (bump, conjugate, gen_lr_coefficient, gen_partitions_box,
                     lr_coefficient, normalize)


class MixedLevelError(ValueError):
    """Raised for a product with a Bdual factor, whatever its other factors:
    no closed form here decomposes a negative-level factor yet."""

    exit_code = 3


class ExtremalClass(namedtuple("ExtremalClass", "mu nu hw")):
    """Isomorphism class of B_{mu,nu} (x) B(Lambda_hw).

    hw is a tuple, () at level 0, i.e. the bare B_{mu,nu}; the constructor
    also takes None for ().  Distinct (mu, nu, hw) triples are distinct
    classes.
    """

    __slots__ = ()

    def __new__(cls, mu=(), nu=(), hw=()):
        pmu, pnu = normalize(mu), normalize(nu)
        if not shapes.is_partition(pmu) or not shapes.is_partition(pnu):
            raise ValueError("mu and nu must be partitions: %r, %r"
                             % (mu, nu))
        hw = tuple(hw) if hw else ()
        if not shapes.is_gen_partition(hw):
            raise ValueError("hw must be weakly decreasing: %r" % (hw,))
        return super().__new__(cls, pmu, pnu, hw)

    @property
    def level(self):
        return len(self.hw)

    def key(self):
        return (self.level, self.hw, self.mu, self.nu)

    def to_json(self):
        return {"mu": list(self.mu), "nu": list(self.nu),
                "hw": list(self.hw) if self.hw else None}


def decomposition_to_json(dec):
    """Serialize a {class: mult} map, sorted by (level, hw, mu, nu)."""
    out = []
    for cls in sorted(dec, key=lambda c: c.key()):
        out.append({"class": cls.to_json(), "mult": dec[cls]})
    return out


# ---------------------------------------------------------------- LR sums

@cache
def _lr_expand(mu, nu, max_len=None):
    """Classical product expansion s_mu s_nu = {lam: c}; with max_len the
    GL_max_len rule, l(lam) <= max_len, empty when a factor is longer.
    Cached, so every caller shares the returned dict and must not mutate
    it.

    Only the lam with max(mu_i, nu_i) <= lam_i <= mu_i + nu_1 are scanned.
    lam contains mu and nu.  Each row of an LR tableau of shape lam/mu is a
    weakly increasing run of its reading word, and the tableau rectifies to
    a tableau of shape nu, so by Schensted's theorem (Fulton, Young
    Tableaux, 3) the run has at most nu_1 cells."""
    mu, nu = normalize(mu), normalize(nu)
    if max_len is not None and max(len(mu), len(nu)) > max_len:
        return {}
    if not mu:
        return {nu: 1}
    if not nu:
        return {mu: 1}
    cap = len(mu) + len(nu)
    if max_len is not None:
        cap = min(cap, max_len)
    mu_p, nu_p = (x + (0,) * (cap - len(x)) for x in (mu, nu))
    out = {}
    for lam in shapes.decreasing_tuples(tuple(map(max, mu_p, nu_p)),
                                        tuple(x + nu[0] for x in mu_p),
                                        sum(mu) + sum(nu)):
        lam = normalize(lam)
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[lam] = c
    return out


@cache
def _coproduct(mu, max_len):
    """{(sigma, alpha): c^{mu'}_{sigma' alpha}} over the partitions sigma
    inside mu and alpha of length at most max_len.  Cached, so every caller
    shares the returned dict and must not mutate it."""
    mu_c = conjugate(mu)
    out = {}
    for sigma in shapes.decreasing_tuples((0,) * len(mu), mu):
        sigma = normalize(sigma)
        sigma_c = conjugate(sigma)
        # the width bound l(alpha) <= mu_1 is forced by the coefficient
        for alpha in shapes.partitions_of(sum(mu) - sum(sigma),
                                          max_length=max_len,
                                          max_part=len(mu)):
            c = lr_coefficient(mu_c, sigma_c, alpha)
            if c:
                out[sigma, alpha] = c
    return out


# ---------------------------------------------------------------- products

def level0_product(mu, nu, sigma, tau):
    """[B_{mu,nu}][B_{sigma,tau}] = sum c^eta_{mu sigma} c^theta_{nu tau}
    [B_{eta,theta}]."""
    out = {}
    for eta, a in _lr_expand(mu, sigma).items():
        for theta, b in _lr_expand(nu, tau).items():
            bump(out, ExtremalClass(eta, theta), a * b)
    return out


def hw_product(mu, nu, window):
    """{lam: multiplicity of B(Lambda_lam) in B(Lambda_mu) (x) B(Lambda_nu)}
    over lam with entries in window = (lo, hi).

    The full decomposition has infinitely many classes; the window query is
    complete within its box because the coefficient forces sum(lam) =
    sum(mu) + sum(nu).
    """
    mu, nu = tuple(mu), tuple(nu)
    lo, hi = window
    if not mu or not nu:  # B(Lambda_()) is the trivial crystal
        lam = mu or nu
        return {lam: 1} if all(lo <= x <= hi for x in lam) else {}
    out = {}
    for lam in gen_partitions_box(len(mu) + len(nu), lo, hi,
                                  total=sum(mu) + sum(nu)):
        c = gen_lr_coefficient(lam, mu, nu)
        if c:
            out[lam] = c
    return out


def pieri_column(lam, a, dual=False):
    """B(Lambda_lam) (x) B_{(1^a)}, or the dual-column branch when dual is
    set, as a finite multiplicity-free Decomposition (a = 0: the identity).

    hw_past_level0 with mu = (1^a), or with nu = (1^a) when dual is set.
    """
    if type(a) is not int or a < 0:
        raise ValueError("column length must be an int >= 0, got %r" % (a,))
    if dual:
        return hw_past_level0(lam, (), (1,) * a)
    return hw_past_level0(lam, (1,) * a, ())


def _past_leg(lam, mu):
    """{(sigma, eta): mult} with B(Lambda_lam) (x) B_{mu,()} the sum of
    mult B_{sigma,()} (x) B(Lambda_eta); an empty mu is the identity.  With
    m = len(lam), mult sums c^{mu'}_{sigma' alpha} c^lam_{eta alpha*} over
    the terms of _coproduct(mu, m).  On GL_m, c^lam_{eta alpha*} is the
    multiplicity of eta in lam (x) alpha, i.e. c^{eta+q}_{lam+q, alpha}
    after the shift q = -lam_m that makes lam a partition, with eta+q of
    length at most m."""
    if not mu:
        return {((), lam): 1}
    m = len(lam)
    q = -lam[-1] if lam else 0
    base = tuple(x + q for x in lam)
    out = {}
    for (sigma, alpha), c1 in _coproduct(mu, m).items():
        for kappa, c3 in _lr_expand(base, alpha, m).items():
            eta = tuple(x - q for x in kappa + (0,) * (m - len(kappa)))
            bump(out, (sigma, eta), c1 * c3)
    return out


def hw_past_level0(lam, mu, nu):
    """B(Lambda_lam) (x) B_{mu,nu} = sum of B_{sigma,tau} (x) B(Lambda_rho)
    with the quadruple-LR multiplicity; always finite.

    B_{mu,nu} is the one class B_{mu,()} (x) B_{(),nu}.  The mu leg gives
    B_{sigma,()} (x) B(Lambda_eta).  The nu leg is its mirror under the star
    duality (mu <-> nu, hw -> -w0 hw): the mu leg on (eta*, nu), starred.
    An empty nu leaves eta as it is.
    """
    lam = tuple(lam)
    if not shapes.is_gen_partition(lam):
        raise ValueError("lam must be weakly decreasing")
    mu, nu, _ = ExtremalClass(mu, nu)
    m = len(lam)
    out = {}
    for (sigma, eta), a in _past_leg(lam, mu).items():
        if not nu:
            bump(out, (sigma, (), eta), a)
            continue
        for (tau, zeta), b in _past_leg(shapes.mu_star(eta, m), nu).items():
            bump(out, (sigma, tau, shapes.mu_star(zeta, m)), a * b)
    return {ExtremalClass(s, t, r): c for (s, t, r), c in out.items()}


def extremal_lr(lam, mu, nu, rho, sigma, tau, window):
    """Multiplicities of B_{eta,theta} (x) B(Lambda_zeta) in the product
    (B_{mu,nu} (x) B(Lambda_lam)) (x) (B_{sigma,tau} (x) B(Lambda_rho)),
    for zeta with entries in window = (lo, hi).

    The (eta, theta) range is finite and emitted in full; only the zeta leg
    needs the window.  m or n may be zero, degenerating to the simpler
    products.
    """
    out = {}
    for cls, d in hw_past_level0(lam, sigma, tau).items():
        zetas = hw_product(cls.hw, rho, window)
        if not zetas:
            continue
        for lz, c23 in level0_product(cls.mu, cls.nu, mu, nu).items():
            for zeta, c1 in zetas.items():
                bump(out, ExtremalClass(lz.mu, lz.nu, zeta), d * c1 * c23)
    return out


# ---------------------------------------------------------------- verifier

class _WindowTooSmall(Exception):
    pass


class _TooLarge(Exception):
    def __init__(self, shape, lo, hi):
        super().__init__("shape %r over [%d,%d] exceeds %d tableaux"
                         % (shape, lo, hi, _WORD_CAP))


_WORD_CAP = 500000


def _factor_norm(fac):
    """Validate a tensor factor tuple; Bcol(a) becomes Bmn((1^a); ())."""
    kind = fac[0]
    if kind == "Bcol":
        a = fac[1]
        if type(a) is not int or a < 0:
            raise ValueError("Bcol needs a nonnegative integer, got %r"
                             % (fac[1],))
        return ("Bmn", (1,) * a, ())
    if kind in ("B", "Bdual"):
        lam = tuple(fac[1])
        if not lam or not shapes.is_gen_partition(lam):
            raise ValueError("%s needs a nonempty weakly decreasing tuple, "
                             "got %r" % (kind, fac[1]))
        return (kind, lam)
    if kind == "Bmn":
        return ("Bmn",) + ExtremalClass(fac[1], fac[2])[:2]
    raise ValueError("unknown factor kind %r" % (kind,))


def parse_tensor_expr(text):
    """Parse "B(2,0) * Bmn(1;1) * Bdual(1,1) * Bcol(2)" into factor tuples."""
    factors = []
    for raw in text.split("*"):
        token = raw.strip()
        if not token or not token.endswith(")") or "(" not in token:
            raise ValueError("bad factor %r" % token)
        name, _, body = token[:-1].partition("(")
        name = name.strip()
        body = body.strip()
        if name == "Bmn" and ";" not in body:
            raise ValueError("bad factor %r (Bmn needs mu;nu)" % token)
        try:
            if name == "Bcol":
                fac = ("Bcol", int(body))
            elif name in ("B", "Bdual"):
                fac = (name, shapes.parse_gen_partition(body))
            elif name == "Bmn":
                mu_s, _, nu_s = body.partition(";")
                fac = ("Bmn", shapes.parse_partition(mu_s),
                       shapes.parse_partition(nu_s))
            else:
                raise ValueError
            factors.append(_factor_norm(fac))
        except ValueError:
            raise ValueError("bad factor %r" % token) from None
    return factors


def expr_decompose(factors, window):
    """Decomposition of a product of non-negative-level factors, left to
    right through extremal_lr; Bdual factors have no closed form here and
    raise MixedLevelError."""
    factors = [_factor_norm(f) for f in factors]
    if any(f[0] == "Bdual" for f in factors):
        raise MixedLevelError("product involves a negative-level factor")
    dec = {ExtremalClass(): 1}
    for fac in factors:
        right = ExtremalClass(*_triple(fac))
        out = {}
        for left, a in dec.items():
            for cls, m in extremal_lr(left.hw, left.mu, left.nu, right.hw,
                                      right.mu, right.nu, window).items():
                bump(out, cls, a * m)
        dec = out
    return dec


def _triple(fac):
    """(mu, nu, hw) of a normalized factor, as for a class: Bmn is
    B_{mu,nu} with hw (), B and Bdual are B(Lambda_hw) with mu = nu = ()."""
    return (fac[1], fac[2], ()) if fac[0] == "Bmn" else ((), (), fac[1])


def _misfit(mu, nu, hw, lo, hi):
    """Why B_{mu,nu} (x) B(Lambda_hw) does not fit the letters [lo, hi], or
    None: hw must lie in [lo-1, hi] and mu, nu need l(mu) + l(nu) letters."""
    if hw and hw[-1] < lo - 1:
        return "B(Lambda_%r) needs letters down to %d" % (hw, hw[-1] + 1)
    if hw and hw[0] > hi:
        return "B(Lambda_%r) needs letters up to %d" % (hw, hw[0])
    if len(mu) + len(nu) > hi - lo + 1:
        return "B_{%r,%r} needs %d letters" % (mu, nu, len(mu) + len(nu))
    return None


def _factor_shape(fac, lo, hi):
    """Tableau shape, level, dualization and per-letter shift of one tensor
    factor restricted to the letters [lo, hi]: a tableau of content c has
    the weight level*Lambda_{lo-1} + c - shift*(eps_lo + ... + eps_hi),
    with dual letters counting -1 in c.

    The shape is the highest weight content (_class_census) plus nu_1:
    conjugate(lam - (lo-1)) for B(Lambda_lam), the dominant (mu, 0...0,
    -reverse(nu)) + nu_1 for B_{mu,nu}."""
    _, nu, _ = triple = _triple(fac)
    key = _class_census(triple, lo, hi)
    if key is None:
        raise _WindowTooSmall(_misfit(*triple, lo, hi))
    level, content = key
    s = nu[0] if nu else 0
    dual = fac[0] == "Bdual"
    return (normalize(c + s for c in content), -level if dual else level,
            dual, s)


def _window_census(factors, lo, hi):
    """Source census of the product of normalized factors restricted to the
    letters [lo, hi]: a Counter over the keys (level, content) of its
    sources, content their signed letter content over lo..hi (a dual letter
    counts -1) less the summed Bmn shifts.  Every factor sits on the vacuum
    level*Lambda_{lo-1}, so a source's weight is that plus its content,
    wherever the window lies.  Raises _WindowTooSmall or _TooLarge.

    By Kashiwara's tensor product rule the sources of B1 (x) B2 are exactly
    the b1 (x) b2 with b1 a source of B1 and eps_k(b2) <= phi_k(b1) for
    every color k.  A source has phi_k = <wt, h_k> = c_k - c_{k+1} for the
    colors k of the window (the vacuum and the shifts add nothing), so the
    census folds over the factors: each state is the content of a source
    of the product so far, with its count, from the trivial crystal's one
    (content minus the summed shift).  Each factor is enumerated once per
    state, pruned by the state's content: enumerate_sst yields exactly the
    tableaux whose reading word keeps that content weakly decreasing
    prefix by prefix, which are the admissible ones, each carrying the
    state's count to its content.

    Each factor, in order, is refused before the fold when it has more than
    _WORD_CAP tableaux.  What the leading factor yields is checked against
    the per-color signature rule, independently of the pruning.
    """
    n = hi - lo + 1
    parts = []
    level = shift = 0
    for fac in factors:
        shape, lev, dual, s = _factor_shape(fac, lo, hi)
        if shapes.num_sst(shape, n) > _WORD_CAP:
            raise _TooLarge(shape, lo, hi)
        parts.append((shape, dual))
        level += lev
        shift += s
    states = Counter({(-shift,) * n: 1})
    for i, (shape, dual) in enumerate(parts):
        step = -1 if dual else 1
        reached = Counter()
        for content, count in states.items():
            for t in crystal.enumerate_sst(shape, lo, hi, dual, content):
                if i == 0:
                    word = crystal.tableau_word(t)
                    if any(crystal.eps(word, k) for k in range(lo, hi)):
                        raise AssertionError("leading factor yielded %r, "
                                             "which is not highest weight"
                                             % (word,))
                c = list(content)
                for col in t.cols:
                    for v in col:
                        c[v - lo] += step
                reached[tuple(c)] += count
        states = reached
    return Counter({(level, c): m for c, m in states.items()})


def _class_census(cls, lo, hi):
    """Window image of a class, or of any (mu, nu, hw) triple: the census
    key (level, content) of its one source, or None when it does not fit
    the window by the fit rule of the factors (_misfit).  The one reading
    of a highest weight in the window; _factor_shape reads shapes off it.

    Truncation carries each class to a single irreducible (the component of
    the combined highest weight vector), so the census is the canonical
    highest weight once: mu anchors at lo, nu at hi, and the hw shape must
    lie between them.  Over the vacuum level*Lambda_{lo-1}, Lambda_a adds
    eps_lo + ... + eps_a, so each hw entry a adds 1 on the letters lo..a.
    _window_census keys its sources over the same vacuum, so the two keys
    agree exactly whether or not the window holds the origin.
    """
    mu, nu, hw = cls
    if _misfit(mu, nu, hw, lo, hi):
        return None
    content = list(mu) + [0] * (hi - lo + 1 - len(mu) - len(nu)) + [
        -x for x in reversed(nu)]
    for a in hw:
        for j in range(a - lo + 1):
            content[j] += 1
    return len(hw), tuple(content)


def _weight_key(key, lo):
    """The Weight key of the census key (level, content) on a window from
    lo: content plus the vacuum level*Lambda_{lo-1}, which is level*Lambda_0
    plus level on the letters 1..lo-1, or minus level on lo..0."""
    level, content = key
    eps = Counter(dict(enumerate(content, lo)))
    eps.update(dict.fromkeys(range(1, lo), level))
    eps.subtract(dict.fromkeys(range(lo, 1), level))
    return Weight(level, eps).key()


def _default_margin(factors, predicted):
    triples = [_triple(f) for f in factors] + list(predicted)
    hw_span = max((abs(hw[0]) + abs(hw[-1]) for _, _, hw in triples if hw),
                  default=0)
    strip = max((len(mu) + len(nu) for mu, nu, _ in triples), default=0)
    return min(8, hw_span + strip + 2)


def verify_truncated(factors, window, predicted, threads=1):
    """Compare the source census of the tensor product of factors, restricted
    to the letter window, against the window truncation of a predicted
    {class: mult} decomposition.

    The census runs in one thread.  threads accepts only 1, which
    perfbench's census workload still passes; the keyword goes in the next
    benchmark change.  Any other value, or lo > hi, raises ValueError.

    Returns a report dict with status "ok", "mismatch" (first discrepancies
    listed) or "window-too-small".  Windows widen by one letter a side, up
    to _default_margin steps: one the factors do not fit (_misfit) is
    skipped, one past _WORD_CAP ends the search, and the first with no gap
    is "ok".  Otherwise the last compared window is reported, as
    "window-too-small" if its total gap |lhs - rhs| is below the first's.

    The census (_window_census) is exact by Kashiwara's tensor product
    rule.  Both sides are keyed by (level, content) over the attempted
    window [lo, hi], content the weight less level*Lambda_{lo-1}: every
    highest weight factor and every predicted class sits on that one
    vacuum, so the keys compare exactly on any window, the origin inside it
    or not.  A key becomes its Weight key only to sort and print the
    discrepancies.
    """
    if threads != 1:
        raise ValueError("threads=%r: the census runs in one thread"
                         % (threads,))
    factors = [_factor_norm(f) for f in factors]
    lo0, hi0 = window
    if lo0 > hi0:
        raise ValueError("window [%d, %d] has lo > hi" % (lo0, hi0))
    margin = _default_margin(factors, predicted)
    # The window census only sees the factor multiset, so it always matches
    # the arrangement with every highest weight factor on the left.  When the
    # level-zero factors form a prefix instead, reversal carries each
    # predicted class back to that arrangement; for any other interleaving
    # neither reading is available, so refuse rather than misreport.
    kinds = [f[0] for f in factors]
    cut = kinds.count("Bmn")
    hw_first = all(k == "Bmn" for k in kinds[len(kinds) - cut:])
    l0_first = all(k == "Bmn" for k in kinds[:cut])
    if not (hw_first or l0_first):
        raise ValueError("level-zero factors must form a prefix or a suffix")
    expanded = Counter()
    for cls, mult in predicted.items():
        if hw_first:
            expanded[cls] += mult
        else:
            for sub, m in hw_past_level0(cls.hw, cls.mu, cls.nu).items():
                expanded[sub] += m * mult

    def report(status, lo, hi, lhs, rhs, gap):
        out = {"status": status, "window": [lo, hi],
               "retried": [lo, hi] != [lo0, hi0],
               "lhs_components": sum(lhs.values()),
               "predicted_components": sum(rhs.values())}
        if gap:
            rows = sorted((_weight_key(k, lo), lhs[k], rhs[k]) for k in gap)
            out["discrepancies"] = [
                {"weight": {"level": level, "eps": [list(p) for p in eps]},
                 "lhs": a, "predicted": b}
                for (level, eps), a, b in rows[:10]]
        return out

    first = last = detail = None
    for d in range(margin + 1):
        lo, hi = lo0 - d, hi0 + d
        try:
            lhs = _window_census(factors, lo, hi)
        except _WindowTooSmall as exc:
            detail = str(exc)
            continue
        except _TooLarge as exc:
            detail = str(exc)
            break
        rhs = Counter()
        for cls, mult in expanded.items():
            key = _class_census(cls, lo, hi)
            if key is not None:
                rhs[key] += mult
        gap = {k: g for k in lhs.keys() | rhs.keys()
               if (g := abs(lhs[k] - rhs[k]))}
        if not gap:
            return report("ok", lo, hi, lhs, rhs, gap)
        last = (lo, hi, lhs, rhs, gap)
        first = first or last
    if last is None:
        return {"status": "window-too-small", "window": [lo0, hi0],
                "retried": d > 0, "detail": detail}
    # truncation artifacts shrink as the window grows; a census gap that
    # persists at the widest window is a genuine error in the prediction
    small = sum(last[-1].values()) < sum(first[-1].values())
    return report("window-too-small" if small else "mismatch", *last)
