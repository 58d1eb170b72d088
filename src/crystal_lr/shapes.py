"""Partitions, generalized partitions, skew shapes, and the tableau kernels
(Littlewood-Richardson numbers, charge, Kostka-Foulkes polynomials) that the
rest of the package is built on.

Conventions: a Partition is a tuple of weakly decreasing positive ints
(trailing zeros stripped, () is empty); a GenPartition is a weakly decreasing
tuple of ints of fixed length, negative entries allowed; a TPoly is a dict
{power of t: coeff}.

Every finite linear combination in the package is a dict {key: coeff}:
TPolys here, Laurent polynomials in characters, z-ring and Ore elements in
ring, truncated elements {power of t: z-ring element} in hall_littlewood and
{class: mult} decompositions in lr_engine.  All of them are zero-free: no
key maps to 0 (or to an empty combination), so two combinations are equal
exactly when their dicts are.  bump, lin_add and bump_poly below are the one
arithmetic kernel that keeps this invariant.

Boxes of generalized partitions, the partitions interlacing a partition,
subpartitions and the partitions of n are all weakly decreasing tuples
between per-entry bounds, sometimes of fixed sum; decreasing_tuples is the
one enumerator of them.  partitions_of reverses its list, as seeded samples
and the verify grids read reverse lexicographic order.  A semistandard
tableau is a chain of horizontal strips (sst_chains), one walker call per
letter.
"""

from functools import cache


# ---------------------------------------------------------------- parsing

def parse_gen_partition(text):
    """Parse "2,0,-1" to (2, 0, -1); length is significant, negatives kept."""
    text = text.strip()
    if text == "":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError("bad generalized partition %r" % text)
    if not is_gen_partition(parts):
        raise ValueError("entries not weakly decreasing in %r" % text)
    return parts


def parse_partition(text):
    """Parse "3,1" to (3, 1).  "" and "0" both denote the empty partition."""
    parts = parse_gen_partition(text)
    if not is_partition(parts):
        raise ValueError("negative part in partition %r" % text.strip())
    return normalize(parts)


# ---------------------------------------------------------------- shape ops

def normalize(mu):
    """Strip trailing zeros."""
    mu = tuple(mu)
    while mu and mu[-1] == 0:
        mu = mu[:-1]
    return mu


def is_partition(mu):
    return all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1)) and (
        not mu or mu[-1] >= 0)


def is_gen_partition(lam):
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def conjugate(mu):
    """Transpose diagram: conjugate((3,1)) == (2,1,1)."""
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p > j) for j in range(mu[0]))


def contains(outer, inner):
    inner = normalize(inner)
    if len(inner) > len(normalize(outer)):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def _pad(mu, n):
    return tuple(mu) + (0,) * (n - len(mu))


def decreasing_tuples(lows, highs, total=None):
    """Weakly decreasing integer tuples x with lows[i] <= x[i] <= highs[i],
    in lexicographic order.  With a total, only those of that sum, and each
    entry loops only over the values from which the entries after it can
    still reach it: none exceeds x[i], and they take at least their lows."""
    n = len(lows)
    if n == 0:
        if total in (None, 0):
            yield ()
        return
    x = [0] * n
    stack = []  # stack[j] iterates the values of x[j] not yet tried
    i = 0
    while True:
        # the values of x[i] under the prefix x[:i]
        lo, hi = lows[i], min(highs[i], x[i - 1]) if i else highs[0]
        if total is not None:
            left = total - sum(x[:i])
            lo = max(lo, -(-left // (n - i)))
            hi = min(hi, left - sum(lows[i + 1:]))
        if i < n - 1:
            stack.append(iter(range(lo, hi + 1)))
        else:
            for x[i] in range(lo, hi + 1):
                yield tuple(x)
        # step the deepest entry that has a value left
        while stack:
            v = next(stack[-1], None)
            if v is not None:
                break
            stack.pop()
        else:
            return
        i = len(stack)
        x[i - 1] = v


def partitions_of(n, max_length=None, max_part=None):
    """The list of partitions of n, largest part first, in reverse lex
    order: the walker's padded tuples, reversed and stripped."""
    length = n if max_length is None else min(max_length, n)
    top = n if max_part is None else max_part
    return [normalize(mu) for mu in reversed(list(
        decreasing_tuples((0,) * length, (top,) * length, n)))]


def gen_partitions_box(length, lo, hi, total=None):
    """Weakly decreasing integer tuples with entries in [lo, hi], optionally
    of fixed sum, in lexicographic order."""
    return decreasing_tuples((lo,) * length, (hi,) * length, total)


def mu_star(mu, n):
    """Pad mu to length n with zeros, negate, reverse: the weight -w0(mu)."""
    mu = normalize(mu)
    if len(mu) > n:
        raise ValueError("mu_star: %r does not fit in length %d" % (mu, n))
    return tuple(-p for p in reversed(_pad(mu, n)))


# ---------------------------------------------------------------- LR numbers

@cache
def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson number c^lam_{mu nu}.

    Counts column-strict fillings of lam/mu with content nu whose reverse
    reading word (rows top to bottom, right to left in each row) is a lattice
    word.
    """
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if not contains(lam, mu) or not contains(lam, nu):
        return 0
    if not nu:
        return 1 if lam == mu else 0
    mu_p = _pad(mu, len(lam))
    cells = [(r, c) for r in range(len(lam))
             for c in range(lam[r] - 1, mu_p[r] - 1, -1)]
    m = len(nu)
    counts = [0] * (m + 1)
    fill = {}
    total = 0

    def go(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        hi = m
        if (r, c + 1) in fill:
            hi = fill[(r, c + 1)]
        for v in range(1, hi + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            up = fill.get((r - 1, c))
            if up is not None and up >= v:
                continue
            counts[v] += 1
            fill[(r, c)] = v
            go(idx + 1)
            del fill[(r, c)]
            counts[v] -= 1

    go(0)
    return total


def gen_lr_coefficient(lam, mu, nu):
    """LR number for generalized partitions, resolved by argument lengths.

    len(lam) == len(mu) + len(nu): the branching coefficient, computed after
    the common shift making all three into partitions.  Equal lengths: the
    same-length convention (shift mu and nu separately so each is a partition,
    shift lam by the sum).  Anything else is an error.
    """
    if not (is_gen_partition(lam) and is_gen_partition(mu)
            and is_gen_partition(nu)):
        raise ValueError("arguments must be weakly decreasing")
    L, m, n = len(lam), len(mu), len(nu)
    if L != m + n and not (L == m == n):
        raise ValueError(
            "length pattern (%d; %d, %d) is neither additive nor equal"
            % (L, m, n))
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    # shift mu by a, nu by b and lam by c into partitions: one common shift
    # a = b = c for the additive pattern, c = a + b for the equal one
    if L == m + n:
        a = b = c = max([0] + [-x[-1] for x in (lam, mu, nu) if x])
    else:
        a = max(0, -mu[-1])
        b = max(0, -nu[-1])
        c = a + b
    lam_s = tuple(x + c for x in lam)
    if lam_s and lam_s[-1] < 0:
        return 0
    return lr_coefficient(lam_s, tuple(x + a for x in mu),
                          tuple(x + b for x in nu))


# ---------------------------------------------------------------- sparse sums

def bump(d, key, c):
    """d[key] += c in place, deleting the key when it reaches 0."""
    v = d.get(key, 0) + c
    if v:
        d[key] = v
    elif key in d:
        del d[key]


def lin_add(a, b, c=1):
    """The combination a + c*b, as a new dict."""
    out = dict(a)
    # bump inlined: bump_poly and expand_in_z_schur run this once per term
    for key, v in b.items():
        v = out.get(key, 0) + c * v
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


def bump_poly(d, key, tp, c=1):
    """d[key] += c*tp in place for dicts of combinations (TPolys, z-parts),
    deleting the key when its value vanishes.  The stored value is
    replaced, never mutated."""
    tp = lin_add(d.get(key, {}), tp, c)
    if tp:
        d[key] = tp
    elif key in d:
        del d[key]


# ---------------------------------------------------------------- TPoly

def tpoly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            bump(out, e1 + e2, c1 * c2)
    return out


def tpoly_pairs(a):
    """Sorted [[power, coeff], ...] form used everywhere for output."""
    return [[e, a[e]] for e in sorted(a)]


# ---------------------------------------------------------------- charge

def charge(word):
    """Charge of a word whose content is a partition (Macdonald III.6).

    Each round reads one standard subword: letter 1 is the rightmost 1 and
    letter r+1 the nearest r+1 to the left of letter r, or the rightmost
    r+1 when there is none (a wrap).  The index starts at 0 and goes up by
    one at each wrap; the round adds its letters' indices to the charge and
    removes them.  On content that is not a partition some round misses a
    letter and max() raises ValueError.
    """
    word = list(word)
    total = 0
    while word:
        at, idx, picked = len(word), 0, set()
        for r in range(1, max(word) + 1):
            found = [i for i, x in enumerate(word) if x == r]
            left = [i for i in found if i < at]
            if not left:
                idx += 1
            at = max(left or found)
            picked.add(at)
            total += idx
        word = [x for i, x in enumerate(word) if i not in picked]
    return total


def sst_chains(lam, content):
    """Yield the semistandard tableaux of shape lam and the given content as
    chains 0 = k_0, k_1, ..., k_m = lam of tuples of length len(lam), where
    k_i/k_(i-1) is a horizontal strip of content[i-1] boxes, the cells of
    letter i (Macdonald I.1).  Each strip interlaces the row above it in
    k_(i-1) and stays inside lam."""
    lam = normalize(lam)
    if sum(content) != sum(lam):
        return
    chain = [(0,) * len(lam)]
    strips = []  # strips[i] iterates the candidates for chain[i + 1]
    while True:
        if len(chain) > len(content):
            yield tuple(chain)
        else:
            k = chain[-1]
            highs = lam[:1] + tuple(map(min, lam[1:], k))
            strips.append(decreasing_tuples(
                k, highs, sum(k) + content[len(chain) - 1]))
        # step the deepest strip that has a candidate left
        while strips:
            k = next(strips[-1], None)
            if k is not None:
                break
            strips.pop()
        else:
            return
        del chain[len(strips):]
        chain.append(k)


def kostka_foulkes(lam, mu):
    """Kostka-Foulkes polynomial K_{lam mu}(t) as a TPoly.

    Accepts generalized partitions of equal length (shifted to partitions by
    the common-shift convention) or plain partitions of any lengths.
    """
    lam, mu = tuple(lam), tuple(mu)
    if not (is_gen_partition(lam) and is_gen_partition(mu)):
        raise ValueError("arguments must be weakly decreasing")
    if (lam and lam[-1] < 0) or (mu and mu[-1] < 0):
        if len(lam) != len(mu):
            raise ValueError("negative entries require equal lengths")
        p = max(-lam[-1], -mu[-1], 0)
        lam = tuple(a + p for a in lam)
        mu = tuple(a + p for a in mu)
    lam, mu = normalize(lam), normalize(mu)
    if sum(lam) != sum(mu):
        raise ValueError("degree mismatch: |%r| != |%r|" % (lam, mu))
    out = {}
    for chain in sst_chains(lam, mu):
        # rows bottom to top, each row's letters in increasing order
        word = [i for r in reversed(range(len(lam)))
                for i in range(1, len(chain))
                for _ in range(chain[i][r] - chain[i - 1][r])]
        bump(out, charge(word), 1)
    return out


# ---------------------------------------------------------------- counting

def num_sst(lam, n):
    """Number of semistandard tableaux of shape lam with entries in 1..n."""
    lam = normalize(lam)
    if len(lam) > n:
        return 0
    num = den = 1
    conj = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            num *= n + j - i
            den *= hook
    out, rem = divmod(num, den)
    assert rem == 0
    return out
