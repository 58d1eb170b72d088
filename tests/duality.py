"""The paper's duality tools, kept as test fixtures.

Kwon's abstract names the double crystal on binary matrices and its crystal
dualities as the main tools: the complement dual and the row reversal of a
matrix, the dual word, the sigma/tau embeddings of tableaux over the plain and
the dual alphabet into binary matrices, and the Maya-row model of level 0
(rows of finite support) and level 1 (rows of ones cofinite to the left).
`verify` checks only the matrix operators themselves, so these tools stay
here, as fixtures, until a `verify` check reads them (ROADMAP item 6).  They
call only the public operators of crystal_lr, so the tests that use them
still test the program.

A weight's sum, negative, difference and pairing with a coroot are plain
functions here: the program itself never adds, negates or pairs a `Weight`.
The fundamental weight Lambda_k is one too: the census builds its vacuum
Lambda_{lo-1} letter by letter, and only the tests build Lambda_k.
So is the sign of a permutation, which only the tests' determinant and
alternant oracles read, and the product of two z-ring elements, which the
Leibniz and mode oracles read: the program multiplies only by a monomial,
inside apply_delem.
"""

from collections import namedtuple

from crystal_lr.crystal import Weight
from crystal_lr.matrices import BinaryMatrix, matrix_lower, matrix_raise
from crystal_lr.shapes import bump


# ---------------------------------------------------------------- signs

def inversion_sign(seq):
    """(-1) to the number of pairs i < j with seq[i] > seq[j]."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


# ---------------------------------------------------------------- z-ring

def r_mul(f, g):
    """The product of two z-ring elements, moved from crystal_lr.ring."""
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            bump(out, tuple(sorted(k1 + k2, reverse=True)), c1 * c2)
    return out


# ---------------------------------------------------------------- weights

def fundamental_weight(k):
    """Lambda_k = Lambda_0 + eps_1+..+eps_k (k>0) or Lambda_0 - eps_{k+1}-..-eps_0."""
    if k > 0:
        return Weight(1, {j: 1 for j in range(1, k + 1)})
    if k < 0:
        return Weight(1, {j: -1 for j in range(k + 1, 1)})
    return Weight(1)


def weight_add(a, b):
    eps = dict(a.eps)
    for i, c in b.eps:
        eps[i] = eps.get(i, 0) + c
    return Weight(a.level + b.level, eps)


def weight_neg(w):
    return Weight(-w.level, {i: -c for i, c in w.eps})


def weight_sub(a, b):
    return weight_add(a, weight_neg(b))


def pairing(w, k):
    """Evaluation of w against the coroot h_k."""
    eps = dict(w.eps)
    base = eps.get(k, 0) - eps.get(k + 1, 0)
    return base + (w.level if k == 0 else 0)


def hw_weight(lam):
    """Weight of the highest weight element for a generalized partition lam:
    sum of Lambda_{lam_i}."""
    out = Weight(0)
    for a in lam:
        out = weight_add(out, fundamental_weight(a))
    assert out.level == len(lam)
    return out


# ---------------------------------------------------------------- dualities

def dual_word(word):
    """Dual crystal element: reverse the word and dualize each letter."""
    return tuple((i, not d) for i, d in reversed(word))


def dual(A):
    return BinaryMatrix(A.row_lo, A.col_lo,
                        [tuple(1 - x for x in r) for r in A.entries])


def row_reverse(A):
    """Reflect the row order in place.  dual followed by row_reverse is the
    dual-crystal map: it swaps matrix_lower and matrix_raise exactly,
    including the null cases; entrywise complement alone does not once two
    rows interact in a signature."""
    return BinaryMatrix(A.row_lo, A.col_lo, A.entries[::-1])


# ---------------------------------------------------------------- embeddings

def embed_sigma(tab, window, nrows=None):
    """Embed a tableau over the plain alphabet: the k-th column from the
    right becomes the indicator row k.  Trivial factors are zero rows and
    precede the column rows."""
    lo, hi = window
    if tab.dual:
        raise ValueError("sigma embeds plain tableaux")
    m = len(tab.cols)
    if nrows is None:
        nrows = m
    if nrows < m:
        raise ValueError("shape has %d columns, only %d rows" % (m, nrows))
    rows = [(0,) * (hi - lo + 1)] * (nrows - m)
    for col in reversed(tab.cols):
        rows.append(_indicator(col, lo, hi))
    return BinaryMatrix(1, lo, rows)


def embed_tau(tab, window, nrows=None):
    """Embed a tableau over the dual alphabet: the k-th column from the right
    becomes the complement-indicator row k.  Trivial factors are all-ones
    rows and follow the column rows."""
    lo, hi = window
    if not tab.dual:
        raise ValueError("tau embeds dual tableaux")
    m = len(tab.cols)
    if nrows is None:
        nrows = m
    if nrows < m:
        raise ValueError("shape has %d columns, only %d rows" % (m, nrows))
    rows = []
    for col in reversed(tab.cols):
        ind = _indicator(col, lo, hi)
        rows.append(tuple(1 - x for x in ind))
    rows.extend([(1,) * (hi - lo + 1)] * (nrows - m))
    return BinaryMatrix(1, lo, rows)


def _indicator(values, lo, hi):
    if any(v < lo or v > hi for v in values):
        raise ValueError("entry outside window [%d,%d]" % (lo, hi))
    marks = set(values)
    if len(marks) != len(values):
        raise ValueError("column entries must be distinct")
    return tuple(1 if j in marks else 0 for j in range(lo, hi + 1))


# ---------------------------------------------------------------- maya rows

class MayaRow(namedtuple("MayaRow", "kind charge delta")):
    """One row of the infinite models: kind "E" has finite support, kind "F"
    is all ones up to `charge` with a finite set of flips."""

    __slots__ = ()

    def __new__(cls, kind, charge=0, delta=()):
        if kind not in ("E", "F"):
            raise ValueError("kind must be E or F")
        if kind == "E" and charge != 0:
            raise ValueError("E rows carry no charge")
        return super().__new__(cls, kind, charge, frozenset(delta))

    def entry(self, i):
        vac = 1 if (self.kind == "F" and i <= self.charge) else 0
        return vac ^ (1 if i in self.delta else 0)

    def to_json(self):
        return {"kind": self.kind, "charge": self.charge,
                "delta": sorted(self.delta)}


def maya_weight(v):
    if v.kind == "E":
        return Weight(0, {i: 1 for i in v.delta})
    pos = set(v.delta)
    if v.charge > 0:
        pos |= set(range(1, v.charge + 1))
    else:
        pos |= set(range(v.charge + 1, 1))
    eps = {}
    for i in pos:
        c = v.entry(i) if i > 0 else v.entry(i) - 1
        if c:
            eps[i] = c
    return Weight(1, eps)


def _maya_step(rows, k, op):
    """op (matrix_lower or matrix_raise) on the pairs (v(k), v(k+1)) down
    the rows; the acting row flips at k and k+1."""
    pairs = tuple((v.entry(k), v.entry(k + 1)) for v in rows)
    A = op(BinaryMatrix(1, k, pairs), k)
    if A is None:
        return None
    return tuple(v if new == old else MayaRow(v.kind, v.charge,
                                                v.delta ^ {k, k + 1})
                 for v, old, new in zip(rows, pairs, A.entries))


def maya_lower(rows, k):
    return _maya_step(rows, k, matrix_lower)


def maya_raise(rows, k):
    return _maya_step(rows, k, matrix_raise)


def maya_weight_total(rows):
    out = Weight(0)
    for v in rows:
        out = weight_add(out, maya_weight(v))
    return out
