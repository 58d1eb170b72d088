"""Binary matrices with a crystal structure on both index directions.

Row and column index intervals are explicit data: the transpose bijection rho
negates and swaps them, so nothing may be implicit in array offsets.  A
matrix is stored as (row_lo, col_lo, nrows, ncols, bits), the entry at row
offset r and column offset j being bit r*ncols + j of its code `bits`;
`entries`, `entry`, `col_weight`, `format_matrix` and `key()` decode.

The column operators (`matrix_lower`/`matrix_raise`, color k) read the pairs
(A(i, k), A(i, k+1)) down the rows: (1,0) is +, (0,1) is -, and a + cancels
a later -.  The row operators (`cap_lower`/`cap_raise`, color l) are their
conjugates by rho, computed directly from rows l and l+1 read right to left
(the row order of `rho_transpose(A)`), with (top, bottom) pairs read alike.
Raising swaps the pair of the last surviving -, lowering that of the first
surviving +.

Each family is stated once, in the record `_family` builds per (family,
nrows, ncols): the shift per color offset (1 for columns, ncols for caps),
the (top, bottom) bits of its pairs in reading order inside the window at
shift 0 ((r*ncols, r*ncols+1) down the rows, (c, c+ncols) right to left),
the window mask covering those bits, and a memo from a window to its
(raise, lower) XOR masks, None where the operator does not act.  A move is
one XOR with a mask shifted to its color.  `_moves`, one bracket pass over
the pairs, is the memo's miss path for both families; the steps on codes
(`code_step`: the census and verify's commutation check) and the four
operators (`_act`: the benchmark and the tests) read the same memo.  A memo
holds at most 4**nrows column or 4**ncols cap windows, and their interned
(raise, lower) pairs number at most (nrows+1)**2 or (ncols+1)**2.

bicrystal_components walks codes through crystal.components, one step of
the code alone per color, decoding to matrices, whose repr is their
constructor call.
"""

import functools
from collections import Counter, namedtuple

from .crystal import components


class BinaryMatrix(namedtuple("BinaryMatrix",
                              "row_lo col_lo nrows ncols bits")):
    """An I x J zero-one matrix over explicit inclusive index intervals,
    built from its rows and stored as their code."""

    __slots__ = ()

    def __new__(cls, row_lo, col_lo, entries):
        entries = [tuple(r) for r in entries]
        if len({len(r) for r in entries}) > 1:
            raise ValueError("ragged rows")
        ncols = len(entries[0]) if entries else 0
        bits = 0
        for s, x in enumerate(x for r in entries for x in r):
            if x not in (0, 1):
                raise ValueError("entry %r is not 0 or 1" % (x,))
            bits |= bool(x) << s
        return super().__new__(cls, row_lo, col_lo, len(entries), ncols, bits)

    @property
    def row_hi(self):
        return self.row_lo + self.nrows - 1

    @property
    def col_hi(self):
        return self.col_lo + self.ncols - 1

    @property
    def entries(self):
        n = self.ncols
        return tuple(tuple(self.bits >> r * n + j & 1 for j in range(n))
                     for r in range(self.nrows))

    def entry(self, i, j):
        r, c = i - self.row_lo, j - self.col_lo
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError("entry (%d, %d) outside matrix" % (i, j))
        return self.bits >> r * self.ncols + c & 1

    def key(self):
        return self.row_lo, self.col_lo, self.entries

    def __repr__(self):
        return "BinaryMatrix(%r, %r, %r)" % self.key()

    def col_weight(self):
        """gl weight over the column interval: column sums."""
        return tuple(map(sum, zip(*self.entries)))


def _coded(shape, bits):
    """The matrix of shape (row_lo, col_lo, nrows, ncols) and code bits,
    unchecked."""
    return tuple.__new__(BinaryMatrix, shape + (bits,))


def format_matrix(A):
    out = ["rows=%d..%d cols=%d..%d" % (A.row_lo, A.row_hi, A.col_lo, A.col_hi)]
    for r in A.entries:
        out.append("".join(str(x) for x in r))
    return "\n".join(out)


# ---------------------------------------------------------------- kernels

# (family, nrows, ncols) -> its record (stride, window mask, pairs, memo)
_FAMILIES = {}
# one object per distinct (raise, lower) pair of XOR masks
_INTERNED = {}


def _family(family, nrows, ncols):
    """The record of an operator family on nrows x ncols codes."""
    try:
        return _FAMILIES[family, nrows, ncols]
    except KeyError:
        pass
    if family == "column":
        # (A(r, j), A(r, j+1)) down the rows
        stride, pairs = 1, [(r * ncols, r * ncols + 1) for r in range(nrows)]
    else:
        # (A(i, c), A(i+1, c)) right to left
        stride, pairs = ncols, [(c, c + ncols) for c in reversed(range(ncols))]
    record = _FAMILIES[family, nrows, ncols] = (
        stride, sum(1 << t | 1 << b for t, b in pairs), pairs, {})
    return record


def _moves(record, w):
    """The memo's miss path: the (raise, lower) XOR masks of window w by
    one bracket pass over the record's pairs."""
    minus, plus = None, []
    for t, b in record[2]:
        pair = w >> t & 1, w >> b & 1
        if pair == (1, 0):
            plus.append(1 << t | 1 << b)
        elif pair == (0, 1) and plus:
            plus.pop()
        elif pair == (0, 1):
            minus = 1 << t | 1 << b
    moves = minus, plus[0] if plus else None
    record[3][w] = moves = _INTERNED.setdefault(moves, moves)
    return moves


def code_step(family, nrows, ncols, at):
    """A crystal.components step on codes at color offset at: (raised,
    lowered), each one XOR away."""
    record = stride, mask, _, memo = _family(family, nrows, ncols)
    s = at * stride

    def step(x):
        w = x >> s & mask
        up, down = memo.get(w) or _moves(record, w)
        return (None if up is None else x ^ up << s,
                None if down is None else x ^ down << s)
    return step


def _at(color, lo, n, what):
    """The offset of color's pair, which must lie in the n indices from lo."""
    at = color - lo
    if at < 0 or at + 1 >= n:
        raise ValueError("%s %d,%d outside matrix" % (what, color, color + 1))
    return at


def _act(A, family, at, side):
    """A moved by the family's operator at color offset at, side 0 raising
    and 1 lowering."""
    record = stride, mask, _, memo = _family(family, A.nrows, A.ncols)
    s = at * stride
    w = A.bits >> s & mask
    move = (memo.get(w) or _moves(record, w))[side]
    return None if move is None else _coded(A[:4], A.bits ^ move << s)


def matrix_lower(A, k):
    """Lowering operator at column color k: acts on the left-most good +."""
    return _act(A, "column", _at(k, A.col_lo, A.ncols, "columns"), 1)


def matrix_raise(A, k):
    """Raising operator at column color k: acts on the right-most good -."""
    return _act(A, "column", _at(k, A.col_lo, A.ncols, "columns"), 0)


# ---------------------------------------------------------------- transpose

def rho_transpose(A):
    """The bijection sending an I x J matrix to a (-J) x I matrix with
    entry(r, c) = A(c, -r): its rows are A's columns, last first."""
    _check_rho(A)
    return BinaryMatrix(-A.col_hi, A.row_lo, list(zip(*A.entries))[::-1])


def rho_inverse(B):
    """Inverse of rho_transpose: entry(i, j) = B(-j, i)."""
    _check_rho(B)
    return BinaryMatrix(B.col_lo, -B.row_hi, list(zip(*B.entries[::-1])))


def _check_rho(A):
    # the image would have no rows, and a matrix without rows keeps no
    # column interval
    if A.nrows and not A.ncols:
        raise ValueError("rho needs a column: matrix has rows %d..%d and "
                         "no columns" % (A.row_lo, A.row_hi))


def cap_lower(A, l):
    """Row-direction lowering operator at row color l: the conjugate
    rho_inverse(matrix_lower(rho_transpose(A), l)), acting on the first
    surviving + of rows l, l+1 read right to left."""
    return _act(A, "cap", _at(l, A.row_lo, A.nrows, "rows"), 1)


def cap_raise(A, l):
    """Row-direction raising operator: acts on the last surviving -."""
    return _act(A, "cap", _at(l, A.row_lo, A.nrows, "rows"), 0)


# ---------------------------------------------------------------- censuses

def enumerate_matrices(row_lo, row_hi, col_lo, col_hi):
    """Every matrix over the intervals, by increasing code; without rows
    there are no columns either, as in the constructor."""
    nr = row_hi - row_lo + 1
    nc = col_hi - col_lo + 1 if nr else 0
    for bits in range(1 << nr * nc):
        yield _coded((row_lo, col_lo, nr, nc), bits)


def bicrystal_components(mats, col_colors, row_colors):
    """Partition matrices under both operator families.

    The matrices must share one shape and offsets; crystal.components walks
    their codes and decodes, as matrices of that shape, only the sources
    and the node that a "set not closed" refusal names.  Returns a Counter
    over (doubly-source column weight, component size), components in the
    order of their first matrix; raises if a component lacks a unique
    doubly-source.
    """
    shapes = {A[:4] for A in mats}
    if len(shapes) != 1:
        if shapes:
            raise ValueError("matrices of %d shapes" % len(shapes))
        return Counter()
    (shape,) = shapes
    row_lo, col_lo, nrows, ncols = shape
    steps = ([(k, code_step("column", nrows, ncols,
                            _at(k, col_lo, ncols, "columns")))
              for k in col_colors]
             + [(l, code_step("cap", nrows, ncols,
                              _at(l, row_lo, nrows, "rows")))
                for l in row_colors])
    return Counter((A.col_weight(), size) for A, size in components(
        [A.bits for A in mats], steps, functools.partial(_coded, shape)))
