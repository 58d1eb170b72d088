"""Binary matrices with a crystal structure on both index directions.

Row and column index intervals are explicit data: the transpose bijection rho
negates and swaps them, so nothing may be implicit in array offsets.

The column operators (`matrix_lower`/`matrix_raise`, color k) read the pairs
(A(i, k), A(i, k+1)) down the rows.  The row operators (`cap_lower`/
`cap_raise`, color l) are their conjugates by rho, computed directly from
rows l and l+1: the columns are read from right to left (the row order of
`rho_transpose(A)`), a column (1,0) is +, (0,1) is -, and a + cancels a
later -.  Lowering moves the 1 of the first surviving + down to row l+1,
raising moves the 1 of the last surviving - up to row l; this equals
`rho_inverse(matrix_*(rho_transpose(A), l))` without building either copy.
"""

import itertools
from collections import Counter, namedtuple

from .crystal import components


class BinaryMatrix(namedtuple("BinaryMatrix", "row_lo col_lo entries")):
    """An I x J zero-one matrix over explicit inclusive index intervals."""

    __slots__ = ()

    def __new__(cls, row_lo, col_lo, entries):
        entries = tuple(tuple(r) for r in entries)
        if len({len(r) for r in entries}) > 1:
            raise ValueError("ragged rows")
        return super().__new__(cls, row_lo, col_lo, entries)

    @classmethod
    def _of_rows(cls, row_lo, col_lo, rows):
        """The operators' constructor: `rows` is already a tuple of
        equal-length tuples, so it is shared, not copied or checked."""
        return tuple.__new__(cls, (row_lo, col_lo, rows))

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    @property
    def row_hi(self):
        return self.row_lo + self.nrows - 1

    @property
    def col_hi(self):
        return self.col_lo + self.ncols - 1

    def entry(self, i, j):
        return self.entries[i - self.row_lo][j - self.col_lo]

    def key(self):
        return tuple(self)

    def __repr__(self):
        return "BinaryMatrix(rows=%d..%d cols=%d..%d)" % (
            self.row_lo, self.row_hi, self.col_lo, self.col_hi)

    def col_weight(self):
        """gl weight over the column interval: column sums."""
        return tuple(sum(r[c] for r in self.entries)
                     for c in range(self.ncols))


def format_matrix(A):
    out = ["rows=%d..%d cols=%d..%d" % (A.row_lo, A.row_hi, A.col_lo, A.col_hi)]
    for r in A.entries:
        out.append("".join(str(x) for x in r))
    return "\n".join(out)


# ---------------------------------------------------------------- column ops

def _matrix_signature(A, k):
    """Surviving minus/plus row offsets at color k after cancelling (+,-)
    pairs with the + in an earlier row."""
    j = k - A.col_lo
    if j < 0 or j + 1 >= A.ncols:
        raise ValueError("columns %d,%d outside matrix" % (k, k + 1))
    plus, minus = [], []
    for r, row in enumerate(A.entries):
        if row[j] != row[j + 1]:
            if row[j]:
                plus.append(r)
            elif plus:
                plus.pop()
            else:
                minus.append(r)
    return minus, plus


def _column_move(A, r, k, up):
    """A with the 1 of row offset r moved between columns k and k+1."""
    j = k - A.col_lo
    rows = list(A.entries)
    row = list(rows[r])
    row[j], row[j + 1] = (1, 0) if up else (0, 1)
    rows[r] = tuple(row)
    return BinaryMatrix._of_rows(A.row_lo, A.col_lo, tuple(rows))


def matrix_lower(A, k):
    """Lowering operator at column color k: acts on the left-most good +."""
    minus, plus = _matrix_signature(A, k)
    return _column_move(A, plus[0], k, False) if plus else None


def matrix_raise(A, k):
    """Raising operator at column color k: acts on the right-most good -."""
    minus, plus = _matrix_signature(A, k)
    return _column_move(A, minus[-1], k, True) if minus else None


def _column_step(A, k):
    """(matrix_raise(A, k), matrix_lower(A, k)) from one signature."""
    minus, plus = _matrix_signature(A, k)
    return (_column_move(A, minus[-1], k, True) if minus else None,
            _column_move(A, plus[0], k, False) if plus else None)


# ---------------------------------------------------------------- transpose

def rho_transpose(A):
    """The bijection sending an I x J matrix to a (-J) x I matrix with
    entry(r, c) = A(c, -r)."""
    _check_rho(A)
    rows = []
    for r in range(-A.col_hi, -A.col_lo + 1):
        rows.append(tuple(A.entry(c, -r)
                          for c in range(A.row_lo, A.row_hi + 1)))
    return BinaryMatrix(-A.col_hi, A.row_lo, rows)


def rho_inverse(B):
    """Inverse of rho_transpose: entry(i, j) = B(-j, i)."""
    _check_rho(B)
    rows = []
    for i in range(B.col_lo, B.col_hi + 1):
        rows.append(tuple(B.entry(-j, i)
                          for j in range(-B.row_hi, -B.row_lo + 1)))
    return BinaryMatrix(B.col_lo, -B.row_hi, rows)


def _check_rho(A):
    # the image would have no rows, and a matrix without rows keeps no
    # column interval
    if A.nrows and not A.ncols:
        raise ValueError("rho needs a column: matrix has rows %d..%d and "
                         "no columns" % (A.row_lo, A.row_hi))


def _cap_signature(A, l):
    """Row offset i = l - row_lo and the surviving minus/plus column offsets
    at row color l, in right-to-left reading order."""
    i = l - A.row_lo
    if i < 0 or i + 1 >= A.nrows:
        raise ValueError("rows %d,%d outside matrix" % (l, l + 1))
    top, bot = A.entries[i], A.entries[i + 1]
    plus, minus = [], []
    for j in range(len(top) - 1, -1, -1):
        if top[j] != bot[j]:
            if top[j]:
                plus.append(j)
            elif plus:
                plus.pop()
            else:
                minus.append(j)
    return i, minus, plus


def _cap_move(A, i, j, up):
    """A with the 1 in column offset j moved between rows i and i+1."""
    top, bot = list(A.entries[i]), list(A.entries[i + 1])
    top[j], bot[j] = (1, 0) if up else (0, 1)
    rows = list(A.entries)
    rows[i], rows[i + 1] = tuple(top), tuple(bot)
    return BinaryMatrix._of_rows(A.row_lo, A.col_lo, tuple(rows))


def cap_lower(A, l):
    """Row-direction lowering operator at row color l: the conjugate
    rho_inverse(matrix_lower(rho_transpose(A), l)), acting on the first
    surviving + of rows l, l+1 read right to left."""
    i, minus, plus = _cap_signature(A, l)
    return _cap_move(A, i, plus[0], False) if plus else None


def cap_raise(A, l):
    """Row-direction raising operator: acts on the last surviving -."""
    i, minus, plus = _cap_signature(A, l)
    return _cap_move(A, i, minus[-1], True) if minus else None


def _cap_step(A, l):
    """(cap_raise(A, l), cap_lower(A, l)) from one signature."""
    i, minus, plus = _cap_signature(A, l)
    return (_cap_move(A, i, minus[-1], True) if minus else None,
            _cap_move(A, i, plus[0], False) if plus else None)


# ---------------------------------------------------------------- censuses

def enumerate_matrices(row_lo, row_hi, col_lo, col_hi):
    nr, nc = row_hi - row_lo + 1, col_hi - col_lo + 1
    for bits in itertools.product((0, 1), repeat=nr * nc):
        yield BinaryMatrix._of_rows(
            row_lo, col_lo, tuple(bits[r * nc:(r + 1) * nc]
                                  for r in range(nr)))


def bicrystal_components(mats, col_colors, row_colors):
    """Partition matrices under both operator families.

    Returns a Counter over (doubly-source column weight, component size);
    raises if a component lacks a unique doubly-source.
    """
    steps = ([(_column_step, k) for k in col_colors]
             + [(_cap_step, l) for l in row_colors])
    return Counter((A.col_weight(), size)
                   for A, size in components(mats, steps))
