import random
import re

import pytest

from collections import Counter

from crystal_lr import matrices, verify
from crystal_lr.crystal import (Tableau, Weight, components, enumerate_sst,
                                lower_word, raise_word, tableau_word)
from crystal_lr.matrices import (BinaryMatrix, bicrystal_components,
                                 cap_lower, cap_raise, enumerate_matrices,
                                 format_matrix, matrix_lower, matrix_raise,
                                 rho_inverse, rho_transpose)
from crystal_lr.shapes import conjugate, num_sst, partitions_of
from duality import (MayaRow, dual, embed_sigma, embed_tau,
                     fundamental_weight, hw_weight, maya_lower, maya_raise,
                     maya_weight, maya_weight_total, row_reverse, weight_sub)


def M(row_lo, col_lo, rows):
    return BinaryMatrix(row_lo, col_lo, rows)


def test_row_ops():
    # the column operators on a one-row matrix move its single pair
    assert matrix_lower(M(1, 0, [(1, 0)]), 0) == M(1, 0, [(0, 1)])
    assert matrix_lower(M(1, 0, [(0, 1)]), 0) is None
    assert matrix_lower(M(1, 0, [(1, 1)]), 0) is None
    assert matrix_lower(M(1, 0, [(0, 0)]), 0) is None
    assert matrix_raise(M(1, 0, [(0, 1)]), 0) == M(1, 0, [(1, 0)])
    assert matrix_raise(M(1, 0, [(1, 0)]), 0) is None
    assert matrix_lower(M(1, 1, [(0, 1, 0)]), 2) == M(1, 1, [(0, 0, 1)])
    with pytest.raises(ValueError):
        matrix_lower(M(1, 0, [(1, 0)]), 5)
    with pytest.raises(ValueError):
        matrix_raise(M(1, 1, [(0, 1)]), 0)


def test_records_keep_their_checks():
    rows = ((1, 0, 1), (0, 1, 1))
    A = M(2, -1, rows)
    assert A == M(2, -1, [list(r) for r in rows])
    assert hash(A) == hash(M(2, -1, (r for r in rows)))
    assert A.key() == (2, -1, rows)
    # entry (r, j) at offsets is bit r * ncols + j
    assert (A.nrows, A.ncols, A.bits) == (2, 3, 0b110101)
    assert A == matrices._coded((2, -1, 2, 3), 0b110101)
    with pytest.raises(ValueError, match="ragged rows"):
        M(1, 0, [(1, 0), (1,)])
    assert MayaRow("E", delta=[3, 1]) == MayaRow("E", 0, (1, 3, 3))
    with pytest.raises(ValueError, match="kind must be E or F"):
        MayaRow("G")
    with pytest.raises(ValueError, match="E rows carry no charge"):
        MayaRow("E", charge=1)


def test_entries_must_be_zero_or_one():
    for bad in (2, -1, 0.5, "1", None):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            M(0, 0, [(bad, 0)])
    with pytest.raises(ValueError, match="entry 2 is not 0 or 1"):
        M(0, 0, [(2, 0)])
    # bools and integral floats are the entries they equal
    assert M(0, 0, [(True, False), (1.0, 0.0)]) == M(0, 0, [(1, 0), (1, 0)])


def test_codes_round_trip():
    assert M(2, -1, []).key() == (2, -1, ())
    assert M(1, 1, [(), ()]).key() == (1, 1, ((), ()))
    for nrows in range(4):
        for ncols in range(1, 4):
            for A in enumerate_matrices(1, nrows, 0, ncols - 1):
                assert M(*A.key()) == A
                assert A.col_weight() == tuple(
                    sum(A.entry(i, j) for i in range(1, A.row_hi + 1))
                    for j in range(A.col_lo, A.col_hi + 1))
                # without rows there is no column interval
                assert A.ncols == (ncols if nrows else 0)
    with pytest.raises(IndexError):
        M(1, 0, [(1, 0), (0, 1)]).entry(3, 0)


def test_entry_refuses_indices_outside():
    A = M(1, 1, [(1, 0), (0, 1)])
    assert [[A.entry(i, j) for j in (1, 2)] for i in (1, 2)] == [[1, 0],
                                                                 [0, 1]]
    # below each interval a negative offset must not wrap to the far end
    for i, j in [(0, 1), (3, 1), (1, 0), (1, 3)]:
        with pytest.raises(IndexError, match=r"entry \(%d, %d\) outside"
                           % (i, j)):
            A.entry(i, j)


def test_signature_cases():
    A = M(1, 1, [(1, 0), (1, 0)])
    assert matrix_lower(A, 1) == M(1, 1, [(0, 1), (1, 0)])
    assert matrix_raise(A, 1) is None
    B = M(1, 1, [(1, 0), (0, 1)])
    assert matrix_lower(B, 1) is None
    assert matrix_raise(B, 1) is None
    C = M(1, 1, [(0, 1), (1, 0)])
    assert matrix_raise(C, 1) == M(1, 1, [(1, 0), (1, 0)])
    assert matrix_lower(C, 1) == M(1, 1, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        matrix_lower(A, 2)


def test_rho_transpose():
    A = M(1, 1, [(1, 0), (0, 1)])
    B = rho_transpose(A)
    assert (B.row_lo, B.row_hi, B.col_lo, B.col_hi) == (-2, -1, 1, 2)
    assert B == M(-2, 1, [(0, 1), (1, 0)])
    assert rho_inverse(B) == A
    rng = random.Random(5)
    for _ in range(20):
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        r0, c0 = rng.randint(-3, 3), rng.randint(-3, 3)
        X = M(r0, c0, [tuple(rng.randint(0, 1) for _ in range(nc))
                       for _ in range(nr)])
        assert rho_inverse(rho_transpose(X)) == X
        Y = rho_transpose(X)
        for i in range(X.row_lo, X.row_hi + 1):
            for j in range(X.col_lo, X.col_hi + 1):
                assert Y.entry(-j, i) == X.entry(i, j)


def test_cap_column_example():
    A = M(1, 3, [(1,), (0,)])
    assert cap_lower(A, 1) == M(1, 3, [(0,), (1,)])
    assert cap_raise(A, 1) is None
    B = M(1, 3, [(0,), (1,)])
    assert cap_raise(B, 1) == A


def _rho_conjugate(op, A, l):
    """The row operator by its definition: the column operator conjugated
    by the transpose bijection rho."""
    out = op(rho_transpose(A), l)
    return None if out is None else rho_inverse(out)


def _assert_caps_match_rho(A):
    for l in range(A.row_lo, A.row_hi):
        assert cap_lower(A, l) == _rho_conjugate(matrix_lower, A, l)
        assert cap_raise(A, l) == _rho_conjugate(matrix_raise, A, l)


def test_cap_ops_match_rho_conjugation_exhaustive():
    # every matrix of 2-4 rows, at least one column and at most 12 cells
    rng = random.Random(1126)
    for nrows in (2, 3, 4):
        for ncols in range(1, 12 // nrows + 1):
            for A in enumerate_matrices(1, nrows, 1, ncols):
                r0, c0 = rng.randint(-4, 4), rng.randint(-4, 4)
                _assert_caps_match_rho(M(r0, c0, A.entries))


def test_cap_ops_match_rho_conjugation_seeded():
    rng = random.Random(909)
    for _ in range(300):
        A = M(rng.randint(-4, 4), rng.randint(-4, 4),
              [tuple(rng.randint(0, 1) for _ in range(7)) for _ in range(4)])
        _assert_caps_match_rho(A)


def test_matrix_with_rows_and_no_columns():
    A = M(1, 1, [(), ()])
    assert cap_lower(A, 1) is None
    assert cap_raise(A, 1) is None
    for rho in (rho_transpose, rho_inverse):
        with pytest.raises(ValueError, match="no columns"):
            rho(A)
    # without rows there is no interval to lose
    E = M(2, -1, [])
    assert rho_inverse(rho_transpose(E)) == E


def test_cap_row_color_out_of_range():
    A = M(1, 1, [(1, 0), (0, 1)])
    for l in (0, 2):
        for op in (cap_lower, cap_raise):
            with pytest.raises(ValueError,
                               match="rows %d,%d outside matrix" % (l, l + 1)):
                op(A, l)
    with pytest.raises(ValueError, match="rows 1,2 outside matrix"):
        cap_lower(M(1, 1, [(1, 0)]), 1)
    with pytest.raises(ValueError, match="rows 3,4 outside matrix"):
        cap_raise(M(1, 1, [(), ()]), 3)


def _is_cap(record):
    return any(family == "cap" and r is record
               for (family, _, _), r in matrices._FAMILIES.items())


def _moves_cap_last_plus(record, w):
    """A mutant of matrices._moves on caps only, read off the tuple oracle:
    the last surviving + in place of the first."""
    if not _is_cap(record):
        return _ORIGINAL_MOVES(record, w)
    ncols = len(record[2])
    rows = matrices._coded((0, 0, 2, ncols), w).entries
    minus, plus = _cap_signature(rows, 0)
    moves = tuple(1 << c | 1 << c + ncols if c is not None else None
                  for c in (minus[-1] if minus else None,
                            plus[-1] if plus else None))
    record[3][w] = moves
    return moves


def _moves_last_plus(record, w):
    """A mutant of the bracket pass of matrices._moves on caps only: the
    last surviving + in place of the first."""
    if not _is_cap(record):
        return _ORIGINAL_MOVES(record, w)
    minus, plus = None, []
    for t, b in record[2]:
        pair = w >> t & 1, w >> b & 1
        if pair == (1, 0):
            plus.append(1 << t | 1 << b)
        elif pair == (0, 1) and plus:
            plus.pop()
        elif pair == (0, 1):
            minus = 1 << t | 1 << b
    record[3][w] = moves = minus, plus[-1] if plus else None
    return moves


_ORIGINAL_MOVES = matrices._moves


def test_verifiers_catch_mutant_cap_window(monkeypatch):
    # with the memo cleared, every cap lookup misses first into the mutant
    monkeypatch.setattr(matrices, "_FAMILIES", {})
    monkeypatch.setattr(matrices, "_moves", _moves_last_plus)
    cfg = {"seed": 0, "quick": True}
    (check,) = verify.SUITES["bicrystal"](cfg)
    assert check["status"] == "fail"
    assert check["counterexample"]["row_op"] in ("lower", "raise")
    (census,) = verify.SUITES["duality-en"](cfg)
    assert census["status"] == "fail"
    assert re.fullmatch(r"ValueError: component with \d+ sources",
                        census["counterexample"]["error"])


def test_window_memo_is_bounded(monkeypatch):
    # a column window holds 2 bits per row and a cap window 2 rows
    monkeypatch.setattr(matrices, "_FAMILIES", {})
    cfg = {"seed": 0, "quick": True}
    for suite in ("bicrystal", "duality-en"):
        assert all(c["status"] == "pass" for c in verify.SUITES[suite](cfg))
    assert {family for family, _, _ in matrices._FAMILIES} == {"column",
                                                               "cap"}
    for (family, nrows, ncols), record in matrices._FAMILIES.items():
        stride, mask, pairs, table = record
        n = nrows if family == "column" else ncols
        assert len(pairs) == n and stride == (1 if family == "column"
                                              else ncols)
        assert mask == sum(1 << t | 1 << b for t, b in pairs)
        assert 0 < len(table) <= 4 ** n
        assert all(w & ~mask == 0 for w in table)
        # each move is None or one of n pair swaps, and each distinct
        # (raise, lower) pair is one interned object
        swaps = {1 << t | 1 << b for t, b in pairs} | {None}
        assert all(set(moves) <= swaps for moves in table.values())
        moves = set(table.values())
        assert len(moves) <= (n + 1) ** 2
        assert len({id(m) for m in table.values()}) == len(moves)


def test_verifiers_catch_mutant_row_operator(monkeypatch):
    # one patch reaches both the operators and the census walk
    monkeypatch.setattr(matrices, "_FAMILIES", {})
    monkeypatch.setattr(matrices, "_moves", _moves_cap_last_plus)
    cfg = {"seed": 0, "quick": True}
    (check,) = verify.SUITES["bicrystal"](cfg)
    assert check["status"] == "fail"
    assert check["counterexample"]["row_op"] in ("lower", "raise")
    # the census's own uniqueness check raises, which fails the check
    (census,) = verify.SUITES["duality-en"](cfg)
    assert census["status"] == "fail"
    assert re.fullmatch(r"ValueError: component with \d+ sources",
                        census["counterexample"]["error"])


def test_duality_single_row():
    A = M(1, 1, [(1, 0)])
    assert dual(A) == M(1, 1, [(0, 1)])
    assert matrix_lower(A, 1) == dual(matrix_raise(dual(A), 1))


def test_duality():
    # complement alone dualizes one row; with several rows the crystal
    # anti-automorphism also reverses the row order
    rng = random.Random(11)
    for _ in range(300):
        A = M(1, 1, [tuple(rng.randint(0, 1) for _ in range(4))
                     for _ in range(3)])
        assert dual(dual(A)) == A
        assert row_reverse(row_reverse(A)) == A
        star = lambda X: dual(row_reverse(X))
        k = rng.randint(1, 3)
        lhs = matrix_lower(A, k)
        rhs = matrix_raise(star(A), k)
        assert (lhs is None) == (rhs is None)
        if lhs is not None:
            assert lhs == star(rhs)


def test_commutation_small_exhaustive():
    for A in enumerate_matrices(1, 2, 1, 3):
        for k in (1, 2):
            for l in (1,):
                for colop in (matrix_lower, matrix_raise):
                    for rowop in (cap_lower, cap_raise):
                        x = colop(A, k)
                        x = None if x is None else rowop(x, l)
                        y = rowop(A, l)
                        y = None if y is None else colop(y, k)
                        assert x == y


def test_commutation_seeded():
    rng = random.Random(2026)
    for _ in range(300):
        A = M(1, 1, [tuple(rng.randint(0, 1) for _ in range(7))
                     for _ in range(4)])
        k = rng.randint(1, 6)
        l = rng.randint(1, 3)
        for colop in (matrix_lower, matrix_raise):
            for rowop in (cap_lower, cap_raise):
                x = colop(A, k)
                x = None if x is None else rowop(x, l)
                y = rowop(A, l)
                y = None if y is None else colop(y, k)
                assert x == y


def test_embed_sigma_column():
    T = Tableau([(1, 3)])
    A = embed_sigma(T, (0, 4))
    assert A == M(1, 0, [(0, 1, 0, 1, 0)])
    B = embed_sigma(T, (0, 4), nrows=3)
    assert B == M(1, 0, [(0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 1, 0, 1, 0)])
    with pytest.raises(ValueError):
        embed_sigma(T, (2, 4))


def test_embed_tau_column():
    T = Tableau([(3, 1)], dual=True)
    A = embed_tau(T, (0, 4))
    assert A == M(1, 0, [(1, 0, 1, 0, 1)])
    B = embed_tau(T, (0, 4), nrows=2)
    assert B == M(1, 0, [(1, 0, 1, 0, 1), (1, 1, 1, 1, 1)])
    with pytest.raises(ValueError):
        embed_tau(Tableau([(1,)]), (0, 4))


def _word_index(lam, lo, hi, dual_flag):
    return {tableau_word(T): T for T in enumerate_sst(lam, lo, hi, dual_flag)}


def test_embed_sigma_intertwines():
    lo, hi = 1, 4
    for lam in [(1,), (2,), (1, 1), (2, 1), (2, 2)]:
        table = _word_index(lam, lo, hi, False)
        for w, T in table.items():
            A = embed_sigma(T, (lo, hi))
            for k in range(lo, hi):
                wl = lower_word(w, k)
                Al = matrix_lower(A, k)
                assert (wl is None) == (Al is None)
                if wl is not None:
                    assert Al == embed_sigma(table[wl], (lo, hi))
                wr = raise_word(w, k)
                Ar = matrix_raise(A, k)
                assert (wr is None) == (Ar is None)
                if wr is not None:
                    assert Ar == embed_sigma(table[wr], (lo, hi))


def test_embed_tau_intertwines():
    lo, hi = 1, 4
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        table = _word_index(lam, lo, hi, True)
        for w, T in table.items():
            A = embed_tau(T, (lo, hi))
            for k in range(lo, hi):
                wl = lower_word(w, k)
                Al = matrix_lower(A, k)
                assert (wl is None) == (Al is None)
                if wl is not None:
                    assert Al == embed_tau(table[wl], (lo, hi))
                wr = raise_word(w, k)
                Ar = matrix_raise(A, k)
                assert (wr is None) == (Ar is None)
                if wr is not None:
                    assert Ar == embed_tau(table[wr], (lo, hi))


def test_census_small():
    mats = list(enumerate_matrices(1, 2, 1, 3))
    comps = bicrystal_components(mats, col_colors=(1, 2), row_colors=(1,))
    expected = {}
    for size in range(0, 7):
        for mu in partitions_of(size, max_part=2, max_length=3):
            key = tuple(list(mu) + [0] * (3 - len(mu)))
            expected[(key, num_sst(mu, 3) * num_sst(conjugate(mu), 2))] = 1
    assert dict(comps) == expected
    assert sum(sz * n for (_, sz), n in comps.items()) == 64


def test_census_not_closed():
    # the dropped matrix is [(1, 0, 0), (0, 0, 0)] lowered at column color 1
    mats = list(enumerate_matrices(1, 2, 1, 3))
    mats.remove(M(1, 1, [(0, 1, 0), (0, 0, 0)]))
    with pytest.raises(ValueError, match="set not closed under color") as exc:
        bicrystal_components(mats, col_colors=(1, 2), row_colors=(1,))
    # the refusal names the matrix by its repr, not by its code
    assert str(exc.value) == ("set not closed under color 1 at "
                              "BinaryMatrix(1, 1, ((1, 0, 0), (0, 0, 0)))")


# The retired tuple operators, kept as the oracle of the bit kernels: a
# matrix is its key (row_lo, col_lo, rows), read and rebuilt row by row.

def _matrix_signature(rows, j):
    """Surviving minus/plus row offsets at column offset j after cancelling
    (+,-) pairs with the + in an earlier row."""
    plus, minus = [], []
    for r, row in enumerate(rows):
        if row[j] != row[j + 1]:
            if row[j]:
                plus.append(r)
            elif plus:
                plus.pop()
            else:
                minus.append(r)
    return minus, plus


def _column_move(rows, r, j, up):
    """rows with the 1 of row r moved between columns j and j+1."""
    rows = [list(row) for row in rows]
    rows[r][j], rows[r][j + 1] = (1, 0) if up else (0, 1)
    return tuple(tuple(row) for row in rows)


def _cap_signature(rows, i):
    """Surviving minus/plus column offsets of rows i, i+1, in right-to-left
    reading order."""
    top, bot = rows[i], rows[i + 1]
    plus, minus = [], []
    for j in range(len(top) - 1, -1, -1):
        if top[j] != bot[j]:
            if top[j]:
                plus.append(j)
            elif plus:
                plus.pop()
            else:
                minus.append(j)
    return minus, plus


def _cap_move(rows, i, j, up):
    """rows with the 1 in column j moved between rows i and i+1."""
    rows = [list(row) for row in rows]
    rows[i][j], rows[i + 1][j] = (1, 0) if up else (0, 1)
    return tuple(tuple(row) for row in rows)


def _column_step(key, k):
    """(raised, lowered) keys at column color k from one signature."""
    row_lo, col_lo, rows = key
    j = k - col_lo
    if j < 0 or j + 1 >= len(rows[0]):
        raise ValueError("columns %d,%d outside matrix" % (k, k + 1))
    minus, plus = _matrix_signature(rows, j)
    return ((row_lo, col_lo, _column_move(rows, minus[-1], j, True))
            if minus else None,
            (row_lo, col_lo, _column_move(rows, plus[0], j, False))
            if plus else None)


def _cap_step(key, l):
    """(raised, lowered) keys at row color l from one signature."""
    row_lo, col_lo, rows = key
    i = l - row_lo
    if i < 0 or i + 1 >= len(rows):
        raise ValueError("rows %d,%d outside matrix" % (l, l + 1))
    minus, plus = _cap_signature(rows, i)
    return ((row_lo, col_lo, _cap_move(rows, i, minus[-1], True))
            if minus else None,
            (row_lo, col_lo, _cap_move(rows, i, plus[0], False))
            if plus else None)


def _tuple_bicrystal_components(keys, col_colors, row_colors):
    """The retired census: the component walk over keys through the tuple
    steps."""
    steps = ([(k, lambda key, k=k: _column_step(key, k)) for k in col_colors]
             + [(l, lambda key, l=l: _cap_step(key, l)) for l in row_colors])
    return Counter((tuple(map(sum, zip(*rows))), size)
                   for (_, _, rows), size in components(keys, steps,
                                                        lambda key: key))


def _key(A):
    return None if A is None else A.key()


def test_steps_match_operators(monkeypatch):
    # the kernels' moves agree cold, each window a miss on first sight,
    # and warm, each a hit
    monkeypatch.setattr(matrices, "_FAMILIES", {})
    assert _check_steps() == 24056
    filled = {key: len(record[3])
              for key, record in matrices._FAMILIES.items()}
    assert _check_steps() == 24056
    assert {key: len(record[3])
            for key, record in matrices._FAMILIES.items()} == filled


def _assert_moves(family, x, nrows, ncols, s, moves):
    """The family's step on code x at shift s makes the (raise, lower)
    moves, XOR masks at shift 0, which its memo then holds."""
    _, mask, _, memo = matrices._family(family, nrows, ncols)
    stride = 1 if family == "column" else ncols
    step = matrices.code_step(family, nrows, ncols, s // stride)
    assert step(x) == tuple(None if m is None else x ^ m << s for m in moves)
    assert memo[x >> s & mask] == moves


def _check_steps():
    """The kernels and operators against the tuple oracle on every matrix
    with 1-3 rows and 1-4 columns, at every color; the count of cases."""
    cases = 0
    for nrows in range(1, 4):
        for ncols in range(1, 5):
            for A in enumerate_matrices(-1, nrows - 2, 2, ncols + 1):
                rows = A.entries
                for k in range(A.col_lo, A.col_hi):
                    j = k - A.col_lo
                    minus, plus = _matrix_signature(rows, j)
                    _assert_moves("column", A.bits, nrows, ncols, j, (
                        3 << minus[-1] * ncols if minus else None,
                        3 << plus[0] * ncols if plus else None))
                    assert _column_step(A.key(), k) == (
                        _key(matrix_raise(A, k)), _key(matrix_lower(A, k)))
                    cases += 1
                for l in range(A.row_lo, A.row_hi):
                    i = l - A.row_lo
                    minus, plus = _cap_signature(rows, i)
                    swap = 1 | 1 << ncols
                    _assert_moves("cap", A.bits, nrows, ncols, i * ncols, (
                        swap << minus[-1] if minus else None,
                        swap << plus[0] if plus else None))
                    assert _cap_step(A.key(), l) == (
                        _key(cap_raise(A, l)), _key(cap_lower(A, l)))
                    cases += 1
    return cases


@pytest.mark.parametrize("nrows,ncols", [
    (r, c) for r in range(1, 4) for c in range(1, 4)] + [(2, 5)])
def test_census_matches_tuple_census(nrows, ncols):
    for row_lo, col_lo in ((1, 1), (-2, 3)):
        mats = list(enumerate_matrices(row_lo, row_lo + nrows - 1,
                                       col_lo, col_lo + ncols - 1))
        col_colors = range(col_lo, col_lo + ncols - 1)
        row_colors = range(row_lo, row_lo + nrows - 1)
        got = bicrystal_components(mats, col_colors, row_colors)
        want = _tuple_bicrystal_components([A.key() for A in mats],
                                           col_colors, row_colors)
        # the same components, found in the same order
        assert list(got.items()) == list(want.items())
        assert sum(size * n for (_, size), n in got.items()) == len(mats)


def test_census_and_operators_share_one_record(monkeypatch):
    # the census walk fills each family's memo with every window of the
    # shape; the operators then add no record and no window
    monkeypatch.setattr(matrices, "_FAMILIES", {})
    mats = list(enumerate_matrices(-1, 1, 2, 5))
    bicrystal_components(mats, range(2, 5), range(-1, 1))
    assert set(matrices._FAMILIES) == {("column", 3, 4), ("cap", 3, 4)}
    records = dict(matrices._FAMILIES)
    filled = {key: dict(record[3]) for key, record in records.items()}
    assert [len(m) for m in filled.values()] == [4 ** 3, 4 ** 4]

    def miss(record, w):
        raise AssertionError("window %r missed the memo" % (w,))
    monkeypatch.setattr(matrices, "_moves", miss)
    for A in mats:
        for k in range(2, 5):
            matrix_lower(A, k), matrix_raise(A, k)
        for l in range(-1, 1):
            cap_lower(A, l), cap_raise(A, l)
    assert matrices._FAMILIES == records
    assert all(matrices._FAMILIES[key] is record
               for key, record in records.items())
    assert {key: record[3] for key, record in records.items()} == filled


def test_census_refuses_mixed_shapes():
    mats = list(enumerate_matrices(1, 2, 1, 3))
    for other in (M(1, 1, [(0, 1), (1, 0)]), M(1, 2, [(0, 1, 0)] * 2),
                  M(2, 1, [(0, 1, 0)] * 2), M(1, 1, [(0, 1, 0)] * 3)):
        with pytest.raises(ValueError, match="matrices of 2 shapes"):
            bicrystal_components(mats + [other], col_colors=(1, 2),
                                 row_colors=(1,))
    assert bicrystal_components([], col_colors=(1, 2),
                                row_colors=(1,)) == Counter()


def test_census_refuses_colors_outside():
    mats = list(enumerate_matrices(1, 2, 1, 3))
    with pytest.raises(ValueError, match="columns 3,4 outside matrix"):
        bicrystal_components(mats, col_colors=(1, 2, 3), row_colors=(1,))
    with pytest.raises(ValueError, match="rows 0,1 outside matrix"):
        bicrystal_components(mats, col_colors=(1, 2), row_colors=(0, 1))


def test_maya_weights():
    for i in range(-2, 4):
        assert maya_weight(MayaRow("F", charge=i)) == fundamental_weight(i)
    assert maya_weight(MayaRow("E", delta=(2, 5))) == Weight(0, {2: 1, 5: 1})
    assert maya_weight(MayaRow("F", charge=1, delta=(1, 2))) == \
        Weight(1, {2: 1})


def test_maya_sources():
    for lam in [(0,), (2, 0), (1, 1), (3, 1, 0), (0, -1), (2, -2)]:
        rows = tuple(MayaRow("F", charge=c) for c in lam)
        assert maya_weight_total(rows) == hw_weight(lam)
        for k in range(min(lam) - 2, max(lam) + 3):
            assert maya_raise(rows, k) is None
        down = maya_lower(rows, max(lam))
        assert down is not None
        alpha = Weight(0, {max(lam): 1, max(lam) + 1: -1})
        assert maya_weight_total(down) == weight_sub(hw_weight(lam), alpha)


# The retired snapshot route, kept as the oracle for maya_lower/maya_raise:
# copy every row onto a column window holding all flips, charges and the
# color's two columns plus a margin, act with a column operator read off the
# word crystal (not the matrix operators that maya_lower/maya_raise call),
# and read each row's flips back off the window.

def _word_column_op(word_op):
    """Column operator at color k through a word operator: the rows top to
    bottom, each row's 1-columns in increasing order, as letters (j, False);
    the word's letters are written back into their rows."""
    def op(A, k):
        word = tuple((A.col_lo + j, False) for row in A.entries
                     for j, x in enumerate(row) if x)
        word = word_op(word, k)
        if word is None:
            return None
        rows, start = [], 0
        for row in A.entries:
            cols = {j for j, _ in word[start:start + sum(row)]}
            start += sum(row)
            rows.append(tuple(int(A.col_lo + j in cols)
                              for j in range(len(row))))
        return BinaryMatrix(A.row_lo, A.col_lo, rows)
    return op


def _snapshot_window(rows, k, margin):
    pts = [k, k + 1]
    for v in rows:
        pts.extend(v.delta)
        if v.kind == "F":
            pts.append(v.charge)
    return min(pts) - margin, max(pts) + margin


def _snapshot_step(rows, k, op, margin):
    lo, hi = _snapshot_window(rows, k, margin)
    A = op(BinaryMatrix(1, lo, [tuple(v.entry(j) for j in range(lo, hi + 1))
                                for v in rows]), k)
    if A is None:
        return None
    out = []
    for idx, v in enumerate(rows):
        delta = set()
        for j in range(A.col_lo, A.col_hi + 1):
            vac = 1 if (v.kind == "F" and j <= v.charge) else 0
            if A.entry(1 + idx, j) != vac:
                delta.add(j)
        out.append(MayaRow(v.kind, v.charge, delta))
    return tuple(out)


def test_maya_ops_match_snapshot_route():
    rng = random.Random(7)
    for _ in range(400):
        rows = []
        for _ in range(rng.randint(1, 4)):
            delta = {rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
            if rng.random() < 0.5:
                rows.append(MayaRow("E", delta=delta))
            else:
                rows.append(MayaRow("F", charge=rng.randint(-2, 2),
                                    delta=delta))
        rows = tuple(rows)
        k = rng.randint(-4, 4)
        for margin in (2, 5):
            assert maya_lower(rows, k) == _snapshot_step(
                rows, k, _word_column_op(lower_word), margin)
            assert maya_raise(rows, k) == _snapshot_step(
                rows, k, _word_column_op(raise_word), margin)


def test_serialization():
    A = M(1, -1, [(1, 0, 0, 1, 0), (0, 1, 1, 0, 1)])
    assert (A.row_lo, A.row_hi, A.col_lo, A.col_hi) == (1, 2, -1, 3)
    assert A.entry(1, -1) == 1 and A.entry(2, 0) == 1 and A.entry(1, 3) == 0
    assert format_matrix(A) == "rows=1..2 cols=-1..3\n10010\n01101"
    assert MayaRow("F", charge=2, delta=(3,)).to_json() == \
        {"kind": "F", "charge": 2, "delta": [3]}
