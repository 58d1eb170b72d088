import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from crystal_lr import crystal, shapes
from crystal_lr.lr_engine import ExtremalClass, pieri_column
from crystal_lr.shapes import (_pad, conjugate, contains,
                               decreasing_tuples, mu_star, normalize)


# The strip enumerators that pieri_column read, moved from src/ to be its
# oracle.

def strips_above(lam, size):
    """mu in Z^n weakly decreasing such that mu/lam is a horizontal strip of
    the given size after subtracting the common baseline lam_n."""
    highs = (lam[0] + size,) + tuple(lam[:-1]) if lam else ()
    return list(decreasing_tuples(lam, highs, sum(lam) + size))


def strips_below(lam, size):
    """nu in Z^n weakly decreasing such that lam/nu is a horizontal strip of
    the given size after subtracting the common baseline nu_n: the stars of
    the strips above lam*, as the star -w0 reverses containment."""
    n = len(lam)
    return [mu_star(x, n) for x in strips_above(mu_star(lam, n), size)]


# Moved from src/, where only these tests used them.

def is_horizontal_strip(outer, inner):
    """At most one cell per column: outer[i+1] <= inner[i]."""
    outer, inner = normalize(outer), normalize(inner)
    if not contains(outer, inner):
        return False
    inner = _pad(inner, len(outer))
    return all(outer[i + 1] <= inner[i] for i in range(len(outer) - 1))


def is_vertical_strip(outer, inner):
    """At most one cell per row."""
    outer, inner = normalize(outer), normalize(inner)
    if not contains(outer, inner):
        return False
    inner = _pad(inner, len(outer))
    return all(outer[i] - inner[i] <= 1 for i in range(len(outer)))


def horizontal_strips_above(mu, k):
    """Partitions lam >= mu with lam/mu a horizontal strip of size k."""
    return [normalize(lam) for lam in strips_above(normalize(mu) + (0,), k)]


# Moved from src/, where characters._hl_p read it once per strip size; _hl_p
# now walks the interlacing tuples of all sizes at once.

def horizontal_strips_below(mu, k):
    """Partitions nu <= mu with mu/nu a horizontal strip of size k: the
    tuples interlacing mu, mu_(i+1) <= nu_i <= mu_i."""
    mu = normalize(mu)
    return [normalize(nu) for nu in
            decreasing_tuples((mu + (0,))[1:], mu, sum(mu) - k)]


def vertical_strips_above(mu, k):
    return [conjugate(lam) for lam in horizontal_strips_above(conjugate(mu), k)]


def vertical_strips_below(mu, k):
    return [conjugate(nu) for nu in horizontal_strips_below(conjugate(mu), k)]


def tpoly_eval(a, t):
    return sum(c * t ** e for e, c in a.items())


def test_parse_format_partition():
    assert shapes.parse_partition("3,1") == (3, 1)
    assert shapes.parse_partition("0") == ()
    assert shapes.parse_partition("") == ()
    assert shapes.parse_partition("3,1,0") == (3, 1)
    with pytest.raises(ValueError):
        shapes.parse_partition("1,2")
    with pytest.raises(ValueError):
        shapes.parse_partition("2,-1")


def test_parse_gen_partition():
    assert shapes.parse_gen_partition("2,0,-1") == (2, 0, -1)
    assert shapes.parse_gen_partition("0,0") == (0, 0)
    with pytest.raises(ValueError):
        shapes.parse_gen_partition("-1,0")


def test_contains():
    assert shapes.contains((3, 1), (1,))
    assert shapes.contains((2, 2), ())
    assert shapes.contains((2, 2), (2, 2, 0))
    assert not shapes.contains((1,), (2,))
    assert not shapes.contains((2,), (1, 1))


def test_conjugate():
    assert shapes.conjugate((3, 1)) == (2, 1, 1)
    assert shapes.conjugate(()) == ()
    rng = random.Random(11)
    for _ in range(50):
        mu = tuple(sorted((rng.randrange(6) for _ in range(4)), reverse=True))
        mu = shapes.normalize(mu)
        assert shapes.conjugate(shapes.conjugate(mu)) == mu
        assert sum(shapes.conjugate(mu)) == sum(mu)


def test_strips():
    assert is_horizontal_strip((2,), (1,))
    assert is_vertical_strip((2,), (1,))
    assert not is_horizontal_strip((2, 2), (1,))
    assert is_vertical_strip((2, 1), (1,))
    assert is_horizontal_strip((2, 1), (1,))
    assert not is_vertical_strip((3, 1), (1,))
    assert is_horizontal_strip((3, 1), (1, 1))


def test_strip_enumeration():
    assert set(horizontal_strips_above((2, 1), 2)) == {
        (4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
    assert set(horizontal_strips_below((2, 1), 1)) == {(1, 1), (2,)}
    assert horizontal_strips_above((), 0) == [()]
    for lam in horizontal_strips_above((3, 2), 3):
        assert is_horizontal_strip(lam, (3, 2))
    for nu in vertical_strips_below((2, 2, 1), 2):
        assert is_vertical_strip((2, 2, 1), nu)


def test_strip_enumeration_is_complete():
    # every enumerator against a brute-force filter of all partitions, also
    # for strips larger than the shape (below) and with no duplicates
    for n in range(8):
        for mu in shapes.partitions_of(n):
            for k in range(6):
                above = list(shapes.partitions_of(n + k))
                below = list(shapes.partitions_of(n - k)) if k <= n else []
                cases = [
                    (horizontal_strips_above,
                     [lam for lam in above
                      if is_horizontal_strip(lam, mu)]),
                    (vertical_strips_above,
                     [lam for lam in above
                      if is_vertical_strip(lam, mu)]),
                    (horizontal_strips_below,
                     [nu for nu in below
                      if is_horizontal_strip(mu, nu)]),
                    (vertical_strips_below,
                     [nu for nu in below
                      if is_vertical_strip(mu, nu)]),
                ]
                for enumerate_strips, want in cases:
                    got = enumerate_strips(mu, k)
                    assert sorted(got) == sorted(want), (
                        enumerate_strips.__name__, mu, k)


def direct_strips_below(lam, size):
    """The strips_below that recursed on its own, kept verbatim as the oracle
    for the star of strips_above."""
    n = len(lam)
    if n == 0:
        return [()] if size == 0 else []
    out = []

    def rec(i, prefix, left):
        if i == n:
            if left == 0:
                out.append(tuple(prefix))
            return
        floor = lam[i + 1] if i + 1 < n else lam[i] - left
        for v in range(max(floor, lam[i] - left), lam[i] + 1):
            rec(i + 1, prefix + [v], left - (lam[i] - v))

    rec(0, [], size)
    return out


def test_strips_below_matches_direct_oracle():
    cases = 0
    for n in range(5):
        for lam in shapes.gen_partitions_box(n, -4, 4):
            for size in range(7):
                got = strips_below(lam, size)
                assert len(set(got)) == len(got), (lam, size)
                assert set(got) == set(direct_strips_below(lam, size)), (
                    lam, size)
                cases += 1
    assert cases == 5005


def test_partitions_of():
    assert sum(1 for _ in shapes.partitions_of(6)) == 11
    assert list(shapes.partitions_of(0)) == [()]
    assert sum(1 for _ in shapes.partitions_of(7, max_length=4)) == 11
    for mu in shapes.partitions_of(5, max_length=2):
        assert len(mu) <= 2 and sum(mu) == 5


def recursive_partitions_of(n, max_length=None, max_part=None):
    """The partitions_of that recursed on its own, kept verbatim as the
    oracle for the reversed walker."""
    if max_length is None:
        max_length = n
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    if max_length <= 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in recursive_partitions_of(n - first, max_length - 1, first):
            yield (first,) + rest


def test_partitions_of_matches_recursive_oracle():
    bounds = [None] + list(range(-1, 14))
    cases = 0
    for n in range(13):
        for max_length in bounds:
            for max_part in bounds:
                assert shapes.partitions_of(n, max_length, max_part) == \
                    list(recursive_partitions_of(n, max_length, max_part)), (
                        n, max_length, max_part)
                cases += 1
    assert cases == 3328


def recursive_sst_fillings(lam, content):
    """The sst_fillings that recursed once per cell, kept verbatim as the
    oracle for the strip chains: yield row fillings of shape lam with the
    given letter multiplicities."""
    lam = normalize(lam)
    m = len(content)
    counts = list(content)

    def rows(r, above):
        if r == len(lam):
            yield []
            return
        width = lam[r]

        def build(c, row, avail):
            if c == width:
                yield tuple(row)
                return
            lo = row[-1] if row else 1
            if above is not None and c < len(above):
                lo = max(lo, above[c] + 1)
            for v in range(lo, m + 1):
                if avail[v - 1] > 0:
                    avail[v - 1] -= 1
                    row.append(v)
                    yield from build(c + 1, row, avail)
                    row.pop()
                    avail[v - 1] += 1

        for row in build(0, [], counts):
            for rest in rows(r + 1, row):
                yield [row] + rest

    yield from rows(0, None)


def chain_rows(chain):
    """The row filling of a chain of strips: row r holds letter i
    chain[i][r] - chain[i-1][r] times."""
    return [tuple(i for i in range(1, len(chain))
                  for _ in range(chain[i][r] - chain[i - 1][r]))
            for r in range(len(chain[0]))]


def test_sst_chains_match_recursive_fillings():
    """Every shape of at most 7 cells against every content of 1-4 letters
    with multiplicities 0-3: equal tableaux where the sizes agree (the
    retired fillings then use every letter), none where they do not."""
    cases = 0
    for n in range(8):
        for lam in shapes.partitions_of(n):
            for m in range(1, 5):
                for content in itertools.product(range(4), repeat=m):
                    got = list(shapes.sst_chains(lam, content))
                    if sum(content) != n:
                        assert got == [], (lam, content)
                        continue
                    assert all(chain[-1] == lam for chain in got)
                    assert sorted(map(chain_rows, got)) == sorted(
                        recursive_sst_fillings(lam, content)), (lam, content)
                    cases += 1
    assert cases == 2062


def test_kostka_foulkes_matches_retired_filling_route():
    """The charge of each retired row filling, read rows bottom to top."""
    for n in range(7):
        for lam in shapes.partitions_of(n):
            for mu in shapes.partitions_of(n):
                want = Counter(
                    shapes.charge([v for row in reversed(filling)
                                   for v in row])
                    for filling in recursive_sst_fillings(lam, mu))
                assert shapes.kostka_foulkes(lam, mu) == dict(want), (lam, mu)


def _gen_grid(n, lo, hi):
    """The box enumerator gen_partitions_box replaced, kept as its oracle:
    the sorted multisets of n entries from [lo, hi]."""
    return [tuple(sorted(c, reverse=True)) for c in
            itertools.combinations_with_replacement(range(lo, hi + 1), n)]


@pytest.mark.parametrize("length", range(4))
def test_gen_partitions_box_matches_grid(length):
    for lo, hi in itertools.combinations_with_replacement(range(-3, 4), 2):
        grid = _gen_grid(length, lo, hi)
        got = list(shapes.gen_partitions_box(length, lo, hi))
        assert len(got) == len(set(got)) and set(got) == set(grid)
        totals = {sum(x) for x in grid}
        for total in totals:
            got = list(shapes.gen_partitions_box(length, lo, hi, total))
            assert len(got) == len(set(got))
            assert set(got) == {x for x in grid if sum(x) == total}
        for total in (min(totals) - 1, max(totals) + 1):
            assert not list(shapes.gen_partitions_box(length, lo, hi, total))


def recursive_gen_partitions_box(length, lo, hi, total=None):
    """The gen_partitions_box that recursed on its own, kept verbatim as the
    oracle for the walker's uniform box."""
    if length == 0:
        if total in (None, 0):
            yield ()
        return

    def rec(i, prefix, acc):
        if i == length:
            if total is None or acc == total:
                yield tuple(prefix)
            return
        cap = hi if not prefix else min(hi, prefix[-1])
        first = lo
        if total is not None:
            # v and the r entries after it, each in [lo, v], must reach total
            r = length - i - 1
            first = max(lo, -((acc - total) // (r + 1)))
            cap = min(cap, total - acc - r * lo)
        for v in range(first, cap + 1):
            yield from rec(i + 1, prefix + [v], acc + v)

    yield from rec(0, [], 0)


def recursive_strips_above(lam, size):
    """The strips_above that recursed on its own, kept verbatim as the
    oracle for the walker over the strip bounds."""
    n = len(lam)
    if n == 0:
        return [()] if size == 0 else []
    out = []

    def rec(i, prefix, left):
        if i == n:
            if left == 0:
                out.append(tuple(prefix))
            return
        base = lam[i]
        cap = (lam[i - 1] if i else lam[0] + left) - base
        for add in range(min(cap, left) + 1):
            rec(i + 1, prefix + [base + add], left - add)

    rec(0, [], size)
    return out


def filtered_horizontal_strips_below(mu, k):
    """The horizontal_strips_below that filtered the strips below mu by sign,
    kept as the oracle for the walker over interlacing bounds.  It read the
    star of strips_above, which the walker now backs, so the recursive
    direct_strips_below stands in for it here."""
    return [normalize(nu) for nu in direct_strips_below(normalize(mu), k)
            if not nu or nu[-1] >= 0]


@st.composite
def _bounded_tuples(draw):
    n = draw(st.integers(0, 4))
    bounds = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    total = draw(st.none() | st.integers(-3 * n - 1, 3 * n + 1))
    return draw(bounds), draw(bounds), total


@given(_bounded_tuples())
@example(((0, 0, 0), (2, 2, 2), 3))
@example(((), (), None))
@example(((), (), 1))
def test_decreasing_tuples_is_the_filtered_product(case):
    lows, highs, total = case
    want = [x for x in itertools.product(
                *(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
            if all(x[i] >= x[i + 1] for i in range(len(x) - 1))
            and (total is None or sum(x) == total)]
    assert list(shapes.decreasing_tuples(lows, highs, total)) == want


def test_gen_partitions_box_matches_recursive_oracle():
    cases = 0
    for length in range(4):
        for lo in range(-3, 2):
            for hi in range(lo - 1, 3):
                for total in [None] + list(range(-6, 7)):
                    got = list(shapes.gen_partitions_box(length, lo, hi,
                                                         total))
                    assert got == list(recursive_gen_partitions_box(
                        length, lo, hi, total)), (length, lo, hi, total)
                    cases += 1
    assert cases == 1400


def test_strips_above_matches_recursive_oracle():
    for n in range(5):
        for lam in shapes.gen_partitions_box(n, -4, 4):
            for size in range(7):
                assert strips_above(lam, size) == \
                    recursive_strips_above(lam, size), (lam, size)


def test_pieri_column_is_the_strip_rule():
    # B(Lambda_lam) (x) B_{(1^a)} has one class B_{(1^k),()} (x)
    # B(Lambda_mu) for each mu/lam a horizontal strip of size a - k, and the
    # dual branch one B_{(),(1^k)} (x) B(Lambda_nu) for each lam/nu; the
    # order is compared too, as the census tests drop a class by position
    cases = 0
    for n in range(5):
        for lam in shapes.gen_partitions_box(n, -3, 3):
            for a in range(6):
                want = {ExtremalClass((1,) * k, (), mu): 1
                        for k in range(a + 1)
                        for mu in strips_above(lam, a - k)}
                assert list(pieri_column(lam, a).items()) == \
                    list(want.items()), (lam, a)
                want = {ExtremalClass((), (1,) * k, nu): 1
                        for k in range(a + 1)
                        for nu in strips_below(lam, a - k)}
                assert list(pieri_column(lam, a, dual=True).items()) == \
                    list(want.items()), (lam, a)
                cases += 2
    assert cases == 3960


def test_horizontal_strips_below_matches_filtered_oracle():
    for n in range(9):
        for mu in shapes.partitions_of(n):
            for k in range(n + 3):
                got = horizontal_strips_below(mu, k)
                assert len(set(got)) == len(got), (mu, k)
                want = filtered_horizontal_strips_below(mu, k)
                assert set(got) == set(want), (mu, k)


def test_mu_star():
    assert shapes.mu_star((2, 1), 3) == (0, -1, -2)
    assert shapes.mu_star((), 2) == (0, 0)
    with pytest.raises(ValueError):
        shapes.mu_star((1, 1, 1), 2)


def test_lr_coefficient_known():
    assert shapes.lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert shapes.lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert shapes.lr_coefficient((2, 2), (1,), (2, 1)) == 1
    assert shapes.lr_coefficient((4,), (2, 1), (1,)) == 0
    assert shapes.lr_coefficient((1,), (), (1,)) == 1
    assert shapes.lr_coefficient((), (), ()) == 1
    assert shapes.lr_coefficient((4, 2), (2,), (3, 1)) == 1


def test_lr_pieri_case():
    rng = random.Random(5)
    for _ in range(40):
        mu = shapes.normalize(tuple(sorted(
            (rng.randrange(4) for _ in range(3)), reverse=True)))
        k = rng.randrange(4)
        for lam in horizontal_strips_above(mu, k):
            assert shapes.lr_coefficient(lam, mu, (k,) if k else ()) == 1
        for lam in vertical_strips_above(mu, k):
            col = (1,) * k
            assert shapes.lr_coefficient(lam, mu, col) == 1


def test_lr_symmetry():
    rng = random.Random(7)
    parts = [mu for n in range(6) for mu in shapes.partitions_of(n)]
    for _ in range(60):
        mu, nu = rng.choice(parts), rng.choice(parts)
        lam = rng.choice(parts)
        assert shapes.lr_coefficient(lam, mu, nu) == \
            shapes.lr_coefficient(lam, nu, mu)


_SMALL_PARTS = [mu for n in range(8) for mu in shapes.partitions_of(n)]
# pairs (mu, nu) with |mu| + |nu| <= 7
_lr_pairs = st.tuples(st.sampled_from(_SMALL_PARTS),
                      st.sampled_from(_SMALL_PARTS)).filter(
    lambda p: sum(p[0]) + sum(p[1]) <= 7)


@given(_lr_pairs)
@example(((2, 1), (2, 1)))
@example(((3, 1), (2,)))
def test_lr_conjugation_symmetry(pair):
    mu, nu = pair
    conj = shapes.conjugate
    for lam in shapes.partitions_of(sum(mu) + sum(nu)):
        assert shapes.lr_coefficient(lam, mu, nu) == \
            shapes.lr_coefficient(conj(lam), conj(mu), conj(nu))


@given(_lr_pairs, st.sampled_from((2, 3)))
@example(((2, 1), (2, 1)), 3)
@example(((1, 1), (1,)), 2)
def test_lr_character_identity(pair, n):
    mu, nu = pair
    total = sum(shapes.lr_coefficient(lam, mu, nu) * shapes.num_sst(lam, n)
                for lam in shapes.partitions_of(sum(mu) + sum(nu)))
    assert total == shapes.num_sst(mu, n) * shapes.num_sst(nu, n)


def test_lr_cauchy_row():
    # character identity in 3 letters: dims of s_mu * s_nu match both sides
    n = 3
    mu, nu = (2, 1), (1, 1)
    total = 0
    for lam in shapes.partitions_of(sum(mu) + sum(nu), max_length=n):
        total += shapes.lr_coefficient(lam, mu, nu) * shapes.num_sst(lam, n)
    assert total == shapes.num_sst(mu, n) * shapes.num_sst(nu, n)


def test_gen_lr_branching():
    assert shapes.gen_lr_coefficient((1, -1), (1,), (-1,)) == 1
    assert shapes.gen_lr_coefficient((1, 0, -1), (1, 0), (-1,)) == 1
    assert shapes.gen_lr_coefficient((2, 1), (2,), (1,)) == 1
    assert shapes.gen_lr_coefficient((0, -1), (1,), (-1,)) == 0
    # shift invariance of the additive-length rule
    lam, mu, nu = (2, 0, -1), (1, -1), (1,)
    base = shapes.gen_lr_coefficient(lam, mu, nu)
    assert base == 1
    for p in range(1, 4):
        assert shapes.gen_lr_coefficient(
            tuple(x + p for x in lam),
            tuple(x + p for x in mu),
            tuple(x + p for x in nu)) == base


def test_gen_lr_equal_length():
    assert shapes.gen_lr_coefficient((1, 0), (1, 0), (0, 0)) == 1
    assert shapes.gen_lr_coefficient((1, -1), (1, 0), (0, -1)) == 1
    assert shapes.gen_lr_coefficient((2, 0), (1, 0), (1, 0)) == 1
    # agrees with the classical number on plain partitions
    rng = random.Random(3)
    parts2 = [mu for n in range(5) for mu in shapes.partitions_of(n,
                                                                  max_length=2)]
    for _ in range(40):
        mu = shapes._pad(rng.choice(parts2), 2)
        nu = shapes._pad(rng.choice(parts2), 2)
        lam = shapes._pad(rng.choice(parts2), 2)
        assert shapes.gen_lr_coefficient(lam, mu, nu) == \
            shapes.lr_coefficient(shapes.normalize(lam), shapes.normalize(mu),
                                  shapes.normalize(nu))


def _star(v):
    return tuple(-x for x in reversed(v))


def _shift(v, c):
    return tuple(x + c for x in v)


def _gen_part(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v, reverse=True)))


def _lr_triples(lengths, lam_length):
    """(lam, mu, nu) with (len(mu), len(nu)) drawn from lengths, lam of
    length lam_length(len(mu), len(nu)) and sum(lam) = sum(mu) + sum(nu),
    so the coefficient is often nonzero."""
    def with_lam(pair):
        mu, nu = pair
        lams = list(shapes.gen_partitions_box(
            lam_length(len(mu), len(nu)), -4, 4, total=sum(mu) + sum(nu)))
        return st.tuples(st.sampled_from(lams), st.just(mu), st.just(nu))

    return lengths.flatmap(
        lambda mn: st.tuples(_gen_part(mn[0]), _gen_part(mn[1]))).flatmap(
        with_lam)


@given(_lr_triples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                   lambda m, n: m + n),
       st.integers(-3, 3))
@example(((1, 0, -1), (1, 0), (-1,)), 2)
@example(((2, 1, 0), (2, 1), (0,)), -1)
def test_gen_lr_additive_star_and_shift(triple, c):
    lam, mu, nu = triple
    base = shapes.gen_lr_coefficient(lam, mu, nu)
    assert shapes.gen_lr_coefficient(_star(lam), _star(mu), _star(nu)) == base
    assert shapes.gen_lr_coefficient(
        _shift(lam, c), _shift(mu, c), _shift(nu, c)) == base


@given(_lr_triples(st.integers(1, 3).map(lambda n: (n, n)),
                   lambda m, n: m),
       st.integers(-3, 3), st.integers(-3, 3))
@example(((1, -1), (1, 0), (0, -1)), 1, -2)
@example(((2, 0), (1, 0), (1, 0)), -1, 3)
def test_gen_lr_equal_length_star_and_shift(triple, a, b):
    lam, mu, nu = triple
    base = shapes.gen_lr_coefficient(lam, mu, nu)
    assert shapes.gen_lr_coefficient(_star(lam), _star(mu), _star(nu)) == base
    assert shapes.gen_lr_coefficient(
        _shift(lam, a + b), _shift(mu, a), _shift(nu, b)) == base


def test_gen_lr_length_error():
    with pytest.raises(ValueError):
        shapes.gen_lr_coefficient((2, 1, 0), (1,), (1,))


def test_charge_basic():
    assert shapes.charge((1, 2)) == 1
    assert shapes.charge((2, 1)) == 0
    assert shapes.charge((1, 1, 2, 2)) == 2
    assert shapes.charge((3, 1, 2)) == 2
    assert shapes.charge((2, 1, 3)) == 1
    assert shapes.charge((1,)) == 0
    assert shapes.charge(()) == 0


def two_pass_charge(word):
    """The retired charge: a cyclic search over (position, letter) pairs
    picks each standard subword, then a second loop reads the indices off
    the picked positions."""
    remaining = list(enumerate(word))
    total = 0
    while remaining:
        picked = []
        picked_idx = set()
        target = 1
        start = len(remaining) - 1
        while True:
            order = itertools.chain(range(start, -1, -1),
                                    range(len(remaining) - 1, start, -1))
            found = None
            for i in order:
                if i not in picked_idx and remaining[i][1] == target:
                    found = i
                    break
            if found is None:
                break
            picked.append(remaining[found][0])
            picked_idx.add(found)
            start = found - 1 if found > 0 else len(remaining) - 1
            target += 1
        positions = picked
        idx = 0
        for r in range(1, len(positions)):
            if positions[r] > positions[r - 1]:
                idx += 1
            total += idx
        remaining = [remaining[i] for i in range(len(remaining))
                     if i not in picked_idx]
    return total


def test_charge_matches_two_pass_oracle():
    """Every distinct nonempty word whose content is a partition of at most
    7."""
    words = 0
    for n in range(1, 8):
        for mu in shapes.partitions_of(n):
            letters = [i for i, m in enumerate(mu, 1) for _ in range(m)]
            for word in set(itertools.permutations(letters)):
                assert shapes.charge(word) == two_pass_charge(word), word
                words += 1
    assert words == 13390


@pytest.mark.parametrize("word", [(1, 3), (1, 2, 2)])
def test_charge_refuses_content_that_is_not_a_partition(word):
    with pytest.raises(ValueError):
        shapes.charge(word)


def test_kostka_foulkes_frozen():
    assert shapes.kostka_foulkes((2,), (1, 1)) == {1: 1}
    assert shapes.kostka_foulkes((2, 1), (1, 1, 1)) == {1: 1, 2: 1}
    assert shapes.kostka_foulkes((2, 2), (1, 1, 1, 1)) == {2: 1, 4: 1}
    assert shapes.kostka_foulkes((3, 1), (2, 1, 1)) == {1: 1, 2: 1}
    assert shapes.kostka_foulkes((2, 1, 1), (1, 1, 1, 1)) == {1: 1, 2: 1, 3: 1}
    assert shapes.kostka_foulkes((4,), (2, 2)) == {2: 1}
    for lam in [(2, 1), (3, 2), (2, 2, 1)]:
        assert shapes.kostka_foulkes(lam, lam) == {0: 1}
    # not dominated: zero polynomial
    assert shapes.kostka_foulkes((1, 1, 1), (2, 1)) == {}


def test_kostka_foulkes_gen_shift():
    assert shapes.kostka_foulkes((3, -1), (1, 1)) == {2: 1}
    assert shapes.kostka_foulkes((2, 0), (1, 1)) == \
        shapes.kostka_foulkes((2,), (1, 1))
    with pytest.raises(ValueError):
        shapes.kostka_foulkes((1, 0, -1), (1,))
    with pytest.raises(ValueError):
        shapes.kostka_foulkes((2, 1), (1, 1))


def test_kostka_at_one_counts_sst():
    # K_{lam mu}(1) is the Kostka number
    assert tpoly_eval(shapes.kostka_foulkes((3, 1), (2, 1, 1)), 1) == 2
    assert tpoly_eval(shapes.kostka_foulkes((2, 2), (1, 1, 1, 1)), 1) == 2


_kostka_pairs = st.sampled_from([
    (lam, mu) for n in range(7) for lam in shapes.partitions_of(n)
    for mu in shapes.partitions_of(n)])


@given(_kostka_pairs)
@example(((6,), (1,) * 6))
@example(((), ()))
def test_kostka_foulkes_specializations(pair):
    """K_{lam mu}(0) is the Kronecker delta, and K_{lam mu}(1) counts the
    tableaux of shape lam and content mu, here found by filtering the free
    enumerator crystal.enumerate_sst by content."""
    lam, mu = pair
    kp = shapes.kostka_foulkes(lam, mu)
    assert tpoly_eval(kp, 0) == (1 if lam == mu else 0)
    content = {i + 1: m for i, m in enumerate(mu)}
    count = sum(1 for t in crystal.enumerate_sst(lam, 1, len(mu))
                if Counter(x for col in t.cols for x in col) == content)
    assert tpoly_eval(kp, 1) == count


def test_tpoly_ops():
    a = {0: 1, 2: 3}
    b = {1: 2, 2: -3}
    assert shapes.lin_add(a, b) == {0: 1, 1: 2}
    assert shapes.tpoly_mul(a, b) == {1: 2, 2: -3, 3: 6, 4: -9}
    assert shapes.tpoly_pairs(shapes.tpoly_mul(a, b)) == \
        [[1, 2], [2, -3], [3, 6], [4, -9]]
    assert shapes.lin_add({}, a, 0) == {}


_coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3))
# few keys, so sums collide and cancel often
_combos = st.dictionaries(st.integers(0, 3), _coeffs).map(
    lambda d: {k: v for k, v in d.items() if v})


@given(_combos, _combos, _coeffs)
@example({0: 1, 1: 2}, {0: 1, 1: 2}, -1)
@example({0: Fraction(1, 2)}, {0: Fraction(1, 4)}, -2)
@example({0: 1}, {1: 5}, 0)
def test_lin_add_matches_counter(a, b, c):
    a_copy, b_copy = dict(a), dict(b)
    acc = Counter(a)
    acc.update({k: c * v for k, v in b.items()})
    # want holds no zero, so equality also checks that none is stored
    want = {k: v for k, v in acc.items() if v}
    bumped = dict(a)
    for k, v in b.items():
        shapes.bump(bumped, k, c * v)
    assert shapes.lin_add(a, b, c) == want and bumped == want
    assert (a, b) == (a_copy, b_copy)
    assert shapes.lin_add({}, a, c) == {k: c * v for k, v in a.items()
                                        if c * v}


@given(st.dictionaries(st.integers(0, 2), _combos.filter(bool)),
       st.lists(st.tuples(st.integers(0, 2), _combos, _coeffs),
                max_size=6))
@example({0: {1: 2}}, [(0, {1: 1}, -2)])
@example({}, [(1, {0: Fraction(1, 3), 2: 1}, 3),
              (1, {0: Fraction(1, 3)}, -3), (1, {2: 1}, -3)])
def test_bump_poly_matches_counter(d, updates):
    stored = list(d.values())
    snapshot = [dict(tp) for tp in stored]
    acc = Counter({(k, e): v for k, tp in d.items() for e, v in tp.items()})
    for key, tp, c in updates:
        shapes.bump_poly(d, key, tp, c)
        acc.update({(key, e): c * v for e, v in tp.items()})
    # want holds no zero and no empty TPoly; equality checks d holds none
    want = {}
    for (k, e), v in acc.items():
        if v:
            want.setdefault(k, {})[e] = v
    assert d == want
    assert stored == snapshot


def test_num_sst():
    assert shapes.num_sst((2, 1), 3) == 8
    assert shapes.num_sst((1,), 5) == 5
    assert shapes.num_sst((1, 1, 1), 2) == 0
    assert shapes.num_sst((), 4) == 1
    # (C^2)^{x3}: 2^3 = sum over lam |- 3 of f^lam * sst count
    assert shapes.num_sst((3,), 2) + 2 * shapes.num_sst((2, 1), 2) == 8
