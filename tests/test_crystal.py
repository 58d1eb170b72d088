import random
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings, strategies as st

from crystal_lr import crystal, shapes, verify
from crystal_lr.crystal import (Tableau, Weight, decompose_components,
                                enumerate_sst, eps, hw_tableau, lower_word,
                                phi, raise_word, tableau_word, weight)
from duality import (dual_word, fundamental_weight, hw_weight, pairing,
                     weight_add, weight_neg, weight_sub)


def w(*letters):
    return tuple((i, False) for i in letters)


def test_letter_tables():
    # plain letter i: plus at color i, minus at color i-1 (as epsilon)
    assert phi(w(1), 1) == 1
    assert eps(w(1), 0) == 1
    assert eps(w(1), 1) == 0
    # dual letter: eps at its own color, phi one below
    assert eps(((1, True),), 1) == 1
    assert phi(((1, True),), 0) == 1


def test_lower_raise_frozen():
    assert lower_word(w(1, 1), 1) == w(2, 1)
    assert lower_word(w(0), 0) == w(1)
    assert lower_word(((1, True),), 0) == ((0, True),)
    assert raise_word(w(1), 0) == w(0)
    assert lower_word(w(2, 1), 1) == ((2, False), (2, False))
    assert lower_word(w(1, 2), 1) is None


def test_raise_lower_inverse():
    rng = random.Random(23)
    for _ in range(200):
        word = tuple((rng.randrange(-3, 4), rng.random() < 0.4)
                     for _ in range(rng.randrange(1, 6)))
        k = rng.randrange(-3, 3)
        down = lower_word(word, k)
        if down is not None:
            assert raise_word(down, k) == word
        up = raise_word(word, k)
        if up is not None:
            assert lower_word(up, k) == word


def test_eps_phi_weight_relation():
    # phi - eps equals the pairing of the weight with h_k
    rng = random.Random(29)
    for _ in range(200):
        word = tuple((rng.randrange(-3, 4), rng.random() < 0.4)
                     for _ in range(rng.randrange(1, 6)))
        k = rng.randrange(-3, 3)
        assert phi(word, k) - eps(word, k) == pairing(weight(word), k)


def test_tensor_rule():
    # eps of a concatenation follows the two-factor rule
    rng = random.Random(31)
    for _ in range(200):
        a = tuple((rng.randrange(-2, 3), rng.random() < 0.4)
                  for _ in range(rng.randrange(0, 4)))
        b = tuple((rng.randrange(-2, 3), rng.random() < 0.4)
                  for _ in range(rng.randrange(0, 4)))
        k = rng.randrange(-2, 2)
        assert eps(a + b, k) == max(eps(a, k),
                                    eps(b, k) - pairing(weight(a), k))
        assert phi(a + b, k) == max(phi(b, k),
                                    phi(a, k) + pairing(weight(b), k))


def test_dual_word():
    rng = random.Random(37)
    for _ in range(200):
        word = tuple((rng.randrange(-2, 3), rng.random() < 0.4)
                     for _ in range(rng.randrange(1, 5)))
        k = rng.randrange(-2, 2)
        assert dual_word(dual_word(word)) == word
        assert weight(dual_word(word)) == weight_neg(weight(word))
        down = lower_word(word, k)
        lifted = raise_word(dual_word(word), k)
        if down is None:
            assert lifted is None
        else:
            assert lifted == dual_word(down)


def test_weights():
    assert fundamental_weight(2) == Weight(1, {1: 1, 2: 1})
    assert fundamental_weight(-1) == Weight(1, {0: -1})
    assert fundamental_weight(0) == Weight(1)
    assert hw_weight((0, 0)) == Weight(2)
    assert hw_weight((1, 0)) == Weight(2, {1: 1})
    assert hw_weight((0, -1)) == Weight(2, {0: -1})
    assert pairing(Weight(1), 0) == 1
    assert pairing(Weight(1), 1) == 0
    assert weight(((2, True),)) == Weight(0, {2: -1})
    assert weight(((2, False),)) == Weight(0, {2: 1})


def _oracle_key(level, counter):
    return level, tuple(sorted((i, c) for i, c in counter.items() if c))


_levels = st.integers(-2, 2)
_maps = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=5)


@given(_levels, _maps, _levels, _maps)
@example(0, {1: 0, 2: 1}, 0, {2: 1})
@example(1, {0: 0}, 1, {})
def test_weight_is_its_nonzero_part(la, a, lb, b):
    # Counter.update and Counter.subtract keep zero and negative entries
    wa, wb = Weight(la, a), Weight(lb, b)
    assert wa.key() == _oracle_key(la, a)
    same = _oracle_key(la, a) == _oracle_key(lb, b)
    assert (wa == wb) == same
    if same:
        assert hash(wa) == hash(wb)
    total = Counter(a)
    total.update(b)
    assert weight_add(wa, wb).key() == _oracle_key(la + lb, total)
    neg = Counter()
    neg.subtract(a)
    assert weight_neg(wa).key() == _oracle_key(-la, neg)
    diff = Counter(a)
    diff.subtract(b)
    assert weight_sub(wa, wb).key() == _oracle_key(la - lb, diff)


def test_weight_refuses_plus():
    # a namedtuple would concatenate, giving a silently wrong 4-tuple key
    w = Weight(1, {1: 2})
    for add in (lambda: w + w, lambda: w + (), lambda: () + w):
        with pytest.raises(TypeError):
            add()


def weyl_reflect(word, k):
    """Simple reflection on a word: apply lowering or raising |<wt,h_k>| times."""
    m = pairing(weight(word), k)
    out = word
    for _ in range(m):
        out = lower_word(out, k)
        assert out is not None
    for _ in range(-m):
        out = raise_word(out, k)
        assert out is not None
    return out


def test_weyl_reflect():
    assert weyl_reflect(w(0), 0) == w(1)
    assert weyl_reflect(w(1), 0) == w(0)
    assert weyl_reflect(w(1, 2), 1) == w(1, 2)
    # involution on a sample
    rng = random.Random(41)
    for _ in range(100):
        word = tuple((rng.randrange(-2, 3), rng.random() < 0.4)
                     for _ in range(rng.randrange(1, 5)))
        k = rng.randrange(-2, 2)
        assert weyl_reflect(weyl_reflect(word, k), k) == word


def test_tableau_word():
    t = Tableau(((1, 2), (1,)))
    assert tableau_word(t) == w(1, 1, 2)
    t2 = Tableau(((1,), (3,)), dual=False)
    assert tableau_word(t2) == w(3, 1)
    assert tableau_word(Tableau(())) == ()
    assert Tableau([[1, 2], range(1, 2)]) == Tableau(((1, 2), (1,)), False)


def test_enumerate_sst_counts():
    for lam, n in [((2, 1), 3), ((2,), 4), ((1, 1, 1), 3), ((2, 2), 3)]:
        got = list(enumerate_sst(lam, 1, n))
        assert len(got) == shapes.num_sst(lam, n)
        assert len(set(got)) == len(got)
        dual = list(enumerate_sst(lam, 1, n, dual=True))
        assert len(dual) == shapes.num_sst(lam, n)
    assert list(enumerate_sst((), 1, 3)) == [Tableau(())]


# The row-based enumerator, reading word and source tableau that column
# storage replaced, kept as the oracle for enumerate_sst, hw_tableau and
# the dual-letter source.
# A tableau here is its tuple of rows of letter indices.

def _row_sst(lam, lo, hi, dual=False):
    lam = shapes.normalize(lam)
    nletters = hi - lo + 1
    if len(lam) > nletters:
        return
    if not lam:
        yield ()
        return

    def rank_to_value(r):
        return hi - r if dual else lo + r

    def rows(r, above):
        if r == len(lam):
            yield ()
            return
        width = lam[r]

        def build(c, row):
            if c == width:
                yield row
                return
            start = row[-1] if row else 0
            if above is not None and c < len(above):
                start = max(start, above[c] + 1)
            for v in range(start, nletters):
                yield from build(c + 1, row + (v,))

        for row in build(0, ()):
            for rest in rows(r + 1, row):
                yield (row,) + rest

    for filling in rows(0, None):
        yield tuple(tuple(rank_to_value(v) for v in row) for row in filling)


def _row_word(rows, dual):
    if not rows:
        return ()
    width = max(len(r) for r in rows)
    out = []
    for c in range(width - 1, -1, -1):
        for r in range(len(rows)):
            if c < len(rows[r]):
                out.append((rows[r][c], dual))
    return tuple(out)


def _row_hw(lam, lo, hi, dual):
    return tuple((hi - r if dual else lo + r,) * width
                 for r, width in enumerate(shapes.normalize(lam)))


def test_columns_match_retired_row_enumerator():
    for size in range(7):
        for lam in shapes.partitions_of(size):
            for lo in (-3, 1):
                for hi in range(lo - 1, lo + 6):
                    for dual in (False, True):
                        got = Counter(tableau_word(t)
                                      for t in enumerate_sst(lam, lo, hi, dual))
                        want = Counter(_row_word(rows, dual)
                                       for rows in _row_sst(lam, lo, hi, dual))
                        assert got == want, (lam, lo, hi, dual)
                        if len(lam) > hi - lo + 1:
                            continue
                        hw = _row_word(_row_hw(lam, lo, hi, dual), dual)
                        if dual:
                            assert [tableau_word(t) for t in _dual_sources(
                                lam, lo, hi)] == [hw]
                        else:
                            assert tableau_word(hw_tableau(
                                lam, lo, hi)) == hw


def test_sst_is_single_component():
    lam, lo, hi = (2, 1), 1, 3
    words = [tableau_word(t) for t in enumerate_sst(lam, lo, hi)]
    comps = decompose_components(words, range(lo, hi))
    hw = weight(tableau_word(hw_tableau(lam, lo, hi)))
    assert comps == {(hw, shapes.num_sst(lam, hi - lo + 1)): 1}
    assert hw == Weight(0, {1: 2, 2: 1})


def _dual_sources(lam, lo, hi):
    """The dual-letter tableaux of shape lam over [lo, hi] with eps 0 at
    every color: the sources that the census reaches for a leading Bdual
    factor."""
    return [t for t in enumerate_sst(lam, lo, hi, dual=True)
            if all(eps(tableau_word(t), k) == 0 for k in range(lo, hi))]


def test_hw_tableau_is_source():
    for lam in [(2, 1), (3,), (2, 2, 1)]:
        word = tableau_word(hw_tableau(lam, 0, 4))
        assert all(raise_word(word, k) is None for k in range(0, 4))
        # the dual-letter source is unique, and each column reads 4, 3, ...
        (source,) = _dual_sources(lam, 0, 4)
        word = tableau_word(source)
        assert all(raise_word(word, k) is None for k in range(0, 4))
        assert source.cols == tuple(tuple(range(4, 4 - h, -1))
                                    for h in shapes.conjugate(lam))


def test_decompose_products_match_lr():
    lo, hi = 1, 4
    n = hi - lo + 1
    for mu, nu in [((1,), (1,)), ((2,), (1, 1)), ((2, 1), (1,))]:
        words_mu = [tableau_word(t) for t in enumerate_sst(mu, lo, hi)]
        words_nu = [tableau_word(t) for t in enumerate_sst(nu, lo, hi)]
        prod = [a + b for a in words_mu for b in words_nu]
        comps = decompose_components(prod, range(lo, hi))
        census = {}
        for lam in shapes.partitions_of(sum(mu) + sum(nu), max_length=n):
            c = shapes.lr_coefficient(lam, mu, nu)
            if c:
                hw = weight(tableau_word(hw_tableau(lam, lo, hi)))
                census[(hw, shapes.num_sst(lam, n))] = c
        assert comps == census


def test_decompose_not_closed():
    words = [tableau_word(t) for t in enumerate_sst((1,), 1, 3)]
    with pytest.raises(ValueError, match="set not closed under color"):
        decompose_components(words[:-1], range(1, 3))


# mixed words over the letters of colors -1..6: each color meets plus and
# minus letters of both families
_mixed_words = st.lists(st.tuples(st.integers(-1, 7), st.booleans()),
                        max_size=10).map(tuple)


def _check_word_step(step):
    """Checks step against the per-color operators, its oracle."""
    @settings(database=None)
    @given(_mixed_words, st.integers(-1, 6))
    @example(((1, False), (1, False)), 1)  # two surviving + at color 1
    def check(word, k):
        assert step(word, k) == (raise_word(word, k), lower_word(word, k))
    check()


def _word_step(word, k):
    """(raise_word(word, k), lower_word(word, k)) from one signature: the
    oracle of the byte-coded steps of decompose_components."""
    minus, plus = crystal._signature(word, k)
    return (crystal._move(word, minus[-1], -1) if minus else None,
            crystal._move(word, plus[0], 1) if plus else None)


def _step_lowering_last_plus(word, k):
    """A mutant of _word_step: lowers at the last surviving + instead of
    the first."""
    minus, plus = crystal._signature(word, k)
    return (crystal._move(word, minus[-1], -1) if minus else None,
            crystal._move(word, plus[-1], 1) if plus else None)


def test_word_step_matches_operators():
    _check_word_step(_word_step)


def test_word_step_check_catches_mutant():
    with pytest.raises(AssertionError):
        _check_word_step(_step_lowering_last_plus)


def _encode(word, lo):
    """The byte code of a word: letter (i, dual) is byte 2(i - lo) + dual."""
    return None if word is None else bytes(2 * (i - lo) + d for i, d in word)


def _decode(code, lo):
    return None if code is None else tuple(
        (lo + c // 2, bool(c & 1)) for c in code)


def test_byte_step_matches_word_step():
    # letters in [-2, 5], coded from one letter below; the codes reach one
    # letter past each side, where a move out of the letters lands
    rng = random.Random(32)
    lo, n = -3, 2 * 10
    steps = {k: crystal._byte_step(lo, n, k) for k in range(-1, 7)}
    moved_out = 0
    for _ in range(3000):
        word = tuple((rng.randint(-2, 5), rng.random() < 0.5)
                     for _ in range(rng.randint(0, 10)))
        for k, step in steps.items():
            want = _word_step(word, k)
            assert step(_encode(word, lo)) == tuple(
                _encode(x, lo) for x in want)
            moved_out += any(x and {i for i, _ in x} - set(range(-2, 6))
                             for x in want)
    assert moved_out


def _chain_step(block):
    """A components step on ints: lowering x + 1 and raising x - 1 inside
    each run of `block` ints from a multiple of block."""
    def step(x):
        return (x - 1 if x % block else None,
                x + 1 if (x + 1) % block else None)
    return step


def test_components_contract():
    decoded = []

    def decode(x):
        decoded.append(x)
        return "n%d" % x

    # two chains of five under one color, yielded in the order of their
    # first nodes, and each decoded once, at its source
    walk = crystal.components([7, 3] + list(range(10)),
                              [(1, _chain_step(5))], decode)
    assert list(walk) == [("n5", 5), ("n0", 5)]
    assert decoded == [5, 0]
    # lowering 1 leaves the set: the refusal names the color and the
    # decoded node
    with pytest.raises(ValueError) as exc:
        list(crystal.components([0, 1, 3, 4], [(-1, _chain_step(5))], decode))
    assert str(exc.value) == "set not closed under color -1 at 'n1'"
    # 1 is lowered from 0 by one step and from 2 by the other, so its
    # component has two sources; both steps share color 0, which a list of
    # pairs keeps apart
    steps = [(0, lambda x: (x - 1 if x == 1 else None,
                            1 if x == 0 else None)),
             (0, lambda x: (2 if x == 1 else None, 1 if x == 2 else None))]
    with pytest.raises(ValueError, match="^component with 2 sources$"):
        list(crystal.components([0, 1, 2], steps, decode))


def test_decompose_dual_and_empty_words():
    # the words of (1) over [1, 3] and its dual letters, one component each
    words = [tableau_word(t) for t in enumerate_sst((1,), 1, 3)]
    duals = [tableau_word(t) for t in enumerate_sst((1,), 1, 3, dual=True)]
    assert decompose_components(words, range(1, 3)) == {
        (Weight(0, {1: 1}), 3): 1}
    assert decompose_components(duals, range(1, 3)) == {
        (Weight(0, {3: -1}), 3): 1}
    assert decompose_components([()], range(1, 3)) == {(Weight(0), 1): 1}
    assert decompose_components([], range(1, 3)) == Counter()
    # codes past a byte are refused
    with pytest.raises(ValueError, match="bytes must be in range"):
        decompose_components([w(0, 200)], [0])


def _byte_step_lowering_last_plus(lo, n, k):
    """A mutant of crystal._byte_step, read off _step_lowering_last_plus."""
    def step(code):
        return tuple(_encode(x, lo) for x in _step_lowering_last_plus(
            _decode(code, lo), k))
    return step


def test_extremal_catches_byte_step_mutant(monkeypatch):
    monkeypatch.setattr(crystal, "_byte_step", _byte_step_lowering_last_plus)
    checks = verify.SUITES["extremal"]({"seed": 0, "quick": True})
    (oracle,) = [c for c in checks if c["name"] == "lr-oracle"]
    assert oracle["status"] == "fail"
    # mu = () passes with nu = () and (1); with nu = (2) the mutant lowers
    # the word 1 1 at its last letter, to 1 2, which no tableau reads
    assert oracle["count"] == 3
    # the refusal names the word, decoded as the sources are
    assert oracle["counterexample"]["error"] == (
        "ValueError: set not closed under color 1 at "
        "((1, False), (1, False))")


def is_equivalent(b1, b2, colors, max_nodes=200000):
    """Parallel traversal isomorphism test for the components of two words."""
    colors = list(colors)
    if weight(b1) != weight(b2):
        return False
    fwd = {b1: b2}
    queue = deque([b1])
    while queue:
        if len(fwd) > max_nodes:
            raise RuntimeError("component too large")
        u = queue.popleft()
        v = fwd[u]
        for k in colors:
            if eps(u, k) != eps(v, k) or phi(u, k) != phi(v, k):
                return False
            for step in (raise_word, lower_word):
                nu, nv = step(u, k), step(v, k)
                if (nu is None) != (nv is None):
                    return False
                if nu is None:
                    continue
                if nu in fwd:
                    if fwd[nu] != nv:
                        return False
                else:
                    fwd[nu] = nv
                    queue.append(nu)
    return True


def test_is_equivalent():
    lo, hi = 1, 3
    a = [tableau_word(t) for t in enumerate_sst((2, 1), lo, hi)]
    # two copies of the same component embedded differently: pad with a
    # frozen spectator letter on opposite sides
    left = [((9, False),) + x for x in a]
    right = [x + ((9, False),) for x in a]
    assert is_equivalent(left[0], right[0], range(lo, hi))
    assert not is_equivalent(a[0], a[1], range(lo, hi)) or a[0] == a[1]
    assert not is_equivalent(
        tableau_word(hw_tableau((2,), lo, hi)),
        tableau_word(hw_tableau((1, 1), lo, hi)), range(lo, hi))
