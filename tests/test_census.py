"""The windowed source census of verify_truncated against an oracle that
enumerates every factor in full, the eps-bounded enumeration it walks and
the retired signature-count walker as the oracle of its content rule, its
irreducibility and size-refusal invariants, windows away from the origin,
the two-factor grid where the census is exact, mutated predictions it must
reject, the retired recursive walk and two-branch factor shapes as oracles
of the fold and of the one highest weight reading, and the window-edge
over-count that is still open."""

import inspect
import random
import textwrap
from collections import Counter

import pytest

from crystal_lr import crystal, lr_engine, shapes
from crystal_lr.lr_engine import (ExtremalClass, pieri_column,
                                  verify_truncated)
from duality import dual_word, weight_add


# ---------------------------------------------------------------- oracle

def _realize_factor(fac, lo, hi):
    """Word list, level and per-letter shift for one tensor factor restricted
    to the letters [lo, hi]."""
    shape, level, dual, shift = lr_engine._factor_shape(fac, lo, hi)
    words = []
    for t in crystal.enumerate_sst(shape, lo, hi, dual):
        words.append(crystal.tableau_word(t))
        if len(words) > lr_engine._WORD_CAP:
            raise lr_engine._TooLarge(shape, lo, hi)
    return words, level, shift


def _census_key(wt, level, shift, lo, hi):
    """Census key (level, content over lo..hi less the shift) of a source
    whose word has the weight wt."""
    eps = dict(wt.eps)
    return level, tuple(eps.get(j, 0) - shift for j in range(lo, hi + 1))


def _rows_per_color(words, lo, hi):
    """Per-word (eps vector, phi vector, weight) over the colors lo..hi-1."""
    colors = range(lo, hi)
    return [(tuple(crystal.eps(w, k) for k in colors),
             tuple(crystal.phi(w, k) for k in colors), crystal.weight(w))
            for w in words]


def enumerated_census(factors, lo, hi):
    """The census that realizes every factor in full, the leading one
    included, finds the leading factor's sources among all its words with
    per-color eps/phi, and walks the same tensor product rule."""
    realized = [_realize_factor(f, lo, hi) for f in factors]
    tables = [_rows_per_color(words, lo, hi) for words, _, _ in realized]
    level = sum(lev for _, lev, _ in realized)
    shift = sum(s for _, _, s in realized)
    sources = [r for r in tables[0] if not any(r[0])]
    assert len(sources) == 1, "factor is not irreducible"
    out = Counter()

    def walk(i, phis, wt):
        if i == len(tables):
            out[_census_key(wt, level, shift, lo, hi)] += 1
            return
        for evec, pvec, w in tables[i]:
            if all(e <= p for e, p in zip(evec, phis)):
                walk(i + 1, tuple(p - e + q
                                  for e, p, q in zip(evec, phis, pvec)),
                     weight_add(wt, w))

    _, phi0, wt0 = sources[0]
    walk(1, phi0, wt0)
    return out


def _both(factors, lo, hi):
    """(census or exception text) by the source route and by the oracle."""
    factors = [lr_engine._factor_norm(f) for f in factors]
    out = []
    for census in (lr_engine._window_census, enumerated_census):
        try:
            out.append(census(factors, lo, hi))
        except (lr_engine._WindowTooSmall, lr_engine._TooLarge) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


FIXED = [
    [("B", (0,)), ("Bcol", 2)],
    [("B", (1, 0)), ("Bmn", (), (1,))],
    [("B", (1, -1)), ("Bmn", (1,), (1,))],
    # leading Bdual
    [("Bdual", (0,)), ("Bcol", 1)],
    [("Bdual", (1,)), ("B", (0,))],
    [("Bdual", (1, 0)), ("Bmn", (1,), ())],
    [("Bdual", (0,)), ("Bdual", (0,))],
    # three factors
    [("B", (0,)), ("Bcol", 1), ("Bmn", (), (1,))],
    [("B", (1,)), ("B", (0,)), ("Bdual", (0,))],
    [("Bdual", (0,)), ("B", (0,)), ("Bcol", 1)],
    # level-zero prefix
    [("Bmn", (1,), ()), ("B", (0,))],
    [("Bmn", (), (1,)), ("B", (0,)), ("B", (0,))],
    [("Bcol", 2), ("Bmn", (1,), (1,)), ("B", (-1,))],
    [("Bmn", (2,), (1,)), ("B", (1, 0))],
]


@pytest.mark.parametrize("factors", FIXED)
@pytest.mark.parametrize("window", [(-2, 2), (-2, 1), (-1, 3)])
def test_source_census_matches_enumeration(factors, window):
    new, old = _both(factors, *window)
    assert new == old


def _random_factor(rng):
    kind = rng.choice(["B", "Bdual", "Bmn", "Bcol"])
    if kind == "Bcol":
        return ("Bcol", rng.randrange(0, 3))
    if kind == "Bmn":
        return ("Bmn", rng.choice([(), (1,), (2,), (1, 1)]),
                rng.choice([(), (1,), (1, 1)]))
    n = rng.randrange(1, 3)
    return (kind, tuple(sorted((rng.randrange(-1, 2) for _ in range(n)),
                               reverse=True)))


def test_source_census_matches_enumeration_random():
    rng = random.Random(7)
    censuses = 0
    for _ in range(200):
        factors = [_random_factor(rng) for _ in range(rng.randrange(1, 4))]
        lo = rng.randrange(-8, 5)
        hi = lo + rng.randrange(0, 7)
        new, old = _both(factors, lo, hi)
        assert new == old, (factors, lo, hi)
        censuses += isinstance(new, Counter)
    assert censuses > 60


# ---------------------------------------------------------------- pruning

def _bounds(ncolors, rng):
    yield (0,) * ncolors
    yield (1,) * ncolors
    for _ in range(4):
        yield tuple(rng.randrange(0, 3) for _ in range(ncolors))


def _content(bounds, base):
    """The weakly decreasing content over the letters whose differences
    c_k - c_{k+1} are the bounds, ending at base."""
    out = [base]
    for b in reversed(bounds):
        out.append(out[-1] + b)
    return tuple(reversed(out))


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("lo, hi", [(-1, 1), (-2, 2), (0, 5), (2, 5)])
def test_bounded_enumeration_is_the_filtered_enumeration(dual, lo, hi):
    # only the differences of the content bound: it ends at lo, so its base
    # is nonzero off the origin
    rng = random.Random(hi - lo)
    colors = range(lo, hi)
    pruned = 0
    for size in range(7):
        for shape in shapes.partitions_of(size):
            full = list(crystal.enumerate_sst(shape, lo, hi, dual))
            words = [crystal.tableau_word(t) for t in full]
            for p in _bounds(len(colors), rng):
                want = [t for t, w in zip(full, words)
                        if all(crystal.eps(w, k) <= b
                               for k, b in zip(colors, p))]
                got = list(crystal.enumerate_sst(shape, lo, hi, dual,
                                                 content=_content(p, lo)))
                assert got == want, (shape, p)
                pruned += len(full) - len(got)
    assert pruned


def retired_enumerate_sst(lam, lo, hi, dual=False, phi=None):
    """The walker that the running content of enumerate_sst replaced: it
    carries per-color counts of unmatched pluses and minuses letter by
    letter, and bounds each color's unmatched minus count by phi (over the
    colors lo..hi-1), or by a cap no word of the shape reaches."""
    lam = shapes.normalize(lam)
    n = hi - lo + 1
    if len(lam) > n:
        return
    heights = shapes.conjugate(lam)
    letter = [hi - r if dual else lo + r for r in range(n)]

    # slot c + 1 - lo holds color c, so the letters' colors lo-1 and hi get
    # slots 0 and n
    free = sum(lam) + 1
    cap = (free,) * (n + 1) if phi is None else (free,) + tuple(phi) + (free,)
    p, m = crystal._colors((1 - lo, dual))
    slots = [(p + i, m + i) for i in letter]
    plus = [0] * (n + 1)
    minus = [0] * (n + 1)

    def columns(h, bound, col=(), r=0):
        i = len(col)
        if i == h:
            yield col
            return
        top = n - h + i
        if i < len(bound):
            top = min(top, bound[i])
        for x in range(r, top + 1):
            p, m = slots[x]
            plus[p] += 1
            if plus[m]:
                plus[m] -= 1
                yield from columns(h, bound, col + (x,), x + 1)
                plus[m] += 1
            else:
                minus[m] += 1
                if minus[m] <= cap[m]:
                    yield from columns(h, bound, col + (x,), x + 1)
                minus[m] -= 1
            plus[p] -= 1

    def fill(j, right, done):
        if j < 0:
            yield crystal.Tableau(done, dual)
            return
        for ranks in columns(heights[j], right):
            col = tuple(letter[x] for x in ranks)
            yield from fill(j - 1, ranks, (col,) + done)

    yield from fill(len(heights) - 1, (), ())


def _walker_cases():
    """(shape, lo, hi, dual, content) for every shape of at most 6 cells,
    windows of 1 to 6 letters from lo in {-3, 0, 2} and both alphabets, with
    no content, a constant one (every bound 0) and two seeded weakly
    decreasing ones."""
    rng = random.Random(38)
    for size in range(7):
        for shape in shapes.partitions_of(size):
            for lo in (-3, 0, 2):
                for n in range(1, 7):
                    for dual in (False, True):
                        contents = [None, (0,) * n] + [
                            tuple(sorted((rng.randrange(-2, 3)
                                          for _ in range(n)), reverse=True))
                            for _ in range(2)]
                        for c in contents:
                            yield shape, lo, lo + n - 1, dual, c


def _walker_differences():
    """The cases where crystal.enumerate_sst and the retired walker yield
    different tableau sequences, order included; a ValueError raised by
    enumerate_sst counts as a difference."""
    out = []
    for shape, lo, hi, dual, c in _walker_cases():
        phi = None if c is None else tuple(
            c[j] - c[j + 1] for j in range(len(c) - 1))
        try:
            got = list(crystal.enumerate_sst(shape, lo, hi, dual, content=c))
        except ValueError as err:
            got = err
        if got != list(retired_enumerate_sst(shape, lo, hi, dual, phi)):
            out.append((shape, lo, hi, dual, c))
    return out


def test_content_walker_matches_retired_walker():
    assert sum(1 for _ in _walker_cases()) == 4320
    assert _walker_differences() == []


def _mutated(fn, old, new):
    """fn recompiled in its own module's globals with old replaced by new
    in its source."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, old
    namespace = dict(fn.__globals__)
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"),
         namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize("old, new", [
    # a tie is allowed: an equal load is still weakly decreasing
    ("load[x] <= load[x - 1]", "load[x] < load[x - 1]"),
    # dual letters read the content in reverse rank order
    ("[-c for c in reversed(content)]", "[-c for c in content]"),
])
def test_retired_walker_catches_a_mutated_content_rule(monkeypatch, old, new):
    monkeypatch.setattr(crystal, "enumerate_sst",
                        _mutated(crystal.enumerate_sst, old, new))
    assert _walker_differences()


@pytest.mark.parametrize("lam, lo, hi, dual, content", [
    # too short: the walk indexed past its end
    ((1, 1), 1, 2, False, (0,)),
    # too long, on dual letters: reversed, the extra entry shifted the rest
    ((1,), 1, 2, True, (5, 0, 0)),
])
def test_content_of_the_wrong_length_is_refused(lam, lo, hi, dual, content):
    msg = r"content of length %d for the 2 letters 1\.\.2" % len(content)
    with pytest.raises(ValueError, match=msg):
        next(crystal.enumerate_sst(lam, lo, hi, dual, content=content))


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("lam", [(1,), (1, 1, 1)])
def test_content_that_is_not_weakly_decreasing_is_refused(lam, dual):
    # (0, 5) yielded ((1,),) on plain letters and ((2,),) on dual ones; a
    # shape too tall for the letters is refused too, not answered empty
    with pytest.raises(ValueError, match=r"^content \(0, 5\) is not weakly "
                       r"decreasing$"):
        next(crystal.enumerate_sst(lam, 1, 2, dual, content=(0, 5)))


# ---------------------------------------------------------------- sources

GRID = ([("B", lam) for lam in [(0,), (1,), (-1,), (1, 0), (0, 0), (1, -1),
                                (2, 0, -1)]]
        + [("Bdual", lam) for lam in [(0,), (1,), (1, 0), (0, -1)]]
        + [("Bcol", a) for a in range(4)]
        + [("Bmn", mu, nu) for mu, nu in [((), ()), ((1,), ()), ((), (2,)),
                                          ((2, 1), (1,)), ((1, 1), (1, 1))]])


@pytest.mark.parametrize("fac", GRID, ids=repr)
def test_factor_source_is_unique_and_computed(fac):
    # enumerated from a constant content (every bound 0), each factor must
    # yield exactly the zero-eps rows of its full table, one of them
    fac = lr_engine._factor_norm(fac)
    checked = 0
    for nletters in range(3, 7):
        for lo in (-3, -2, -1):
            hi = lo + nletters - 1
            try:
                words, level, shift = _realize_factor(fac, lo, hi)
            except lr_engine._WindowTooSmall:
                continue
            sources = [r for r in _rows_per_color(words, lo, hi)
                       if not any(r[0])]
            assert len(sources) == 1
            shape, _, dual, _ = lr_engine._factor_shape(fac, lo, hi)
            yielded = [crystal.tableau_word(t) for t in crystal.enumerate_sst(
                shape, lo, hi, dual, content=(0,) * (hi - lo + 1))]
            assert _rows_per_color(yielded, lo, hi) == sources
            assert lr_engine._window_census([fac], lo, hi) == Counter(
                {_census_key(sources[0][2], level, shift, lo, hi): 1})
            checked += 1
    assert checked


def test_census_starts_from_the_trivial_crystal():
    assert lr_engine._window_census([], -2, 2) == Counter({(0, (0,) * 5): 1})
    rep = verify_truncated([], (-2, 2), {ExtremalClass(): 1})
    assert rep["status"] == "ok" and not rep["retried"]


@pytest.mark.parametrize("nletters", range(1, 6))
def test_dual_letter_tableaux_realize_the_dual_crystal(nletters):
    # a Bdual factor is enumerated on dual letters; the census reads only
    # each word's (eps, phi, weight) row, and those rows must be the ones of
    # dual_word over the plain tableaux
    lo, hi = -1, nletters - 2

    def rows(words):
        return Counter((e, p, wt.key())
                       for e, p, wt in _rows_per_color(words, lo, hi))

    checked = 0
    for size in range(7):
        for shape in shapes.partitions_of(size, max_length=nletters):
            plain = [crystal.tableau_word(t)
                     for t in crystal.enumerate_sst(shape, lo, hi)]
            dual = [crystal.tableau_word(t)
                    for t in crystal.enumerate_sst(shape, lo, hi, dual=True)]
            assert rows(dual) == rows(dual_word(w) for w in plain), (
                shape, lo, hi)
            checked += 1
    assert checked > 5


# ---------------------------------------------------------------- size cap

@pytest.mark.parametrize("cap", [5, 10, 12, 40])
def test_word_cap_refusal_unchanged(monkeypatch, cap):
    monkeypatch.setattr(lr_engine, "_WORD_CAP", cap)
    cases = [
        ([("B", (0,)), ("Bcol", 1)], (-2, 2), pieri_column((0,), 1)),
        # a dropped class widens the window until the cap stops it
        ([("B", (0,)), ("Bcol", 2)], (-2, 2),
         dict(list(pieri_column((0,), 2).items())[1:])),
        ([("Bdual", (0,)), ("B", (0,))], (-2, 2), {}),
        ([("B", (1,)), ("Bmn", (), (1,))], (-1, 1),
         dict(list(pieri_column((1,), 1, True).items())[1:])),
        # here the later factor outgrows the cap before the leading one
        ([("B", (2,)), ("Bcol", 2)], (-2, 2),
         dict(list(pieri_column((2,), 2).items())[:-1])),
    ]
    for factors, window, predicted in cases:
        new = verify_truncated(factors, window, predicted)
        with monkeypatch.context() as m:
            m.setattr(lr_engine, "_window_census", enumerated_census)
            old = verify_truncated(factors, window, predicted)
        assert new == old


def test_word_cap_refusal_trips_on_leading_factor(monkeypatch):
    monkeypatch.setattr(lr_engine, "_WORD_CAP", 20)
    rep = verify_truncated([("B", (0,)), ("Bcol", 2)], (-2, 2),
                           dict(list(pieri_column((0,), 2).items())[1:]))
    # (1^3) over 5 letters has 10 tableaux, (1^4) over 7 has 35
    assert rep["status"] == "mismatch" and rep["window"] == [-2, 2]


def test_retried_means_a_wider_window_was_attempted(monkeypatch):
    # the size cap stops the first window, so nothing wider was tried
    with monkeypatch.context() as m:
        m.setattr(lr_engine, "_WORD_CAP", 2)
        rep = verify_truncated([("B", (0,)), ("Bcol", 2)], (-3, 3),
                               pieri_column((0,), 2))
    assert rep["status"] == "window-too-small" and rep["retried"] is False
    # B(Lambda_20) fits no window around [-1, 1]; every wider one was tried
    rep = verify_truncated([("B", (20,)), ("Bcol", 1)], (-1, 1),
                           pieri_column((20,), 1))
    assert rep["status"] == "window-too-small" and rep["retried"] is True


@pytest.mark.parametrize("factors", [[("Bmn", (), ())],
                                     [("B", (0,)), ("Bcol", 1)]])
def test_inverted_window_is_refused(factors):
    # attempted as given, these reported window-too-small ("needs 0
    # letters") and a mismatch at [0, 0]; a one-letter window stays valid
    with pytest.raises(ValueError, match=r"window \[3, -3\]"):
        verify_truncated(factors, (3, -3), {})
    assert verify_truncated(factors, (0, 0), {})["status"] == "mismatch"


# ---------------------------------------------------------------- fit rule

@pytest.mark.parametrize("mu, nu, hw, why", [
    # window [-1, 2]: hw entries in [lo-1, hi] = [-2, 2], l(mu)+l(nu) <= 4
    ((), (), (-2,), None),
    ((), (), (2,), None),
    ((), (), (-3,), "B(Lambda_(-3,)) needs letters down to -2"),
    ((), (), (3,), "B(Lambda_(3,)) needs letters up to 3"),
    ((1, 1), (1, 1), (), None),
    ((1, 1, 1), (1, 1), (), "B_{(1, 1, 1),(1, 1)} needs 5 letters"),
])
def test_fit_rule_boundaries(mu, nu, hw, why):
    lo, hi = -1, 2
    facs = ([("Bmn", mu, nu)] if not hw
            else [("B", hw), ("Bdual", hw)])
    for fac in facs:
        if why is None:
            lr_engine._factor_shape(fac, lo, hi)
        else:
            with pytest.raises(lr_engine._WindowTooSmall) as exc:
                lr_engine._factor_shape(fac, lo, hi)
            assert str(exc.value) == why
    key = lr_engine._class_census(ExtremalClass(mu, nu, hw), lo, hi)
    assert (key is None) == (why is not None)


# ---------------------------------------------------------------- off origin

_LEVEL_ONE = {ExtremalClass((1,) * (a + 1), (1,) * a): 1 for a in range(4)}


@pytest.mark.parametrize("factors, window, predicted", [
    ([("B", (20,))], (19, 21), {ExtremalClass(hw=(20,)): 1}),
    ([("B", (-20,))], (-21, -19), {ExtremalClass(hw=(-20,)): 1}),
    ([("B", (9,)), ("Bcol", 1)], (8, 10), pieri_column((9,), 1)),
    # a Bmn after the highest weight factor (its nu gives a shift), and one
    # before it
    ([("B", (9,)), ("Bmn", (), (1,))], (8, 10), pieri_column((9,), 1, True)),
    ([("Bmn", (1,), ()), ("B", (9,))], (8, 10),
     {ExtremalClass((1,), (), (9,)): 1}),
    # the level-one family of the pieri suite, translated off the origin
    ([("B", (10,)), ("Bdual", (9,))], (5, 13), _LEVEL_ONE),
    ([("B", (-8,)), ("Bdual", (-9,))], (-13, -5), _LEVEL_ONE),
])
def test_windows_away_from_the_origin_are_exact(factors, window, predicted):
    # every factor and class sits on the vacuum of the window's own lower
    # edge, so a window that fits is exact wherever it lies
    rep = verify_truncated(factors, window, predicted)
    assert rep["status"] == "ok" and rep["retried"] is False, rep


def test_dropped_class_away_from_the_origin_is_a_mismatch():
    # B(Lambda_2) (x) B_{(1)} = B_{(1)} (x) B(Lambda_2) + B(Lambda_3)
    rep = verify_truncated([("B", (2,)), ("Bcol", 1)], (2, 4),
                           {ExtremalClass((1,), (), (2,)): 1})
    assert rep["status"] == "mismatch", rep


# ---------------------------------------------------------------- exact grid

def _two_factor_misses():
    """The products B(Lambda_lam) (x) B_{mu,nu} and B_{mu,nu} (x)
    B(Lambda_lam) whose expr_decompose prediction the census does not pass,
    for 1 <= l(lam) <= 2 with entries in [-1, 1] and mu or nu nonempty with
    |mu| + |nu| <= 2."""
    legs = [(mu, nu) for size in (1, 2) for i in range(size + 1)
            for mu in shapes.partitions_of(i)
            for nu in shapes.partitions_of(size - i)]
    products = [f for n in (1, 2)
                for lam in shapes.gen_partitions_box(n, -1, 1)
                for mu, nu in legs
                for f in ([("B", lam), ("Bmn", mu, nu)],
                          [("Bmn", mu, nu), ("B", lam)])]
    assert len(products) == 126
    return [f for f in products
            if verify_truncated(f, (-3, 3), lr_engine.expr_decompose(
                f, (-9, 9)))["status"] != "ok"]


def test_two_factor_grid_is_exact():
    # both legs of hw_past_level0 and both of its empty-leg shortcuts, each
    # checked by the census
    assert _two_factor_misses() == []


def test_two_factor_grid_catches_a_dropped_class(monkeypatch):
    past = lr_engine.hw_past_level0

    def dropped(lam, mu, nu):
        return dict(list(past(lam, mu, nu).items())[1:])

    monkeypatch.setattr(lr_engine, "hw_past_level0", dropped)
    assert _two_factor_misses()


# ---------------------------------------------------------------- mutants

def _mutants(lam, a, dual):
    full = pieri_column(lam, a, dual)
    first = next(iter(full))
    dropped = {c: m for c, m in full.items() if c != first}
    return {"drop": dropped, "double": {**full, first: 2}}


@pytest.mark.parametrize("factors, lam, a, dual, windows", [
    ([("B", (0,)), ("Bcol", 2)], (0,), 2, False,
     {"drop": [-9, 9], "double": [-10, 10]}),
    ([("B", (1, 0)), ("Bmn", (), (1,))], (1, 0), 1, True,
     {"drop": [-5, 5], "double": [-5, 5]}),
])
def test_mutated_pieri_prediction_is_a_mismatch(factors, lam, a, dual,
                                                windows):
    assert verify_truncated(factors, (-3, 3), pieri_column(lam, a, dual))[
        "status"] == "ok"
    for kind, predicted in _mutants(lam, a, dual).items():
        rep = verify_truncated(factors, (-3, 3), predicted)
        assert rep["status"] == "mismatch", kind
        assert rep["window"] == windows[kind], kind
        assert rep["discrepancies"], kind


# ---------------------------------------------------------------- retired

def retired_factor_shape(fac, lo, hi):
    """The two hand-written branches that _factor_shape had before it read
    each shape off _class_census: B(Lambda_lam) as the conjugate of
    lam - (lo-1), B_{mu,nu} as (mu, 0...0, -reverse(nu)) plus nu_1."""
    mu, nu, lam = lr_engine._triple(fac)
    why = lr_engine._misfit(mu, nu, lam, lo, hi)
    if why:
        raise lr_engine._WindowTooSmall(why)
    if lam:
        shape = shapes.conjugate(tuple(x - lo + 1 for x in lam))
        dual = fac[0] == "Bdual"
        return shape, -len(lam) if dual else len(lam), dual, 0
    s = nu[0] if nu else 0
    parts = ([x + s for x in mu] + [s] * (hi - lo + 1 - len(mu) - len(nu))
             + [s - x for x in reversed(nu)])
    return shapes.normalize(parts), 0, False, s


def walked_census(factors, lo, hi):
    """The recursive walk that the fold of _window_census replaced, on the
    retired factor shapes: one enumerate_sst call per source of each proper
    prefix of the product, so a content that many sources share is extended
    once per source."""
    n = hi - lo + 1
    parts = []
    level = shift = 0
    for fac in factors:
        shape, lev, dual, s = retired_factor_shape(fac, lo, hi)
        if shapes.num_sst(shape, n) > lr_engine._WORD_CAP:
            raise lr_engine._TooLarge(shape, lo, hi)
        parts.append((shape, dual))
        level += lev
        shift += s
    out = Counter()

    def walk(i, content):
        if i == len(parts):
            out[level, tuple(content)] += 1
            return
        shape, dual = parts[i]
        step = -1 if dual else 1
        for t in crystal.enumerate_sst(shape, lo, hi, dual, content=content):
            c = list(content)
            for col in t.cols:
                for v in col:
                    c[v - lo] += step
            walk(i + 1, c)

    walk(0, [-shift] * n)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (lr_engine._WindowTooSmall, lr_engine._TooLarge) as exc:
        return type(exc).__name__, str(exc)


# windows on the origin, and off it by d letters, where every hw entry is
# moved by d too so that the factors still fit
OFFSETS = [0, 7, -6]


def _moved(fac, d):
    if fac[0] in ("B", "Bdual"):
        return (fac[0], tuple(x + d for x in fac[1]))
    return fac


@pytest.mark.parametrize("d", OFFSETS)
@pytest.mark.parametrize("fac", GRID, ids=repr)
def test_factor_shape_matches_retired_branches(fac, d):
    fac = lr_engine._factor_norm(_moved(fac, d))
    for lo in (-3, -2, -1):
        for nletters in range(1, 7):
            lo_d, hi_d = lo + d, lo + d + nletters - 1
            assert _outcome(lr_engine._factor_shape, fac, lo_d, hi_d) == \
                _outcome(retired_factor_shape, fac, lo_d, hi_d), (lo_d, hi_d)


POOL = [("B", (0,)), ("B", (1, -1)), ("B", (1, 0)), ("Bdual", (0,)),
        ("Bdual", (1,)), ("Bmn", (1,), ()), ("Bmn", (), (1,)),
        ("Bmn", (1,), (1,)), ("Bcol", 1), ("Bcol", 2)]


def _fold_grid():
    """Products of two, three and four factors from POOL: every pair, and
    seeded samples of triples and quadruples."""
    rng = random.Random(36)
    products = [[a, b] for a in POOL for b in POOL]
    products += [rng.sample(POOL, 3) for _ in range(40)]
    products += [rng.sample(POOL, 4) for _ in range(30)]
    return products


def test_fold_matches_retired_walk():
    # windows on and off the origin; a product that fits no window is
    # refused alike by both routes
    counted = merged = 0
    for factors in _fold_grid():
        for d in OFFSETS:
            facs = [lr_engine._factor_norm(_moved(f, d)) for f in factors]
            for lo, hi in [(-2 + d, 2 + d), (-1 + d, 3 + d)]:
                new = _outcome(lr_engine._window_census, facs, lo, hi)
                assert new == _outcome(walked_census, facs, lo, hi), (
                    facs, lo, hi)
                if isinstance(new, Counter):
                    counted += 1
                    merged += max(new.values()) > 1
    assert counted > 500 and merged > 100


def _sst_calls(monkeypatch, census, factors, lo, hi):
    calls = []
    enumerate_sst = crystal.enumerate_sst

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_sst(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(crystal, "enumerate_sst", counted)
        census(factors, lo, hi)
    return len(calls)


@pytest.mark.parametrize("factors, window, fold, walk", [
    ([("B", (1, 0)), ("B", (0, -1)), ("B", (0,)), ("Bmn", (1,), ())],
     (-4, 4), 126, 666),
    ([("B", (0,)), ("Bcol", 1), ("Bmn", (), (1,))], (-2, 2), None, None),
    ([("Bdual", (4,)), ("B", (4,)), ("Bcol", 1), ("Bcol", 1)], (3, 6), None,
     None),
])
def test_fold_enumerates_once_per_distinct_state(monkeypatch, factors, window,
                                                 fold, walk):
    # the fold enumerates each factor once per distinct content its prefix
    # reaches; the retired walk once per source of the prefix
    facs = [lr_engine._factor_norm(f) for f in factors]
    prefixes = [lr_engine._window_census(facs[:i], *window)
                for i in range(len(facs))]
    got = _sst_calls(monkeypatch, lr_engine._window_census, facs, *window)
    assert got == sum(len(p) for p in prefixes) == (fold or got)
    got = _sst_calls(monkeypatch, walked_census, facs, *window)
    assert got == sum(sum(p.values()) for p in prefixes) == (walk or got)


# ---------------------------------------------------------------- window edge

def _predicted_census(factors, lo, hi):
    out = Counter()
    for cls, mult in lr_engine.expr_decompose(factors, (-9, 9)).items():
        key = lr_engine._class_census(cls, lo, hi)
        if key is not None:
            out[key] += mult
    return out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="_class_census over-counts classes at the window "
                          "edge; the exact survival rule is still open")
@pytest.mark.parametrize("factors", [
    # census 20 against 26 predicted at [-3, 3], 29 against 35 at [-4, 4]
    [("B", (0,)), ("B", (1,)), ("Bmn", (1,), (1,))],
    # one weight differs at both windows
    [("B", (-1,)), ("B", (0,)), ("Bmn", (1,), ())],
])
@pytest.mark.parametrize("window", [(-3, 3), (-4, 4)])
def test_window_census_matches_class_census_at_the_edge(factors, window):
    census = lr_engine._window_census(
        [lr_engine._factor_norm(f) for f in factors], *window)
    assert census == _predicted_census(factors, *window)
