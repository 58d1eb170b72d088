"""Words, tableaux and crystal operators for the two letter families.

A letter is a pair (i, dual): (i, False) is the letter i of the standard
crystal, (i, True) is i-dual.  Words are tuples of letters, acted on color by
color through the signature rule; a tensor product of word crystals is just
word concatenation.  A tableau is stored as its columns, the form that its
reading word and the binary-matrix embeddings read.

Operator conventions (checked against the letter tables; _colors is the
one place the code states them):
  (i, False): plus at color i, minus at color i-1; lowering sends i to i+1.
  (i, True):  plus at color i-1, minus at color i; lowering sends i to i-1.

components walks codes, each step taking only its node, and decodes only
the sources and the node a refusal names.  decompose_components walks byte
codes: letter (i, dual) is byte 2(i - lo) + dual, lo one below the words'
least index.  Each color has sign and up/down tables, a move is one bytes
slice, and the codes reach one letter past each side, so a move out of the
words' letters leaves the set and the walk raises "set not closed", naming
the decoded word.
"""

from collections import Counter, deque, namedtuple

from . import shapes


# ---------------------------------------------------------------- letters

def _colors(let):
    """(plus color, minus color) of a letter.  Lowering at its plus color
    sends it to the letter of its family that is minus there, moving its
    index by plus - minus; raising moves it back."""
    i, dual = let
    return (i - 1, i) if dual else (i, i - 1)


# ---------------------------------------------------------------- weights

class Weight(namedtuple("Weight", "level eps")):
    """An integral weight: level * Lambda_0 plus a finite sum of eps_i,
    built from a {i: coefficient} map and stored as its sorted nonzero
    (i, coefficient) pairs.  Weights are compared, hashed and keyed, never
    added: `+` raises TypeError rather than concatenate the tuples."""

    __slots__ = ()

    def __new__(cls, level=0, eps=None):
        pairs = sorted((i, c) for i, c in (eps or {}).items() if c)
        return super().__new__(cls, level, tuple(pairs))

    def key(self):
        return tuple(self)

    def __add__(self, other):
        raise TypeError("weights are not added")

    __radd__ = __add__

    def __repr__(self):
        bits = ["%d*L0" % self.level] if self.level else []
        bits += ["%+d*e%d" % (c, i) for i, c in self.eps]
        return "Weight(%s)" % (" ".join(bits) or "0")


# ---------------------------------------------------------------- word ops

def _signature(word, k):
    """Surviving minus and plus positions after bracket cancellation."""
    plus = []
    minus = []
    for idx, let in enumerate(word):
        p, m = _colors(let)
        if p == k:
            plus.append(idx)
        elif m == k:
            if plus:
                plus.pop()
            else:
                minus.append(idx)
    return minus, plus


def eps(word, k):
    return len(_signature(word, k)[0])


def phi(word, k):
    return len(_signature(word, k)[1])


def _move(word, idx, step):
    """The word with its letter at idx moved by step times plus - minus."""
    (i, dual), (p, m) = word[idx], _colors(word[idx])
    return word[:idx] + ((i + step * (p - m), dual),) + word[idx + 1:]


def lower_word(word, k):
    """Apply the lowering operator at color k, or None."""
    minus, plus = _signature(word, k)
    return _move(word, plus[0], 1) if plus else None


def raise_word(word, k):
    """Apply the raising operator at color k, or None."""
    minus, plus = _signature(word, k)
    return _move(word, minus[-1], -1) if minus else None


def weight(word):
    eps_map = {}
    for i, dual in word:
        eps_map[i] = eps_map.get(i, 0) + (-1 if dual else 1)
    return Weight(0, eps_map)


# ---------------------------------------------------------------- tableaux

class Tableau(namedtuple("Tableau", "cols dual")):
    """Columns of letter indices over one alphabet family, left to right.

    Each column is listed top to bottom and is strictly increasing in its
    alphabet's order, so the indices of a dual-letter column decrease.
    Rows weakly increase, so each column is entrywise at most the column to
    its right in that order.
    """

    __slots__ = ()

    def __new__(cls, cols, dual=False):
        return super().__new__(cls, tuple(tuple(c) for c in cols), dual)


def tableau_word(tab):
    """Column reading word: columns right to left, top to bottom in each."""
    return tuple((v, tab.dual) for col in reversed(tab.cols) for v in col)


def enumerate_sst(lam, lo, hi, dual=False, content=None):
    """All semistandard tableaux of shape lam over the alphabet interval
    [lo, hi] (dualized letters if dual; their order is reversed, so rank r
    maps to hi-r instead of lo+r).

    Columns are chosen right to left as strictly increasing rank tuples,
    each entrywise at most the column to its right; without content every
    partial choice extends, so nothing is generated and then rejected.

    With content, a weakly decreasing vector c over the letters lo..hi (a
    dual letter counting -1), only the tableaux t with eps_k(t) <= c_k -
    c_{k+1} at every color k in lo..hi-1 are yielded: those whose reading
    word keeps c plus the content of each of its prefixes weakly
    decreasing.  By the bracket rule a minus cancels the latest earlier
    plus of its color, so eps_k(w) is the most by which a prefix of w has
    more minuses than pluses at k: a plain k+1 and a dual k are minus
    there, a plain k and a dual k+1 plus.  The letters are chosen in
    reading order, columns right to left and each top to bottom, so a
    partial choice is a prefix and the letter that breaks the rule ends
    its branch.  A content of another length, or one that is not weakly
    decreasing, is refused with a ValueError.
    """
    lam = shapes.normalize(lam)
    n = hi - lo + 1
    # c in rank order, negated for dual letters, so a letter adds 1 at its
    # rank; without content, gaps that no word of the shape closes
    if content is None:
        load = [-r * (sum(lam) + 1) for r in range(n)]
    else:
        if len(content) != n:
            raise ValueError("content of length %d for the %d letters "
                             "%d..%d" % (len(content), n, lo, hi))
        load = [-c for c in reversed(content)] if dual else list(content)
        # reversed and negated, a weakly decreasing content stays so
        if any(a < b for a, b in zip(load, load[1:])):
            raise ValueError("content %r is not weakly decreasing"
                             % (tuple(content),))
    if len(lam) > n:
        return
    heights = shapes.conjugate(lam)
    letter = [hi - r if dual else lo + r for r in range(n)]

    def columns(h, bound, col=(), r=0):
        """Columns of h ranks extending col, entrywise at most the column of
        ranks bound (which may be shorter; below it only the alphabet
        bounds them), whose letters keep load weakly decreasing.  load holds
        the word read so far, this column's letters included; each letter
        is taken back once its extensions are exhausted."""
        i = len(col)
        if i == h:
            yield col
            return
        top = n - h + i
        if i < len(bound):
            top = min(top, bound[i])
        for x in range(r, top + 1):
            load[x] += 1
            if x == 0 or load[x] <= load[x - 1]:
                yield from columns(h, bound, col + (x,), x + 1)
            load[x] -= 1

    def fill(j, right, done):
        if j < 0:
            yield Tableau(done, dual)
            return
        for ranks in columns(heights[j], right):
            col = tuple(letter[x] for x in ranks)
            yield from fill(j - 1, ranks, (col,) + done)

    yield from fill(len(heights) - 1, (), ())


def hw_tableau(lam, lo, hi):
    """The unique source of SST(lam) over [lo, hi] (as a crystal of words):
    every column reads lo, lo+1, ..."""
    lam = shapes.normalize(lam)
    if len(lam) > hi - lo + 1:
        raise ValueError("shape %r too tall for [%d,%d]" % (lam, lo, hi))
    return Tableau([range(lo, lo + h) for h in shapes.conjugate(lam)])


# ---------------------------------------------------------------- components

def components(nodes, steps, decode):
    """Traverse a finite set under crystal operators, one component at a time.

    steps is a list of (color, step) pairs, step(node) returning the pair
    (raised, lowered) of the node's neighbours at that color, None where
    the operator is undefined; one step reads one signature for both
    directions.  A list, not a dict: a column color and a row color may
    share an index.  Yields (decode(source), size) per component, the
    source being its one node without a raised neighbour, in the order of
    each component's first node in `nodes`.  Raises ValueError naming the
    color and decode(node) if a neighbour leaves the set, and ValueError if
    a component has no unique source.
    """
    order = list(nodes)
    nodes = set(order)
    seen = set()
    for start in order:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        size = 0
        sources = []
        while queue:
            x = queue.popleft()
            size += 1
            is_source = True
            for c, step in steps:
                raised, lowered = step(x)
                if raised is not None:
                    is_source = False
                # seen is inside nodes, so a visited neighbour needs no
                # closure test
                for y in (raised, lowered):
                    if y is None or y in seen:
                        continue
                    if y not in nodes:
                        raise ValueError("set not closed under color %r at %r"
                                         % (c, decode(x)))
                    seen.add(y)
                    queue.append(y)
            if is_source:
                sources.append(x)
        if len(sources) != 1:
            raise ValueError("component with %d sources" % len(sources))
        yield decode(sources[0]), size


def _byte_step(lo, n, k):
    """A components step at color k on codes 0..n-1 from lo; the first and
    last letter, which no walked word holds, get no sign."""
    sign, up, down = bytearray(256), [None] * n, [None] * n
    for c in range(2, n - 2):
        p, m = _colors((lo + c // 2, c & 1))
        if p == k:
            sign[c], down[c] = 1, bytes([c + 2 * (p - m)])
        elif m == k:
            sign[c], up[c] = 2, bytes([c - 2 * (p - m)])

    def step(w):
        minus, plus = None, []
        for idx, t in enumerate(w.translate(sign)):
            if t == 1:
                plus.append(idx)
            elif t == 2 and plus:
                plus.pop()
            elif t == 2:
                minus = idx
        return (None if minus is None
                else w[:minus] + up[w[minus]] + w[minus + 1:],
                w[:plus[0]] + down[w[plus[0]]] + w[plus[0] + 1:]
                if plus else None)
    return step


def decompose_components(words, colors):
    """Partition a finite closed union of word crystals into components.

    Returns a Counter over (highest Weight, component size).  Raises if the
    input is not closed under the operators or a component has no unique
    source.
    """
    words = list(words)
    index = [i for w in words for i, _ in w] or [0]
    lo, n = min(index) - 1, 2 * (max(index) - min(index) + 3)
    steps = [(k, _byte_step(lo, n, k)) for k in colors]

    def word(x):
        return tuple((lo + c // 2, bool(c & 1)) for c in x)

    codes = [bytes([2 * (i - lo) + d for i, d in w]) for w in words]
    return Counter((weight(w), size)
                   for w, size in components(codes, steps, word))
