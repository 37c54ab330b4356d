"""Complexity profiles, square-free censuses, a block code, and palindrome counts."""

from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from .budgets import budget, charge
from .errors import BudgetError, DomainError, FactorizationError
from .words import Alphabet, Morphism, Word, binary_alphabet, ternary_alphabet


@dataclass(frozen=True)
class ComplexityProfile:
    """Distinct word counts per length, counts[i] holding the value for n = i + 1."""

    kind: str                 # "factor" or "arithmetic"
    counts: tuple[int, ...]

    def count(self, n: int) -> int:
        if not 1 <= n <= len(self.counts):
            raise DomainError(f"profile covers 1..{len(self.counts)}, got n={n}")
        return self.counts[n - 1]

    def rows(self) -> list[tuple[int, int]]:
        return [(n, c) for n, c in enumerate(self.counts, start=1)]


def _check_profile_args(w: Word, n_max: int) -> None:
    if len(w) == 0:
        raise DomainError("complexity profiles need a nonempty word")
    if not 1 <= n_max <= len(w):
        raise DomainError(f"n_max must be in 1..{len(w)}, got {n_max}")


def factor_complexity(w: Word, n_max: int) -> ComplexityProfile:
    """Count distinct length-n factors of w for each n in 1..n_max.

    Each position i is named by the lexicographic rank of w[i:i + h], cut off
    at the end of w, for h = 1, 2, 4, ... as in Karp-Miller-Rosenberg naming
    (STOC 1972): the names for 2h rank the pairs of names for h through a
    direct table, or a sort once the table would be too large. A last step
    names overlapping halves, so the final names are the windows of length
    n_max exactly, and it stops early once every window is told apart. One
    position per name gives the distinct windows already in order; the longest
    common prefix of each adjacent pair, by binary lifting over the levels,
    gives p(n) = #{windows of length >= n} - #{pairs with lcp >= n}. Only
    those windows, about p(n_max) + n_max of them, reach that step.
    """
    _check_profile_args(w, n_max)
    counts = _factor_counts(w.data, n_max)
    return ComplexityProfile("factor", tuple(counts))


_ARITH_MAXLEN = 4096  # the records of the L^2 / 2 pairs peak at about 19 bytes each
_NAME_TABLE_CELLS = 1 << 22  # _rename ranks codes through a table of at most this size
_CHUNK = 1 << 14  # indices cast to intp at a time, small enough to stay in cache


def _rename(code: "np.ndarray", cells: int, pad: int = 0) -> "tuple[np.ndarray, int]":
    """Dense ranks 1, 2, ... of codes in 0..cells - 1, in code order, then pad zeros.

    Returns them with their count. They are uint16 when the count fits in 16
    bits, int32 otherwise.
    """
    import numpy as np

    L = len(code)
    # the table costs O(cells) and the sort O(len(code) log len(code)); they
    # break even near 8 cells a code
    if cells <= min(_NAME_TABLE_CELLS, 8 * L + 256):
        # the codes go to intp one chunk at a time, as in _take
        seen = np.zeros(cells, dtype=bool)
        for i in range(0, L, _CHUNK):
            seen[code[i:i + _CHUNK].astype(np.intp)] = True
        count = int(np.count_nonzero(seen))
        rank = np.cumsum(seen, dtype=_name_type(count))
        del seen
        names = np.zeros(L + pad, dtype=rank.dtype)
        # every code is in range: the scatter raised IndexError on any code >= cells
        _take(rank, code, names[:L])
        return names, count
    distinct, inverse = np.unique(code, return_inverse=True)
    names = np.zeros(L + pad, dtype=_name_type(len(distinct)))
    np.add(inverse, 1, out=names[:L], casting="unsafe")
    return names, len(distinct)


def _take(table: "np.ndarray", index: "np.ndarray",
          out: "np.ndarray | None" = None) -> "np.ndarray":
    """table[index], into out if given, for indices already known to be in range.

    numpy indexes through a slow buffered path unless the indices are intp,
    so they are cast one cache-sized chunk at a time, and mode="clip" skips
    the bounds check.
    """
    import numpy as np

    if out is None:
        out = np.empty(len(index), dtype=table.dtype)
    for i in range(0, len(index), _CHUNK):
        np.take(table, index[i:i + _CHUNK].astype(np.intp), out=out[i:i + _CHUNK], mode="clip")
    return out


def _name_type(count: int) -> type:
    """uint16 when the names 1..count fit in it, else int32."""
    import numpy as np

    return np.uint16 if count < 2 ** 16 else np.int32


def _code_type(cells: int) -> type:
    """int32 when every code below cells fits in it, else int64."""
    import numpy as np

    return np.int32 if cells <= 2 ** 31 else np.int64


def _factor_counts(data: bytes, n_max: int) -> list[int]:
    """Distinct length-n factors of data, n = 1..n_max."""
    import numpy as np

    L = len(data)
    # name[i] ranks w[i:i + h], cut off at L, among these words from 1 up; the
    # name past the end, name[L], is 0 for the empty word. K is one more than
    # the largest name, and names are kept in 16 bits while they fit.
    name, K = _rename(np.frombuffer(data, dtype=np.uint8), 256, 1)
    K += 1
    levels = []  # the names for h = 1, 2, 4, ...
    h = 1
    while h < n_max and K <= L:  # K <= L: some two windows are still equal
        levels.append(name)
        # w[i:i + h + shift] is w[i:i + h] then, overlapping it when shift < h,
        # w[i + shift:i + shift + h]; name * K + next keeps their order
        shift = min(h, n_max - h)
        code = name[:L].astype(_code_type(K * K))
        code *= K
        code[: L - shift + 1] += name[shift:]
        name, K = _rename(code, K * K, 1)
        del code
        K += 1
        h += shift
    # one position per name: the distinct windows of length n_max (fewer at
    # the end of w), in lexicographic order
    rep = np.empty(K, dtype=np.int32)
    for i in range(0, L, _CHUNK):
        j = min(i + _CHUNK, L)
        rep[name[i:j].astype(np.intp)] = np.arange(i, j, dtype=np.int32)
    del name
    rep = rep[1:]
    # adjacent windows differ, so their common prefix is no longer than the
    # shorter of the two and below 2^len(levels); binary lifting finds it
    a, b = rep[:-1], rep[1:]
    lcp = np.zeros(len(a), dtype=np.int32)
    for j in reversed(range(len(levels))):
        level = levels.pop()
        lcp += (level[a + lcp] == level[b + lcp]) * np.int32(1 << j)
    left = np.minimum(L - rep, n_max)  # the window lengths
    exact = np.bincount(left, minlength=n_max + 1) - np.bincount(lcp, minlength=n_max + 1)
    return np.cumsum(exact[::-1])[::-1][1:].tolist()


def arithmetic_complexity(w: Word, n_max: int) -> ComplexityProfile:
    """Count distinct words read along arithmetic progressions inside w.

    For each n, a progression is a start i >= 0 and step d >= 1 with all n
    sampled indices below len(w). Restricted to a finite w this is a lower
    bound for the quantity on the corresponding infinite word.

    Each pair i < j starts one progression i, j, 2j - i, ..., a record of
    its step, last index and name, the dense rank of the word it reads. Each
    n extends the records that still fit by one symbol and renames them by
    (name, next symbol), and a(n) is the number of names. The records peak
    near 19 bytes per pair for any n_max, hence the _ARITH_MAXLEN cap on L.
    """
    _check_profile_args(w, n_max)
    data = w.data
    L = len(data)
    if L > _ARITH_MAXLEN:
        raise BudgetError(f"arithmetic complexity takes words of at most "
                          f"{_ARITH_MAXLEN} symbols, got {L}")
    counts = [len(set(data))]  # a(1), the letters: no pairs needed
    if n_max == 1:
        return ComplexityProfile("arithmetic", tuple(counts))
    import numpy as np

    symbols = np.frombuffer(data, dtype=np.uint8)
    k = int(symbols.max()) + 1
    # the pairs grouped by step d = j - i, each group's start i running 0..L-1-d
    pairs = np.arange(L - 1, 0, -1, dtype=np.int32)  # L - d of them for each d
    step = np.repeat(np.arange(1, L, dtype=np.int32), pairs)
    last = np.arange(len(step), dtype=np.int32)
    last -= np.repeat(np.cumsum(pairs, dtype=np.int32) - pairs, pairs)
    del pairs
    name = _take(symbols, last)  # the one-symbol words i, named by their symbol
    K = k  # one more than the largest name
    for _ in range(2, n_max + 1):
        last += step
        fits = last < L
        step, last, name = step[fits], last[fits], name[fits]
        code = name.astype(_code_type(K * k))
        code *= k
        code += _take(symbols, last)
        name, count = _rename(code, K * k)
        del code
        K = count + 1
        counts.append(count)
    return ComplexityProfile("arithmetic", tuple(counts))


def is_sturmian_profile(profile: ComplexityProfile) -> bool:
    """True when the factor counts equal n + 1 for every covered n."""
    return all(c == n + 1 for n, c in enumerate(profile.counts, start=1))


# ---------------------------------------------------------------------------
# square-free words


def is_square_free(w: Word) -> bool:
    """True when w contains no factor of the shape uu with u nonempty.

    Each prefix of length j compares floor(j/2) pairs of halves, floor(L^2/4) in
    all for the prefixes up to L. That amount is charged to
    FIBWORD_SQUARE_TEST_COMPARISONS before the prefixes up to L = 2, 4, 8, ..., n
    are checked, so a square found early ends the test at once, and a square-free
    word is refused before its comparisons pass the budget.
    """
    data = w.data
    n = len(data)
    start, stop = 2, 2
    while start <= n:
        stop = min(stop, n)
        charge("SQUARE_TEST_COMPARISONS", stop * stop // 4,
               f"a square test of {n} symbols, to length {stop}, {stop * stop // 4} comparisons,")
        if not all(_no_new_square(data[:j]) for j in range(start, stop + 1)):
            return False
        start, stop = stop + 1, 2 * stop
    return True


def _no_new_square(w: bytes) -> bool:
    # w grew by one symbol; any new square must have its second half ending
    # at the last position, so only those alignments are checked.
    j = len(w)
    for h in range(1, j // 2 + 1):
        if w[j - 2 * h : j - h] == w[j - h : j]:
            return False
    return True


def _square_free_levels(k: int, n_max: int, prefix: bytes) -> Iterator[list[bytes]]:
    """Yield the square-free words that extend prefix, one level per length.

    Each level holds the square-free one-letter extensions of the level
    before, in lexicographic order, for the lengths len(prefix) + 1 to n_max.
    Before a level is built its k nodes per word are charged to
    FIBWORD_CENSUS_NODES, so a refusal names the length the walk reached. The
    walk returns after the first empty level.
    """
    letters = [bytes((c,)) for c in range(k)]
    level = [prefix]
    nodes = 0
    for length in range(len(prefix) + 1, n_max + 1):
        nodes += k * len(level)
        charge("CENSUS_NODES", nodes,
               f"the square-free walk to length {length} of {n_max}, at {nodes} nodes,")
        level = [child for w in level for child in (w + c for c in letters)
                 if _no_new_square(child)]
        yield level
        if not level:
            return


@dataclass(frozen=True)
class SquareFreeCensus:
    """Counts of square-free words by length, counts[n] = a(n) with a(0) = 1."""

    alphabet_size: int
    counts: tuple[int, ...]
    terminated: bool  # True when the census ran until a(n) reached 0


def square_free_census(alphabet_size: int, n_max: int | None = None,
                       workers: int = 1) -> SquareFreeCensus:
    """Tabulate a(n) by extending square-free words one letter at a time.

    Permuting letters preserves square-freeness, so for n >= 2 every
    square-free word is one of k(k-1) letter renamings of a word starting
    with letters 0, 1: a(n) = k(k-1) * #{square-free words of length n that
    start 0 1}. Only that one subtree is walked, length by length, and
    FIBWORD_CENSUS_NODES bounds the nodes of that walk. workers is accepted
    for compatibility and must be at least 1; it does not change the work or
    the result.

    With n_max=None the census runs until a(n) = 0, which only terminates on
    alphabets of size <= 2.
    """
    if alphabet_size < 1:
        raise DomainError("alphabet_size must be at least 1")
    if alphabet_size > 255:
        raise DomainError("alphabets larger than 255 symbols are not supported")
    if workers < 1:
        raise DomainError("workers must be at least 1")
    budget("CENSUS_NODES")  # a malformed value is refused even when nothing is walked
    if n_max is None:
        if alphabet_size > 2:
            raise DomainError(
                "census never terminates on 3+ letters (square-free words of "
                "every length exist); pass an explicit n_max"
            )
        n_max = 8  # binary and unary square-free words die out by length 4
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")

    k = alphabet_size
    if k < 2 or n_max < 2:
        counts = [1] + [len(level) for level in _square_free_levels(k, n_max, b"")]
    else:
        renamings = k * (k - 1)
        counts = [1, k, renamings] + [renamings * len(level) for level in
                                      _square_free_levels(k, n_max, b"\x00\x01")]
    return SquareFreeCensus(alphabet_size, tuple(counts), counts[-1] == 0)


def square_free_words(alphabet_size: int, max_len: int | None = None) -> list[Word]:
    """All square-free words over the letters a, b, ... up to max_len
    (unbounded only for <= 2 letters).

    The walk covers the whole tree of words length by length, under the
    FIBWORD_CENSUS_NODES node budget, and lists the words by length, each
    length in lexicographic order.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    if not 1 <= alphabet_size <= len(letters):
        raise DomainError(f"alphabet_size must be in 1..{len(letters)}, got {alphabet_size}")
    alphabet = Alphabet(letters[:alphabet_size])
    if max_len is None:
        if alphabet_size > 2:
            raise DomainError("a bound is required on 3+ letters")
        max_len = 4
    if max_len < 0:
        raise DomainError("max_len must be nonnegative")
    budget("CENSUS_NODES")  # a malformed value is refused even when nothing is walked
    return [Word._trusted(alphabet, w)
            for level in _square_free_levels(alphabet_size, max_len, b"") for w in level]


# ---------------------------------------------------------------------------
# the three-letter block code a -> abb, b -> ab, c -> a


def delta_morphism() -> Morphism:
    return Morphism.from_dict({"a": "abb", "b": "ab", "c": "a"},
                              ternary_alphabet(), binary_alphabet())


def delta_apply(w: Word) -> Word:
    """Image of a ternary word under a -> abb, b -> ab, c -> a."""
    return delta_morphism().apply(w)


_BLOCK_TO_SYMBOL = bytes.maketrans(b"\x02\x03\x04", b"\x00\x01\x02")  # abb, ab, a -> a, b, c


def delta_factorize(v: Word) -> Word:
    """Invert delta_apply.

    Every block starts with the unique 'a', so with no 'b' in front and no
    run of three 'b's, the blocks abb, ab and a are read off by replacing
    them in that order.
    """
    if v.alphabet != binary_alphabet():
        raise DomainError("factorization input must be a word over {a, b}")
    data = v.data
    if data.startswith(b"\x01"):
        raise FactorizationError("expected 'a' at position 0, found 'b'")
    bad = data.find(b"\x01\x01\x01")
    if bad != -1:
        start = data.rfind(b"\x00", 0, bad) + 1  # the first 'b' after that run's 'a'
        end = data.find(b"\x00", bad)
        run = (len(data) if end == -1 else end) - start
        raise FactorizationError(f"run of {run} 'b's starting at position {start} fits no block")
    blocks = (data.replace(b"\x00\x01\x01", b"\x02").replace(b"\x00\x01", b"\x03")
              .replace(b"\x00", b"\x04"))
    return Word._trusted(ternary_alphabet(), blocks.translate(_BLOCK_TO_SYMBOL))


# ---------------------------------------------------------------------------
# palindromes

_END = 255  # Alphabet caps at 255 labels, so byte 255 is never a symbol


def palindromic_factor_count(w: Word) -> int:
    """Number of distinct nonempty palindromic factors of w.

    Builds the eertree of Rubinchik and Shur (arXiv:1506.04862): one node per
    distinct palindrome, plus the roots of length -1 and 0. Reading c =
    w[i] wraps c around the longest suffix palindrome of w[:i] that c
    precedes, which adds at most one node; the new node's suffix link is the
    next such palindrome down the suffix-link chain, wrapped the same way.
    The suffix-link walks take O(len(w)) steps in total.
    """
    data = w.data
    # text[i + 1] = data[i], behind the never-a-symbol byte _END: the symbol
    # before a suffix palindrome of length n of data[:i] is text[i - n], and
    # it is _END when the palindrome is all of data[:i]
    text = bytes([_END]) + data
    # node 0 is the root of length -1, node 1 the empty palindrome; int32
    # lengths suffice, as 2^31 symbols would take hundreds of GiB of nodes
    length = array("i", (-1, 0))
    link = array("i", (0, 0))
    # (node << 8) | symbol -> child: half the memory of one dict per node
    edges: dict[int, int] = {}
    last = 1
    for i, c in enumerate(data):
        v = last
        while text[i - length[v]] != c:
            v = link[v]
        key = v << 8 | c
        child = edges.get(key)
        if child is None:
            if v == 0:
                suffix = 1  # a single symbol links to the empty palindrome
            else:
                u = link[v]
                while text[i - length[u]] != c:
                    u = link[u]
                suffix = edges[u << 8 | c]
            child = edges[key] = len(length)
            length.append(length[v] + 2)
            link.append(suffix)
        last = child
    return len(length) - 2


def scattered_palindrome_count(w: Word) -> int:
    """Number of distinct nonempty palindromic subsequences of w.

    Distinct means counted once no matter how many index sets produce the
    same palindrome. Interval recurrence over exact integers; the count can
    reach 2^(|w|/2), hence the length budget.
    """
    charge("SP_TOTAL_MAXLEN", len(w), f"word length {len(w)} for scattered palindrome totals")
    return _scattered_dp(w.data, 1)


def scattered_palindromes_by_length(w: Word) -> list[int]:
    """Distinct palindromic subsequence counts split by length.

    Returns counts where counts[t - 1] is the number of distinct palindromic
    subsequences of length t; the sum equals scattered_palindrome_count(w).
    """
    L = len(w)
    charge("SP_LENGTH_MAXLEN", L, f"word length {L} for the per-length palindrome counts")
    # Each count of one length t is at most C(L, t) < 2^L distinct
    # subsequences, so L-bit fields never carry into the next length.
    packed = _scattered_dp(w.data, 1 << L) >> L   # no palindrome has length 0
    mask = (1 << L) - 1
    out = []
    while packed:
        out.append(packed & mask)
        packed >>= L
    return out


def _scattered_dp(data: bytes, x: int) -> int:
    """Distinct nonempty palindromic subsequences of data, as a polynomial at x.

    The coefficient of x^t counts the palindromes of length t, so x = 1 gives
    the total and x = 2^B packs the per-length counts into B-bit fields.
    Wrapping a palindrome in c...c multiplies it by x^2.
    """
    L = len(data)
    if L == 0:
        return 0
    prev_same = [-1] * L   # prev_same[j]: last index before j holding data[j]
    last: dict[int, int] = {}
    for j, c in enumerate(data):
        prev_same[j] = last.get(c, -1)
        last[c] = j
    first_after: dict[int, int] = {}   # letter -> first index after i holding it
    x2 = x * x
    wrap = 1 + x2          # each inner palindrome, bare and wrapped
    # dp[i][j] = value on the slice data[i..j]; cells with i > j, and the
    # extra row L, stay 0
    dp = [[0] * L for _ in range(L + 1)]
    for i in range(L - 1, -1, -1):
        c = data[i]
        lo = first_after.get(c, L)
        first_after[c] = i
        row, below = dp[i], dp[i + 1]
        row[i] = x
        for j in range(i + 1, L):
            inner = below[j - 1]
            if data[j] != c:
                row[j] = below[j] + row[j - 1] - inner
            else:
                # lo/hi: first/last c strictly inside (i, j); lo > hi iff none
                hi = prev_same[j]
                if lo > hi:
                    row[j] = inner * wrap + x + x2   # adds c and cc
                elif lo == hi:
                    row[j] = inner * wrap + x2       # c already counted inside
                else:
                    row[j] = inner * wrap - dp[lo + 1][hi - 1] * x2
    return dp[0][L - 1]
