import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibword import (
    Alphabet,
    DomainError,
    Morphism,
    Word,
    adjacency_matrix,
    binary_alphabet,
    compose_sturmian,
    digit_alphabet,
    fibonacci_morphism,
    fixed_point_prefix,
    identity_morphism,
    mbonacci_alphabet,
    mbonacci_morphism,
    sturmian_generator,
    ternary_alphabet,
    thue_morse_morphism,
    tribonacci_morphism,
)


def test_alphabet_basics():
    a = Alphabet("abc")
    assert len(a) == 3
    assert a.index("b") == 1
    assert a.label(2) == "c"
    assert a.as_index("c") == 2
    assert a.as_index(0) == 0


def test_alphabet_rejects_bad_labels():
    with pytest.raises(DomainError):
        Alphabet("aab")  # duplicate
    # unknown symbol lookups fail loudly
    with pytest.raises(DomainError):
        Alphabet("ab").index("z")


def test_digit_alphabet_range():
    assert digit_alphabet(16).labels[10] == "a"
    with pytest.raises(DomainError):
        digit_alphabet(37)
    with pytest.raises(DomainError):
        digit_alphabet(1)


def test_word_roundtrip_and_slicing():
    ab = binary_alphabet()
    w = Word.from_string("abab", ab)
    assert str(w) == "abab"
    assert len(w) == 4
    assert w[1] == 1  # integer index
    assert str(w[1:3]) == "ba"
    assert isinstance(w[1:3], Word)
    assert w.count("a") == 2
    assert w.count(1) == 2


def test_word_concat_requires_same_alphabet():
    u = Word.from_string("ab", binary_alphabet())
    v = Word.from_string("c", ternary_alphabet())
    with pytest.raises(DomainError):
        u + v


def test_word_rejects_out_of_range_indices():
    with pytest.raises(DomainError):
        Word(binary_alphabet(), bytes([0, 1, 2]))
    for size in (1, 2, 3, 36, 255):
        alpha = Alphabet(chr(0x100 + i) for i in range(size))
        assert Word(alpha, bytes(range(size)) * 3).data == bytes(range(size)) * 3
        for bad in range(size, 256):
            with pytest.raises(DomainError, match="symbol indices outside its alphabet"):
                Word(alpha, bytes(range(size)) + bytes([bad]) + bytes(size))


def test_morphism_from_rules_and_apply():
    phi = Morphism.from_rules("a->ab,b->a")
    w = Word.from_string("ab", binary_alphabet())
    assert str(phi.apply(w)) == "aba"
    assert phi.rules_text() == "a->ab,b->a"
    assert phi.rules_dict() == {"a": "ab", "b": "a"}


def test_morphism_is_a_homomorphism():
    """apply(uv) must equal apply(u) + apply(v) for random words."""
    rng = random.Random(7)
    tern = ternary_alphabet()
    sigma = Morphism.from_rules("a->ab,b->ac,c->a")
    for _ in range(200):
        u = Word.from_indices(tern, (rng.randrange(3) for _ in range(rng.randrange(8))))
        v = Word.from_indices(tern, (rng.randrange(3) for _ in range(rng.randrange(8))))
        assert sigma.apply(u + v) == sigma.apply(u) + sigma.apply(v)


def test_morphism_apply_memory():
    # one join over every symbol keeps ~80 bytes per symbol: 45 MiB traced
    tm = thue_morse_morphism()
    w = fixed_point_prefix(tm, "0", 2 ** 19)
    tracemalloc.start()
    try:
        image = tm.apply(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert image == fixed_point_prefix(tm, "0", 2 ** 20)
    assert peak < 8 * 2 ** 20


def test_morphism_composition_order():
    # then() applies the receiver first
    phi = sturmian_generator("phi")
    ex = sturmian_generator("E")
    composed = phi.then(ex)
    w = Word.from_string("ab", binary_alphabet())
    assert composed.apply(w) == ex.apply(phi.apply(w))


def test_compose_sturmian_matches_by_hand():
    # phi then E: a -> ab -> ba, b -> a -> b
    m = compose_sturmian(["phi", "E"])
    assert m.rules_dict() == {"a": "ba", "b": "b"}
    assert compose_sturmian([]) == identity_morphism(binary_alphabet())


def test_sturmian_generator_names():
    assert sturmian_generator("E").rules_dict() == {"a": "b", "b": "a"}
    assert sturmian_generator("phi").rules_dict() == {"a": "ab", "b": "a"}
    assert sturmian_generator("phit").rules_dict() == {"a": "ba", "b": "a"}
    with pytest.raises(DomainError):
        sturmian_generator("nope")


def test_fibonacci_fixed_point_prefix():
    w = fixed_point_prefix(fibonacci_morphism(), "a", 13)
    assert str(w) == "abaababaabaab"


def test_fixed_point_is_coherent_under_the_morphism():
    """sigma(prefix) must again be a prefix of the fixed point."""
    for morph in (fibonacci_morphism(), tribonacci_morphism(), thue_morse_morphism()):
        seed = morph.source.label(0)
        w = fixed_point_prefix(morph, seed, 400)
        image = morph.apply(w)
        assert image == fixed_point_prefix(morph, seed, len(image))


def test_fixed_point_needs_prolongable_seed():
    # b -> a does not start with b, so iteration from b cannot converge
    with pytest.raises(DomainError):
        fixed_point_prefix(fibonacci_morphism(), "b", 10)
    # image of the seed must be longer than one symbol, or iteration stalls
    fix = Morphism.from_rules("a->a,b->ab")
    with pytest.raises(DomainError):
        fixed_point_prefix(fix, "a", 5)


def test_fixed_point_prefix_lengths():
    for n in (0, 1, 2, 50):
        assert len(fixed_point_prefix(fibonacci_morphism(), "a", n)) == n


def iterate_to_length(morph, seed, length):
    # oracle: apply the morphism to the whole word until it is long enough
    w = Word.from_string(seed, morph.source)
    while len(w) < length:
        w = morph.apply(w)
    return w[:length]


def read_off_oracle(morph, seed, length):
    """Oracle: read x = sigma(x) off itself, appending one image per symbol."""
    images = [img.data for img in morph.images]
    out = bytearray(images[seed])
    i = 1
    while len(out) < length:
        out += images[out[i]]
        i += 1
    return Word(morph.source, out[:length])


def test_fixed_point_prefix_matches_iterated_images():
    rng = random.Random(12)
    morphs = [(fibonacci_morphism(), "a"), (thue_morse_morphism(), "1"),
              (tribonacci_morphism(), "a"), (Morphism.from_rules("a->aab,b->bba"), "b")]
    morphs += [(mbonacci_morphism(m), "1") for m in (2, 6, 35)]
    for morph, seed in morphs:
        for length in (0, 1, 2, 3, 10, 1000, rng.randrange(1, 5000)):
            assert fixed_point_prefix(morph, seed, length) == iterate_to_length(morph, seed, length)


@st.composite
def prolongable_morphisms(draw):
    """An endomorphism over 1-4 letters, some of them fixed letters (b -> b),
    and a seed it is prolongable on."""
    k = draw(st.integers(1, 4))
    letter = st.integers(0, k - 1)
    images = [draw(st.lists(letter, min_size=1, max_size=4)) for _ in range(k)]
    for j in draw(st.sets(letter)):
        images[j] = [j]
    seed = draw(letter)
    images[seed] = [seed] + draw(st.lists(letter, min_size=1, max_size=3))
    alpha = Alphabet("abcd"[:k])
    return Morphism(alpha, alpha, [Word.from_indices(alpha, img) for img in images]), seed


@settings(max_examples=150)
@given(prolongable_morphisms(), st.integers(0, 3000))
def test_fixed_point_prefix_matches_the_read_off_loop(ms, length):
    morph, seed = ms
    # around the length of the seed's image under each sigma^(2^j) whose
    # images all stay short, as the library's squaring does
    square = morph
    edges = [len(morph.image(seed))]
    while max(map(len, square.images)) ** 2 <= 5000:
        square = square.then(square)
        edges.append(len(square.image(seed)))
    for n in {length} | {e + d for e in edges for d in (-1, 0, 1)}:
        assert fixed_point_prefix(morph, seed, n) == read_off_oracle(morph, seed, n)


def test_fixed_point_prefix_past_fixed_letters():
    # b never grows, so the prefix a b^(L-1) is read one symbol at a time;
    # c never occurs, but squaring until only a's image is long would grow
    # c's image to 3^32 symbols
    tracemalloc.start()
    try:
        w = fixed_point_prefix(Morphism.from_rules("a->ab,b->b,c->ccc"), "a", 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.data == bytes(1) + bytes([1]) * 9_999
    assert peak < 2 ** 20


def test_fixed_point_prefix_memory():
    # applying the morphism to the whole word peaked at 72 MiB here
    tracemalloc.start()
    try:
        fixed_point_prefix(fibonacci_morphism(), "a", 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_tribonacci_iterates():
    sigma = tribonacci_morphism()
    w = Word.from_string("a", ternary_alphabet())
    seen = []
    for _ in range(4):
        w = sigma.apply(w)
        seen.append(str(w))
    assert seen == ["ab", "abac", "abacaba", "abacabaabacab"]


def test_mbonacci_morphism_small_orders():
    m3 = mbonacci_morphism(3)
    assert m3.rules_dict() == {"1": "12", "2": "13", "3": "1"}
    w = Word.from_string("1", mbonacci_alphabet(3))
    for expected in ("12", "1213", "1213121", "1213121121312"):
        w = m3.apply(w)
        assert str(w) == expected
    # order 2 is the Fibonacci substitution with digit labels
    assert mbonacci_morphism(2).rules_dict() == {"1": "12", "2": "1"}
    with pytest.raises(DomainError):
        mbonacci_morphism(1)


def test_mbonacci_matrix_recurrence():
    """A^m = A^(m-1) + ... + A + I for the m-bonacci incidence matrix A."""
    for m in range(2, 36):
        a = np.array(adjacency_matrix(mbonacci_morphism(m)), dtype=np.int64)
        powers = [np.linalg.matrix_power(a, i) for i in range(m + 1)]
        assert (powers[m] == sum(powers[:m])).all(), m


def test_adjacency_matrix_values():
    assert adjacency_matrix(fibonacci_morphism()) == [[1, 1], [1, 0]]
    assert adjacency_matrix(tribonacci_morphism()) == [[1, 1, 0], [1, 0, 1], [1, 0, 0]]


def test_adjacency_matrix_tracks_image_lengths():
    """Row sums of the k-th matrix power are the lengths of the k-th images."""
    sigma = tribonacci_morphism()
    mat = adjacency_matrix(sigma)

    def mat_mul(x, y):
        n = len(x)
        return [[sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]

    power = [[int(i == j) for j in range(3)] for i in range(3)]
    w = Word.from_string("a", ternary_alphabet())
    for _ in range(8):
        power = mat_mul(power, mat)
        w = sigma.apply(w)
        assert len(w) == sum(power[0])


def test_identity_morphism_fixes_everything():
    ident = identity_morphism(ternary_alphabet())
    w = Word.from_string("cabcab", ternary_alphabet())
    assert ident.apply(w) == w


def test_morphism_rejects_erasing_rules():
    with pytest.raises(DomainError):
        Morphism.from_rules("a->,b->a")


def test_morphism_rule_parse_errors():
    with pytest.raises(DomainError):
        Morphism.from_rules("a=ab")
    with pytest.raises(DomainError):
        Morphism.from_rules("a->ab,a->a")
