"""Finite words over small alphabets, substitutions, and their fixed points.

Symbols are stored as byte-sized indices into an ordered alphabet of
single-character labels, so words slice and hash at C speed regardless of
the alphabet in use.
"""

from collections.abc import Iterable, Sequence

from .errors import DomainError

_SYMBOL_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


class Alphabet:
    """Ordered set of distinct single-character symbol labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise DomainError("alphabet must contain at least one symbol")
        if len(labels) > 255:
            raise DomainError("alphabets larger than 255 symbols are not supported")
        for lab in labels:
            if not isinstance(lab, str) or len(lab) != 1:
                raise DomainError(f"symbol labels must be single characters, got {lab!r}")
        if len(set(labels)) != len(labels):
            raise DomainError("symbol labels must be distinct")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.labels)!r})"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"symbol {label!r} is not in alphabet {''.join(self.labels)!r}") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def as_index(self, symbol: "int | str") -> int:
        """Accept a symbol given either as its label or as its index."""
        if isinstance(symbol, str):
            return self.index(symbol)
        if not 0 <= symbol < len(self.labels):
            raise DomainError(f"symbol index {symbol} out of range for {self!r}")
        return symbol


def binary_alphabet() -> Alphabet:
    return Alphabet("ab")


def ternary_alphabet() -> Alphabet:
    return Alphabet("abc")


def digit_alphabet(base: int) -> Alphabet:
    """Digits 0..base-1, labelled 0-9 then a-z (base <= 36)."""
    if not 2 <= base <= 36:
        raise DomainError(f"base must be between 2 and 36, got {base}")
    return Alphabet(_SYMBOL_CHARS[:base])


def mbonacci_alphabet(m: int) -> Alphabet:
    """Symbols 1..m, labelled 1-9 then a-z (m <= 35)."""
    if not 2 <= m <= 35:
        raise DomainError(f"m must be between 2 and 35, got {m}")
    return Alphabet(_SYMBOL_CHARS[1 : m + 1])


class Word:
    """Immutable finite word; indices into `alphabet` packed into bytes."""

    __slots__ = ("alphabet", "data")

    def __init__(self, alphabet: Alphabet, data: bytes = b""):
        self.alphabet = alphabet
        self.data = bytes(data)
        # deleting every valid index leaves only the bad ones
        if self.data.translate(None, bytes(range(len(alphabet)))):
            raise DomainError("word contains symbol indices outside its alphabet")

    @classmethod
    def _trusted(cls, alphabet: Alphabet, data: bytes) -> "Word":
        """A word on bytes already known to index into alphabet; skips the check."""
        w = cls.__new__(cls)
        w.alphabet = alphabet
        w.data = data
        return w

    @classmethod
    def from_string(cls, text: str, alphabet: Alphabet) -> "Word":
        return cls._trusted(alphabet, bytes(alphabet.index(ch) for ch in text))

    @classmethod
    def from_indices(cls, alphabet: Alphabet, indices: Iterable[int]) -> "Word":
        return cls(alphabet, bytes(indices))

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._trusted(self.alphabet, self.data[item])
        return self.data[item]

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise DomainError("cannot concatenate words over different alphabets")
        return Word._trusted(self.alphabet, self.data + other.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.labels, self.data))

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        text = self.to_string()
        if len(text) > 40:
            text = text[:37] + "..."
        return f"Word({text!r})"

    def to_string(self) -> str:
        labels = self.alphabet.labels
        return "".join(labels[i] for i in self.data)

    def count(self, symbol: "int | str") -> int:
        return self.data.count(self.alphabet.as_index(symbol))

    def startswith(self, other: "Word") -> bool:
        return self.alphabet == other.alphabet and self.data.startswith(other.data)


_APPLY_CHUNK = 2 ** 14  # source symbols per join in Morphism.apply
_IMAGE_CAP = 4096  # fixed_point_prefix squares the morphism while images stay this short


class Morphism:
    """Map sending each source symbol to a nonempty word over the target alphabet.

    Extended to words by concatenation, so apply(uv) == apply(u) + apply(v).
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Alphabet, target: Alphabet, images: Sequence[Word]):
        if len(images) != len(source):
            raise DomainError("need exactly one image per source symbol")
        for img in images:
            if img.alphabet != target:
                raise DomainError("morphism images must be words over the target alphabet")
            if len(img) == 0:
                raise DomainError("morphism images must be nonempty (erasing maps not supported)")
        self.source = source
        self.target = target
        self.images = tuple(images)

    @classmethod
    def from_rules(cls, rules: str) -> "Morphism":
        """Parse a rule string like "a->ab,b->a"."""
        mapping: dict[str, str] = {}
        for part in rules.split(","):
            part = part.strip()
            if "->" not in part:
                raise DomainError(f"malformed rule {part!r}, expected symbol->image")
            sym, img = part.split("->", 1)
            sym, img = sym.strip(), img.strip()
            if len(sym) != 1:
                raise DomainError(f"rule source {sym!r} must be a single symbol")
            if sym in mapping:
                raise DomainError(f"duplicate rule for symbol {sym!r}")
            mapping[sym] = img
        return cls.from_dict(mapping)

    @classmethod
    def from_dict(cls, mapping: dict[str, str], source: Alphabet | None = None,
                  target: Alphabet | None = None) -> "Morphism":
        if source is None:
            source = Alphabet(sorted(mapping))
        if target is None:
            seen = sorted({ch for img in mapping.values() for ch in img})
            target = Alphabet(seen) if seen else source
        images = []
        for lab in source.labels:
            if lab not in mapping:
                raise DomainError(f"no rule for symbol {lab!r}")
            images.append(Word.from_string(mapping[lab], target))
        return cls(source, target, images)

    def image(self, symbol: "int | str") -> Word:
        return self.images[self.source.as_index(symbol)]

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.source:
            raise DomainError("word is not over this morphism's source alphabet")
        images = [img.data for img in self.images]
        data = w.data
        # bytes.join keeps a buffer record (~80 bytes) per item until it
        # returns, so the images are joined a chunk of symbols at a time
        out = bytearray()
        for start in range(0, len(data), _APPLY_CHUNK):
            out += b"".join(map(images.__getitem__, data[start:start + _APPLY_CHUNK]))
        return Word._trusted(self.target, bytes(out))

    __call__ = apply

    def then(self, other: "Morphism") -> "Morphism":
        """Composite morphism: first apply self, then `other`."""
        if self.target != other.source:
            raise DomainError("composition mismatch: target and source alphabets differ")
        return Morphism(self.source, other.target,
                        [other.apply(img) for img in self.images])

    def rules_dict(self) -> dict[str, str]:
        return {lab: img.to_string() for lab, img in zip(self.source.labels, self.images)}

    def rules_text(self) -> str:
        return ",".join(f"{lab}->{img}" for lab, img in self.rules_dict().items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __repr__(self) -> str:
        return f"Morphism({self.rules_text()!r})"

    def is_prolongable_on(self, symbol: "int | str") -> bool:
        """True when image(s) starts with s and is longer than 1, so iteration grows."""
        i = self.source.as_index(symbol)
        img = self.images[i].data
        return len(img) >= 2 and img[0] == i and self.source == self.target


def identity_morphism(alphabet: Alphabet) -> Morphism:
    return Morphism(alphabet, alphabet,
                    [Word.from_indices(alphabet, [i]) for i in range(len(alphabet))])


def fibonacci_morphism() -> Morphism:
    """a -> ab, b -> a on {a, b}."""
    return Morphism.from_dict({"a": "ab", "b": "a"})


def tribonacci_morphism() -> Morphism:
    """a -> ab, b -> ac, c -> a on {a, b, c}."""
    return Morphism.from_dict({"a": "ab", "b": "ac", "c": "a"})


def mbonacci_morphism(m: int) -> Morphism:
    """The m-letter generalization: k -> 1,(k+1) for k < m and m -> 1.

    m = 2 is the Fibonacci rule up to relabelling, m = 3 the tribonacci one.
    """
    alpha = mbonacci_alphabet(m)
    images = []
    for k in range(m):  # k is the 0-based index of letter k+1
        if k < m - 1:
            images.append(Word.from_indices(alpha, [0, k + 1]))
        else:
            images.append(Word.from_indices(alpha, [0]))
    return Morphism(alpha, alpha, images)


def thue_morse_morphism() -> Morphism:
    """0 -> 01, 1 -> 10 on {0, 1}."""
    return Morphism.from_dict({"0": "01", "1": "10"})


# The three generators of the Sturmian morphism monoid on {a, b}:
# E swaps the letters, phi is the Fibonacci rule, phit its reversal.
def sturmian_generator(name: str) -> Morphism:
    rules = {
        "E": {"a": "b", "b": "a"},
        "phi": {"a": "ab", "b": "a"},
        "phit": {"a": "ba", "b": "a"},
    }
    if name not in rules:
        raise DomainError(f"unknown generator {name!r}, expected one of E, phi, phit")
    alpha = binary_alphabet()
    return Morphism.from_dict(rules[name], alpha, alpha)


def compose_sturmian(steps: Iterable["str | Morphism"]) -> Morphism:
    """Compose generators left to right: [phi, E] applies phi first, then E."""
    result = identity_morphism(binary_alphabet())
    for step in steps:
        morph = sturmian_generator(step) if isinstance(step, str) else step
        result = result.then(morph)
    return result


def fixed_point_prefix(morph: Morphism, seed: "int | str", length: int) -> Word:
    """First `length` symbols of the fixed point obtained by iterating from seed.

    Requires a prolongable seed: image(seed) must start with seed and have
    length at least 2, so each iteration extends the previous one. The fixed
    point x = image(x) is also the fixed point of every power sigma^(2^k), so
    the morphism is first squared while its longest image is short enough
    that the square's images stay within _IMAGE_CAP symbols, or until the
    seed's image is long enough. x is then read off itself under that power:
    image(x[0]), then image(x[1]), image(x[2]), ...
    """
    if length < 0:
        raise DomainError("length must be nonnegative")
    if morph.source != morph.target:
        raise DomainError("fixed points need an endomorphism (same source and target)")
    s = morph.source.as_index(seed)
    if not morph.is_prolongable_on(s):
        raise DomainError(
            f"morphism is not prolongable on {morph.source.label(s)!r}: "
            "image must start with the seed and have length >= 2"
        )
    images = [img.data for img in morph.images]
    while len(images[s]) < length and max(map(len, images)) ** 2 <= _IMAGE_CAP:
        images = [b"".join(map(images.__getitem__, img)) for img in images]
    out = bytearray(images[s])
    i = 1
    while len(out) < length:
        # images are nonempty, so out is always longer than i
        out += images[out[i]]
        i += 1
    # the images are words over the source alphabet, so out is one too
    return Word._trusted(morph.source, bytes(memoryview(out)[:length]))


def adjacency_matrix(morph: Morphism) -> list[list[int]]:
    """Matrix with entry [i][j] = number of occurrences of symbol j in image(i).

    Row sums are the image lengths, and powers track iterated image lengths.
    """
    if morph.source != morph.target:
        raise DomainError("adjacency matrix is defined for endomorphisms only")
    n = len(morph.source)
    return [[img.data.count(j) for j in range(n)] for img in morph.images]
