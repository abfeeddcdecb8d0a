"""Data words: finite words with an equivalence relation on positions.

Only equality of data matters, so a class is stored extensionally as the set
of positions carrying the same datum.  Blocks are kept in canonical order
(by least member) so class indices are stable across re-parsing.

The line rules that every text format shares (``parse_lines``) and the
readers of its headers live here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import EmptyWord, NotAPartition, ParseError, PositionOutOfRange, UnknownLetter


@dataclass(frozen=True)
class Alphabet:
    """Nonempty, duplicate-free, ordered set of letters."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet has duplicate letters")

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)


def alphabet(*letters: str) -> Alphabet:
    return Alphabet(tuple(letters))


def parse_alphabet(letters: Sequence[str]) -> Alphabet:
    """The alphabet of a letter list read from text: an empty list, an empty
    letter or a repeated letter is a ParseError."""
    letters = tuple(letters)
    if not letters:
        raise ParseError("empty alphabet")
    if "" in letters:
        raise ParseError("empty letter in the alphabet")
    for k, a in enumerate(letters):
        if a in letters[:k]:
            raise ParseError(f"letter {a!r} repeated in the alphabet")
    return Alphabet(letters)


def parse_lines(text: str, headers: Sequence[str]) -> Iterator[tuple[int, Optional[str], str]]:
    """The lines of an input file, formula or automaton, in file order and
    stripped, each with its line number (from 1): ``#`` starts a comment and
    blank lines are dropped.  A line that starts with one of ``headers``
    comes as ``(number, header, line)``, and a second line with the same
    header is a ParseError; every other line comes as ``(number, None,
    line)``."""
    seen: set = set()
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = next((h for h in headers if line.startswith(h)), None)
        if head is not None:
            if head in seen:
                raise ParseError(f"repeated header {head!r}")
            seen.add(head)
        yield number, head, line


def parse_header_count(line: str) -> int:
    """The number of a ``registers: n`` or ``counters: n`` header line."""
    text = line.split(":", 1)[1].strip()
    if not text.isdigit():
        raise ParseError(f"bad count in {line!r}")
    return int(text)


@dataclass(frozen=True)
class DataWord:
    """A nonempty word together with a partition of its positions.

    ``blocks`` is the partition in canonical order; ``class_of[i]`` is the
    index of the block containing position ``i``.
    """

    letters: tuple[str, ...]
    blocks: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def letter(self, i: int) -> str:
        self.check_position(i)
        return self.letters[i]

    def check_position(self, i: int) -> None:
        if not 0 <= i < len(self.letters):
            raise PositionOutOfRange(f"position {i} not in word of length {len(self.letters)}")

    def num_classes(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return format_data_word(self)


def make_data_word(letters: Sequence[str], blocks: Iterable[Iterable[int]],
                   sigma: Optional[Alphabet] = None) -> DataWord:
    """Build a data word, validating letters and the partition."""
    letters = tuple(letters)
    if not letters:
        raise EmptyWord("data words are nonempty")
    if sigma is not None:
        for a in letters:
            if a not in sigma:
                raise UnknownLetter(f"letter {a!r} not in alphabet {sigma.letters}")
    n = len(letters)
    raw = [frozenset(b) for b in blocks]
    seen: set[int] = set()
    total = 0
    for b in raw:
        if not b:
            raise NotAPartition("empty block")
        for i in b:
            if not 0 <= i < n:
                raise NotAPartition(f"position {i} out of range for length {n}")
        total += len(b)
        seen |= b
    if total != n or seen != set(range(n)):
        raise NotAPartition("blocks must partition the set of positions")
    canonical = tuple(sorted(raw, key=min))
    class_of = [0] * n
    for k, b in enumerate(canonical):
        for i in b:
            class_of[i] = k
    return DataWord(letters, canonical, tuple(class_of))


def same_class(w: DataWord, i: int, j: int) -> bool:
    w.check_position(i)
    w.check_position(j)
    return w.class_of[i] == w.class_of[j]


def set_partitions(n: int) -> Iterator[tuple[frozenset[int], ...]]:
    """All partitions of {0..n-1}, in restricted-growth-string order."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    top = [0] * n  # top[i]: the largest of rgs[0..i]
    while True:
        blocks = [set() for _ in range(top[-1] + 1)]
        for pos, b in enumerate(rgs):
            blocks[b].add(pos)
        yield tuple(frozenset(b) for b in blocks)
        # the next string: raise the last entry that is at most the largest
        # one before it, and zero the entries after it
        i = n - 1
        while i > 0 and rgs[i] > top[i - 1]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        top[i] = max(top[i - 1], rgs[i])
        rgs[i + 1:] = [0] * (n - 1 - i)
        top[i + 1:] = [top[i]] * (n - 1 - i)


def enumerate_data_words(sigma: Alphabet, max_len: int) -> Iterator[DataWord]:
    """Every data word of length 1..max_len, each exactly once.

    Order: by length, then string (lexicographic in alphabet order), then
    partition in restricted-growth-string order.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    for n in range(1, max_len + 1):
        partitions = list(set_partitions(n))
        for letters in itertools.product(sigma.letters, repeat=n):
            for blocks in partitions:
                yield make_data_word(letters, blocks, sigma)


def project_string(w: DataWord, h: Mapping[str, str]) -> tuple[str, ...]:
    """Apply a homomorphism letterwise; letters mapped to '' are erased."""
    out = []
    for a in w.letters:
        if a not in h:
            raise UnknownLetter(f"homomorphism undefined on {a!r}")
        img = h[a]
        if img != "":
            out.append(img)
    return tuple(out)


def parse_data_word(text: str, sigma: Optional[Alphabet] = None) -> DataWord:
    """Parse ``a a b ; 0 2 | 1``: letters, then partition blocks."""
    if ";" not in text:
        raise ParseError("expected ';' separating letters from partition")
    left, _, right = text.partition(";")
    letters = left.split()
    if not letters:
        raise EmptyWord("no letters before ';'")
    blocks = []
    for part in right.split("|"):
        items = part.split()
        if not items:
            raise NotAPartition("empty partition block")
        try:
            blocks.append([int(x) for x in items])
        except ValueError as exc:
            raise ParseError(f"bad position in partition: {exc}") from None
    return make_data_word(letters, blocks, sigma)


def format_data_word(w: DataWord) -> str:
    blocks = " | ".join(" ".join(str(i) for i in sorted(b)) for b in w.blocks)
    return f"{' '.join(w.letters)} ; {blocks}"
