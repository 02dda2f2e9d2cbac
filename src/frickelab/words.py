"""Freely reduced words in the rank-2 free group F(a, b).

Letters are written a, b with uppercase A, B for inverses; the identity
prints as "1".  Words are immutable and always kept freely reduced.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .poly import _power


class WordParseError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        super().__init__(f"{message} at position {position} in {text!r}")


# letter order used for canonical rotations: a < A < b < B
_LETTER_ORDER = {("a", 1): 0, ("a", -1): 1, ("b", 1): 2, ("b", -1): 3}
_CHAR_TO_LETTER = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}
_LETTER_TO_CHAR = {v: k for k, v in _CHAR_TO_LETTER.items()}


class Word:
    """A freely reduced word over {a, b}; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[str, int]] = ()):
        self.letters: tuple[tuple[str, int], ...] = _reduce(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(_LETTER_TO_CHAR[l] for l in self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        """The reduced word for self^n; negative n powers the inverse.

        Square-and-multiply over concatenation with free reduction: the
        time is linear in the output length, plus the length of self for
        each of the log2(n) squarings when self cancels at the seams.
        """
        if n < 0:
            return invert(self) ** (-n)
        return _power(self, n, IDENTITY)


def _reduce(letters: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """The letters freely reduced; ValueError names the first that is not
    ("a", 1), ("a", -1), ("b", 1) or ("b", -1)."""
    out: list[tuple[str, int]] = []
    for letter in letters:
        try:
            g, e = letter
            valid = (g, e) in _LETTER_ORDER
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ValueError(f"malformed letter {letter!r}: a letter is ('a' or 'b', 1 or -1)")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


IDENTITY = Word()


def parse_word(text: str) -> Word:
    """Parse word text over {a, b, A, B}; the literal "1" is the identity."""
    if text == "1":
        return IDENTITY
    if text == "":
        raise WordParseError(text, 0, "empty word text (use '1' for the identity)")
    letters = []
    for i, ch in enumerate(text):
        if ch not in _CHAR_TO_LETTER:
            raise WordParseError(text, i, f"unexpected character {ch!r}")
        letters.append(_CHAR_TO_LETTER[ch])
    return Word(letters)


def concat(u: Word, v: Word) -> Word:
    return Word(u.letters + v.letters)


def invert(u: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(u.letters)))


def cyclic_reduce(u: Word) -> Word:
    """Canonical conjugacy representative.

    Cyclically reduces, then returns the lexicographically least rotation
    under the letter order a < A < b < B.
    """
    letters = list(u.letters)
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        letters = letters[1:-1]
    if not letters:
        return IDENTITY
    rotations = [tuple(letters[i:] + letters[:i]) for i in range(len(letters))]
    best = min(rotations, key=lambda rot: tuple(_LETTER_ORDER[l] for l in rot))
    return Word(best)


def parse_word_list(text: str) -> list[Word]:
    """Parse word-list text: one word per line, '#' comments ignored."""
    words = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            words.append(parse_word(line))
    return words
