"""Classical deletion-code constructions.

Two families live here: Varshamov-Tenengolts codes (the classic
single-deletion codes, built by brute-force filtering) and a
high-rate family obtained by lifting a single parity-check code over
``Z_{2^E}`` to a binary deletion code.  The lift encodes each symbol as a
block ``1 <binary digits> 0``, so every codeword alternates between a one,
a payload, and a zero; a deletion can desynchronize at most one block
boundary, which is what makes the image deletion-correctable whenever the
symbol code corrects erasures.

Cosets of the constant vectors partition the parity-check code into
equal-size cells; that partition is the input for the quantum encoder.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .bits import validate_word
from .delsets import deletion_index
from .errors import InvariantError
from .family import FamilySet

@dataclass(frozen=True)
class ClassicalCode:
    """A set of distinct bit words of one fixed length."""

    n: int
    words: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        for w in sorted(self.words, key=repr):  # of several bad words, name the smallest
            validate_word(w)
        if any(len(w) != self.n for w in self.words):
            raise ValueError(f"all words must have length {self.n}")

    @property
    def rate(self) -> float:
        """(log2 |C|) / n, the classical code rate."""
        return math.log2(len(self.words)) / self.n


def vt_code(n: int, a: int) -> ClassicalCode:
    """The VT code: words whose position-weighted sum is ``a`` mod ``n+1``."""
    if n < 1:
        raise ValueError("vt_code needs n >= 1")
    target = a % (n + 1)
    words = set()
    for bits in itertools.product("01", repeat=n):
        checksum = sum(i for i, c in enumerate(bits, start=1) if c == "1")
        if checksum % (n + 1) == target:
            words.add("".join(bits))
    return ClassicalCode(n, frozenset(words))


def is_single_deletion_code(code: ClassicalCode) -> tuple[bool, tuple[str, str] | None]:
    """Whether all distinct codeword pairs keep edit distance >= 4.

    Checked via disjointness of single-deletion surfaces, which is
    equivalent for equal-length words: one :func:`deletion_index` walk
    finds any deleted word that two codewords share, so the cost is linear
    in the total surface size.  Returns the violating pair ``(u, x)`` with
    ``x`` the smallest word sharing a deleted word with a smaller one and
    ``u`` the smallest such partner, or ``None`` on success.
    """
    collision = deletion_index([code.words]).collision
    return collision is None, collision


@dataclass(frozen=True)
class HighRateParams:
    """Parameters of the parity-check lift: E bits per symbol, N symbols."""

    E: int
    N: int

    def __post_init__(self):
        if self.E < 1 or self.N < 1:
            raise ValueError("E and N must be positive")
        # a positive multiple of 2^E is at least 2^E: testing N's bit length
        # first means a huge E never builds its power, not even for the message
        if self.N.bit_length() <= self.E or self.N % 2**self.E:
            power = 2**self.E if self.E < 64 else f"2^{self.E}"
            raise ValueError(f"N={self.N} must be a multiple of 2^E={power}")

    @property
    def alphabet(self) -> int:
        return 2**self.E

    @property
    def bit_length(self) -> int:
        return (self.E + 2) * self.N

    @property
    def words_log2(self) -> int:
        """log2 of the code size: the parity-check code has q^(N-1) words."""
        return self.E * (self.N - 1)

    @property
    def dimension_log2(self) -> int:
        """log2 of the dimension: one cell per coset of the q constant vectors."""
        return self.E * (self.N - 2)


def _block_table(params: HighRateParams) -> tuple[str, ...]:
    """The block ``1 <E bits, big-endian> 0`` of every symbol, by symbol.

    This table is the sandwich map: a symbol word lifts to its symbols'
    blocks, concatenated.  Fixing the injection keeps codes reproducible.
    The table has q <= N entries, so it costs no more than one lifted word.
    """
    return tuple(f"1{a:0{params.E}b}0" for a in range(params.alphabet))


def _ordered_cosets(params: HighRateParams) -> Iterator[list[str]]:
    """The lifted cosets ``a + (i, ..., i)`` of the parity-check code, in order.

    Each coset comes as the list of its binary images in ascending order,
    and the cosets come in ascending order of their smallest words.  The
    order needs no sorting:

    * All blocks have one length and the block map preserves order, so
      the sandwich map preserves lexicographic order.
    * A shift by ``(i, ..., i)`` keeps the symbol sum, since q divides N,
      and sets the first symbol to ``a_1 + i``; so each coset has exactly
      one member with first symbol 0, its smallest word, and shifting
      that member by i = 0, 1, ..., q-1 lists the coset in ascending order.
    * Those members are ``(0, *middle, -sum(middle) mod q)``; taken in
      ``itertools.product`` order of ``middle`` they ascend, and so do
      their images, the cosets' smallest words.
    """
    q = params.alphabet
    blocks = _block_table(params)
    shifted = [blocks[i:] + blocks[:i] for i in range(q)]  # shifted[i][a] is a+i's block
    for middle in itertools.product(range(q), repeat=params.N - 2):
        member = (0, *middle, -sum(middle) % q)
        yield ["".join([row[a] for a in member]) for row in shifted]


def highrate_code(params: HighRateParams) -> ClassicalCode:
    """The binary image of the parity-check code under the sandwich map."""
    return ClassicalCode(
        params.bit_length,
        frozenset(itertools.chain.from_iterable(_ordered_cosets(params))),
    )


def build_highrate_partition(params: HighRateParams) -> FamilySet:
    """Partition the lifted code into cosets of the constant symbol vectors.

    Each cell collects the images of ``a + (i, i, ..., i)`` for all symbols
    ``i``, so cells have exactly ``2^E`` words.  Cell order is canonical:
    cells are ordered by their lexicographically smallest word, making the
    message-index assignment reproducible.
    """
    if params.dimension_log2 < 1:
        raise ValueError(
            f"dimension too small: E(N-2)={params.dimension_log2} gives fewer than two cells"
        )
    # enumerate here, not inside FamilySet, so stage timings charge it to codes
    return FamilySet(list(_ordered_cosets(params)))


def rate(params: HighRateParams) -> Fraction:
    """Quantum code rate E(N-2) / ((E+2)N)."""
    return Fraction(params.dimension_log2, params.bit_length)


def min_exponent_for_rate(target: Fraction) -> int:
    """The smallest E whose rates can exceed ``target``, in closed form.

    The rate E(N-2)/((E+2)N) stays below E/(E+2), which exceeds R exactly
    when E > 2R/(1-R); the bound is exact because ``target`` is a Fraction.
    """
    return math.floor(2 * target / (1 - target)) + 1


def find_params_for_rate(target: Fraction | float) -> HighRateParams:
    """Smallest-bit-length parameters whose rate exceeds ``target``.

    The rate is bounded by E/(E+2), so the search starts at the smallest E
    above 2R/(1-R); for each E the smallest admissible N is the first
    multiple of 2^E past 2E/(E - R(E+2)).  Candidates are compared by bit
    length, then by E.
    """
    target = Fraction(target)
    if not 0 < target < 1:
        raise ValueError("target rate must lie strictly between 0 and 1")
    best: HighRateParams | None = None
    E = min_exponent_for_rate(target)
    while best is None or (E + 2) * 2**E < best.bit_length:
        block = 2**E
        bound = Fraction(2 * E) / (E - target * (E + 2))  # N must exceed this, strictly
        N = (int(bound // block) + 1) * block
        candidate = HighRateParams(E, N)
        if rate(candidate) <= target:
            raise InvariantError(f"{candidate} misses the target rate {target}")
        if best is None or (candidate.bit_length, candidate.E) < (best.bit_length, best.E):
            best = candidate
        E += 1
    return best
