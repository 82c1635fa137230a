"""Seeded uniform variate sources with logical draw accounting.

Every sampler in this package pulls its randomness from a RandomSource,
so a run is reproducible from a single integer seed and the cost of a run
can be read off the source's counters afterwards.

The generator is splitmix64: 64-bit state advanced by a fixed odd constant,
output produced by a two-round xor-multiply mix.  It is tiny, passes the
usual statistical batteries, and has a published reference sequence that the
test suite pins down, so any refactor that changes the stream is caught.

The j-th word is a pure function of seed + j * golden, so words are mixed
256 at a time (SWAR, one Python integer as a vector): lane i of one big
integer, 128 bits wide, holds the i-th state, and each xor-shift and
multiply of the mix acts on every lane in one pass.  A lane is masked back
to its low 64 bits before each multiply, which clears the bits a right
shift carries in from the lane above, so every product stays inside its
lane.  The stream is the same word for word as the scalar mix.

RandomSource keeps one buffer, the last mixed block as an array of words
in stream order, and every draw reads it by position.  A draw that runs
out of script counts every word it read and no draw.  A partial shuffle of
n takes k bounded ints with bounds n, n - 1, ..., n - k + 1.
descending_ints(n, k) returns them in one call: the same values and
counters as k calls of next_uniform_int, with the Python work per draw cut
to a word read, a shift and a compare.  uniform_bytes(n) returns n iid
uniform bytes, the little-endian bytes of the next ceil(n / 8) words, cut
from the block as slices of the array.
"""

from __future__ import annotations

import sys
from array import array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """(ones, low, steps) for a vector of 128-bit lanes, each built in O(lanes):
    lane i of ones is 1, of low is 2^64 - 1, of steps is (i + 1) * golden
    mod 2^64."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\0") * lanes, "little")
    low = int.from_bytes((b"\xff" * 8).ljust(16, b"\0") * lanes, "little")
    index = bytearray(16 * lanes)
    index[::16] = range(lanes)
    steps = ((int.from_bytes(index, "little") + ones) * _GOLDEN) & low
    return ones, low, steps


_BLOCK = 256  # words per mixed block
_ONES, _LOW, _STEPS = _lane_constants(_BLOCK)


def _splitmix64(state: int) -> array:
    """The _BLOCK splitmix64 words that follow state, in stream order.

    Lane i of the mixed integer holds the (i + 1)-th word in its low 64
    bits, which are 64-bit position 2i of the integer's little-endian bytes.
    """
    z = (state * _ONES + _STEPS) & _LOW
    z = (((z ^ (z >> 30)) & _LOW) * _MIX1) & _LOW
    z = (((z ^ (z >> 27)) & _LOW) * _MIX2) & _LOW
    z ^= z >> 31
    words = array("Q", z.to_bytes(16 * _BLOCK, "little"))[::2]
    if sys.byteorder == "big":
        words.byteswap()
    return words


class ScriptExhaustedError(RuntimeError):
    """Raised when a ScriptedSource is asked for more words than it holds."""


def _read_only(record, name, *value) -> None:
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(record).__name__}")


def _hash_fields(record) -> int:
    return hash(record._astuple())


class Record:
    """Base of the package's small records: equality and repr over _fields.

    A subclass names its fields in _fields, in constructor order, and sets
    them in its own __init__.  Declared with frozen=True, it refuses
    assignment once built and hashes its fields; its __init__ then sets
    them through _init.  It stands in for dataclasses, whose import (with
    inspect) would add to the start-up of every CLI process.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _read_only
            cls.__hash__ = _hash_fields

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which a frozen record needs
        return type(self), self._astuple()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class DrawStats(Record):
    """Counters of logical draws, one field per variate family.

    A logical draw is one request made by calling code, counted once, when
    it returns: rejection retries inside it add nothing, and neither does a
    draw that raises.  The counters live in the instance dict: vars(stats)
    maps each family to its count, and copy, __sub__ and total read it.
    """

    _fields = ("uniform_int", "uniform_real", "bernoulli", "binomial", "beta",
               "beta_binomial", "hypergeometric")

    def __init__(self, uniform_int: int = 0, uniform_real: int = 0, bernoulli: int = 0,
                 binomial: int = 0, beta: int = 0, beta_binomial: int = 0,
                 hypergeometric: int = 0) -> None:
        self.uniform_int = uniform_int
        self.uniform_real = uniform_real
        self.bernoulli = bernoulli
        self.binomial = binomial
        self.beta = beta
        self.beta_binomial = beta_binomial
        self.hypergeometric = hypergeometric

    def copy(self) -> "DrawStats":
        return DrawStats(**vars(self))

    def __sub__(self, other: "DrawStats") -> "DrawStats":
        theirs = vars(other)
        return DrawStats(**{name: count - theirs[name] for name, count in vars(self).items()})

    def total(self) -> int:
        return sum(vars(self).values())


class RandomSource:
    """Deterministic splitmix64-backed source.

    The seed is taken modulo 2**64, so any Python integer (including
    negative ones) is accepted.  words_generated counts raw 64-bit outputs,
    which can exceed the logical draws in stats because bounded-integer
    rejection may burn more than one word per logical draw.

    The one buffer is the last mixed block: _words holds its _BLOCK words
    in stream order and _pos the next one to hand out.  Every draw reads
    there and writes _pos back when it returns, and a block is mixed when
    its first word is needed, so a source that draws nothing mixes nothing.
    _next is the stream index of the word after the block, so the words
    handed out are words_generated = _next - _BLOCK + _pos.
    """

    def __init__(self, seed: int) -> None:
        self.stats = DrawStats()
        self.seed = seed
        self._next = 0
        self._words = array("Q")
        self._pos = _BLOCK  # at the end, so the first draw mixes a block

    @property
    def words_generated(self) -> int:
        return self._next - _BLOCK + self._pos

    def _refill(self) -> array:
        """Mix the next block and buffer it; the caller reads it from 0."""
        self._words = words = _splitmix64((self.seed + self._next * _GOLDEN) & _MASK64)
        self._next += _BLOCK
        return words

    def next_uniform_real(self) -> float:
        """Uniform float in [0, 1), 53-bit resolution."""
        words, pos = self._words, self._pos  # route: uniform real
        if pos == _BLOCK:
            words, pos = self._refill(), 0
        self._pos = pos + 1
        self.stats.uniform_real += 1
        return (words[pos] >> 11) * (2.0 ** -53)

    def next_uniform_int(self, m: int) -> int:
        """Uniform integer in [1, m].

        Unbiased: takes the top bit_length(m-1) bits of a word and rejects
        values >= m, never reduces modulo m.  Counts as one logical draw no
        matter how many words the rejection loop consumes, once it returns.
        Bounds above 2^64 join several words per candidate.
        """
        if m < 1:
            raise ValueError(f"uniform int bound must be >= 1, got {m}")
        shift = 64 - (m - 1).bit_length()
        if shift < 0:
            return self.descending_ints(m, 1)[0]  # route: bounded int above 2^64
        words, pos = self._words, self._pos  # route: bounded int up to 2^64
        r = m
        while r >= m:
            if pos == _BLOCK:
                words, pos = self._refill(), 0
            r = words[pos] >> shift
            pos += 1
        self._pos = pos
        self.stats.uniform_int += 1
        return r + 1

    def descending_ints(self, n: int, k: int) -> list[int]:
        """The draws of next_uniform_int(n), next_uniform_int(n - 1), ...,
        k of them, with the same words and counters, in one loop.

        Bounds m above 2^64 are drawn one at a time, by rejection on
        candidates of bit_length(m - 1) bits cut from ceil(bits / 64) joined
        words.  The others run in stretches of equal bit_length(m - 1),
        which share one shift.
        """
        if not 0 <= k <= n:
            raise ValueError(f"draw count {k} outside [0, {n}]")
        out: list[int] = []
        append = out.append
        top, stop = n, n - k
        words, pos, refill = self._words, self._pos, self._refill
        while top > stop and top > 1 << 64:
            bits = (top - 1).bit_length()  # route: descending bounds above 2^64
            n_words = -(-bits // 64)
            r = top
            while r >= top:
                r = 0
                for _ in range(n_words):
                    if pos == _BLOCK:
                        words, pos = refill(), 0
                    r = (r << 64) | words[pos]
                    pos += 1
                r >>= 64 * n_words - bits
            append(r + 1)
            top -= 1
        while top > stop:
            bits = (top - 1).bit_length()  # route: descending bounds up to 2^64
            shift = 64 - bits
            # bounds in (2^(bits-1), 2^bits] share the shift; m = 1 has bits 0
            low = max(stop, (1 << bits) >> 1)
            for m in range(top, low, -1):
                r = m
                while r >= m:
                    if pos == _BLOCK:
                        words, pos = refill(), 0
                    r = words[pos] >> shift
                    pos += 1
                append(r + 1)
            top = low
        self._pos = pos
        self.stats.uniform_int += k
        return out

    def uniform_bytes(self, n: int) -> bytes:
        """n iid uniform bytes: the little-endian bytes of ceil(n / 8) words,
        each next_uniform_int(2**64) - 1 with its counter, cut to n."""
        if n < 0:
            raise ValueError(f"byte count must be >= 0, got {n}")
        count = words_read = -(-n // 8)  # route: byte batch
        words, pos = self._words, self._pos
        parts = []
        while count:
            if pos == _BLOCK:
                words, pos = self._refill(), 0
            take = min(count, _BLOCK - pos)
            part = words[pos:pos + take]
            if sys.byteorder == "big":
                part.byteswap()
            parts.append(part)
            pos += take
            count -= take
        self._pos = pos
        self.stats.uniform_int += words_read
        return b"".join(parts)[:n]


class ScriptedSource(RandomSource):
    """A RandomSource fed a fixed list of 64-bit words in place of
    splitmix64's, so that a hand trace runs the draw code of a seeded run.
    Draws refill only at the end of a block, so the first len % _BLOCK words
    end the first block.  A draw past the last word reaches _refill, which
    raises ScriptExhaustedError: the draw adds nothing to stats, and
    words_generated counts every word it read, the whole script."""

    def __init__(self, words) -> None:
        self.stats = DrawStats()
        self._script = array("Q", words)  # refuses anything that is not a word
        self._next = len(self._script) % _BLOCK  # where the next block starts
        self._pos = _BLOCK - self._next
        self._words = array("Q", bytes(8 * self._pos)) + self._script[:self._next]

    def _refill(self) -> array:
        start = self._next
        if start == len(self._script):
            self._pos = _BLOCK  # the raising draw cannot write back its pos
            raise ScriptExhaustedError(f"script of {start} words exhausted")
        self._next += _BLOCK
        self._words = words = self._script[start:self._next]
        return words

    @staticmethod
    def int_word(value: int, m: int) -> int:
        """The word that next_uniform_int(m) reads as value, for m <= 2^64."""
        if isinstance(value, bool) or not 1 <= value <= m <= 1 << 64:
            raise ValueError(f"no word reads as {value} in [1, {m}]")
        return (value - 1) << (64 - (m - 1).bit_length())

    @staticmethod
    def real_word(u: float) -> int:
        """The word that next_uniform_real reads as u floored to a multiple of 2^-53."""
        if not 0.0 <= u < 1.0:
            raise ValueError(f"real draw {u} outside [0, 1)")
        return int(u * 2.0 ** 53) << 11
