"""Seeded input generation: records, Zipfian ranks, dictionary words.

Everything a workload feeds the program is made here from ``--seed``
during set-up; the program sees only the generated inputs.
"""

from __future__ import annotations

import itertools
import random

#: skew of every Zipfian stream (YCSB's default)
ZIPF_THETA = 0.99

KEY_LEN = 14
FILLER_LEN = 100
#: 8-byte big-endian version, then the key-derived filler
VALUE_LEN = 8 + FILLER_LEN

def version_bytes(version: int) -> bytes:
    return version.to_bytes(8, "big")


class Records:
    """``n`` records: 14-byte keys, and values whose first 8 bytes are a
    version the benchmark keeps in ``self.version`` -- so every value read
    back can be checked exactly."""

    def __init__(self, n: int, seed: int) -> None:
        rng = random.Random(seed)
        # a seeded stride keeps keys unique and seed-dependent, so the
        # hash distribution (hence page counts) differs between seeds
        base = rng.randrange(10**9)
        self.n = n
        self.keys = [b"k%013d" % (base + i * 7919) for i in range(n)]
        self.fillers = [(k * 8)[:FILLER_LEN] for k in self.keys]
        self.version = [0] * n

    def value(self, i: int) -> bytes:
        """Current expected value of record ``i``."""
        return version_bytes(self.version[i]) + self.fillers[i]

    def next_value(self, i: int) -> bytes:
        """Bump record ``i``'s version and return the value to write."""
        v = self.version[i] = self.version[i] + 1
        return version_bytes(v) + self.fillers[i]

    def items(self) -> list[tuple[bytes, bytes]]:
        return [(k, self.value(i)) for i, k in enumerate(self.keys)]

    def live_bytes(self) -> int:
        return self.n * (KEY_LEN + VALUE_LEN)


def zipf_indices(n: int, count: int, rng: random.Random) -> list[int]:
    """``count`` record indices, Zipfian (theta 0.99) over a seeded
    permutation of ``range(n)`` so the hot records are scattered."""
    cum = list(itertools.accumulate(1.0 / rank**ZIPF_THETA for rank in range(1, n + 1)))
    perm = list(range(n))
    rng.shuffle(perm)
    return rng.choices(perm, cum_weights=cum, k=count)


def uniform_indices(n: int, count: int, rng: random.Random) -> list[int]:
    return rng.choices(range(n), k=count)


_ONSETS = "b c d f g h j k l m n p r s t v w st tr ch sh th br gr pl".split()
_VOWELS = "a e i o u y ea ou".split()
_ENDINGS = ["", "", "", "s", "ed", "ing", "er", "ly", "tion", "ness"]


def dictionary_pairs(n: int, seed: int) -> list[tuple[bytes, bytes]]:
    """The paper's data set in shape: ``n`` unique lower-case words (mean
    about 8 characters) each paired with "an ASCII string for an integer
    from 1 to n inclusive", in seeded insertion order."""
    rng = random.Random(seed)
    words: dict[bytes, None] = {}
    while len(words) < n:
        syllables = rng.choices((1, 2, 3, 4), weights=(1, 4, 3, 1))[0]
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables)
        ) + rng.choice(_ENDINGS)
        if word.encode() in words:
            word += str(len(words))
        words[word.encode()] = None
    return [(w, b"%d" % i) for i, w in enumerate(words, start=1)]
