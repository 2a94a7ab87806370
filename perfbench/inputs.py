"""Seeded input generators, one per workload.

Every generator takes the seed as its only argument and returns plain data
plus a SHA-256 digest of everything it generated (words, machine matrices,
recipe texts), so two runs can show they measured the same inputs.  The sizes are fixed per workload; the seed only draws contents, so
the work done per pass stays nearly constant from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np


def digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(np.ascontiguousarray(part).tobytes())
        else:
            hasher.update(json.dumps(part, sort_keys=True).encode())
    return hasher.hexdigest()


def doubled(word: str) -> str:
    """The 2n partner of a word: every letter written twice.

    Doubling keeps the class of every word used here: Dyck words stay Dyck,
    equal counts stay equal, unequal counts stay unequal and a word outside
    a+b+c+ stays outside it.
    """
    return "".join(letter + letter for letter in word)


def _dyck(rng: random.Random, pairs: int) -> str:
    letters = []
    opened = closed = 0
    while closed < pairs:
        if opened < pairs and (opened == closed or rng.random() < 0.5):
            letters.append("(")
            opened += 1
        else:
            letters.append(")")
            closed += 1
    return "".join(letters)


def _shuffled(rng: random.Random, alphabet: str, each: int) -> str:
    letters = list(alphabet * each)
    rng.shuffle(letters)
    return "".join(letters)


# --- long_words ---------------------------------------------------------------

#: (machine name, n_paths) of the two long_words machines
LONG_MACHINES = (("m2", 10), ("m3", 5))


@dataclass(frozen=True)
class WordCase:
    machine: tuple[str, int]
    kind: str  # member, unequal, shuffled or wrong_shape
    word: str
    pair: int  # index shared by a word and its doubled partner
    double: bool


def long_words(seed: int) -> tuple[list[WordCase], str, str]:
    """Nested/block members, unequal counts, wrong shapes and shuffles.

    Each base word comes with its doubled partner (n and 2n symbols, 24 to
    128 in all).  Members and unequal-count words run the full N-path
    comparison and carry almost all of the time.  Shuffled equal-count words
    run on m3 only: m2 either rejects such a word within a few steps or runs
    it to the end, depending on the draw, which would make the work of a
    pass swing by half from seed to seed.  Also returns an acid/base recipe
    for the CLI probe and the digest.
    """
    rng = random.Random(seed)
    base: list[tuple[tuple[str, int], str, str]] = []
    m2, m3 = LONG_MACHINES
    base.append((m2, "member", _dyck(rng, 16)))
    # two extra ')' at the end or two extra '(' in front: both run to the end
    inner = _dyck(rng, 11)
    base.append((m2, "unequal", inner + "))" if rng.random() < 0.5 else "((" + inner))
    base.append((m3, "member", "a" * 14 + "b" * 14 + "c" * 14))
    counts = [21, 21, 21]
    plus, minus = rng.sample(range(3), 2)
    counts[plus] += 1
    counts[minus] -= 1
    base.append((m3, "unequal", "a" * counts[0] + "b" * counts[1] + "c" * counts[2]))
    # a block word with one letter moved out of block order
    block = list("a" * 21 + "b" * 22 + "c" * 21)
    source = rng.randrange(21, 43)
    target = rng.choice([rng.randrange(0, 20), rng.randrange(44, 64)])
    block.insert(target, block.pop(source))
    base.append((m3, "wrong_shape", "".join(block)))
    base.append((m3, "shuffled", _shuffled(rng, "abc", 16)))
    cases = []
    for pair, (machine, kind, word) in enumerate(base):
        cases.append(WordCase(machine, kind, word, pair, False))
        cases.append(WordCase(machine, kind, doubled(word), pair, True))
    recipe = recipe_text(rng, "ACID_BASE", _dyck(rng, 4))
    return cases, recipe, digest([[c.machine, c.kind, c.word] for c in cases], recipe)


# --- dense_machine -------------------------------------------------------------

#: state counts of the random machines, spanning 16 to 48
DENSE_SIZES = (16, 24, 32, 48)
#: base word lengths; every machine also runs a word twice as long, so the
#: words have 64 to 256 symbols
DENSE_LENGTHS = (64, 128)
#: machines drawn for each state count and base length
DENSE_REPEATS = 3


@dataclass(frozen=True)
class RandomMachine:
    name: str
    states: tuple[str, ...]
    head: tuple[int, ...]
    accept: tuple[str, ...]
    reject: tuple[str, ...]
    matrices: dict  # tape symbol -> complex unitary, columns are sources
    words: tuple[tuple[str, int, bool], ...]  # (word, pair, is the 2n word)


def _random_unitary(gen: np.random.Generator, size: int) -> np.ndarray:
    z = (gen.standard_normal((size, size)) + 1j * gen.standard_normal((size, size))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diagonal = np.diag(r)
    return q * (diagonal / np.abs(diagonal))


def dense_machines(seed: int) -> tuple[list[RandomMachine], str, str]:
    """Random well-formed machines over {a, b}, dense in every symbol.

    Each symbol matrix is a Haar-random unitary, so almost every
    configuration carries amplitude after a few steps; two accepting and two
    rejecting states drain the mass.  Each machine runs one word of the base
    length and one independent word twice as long.  The long word is not the
    doubled base word: doubled random words drain far slower on some
    machines, which swung the work of a pass by a tenth from seed to seed.
    Also returns a precipitation recipe for the CLI probe and the digest.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    rng = random.Random(seed)
    machines = []
    for length in DENSE_LENGTHS:
        for size in DENSE_SIZES:
            for _ in range(DENSE_REPEATS):
                states = tuple(f"s{i}" for i in range(size))
                halting = rng.sample(states[1:], 4)
                matrices = {symbol: _random_unitary(gen, size) for symbol in "#ab$"}
                head = tuple(int(move) for move in gen.integers(-1, 2, size))
                words = tuple(
                    ("".join(rng.choice("ab") for _ in range(n)), 0, n != length)
                    for n in (length, 2 * length)
                )
                machines.append(RandomMachine(
                    name=f"dense{len(machines)}", states=states, head=head,
                    accept=tuple(halting[:2]), reject=tuple(halting[2:]),
                    matrices=matrices, words=words,
                ))
    recipe = recipe_text(rng, "PRECIPITATION", "".join(rng.choice("ab") for _ in range(8)))
    parts = [recipe]
    for m in machines:
        parts += [[m.states, m.head, m.accept, m.reject, m.words]]
        parts += [m.matrices[symbol] for symbol in "#ab$"]
    return machines, recipe, digest(*parts)


# --- recipes for the CLI probes --------------------------------------------------

_SPECIES = {
    "ACID_BASE": {"(": ("malonic acid", "MA"), ")": ("NaOH", "sodium hydroxide")},
    "PRECIPITATION": {"a": ("KIO3", "potassium iodate"), "b": ("AgNO3", "silver nitrate")},
}


def recipe_text(rng: random.Random, system: str, word: str) -> str:
    """A recipe whose transcription is `word`, naming each species by a drawn synonym."""
    return f"system: {system}\n" + "".join(rng.choice(_SPECIES[system][x]) + "\n" for x in word)
