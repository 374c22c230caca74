#!/usr/bin/env python3
"""Writes golden_repeats.fasta: ~100 ESTs rich in the repeats that make one
string occur more than once below a GST node.

Real EST libraries carry poly-A tails (poly-T heads on reads of the other
strand), microsatellites and duplicated exon segments. Each of these puts
two suffixes of one string into one bucket subtree with a long common
prefix, so the pair walk's duplicate elimination has to drop the later
one. The fixture pins that path in PairGenerator.GoldenPairStream.

The output is deterministic (fixed seed, Python's Mersenne Twister):

    python3 tests/data/make_golden_repeats.py > tests/data/golden_repeats.fasta
"""

import random

rng = random.Random(20021122)
BASES = "ACGT"
COMPLEMENT = str.maketrans("ACGT", "TGCA")


def dna(n):
    return "".join(rng.choice(BASES) for _ in range(n))


def revcomp(s):
    return s.translate(COMPLEMENT)[::-1]


def mutate(s, rate):
    out = list(s)
    for i, c in enumerate(out):
        if rng.random() < rate:
            out[i] = rng.choice([b for b in BASES if b != c])
    return "".join(out)


def gene(length, motif=None, copies=0, duplicate=0):
    """A random transcript, optionally with a tandem repeat of `motif` and
    a `duplicate`-base segment copied further along."""
    body = dna(length)
    if motif:
        at = rng.randrange(100, length - 100)
        body = body[:at] + motif * copies + body[at:]
    if duplicate:
        src = rng.randrange(50, length // 2 - duplicate)
        dst = rng.randrange(length // 2, length - 50)
        body = body[:dst] + body[src:src + duplicate] + body[dst:]
    return body


GENES = [
    gene(760, motif="CA", copies=18),
    gene(820, motif="CAG", copies=12),
    gene(700, duplicate=60),
    gene(880, motif="AAT", copies=10, duplicate=45),
    gene(740, motif="GGAA", copies=8),
    gene(800),
]


def est(g):
    """One read of gene g: a 3' read runs into the poly-A tail, a 5' read
    starts near the cap; a third of the reads come from the other strand."""
    body = GENES[g]
    length = rng.randrange(240, 420)
    if rng.random() < 0.6:
        tail = rng.randrange(12, 61)
        read = body[max(0, len(body) - length + tail):] + "A" * tail
    else:
        start = rng.randrange(0, max(1, len(body) - length))
        read = body[start:start + length]
        if rng.random() < 0.2:
            read += "T" * rng.randrange(20, 41)
    read = mutate(read, 0.004)
    return revcomp(read) if rng.random() < 1 / 3 else read


def main():
    for i in range(100):
        print(f">rep{i}")
        seq = est(i % len(GENES))
        for k in range(0, len(seq), 70):
            print(seq[k:k + 70])


main()
