"""Seeded inputs of the benchmark workloads.

The program only ever sees the generator lists made here.  Both samples are
stratified, so that another seed draws other curves but the same mix of
the properties the program's cost depends on: embedding dimension for the
`analyze` calls, embedding dimension and genus for the deep set.

    python3 perfbench/inputs.py --seed 7     # print both lists for seed 7
"""

from __future__ import annotations

import argparse
import functools
import json
import random
from math import gcd

try:
    from . import reference
except ImportError:
    import reference

SWEEP_GENUS = 8

# analyze-cli: one draw per four curves of each embedding-dimension class
# of the genus <= 8 corpus, classes 1 to 6.  Embedding dimensions 7 to 9
# (13 curves) are left to the sweeps: one of them costs from 0.03 s to
# 7.8 s, as much as 35 median calls, so whether a seed drew the dear ones
# would decide the round time, while the rest cost at most 0.18 s.
ANALYZE_SHARE = 4
ANALYZE_MAX_EMBDIM = 6

# deep-lowembdim: per genus band [lo, lo + 5) from 15 to 60, this many
# curves of embedding dimension 2 (a band holds 13 to 18 of them) and 3
# (multiplicity 3 to 16, other generators up to 4 x multiplicity: a band
# holds 79 to 196 of them).
DEEP_BANDS = tuple(range(15, 60, 5))
DEEP_PER_BAND = {2: 6, 3: 27}

def analyze_sample(seed: int) -> list[tuple[int, ...]]:
    """Curves for the cold `analyze` calls, in enumeration order.

    The hand-checked witness <4,5,6,7> is always one of them.
    """
    rng = random.Random(f"analyze-{seed}")
    corpus = reference.corpus_by_genus(SWEEP_GENUS)
    picked = {reference.WITNESS}
    for e in range(1, ANALYZE_MAX_EMBDIM + 1):
        cls = [g for g in corpus if len(g) == e and g not in picked]
        k = max(1, round(len(cls) / ANALYZE_SHARE))
        picked.update(rng.sample(cls, k))
    return [g for g in corpus if g in picked]


def _plane_curves(lo: int, hi: int) -> list[tuple[int, int]]:
    """Every <a, b> of genus (a - 1)(b - 1) / 2 in [lo, hi)."""
    return [(a, b) for a in range(2, 2 * hi + 2)
            for b in range(a + 1, 2 * hi + 2)
            if gcd(a, b) == 1 and lo <= (a - 1) * (b - 1) // 2 < hi]


@functools.lru_cache(maxsize=None)
def _space_curves() -> dict[int, list[tuple[int, ...]]]:
    """Every <q, b, c> with 3 <= q <= 16 and q < b < c <= 4q, minimally
    generated, by genus band."""
    bands: dict[int, list[tuple[int, ...]]] = {lo: [] for lo in DEEP_BANDS}
    for q in range(3, 17):
        for b in range(q + 1, 4 * q + 1):
            for c in range(b + 1, 4 * q + 1):
                if gcd(q, b, c) != 1:
                    continue
                curve = reference.closure((q, b, c))
                lo = curve.genus - (curve.genus - DEEP_BANDS[0]) % 5
                if curve.embdim == 3 and lo in bands:
                    bands[lo].append(curve.min_generators)
    return bands


def _spread(rng: random.Random, pool, count: int) -> list[tuple[int, ...]]:
    """One random pick from each of `count` equal slices of the pool
    ordered by conductor + largest generator, which tracks the cost of a
    report, so that every seed draws about the same mix of costs."""
    ranked = sorted(pool, key=lambda g: (
        reference.closure(g).conductor + g[-1], g))
    cuts = [len(ranked) * i // count for i in range(count + 1)]
    return sorted(rng.choice(ranked[a:b]) for a, b in zip(cuts, cuts[1:]))


def deep_sample(seed: int) -> list[tuple[int, ...]]:
    """Distinct curves of embedding dimension 2 and 3, genus 15 to 59."""
    rng = random.Random(f"deep-{seed}")
    out: list[tuple[int, ...]] = []
    for lo in DEEP_BANDS:
        out += _spread(rng, _plane_curves(lo, lo + 5), DEEP_PER_BAND[2])
        out += _spread(rng, _space_curves()[lo], DEEP_PER_BAND[3])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps({"seed": args.seed,
                      "deep-lowembdim": deep_sample(args.seed),
                      "analyze-cli": analyze_sample(args.seed)}))


if __name__ == "__main__":
    main()
