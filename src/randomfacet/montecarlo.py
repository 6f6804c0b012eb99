"""Seeded Monte Carlo estimation of expected pivot counts.

Each trial draws from its own substream derived deterministically from
(seed, trial index) by hashing, so estimates are bit-identical across
platforms and across any partitioning of trials over workers: trial i
always sees the same randomness no matter who runs it.

The start tree is validated once per estimate, before the first trial;
each trial then drives algorithms.steps directly and counts its pivot
events; steps asks a trial's chooser once per descent.  A Random-Facet
trial makes one rng.randrange draw per choice point, exactly as
run_random_facet does, all of a descent's draws in one _draws call; a
Random-Facet* trial draws a uniform order of all edges by Fisher-Yates
and sorts each descent by it, exactly as run_random_facet_star does
with that order.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .algorithms import RF, RF_STAR, random_order, start_state, steps
from .errors import ZeroTrials
from .graph import EdgeId, Instance, TreePolicy


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    trials: int
    seed: int

    def format(self) -> str:
        return (
            f"mean={self.mean:.6f} stderr={self.stderr:.6f} "
            f"trials={self.trials} seed={self.seed}"
        )


def trial_rng(seed: int, index: int) -> random.Random:
    """Counter-based substream: hash (seed, index) into a generator seed."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draws(getrandbits, bounds) -> list[int]:
    """rng.randrange(k) for each k in `bounds`, in one call: randrange's own
    rejection sampling on getrandbits(k.bit_length()), run inline."""
    out = []
    for k in bounds:
        bits = k.bit_length()
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        out.append(r)
    return out


def _random_ranks(getrandbits, m: int) -> list[int]:
    # Fisher-Yates over the edge ids, one draw per position, high index
    # first; rank[e] is e's position in the shuffled order
    order = list(range(m))
    for i, j in zip(range(m - 1, 0, -1), _draws(getrandbits, range(m, 1, -1))):
        order[i], order[j] = order[j], order[i]
    return sorted(range(m), key=order.__getitem__)


def pivot_samples(
    inst: Instance,
    facets: Iterable[EdgeId] | None,
    start: TreePolicy,
    rule: str,
    trials: int,
    seed: int,
) -> list[int]:
    """Per-trial pivot counts; trial i depends only on (seed, i).

    Raises ValueError, before any trial, on an unknown rule or a start
    tree that start_state refuses.
    """
    if trials < 1:
        raise ZeroTrials("at least one trial is required")
    if rule not in (RF, RF_STAR):
        raise ValueError(f"unknown rule {rule!r}")
    idx, fmask = start_state(inst, facets, start)
    bmask = start.mask
    samples = []
    for i in range(trials):
        getrandbits = trial_rng(seed, i).getrandbits
        if rule == RF:
            order = random_order(partial(_draws, getrandbits))
        else:
            order = partial(sorted, key=_random_ranks(getrandbits, inst.m).__getitem__)
        pivots = 0
        for ev in steps(idx, fmask, bmask, order):
            if ev[0] == "pivot":
                pivots += 1
        samples.append(pivots)
    return samples


def estimate_expected_pivots(
    inst: Instance,
    facets: Iterable[EdgeId] | None,
    start: TreePolicy,
    rule: str,
    trials: int,
    seed: int,
) -> Estimate:
    """Sample mean and standard error of the pivot count.

    stderr is the sample standard deviation over sqrt(trials); a single
    trial reports stderr 0.0.
    """
    samples = pivot_samples(inst, facets, start, rule, trials, seed)
    n = len(samples)
    mean = sum(samples) / n
    if n > 1:
        var = sum((s - mean) ** 2 for s in samples) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    return Estimate(mean=mean, stderr=stderr, trials=n, seed=seed)
