"""Seeded Monte Carlo estimation of expected pivot counts.

Each trial draws from its own substream derived deterministically from
(seed, trial index) by hashing, so estimates are bit-identical across
platforms and across any partitioning of trials over workers: trial i
always sees the same randomness no matter who runs it.

The start tree is validated once per estimate, before the first trial;
each trial then drives algorithms.steps and counts its pivot
events; steps asks a trial's chooser once per descent.  A Random-Facet
trial makes one rng.randrange draw per choice point, exactly as
run_random_facet does, all of a descent's draws in one _draws call; a
Random-Facet* trial draws a uniform order of all edges by Fisher-Yates
and sorts each descent by it, exactly as run_random_facet_star does
with that order.

A share of at least |F|! trials, the number of orders of F, must repeat
rfstar's runs, and repeats rf's on every instance that small measured;
there _trials keeps a memo keyed by the draws, local to the call, since
a trial's pivot count is a function of its draws alone.  An rfstar
trial whose Fisher-Yates draws the share has met replays its pivot
count whole, without building its ranks.  That memo holds at most |F|!
shuffles: with F a proper subset of the edges, the m-edge shuffles
outnumber the orders of F.  Every other trial walks a trie of the
descents the share has met, each keyed by its rf draws or its rfstar
picks.  A descent met before replays its pivot count and next pause
point; a new one is resumed at its pause point by algorithms._resume,
the routine branches() resumes through, with a chooser that answers
that one descent and then pauses, keeping the candidates steps() hands
it for the next descent, so only algorithms reads a pause point's
fields.  Every trial still makes all of its draws, and a descent's
pivots and next pause are a function of its pause point and picks,
which its draws fix, so no count can change.  Below the threshold each
trial runs steps() from the start: where runs seldom repeat the memo
only costs (always on, it doubled the time of 3 000 trials at m = 40).

pivot_samples splits range(trials) into contiguous shares, one per
usable CPU but none smaller than MIN_SHARE trials.  The calling process
runs share 0 itself; each other share runs in a child made by os.fork,
which writes its counts to a pipe and leaves by os._exit.  The parent
joins the counts in trial order, so every sample, sum, mean and stderr
is the serial one, bit for bit.  A child that exits nonzero or sends
too few counts has its share rerun in the parent, which then raises the
same error or returns the same counts; if the parent raises, it kills
and reaps every child first, so no process outlives the call.  The run
stays serial, in the calling process, when there would be fewer than
two shares, when os.fork does not exist, or when another thread is
alive.  There is no flag: the split cannot change a result.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
import random
import signal
import threading
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from .algorithms import RF, RULES, _resume, random_order, start_state, steps
from .errors import ZeroTrials
from .graph import EdgeId, Instance, TreePolicy

# the fewest trials worth a process of their own: on a shared 2-core x86
# machine under Python 3.11 a bare fork and its join cost about 1 ms, and
# MIN_SHARE errata trials 8 to 10 ms; 1 000 errata trials take 11 to
# 14 ms in one share with the memo, but 18 to 23 ms in two such shares,
# each below the memo's 6! trials, so there the split costs more than it
# saves
MIN_SHARE = 500


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


def _ranks(m: int, shuffle) -> list[int]:
    # Fisher-Yates over the edge ids, one of `shuffle`'s draws per
    # position, high index first; rank[e] is e's position in the order
    order = list(range(m))
    for i, j in zip(range(m - 1, 0, -1), shuffle):
        order[i], order[j] = order[j], order[i]
    return sorted(range(m), key=order.__getitem__)


def _trials(idx, fmask: int, bmask: int, rule: str, m: int, seed: int,
            lo: int, hi: int) -> list[int]:
    """Pivot counts of trials lo..hi-1 from the checked start state.

    From |F|! trials on, the memo of the module docstring: `shuffles`
    maps at most |F|! rfstar shuffles to their pivot counts, and a trie
    node is (pause point, its candidates, {key: (pivots, next node or
    None)}), a descent's key being its rf draws or its rfstar picks.  A
    new node keeps the list steps() hands the chooser just before it
    pauses, which steps() never touches again.
    """
    orders = math.factorial(fmask.bit_count())
    memo = orders <= hi - lo
    root = ((fmask, bmask), idx.edge_bits(fmask & ~bmask), {})
    shuffles: dict[tuple[int, ...], int] = {}
    samples = []
    for i in range(lo, hi):
        getrandbits = trial_rng(seed, i).getrandbits
        if rule == RF:
            draws = partial(_draws, getrandbits)
            order = random_order(draws)
        else:
            shuffle = _draws(getrandbits, range(m, 1, -1))
            drawn = tuple(shuffle)
            if drawn in shuffles:
                samples.append(shuffles[drawn])
                continue
            order = partial(sorted, key=_ranks(m, shuffle).__getitem__)
        pivots = 0
        if memo:
            node = root
            while node:
                point, cands, moves = node
                key = tuple(draws(range(len(cands), 0, -1)) if rule == RF else order(cands))
                if key in moves:
                    n, node = moves[key]
                else:  # resume the run for this one descent; None at its end
                    picks = random_order(lambda _: key)(cands.copy()) if rule == RF else key
                    asked = []  # its candidates, answered by picks, then the next node's
                    events, point = _resume(
                        idx, point, lambda c: [] if asked.append(c) or len(asked) > 1 else picks)
                    node = point and (point, asked[-1], {})
                    n, node = moves[key] = sum(ev[0] == "pivot" for ev in events), node
                pivots += n
            if rule != RF and len(shuffles) < orders:
                shuffles[drawn] = pivots
        else:
            for ev in steps(idx, fmask, bmask, order):
                if ev[0] == "pivot":
                    pivots += 1
        samples.append(pivots)
    return samples


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(trials: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) trial ranges, one per process that runs them."""
    k = min(_usable_cpus(), trials // MIN_SHARE)
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [(0, trials)]
    return [(trials * j // k, trials * (j + 1) // k) for j in range(k)]


def _run_shares(run: Callable[[int, int], list[int]], shares: list[tuple[int, int]]) -> list[int]:
    """run over every share in trial order: share 0 here, each other in a child."""
    children = []  # (pid, read end, lo, hi) of each child not yet reaped
    end = shares[0][1]  # trials [0, end) run here or in a child
    try:
        for lo, hi in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent runs the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # the child; a line tracer in the parent never sees these
                try:
                    os.close(r)  # a write then fails, not blocks, if the parent dies
                    os.write(w, array("q", run(lo, hi)).tobytes())
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, r, lo, hi))
            end = hi
        samples = run(*shares[0])
        while children:
            pid, r, lo, hi = children[0]
            with open(r, "rb") as pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if status == 0 and len(sent) == 8 * (hi - lo):
                samples += memoryview(sent).cast("q")
            else:
                samples += run(lo, hi)
        return samples + run(end, shares[-1][1])
    finally:
        for pid, r, _, _ in children:
            with contextlib.suppress(OSError):
                os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    idx, fmask = start_state(inst, facets, start)
    run = partial(_trials, idx, fmask, start.mask, rule, inst.m, seed)
    return _run_shares(run, _shares(trials))


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
