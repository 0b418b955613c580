"""lcp boxes: the first-difference subroutine the compression stages call.

``lcp_exact`` answers exactly; ``lcp_randomized`` runs a binary search over
prefix lengths whose equality tests compare shared random inner-product
hashes, so it errs only by a hash collision, with probability at most its
rate (Feige, Raghavan, Peleg and Upfal, "Computing with noisy
information", SIAM J. Comput. 1994).  ``LcpBox`` wraps either one with
the bit accounting and keeps a history of its calls.

A randomized box answers a history of calls exactly iff no test on the
exact search path collides, and which tests those are depends only on the
strings and the rate.  ``draw_plan`` lists them once, and ``plan_holds``
decides for one seed, drawing the same random words as the box, whether a
box on that seed would answer the whole history exactly.  Randomized
compression trials use the pair instead of running a box per trial.  All
three share one walk over a pair's search facts, ``_walk``, and one test,
``_detected``; a box derives each distinct pair's facts once.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import ConfigError

# (owed words, mid, XOR of the mid-bit prefixes, hash_bits) per planned test
DrawPlan = list[tuple[int, int, int, int]]


def _len_exchange_bits(n: int) -> int:
    return 2 * math.ceil(math.log2(n + 2))


def _prefix_xor(x: str, y: str) -> tuple[int, int]:
    """The shorter length m and the XOR of both m-bit prefixes as integers;
    the strings first differ at ``m - xor.bit_length()``."""
    m = min(len(x), len(y))
    xi = int(x, 2) if x else 0
    yi = int(y, 2) if y else 0
    return m, (xi >> (len(x) - m)) ^ (yi >> (len(y) - m))


def _hash_bits(m: int, eps: float) -> int:
    """Masks per equality test of a search over m prefix lengths: the union
    bound over its at most ``tests`` tests stays within eps."""
    tests = max(1, math.ceil(math.log2(m + 1)))
    return max(1, math.ceil(math.log2(tests) - math.log2(eps)))


def lcp_exact(x: str, y: str) -> int | None:
    """First index where the strings differ; None if equal.

    Unequal lengths with one a prefix of the other report the difference at
    the shorter length (the position where one string ran out).
    """
    m, diff = _prefix_xor(x, y)
    if diff or len(x) != len(y):
        return m - diff.bit_length()
    return None


def lcp_exact_cost(x: str, y: str) -> int:
    """Accounted bits: both lengths, then the answer index (with slots for
    "equal" and an out-of-range sentinel)."""
    n = max(len(x), len(y))
    return _len_exchange_bits(n) + math.ceil(math.log2(n + 2))


def _search_facts(x: str, y: str, eps: float) -> tuple:
    """What a randomized search at rate eps reads of x and y: the shorter
    length m, the XOR of the m-bit prefixes, the first difference, the hash
    bits and the length-exchange bits."""
    m, full_diff = _prefix_xor(x, y)
    return (m, full_diff, m - full_diff.bit_length(), _hash_bits(m, eps),
            _len_exchange_bits(max(len(x), len(y))))


def _walk(facts: tuple, owed: int,
          test: Callable[[tuple], bool]) -> tuple[int, int, int]:
    """A randomized box's binary search over the prefix lengths of a pair,
    ``owed`` RNG words in debt.  A test at or below the first difference
    passes whatever its masks are, so it only owes the 32-bit words they
    take; any other calls ``test((owed, mid, XOR of the mid-bit prefixes,
    hash_bits))``, which pays the debt and is True iff it finds them
    unequal.  Returns the answer, the tests' bits and the words owed."""
    m, full_diff, first_diff, hash_bits, _ = facts
    tests = 0
    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        tests += 1
        if mid <= first_diff:
            owed += hash_bits * -(-mid // 32)
            lo = mid
        elif test((owed, mid, full_diff >> (m - mid), hash_bits)):
            hi, owed = mid - 1, 0
        else:
            lo, owed = mid, 0
    return lo, tests * (hash_bits + 1), owed


def _detected(getrandbits, tests) -> bool:
    """True iff every test finds its prefixes unequal as a box draws it: the
    owed words in one call (the RNG ends as if it drew each mask), then up
    to ``hash_bits`` masks; <x, mask> != <y, mask> iff <x ^ y, mask> is odd."""
    for owed, mid, diff, hash_bits in tests:
        if owed:
            getrandbits(32 * owed)
        for _ in range(hash_bits):
            if (diff & getrandbits(mid)).bit_count() & 1:
                break
        else:
            return False
    return True


def _search(facts: tuple, same_length: bool, getrandbits):
    """A randomized box's answer and bits on a pair; the RNG ends as if
    it drew every mask."""
    lo, test_bits, owed = _walk(facts, 0,
                                lambda test: _detected(getrandbits, (test,)))
    if owed:
        getrandbits(32 * owed)
    comm = facts[4] + test_bits
    if same_length and lo == facts[0]:
        return None, comm
    return lo, comm


def lcp_randomized(
    x: str, y: str, eps: float, rng: random.Random
) -> tuple[int | None, int]:
    """Randomized first-difference finder; errs with probability <= eps.

    Binary search over prefix lengths; each equality test compares shared
    random inner-product hashes.  Collisions are one-sided (an "unequal"
    verdict is always true), so a union bound over the tests gives the
    per-call error.  Returns (answer, communicated bits): the two lengths,
    then per test one hash and a one-bit verdict.
    """
    if not 0 < eps < 1:
        raise ConfigError("lcp error rate must be in (0, 1)")
    return _search(_search_facts(x, y, eps), len(x) == len(y),
                   rng.getrandbits)


def draw_plan(history, eps: float) -> DrawPlan:
    """The tests that can collide when a randomized box of rate eps answers
    ``history``'s calls (x, y, answer) exactly, in order.

    These are the exact search path's tests above each call's first
    difference.  Each carries the words that the always-passing tests
    before it owe the RNG, since the previous planned test and across call
    boundaries; words owed after the last test are never read.
    """
    plan: DrawPlan = []

    def planned(test) -> bool:
        plan.append(test)
        return True  # the exact path: the test finds the prefixes unequal

    owed = 0
    for x, y, _ in history:
        owed = _walk(_search_facts(x, y, eps), owed, planned)[2]
    return plan


def plan_holds(plan: DrawPlan, seed: int) -> bool:
    """True iff a randomized box seeded with ``seed`` answers the planned
    history exactly: every planned test finds its prefixes unequal."""
    return not plan or _detected(random.Random(seed).getrandbits, plan)


@dataclass(frozen=True)
class LcpBox:
    """Accounting wrapper around the exact or randomized first-difference
    subroutine; exact mode never errs and draws no randomness.  ``history``
    lists every call as (x, y, answer), in order, and ``comm_bits`` sums
    their bits.

    A box keeps each distinct (x, y) pair's answer and cost (exact) or
    search facts (randomized, masks drawn afresh per call) for its life,
    so it is frozen: ``mode``, ``eps`` and ``seed`` cannot change under the
    memo.  A repeated call still counts as a call, with its bits and its
    ``history`` entry."""

    mode: str = "exact"
    eps: float = 0.01
    seed: int = 0
    history: list[tuple[str, str, int | None]] = field(
        init=False, default_factory=list, repr=False
    )
    _bits: list[int] = field(init=False, default_factory=lambda: [0],
                             repr=False)
    _rng: random.Random | None = field(init=False, default=None, repr=False)
    _known: dict[tuple[str, str], tuple] = field(
        init=False, default_factory=dict, repr=False
    )

    def __post_init__(self):
        if self.mode not in ("exact", "randomized"):
            raise ConfigError(f"unknown lcp mode {self.mode!r}")
        if self.mode == "randomized":
            if not 0 < self.eps < 1:
                raise ConfigError("lcp error rate must be in (0, 1)")
            object.__setattr__(self, "_rng", random.Random(self.seed))

    @property
    def comm_bits(self) -> int:
        return self._bits[0]

    @property
    def calls(self) -> int:
        return len(self.history)

    def compare(self, x: str, y: str) -> int | None:
        known = self._known.get((x, y))
        if self._rng is None:
            if known is None:
                known = self._known[x, y] = (lcp_exact(x, y),
                                             lcp_exact_cost(x, y))
            answer, comm = known
        else:
            if known is None:
                known = self._known[x, y] = _search_facts(x, y, self.eps)
            answer, comm = _search(known, len(x) == len(y),
                                   self._rng.getrandbits)
        self._bits[0] += comm
        self.history.append((x, y, answer))
        return answer
