"""Coordinator-phase conversion to an oblivious protocol.

``obliviousize`` makes any protocol oblivious at a bounded error cost, by
forcing all traffic through player 1 in fixed phases of one queued bit per
player, so that ``compression`` can compress it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from fractions import Fraction

from .errors import ConfigError, check_budget
from .measures import InputDistribution, acc, weighted_executions
from .model import (
    DEFAULT_BUDGET,
    ProgramDriver,
    ProtocolDef,
    Round,
    View,
    fold_views,
    pi_bits,
    run_all,
)


def truncation_mass(
    p: ProtocolDef,
    mu: InputDistribution,
    threshold: int,
    budget: int | None = DEFAULT_BUDGET,
) -> Fraction:
    """Exact probability that a run of p transmits >= threshold bits."""
    rows, den = weighted_executions(p, mu, budget)
    heavy = (n for _, n, _, _, recs in rows if pi_bits(recs) >= threshold)
    return Fraction(sum(heavy), den)


def _player_width(k: int) -> int:
    return max(1, math.ceil(math.log2(k)))


def _encode_player(i: int, k: int) -> str:
    return format(i - 1, f"0{_player_width(k)}b")


class _InnerSim:
    """Runs one player's original program on the bits forwarded so far,
    splitting each sender's bits into messages with the table's
    ``codeword``.  Built once per player; ``restart`` starts each run."""

    def __init__(self, p, table, i):
        self.table = table
        self.driver = ProgramDriver(p, i)

    def restart(self, view: View) -> "_InnerSim":
        self.driver.restart(view.input, view.private_tape, view.public_tape)
        self.partial: dict[int, str] = {}  # sender -> unfinished message bits
        self.read_pos: dict[int, int] = {}
        self.queue: deque[tuple[int, str]] = deque()  # (destination, bit)
        self._queue_new_sends()
        return self

    def feed(self, origin: int, bit: str) -> None:
        bits = self.partial.get(origin, "") + bit
        pos = self.read_pos.get(origin, 0)
        word = self.table.codeword(origin, self.driver.player, pos, bits)
        if word is None:
            self.partial[origin] = bits
            return
        self.partial[origin] = ""
        self.read_pos[origin] = pos + 1
        self.driver.feed(origin, word)
        self._queue_new_sends()

    def _queue_new_sends(self) -> None:
        queued = len(self.driver.sends)
        for round_sends in self.driver.run().sends[queued:]:
            for dest, content in round_sends:
                self.queue.extend((dest, bit) for bit in content)


def obliviousize(
    p: ProtocolDef,
    mu: InputDistribution,
    eps: float | Fraction,
    budget: int | None = DEFAULT_BUDGET,
) -> ProtocolDef:
    """Coordinator-phase rewrite of p into an oblivious protocol.

    Player 1 runs T = ceil(2*acc/eps) fixed phases.  Each phase: a beacon
    to every player; every other player returns either its next queued bit
    with its destination or "no"; player 1 forwards the tagged bits (and
    injects one bit of its own queue).  Players replay p locally on the
    forwarded bits.  After the last phase everyone outputs what its local
    replay produced, or a fixed fallback if the replay is unfinished; a run
    is truncated only if p would transmit at least T bits, which has
    probability at most acc/T <= eps/2 by Markov.  The budget (2^64 if
    None) caps each player's 2T + 2 local rounds as well as the executions.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ConfigError("obliviousize needs eps in (0, 1)")
    mu.validate_for(p)
    table = run_all(p, budget)
    avg = acc(p, mu, budget)
    phases = max(1, math.ceil(2 * avg / eps))
    rounds = check_budget(budget, 2 * phases + 2, "obliviousize",
                          "local rounds")
    k = p.k
    width = _player_width(k)
    fallback = tuple(min(p.output_domain(i)) for i in p.players)

    def parse_forward(content: str) -> list[tuple[int, str]]:
        items = []
        at = 0
        while content[at] == "1":
            bit = content[at + 1]
            origin = int(content[at + 2 : at + 2 + width], 2) + 1
            items.append((origin, bit))
            at += 2 + width
        return items

    def coordinator_fold(state, round_reads, index: int) -> None:
        """Fold one phase's replies (empty read rounds are the forward
        rounds and carry nothing) into the inner sim and the forwards."""
        sim, forwards = state
        if not round_reads:
            return
        incoming: list[tuple[int, int, str]] = []  # (dest, origin, bit)
        for s, m in round_reads:
            if m == "0":
                continue
            dest = int(m[2 : 2 + width], 2) + 1
            incoming.append((dest, s, m[1]))
        if sim.queue:
            dest, bit = sim.queue.popleft()
            incoming.append((dest, 1, bit))
        for j in range(2, k + 1):
            forwards[j] = ""
        for dest, origin, bit in incoming:
            if dest == 1:
                sim.feed(origin, bit)
            else:
                forwards[dest] += "1" + bit + _encode_player(origin, k)

    coordinator_sim = _InnerSim(p, table, 1)
    coordinator_state = fold_views(
        lambda view: (coordinator_sim.restart(view), {}), coordinator_fold
    )

    def coordinator(view: View) -> Round:
        # The state is looked up every round, so each lookup folds one.
        sim, forwards = coordinator_state(view)
        phase, step = divmod(view.round - 1, 2)
        if phase >= phases:
            out = sim.driver.output or fallback[0]
            return Round(output=out, halt=True)
        if step == 0:
            return Round(
                sends=tuple((j, "0") for j in range(2, k + 1)),
                waits=tuple(range(2, k + 1)),
            )
        return Round(
            sends=tuple((j, forwards[j] + "0") for j in range(2, k + 1)),
            waits=(),
        )

    def member_fold(sim: _InnerSim, round_reads, index: int) -> None:
        """Reads alternate beacon (even index) and forward (odd index)
        rounds.  The phase's queued bit left with the reply, so it is
        popped before the phase's forward is applied."""
        if index % 2 == 0:
            return
        (_, content), = round_reads
        if sim.queue:
            sim.queue.popleft()
        for origin, bit in parse_forward(content):
            sim.feed(origin, bit)

    def member(i: int):
        member_state = fold_views(_InnerSim(p, table, i).restart, member_fold)

        def prog(view: View) -> Round:
            sim = member_state(view)  # every round, so each lookup folds one
            phase, step = divmod(view.round - 1, 2)
            if phase >= phases:
                out = sim.driver.output or fallback[i - 1]
                return Round(output=out, halt=True)
            if step == 0:
                return Round(waits=(1,))
            if sim.queue:
                dest, bit = sim.queue[0]
                reply = "1" + bit + _encode_player(dest, k)
            else:
                reply = "0"
            return Round(sends=((1, reply),), waits=(1,))

        return prog

    programs = (coordinator,) + tuple(member(i) for i in range(2, k + 1))
    return replace(
        p,
        name=f"obliviousize({p.name},eps={eps})",
        output_domains=tuple(
            tuple(sorted(set(p.output_domain(i)) | {fallback[i - 1]}))
            for i in p.players
        ),
        programs=programs,
        max_local_rounds=rounds,
    )
