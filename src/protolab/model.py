"""Executable semantics of the restricted asynchronous peer-to-peer model.

Players are numbered 1..k.  Every ordered pair of players is joined by a
FIFO link.  A player's program runs in local rounds: called with the current
view it returns the messages to send, an optional output, and the set of
players to wait for before the next round starts.  In restricted mode the
wait set is an explicit set of player indices (a pure function of the view);
in relaxed mode a program may instead wait for "any next message", which is
exactly the loophole the restricted model closes.

Executions are deterministic given inputs and tapes.  A finished execution
is fixed by its inputs and tapes and, per player, its record, the one way to
read its run: the messages read (ordered by round, then sender index) and
sent (ordered by round, then recipient index), the wait and send sets per
round, Pi_i, the sent string and the output.  The engine derives a record
once per distinct final view a player reaches in its driver's view trie, and
every execution that ends there shares it; an execution table keeps only the
records, and the tries are freed when the enumeration returns.  The
bidirectional transcript is Pi_i followed by the sent string, and Pi joins
every Pi_i by player index.
The engine only feeds messages from senders to readers; the message list in
the global order is derived from those records when it is first read.  The
global order groups messages into causal lots: the lot of the messages a
player sends in some round is one more than the largest lot among the
messages it had read before that round and its own earlier sending rounds;
inside a lot, messages are ordered lexicographically by link.  Relaxed mode
has no lots: messages follow the order in which they were read, which the
walk that derives them replays.

Termination: the simulation stops when nobody can advance.  That is an error
only if some player never wrote an output or some sent message was never
read.  A player blocked forever in a wait *after* writing its output is
legal (some valid protocols leave unqueried players waiting for pings that
never come).
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DeadlockError,
    ModelViolationError,
    NonTerminationError,
    NotObliviousError,
    SelfDelimitingError,
    budgeted_count,
)

#: Wait marker for "block until any one message arrives" (relaxed mode only).
WAIT_ANY = "any"

RESTRICTED = "restricted"
RELAXED = "relaxed"

DEFAULT_BUDGET = 1 << 16


def bitstrings(length: int) -> tuple[str, ...]:
    """All bitstrings of the given length, lexicographically ("" for 0)."""
    return tuple("".join(bits) for bits in itertools.product("01", repeat=length))


def is_bitstring(s: str) -> bool:
    return isinstance(s, str) and not s.strip("01")


def prefix_free_violation(strings: Iterable[str]) -> tuple[str, str] | None:
    """The lexicographically first (word, successor) pair in which the word
    prefixes its successor; a word that prefixes any other does."""
    uniq = sorted(set(strings))
    for short, long in zip(uniq, uniq[1:]):
        if long.startswith(short):
            return (short, long)
    return None


@dataclass(frozen=True)
class Round:
    """One local round's worth of decisions, as returned by a program."""

    sends: tuple[tuple[int, str], ...] = ()
    output: str | None = None
    waits: tuple[int, ...] | str = ()
    halt: bool = False


@dataclass(frozen=True)
class View:
    """Everything player ``player`` knows: input, tapes, messages read."""

    player: int
    input: str
    private_tape: str
    public_tape: str
    reads: tuple[tuple[tuple[int, str], ...], ...] = ()

    @property
    def round(self) -> int:
        """1-based index of the local round about to run."""
        return len(self.reads) + 1

    @property
    def received(self) -> tuple[tuple[int, str], ...]:
        """All (sender, message) pairs read so far, flattened in read order."""
        return tuple(item for rnd in self.reads for item in rnd)


Program = Callable[[View], Round]


@dataclass(frozen=True)
class ProtocolDef:
    """A k-player program plus its declared domains and tape lengths."""

    name: str
    k: int
    input_domains: tuple[tuple[str, ...], ...]
    output_domains: tuple[tuple[str, ...], ...]
    private_tape_lengths: tuple[int, ...]
    public_tape_length: int
    programs: tuple[Program, ...]
    max_local_rounds: int
    mode: str = RESTRICTED

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least two players")
        if self.mode not in (RESTRICTED, RELAXED):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, group in (
            ("input_domains", self.input_domains),
            ("output_domains", self.output_domains),
            ("programs", self.programs),
            ("private_tape_lengths", self.private_tape_lengths),
        ):
            if len(group) != self.k:
                raise ValueError(f"{name} must have one entry per player")
        for dom in self.input_domains + self.output_domains:
            if not dom:
                raise ValueError("empty domain")
            if len(set(dom)) != len(dom):
                raise ValueError("domain entries must be distinct")
            for v in dom:
                if not is_bitstring(v):
                    raise ValueError(f"domain value {v!r} is not a bitstring")
        for dom in self.output_domains:
            if any(v == "" for v in dom):
                raise ValueError("outputs must be non-empty strings")
        if self.max_local_rounds < 1:
            raise ValueError("max_local_rounds must be positive")
        if self.public_tape_length < 0 or any(
            n < 0 for n in self.private_tape_lengths
        ):
            raise ValueError("tape lengths must be non-negative")

    # 1-based accessors

    def input_domain(self, i: int) -> tuple[str, ...]:
        return self.input_domains[i - 1]

    def output_domain(self, i: int) -> tuple[str, ...]:
        return self.output_domains[i - 1]

    def program(self, i: int) -> Program:
        return self.programs[i - 1]

    def private_len(self, i: int) -> int:
        return self.private_tape_lengths[i - 1]

    @property
    def players(self) -> range:
        return range(1, self.k + 1)

    @property
    def total_tape_bits(self) -> int:
        return sum(self.private_tape_lengths) + self.public_tape_length

    def input_space(self):
        return itertools.product(*self.input_domains)

    def tape_space(self):
        parts = [bitstrings(n) for n in self.private_tape_lengths]
        pubs = bitstrings(self.public_tape_length)
        return itertools.product(itertools.product(*parts), pubs)

    @cached_property
    def _table(self) -> ExecutionTable:
        return _enumerate_all(self)


@dataclass(frozen=True)
class Message:
    """One delivered message, placed in the global (lot) order."""

    sender: int
    receiver: int
    content: str
    sender_round: int
    receiver_round: int
    link_index: int
    lot: int
    global_index: int


PerRound = tuple[tuple[tuple[int, str], ...], ...]
Pattern = tuple[tuple[int, ...] | str, tuple[int, ...]]


class ViewRecord(NamedTuple):
    """A player's rounds up to one of its views: per round what it read,
    sent and waited for (``patterns``: wait set, recipients), the strings
    it read (Pi_i) and sent, each joined in round order, and the output it
    wrote (None if it wrote none)."""

    reads: PerRound
    sends: PerRound
    patterns: tuple[Pattern, ...]
    received: str
    sent: str
    output: str | None


def pi_bits(records) -> int:
    """|Pi|, the bits every player read, off the players' records."""
    return sum([len(rec.received) for rec in records])


@dataclass(frozen=True)
class Execution:
    """One deterministic run, built on demand from its inputs and tapes
    and its players' records.  ``record(i)`` is the one way to read player
    i's run: its ``ViewRecord``, with what the player read, sent and waited
    for, round by round, its Pi_i and sent strings and its output, derived
    once per distinct final view and shared by every execution that ends
    there.  ``outputs``, ``patterns`` (every player's wait and send sets)
    and ``total_bits`` (|Pi|) are read off the records.  Equality and
    hashing go over the fields, so a fresh ``run`` equals the ``run_all``
    execution on the same arguments.  ``messages`` is derived when first
    read, so the engine builds no per-message records."""

    protocol: ProtocolDef
    inputs: tuple[str, ...]
    private_tapes: tuple[str, ...]
    public_tape: str
    records: tuple[ViewRecord, ...]

    def record(self, i: int) -> ViewRecord:
        """Player i's reads, sends, patterns, Pi_i, sent string and output."""
        return self.records[i - 1]

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple([rec.output for rec in self.records])

    @property
    def patterns(self) -> tuple[tuple[Pattern, ...], ...]:
        return tuple([rec.patterns for rec in self.records])

    @property
    def total_bits(self) -> int:
        """|Pi|: the bits every player read."""
        return pi_bits(self.records)

    @cached_property
    def messages(self) -> tuple[Message, ...]:
        """Every message in the global order, derived from the players'
        records on first access by walking their rounds in the engine's
        sweeps, so in the engine's read order.  A sending round's lot is
        one more than the largest lot the player sent in an earlier round
        or read before it.  Restricted mode sorts messages by lot, then
        link; relaxed mode keeps read order, each lot its index."""
        k = self.protocol.k
        # Per player, its record's reads and sends, read once.
        rounds = [rec[:2] for rec in self.records]
        # A record holds the fields of its Message in order; the receiver
        # round is filled in when the walk reads it, the global index last.
        sent = defaultdict(list)  # (sender, receiver) -> records, FIFO
        n_read = defaultdict(int)  # (sender, receiver) -> records read
        level = [0] * (k + 1)  # per player, the highest lot sent or read
        done = [0] * (k + 1)  # per player, the local rounds walked
        records = []  # every record, in the order the walk reads it
        progress = True
        while progress:
            progress = False
            for i in range(1, k + 1):
                reads, sends = rounds[i - 1]
                for r in range(done[i], len(sends)):
                    # Local round r + 1 runs right after read round r.
                    links = [(s, i) for s, _ in reads[r - 1]] if r else []
                    if any(n_read[link] == len(sent[link]) for link in links):
                        break  # it reads a message not yet walked
                    for link in links:
                        rec = sent[link][n_read[link]]
                        n_read[link] += 1
                        records.append(rec)
                        rec[4] = r
                        level[i] = max(level[i], rec[6])
                    if sends[r]:
                        level[i] += 1
                        for q, content in sends[r]:
                            fifo = sent[(i, q)]
                            fifo.append([i, q, content, r + 1, None,
                                         len(fifo), level[i], None])
                    done[i] = r + 1
                    progress = True
        if self.protocol.mode == RESTRICTED:
            records.sort(key=lambda rec: (rec[6], rec[0], rec[1]))
        else:
            for n, rec in enumerate(records, start=1):
                rec[6] = n
        for g, rec in enumerate(records, start=1):
            rec[7] = g
        return tuple(itertools.starmap(Message, records))


def _validate_run_args(p, inputs, private_tapes, public_tape):
    inputs = tuple(inputs)
    private_tapes = (("",) * p.k if private_tapes is None
                     else tuple(private_tapes))
    if len(inputs) != p.k:
        raise ValueError("need one input per player")
    if len(private_tapes) != p.k:
        raise ValueError("need one private tape per player")
    for i in p.players:
        if inputs[i - 1] not in p.input_domain(i):
            raise ValueError(f"input {inputs[i-1]!r} not in player {i}'s domain")
        tape = private_tapes[i - 1]
        if not is_bitstring(tape) or len(tape) != p.private_len(i):
            raise ValueError(f"player {i} expects a {p.private_len(i)}-bit tape")
    return inputs, private_tapes, validate_public_tape(p, public_tape)


def validate_public_tape(p: ProtocolDef, public_tape: str | None) -> str:
    """The public tape, "" for None, checked against the declared length."""
    if public_tape is None:
        public_tape = ""
    if not is_bitstring(public_tape) or len(public_tape) != p.public_tape_length:
        raise ValueError(f"public tape must have {p.public_tape_length} bits")
    return public_tape


def _execute(inputs, private_tapes, public_tape, drivers):
    """One execution by ``drivers``, one per player: each is restarted on
    its input and tapes, then they run in sweeps, each in index order as
    far as its inbox allows, its new sends fed to their readers' inboxes
    (the sweeps ``Execution.messages`` replays).  A sweep skips a halted
    driver: it would send nothing and draw nothing from the schedule, so
    the live drivers run in the same order and read the same messages as
    when every driver is called.  Returns the players' records, which fix
    the execution; each is derived the first time an execution ends at its
    final view, the driver's last node, and kept there.  The arguments
    are not checked here: ``run`` and ``run_relaxed`` check them, and
    ``_enumerate_all`` builds them from the protocol's own spaces."""
    for d, x, tape in zip(drivers, inputs, private_tapes):
        d.restart(x, tape, public_tape)
    inboxes = [d.inbox for d in drivers]

    progress = True
    while progress:
        progress = False
        for d in drivers:
            if d.halted:
                continue
            sends = d.sends
            n_rounds = len(sends)
            d.run()
            if len(sends) == n_rounds:
                continue
            progress = True
            i = d.player
            for rnd in sends[n_rounds:]:
                for q, content in rnd:
                    inboxes[q - 1][i].append(content)

    missing = [d.player for d in drivers if d.output is None]
    if missing:
        raise DeadlockError(
            f"execution stalled with no output from player(s) {missing}"
        )
    if any(map(any, map(dict.values, inboxes))):  # a message is unread
        stuck = dict(sorted(((s, d.player), len(unread)) for d in drivers
                            for s, unread in d.inbox.items() if unread))
        raise DeadlockError(f"unread messages left in transit: {stuck}")
    for d in drivers:
        if d.node.record is None:  # the first execution to end here
            d.node.record = d.record()
    return tuple([d.node.record for d in drivers])


def _run_once(p, inputs, private_tapes, public_tape, schedule):
    """One execution on checked arguments, by fresh drivers that share one
    schedule iterator."""
    args = _validate_run_args(p, inputs, private_tapes, public_tape)
    schedule = iter(schedule)
    return Execution(p, *args, _execute(*args, [ProgramDriver(p, i, schedule)
                                                for i in p.players]))


def run(
    p: ProtocolDef,
    inputs: Sequence[str],
    private_tapes: Sequence[str] | None = None,
    public_tape: str | None = None,
) -> Execution:
    """Run a restricted-mode protocol to completion, deterministically."""
    if p.mode != RESTRICTED:
        raise ModelViolationError(
            f"{p.name}: run() requires restricted mode; use run_relaxed()"
        )
    return _run_once(p, inputs, private_tapes, public_tape, ())


def run_relaxed(
    p: ProtocolDef,
    inputs: Sequence[str],
    private_tapes: Sequence[str] | None = None,
    public_tape: str | None = None,
    schedule: Sequence[int] | None = None,
) -> Execution:
    """Run a relaxed-mode protocol under an adversarial delivery order.

    ``schedule`` lists sender indices consulted whenever a wait-any read has
    several messages available; entries not currently available are skipped,
    and the lowest sender index is the fallback.
    """
    if p.mode != RELAXED:
        raise ModelViolationError(f"{p.name}: protocol is not in relaxed mode")
    return _run_once(p, inputs, private_tapes, public_tape, schedule or ())


@dataclass(frozen=True)
class ExecutionTable:
    """Every execution of a protocol as its players' records, the
    prefix-free codebook of every link position, and ``cc``, kept from its
    first read with the table.

    ``records`` maps each input, in ``input_space()`` order, to the
    players' record tuples of its executions in ``tape_space()`` order;
    nothing else of an execution is stored.  ``get``, ``items`` and ``values``
    build an ``Execution`` only when asked for one.  ``protocol`` equals
    the protocol enumerated but is a copy with no table of its own, so the
    protocol that caches the table is not pointed back to and nothing here
    forms a reference cycle."""

    protocol: ProtocolDef
    records: dict[tuple[str, ...], list[tuple[ViewRecord, ...]]]
    codebooks: dict[tuple[int, int, int], tuple[str, ...]]

    def __len__(self):
        return len(self.records) << self.protocol.total_tape_bits

    def records_at(self, inputs, private_tapes, public_tape):
        """The players' records on these arguments, unchecked.  The
        tapes' position in ``tape_space()`` is their bits, the private
        tapes joined and then the public tape, read as a binary number."""
        tapes = "0" + "".join(private_tapes) + public_tape
        return self.records[inputs][int(tapes, 2)]

    def get(self, inputs, private_tapes=None, public_tape=None) -> Execution:
        """The execution on these arguments, checked the way ``run`` checks
        them."""
        args = _validate_run_args(self.protocol, inputs, private_tapes,
                                  public_tape)
        return Execution(self.protocol, *args, self.records_at(*args))

    def codeword(self, sender: int, receiver: int, pos: int, bits: str,
                 offset: int = 0) -> str | None:
        """The codeword of link position ``pos`` that ``bits`` carries at
        ``offset``, or None while those bits are only a proper prefix of
        one.  Every codebook is prefix-free, so at most one word fits."""
        book = self.codebooks.get((sender, receiver, pos))
        if book is None:
            raise ModelViolationError(
                f"no codebook for link {sender}->{receiver} position {pos}"
            )
        for word in book:
            if bits.startswith(word, offset):
                return word
        rest = bits[offset:]
        if any(word.startswith(rest) for word in book):
            return None
        raise ModelViolationError(
            f"bits at link {sender}->{receiver} position {pos} fit no codeword"
        )

    @cached_property
    def cc(self) -> int:
        """Worst-case communication: the longest |Pi| of any execution."""
        return max(map(pi_bits, itertools.chain(*self.records.values())))

    def _keyed_records(self):
        """``((inputs, private tapes, public tape), records)`` for every
        execution, in table order."""
        tapes = list(self.protocol.tape_space())
        for x, row in self.records.items():
            for (privs, pub), records in zip(tapes, row):
                yield (x, privs, pub), records

    def items(self):
        for key, records in self._keyed_records():
            yield key, Execution(self.protocol, *key, records)

    def values(self):
        return (e for _, e in self.items())


def _enumerate_all(p: ProtocolDef) -> ExecutionTable:
    # One driver and one view trie per player, restarted for every
    # execution; the table keeps the records, so the tries are freed with
    # the drivers when this returns.
    drivers = [ProgramDriver(p, i) for i in p.players]
    tapes = list(p.tape_space())
    records = {x: [_execute(x, privs, pub, drivers) for privs, pub in tapes]
               for x in p.input_space()}
    # Every view in a trie is on the path of some execution, so one walk
    # per trie, once per distinct view, finds every (position, content)
    # sent on each link.  The walk carries the link position per recipient.
    codebooks: dict[tuple[int, int, int], set[str]] = {}
    for d in drivers:
        i = d.player
        stack = [(root, {}) for root in d.trie.values()]
        while stack:
            node, pos = stack.pop()
            sends = node.act[0]
            if sends:
                pos = pos.copy()
                for q, content in sends:
                    n = pos.get(q, 0)
                    pos[q] = n + 1
                    codebooks.setdefault((i, q, n), set()).add(content)
            stack.extend([(child, pos) for child in node.values()])
    frozen = {}
    for key, contents in sorted(codebooks.items()):
        witness = prefix_free_violation(contents)
        if witness:
            raise SelfDelimitingError(
                f"messages at link {key[0]}->{key[1]} position {key[2]} are "
                f"not prefix-free: {witness[0]!r} prefixes {witness[1]!r}"
            )
        frozen[key] = tuple(sorted(contents))
    # The table keeps a field-equal copy of p that has no table cached, so
    # p, which caches the table, is not pointed back to: p and its table
    # are freed by reference counting.
    return ExecutionTable(replace(p), records, frozen)


def run_all(p: ProtocolDef, budget: int | None = DEFAULT_BUDGET) -> ExecutionTable:
    """Enumerate every (input, tape) execution and certify the whole space.

    Certifies termination (every run completes), the self-delimiting
    invariant (per-position codebooks are prefix-free), and output validity.
    The budget (2^64 if None) is checked on every call; the table is built
    once per protocol object and freed with it.
    """
    if p.mode != RESTRICTED:
        raise ModelViolationError(
            f"{p.name}: exhaustive enumeration requires restricted mode"
        )
    budgeted_count(budget, p.total_tape_bits,
                   lambda: math.prod(map(len, p.input_domains)))
    return p._table


@dataclass(frozen=True)
class ObliviousWitness:
    """Two executions on which a wait- or send-set differs."""

    player: int
    round: int
    kind: str
    value_a: object
    value_b: object
    key_a: tuple
    key_b: tuple

    def describe(self) -> str:
        return (
            f"player {self.player}, round {self.round}: {self.kind} is "
            f"{self.value_a!r} on {self.key_a} but {self.value_b!r} on {self.key_b}"
        )


def is_oblivious(
    p: ProtocolDef, budget: int | None = DEFAULT_BUDGET
) -> tuple[bool, ObliviousWitness | None]:
    """Check that wait- and send-sets depend only on (player, round)."""
    rows = run_all(p, budget)._keyed_records()
    ref_key, ref_records = next(rows)
    # Each player's records already compared, by identity: one record per
    # final view, the table holds every one for the whole loop, and a
    # record met again has passed.
    seen = [{id(rec)} for rec in ref_records]
    for key, records in rows:
        for i, ref_rec, rec, compared in zip(p.players, ref_records, records,
                                             seen):
            if id(rec) in compared:
                continue
            compared.add(id(rec))
            a, b = ref_rec.patterns, rec.patterns
            for r in range(max(len(a), len(b))):
                pa = a[r] if r < len(a) else None
                pb = b[r] if r < len(b) else None
                if pa == pb:
                    continue
                if pa is None or pb is None:
                    kind, va, vb = "round structure", pa, pb
                elif pa[0] != pb[0]:
                    kind, va, vb = "wait set", pa[0], pb[0]
                else:
                    kind, va, vb = "send set", pa[1], pb[1]
                return False, ObliviousWitness(
                    player=i, round=r + 1, kind=kind,
                    value_a=va, value_b=vb, key_a=ref_key, key_b=key,
                )
    return True, None


# ---------------------------------------------------------------------------
# Fixed structure of an oblivious protocol (used by compression and products)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObliviousStructure:
    """What compression needs of an oblivious protocol, fixed across its
    executions: the execution ``table`` (whose ``codeword`` splits bits
    into messages and whose ``cc`` is the worst-case communication), the
    reference execution's ``messages`` in global order (the skeleton
    every execution shares: only the contents differ), and per player i
    ``events[i]``, its messages, sent and received, in global order as
    ``(global index, "s" or "r", peer, position on the link)``.  Player
    i's compression transcript joins the contents of those messages in
    that order; ``talking_pairs`` and ``broadcast_bits`` are derived
    once."""

    table: ExecutionTable
    messages: tuple[Message, ...]
    events: dict[int, tuple[tuple[int, str, int, int], ...]]

    @classmethod
    def build(cls, p: ProtocolDef, budget: int | None = DEFAULT_BUDGET):
        ok, witness = is_oblivious(p, budget)
        if not ok:
            raise NotObliviousError(
                f"{p.name} has an input-dependent communication pattern "
                f"({witness.describe()})"
            )
        # Every execution has the reference's wait and send sets, so its
        # messages have the same rounds, link positions, lots and numbers.
        table = run_all(p, budget)
        ref = next(iter(table.values()))
        events = {i: [] for i in p.players}
        for m in ref.messages:
            g, pos = m.global_index, m.link_index
            events[m.sender].append((g, "s", m.receiver, pos))
            events[m.receiver].append((g, "r", m.sender, pos))
        return cls(
            table=table,
            messages=ref.messages,
            events={i: tuple(ev) for i, ev in events.items()},
        )

    @cached_property
    def talking_pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs (i, j), i < j, that exchange a message, in order."""
        players = self.table.protocol.players
        return tuple((i, j) for i in players for j in players
                     if i < j and any(peer == j for _, _, peer, _
                                      in self.events[i]))

    @cached_property
    def broadcast_bits(self) -> int:
        """Bits to broadcast a message number up to ``cc``, or none."""
        return math.ceil(math.log2(self.table.cc + 2))

    def transcript(self, rec: ViewRecord, i: int) -> str:
        """Player i's transcript in an execution where its record is
        ``rec``: the contents of its messages, sent and received, joined in
        global order.  They are looked up in the record, so no execution's
        ``messages`` is derived."""
        words = {}  # ("s" or "r", peer) -> contents on that link, FIFO
        for direction, rounds in (("s", rec.sends), ("r", rec.reads)):
            for rnd in rounds:
                for peer, content in rnd:
                    words.setdefault((direction, peer), []).append(content)
        return "".join([words[(direction, peer)][pos]
                        for _, direction, peer, pos in self.events[i]])

    def parse_transcript(self, i: int, t: str) -> dict[int, tuple[str, tuple]]:
        """Split a transcript of player i, its messages in global order,
        into those messages and return its conversation with each peer:
        the bits and the message extents, each (global message number,
        start and end bit in the conversation, start bit in the
        transcript).  Raises ``ValueError`` when ``t`` does not split into
        player i's messages."""
        convs = {j: ([], []) for j in self.table.protocol.players if j != i}
        cursor = 0
        for g, direction, peer, pos in self.events[i]:
            link = (i, peer) if direction == "s" else (peer, i)
            try:
                word = self.table.codeword(*link, pos, t, cursor)
            except ModelViolationError:  # the bits fit no codeword
                word = None
            if word is None:
                raise ValueError(
                    f"transcript of player {i} is unparseable at bit {cursor}"
                )
            words, extents = convs[peer]
            start = extents[-1][2] if extents else 0
            words.append(word)
            extents.append((g, start, start + len(word), cursor))
            cursor += len(word)
        if cursor != len(t):
            raise ValueError(
                f"transcript of player {i} has {len(t) - cursor} trailing bits"
            )
        return {j: ("".join(words), tuple(extents))
                for j, (words, extents) in convs.items()}


# ---------------------------------------------------------------------------
# Incremental program driver
# ---------------------------------------------------------------------------


class _ViewNode(dict):
    """One view of a player in a view trie.  As a dict it maps each next
    read round to the child view; a node keeps no link back to the view it
    extends, so a trie's inner views are freed with its driver.  ``act`` is
    the checked round the program returned for this view, once it has run
    on it: (sends sorted by recipient, (wait set, recipients), output,
    halt).  A final view, where an execution stopped, keeps the player's
    ``record``, stored by the engine the first time an execution ends
    there (None at a view where no execution has ended)."""

    __slots__ = ("act", "record")

    def __init__(self):
        self.act = None
        self.record = None


class ProgramDriver:
    """Runs one player's program under the model's rules, as far as the
    messages fed to it allow.

    The engine runs one driver per player, and every transform drives the
    programs it wraps through one, so all of them share these checks: the
    program returns a ``Round``; it sends at most one non-empty bitstring to
    each other player per round; it writes one output, inside its domain;
    it waits on other players only, and on "any" in relaxed mode only.
    Each is a function of the view alone (the view fixes every earlier
    round, so also whether an output was written), so they are made once
    per view, when the program runs on it.  The bound on local rounds is
    checked on every round.

    Messages are fed per sender in FIFO order; ``run()`` continues until
    the program halts or its wait set asks for a message not yet fed.  A
    wait-any read takes the first sender of ``schedule`` that has a message
    waiting (entries are consumed as they are tried, and drivers handed one
    iterator share it), else the lowest such sender.  Per round the driver
    records ``reads`` and ``sends`` (sorted by recipient), its working
    state; ``waiting`` is the blocking wait set.  Everything else about
    the run, the wait and send sets included, is ``record()``.  ``run``
    appends to ``reads`` and ``sends`` and sets ``output`` as each round
    runs, but walks the trie in locals: it writes ``node`` and ``waiting``
    back when it returns (blocked, with the wait set it blocks on, or
    halted, with ``halted`` set and ``waiting`` None) and before it calls
    the program or raises ``NonTerminationError`` (with ``waiting`` None),
    so a program or rule error leaves them at the view it failed on.

    A driver is built once per player (and side, in a wrapper) and kept;
    ``restart`` starts each of its runs.  A program is a pure function of
    its ``View``, so the driver walks its own trie of the player's views:
    ``trie`` maps (input, private tape, public tape) to a root node, and
    each child is keyed by one read round (``()`` for a round that waited
    on nobody).  A node keeps the checked round the program returned for
    its view, so the program runs, its ``View`` is built and its round is
    checked only on a view no earlier run reached.  A round that breaks a
    rule is not kept.  A node keeps neither the reads before it (a tuple of
    every read per node would cost memory growing with rounds squared) nor
    a link back to its parent: the trie holds no reference cycle, so its
    views are freed by reference counting as soon as nothing holds them.
    ``record()`` reads the run's rounds in one walk down from the root
    along ``reads``; the engine stores that record in a final view, where
    an execution stopped, the first time one ends there.
    """

    def __init__(self, p: ProtocolDef, player: int, schedule=()):
        self.program = p.program(player)
        self.player = player
        self.max_rounds = p.max_local_rounds
        self.relaxed = p.mode == RELAXED
        self.domain = p.output_domain(player)
        self.schedule = iter(schedule)
        self.trie = {}
        # One FIFO queue per peer: its keys are also the players this one
        # may send to or wait on.
        self.inbox = {s: deque() for s in p.players if s != player}

    def restart(self, input_value: str, private_tape: str,
                public_tape: str) -> "ProgramDriver":
        """Start the player on these input and tapes, from its root view:
        the only way to start a run.  The program, the trie and the
        schedule are kept; a message that an abandoned run left unread is
        dropped.  ``key`` is the root's trie key."""
        for queue in self.inbox.values():
            queue.clear()
        self.key = key = (input_value, private_tape, public_tape)
        node = self.trie.get(key)
        if node is None:
            node = self.trie[key] = _ViewNode()
        self.node = node
        self.reads: list[tuple[tuple[int, str], ...]] = []
        self.sends: list[tuple[tuple[int, str], ...]] = []
        self.output: str | None = None
        self.halted = False
        self.waiting: tuple[int, ...] | str | None = None
        return self

    def feed(self, sender: int, message: str) -> None:
        self.inbox[sender].append(message)

    def run(self) -> "ProgramDriver":
        if self.halted:
            return self
        # The walk keeps its state in locals; ``node`` and ``waiting`` are
        # written back where it returns or raises.
        node = self.node
        waits = self.waiting
        inbox = self.inbox
        reads = self.reads
        sends = self.sends
        while True:
            if waits is not None:
                if waits is WAIT_ANY:
                    avail = [s for s, queue in inbox.items() if queue]
                    if not avail:
                        break
                    pick = avail[0]
                    for cand in self.schedule:
                        if cand in avail:
                            pick = cand
                            break
                    step = ((pick, inbox[pick].popleft()),)
                elif len(waits) == 1:
                    queue = inbox[waits[0]]
                    if not queue:
                        break
                    step = ((waits[0], queue.popleft()),)
                elif all(map(inbox.__getitem__, waits)):
                    step = tuple([(s, inbox[s].popleft()) for s in waits])
                else:
                    break
                # Step to the view that adds this read round.
                child = node.get(step)
                if child is None:
                    child = node[step] = _ViewNode()
                node = child
                reads.append(step)
            if len(sends) >= self.max_rounds:
                self.node = node
                self.waiting = None
                raise NonTerminationError(
                    f"player {self.player} exceeded {self.max_rounds} local "
                    "rounds"
                )
            act = node.act
            if act is None:
                self.node = node
                self.waiting = None
                act = node.act = self._checked(self.program(View(
                    self.player, *self.key, tuple(reads)
                )))
            round_sends, pattern, output, halt = act
            sends.append(round_sends)
            if output is not None:
                self.output = output
            if halt:
                self.halted = True
                waits = None
                break
            waits = pattern[0]  # () is read at once, as a round
        self.node = node
        self.waiting = waits
        return self

    def record(self) -> ViewRecord:
        """The player's rounds up to and including the current view's: the
        run's ``reads``, ``sends`` and ``output``, and the wait and send
        sets read in one walk down the trie from the root along ``reads``."""
        node = self.trie[self.key]
        patterns = [node.act[1]]
        for step in self.reads:
            node = node[step]
            patterns.append(node.act[1])
        reads, sends = tuple(self.reads), tuple(self.sends)
        return ViewRecord(
            reads, sends, tuple(patterns),
            "".join([m for rnd in reads for _, m in rnd]),
            "".join([m for rnd in sends for _, m in rnd]),
            self.output,
        )

    def _checked(self, act: Round):
        """The program's round for the current view, checked against the
        model's rules, as a trie node keeps it.  A malformed field raises
        ``ModelViolationError`` naming it, never a bare Python error."""
        i = self.player
        inbox = self.inbox
        if not isinstance(act, Round):
            raise ModelViolationError(
                f"player {i}'s program returned {type(act).__name__}"
            )
        sends = _collection(i, "sends", act.sends)
        recipients = []
        for entry in sends:
            try:
                q, content = entry
            except (TypeError, ValueError):
                raise ModelViolationError(
                    f"player {i}'s Round.sends entry {entry!r} is not a "
                    "(recipient, message) pair"
                ) from None
            if not _is_peer(q, inbox):
                raise ModelViolationError(
                    f"player {i} sends to invalid recipient {q!r} "
                    "(Round.sends)"
                )
            if q in recipients:
                raise ModelViolationError(
                    f"player {i} sends twice to {q} in one round"
                )
            if not is_bitstring(content) or not content:
                raise ModelViolationError(
                    f"player {i} sends a non-bitstring or empty message"
                )
            recipients.append(q)
        if act.output is not None:
            if self.output is not None:
                raise ModelViolationError(f"player {i} wrote output twice")
            if act.output not in self.domain:
                raise ModelViolationError(
                    f"player {i} output {act.output!r} outside its domain"
                )
        if act.waits == WAIT_ANY:
            if not self.relaxed:
                raise ModelViolationError(
                    "wait-any is only available in relaxed mode; "
                    "restricted wait sets must be view-determined"
                )
            waits = WAIT_ANY
        else:
            waits = _collection(i, "waits", act.waits)
            for s in waits:
                if not _is_peer(s, inbox):
                    raise ModelViolationError(
                        f"player {i} waits on invalid player {s!r} "
                        "(Round.waits)"
                    )
            waits = tuple(sorted(set(waits)))
        if type(act.halt) is not bool:
            raise ModelViolationError(
                f"player {i}'s Round.halt is {act.halt!r}, not a bool"
            )
        return (tuple(sorted(sends)), (waits, tuple(sorted(recipients))),
                act.output, act.halt)


def _collection(i: int, name: str, value) -> tuple:
    """A ``Round`` field that holds a collection, as a tuple."""
    try:
        return tuple(value)
    except TypeError:
        raise ModelViolationError(
            f"player {i}'s Round.{name} is {value!r}, not a collection"
        ) from None


def _is_peer(q, inbox: dict) -> bool:
    """Whether ``q`` names a player of ``inbox``: an int key, not a value
    that only equals one (``2.0``, ``True``) nor an unhashable one."""
    return type(q) is int and q in inbox


def fold_views(start: Callable[[View], object],
               fold: Callable[[object, tuple, int], None]):
    """State lookup for a wrapper program that keeps its latest state only.

    ``start(view)`` builds the state before any read round and
    ``fold(state, round_reads, index)`` folds in read round ``index``
    (0-based), in place.  A view that extends the kept one by exactly one
    read round folds that round; any other view is rebuilt from scratch,
    so the program stays a pure function of its View.
    """
    slot: list = [None, (), None]  # (input, tapes), reads, state

    def state_of(view: View):
        key = (view.input, view.private_tape, view.public_tape)
        reads = view.reads
        n = len(reads)
        kept_key, kept_reads, state = slot
        slot[0] = None  # a failed fold must not leave a half-folded state
        if (kept_key == key and len(kept_reads) + 1 == n
                and reads[:-1] == kept_reads):
            fold(state, reads[-1], n - 1)
        else:
            state = start(view)
            for index, round_reads in enumerate(reads):
                fold(state, round_reads, index)
        slot[:] = key, reads, state
        return state

    return state_of
