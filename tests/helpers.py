"""Shared test fixtures and independent brute-force oracles.

The oracles recompute the information measures straight from enumerated
executions with their own counting code (entropy differences over plain
dicts), independently of the library's joint-distribution machinery, so a
regression in one path cannot hide in the other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
from collections import defaultdict, deque
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

import numpy as np

from protolab.compression import compress_run
from protolab.errors import (
    ConfigError,
    DeadlockError,
    ModelViolationError,
    NonTerminationError,
)
from protolab.info import NEGATIVE_RESIDUE, JointDistribution
from protolab.lcp import LcpBox, _len_exchange_bits
from protolab.model import (
    DEFAULT_BUDGET,
    ExecutionTable,
    Message,
    ObliviousStructure,
    ProgramDriver,
    ProtocolDef,
    RELAXED,
    WAIT_ANY,
    Round,
    View,
    ViewRecord,
    bitstrings,
    fold_views,
    run,
    run_all,
)
from protolab.measures import (
    GridResult,
    InputDistribution,
    interleave_positions,
    pic,
    weighted_executions,
)
from protolab.treefile import _TreeMachine, protocol_from_dict
from protolab.zoo import xor_bits


# ---------------------------------------------------------------------------
# Independent information-measure oracles
# ---------------------------------------------------------------------------


def oracle_cond_entropy(rows) -> float:
    """H(A | C) from rows of (Fraction weight, a, c)."""
    joint = defaultdict(Fraction)
    cond = defaultdict(Fraction)
    for w, a, c in rows:
        joint[(a, c)] += w
        cond[c] += w
    total = 0.0
    for (a, c), w in joint.items():
        total += float(w) * math.log2(float(cond[c] / w))
    return total


def oracle_conditional_mi(rows) -> float:
    """I(A ; B | C) = H(A | C) - H(A | BC) from (weight, a, b, c) rows."""
    h_a_c = oracle_cond_entropy([(w, a, c) for w, a, b, c in rows])
    h_a_bc = oracle_cond_entropy([(w, a, (b, c)) for w, a, b, c in rows])
    return h_a_c - h_a_bc


def enumerate_runs(p: ProtocolDef, mu: InputDistribution):
    """Yield (Fraction weight, execution) over mu and uniform tapes."""
    tape_weight = Fraction(1, 1 << p.total_tape_bits)
    for x, wx in mu.weights:
        for privs, pub in p.tape_space():
            yield wx * tape_weight, run(p, x, privs, pub)


def execution_count(p: ProtocolDef) -> int:
    """p's executions, counted from its input domains and tape bits."""
    return math.prod(map(len, p.input_domains)) << p.total_tape_bits


def execution_digest(table) -> str:
    """SHA-256 over every recorded field of every execution, in table order.

    Covers inputs, tapes, outputs, per-round reads, sends and patterns, and
    every message with its sender and receiver rounds, link index, lot and
    global index.  ``table`` is an ``ExecutionTable`` or any iterable of
    executions.
    """
    executions = table.values() if hasattr(table, "values") else table
    h = hashlib.sha256()
    for e in executions:
        recs = [e.record(i) for i in e.protocol.players]
        record = (
            e.inputs, e.private_tapes, e.public_tape, e.outputs,
            tuple(rec.reads for rec in recs),
            tuple(rec.sends for rec in recs), e.patterns,
            tuple(
                (m.sender, m.receiver, m.content, m.sender_round,
                 m.receiver_round, m.link_index, m.lot, m.global_index)
                for m in e.messages
            ),
            e.total_bits,
        )
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def distinct_views(table) -> int:
    """How many distinct views the players' programs ran on, over every
    execution: one per (player, input, private tape, public tape, reads
    prefix) for each local round a player ran."""
    views = set()
    for e in table.values():
        for i in e.protocol.players:
            rec = e.record(i)
            for r in range(len(rec.patterns)):
                views.add((i, e.inputs[i - 1], e.private_tapes[i - 1],
                           e.public_tape, rec.reads[:r]))
    return len(views)


def reference_codebooks(table) -> dict:
    """Per (sender, receiver, link position), the sorted contents sent there
    in any execution of ``table``, found by walking every execution's
    sends; the engine walks each player's view trie once instead."""
    return codebooks_of(tuple(e.record(i) for i in e.protocol.players)
                        for e in table.values())


def codebooks_of(runs) -> dict:
    """``reference_codebooks`` over runs given as their players' records,
    one tuple per run in player order."""
    books: dict[tuple[int, int, int], set[str]] = {}
    for records in runs:
        for i, rec in enumerate(records, start=1):
            pos: dict[int, int] = {}
            for rnd in rec.sends:
                for q, content in rnd:
                    n = pos.get(q, 0)
                    pos[q] = n + 1
                    books.setdefault((i, q, n), set()).add(content)
    return {key: tuple(sorted(words)) for key, words in sorted(books.items())}


def reference_messages(e) -> tuple[Message, ...]:
    """The messages of a restricted-mode execution, rebuilt after the run
    from the players' recorded reads and sends by resolving the graph of
    causal dependencies between sending rounds, kept as the reference for
    the causal walk of ``Execution.messages``."""
    p = e.protocol
    reads = [e.record(i).reads for i in p.players]
    sends = [e.record(i).sends for i in p.players]
    read_counts: dict[tuple[int, int], int] = {}
    recv_round = {}  # (sender, receiver, link_index) -> reader round
    for i in p.players:
        for r, round_reads in enumerate(reads[i - 1]):
            for s, _ in round_reads:
                link_index = read_counts.get((s, i), 0)
                read_counts[(s, i)] = link_index + 1
                recv_round[(s, i, link_index)] = r + 1

    # Collect raw message records: (sender, receiver, content, sender_round,
    # link_index), with link positions assigned in FIFO (send) order.
    link_pos = {}
    raw = []
    for i in p.players:
        for r, round_sends in enumerate(sends[i - 1], start=1):
            for q, content in round_sends:
                pos = link_pos.get((i, q), 0)
                link_pos[(i, q)] = pos + 1
                raw.append((i, q, content, r, pos))

    # Which (sender, sender_round) nodes produced the messages player q
    # read in its read round reader_round.
    source = {}
    for s, q, content, r, pos in raw:
        reader_round = recv_round[(s, q, pos)]
        source.setdefault((q, reader_round), []).append((s, r))
    deps: dict[tuple[int, int], list] = {}
    for i in p.players:
        prev = 0
        for r, round_sends in enumerate(sends[i - 1], start=1):
            if not round_sends:
                continue
            node_deps = [(i, prev)] if prev else []
            for rr in range(prev, r):
                node_deps.extend(source.get((i, rr), ()))
            deps[(i, r)] = node_deps
            prev = r

    lot: dict[tuple[int, int], int] = {}
    active: set[tuple[int, int]] = set()

    def resolve(node):
        if node in lot:
            return lot[node]
        if node in active:
            raise ModelViolationError("causality cycle in message ordering")
        active.add(node)
        value = 1 + max((resolve(d) for d in deps[node]), default=0)
        active.discard(node)
        lot[node] = value
        return value

    for node in deps:
        resolve(node)

    ordered = sorted(raw, key=lambda rec: (lot[(rec[0], rec[3])], (rec[0], rec[1])))
    return tuple(
        Message(
            sender=s,
            receiver=q,
            content=content,
            sender_round=r,
            receiver_round=recv_round[(s, q, pos)],
            link_index=pos,
            lot=lot[(s, r)],
            global_index=g,
        )
        for g, (s, q, content, r, pos) in enumerate(ordered, start=1)
    )


def reference_execute(p: ProtocolDef, inputs, private_tapes=None,
                      public_tape="", schedule=()) -> tuple[ViewRecord, ...]:
    """Every player's record of one execution, by the model itself: the
    players run in sweeps in index order, each as far as its inbox allows,
    and every local round calls the program on a freshly built ``View``.
    This is the model the drivers' view tries memoize, written without
    ``ProgramDriver`` or a trie, for valid protocols: it applies the round
    bound and the end-of-run checks but not the per-round model checks.
    A wait-any read takes the first sender of ``schedule`` (one iterator,
    shared by every player) with a message waiting, else the lowest."""
    schedule = iter(schedule)
    players = p.players
    private_tapes = private_tapes or ("",) * p.k
    inbox = {i: {s: deque() for s in players if s != i} for i in players}
    reads = {i: [] for i in players}
    sends = {i: [] for i in players}
    patterns = {i: [] for i in players}
    output = dict.fromkeys(players)
    waits = dict.fromkeys(players)  # None: the next round reads nothing
    halted = set()
    progress = True
    while progress:
        progress = False
        for i in players:
            while i not in halted:
                queues = inbox[i]
                if waits[i] == WAIT_ANY:
                    avail = [s for s in sorted(queues) if queues[s]]
                    if not avail:
                        break
                    pick = next((s for s in schedule if s in avail), avail[0])
                    reads[i].append(((pick, queues[pick].popleft()),))
                elif waits[i] is not None:
                    if not all(queues[s] for s in waits[i]):
                        break
                    reads[i].append(tuple((s, queues[s].popleft())
                                          for s in waits[i]))
                if len(sends[i]) == p.max_local_rounds:
                    raise NonTerminationError(
                        f"player {i} exceeded {p.max_local_rounds} local "
                        "rounds"
                    )
                act = p.program(i)(View(i, inputs[i - 1], private_tapes[i - 1],
                                        public_tape, tuple(reads[i])))
                sent = tuple(sorted(act.sends))
                for q, content in sent:
                    inbox[q][i].append(content)
                waits[i] = (WAIT_ANY if act.waits == WAIT_ANY
                            else tuple(sorted(set(act.waits))))
                sends[i].append(sent)
                patterns[i].append((waits[i], tuple(q for q, _ in sent)))
                if act.output is not None:
                    output[i] = act.output
                if act.halt:
                    halted.add(i)
                progress = True
    if None in output.values():
        raise DeadlockError("a player wrote no output")
    if any(queue for queues in inbox.values() for queue in queues.values()):
        raise DeadlockError("a message was never read")
    return tuple(
        ViewRecord(tuple(reads[i]), tuple(sends[i]), tuple(patterns[i]),
                   "".join(m for rnd in reads[i] for _, m in rnd),
                   "".join(m for rnd in sends[i] for _, m in rnd), output[i])
        for i in players
    )


def reference_read_log(p: ProtocolDef, inputs, schedule=None) -> list:
    """The (sender, receiver) link of every read of a tape-free relaxed
    execution, in the order the engine's sweeps make them.  This is the
    engine loop that kept the log itself while it ran, kept as the
    reference for the read order ``Execution.messages`` replays."""
    schedule = iter(schedule or ())  # one iterator, shared by every driver
    drivers = [ProgramDriver(p, i, schedule).restart(inputs[i - 1], "", "")
               for i in p.players]
    read_log = []
    progress = True
    while progress:
        progress = False
        for d in drivers:
            n_rounds = len(d.sends)
            d.run()
            if len(d.sends) == n_rounds:
                continue
            progress = True
            # The driver runs a round right after each read: reads[r - 1]
            # comes right before sends[r].
            for rnd in d.reads[max(n_rounds, 1) - 1:]:
                read_log.extend((s, d.player) for s, _ in rnd)
            for rnd in d.sends[n_rounds:]:
                for q, content in rnd:
                    drivers[q - 1].feed(d.player, content)
    return read_log


def random_relaxed_protocol(seed: int, k: int, ticks: int) -> ProtocolDef:
    """A seeded k-player relaxed protocol whose programs are random tables
    from view to ``Round``, with one-bit inputs and no tapes.

    Each player writes its output in round 1.  In each of its first
    ``ticks`` rounds it sends 1- or 2-bit messages to a random set of
    players and then waits on ``WAIT_ANY`` or on a random explicit set
    (possibly empty); after that it only waits on ``WAIT_ANY``, so it
    drains what is left in its inbox.  Every draw is seeded by the view
    alone.  Some runs deadlock on an explicit wait; they raise a
    ``ModelViolationError``."""
    players = range(1, k + 1)

    def program(i: int):
        others = [q for q in players if q != i]

        def prog(view: View) -> Round:
            rng = random.Random(repr((seed, i, view)))
            output = rng.choice("01") if view.round == 1 else None
            if view.round > ticks:
                return Round(output=output, waits=WAIT_ANY)
            sends = tuple(
                (q, "".join(rng.choice("01") for _ in range(rng.randint(1, 2))))
                for q in others if rng.random() < 0.5
            )
            if rng.random() < 0.5:
                waits = WAIT_ANY
            else:
                waits = tuple(q for q in others if rng.random() < 0.4)
            return Round(sends=sends, output=output, waits=waits)

        return prog

    return ProtocolDef(
        name=f"random-relaxed(seed={seed},k={k},ticks={ticks})",
        k=k,
        input_domains=(("0", "1"),) * k,
        output_domains=(("0", "1"),) * k,
        private_tape_lengths=(0,) * k,
        public_tape_length=0,
        programs=tuple(program(i) for i in players),
        max_local_rounds=ticks * k + 1,
        mode=RELAXED,
    )


def decode_pi(
    table: ExecutionTable,
    p: ProtocolDef,
    i: int,
    input_value: str,
    private_tape: str,
    public_tape: str,
    transcript: str,
) -> tuple[tuple[int, str], ...]:
    """Replay Pi_i through the player's wait sets, decoding message
    boundaries with the per-position prefix-free codebooks.

    Returns the reconstructed (sender, message) read events; raises if the
    transcript cannot be decoded or leaves trailing bits.
    """
    codebooks = table.codebooks
    driver = ProgramDriver(p, i).restart(input_value, private_tape,
                                         public_tape)
    read_pos: dict[int, int] = {}
    cursor = 0
    events: list[tuple[int, str]] = []
    while not driver.run().halted:
        books = [codebooks.get((s, i, read_pos.get(s, 0)), ())
                 for s in driver.waiting]
        if not all(any(transcript.startswith(w, cursor) for w in book)
                   for book in books):
            break  # blocked forever (legal when the transcript is exhausted)
        for s, book in zip(driver.waiting, books):
            match = [w for w in book if transcript.startswith(w, cursor)]
            if len(match) != 1:
                raise ModelViolationError(
                    f"transcript of player {i} is not uniquely decodable "
                    f"at bit {cursor} (link {s}->{i} position {read_pos.get(s, 0)})"
                )
            cursor += len(match[0])
            read_pos[s] = read_pos.get(s, 0) + 1
            driver.feed(s, match[0])
            events.append((s, match[0]))
    if cursor != len(transcript):
        raise ModelViolationError(
            f"transcript of player {i} has {len(transcript) - cursor} "
            "undecoded trailing bits"
        )
    return tuple(events)


def reference_lcp_randomized(x: str, y: str, eps: float, rng: random.Random):
    """``compression.lcp_randomized`` with one inner-product hash per string
    and mask, compared bit by bit: the same verdicts from the same
    ``getrandbits`` calls, so the RNG ends in the same state."""
    comm = _len_exchange_bits(max(len(x), len(y)))
    m = min(len(x), len(y))
    tests = max(1, math.ceil(math.log2(m + 1)))
    hash_bits = max(1, math.ceil(math.log2(tests / eps)))
    xi = int(x, 2) if x else 0
    yi = int(y, 2) if y else 0

    def prefixes_equal(length: int) -> bool:
        if length == 0:
            return True
        xp = xi >> (len(x) - length)
        yp = yi >> (len(y) - length)
        for _ in range(hash_bits):
            mask = rng.getrandbits(length)
            if (xp & mask).bit_count() & 1 != (yp & mask).bit_count() & 1:
                return False
        return True

    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        comm += hash_bits + 1
        if prefixes_equal(mid):
            lo = mid
        else:
            hi = mid - 1
    if lo == len(x) == len(y):
        return None, comm
    return lo, comm


def reference_replays(box: LcpBox, history) -> bool:
    """Answer another box's calls in order; False at the first answer
    that differs from the recorded one."""
    return all(box.compare(x, y) == answer for x, y, answer in history)


def split_public_tape(p: ProtocolDef, combined: str) -> tuple[str, tuple[str, ...]]:
    """Invert the bit-by-bit interleaving used by publicize()."""
    lengths = [p.public_tape_length] + list(p.private_tape_lengths)
    positions = interleave_positions(lengths)
    parts = ["".join(combined[at] for at in sub) for sub in positions]
    return parts[0], tuple(parts[1:])


def round_interleaved_transcript(e, i: int) -> str:
    """Player i's messages per local round: sent, then read.  On the zoo
    protocols this equals the global-order transcript compression reads
    (``ObliviousStructure.transcript``)."""
    sends, reads = e.record(i).sends, e.record(i).reads
    parts = []
    for r in range(max(len(sends), len(reads))):
        if r < len(sends):
            parts.extend(m for _, m in sends[r])
        if r < len(reads):
            parts.extend(m for _, m in reads[r])
    return "".join(parts)


def reference_events(p) -> dict:
    """Each player's events in round-interleaved order, in the form
    ``ObliviousStructure.events`` holds them, found by walking the reference
    execution's rounds and counting link positions.  Sorted by global
    index, a player's walk is its ``events``."""
    table = run_all(p)
    ref = next(iter(table.values()))
    gidx = {}
    for m in ref.messages:
        gidx[(m.sender, m.receiver, m.link_index)] = m.global_index
    events = {}
    for i in p.players:
        ev = []
        send_pos = {}
        read_pos = {}
        rec = ref.record(i)
        for r in range(1, len(rec.patterns) + 1):
            if r <= len(rec.sends):
                for q, _ in rec.sends[r - 1]:
                    pos = send_pos.get(q, 0)
                    send_pos[q] = pos + 1
                    ev.append((gidx[(i, q, pos)], "s", q, pos))
            if r <= len(rec.reads):
                for s, _ in rec.reads[r - 1]:
                    pos = read_pos.get(s, 0)
                    read_pos[s] = pos + 1
                    ev.append((gidx[(s, i, pos)], "r", s, pos))
        events[i] = tuple(ev)
    return events


def reference_candidate_leaf(node):
    """Max-weight descent from a transcript-tree node; ties take the
    0-labelled child.  The descent ``compress_run`` made at every stage
    before each node stored its ``candidate``."""
    while not node.is_leaf:
        zero = node.children.get("0")
        one = node.children.get("1")
        if zero is None:
            node = one
        elif one is None or zero.weight >= one.weight:
            node = zero
        else:
            node = one
    return node


def reference_tree_weights(p, i: int, own: str, pub: str, mu):
    """The transcript-tree law as ``build_tree`` computed it in Fractions:
    filter the whole input space for the owner's input and divide each
    input's weight by the owner's marginal.  Returns ``(weights, reached)``:
    each transcript's probability given X_i = own, and each full input's
    transcript, in input-space order."""
    struct = ObliviousStructure.build(p)
    cond = {x: w for x, w in mu.weights if x[i - 1] == own}
    marginal = sum(cond.values(), Fraction(0))
    none_tapes = ("",) * p.k
    weights: dict[str, Fraction] = {}
    reached: dict[tuple[str, ...], str] = {}
    for x in p.input_space():
        if x[i - 1] != own:
            continue
        e = struct.table.get(x, none_tapes, pub)
        t = reached[x] = struct.transcript(e.record(i), i)
        weights[t] = (weights.get(t, Fraction(0))
                      + cond.get(x, Fraction(0)) / marginal)
    return weights, reached


def reference_height(node) -> int:
    """Branching nodes on the longest path down from a transcript-tree
    node, by recursion (each node now stores its ``height``)."""
    if node.is_leaf:
        return 0
    return 1 + max(reference_height(c) for c in node.children.values())


def reference_profile_outputs(p, struct, inputs, public_tape, profile):
    """Outputs every player derives from its own profile transcript, by
    replaying its program on the messages it received there."""
    outputs = []
    for i in p.players:
        driver = ProgramDriver(p, i).restart(inputs[i - 1], "", public_tape)
        convs = struct.parse_transcript(i, profile[i - 1])
        for peer, (bits, extents) in convs.items():
            for g, start, end, _ in extents:
                if struct.messages[g - 1].receiver == i:
                    driver.feed(peer, bits[start:end])
        outputs.append(driver.run().output)
    return tuple(outputs)


def reference_randomized_error(p, mu, delta, family, seed=0, trials=8,
                               eps_call=None) -> float:
    """``measured_error`` of a randomized ``compression_theorem_check``
    with every trial a full ``compress_run``: the default rate from the
    exact runs' worst call count, then ``trials`` runs per (input, public
    tape), each on a box seeded from one ``Random(seed)``."""
    struct = ObliviousStructure.build(p)
    trees: dict = {}
    rows, den = weighted_executions(p, mu)
    rows = list(rows)
    if eps_call is None:
        max_calls = max(
            compress_run(p, mu, x, pub, LcpBox(mode="exact"),
                         structure=struct, trees=trees).lcp_calls
            for x, _, _, pub, _ in rows
        )
        eps_call = delta / max(2 * max_calls, 1)
    rng = random.Random(seed)
    bad = 0
    for x, n, _, pub, _ in rows:
        want = tuple(family.value(i, x) for i in p.players)
        for _ in range(trials):
            box = LcpBox(mode="randomized", eps=eps_call,
                         seed=rng.getrandbits(48))
            result = compress_run(p, mu, x, pub, box,
                                  structure=struct, trees=trees)
            bad += n * (result.outputs != want)
    return bad / (den * trials)


def _pi(e, i):
    return "".join(m for rnd in e.record(i).reads for _, m in rnd)


def _sent(e, i):
    return "".join(m for rnd in e.record(i).sends for _, m in rnd)


def _without(values, i):
    return tuple(v for j, v in enumerate(values, start=1) if j != i)


def oracle_ic(p, mu) -> float:
    """Term-by-term internal information cost by direct enumeration."""
    runs = list(enumerate_runs(p, mu))
    total = 0.0
    for i in p.players:
        rows = [
            (
                w,
                _without(e.inputs, i),
                _pi(e, i),
                (e.inputs[i - 1], e.private_tapes[i - 1], e.public_tape),
            )
            for w, e in runs
        ]
        total += oracle_conditional_mi(rows)
    return total


def oracle_pic(p, mu) -> float:
    """Term-by-term public information cost by direct enumeration."""
    runs = list(enumerate_runs(p, mu))
    total = 0.0
    for i in p.players:
        rows = [
            (
                w,
                _without(e.inputs, i),
                (_pi(e, i), _without(e.private_tapes, i)),
                (e.inputs[i - 1], e.private_tapes[i - 1], e.public_tape),
            )
            for w, e in runs
        ]
        total += oracle_conditional_mi(rows)
    return total


def oracle_transcript_entropy(p, mu) -> float:
    runs = list(enumerate_runs(p, mu))
    rows = [
        (
            w,
            "".join(_pi(e, i) for i in p.players),
            (e.inputs, e.public_tape),
        )
        for w, e in runs
    ]
    return oracle_cond_entropy(rows)


def oracle_spy_info(p, mu) -> float:
    runs = list(enumerate_runs(p, mu))
    total = 0.0
    for i in p.players:
        rows = [
            (w, e.inputs[i - 1], _pi(e, i) + _sent(e, i), ())
            for w, e in runs
        ]
        total += oracle_conditional_mi(rows)
    return total


def oracle_privacy_leakage(p, mu, family) -> float:
    runs = list(enumerate_runs(p, mu))
    total = 0.0
    for i in p.players:
        rows = [
            (
                w,
                _without(e.inputs, i),
                _pi(e, i),
                (
                    e.inputs[i - 1],
                    e.private_tapes[i - 1],
                    e.public_tape,
                    family.value(i, e.inputs),
                ),
            )
            for w, e in runs
        ]
        total += oracle_conditional_mi(rows)
    return total


def oracle_bidirectional_ic_terms(p, mu) -> list:
    """Per-player I(X_-i ; Pi_i<-> | X_i R_i Rp), bidirectional ordering."""
    runs = list(enumerate_runs(p, mu))
    terms = []
    for i in p.players:
        rows = [
            (
                w,
                _without(e.inputs, i),
                _pi(e, i) + _sent(e, i),
                (e.inputs[i - 1], e.private_tapes[i - 1], e.public_tape),
            )
            for w, e in runs
        ]
        terms.append(oracle_conditional_mi(rows))
    return terms


def oracle_ic_terms(p, mu) -> list:
    runs = list(enumerate_runs(p, mu))
    terms = []
    for i in p.players:
        rows = [
            (
                w,
                _without(e.inputs, i),
                _pi(e, i),
                (e.inputs[i - 1], e.private_tapes[i - 1], e.public_tape),
            )
            for w, e in runs
        ]
        terms.append(oracle_conditional_mi(rows))
    return terms


# ---------------------------------------------------------------------------
# Tree-protocol fixtures
# ---------------------------------------------------------------------------


def _x(a: str, b: str) -> str:
    return "1" if a != b else "0"


def relay3_dict() -> dict:
    """Three players, two local rounds each: player 1 starts a relay whose
    last message is the three-way parity, which player 1 outputs."""

    def leaf(par):
        return {"outputs": [par, "0", "0"]}

    def node31(b2):
        return {
            "sender": 3, "receiver": 1, "msg_bits": 1,
            "message_table": {"0": b2, "1": _x(b2, "1")},
            "children": {"0": leaf("0"), "1": leaf("1")},
        }

    def node23(x1):
        return {
            "sender": 2, "receiver": 3, "msg_bits": 1,
            "message_table": {"0": x1, "1": _x(x1, "1")},
            "children": {"0": node31("0"), "1": node31("1")},
        }

    return {
        "name": "relay3",
        "k": 3,
        "input_bits": [1, 1, 1],
        "tape_bits": {"private": [0, 0, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {"0": "0", "1": "1"},
            "children": {"0": node23("0"), "1": node23("1")},
        },
    }


def relay3_family():
    from protolab.zoo import FunctionFamily

    def parity(x):
        return _x(_x(x[0], x[1]), x[2])

    return FunctionFamily(
        "relay3-parity", (parity, lambda x: "0", lambda x: "0")
    )


def masked_ping_dict() -> dict:
    """Player 1 sends x xor r (one private pad bit); outputs are constant.

    pic = 1 while ic = 0: the message is a one-time pad until the pad is
    adjoined, so all of pic is the private-randomness term."""
    return {
        "name": "masked-ping",
        "k": 2,
        "input_bits": [1, 1],
        "tape_bits": {"private": [1, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {
                "0:0:": "0", "0:1:": "1", "1:0:": "1", "1:1:": "0"
            },
            "children": {
                "0": {"outputs": ["0", "0"]},
                "1": {"outputs": ["0", "0"]},
            },
        },
    }


def and_mask_dict() -> dict:
    """Player 1 sends x AND r; constant outputs.  Derandomization helps
    strictly: the seed r=0 makes the message constant."""
    return {
        "name": "and-mask",
        "k": 2,
        "input_bits": [1, 1],
        "tape_bits": {"private": [1, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {
                "0:0:": "0", "0:1:": "0", "1:0:": "0", "1:1:": "1"
            },
            "children": {
                "0": {"outputs": ["0", "0"]},
                "1": {"outputs": ["0", "0"]},
            },
        },
    }


def second_bit_dict() -> dict:
    """Player 1 sends its bit; only on 1 does player 2 reply with its own
    bit (which player 1 outputs).  Average communication 1.5 under uniform
    inputs."""
    return {
        "name": "second-bit",
        "k": 2,
        "input_bits": [1, 1],
        "tape_bits": {"private": [0, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {"0": "0", "1": "1"},
            "children": {
                "0": {"outputs": ["0", "0"]},
                "1": {
                    "sender": 2, "receiver": 1, "msg_bits": 1,
                    "message_table": {"0": "0", "1": "1"},
                    "children": {
                        "0": {"outputs": ["0", "0"]},
                        "1": {"outputs": ["1", "0"]},
                    },
                },
            },
        },
    }


def _random_tree_node(rng, d: int, depth: int, senders, keys) -> dict:
    """One node of ``random_tree_dict`` and, depth first, its subtree.  A
    module function rather than a closure over itself, so a draw leaves no
    reference cycle behind."""
    if d == depth:
        return {"outputs": [rng.choice("01"), rng.choice("01")]}
    sender = rng.choice((1, 2)) if senders is None else senders[d]
    return {
        "sender": sender, "receiver": 3 - sender, "msg_bits": 1,
        "message_table": {key: rng.choice("01") for key in keys[sender]},
        "children": {
            "0": _random_tree_node(rng, d + 1, depth, senders, keys),
            "1": _random_tree_node(rng, d + 1, depth, senders, keys),
        },
    }


def random_tree_dict(rng, depth: int, input_bits: int = 1,
                     private: tuple[int, int] = (0, 0),
                     public: int = 0, oblivious: bool = False) -> dict:
    """Complete two-player tree: every path sends ``depth`` one-bit
    messages, each sender, message table and leaf output drawn from rng.
    With tape bits the message tables are keyed ``input:private:public``
    over the sender's tapes.  With ``oblivious`` each depth draws one
    sender for all its nodes, so the tree is an oblivious protocol."""
    inputs = ["".join(b) for b in itertools.product("01", repeat=input_bits)]
    senders = [rng.choice((1, 2)) for _ in range(depth)] if oblivious else None
    keys = {
        sender: inputs if not any(private) and not public else [
            f"{x}:{r}:{rp}"
            for x in inputs
            for r in bitstrings(private[sender - 1])
            for rp in bitstrings(public)
        ]
        for sender in (1, 2)
    }
    return {
        "name": f"random-tree(depth={depth})",
        "k": 2,
        "input_bits": [input_bits, input_bits],
        "tape_bits": {"private": list(private), "public": public},
        "tree": _random_tree_node(rng, 0, depth, senders, keys),
    }


def _multiparty_node(draw: dict, d: int, seen: dict) -> dict:
    """One node of ``random_multiparty_tree_dict`` and, depth first, its
    subtree; ``draw`` holds what the whole draw shares.  A module function
    rather than a closure over itself, so a draw leaves no reference cycle
    behind."""
    rng, seed, players = draw["rng"], draw["seed"], draw["players"]
    if d == len(draw["pairs"]):
        if draw["valid"]:
            return {"outputs": [
                random.Random(repr((seed, "out", i, seen[i]))).choice("01")
                for i in players
            ]}
        return {"outputs": [rng.choice("01") for _ in players]}
    if draw["valid"]:
        (sender, receiver), bits = draw["pairs"][d], 1
        choose = random.Random(repr((seed, d, seen[sender])))
        table = {key: choose.choice("01") for key in draw["keys"][sender]}
        values = ("0", "1")
    else:
        sender, receiver = rng.sample(players, 2)
        bits = rng.choice((1, 2))
        table = {key: rng.choice(bitstrings(bits))
                 for key in draw["keys"][sender]}
        values = sorted(set(table.values()) | {rng.choice(bitstrings(bits))})
    children = {}
    for value in values:
        after = dict(seen)
        after[sender] += (value,)
        after[receiver] += (value,)
        children[value] = _multiparty_node(draw, d + 1, after)
    return {"sender": sender, "receiver": receiver, "msg_bits": bits,
            "message_table": table, "children": children}


def random_multiparty_tree_dict(seed: int, k: int, depth: int,
                                private: tuple[int, ...] | None = None,
                                public: int = 0, valid: bool = True) -> dict:
    """A seeded k-player tree with one-bit inputs and the given tapes.

    With ``valid`` every node at one depth has the sender/receiver pair
    drawn for that depth, sends one bit and has both children; a node's
    message table is drawn from (depth, the messages the sender sent and
    read on the path so far) and a leaf's output for each player from that
    player's own messages on the path.  Each player can then tell what to
    do from what it has seen, so every draw is a valid protocol, and a
    player that takes no part at some depth fans out over its branches.
    Without ``valid`` each node draws its own pair, a one- or two-bit
    message per view key and children for the values drawn (plus a spare
    one), and leaves draw every output: most such draws break a rule."""
    rng = random.Random(repr(("multiparty-tree", seed, k, depth, valid)))
    private = tuple(private or (0,) * k)
    players = range(1, k + 1)
    pairs = [tuple(rng.sample(players, 2)) for _ in range(depth)]
    keys = {
        sender: ["0", "1"] if not any(private) and not public else [
            f"{x}:{r}:{rp}" for x in "01"
            for r in bitstrings(private[sender - 1])
            for rp in bitstrings(public)
        ]
        for sender in players
    }
    draw = {"rng": rng, "seed": seed, "players": players, "pairs": pairs,
            "keys": keys, "valid": valid}
    return {
        "name": f"multiparty-tree(seed={seed},k={k},depth={depth})",
        "k": k,
        "input_bits": [1] * k,
        "tape_bits": {"private": list(private), "public": public},
        "tree": _multiparty_node(draw, 0, {i: () for i in players}),
    }


def walk_tree(spec: dict, inputs, private_tapes, public_tape):
    """Follow a tree dictionary from the root on one (input, tape)
    assignment: the leaf's outputs and, per link, the messages sent on it
    in order."""
    tapes = spec["tape_bits"]
    has_tapes = sum(tapes["private"]) + tapes["public"] > 0
    node = spec["tree"]
    links: dict[tuple[int, int], list[str]] = defaultdict(list)
    while "outputs" not in node:
        s = node["sender"]
        key = (f"{inputs[s - 1]}:{private_tapes[s - 1]}:{public_tape}"
               if has_tapes else inputs[s - 1])
        value = node["message_table"][key]
        links[(s, node["receiver"])].append(value)
        node = node["children"][value]
    return tuple(node["outputs"]), dict(links)


# ---------------------------------------------------------------------------
# Reference tree compiler: each round re-walks the tree from the root with
# the player's whole history (reads and number of sends).  ``_frontier`` and
# ``_decide`` are kept verbatim from the compiler before it carried its
# positions from round to round, as the reference for that compiler.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ReferenceDecision:
    kind: str  # "send" | "wait" | "halt"
    receiver: int | None
    value: str | None
    sender: int | None
    determined: str | None  # unique reachable output for this player, if any


@dataclasses.dataclass
class _ReferenceProgress:
    key: str
    received: tuple[tuple[int, str], ...]
    sent: int
    wrote: bool
    now: _ReferenceDecision


def reference_frontier(self, player, key, received, send_budget):
    """Consistent stop positions given the player's history.

    ``send_budget`` is how many of its own sends the player has already
    performed; the walk stops at the next own-send node once the budget
    is used up.
    """
    points = []

    def walk(node, consumed: int, sent: int):
        if node.is_leaf:
            if consumed == len(received):
                points.append(node)
            return
        if node.sender == player:
            if sent < send_budget:
                walk(node.children[node.message_table[key]],
                     consumed, sent + 1)
            else:
                if consumed == len(received):
                    points.append(node)
            return
        if node.receiver == player:
            if consumed < len(received):
                sender, value = received[consumed]
                if sender == node.sender and value in node.children:
                    walk(node.children[value], consumed + 1, sent)
                return
            points.append(node)
            return
        for child in node.children.values():
            walk(child, consumed, sent)

    walk(self.root, 0, 0)
    if not points:
        raise ModelViolationError(
            f"player {player} observed messages inconsistent with the tree"
        )
    return points


def reference_decide(self, player, key, received, send_budget):
    points = reference_frontier(self, player, key, received, send_budget)
    outputs = set().union(*(n.reachable[player - 1] for n in points))
    determined = outputs.pop() if len(outputs) == 1 else None

    leaves = [n for n in points if n.is_leaf]
    own = [n for n in points if not n.is_leaf and n.sender == player]
    waits = [n for n in points if not n.is_leaf and n.receiver == player]

    if own:
        if leaves or waits:
            raise ModelViolationError(
                f"player {player} cannot tell whether it must send "
                "(mixed roles across indistinguishable branches)"
            )
        moves = {(n.receiver, n.message_table[key]) for n in own}
        if len(moves) != 1:
            raise ModelViolationError(
                f"player {player} would send different messages on "
                "branches it cannot distinguish"
            )
        receiver, value = moves.pop()
        return _ReferenceDecision("send", receiver, value, None, determined)
    if waits:
        senders = {n.sender for n in waits}
        if len(senders) != 1:
            raise ModelViolationError(
                f"player {player} cannot form a wait set: possible "
                f"senders {sorted(senders)}"
            )
        return _ReferenceDecision("wait", None, None, senders.pop(), determined)
    return _ReferenceDecision("halt", None, None, None, determined)


def reference_tree_protocol(spec: dict) -> ProtocolDef:
    """``protocol_from_dict(spec)`` with the reference compiler's programs."""
    machine = _TreeMachine(spec, "tree")

    def program(player: int):
        def start(view: View) -> _ReferenceProgress:
            key = machine.view_key(view.input, view.private_tape,
                                   view.public_tape)
            return _ReferenceProgress(
                key, (), 0, False, reference_decide(machine, player, key, (), 0)
            )

        def fold(state, round_reads, index: int) -> None:
            past = state.now
            if past.determined is not None:
                state.wrote = True
            if past.kind == "send":
                state.sent += 1
            state.received += round_reads
            state.now = reference_decide(machine, player, state.key,
                                         state.received, state.sent)

        state_of = fold_views(start, fold)

        def prog(view: View) -> Round:
            state = state_of(view)
            now = state.now
            output = now.determined if not state.wrote else None
            if now.kind == "send":
                return Round(
                    sends=((now.receiver, now.value),), output=output, waits=()
                )
            if now.kind == "wait":
                return Round(output=output, waits=(now.sender,))
            if output is None and now.determined is None:
                raise ModelViolationError(
                    f"player {player} reached leaves with conflicting outputs"
                )
            return Round(output=output, halt=True)

        return prog

    return dataclasses.replace(
        protocol_from_dict(spec),
        programs=tuple(program(i) for i in range(1, machine.k + 1)),
    )


def random_table_protocol(seed: int, k: int, ticks: int,
                          private: tuple[int, ...], public: int) -> ProtocolDef:
    """A seeded k-player protocol whose programs are random tables from
    view to ``Round``, with one-bit inputs and the given tapes.

    Every player runs one local round per tick: it sends to the players
    drawn for it at that tick from the public tape, then reads what was
    sent to it at that tick, so nothing deadlocks and the pattern moves
    with the public tape.  Message contents, the output and the order of
    sends and waits (waits repeat some senders) are drawn from the whole
    view; the round that writes the output is drawn from the input and
    tapes.  Each message's length is fixed by its link and position, so
    every codebook is prefix-free.  A view's entry is drawn from a seed
    built from the view alone, so the table does not depend on the order
    in which views are met."""
    players = range(1, k + 1)

    @lru_cache(maxsize=None)
    def recipients(pub: str, t: int) -> dict:
        rng = random.Random(repr((seed, "send-sets", pub, t)))
        return {
            j: tuple(q for q in players if q != j and rng.random() < 0.5)
            for j in players
        }

    def program(i: int):
        table = {}

        def prog(view: View) -> Round:
            key = (view.input, view.private_tape, view.public_tape, view.reads)
            if key not in table:
                table[key] = entry(view)
            return table[key]

        def entry(view: View) -> Round:
            rng = random.Random(repr((seed, i, view)))
            tapes = (view.input, view.private_tape, view.public_tape)
            out_tick = random.Random(repr((seed, i, tapes))).randint(
                1, ticks + 1
            )
            t, pub = view.round, view.public_tape
            output = rng.choice(("0", "1", "10")) if t == out_tick else None
            if t > ticks:
                return Round(output=output, halt=True)
            sends = []
            for q in recipients(pub, t)[i]:
                pos = sum(q in recipients(pub, u)[i] for u in range(1, t))
                bits = [rng.choice("01") for _ in range(1 + (i + q + pos) % 2)]
                sends.append((q, "".join(bits)))
            waits = [j for j in players if i in recipients(pub, t)[j]]
            waits += rng.sample(waits, rng.randint(0, len(waits)))
            rng.shuffle(sends)
            rng.shuffle(waits)
            return Round(sends=tuple(sends), output=output, waits=tuple(waits))

        return prog

    return ProtocolDef(
        name=f"random-table(seed={seed},k={k},ticks={ticks})",
        k=k,
        input_domains=(("0", "1"),) * k,
        output_domains=(("0", "1", "10"),) * k,
        private_tape_lengths=tuple(private),
        public_tape_length=public,
        programs=tuple(program(i) for i in players),
        max_local_rounds=ticks + 1,
    )


# ---------------------------------------------------------------------------
# Metamorphic wrappers: rewrites that must leave every measure unchanged
# ---------------------------------------------------------------------------


def xor_tapes(p: ProtocolDef, private_masks: tuple[str, ...],
              public_mask: str) -> ProtocolDef:
    """p with each private tape and the public tape XORed with a fixed mask
    before its program reads them.  A uniform tape stays uniform, so every
    measure is unchanged."""

    def wrap(program, mask):
        return lambda view: program(dataclasses.replace(
            view, private_tape=xor_bits(view.private_tape, mask),
            public_tape=xor_bits(view.public_tape, public_mask),
        ))

    return dataclasses.replace(
        p, name=f"xor-tapes({p.name})",
        programs=tuple(map(wrap, p.programs, private_masks)),
    )


def relabel_inputs(p: ProtocolDef, mu: InputDistribution,
                   relabel: tuple[dict[str, str], ...]
                   ) -> tuple[ProtocolDef, InputDistribution]:
    """p with player i's input v renamed ``relabel[i - 1][v]`` (a bijection
    onto new bitstrings), each program undoing the renaming before it runs,
    and mu pushed forward through it.  Every measure is unchanged."""

    def wrap(program, rename):
        undo = {new: old for old, new in rename.items()}
        return lambda view: program(
            dataclasses.replace(view, input=undo[view.input]))

    relabeled = dataclasses.replace(
        p, name=f"relabel({p.name})",
        input_domains=tuple(tuple(map(rename.__getitem__, dom))
                            for dom, rename in zip(p.input_domains, relabel)),
        programs=tuple(map(wrap, p.programs, relabel)),
    )
    pushed = InputDistribution.from_weights(mu.name, {
        tuple(rename[v] for v, rename in zip(x, relabel)): w
        for x, w in mu.weights
    })
    return relabeled, pushed


def oblivious_trees(count: int = 20) -> list[ProtocolDef]:
    """Seeded oblivious two-player trees of depth 1 to 4 with private and
    public tape bits."""
    return [
        protocol_from_dict(random_tree_dict(
            random.Random(seed), 1 + seed % 4, 1,
            private=(seed % 2, (seed // 2) % 2), public=(seed // 4) % 2,
            oblivious=True,
        ))
        for seed in range(count)
    ]


# ---------------------------------------------------------------------------
# Reference kernel: the Fraction-based entropy, cond_entropy and mutual_info,
# kept verbatim (only renamed) as the exact-equality reference for the
# integer-numerator kernel in protolab.info.  They read the joint law only
# through ``resolve`` and the Fraction-valued ``marginal``.
# ---------------------------------------------------------------------------


def reference_entropy(d: JointDistribution, selector: str | Iterable[str]) -> float:
    """Shannon entropy H(A) in bits of the selected marginal."""
    total = 0.0
    for w in d.marginal(selector).values():
        total += float(w) * math.log2(w.denominator / w.numerator)
    return total


def reference_cond_entropy(
    d: JointDistribution,
    selector: str | Iterable[str],
    given: str | Iterable[str],
) -> float:
    """Conditional entropy H(A | C) in bits.

    Overlapping selectors are allowed; shared variables contribute nothing
    (H(X | X) = 0), matching the expectation-over-conditionals definition.
    """
    a = d.resolve(selector)
    c = d.resolve(given)
    ac = d.resolve(a + c)  # union, in distribution order
    p_ac = d.marginal(ac)
    p_c = d.marginal(c)
    c_in_ac = [ac.index(n) for n in c]
    total = 0.0
    for values, w in p_ac.items():
        pc = p_c[tuple(values[i] for i in c_in_ac)]
        ratio = pc / w  # exact Fraction >= 1
        if ratio != 1:
            total += float(w) * math.log2(ratio.numerator / ratio.denominator)
    return total


def reference_mutual_info(
    d: JointDistribution,
    a_sel: str | Iterable[str],
    b_sel: str | Iterable[str],
    given: str | Iterable[str] | None = None,
) -> float:
    """Conditional mutual information I(A ; B | C) in bits, non-negative.

    Computed as a single exact-ratio sum
    ``sum p(abc) * log2(p(abc) p(c) / (p(ac) p(bc)))`` so that only the final
    float summation can introduce error.  Raises if the raw value falls
    below ``-NEGATIVE_RESIDUE``.
    """
    a = d.resolve(a_sel)
    b = d.resolve(b_sel)
    c = d.resolve(given) if given is not None else ()
    groups = (set(a), set(b), set(c))
    for i in range(3):
        for j in range(i + 1, 3):
            if groups[i] & groups[j]:
                raise ValueError(
                    f"overlapping selectors: {sorted(groups[i] & groups[j])}"
                )
    abc = tuple(n for n in d.variables if n in groups[0] | groups[1] | groups[2])
    p_abc = d.marginal(abc)
    ac_names = tuple(n for n in abc if n in groups[0] | groups[2])
    bc_names = tuple(n for n in abc if n in groups[1] | groups[2])
    c_names = tuple(n for n in abc if n in groups[2])
    i_ac = [abc.index(n) for n in ac_names]
    i_bc = [abc.index(n) for n in bc_names]
    i_c = [abc.index(n) for n in c_names]
    p_ac = d.marginal(ac_names)
    p_bc = d.marginal(bc_names)
    p_c = d.marginal(c_names) if c_names else {(): Fraction(1)}
    total = 0.0
    for values, w in p_abc.items():
        pac = p_ac[tuple(values[i] for i in i_ac)]
        pbc = p_bc[tuple(values[i] for i in i_bc)]
        pc = p_c[tuple(values[i] for i in i_c)]
        ratio = (w * pc) / (pac * pbc)
        if ratio != 1:
            total += float(w) * math.log2(ratio.numerator / ratio.denominator)
    if total < 0.0:
        if total < -NEGATIVE_RESIDUE:
            raise RuntimeError(
                f"mutual information evaluated to {total}; "
                "residue exceeds the rounding tolerance"
            )
        total = 0.0
    return total


# ---------------------------------------------------------------------------
# Random generators (seeded by the caller)
# ---------------------------------------------------------------------------


def random_joint(rng, n_vars=None, max_vals=3):
    """Random small exact joint distribution for property tests."""
    n_vars = n_vars or rng.randint(2, 4)
    names = tuple(f"v{j}" for j in range(n_vars))
    sizes = [rng.randint(2, max_vals) for _ in range(n_vars)]
    cells = []

    def fill(prefix):
        if len(prefix) == n_vars:
            cells.append(tuple(prefix))
            return
        for v in range(sizes[len(prefix)]):
            fill(prefix + [f"a{v}"])

    fill([])
    support = [c for c in cells if rng.random() < 0.8]
    if len(support) < 2:
        support = cells[:2]
    denom = rng.randint(len(support), 6 * len(support))
    weights = {}
    remaining = denom
    for idx, cell in enumerate(support):
        left = len(support) - idx - 1
        hi = remaining - left
        num = rng.randint(1, hi) if left else remaining
        weights[cell] = Fraction(num, denom)
        remaining -= num
    return JointDistribution.from_mapping(names, weights)


def random_weights(rng, p: ProtocolDef) -> dict:
    """Random ``{input: Fraction}`` weights summing to one over a
    protocol's full domain; the law ``random_mu`` builds."""
    tuples = list(p.input_space())
    support = [x for x in tuples if rng.random() < 0.85] or tuples[:1]
    denom = rng.randint(len(support), 5 * len(support))
    weights = {}
    remaining = denom
    for idx, x in enumerate(support):
        left = len(support) - idx - 1
        hi = remaining - left
        num = rng.randint(1, hi) if left else remaining
        weights[x] = Fraction(num, denom)
        remaining -= num
    return weights


def random_mu(rng, p: ProtocolDef, name="random") -> InputDistribution:
    """Random exact input distribution over a protocol's full domain."""
    return InputDistribution.from_weights(name, random_weights(rng, p))


# ---------------------------------------------------------------------------
# Reference pic grid scan
# ---------------------------------------------------------------------------


def _vec_group_entropy(weights: np.ndarray, group_ids: np.ndarray) -> np.ndarray:
    """Entropy over grouped cells, vectorized across the leading axis."""
    n_groups = int(group_ids.max()) + 1
    probs = np.zeros((weights.shape[0], n_groups))
    for cell, g in enumerate(group_ids):
        probs[:, g] += weights[:, cell]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(probs > 0, np.log2(np.where(probs > 0, probs, 1.0)), 0.0)
    return -(probs * logs).sum(axis=1)


def reference_sup_pic_grid(
    p: ProtocolDef,
    grid_step: float = 0.001,
    budget: int | None = DEFAULT_BUDGET,
) -> GridResult:
    """The two-dimensional pic grid scan that ``measures.sup_pic_grid``
    replaced, kept verbatim (only renamed) as its reference: every grid
    point's four grouped entropies over every cell of the input space.

    Maximize pic over a grid of independent Ber(alpha) x Ber(beta) input
    distributions for a two-player one-bit protocol.

    The grid is scanned with a vectorized float evaluation; the winning grid
    point (ties resolved toward smaller alpha, then smaller beta) is then
    re-evaluated exactly.  Returns a lower bound on the supremum.
    """
    if p.k != 2 or any(set(d) != {"0", "1"} for d in p.input_domains):
        raise ConfigError(
            "grid search needs two players with one-bit input domains"
        )
    if not 0 < grid_step < math.inf:
        raise ConfigError("grid step must be a positive finite number")
    m = round(1.0 / grid_step)
    if m < 2:
        raise ConfigError("grid step too coarse")
    table = run_all(p, budget)
    tape_weight = 1.0 / (1 << p.total_tape_bits)

    cells = []
    for x in p.input_space():
        for privs, pub in p.tape_space():
            e = table.get(x, privs, pub)
            cells.append(
                {
                    "x": x,
                    "tapes": (privs, pub),
                    "pi": tuple(e.record(i).received for i in (1, 2)),
                }
            )

    # Per player i: I(X_-i ; Pi_i R_-i | X_i R_i Rp)
    #             = H(AC) + H(BC) - H(ABC) - H(C) over cell groupings.
    # Group ids are labelled in first-seen order, so equal partitions are
    # equal arrays; a grouping holds the byte keys of its partitions, and
    # each distinct partition's entropy is computed once per alpha row.
    partitions: dict[bytes, np.ndarray] = {}
    groupings = []
    for i in (1, 2):
        o = 2 if i == 1 else 1

        def keys(cell, i=i, o=o):
            a = cell["x"][o - 1]
            b = (cell["pi"][i - 1], cell["tapes"][0][o - 1])
            c = (cell["x"][i - 1], cell["tapes"][0][i - 1], cell["tapes"][1])
            return a, b, c

        def ids(selector):
            seen: dict = {}
            out = []
            for cell in cells:
                a, b, c = keys(cell)
                key = selector(a, b, c)
                out.append(seen.setdefault(key, len(seen)))
            g = np.array(out)
            partitions.setdefault(g.tobytes(), g)
            return g.tobytes()

        groupings.append(
            (
                ids(lambda a, b, c: (a, c)),
                ids(lambda a, b, c: (b, c)),
                ids(lambda a, b, c: (a, b, c)),
                ids(lambda a, b, c: (c,)),
            )
        )

    steps = np.arange(1, m) / m
    n_b = len(steps)
    best_val = -1.0
    best_ia = best_ib = 1
    tie_window = 1e-12  # float ties resolve toward smaller alpha, then beta
    x_bits = np.array([[int(cell["x"][0]), int(cell["x"][1])] for cell in cells])
    for ia, alpha in enumerate(np.asarray(steps), start=1):
        pa = np.where(x_bits[:, 0] == 0, alpha, 1 - alpha)  # per cell
        pb = np.where(
            x_bits[None, :, 1] == 0, steps[:, None], 1 - steps[:, None]
        )  # (n_b, cells)
        weights = pa[None, :] * pb * tape_weight
        h = {key: _vec_group_entropy(weights, g) for key, g in partitions.items()}
        total = np.zeros(n_b)
        for g_ac, g_bc, g_abc, g_c in groupings:
            total += h[g_ac] + h[g_bc] - h[g_abc] - h[g_c]
        row_best = float(total.max())
        ib = int(np.argmax(total >= row_best - tie_window))
        if row_best > best_val + tie_window:
            best_val = row_best
            best_ia, best_ib = ia, ib + 1

    alpha = Fraction(best_ia, m)
    beta = Fraction(best_ib, m)
    mu = dataclasses.replace(InputDistribution.independent_bits(alpha, beta),
                             name=f"grid({alpha},{beta})")
    exact = pic(p, mu, budget)
    return GridResult(alpha=alpha, beta=beta, value=exact,
                      grid_value=best_val, mu=mu)
