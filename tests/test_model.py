"""Tests for the protocol execution engine, lot ordering, and certifications."""

import dataclasses
import gc
import itertools
import math
import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import pytest

import helpers
from protolab import compression, measures, model, oblivious, treefile, zoo
from protolab.compression import compression_theorem_check
from protolab.errors import (
    BudgetExceededError,
    DeadlockError,
    ModelViolationError,
    NonTerminationError,
    SelfDelimitingError,
    format_count,
)
from protolab.measures import (
    InputDistribution,
    build_joint,
    product_protocol,
    publicize,
    sup_pic_grid,
)
from protolab.model import (
    DEFAULT_BUDGET,
    RELAXED,
    WAIT_ANY,
    ObliviousStructure,
    ProtocolDef,
    Round,
    View,
    is_oblivious,
    run,
    run_all,
    run_relaxed,
)
from protolab.oblivious import obliviousize
from protolab.treefile import protocol_from_dict
from protolab.zoo import get_entry, ring_parity


def two_player(name, prog1, prog2, **kw):
    defaults = dict(
        name=name,
        k=2,
        input_domains=(("0", "1"), ("0", "1")),
        output_domains=(("0", "1"), ("0", "1")),
        private_tape_lengths=(0, 0),
        public_tape_length=0,
        programs=(prog1, prog2),
        max_local_rounds=6,
    )
    defaults.update(kw)
    return ProtocolDef(**defaults)


def test_run_is_deterministic():
    p = get_entry("ring-parity", k=3, n=2).protocol
    a = run(p, ("10", "01", "11"), ("01", "", ""), "")
    b = run(p, ("10", "01", "11"), ("01", "", ""), "")
    assert a == b
    assert a.outputs[0] == "00"


def test_reads_sorted_by_sender_within_round():
    p = get_entry("star-parity", k=4, n=1).protocol
    e = run(p, ("0", "1", "0", "1"))
    senders = [s for s, _ in e.record(1).reads[0]]
    assert senders == [2, 3, 4]
    assert e.record(1).received == "101"


def test_transcript_length_accounting():
    for entry in (
        get_entry("ring-parity", k=3, n=1),
        get_entry("star-parity", k=3, n=2),
        get_entry("and-opt"),
    ):
        for key, e in run_all(entry.protocol).items():
            assert sum(
                len(e.record(i).received) for i in entry.protocol.players
            ) == e.total_bits


def test_lot_assignment_examples():
    ring = get_entry("ring-parity", k=3, n=1).protocol
    e = run(ring, ("0", "0", "0"), ("0", "", ""), "")
    assert [(m.sender, m.receiver, m.lot) for m in e.messages] == [
        (1, 2, 1), (2, 3, 2), (3, 1, 3)
    ]
    star = get_entry("star-parity", k=3, n=1).protocol
    e = run(star, ("0", "0", "0"))
    assert [(m.sender, m.receiver, m.lot) for m in e.messages] == [
        (2, 1, 1), (3, 1, 1)
    ]
    andp = get_entry("and-opt").protocol
    e = run(andp, ("1", "0"))
    assert [(m.sender, m.receiver, m.lot) for m in e.messages] == [
        (1, 2, 1), (2, 1, 2)
    ]


def test_lot_order_respects_causality():
    # Property (2): all messages a sender read before sending come earlier
    # in the global order; checked mechanically on every zoo execution,
    # together with recomputing each message from the sender's view.
    for entry in (
        get_entry("ring-parity", k=4, n=1),
        get_entry("star-parity", k=3, n=2),
        get_entry("and-opt"),
        get_entry("q-index", k=3, q=1),
    ):
        p = entry.protocol
        for e in run_all(p).values():
            index_of = {}
            for m in e.messages:
                index_of[(m.sender, m.receiver, m.link_index)] = m.global_index
            for m in e.messages:
                i = m.sender
                read_before = [
                    rm
                    for r, rnd in enumerate(e.record(i).reads, start=1)
                    if r < m.sender_round
                    for rm in rnd
                ]
                seen = {}
                for s, content in read_before:
                    pos = seen.get(s, 0)
                    seen[s] = pos + 1
                    assert index_of[(s, i, pos)] < m.global_index
                # Recompute the message from the sender's view at send time.
                view = View(
                    player=i,
                    input=e.inputs[i - 1],
                    private_tape=e.private_tapes[i - 1],
                    public_tape=e.public_tape,
                    reads=e.record(i).reads[: m.sender_round - 1],
                )
                act = p.program(i)(view)
                assert dict(act.sends)[m.receiver] == m.content


def _reference_cases():
    cases = [
        get_entry("ring-parity", k=4, n=2).protocol,
        get_entry("star-parity", k=4, n=2).protocol,
        get_entry("q-index", k=4, q=2).protocol,
        product_protocol(get_entry("star-parity", k=3, n=2).protocol,
                         get_entry("ring-parity", k=3, n=1).protocol),
    ]
    q = get_entry("q-index", k=3, q=2).protocol
    cases.append(obliviousize(q, InputDistribution.uniform(q), Fraction(1, 8)))
    trees = [
        protocol_from_dict(helpers.random_tree_dict(
            random.Random(seed), 1 + seed % 5, 1 + seed % 2
        ))
        for seed in range(20)
    ]
    oblivious = [t for t in trees if is_oblivious(t)[0]]
    drawn = [
        helpers.random_table_protocol(
            seed, k, ticks=3 + seed % 2, private=(1,) + (0,) * (k - 2) + (1,),
            public=1,
        )
        for seed in range(100, 104) for k in (3, 4)
    ]
    return (cases + trees + [product_protocol(oblivious[-2], oblivious[-1])]
            + drawn)


def _assert_message_invariants(e):
    # On every link, link positions count up from 0 in the global order
    # and lots strictly increase; the messages carry every bit read.
    per_link = defaultdict(list)
    for m in e.messages:
        per_link[(m.sender, m.receiver)].append(m)
    for msgs in per_link.values():
        assert [m.link_index for m in msgs] == list(range(len(msgs)))
        assert all(a.lot < b.lot for a, b in zip(msgs, msgs[1:]))
    assert [m.global_index for m in e.messages] == list(
        range(1, len(e.messages) + 1)
    )
    assert (e.total_bits == sum(len(m.content) for m in e.messages)
            == len("".join(e.record(i).received
                           for i in e.protocol.players)))


def test_lots_match_the_reference_resolver():
    # Messages are derived from the players' rounds on demand; the
    # reference rebuilds them from the dependency graph of sending rounds.
    for p in _reference_cases():
        for e in run_all(p).values():
            _assert_message_invariants(e)
            assert e.messages == helpers.reference_messages(e), p.name


def test_events_follow_the_global_order():
    # A player's events are its messages in strictly increasing global
    # index; the reference walks its rounds and counts positions, and
    # sorted by global index it gives the same events.  The transcript
    # joins the contents of those messages in that order.
    star = get_entry("star-parity", k=3, n=1).protocol
    ring = get_entry("ring-parity", k=3, n=1).protocol
    q1 = get_entry("q-index", k=3, q=1).protocol
    cases = [
        ring,
        star,
        get_entry("and-opt").protocol,
        get_entry("q-index", k=3, q=2).protocol,
        publicize(ring),
        product_protocol(star, ring),
        product_protocol(ring, star),
        product_protocol(product_protocol(star, star), star),
        publicize(obliviousize(q1, InputDistribution.uniform(q1),
                               Fraction(1, 2))),
    ]
    cases += [
        helpers.random_table_protocol(seed, k, ticks=2, private=(1,) * k,
                                      public=0)
        for seed, k in ((0, 3), (1, 4))
    ]
    walks_off_the_global_order = 0
    for p in cases + helpers.oblivious_trees():
        assert is_oblivious(p)[0], p.name
        struct = ObliviousStructure.build(p)
        walk = helpers.reference_events(p)
        for i in p.players:
            numbers = [g for g, *_ in struct.events[i]]
            assert all(a < b for a, b in zip(numbers, numbers[1:])), p.name
            assert struct.events[i] == tuple(sorted(walk[i])), p.name
            walks_off_the_global_order += struct.events[i] != walk[i]
        # The structure is read off one execution; every other one has the
        # same message layout.
        layouts = {
            tuple((m.sender, m.receiver, m.link_index, m.lot, m.global_index)
                  for m in e.messages)
            for e in run_all(p).values()
        }
        assert len(layouts) == 1, p.name
        for e in run_all(p).values():
            for i in p.players:
                assert struct.transcript(e.record(i), i) == "".join(
                    m.content for m in e.messages if i in (m.sender, m.receiver)
                ), p.name
    assert walks_off_the_global_order > 0


def test_talking_pairs_are_the_pairs_the_messages_join():
    # Read once per structure off its events, they are the pairs, in pair
    # order, that the messages join: on every oblivious zoo protocol at
    # two sizes, on an obliviousized one and on products.
    zoo_protocols = [get_entry(name, **params).protocol
                     for name, meta in zoo.REGISTRY.items()
                     for params in ({}, {"k": 4})
                     if not params or "k" in meta["defaults"]]
    oblivious_zoo = [p for p in zoo_protocols
                     if p.mode != RELAXED and is_oblivious(p)[0]]
    assert len(oblivious_zoo) == 5  # ring and star at k = 3, 4; and-opt
    star = get_entry("star-parity", k=3, n=1).protocol
    ring = get_entry("ring-parity", k=3, n=1).protocol
    q1 = get_entry("q-index", k=3, q=1).protocol
    cases = oblivious_zoo + [
        obliviousize(q1, InputDistribution.uniform(q1), Fraction(1, 2)),
        product_protocol(star, ring),
        product_protocol(product_protocol(ring, ring), star),
    ]
    seen = set()
    for p in cases:
        struct = ObliviousStructure.build(p)
        joined = {tuple(sorted((m.sender, m.receiver)))
                  for m in struct.messages}
        assert struct.talking_pairs == tuple(sorted(joined)), p.name
        assert struct.talking_pairs is struct.talking_pairs
        assert struct.broadcast_bits == math.ceil(
            math.log2(struct.table.cc + 2))
        seen.add(len(joined) < p.k * (p.k - 1) // 2)
    assert seen == {True, False}  # some protocols leave pairs silent


def test_fifo_order_within_link():
    p = get_entry("order-leak").protocol
    e = run_relaxed(p, ("0", "", "", ""))
    for s in p.players:
        for r in p.players:
            if s == r:
                continue
            msgs = [m for m in e.messages if m.sender == s and m.receiver == r]
            assert [m.link_index for m in msgs] == sorted(
                m.link_index for m in msgs
            )
            assert [m.global_index for m in msgs] == sorted(
                m.global_index for m in msgs
            )


def test_oblivious_lot_structure_constant():
    p = get_entry("ring-parity", k=3, n=2).protocol
    struct = ObliviousStructure.build(p)
    for e in struct.table.values():
        assert [(m.lot, m.sender, m.receiver) for m in e.messages] == [
            (1, 1, 2), (2, 2, 3), (3, 3, 1)
        ]


def test_degenerate_protocol_reports_missing_output():
    def silent(view):
        return Round(halt=True)

    p = two_player("silent", silent, silent)
    with pytest.raises(DeadlockError, match="no output"):
        run(p, ("0", "0"))


def test_unread_message_is_a_violation():
    def sender(view):
        return Round(sends=((2, "0"),), output="0", halt=True)

    def ignorer(view):
        return Round(output="0", halt=True)

    p = two_player("lost-message", sender, ignorer)
    with pytest.raises(DeadlockError, match="unread"):
        run(p, ("0", "0"))

    # Nobody reads: player 3 leaves three messages to 1 and one to 2, and
    # player 1 one to 2.  Links are listed in (sender, receiver) order.
    def chatty(view):
        if view.round < 3:
            return Round(sends=((1, "1"),), waits=())
        return Round(sends=((2, "0"), (1, "0")), output="0", halt=True)

    p = ProtocolDef(
        name="unread", k=3, input_domains=(("0",),) * 3,
        output_domains=(("0",),) * 3, private_tape_lengths=(0, 0, 0),
        public_tape_length=0, programs=(sender, ignorer, chatty),
        max_local_rounds=6,
    )
    with pytest.raises(DeadlockError) as err:
        run(p, ("0", "0", "0"))
    assert str(err.value) == ("unread messages left in transit: "
                              "{(1, 2): 1, (3, 1): 3, (3, 2): 1}")


def test_round_limit_is_enforced():
    def spinner(view):
        return Round(waits=())

    def other(view):
        return Round(output="0", halt=True)

    p = two_player("spinner", spinner, other)
    with pytest.raises(NonTerminationError):
        run(p, ("0", "0"))


def test_a_program_may_play_exactly_max_local_rounds():
    def halts_in_round(last):
        def program(view):
            if view.round == last:
                return Round(output="0", halt=True)
            return Round(waits=())
        return program

    def other(view):
        return Round(output="0", halt=True)

    for limit in (1, 4):
        p = two_player("limit", halts_in_round(limit), other,
                       max_local_rounds=limit)
        assert run(p, ("0", "0")).outputs == ("0", "0")
        p = two_player("limit", halts_in_round(limit + 1), other,
                       max_local_rounds=limit)
        with pytest.raises(NonTerminationError,
                           match=f"player 1 exceeded {limit} local rounds"):
            run(p, ("0", "0"))


def test_a_fold_that_raises_leaves_no_half_folded_state():
    # The fold changes its state before it raises, once; the next view one
    # round past the kept one must not fold onto that state, but equal a
    # fresh rebuild.
    failures = [ModelViolationError("fold failed")]

    def fold(state, round_reads, index):
        state.append(round_reads)
        if index == 1 and failures:
            raise failures.pop()

    def start(view):
        return []

    def view(*reads):
        return View(1, "0", "", "", reads)

    r0, r1 = ((2, "0"),), ((2, "1"),)
    state_of = model.fold_views(start, fold)
    assert state_of(view(r0)) == [r0]
    with pytest.raises(ModelViolationError, match="fold failed"):
        state_of(view(r0, r1))
    fresh = model.fold_views(start, fold)(view(r0, r1))
    assert state_of(view(r0, r1)) == fresh == [r0, r1]


def test_double_output_rejected():
    def chatty(view):
        if view.round == 1:
            return Round(output="0", waits=())
        return Round(output="1", halt=True)

    def other(view):
        return Round(output="0", halt=True)

    p = two_player("chatty", chatty, other)
    with pytest.raises(ModelViolationError, match="twice"):
        run(p, ("0", "0"))


def test_output_outside_domain_rejected():
    def bad(view):
        return Round(output="11", halt=True)

    def other(view):
        return Round(output="0", halt=True)

    p = two_player("bad-output", bad, other)
    with pytest.raises(ModelViolationError, match="outside"):
        run(p, ("0", "0"))


def test_empty_message_rejected():
    def bad(view):
        return Round(sends=((2, ""),), output="0", halt=True)

    def other(view):
        if view.round == 1:
            return Round(waits=(1,))
        return Round(output="0", halt=True)

    p = two_player("empty-msg", bad, other)
    with pytest.raises(ModelViolationError, match="empty"):
        run(p, ("0", "0"))


def test_wait_any_requires_relaxed_mode():
    def impatient(view):
        return Round(waits=WAIT_ANY)

    def other(view):
        return Round(output="0", halt=True)

    p = two_player("impatient", impatient, other)
    with pytest.raises(ModelViolationError, match="relaxed"):
        run(p, ("0", "0"))


def test_mode_mismatch_errors():
    leak = get_entry("order-leak").protocol
    with pytest.raises(ModelViolationError, match="relaxed"):
        run(leak, ("0", "", "", ""))
    ring = get_entry("ring-parity", k=3, n=1).protocol
    with pytest.raises(ModelViolationError, match="not in relaxed"):
        run_relaxed(ring, ("0", "0", "0"), ("0", "", ""), "")
    with pytest.raises(ModelViolationError, match="restricted"):
        run_all(leak)


def test_prefix_free_certification():
    def variable(view):
        if view.input == "0":
            return Round(sends=((2, "0"),), output="0", halt=True)
        return Round(sends=((2, "00"),), output="0", halt=True)

    def receiver(view):
        if view.round == 1:
            return Round(waits=(1,))
        return Round(output="0", halt=True)

    p = two_player("prefix-broken", variable, receiver)
    with pytest.raises(SelfDelimitingError):
        run_all(p)


def test_prefix_free_violation_names_the_smallest_link():
    # Player 1 sends to 3, then to 2, and neither codebook is prefix-free.
    # Links are checked in (sender, receiver, position) order, so the error
    # names 1->2 whichever link the enumeration met first.
    def variable(view):
        word = "0" if view.input == "0" else "00"
        if view.round == 1:
            return Round(sends=((3, word),))
        return Round(sends=((2, word),), output="0", halt=True)

    def receiver(view):
        if view.round == 1:
            return Round(waits=(1,))
        return Round(output="0", halt=True)

    p = ProtocolDef(
        name="two-broken-links", k=3,
        input_domains=(("0", "1"), ("0",), ("0",)),
        output_domains=(("0",),) * 3, private_tape_lengths=(0, 0, 0),
        public_tape_length=0, programs=(variable, receiver, receiver),
        max_local_rounds=3,
    )
    with pytest.raises(SelfDelimitingError) as err:
        run_all(p)
    assert str(err.value) == ("messages at link 1->2 position 0 are not "
                              "prefix-free: '0' prefixes '00'")


# Player 1 sends one of five words to player 2, whose codebook
# {0, 1, 00, 10, 11} has three prefix pairs; the child prints the error.
PREFIX_WITNESS_SCRIPT = """
from protolab.errors import SelfDelimitingError
from protolab.model import ProtocolDef, Round, run_all

words = dict(zip(("000", "001", "010", "011", "100"),
                 ("0", "1", "00", "10", "11")))

def sender(view):
    return Round(sends=((2, words[view.input]),), output="0", halt=True)

def receiver(view):
    if view.round == 1:
        return Round(waits=(1,))
    return Round(output="0", halt=True)

p = ProtocolDef(
    name="five-words", k=2, input_domains=(tuple(words), ("0",)),
    output_domains=(("0",), ("0",)), private_tape_lengths=(0, 0),
    public_tape_length=0, programs=(sender, receiver), max_local_rounds=2,
)
try:
    run_all(p)
except SelfDelimitingError as exc:
    print(exc)
"""


def test_prefix_free_witness_does_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import protolab

    src = str(Path(protolab.__file__).resolve().parent.parent)
    messages = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", PREFIX_WITNESS_SCRIPT], env=env,
            check=True, capture_output=True, text=True,
        )
        messages.add(done.stdout)
    assert messages == {"messages at link 1->2 position 0 are not "
                        "prefix-free: '0' prefixes '00'\n"}


def test_budget_exceeded_reports_requirement():
    p = get_entry("ring-parity", k=3, n=2).protocol  # 2^6 inputs x 2^2 pads
    with pytest.raises(BudgetExceededError) as err:
        run_all(p, budget=100)
    assert err.value.required == 256
    assert err.value.budget == 100


def test_run_all_without_a_budget_is_capped_at_2_to_the_64(monkeypatch):
    # None means 2^64 executions, as it does for the zoo and tree files:
    # 2^84 executions are refused before a single tape is built.
    def enumerate_all(p):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(model, "_enumerate_all", enumerate_all)
    p = dataclasses.replace(ring_parity(3, 1).protocol, public_tape_length=80)
    assert helpers.execution_count(p) == 1 << 84
    with pytest.raises(BudgetExceededError, match=r"budget is 2\^64$") as err:
        run_all(p, None)
    assert err.value.budget == 1 << 64
    with pytest.raises(BudgetExceededError, match="budget is 65536$"):
        run_all(p)


def _never(work):
    def start(*args, **kwargs):
        raise AssertionError(f"{work} started")

    return start


def _wide_ring(public: int) -> ProtocolDef:
    # ring-parity(3, 1): 2^3 inputs x player 1's pad bit x the public tape.
    return dataclasses.replace(ring_parity(3, 1).protocol,
                               public_tape_length=public)


def _run_all_site(budget, monkeypatch):
    monkeypatch.setattr(model, "_enumerate_all", _never("the enumeration"))
    run_all(_wide_ring(0 if budget else 80), budget)


def _zoo_site(budget, monkeypatch):
    monkeypatch.setitem(zoo.REGISTRY["ring-parity"], "factory",
                        _never("the zoo factory"))
    k, n = (3, 1) if budget else (8, 8)
    get_entry("ring-parity", budget=budget, k=k, n=n)


def _tree_header_site(budget, monkeypatch):
    monkeypatch.setattr(treefile, "_parse_tree", _never("the tree parse"))
    bits = 2 if budget else 40
    protocol_from_dict({"k": 2, "input_bits": [bits, bits],
                        "tape_bits": {"private": [0, 0], "public": 0},
                        "tree": {"outputs": ["0", "0"]}}, budget=budget)


def _grid_site(budget, monkeypatch):
    monkeypatch.setattr(measures.np, "arange", _never("the grid"))
    sup_pic_grid(get_entry("and-opt").protocol, 0.001 if budget else 1e-300,
                 budget)


def _obliviousize_site(budget, monkeypatch):
    monkeypatch.setattr(oblivious, "_player_width", _never("the rewrite"))
    p = get_entry("q-index", k=3, q=1).protocol  # acc = 2 bits
    eps = Fraction(1, 2) if budget else Fraction(1, 1 << 80)
    obliviousize(p, InputDistribution.uniform(p), eps, budget)


def _compression_site(budget, monkeypatch):
    monkeypatch.setattr(compression, "draw_plan", _never("the first trial"))
    entry = get_entry("star-parity", k=3, n=1)  # 8 executions, no tapes
    p = entry.protocol
    compression_theorem_check(p, InputDistribution.uniform(p), 0.1,
                              entry.family, lcp_mode="randomized",
                              trials=200 if budget else (1 << 61) + 1,
                              budget=budget)


def _product_site(budget, monkeypatch):
    if budget:  # two 10-input-bit trees: 2^20 executions together
        side = protocol_from_dict(helpers.random_tree_dict(
            random.Random(1), 2, input_bits=5, oblivious=True))
        sides = side, side
    else:  # 2^44 executions a side
        sides = _wide_ring(40), _wide_ring(40)
    monkeypatch.setattr(measures.ObliviousStructure, "build",
                        _never("a side's structure"))
    product_protocol(*sides, budget)


class _UnreadLaw:
    """A law's stand-in with ``size`` inputs whose weights are never read."""

    name = "unread"
    nums = property(_never("reading the weights"))

    def __init__(self, size):
        self.inputs = range(size)


def _product_law_site(budget, monkeypatch):
    # 4 x 4 inputs, or 2^33 x 2^33.
    side = _UnreadLaw(4 if budget else 1 << 33)
    InputDistribution.product(side, side, budget=budget)


def _power_law_site(budget, monkeypatch):
    # 4^3 inputs, or 4^33 = 2^66; refused before the first product.
    InputDistribution.power(_UnreadLaw(4), 3 if budget else 33, budget)


class _UnbuiltDomains:
    """A protocol's stand-in with two domains of ``size`` inputs each whose
    input space is never built."""

    input_space = _never("building the inputs")

    def __init__(self, size):
        self.input_domains = (range(size), range(size))


def _uniform_law_site(budget, monkeypatch):
    # 4 x 4 inputs, or 2^33 x 2^33.
    InputDistribution.uniform(_UnbuiltDomains(4 if budget else 1 << 33),
                              budget)


# Every cap on work: the site, its work and unit, and the budget under
# which its smaller parameters ask one unit too many (the product's,
# 2^20 executions, is the default).
BUDGET_SITES = {
    "run_all": (_run_all_site, "enumeration", "executions", 15),
    "zoo": (_zoo_site, "enumeration", "executions", 15),
    "tree-header": (_tree_header_site, "enumeration", "executions", 15),
    "sup_pic_grid": (_grid_site, "pic grid", "grid points per axis", 998),
    "obliviousize": (_obliviousize_site, "obliviousize", "local rounds", 17),
    "compression": (_compression_site, "randomized compression",
                    "compress runs", 1599),
    "product": (_product_site, "enumeration", "executions", DEFAULT_BUDGET),
    "product-law": (_product_law_site, "product distribution", "inputs", 15),
    "power-law": (_power_law_site, "product distribution", "inputs", 63),
    "uniform-law": (_uniform_law_site, "uniform distribution", "inputs", 15),
}


@pytest.mark.parametrize("bounded", [True, False], ids=["budget", "none"])
@pytest.mark.parametrize("site", list(BUDGET_SITES))
def test_every_budget_site_refuses_past_its_cap(site, bounded, monkeypatch):
    # One rule everywhere: over the budget, or past 2^64 without one, the
    # work is refused by name and unit before it starts.
    refuse, work, unit, budget = BUDGET_SITES[site]
    budget = budget if bounded else None
    cap = 1 << 64 if budget is None else budget
    with pytest.raises(BudgetExceededError) as err:
        refuse(budget, monkeypatch)
    assert err.value.budget == cap and err.value.unit == unit
    message = str(err.value)
    assert message.startswith(f"{work} needs ")
    assert message.endswith(f" {unit}, budget is {format_count(cap)}")
    if err.value.required is not None:  # else named by a power over the cap
        assert err.value.required > cap
    if bounded:
        assert err.value.required == (1 << 20 if site == "product"
                                      else budget + 1)


def test_is_oblivious_examples():
    assert is_oblivious(get_entry("ring-parity", k=3, n=1).protocol)[0]
    assert is_oblivious(get_entry("and-opt").protocol)[0]
    ok, witness = is_oblivious(get_entry("q-index", k=3, q=1).protocol)
    assert not ok
    assert witness is not None
    key_a, key_b = witness.key_a, witness.key_b
    assert key_a != key_b  # two distinct executions witness the difference
    # Querying every player makes the pattern fixed again:
    assert is_oblivious(get_entry("q-index", k=3, q=2).protocol)[0]


def test_is_oblivious_names_a_send_set_that_follows_an_input():
    # Player 1 reaches players 2 and 3 in an order its input bit picks;
    # every wait set is fixed, so only the send sets tell the runs apart.
    def sender(view):
        first, second = (2, 3) if view.input == "0" else (3, 2)
        if view.round == 1:
            return Round(sends=((first, "1"),))
        return Round(sends=((second, "1"),), output="0", halt=True)

    def reader(view):
        if view.round == 1:
            return Round(waits=(1,))
        return Round(output="0", halt=True)

    p = ProtocolDef(
        name="send-order",
        k=3,
        input_domains=(("0", "1"), ("0",), ("0",)),
        output_domains=(("0",),) * 3,
        private_tape_lengths=(0, 0, 0),
        public_tape_length=0,
        programs=(sender, reader, reader),
        max_local_rounds=2,
    )
    ok, witness = is_oblivious(p)
    assert not ok
    assert (witness.player, witness.round, witness.kind) == (1, 1, "send set")
    assert (witness.value_a, witness.value_b) == ((2,), (3,))
    assert witness.key_a != witness.key_b


def test_transcripts_are_prefix_decodable():
    for entry in (
        get_entry("ring-parity", k=3, n=2),
        get_entry("star-parity", k=4, n=1),
        get_entry("and-opt"),
        get_entry("q-index", k=3, q=1),
    ):
        p = entry.protocol
        table = run_all(p)
        for (x, privs, pub), e in table.items():
            for i in p.players:
                events = helpers.decode_pi(
                    table, p, i, x[i - 1], privs[i - 1], pub,
                    e.record(i).received,
                )
                assert events == tuple(
                    rm for rnd in e.record(i).reads for rm in rnd
                )


def test_bidirectional_orderings():
    p = get_entry("and-opt").protocol
    e = run(p, ("1", "1"))
    rec1, rec2 = e.record(1), e.record(2)
    # Player 2 (round 1: read x; round 2: send and output):
    assert rec2.received == "1"
    assert rec2.sent == "1"
    assert rec2.received + rec2.sent == "11"  # received then sent
    # Round 1 received, round 2 sent:
    assert helpers.round_interleaved_transcript(e, 2) == "11"
    # Player 1 (round 1: send x; round 2: read reply):
    assert rec1.received + rec1.sent == "11"
    assert helpers.round_interleaved_transcript(e, 1) == "11"
    # The joint law owns the received-then-sent ordering: bidi_i.  On
    # x = (1, 0) player 1 sends 1 and reads 0, so the orderings differ.
    joint = build_joint(p, InputDistribution.uniform(p))
    bidi = {row[:2]: row[joint.variables.index("bidi1"):][:2]
            for row in joint.rows}
    assert bidi[("1", "1")] == ("11", "11")
    assert bidi[("1", "0")] == ("01", "10")
    e = run(p, ("1", "0"))
    assert helpers.round_interleaved_transcript(e, 1) == "10"


def test_relaxed_schedule_controls_wait_any():
    # A tiny relaxed protocol: players 2 and 3 both message player 1 in
    # round 1; player 1 reads twice with wait-any and outputs the first
    # sender's bit.
    def listener(view):
        if view.round in (1, 2):
            return Round(waits=WAIT_ANY)
        return Round(output=view.received[0][1], halt=True)

    def speaker(bit_source):
        def prog(view):
            return Round(sends=((1, view.input),), output="0", halt=True)

        return prog

    p = ProtocolDef(
        name="race",
        k=3,
        input_domains=(("",), ("0", "1"), ("0", "1")),
        output_domains=(("0", "1"), ("0",), ("0",)),
        private_tape_lengths=(0, 0, 0),
        public_tape_length=0,
        programs=(listener, speaker(2), speaker(3)),
        max_local_rounds=5,
        mode="relaxed",
    )
    fast_2 = run_relaxed(p, ("", "0", "1"), schedule=(2,))
    fast_3 = run_relaxed(p, ("", "0", "1"), schedule=(3,))
    assert fast_2.outputs[0] == "0"
    assert fast_3.outputs[0] == "1"
    default = run_relaxed(p, ("", "0", "1"))
    assert default.outputs[0] == "0"  # lowest sender index wins by default


def test_eternal_wait_after_output_is_legal():
    q = get_entry("q-index", k=3, q=1).protocol
    e = run(q, ("1", "0", "0"))  # index "0" queries player 1
    assert e.outputs == ("0", "0", "1")
    assert e.total_bits == 2


def _idle(view):
    return Round(output="0", halt=True)


@pytest.mark.parametrize("fields,message", [
    ({"k": 1}, "need at least two players"),
    ({"mode": "async"}, "unknown mode 'async'"),
    ({"input_domains": (("0", "1"),)},
     "input_domains must have one entry per player"),
    ({"output_domains": (("0", "1"),) * 3},
     "output_domains must have one entry per player"),
    ({"programs": (_idle,)}, "programs must have one entry per player"),
    ({"private_tape_lengths": (0,)},
     "private_tape_lengths must have one entry per player"),
    ({"input_domains": ((), ("0",))}, "empty domain"),
    ({"output_domains": (("0", "0"), ("0",))},
     "domain entries must be distinct"),
    ({"input_domains": (("0", "2"), ("0",))},
     "domain value '2' is not a bitstring"),
    ({"output_domains": (("",), ("0",))}, "outputs must be non-empty strings"),
    ({"max_local_rounds": 0}, "max_local_rounds must be positive"),
    ({"public_tape_length": -1}, "tape lengths must be non-negative"),
    ({"private_tape_lengths": (0, -1)}, "tape lengths must be non-negative"),
])
def test_each_protocol_check_names_its_fault(fields, message):
    with pytest.raises(ValueError) as info:
        two_player("bad", _idle, _idle, **fields)
    assert str(info.value) == message


def test_input_validation():
    p = get_entry("and-opt").protocol
    with pytest.raises(ValueError, match="domain"):
        run(p, ("2", "0"))
    ring = get_entry("ring-parity", k=3, n=1).protocol
    with pytest.raises(ValueError, match="tape"):
        run(ring, ("0", "0", "0"), ("", "", ""), "")
    with pytest.raises(ValueError, match="need one input per player"):
        run(ring, ("0",))
    x = ("0", "0", "0")
    for tapes in (("0",), ("0",) * 4):
        with pytest.raises(ValueError, match="need one private tape per player"):
            run(ring, x, tapes)
        with pytest.raises(ValueError, match="need one private tape per player"):
            run_all(ring).get(x, tapes)


def test_execution_table_get_checks_its_arguments():
    p = protocol_from_dict(helpers.masked_ping_dict())  # a 1-bit pad for 1
    table = run_all(p)
    assert table.get(["1", "0"], ["1", ""]) == run(p, ("1", "0"), ("1", ""))
    for args, message in [
        ((("2", "0"), ("0", ""), ""), "input '2' not in player 1's domain"),
        ((["0", ["0"]], ("0", ""), ""), r"input \['0'\] not in player 2's"),
        ((("0", "0"), ("01", ""), ""), "player 1 expects a 1-bit tape"),
        ((("0", "0"), None, ""), "player 1 expects a 1-bit tape"),
        ((("0", "0"), ("0", ""), "1"), "public tape must have 0 bits"),
    ]:
        with pytest.raises(ValueError, match=message):
            table.get(*args)


def test_codeword_splits_bits_at_one_link_position():
    p = helpers.random_table_protocol(0, 3, ticks=2, private=(1, 0, 1),
                                      public=0)
    table = run_all(p)
    assert table.codebooks[(2, 3, 0)] == ("00", "11")
    # A whole codeword, at offset 0 and further on; bits past it are left.
    assert table.codeword(2, 3, 0, "11") == "11"
    assert table.codeword(2, 3, 0, "0011") == "00"
    assert table.codeword(2, 3, 0, "1011", 2) == "11"
    # A proper prefix of a codeword, the empty one included, is not yet one.
    assert table.codeword(2, 3, 0, "0") is None
    assert table.codeword(2, 3, 0, "101", 2) is None
    assert table.codeword(2, 3, 0, "10", 2) is None
    for bits, offset in (("01", 0), ("110", 1)):
        with pytest.raises(ModelViolationError, match="fit no codeword"):
            table.codeword(2, 3, 0, bits, offset)
    # Player 3 sends to 2 once per execution, and nobody sends to itself.
    assert (3, 2, 0) in table.codebooks
    for sender, receiver, pos in ((3, 2, 1), (2, 2, 0)):
        with pytest.raises(ModelViolationError, match="no codebook"):
            table.codeword(sender, receiver, pos, "00")


def test_execution_messages_follow_the_global_order():
    p = get_entry("star-parity", k=3, n=1).protocol
    e = run(p, ("1", "0", "1"))
    assert [m.global_index for m in e.messages] == [1, 2]
    assert [m.lot for m in e.messages] == [1, 1]


def test_run_all_counts_match_domain_and_tapes():
    assert len(run_all(get_entry("and-opt").protocol)) == 4
    assert len(run_all(get_entry("ring-parity", k=3, n=1).protocol)) == 16


# Relaxed-mode messages as the engine that stamped every message while it
# ran produced them: (sender, receiver, content, sender round, receiver
# round, link index, lot, global index).  Messages follow the order of
# reads, and each lot is the global index.
ORDER_LEAK_MESSAGES = {
    "0": [(1, 3, "0", 1, 1, 0, 1, 1), (3, 2, "0", 2, 1, 0, 2, 2),
          (2, 3, "0", 2, 2, 0, 3, 3), (3, 1, "0", 3, 1, 0, 4, 4),
          (1, 4, "0", 2, 1, 0, 5, 5), (4, 2, "0", 2, 2, 0, 6, 6),
          (2, 4, "0", 3, 2, 0, 7, 7), (4, 1, "0", 3, 2, 0, 8, 8)],
    "1": [(1, 4, "0", 1, 1, 0, 1, 1), (4, 2, "0", 2, 1, 0, 2, 2),
          (2, 4, "0", 2, 2, 0, 3, 3), (4, 1, "0", 3, 1, 0, 4, 4),
          (1, 3, "0", 2, 1, 0, 5, 5), (3, 2, "0", 2, 2, 0, 6, 6),
          (2, 3, "0", 3, 2, 0, 7, 7), (3, 1, "0", 3, 2, 0, 8, 8)],
}


def test_relaxed_messages_follow_the_read_order():
    p = get_entry("order-leak").protocol
    for schedule in (None, (2,), (3,)):
        for x, expected in ORDER_LEAK_MESSAGES.items():
            e = run_relaxed(p, (x, "", "", ""), schedule=schedule)
            assert list(map(dataclasses.astuple, e.messages)) == expected


def race_protocol() -> ProtocolDef:
    """Players 2 and 3 race to player 1, who reads whichever the schedule
    picks first, answers that one and outputs the first bit it read."""

    def first(view):
        if view.round == 1:
            return Round(waits=WAIT_ANY)
        if view.round == 2:
            return Round(sends=((view.received[0][0], "1"),), waits=WAIT_ANY)
        return Round(output=view.received[0][1][:1], halt=True)

    def racer(bits):
        def prog(view):
            if view.round == 1:
                return Round(sends=((1, bits),), output="0", waits=(1,))
            return Round(halt=True)

        return prog

    return ProtocolDef(
        name="race", k=3, input_domains=(("0",),) * 3,
        output_domains=(("0", "1"), ("0",), ("0",)),
        private_tape_lengths=(0, 0, 0), public_tape_length=0,
        programs=(first, racer("0"), racer("11")), max_local_rounds=4,
        mode=RELAXED,
    )


def test_relaxed_message_order_follows_the_schedule():
    p = race_protocol()
    two_first = [(2, 1, "0", 1, 1, 0, 1, 1), (3, 1, "11", 1, 2, 0, 2, 2),
                 (1, 2, "1", 2, 1, 0, 3, 3)]
    three_first = [(3, 1, "11", 1, 1, 0, 1, 1), (2, 1, "0", 1, 2, 0, 2, 2),
                   (1, 3, "1", 2, 1, 0, 3, 3)]
    for schedule, output, expected in (
        (None, "0", two_first), ((2,), "0", two_first),
        ((3,), "1", three_first), ((3, 2), "1", three_first),
    ):
        e = run_relaxed(p, ("0",) * 3, schedule=schedule)
        assert e.outputs == (output, "0", "0")
        assert list(map(dataclasses.astuple, e.messages)) == expected


def test_relaxed_messages_follow_the_engine_read_log():
    # The causal walk of Execution.messages must read in the engine's
    # order: players in index order per sweep, each as far as its reads
    # allow.  A walk that sweeps in another order still passes the fixed
    # cases above but not the random ones.
    def links(p, inputs, schedule):
        e = run_relaxed(p, inputs, schedule=schedule)
        got = [(m.sender, m.receiver) for m in e.messages]
        assert got == helpers.reference_read_log(p, inputs, schedule)

    for schedule in (None, (2,), (3,), (3, 2)):
        for x in ORDER_LEAK_MESSAGES:
            links(get_entry("order-leak").protocol, (x, "", "", ""), schedule)
        links(race_protocol(), ("0",) * 3, schedule)
    completed = 0
    for seed in itertools.count():
        rng = random.Random(seed)
        k = rng.randint(3, 5)
        p = helpers.random_relaxed_protocol(seed, k, ticks=rng.randint(1, 3))
        inputs = tuple(rng.choice("01") for _ in range(k))
        schedule = [rng.randint(1, k) for _ in range(rng.randint(0, 12))]
        try:
            links(p, inputs, schedule)
        except ModelViolationError:  # a deadlock: no execution to order
            continue
        completed += 1
        if completed == 200:
            break


def test_only_the_reference_execution_derives_its_messages(monkeypatch):
    # A fresh protocol object, so no other test has read its executions.
    # Each execution that derives its messages builds its own Message
    # records, so a build that derives any execution's messages but the
    # reference's builds more of them than the structure keeps.
    p = ring_parity(4, 2).protocol
    table = run_all(p)
    built = []
    message = model.Message

    def counted(*fields):
        built.append(fields)
        return message(*fields)

    monkeypatch.setattr(model, "Message", counted)
    struct = ObliviousStructure.build(p)
    monkeypatch.undo()
    assert struct.table is table
    assert len(built) == len(struct.messages) > 0
    # The reference is the first execution in table order.
    assert struct.messages == next(iter(table.values())).messages


def test_a_table_holds_only_its_players_final_views():
    # A fresh protocol, so run_all enumerates and keeps its own table.  It
    # keeps one tuple of final views per execution; a table that kept an
    # Execution, its key and its outputs per execution held 1.67 MiB here.
    p = ring_parity(5, 2).protocol
    gc.collect()
    tracemalloc.start()
    try:
        table = run_all(p)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == helpers.execution_count(p)
    assert held <= 0.8 * 2**20

