"""Built-in protocols: ring parity, star parity, two-party AND, index
queries, and the order-leak demonstration for the relaxed scheduler."""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .errors import ConfigError, budgeted_count
from .model import (
    RELAXED,
    WAIT_ANY,
    ProtocolDef,
    Round,
    View,
    bitstrings,
)


def xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise ValueError("bitwise xor needs equal lengths")
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


@dataclass(frozen=True)
class FunctionFamily:
    """Per-player target functions f_i over the full input tuple."""

    name: str
    functions: tuple[Callable[[tuple[str, ...]], str], ...]

    def value(self, i: int, x: tuple[str, ...]) -> str:
        return self.functions[i - 1](x)

    def values(self, x: tuple[str, ...]) -> tuple[str, ...]:
        """Every player's target value on x, in player order."""
        return tuple([f(x) for f in self.functions])


@dataclass
class ZooEntry:
    """A named protocol with its function family and documented measures."""

    name: str
    params: dict
    protocol: ProtocolDef
    family: FunctionFamily | None
    expected: dict = field(default_factory=dict)


def _parity_family(k: int, n: int) -> FunctionFamily:
    def parity(x: tuple[str, ...]) -> str:
        acc = "0" * n
        for part in x:
            acc = xor_bits(acc, part)
        return acc

    funcs = [parity] + [(lambda x: "0")] * (k - 1)
    return FunctionFamily(f"bitwise-parity(k={k},n={n})", tuple(funcs))


def _ring_parity_executions(k: int, n: int, budget: int | None = None) -> int:
    """Executions of ring_parity(k, n), from its parameters alone: k n-bit
    inputs and player 1's n-bit tape."""
    if k < 3:
        raise ConfigError("ring parity needs at least 3 players")
    if n < 1:
        raise ConfigError("ring parity needs at least 1 input bit")
    return budgeted_count(budget, k * n + n)


def ring_parity(k: int, n: int) -> ZooEntry:
    """Parity around a ring, one-time-padded by player 1's private tape.

    Player 1 sends x1 xor r to player 2; each next player xors in its input
    and forwards; player 1 strips the pad and outputs the bitwise parity.
    """
    _ring_parity_executions(k, n)

    def first(view: View) -> Round:
        if view.round == 1:
            masked = xor_bits(view.input, view.private_tape)
            return Round(sends=((2, masked),), waits=(k,))
        closing = view.received[0][1]
        return Round(output=xor_bits(closing, view.private_tape), halt=True)

    def relay(i: int):
        nxt = 1 if i == k else i + 1

        def prog(view: View) -> Round:
            if view.round == 1:
                return Round(waits=(i - 1,))
            running = view.received[0][1]
            return Round(
                sends=((nxt, xor_bits(running, view.input)),),
                output="0",
                halt=True,
            )

        return prog

    programs = (first,) + tuple(relay(i) for i in range(2, k + 1))
    p = ProtocolDef(
        name=f"ring-parity(k={k},n={n})",
        k=k,
        input_domains=tuple(bitstrings(n) for _ in range(k)),
        output_domains=(bitstrings(n),) + (("0",),) * (k - 1),
        private_tape_lengths=(n,) + (0,) * (k - 1),
        public_tape_length=0,
        programs=programs,
        max_local_rounds=4,
    )
    return ZooEntry(
        name="ring-parity",
        params={"k": k, "n": n},
        protocol=p,
        family=_parity_family(k, n),
        expected={
            "cc": k * n,
            "ic": float(n),
            "pic": float(k * n),
            "transcript_entropy": float(n),
            # Each player except player 1 forwards its own input XORed into
            # the incoming message, so a wiretapper of that player's two
            # links recovers the input exactly: n bits per such player.
            "spy_info": float((k - 1) * n),
            "privacy_leakage": 0.0,
        },
    )


def _star_parity_executions(k: int, n: int, budget: int | None = None) -> int:
    """Executions of star_parity(k, n), from its parameters alone: k n-bit
    inputs and no tapes."""
    if k < 2:
        raise ConfigError("star parity needs at least 2 players")
    if n < 1:
        raise ConfigError("star parity needs at least 1 input bit")
    return budgeted_count(budget, k * n)


def star_parity(k: int, n: int) -> ZooEntry:
    """Deterministic parity: players 2..k send their inputs to player 1."""
    _star_parity_executions(k, n)

    def center(view: View) -> Round:
        if view.round == 1:
            return Round(waits=tuple(range(2, k + 1)))
        acc = view.input
        for _, part in view.received:
            acc = xor_bits(acc, part)
        return Round(output=acc, halt=True)

    def leaf(i: int):
        def prog(view: View) -> Round:
            return Round(sends=((1, view.input),), output="0", halt=True)

        return prog

    programs = (center,) + tuple(leaf(i) for i in range(2, k + 1))
    p = ProtocolDef(
        name=f"star-parity(k={k},n={n})",
        k=k,
        input_domains=tuple(bitstrings(n) for _ in range(k)),
        output_domains=(bitstrings(n),) + (("0",),) * (k - 1),
        private_tape_lengths=(0,) * k,
        public_tape_length=0,
        programs=programs,
        max_local_rounds=3,
    )
    return ZooEntry(
        name="star-parity",
        params={"k": k, "n": n},
        protocol=p,
        family=_parity_family(k, n),
        expected={
            "cc": (k - 1) * n,
            "ic": float((k - 1) * n),
            "pic": float((k - 1) * n),
            "spy_info": float((k - 1) * n),
            "transcript_entropy": 0.0,
        },
    )


def and_opt() -> ZooEntry:
    """The two-message AND protocol: player 1 sends its bit, player 2
    replies with the conjunction, both output it."""

    def alice(view: View) -> Round:
        if view.round == 1:
            return Round(sends=((2, view.input),), waits=(2,))
        return Round(output=view.received[0][1], halt=True)

    def bob(view: View) -> Round:
        if view.round == 1:
            return Round(waits=(1,))
        x = view.received[0][1]
        value = "1" if x == "1" and view.input == "1" else "0"
        return Round(sends=((1, value),), output=value, halt=True)

    p = ProtocolDef(
        name="and-opt",
        k=2,
        input_domains=(("0", "1"), ("0", "1")),
        output_domains=(("0", "1"), ("0", "1")),
        private_tape_lengths=(0, 0),
        public_tape_length=0,
        programs=(alice, bob),
        max_local_rounds=3,
    )
    conj = lambda x: "1" if x[0] == "1" and x[1] == "1" else "0"
    family = FunctionFamily("and", (conj, conj))
    return ZooEntry(
        name="and-opt",
        params={},
        protocol=p,
        family=family,
        expected={"cc": 2, "ic": 1.5, "pic": 1.5, "pic_at_mu_star": math.log2(3)},
    )


def _index_width(k: int) -> int:
    return max(1, math.ceil(math.log2(k - 1)))


def _decode_indices(encoded: str, k: int, q: int) -> tuple[int, ...]:
    w = _index_width(k)
    return tuple(int(encoded[j * w : (j + 1) * w], 2) + 1 for j in range(q))


def _q_index_executions(k: int, q: int, budget: int | None = None) -> int:
    """Executions of q_index(k, q), from its parameters alone: k - 1 input
    bits and an ordered choice of q distinct indices."""
    if k < 3:
        raise ConfigError("q-index needs at least 3 players")
    if not 1 <= q <= k - 1:
        raise ConfigError("need 1 <= q <= k-1 indices")
    return budgeted_count(budget, k - 1, lambda: math.perm(k - 1, q))


def q_index(k: int, q: int) -> ZooEntry:
    """Player k holds q distinct indices and pings exactly those players,
    who reply with their bit; everyone else outputs immediately and is left
    waiting for a ping that never comes (legal: output written, no message
    in transit).  The communication pattern depends on the index input, so
    the protocol is not oblivious whenever q < k - 1."""
    _q_index_executions(k, q)
    w = _index_width(k)
    index_domain = [
        "".join(format(t - 1, f"0{w}b") for t in targets)
        for targets in itertools.permutations(range(1, k), q)
    ]

    def querier(view: View) -> Round:
        targets = _decode_indices(view.input, k, q)
        if view.round == 1:
            return Round(
                sends=tuple((t, "0") for t in sorted(targets)),
                waits=tuple(sorted(targets)),
            )
        by_sender = {s: bit for s, bit in view.received}
        return Round(output="".join(by_sender[t] for t in targets), halt=True)

    def holder(i: int):
        def prog(view: View) -> Round:
            if view.round == 1:
                return Round(output="0", waits=(k,))
            return Round(sends=((k, view.input),), halt=True)

        return prog

    programs = tuple(holder(i) for i in range(1, k)) + (querier,)
    p = ProtocolDef(
        name=f"q-index(k={k},q={q})",
        k=k,
        input_domains=(("0", "1"),) * (k - 1) + (tuple(index_domain),),
        output_domains=(("0",),) * (k - 1) + (bitstrings(q),),
        private_tape_lengths=(0,) * k,
        public_tape_length=0,
        programs=programs,
        max_local_rounds=3,
    )

    def selected(x: tuple[str, ...]) -> str:
        targets = _decode_indices(x[k - 1], k, q)
        return "".join(x[t - 1] for t in targets)

    family = FunctionFamily(
        f"indexed-bits(k={k},q={q})",
        tuple([(lambda x: "0")] * (k - 1) + [selected]),
    )
    return ZooEntry(
        name="q-index",
        params={"k": k, "q": q},
        protocol=p,
        family=family,
        expected={"cc": 2 * q, "oblivious": q == k - 1},
    )


def order_leak_demo() -> ZooEntry:
    """The four-player relaxed-scheduler example: every message is the bit
    0 and the transcript contents never change, yet player 2 learns player
    1's input from the order in which its two messages arrive."""
    A, B, C, D = 1, 2, 3, 4

    def a(view: View) -> Round:
        first, second = (C, D) if view.input == "0" else (D, C)
        if view.round == 1:
            return Round(sends=((first, "0"),), waits=(first,))
        if view.round == 2:
            return Round(sends=((second, "0"),), waits=(second,))
        return Round(output="0", halt=True)

    def b(view: View) -> Round:
        if view.round == 1:
            return Round(waits=WAIT_ANY)
        sender = view.received[-1][0]
        if view.round == 2:
            return Round(sends=((sender, "0"),), waits=WAIT_ANY)
        first_sender = view.received[0][0]
        return Round(
            sends=((sender, "0"),),
            output="0" if first_sender == C else "1",
            halt=True,
        )

    def relay(i: int):
        def prog(view: View) -> Round:
            if view.round == 1:
                return Round(waits=(A,))
            if view.round == 2:
                return Round(sends=((B, "0"),), waits=(B,))
            return Round(sends=((A, "0"),), output="0", halt=True)

        return prog

    p = ProtocolDef(
        name="order-leak",
        k=4,
        input_domains=(("0", "1"), ("",), ("",), ("",)),
        output_domains=(("0",), ("0", "1"), ("0",), ("0",)),
        private_tape_lengths=(0, 0, 0, 0),
        public_tape_length=0,
        programs=(a, b, relay(C), relay(D)),
        max_local_rounds=5,
        mode=RELAXED,
    )
    family = FunctionFamily(
        "first-players-bit-to-second",
        ((lambda x: "0"), (lambda x: x[0]), (lambda x: "0"), (lambda x: "0")),
    )
    return ZooEntry(
        name="order-leak",
        params={},
        protocol=p,
        family=family,
        expected={"total_bits": 8},
    )


def lift_entry(entry: ZooEntry, k: int) -> ZooEntry:
    """Embed a protocol into a larger player set; the new players hold the
    empty input, send nothing, and output the fixed token immediately."""
    p = entry.protocol
    if k < p.k:
        raise ConfigError("can only lift to more players")
    if k == p.k:
        return entry

    def idle(view: View) -> Round:
        return Round(output="0", halt=True)

    lifted = replace(
        p,
        name=f"lift({p.name},k={k})",
        k=k,
        input_domains=p.input_domains + (("",),) * (k - p.k),
        output_domains=p.output_domains + (("0",),) * (k - p.k),
        private_tape_lengths=p.private_tape_lengths + (0,) * (k - p.k),
        programs=p.programs + (idle,) * (k - p.k),
    )
    family = None
    if entry.family is not None:
        base = p.k

        def wrap(j: int):
            return lambda x: entry.family.functions[j](x[:base])

        funcs = tuple(wrap(j) for j in range(base)) + ((lambda x: "0"),) * (
            k - base
        )
        family = FunctionFamily(f"lift({entry.family.name},k={k})", funcs)
    return ZooEntry(
        name=entry.name,
        params={**entry.params, "lifted_k": k},
        protocol=lifted,
        family=family,
        expected=dict(entry.expected),
    )


REGISTRY = {
    "ring-parity": {
        "factory": ring_parity,
        "executions": _ring_parity_executions,
        "defaults": {"k": 3, "n": 1},
        "summary": "private parity around a ring, padded by player 1",
    },
    "star-parity": {
        "factory": star_parity,
        "executions": _star_parity_executions,
        "defaults": {"k": 3, "n": 1},
        "summary": "deterministic parity with all inputs sent to player 1",
    },
    "and-opt": {
        "factory": and_opt,
        "executions": lambda budget=None: budgeted_count(budget, 2),
        "defaults": {},
        "summary": "two-message AND protocol",
    },
    "q-index": {
        "factory": q_index,
        "executions": _q_index_executions,
        "defaults": {"k": 3, "q": 1},
        "summary": "player k queries q selected bit-holders",
    },
    "order-leak": {
        "factory": order_leak_demo,
        "executions": lambda budget=None: budgeted_count(budget, 1),
        "defaults": {},
        "summary": "relaxed-mode demo: message order leaks a bit",
    },
}


def get_entry(name: str, budget: int | None = None, **params) -> ZooEntry:
    """Build a registry entry; unknown names or parameters are
    configuration errors.  An entry with more executions than ``budget``
    fails before its input domains are built: its count comes from the
    parameters alone."""
    if name not in REGISTRY:
        raise ConfigError(
            f"unknown protocol {name!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    meta = REGISTRY[name]
    args = dict(meta["defaults"])
    for key, value in params.items():
        if value is None:
            continue
        if key not in meta["defaults"]:
            raise ConfigError(f"protocol {name!r} takes no parameter {key!r}")
        args[key] = value
    meta["executions"](budget=budget, **args)
    return meta["factory"](**args)
