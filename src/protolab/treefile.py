"""Table-driven protocol trees: a JSON format for small sequential protocols.

Format (field names are normative for the CLI):

    {
      "name": "optional identifier",
      "k": 2,
      "input_bits": [1, 1],
      "tape_bits": {"private": [0, 0], "public": 0},
      "tree": {
        "sender": 1, "receiver": 2, "msg_bits": 1,
        "message_table": {"0": "0", "1": "1"},
        "children": {
          "0": {"outputs": ["0", "0"]},
          "1": {"sender": 2, "receiver": 1, "msg_bits": 1, ...}
        }
      }
    }

Internal nodes carry (sender, receiver, msg_bits) plus a ``message_table``
mapping the sender's local view key to the message it sends there; edges are
keyed by message value; leaves carry per-player outputs.  The view key is
the sender's input when the protocol declares no tape bits at all, and
``"input:private:public"`` otherwise.

The tree is checked as it is parsed, in one pass: each node's fields, its
child keys and message values (``msg_bits``-bit strings, each value with a
child), and its ``message_table``, whose keys must be exactly the sender's
view keys.  The first fault raises ``ConfigError``.

The compiler turns the tree into per-player programs.  A player carries
from round to round the set of tree positions consistent with what it has
itself seen and done: each round every position follows the message the
player sent (its message table) or read (dropping those that do not match),
then fans out over other players' nodes to the next leaves and nodes where
the player sends or receives.  It acts when every consistent position
agrees on its role: send the (necessarily unique) table value, wait on the
(necessarily unique) next sender, or halt at leaves.  The player writes its
output at the first round where all leaves still reachable agree on it,
which lets a player finish early on branches that never involve it again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, ModelViolationError, budgeted_count
from .model import ProtocolDef, Round, View, bitstrings, fold_views, is_bitstring


@dataclass
class _Node:
    sender: int | None
    receiver: int | None
    message_table: dict | None
    children: dict | None
    outputs: tuple[str, ...] | None
    height: int  # messages on the longest path down to a leaf
    reachable: tuple[frozenset[str], ...]  # per player: outputs at leaves below

    @property
    def is_leaf(self) -> bool:
        return self.outputs is not None


def _parse_tree(spec: dict, view_keys: list, interned: dict) -> _Node:
    """Parse a subtree, checking each node as it is built; ``view_keys[i-1]``
    is player i's set of view keys, and equal reachable-output sets share
    one frozenset."""
    k = len(view_keys)
    if "outputs" in _typed(spec, "a tree node", "an object",
                           isinstance(spec, dict)):
        outputs = spec["outputs"]
        _typed(outputs, "outputs", "a list of strings",
               isinstance(outputs, (list, tuple))
               and all(isinstance(out, str) for out in outputs))
        outputs = tuple(outputs)
        if len(outputs) != k:
            raise ConfigError(f"leaf needs {k} outputs, got {len(outputs)}")
        reachable = (frozenset((out,)) for out in outputs)
        return _Node(None, None, None, None, outputs, 0,
                     tuple(interned.setdefault(r, r) for r in reachable))
    sender, receiver, bits = (_count(spec[field], field)
                              for field in ("sender", "receiver", "msg_bits"))
    if not (1 <= sender <= k and 1 <= receiver <= k) or sender == receiver:
        raise ConfigError(f"bad sender/receiver pair ({sender}, {receiver})")
    if bits < 1:
        raise ConfigError("msg_bits must be positive")
    table, children = (_typed(spec[field], field, "an object",
                              isinstance(spec[field], dict))
                       for field in ("message_table", "children"))
    for what, values in (("child key", children),
                         ("message value", table.values())):
        for value in values:
            if not (is_bitstring(value) and len(value) == bits):
                raise ConfigError(f"{what} {value!r} is not a {bits}-bit string")
    keys = view_keys[sender - 1]
    if table.keys() != keys:
        where = f"message_table of a node where player {sender} sends"
        missing = keys - table.keys()
        if missing:
            raise ConfigError(f"{where} is missing view key {min(missing)!r}")
        raise ConfigError(
            f"{where} has key {min(table.keys() - keys)!r}, which is not a "
            f"view key of player {sender}"
        )
    children = {
        value: _parse_tree(child, view_keys, interned)
        for value, child in children.items()
    }
    for value in table.values():
        if value not in children:
            raise ConfigError(f"message value {value!r} has no child")
    reachable = map(frozenset.union, *(c.reachable for c in children.values()))
    return _Node(sender, receiver, dict(table), children, None,
                 1 + max(c.height for c in children.values()),
                 tuple(interned.setdefault(r, r) for r in reachable))


@dataclass(frozen=True)
class _Decision:
    act: Round  # the round the player plays, without its output
    determined: str | None  # unique reachable output for this player, if any
    points: list[_Node]  # the tree positions it was taken at


@dataclass
class _PlayerState:
    """A player's view key, its decision for its latest view, and whether
    it wrote its output before that view."""

    key: str
    now: _Decision
    wrote: bool


def _typed(value, field: str, kind: str, ok: bool):
    """``value``, which ``ok`` says is the ``kind`` that ``field`` needs."""
    if not ok:
        raise ConfigError(f"malformed protocol tree: {field} must be {kind}, "
                          f"got {value!r}")
    return value


def _count(value, field: str) -> int:
    """A size or player index: a non-negative int, never a JSON true."""
    return _typed(value, field, "a non-negative integer",
                  type(value) is int and value >= 0)


def _counts(values, field: str) -> list[int]:
    _typed(values, field, "a list", isinstance(values, (list, tuple)))
    return [_count(v, f"{field}[{n}]") for n, v in enumerate(values)]


class _TreeMachine:
    """Shared immutable data for the per-player compiled programs."""

    def __init__(self, spec: dict, source: str, budget: int | None = None):
        self.k = _count(spec["k"], "k")
        if self.k < 2:
            raise ConfigError("a protocol tree needs at least 2 players")
        self.input_bits = _counts(spec["input_bits"], "input_bits")
        tape = spec["tape_bits"]
        _typed(tape, "tape_bits", "an object", isinstance(tape, dict))
        self.private_bits = _counts(tape["private"], "tape_bits.private")
        self.public_bits = _count(tape["public"], "tape_bits.public")
        if len(self.input_bits) != self.k or len(self.private_bits) != self.k:
            raise ConfigError("input_bits/tape_bits must list every player")
        name = spec.get("name")
        self.name = _typed(name, "name", "a string",
                           name is None or isinstance(name, str)) or source
        tape_bits = sum(self.private_bits) + self.public_bits
        self.has_tapes = tape_bits > 0
        budgeted_count(budget, sum(self.input_bits) + tape_bits)
        # Without tapes every tape is "", so each player's keys are its inputs.
        view_keys = [
            frozenset(self.view_key(inp, priv, pub)
                      for inp in bitstrings(bits)
                      for priv in bitstrings(private)
                      for pub in bitstrings(self.public_bits))
            for bits, private in zip(self.input_bits, self.private_bits)
        ]
        self.root = _parse_tree(spec["tree"], view_keys, {})

    def view_key(self, inp: str, priv: str, pub: str) -> str:
        if not self.has_tapes:
            return inp
        return f"{inp}:{priv}:{pub}"

    def _decide(self, player, key, nodes) -> _Decision:
        """The player's decision at the next leaves and nodes where it sends
        or receives below ``nodes``; other players' nodes fan out.  A loop
        finds the points depth first, each node's children in order (a
        recursive closure would refer to itself: one reference cycle per
        call)."""
        points: list[_Node] = []
        stack = list(reversed(nodes))
        while stack:
            node = stack.pop()
            if node.is_leaf or player in (node.sender, node.receiver):
                points.append(node)
            else:
                stack.extend(reversed(node.children.values()))
        if not points:
            raise ModelViolationError(
                f"player {player} observed messages inconsistent with the tree"
            )
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
            act = Round(sends=(moves.pop(),))
        elif waits:
            senders = {n.sender for n in waits}
            if len(senders) != 1:
                raise ModelViolationError(
                    f"player {player} cannot form a wait set: possible "
                    f"senders {sorted(senders)}"
                )
            act = Round(waits=(senders.pop(),))
        else:
            act = Round(halt=True)
        return _Decision(act, determined, points)

    def program(self, player: int):
        def start(view: View) -> _PlayerState:
            key = self.view_key(view.input, view.private_tape, view.public_tape)
            return _PlayerState(key, self._decide(player, key, (self.root,)),
                                False)

        def fold(state: _PlayerState, round_reads, index: int) -> None:
            # The decision taken before this read round is the newest past
            # one: it tells whether that round sent and wrote the output.
            past = state.now
            if past.determined is not None:
                state.wrote = True
            # Every position follows the message sent (the player's table
            # value at each of them) or read; leaves and mismatches drop out.
            sends = past.act.sends
            value = sends[0][1] if sends else round_reads[0][1]
            state.now = self._decide(player, state.key, [
                n.children[value] for n in past.points
                if not n.is_leaf and value in n.children
            ])

        state_of = fold_views(start, fold)

        def prog(view: View) -> Round:
            state = state_of(view)
            now = state.now
            output = now.determined if not state.wrote else None
            if now.act.halt and output is None and now.determined is None:
                raise ModelViolationError(
                    f"player {player} reached leaves with conflicting outputs"
                )
            return replace(now.act, output=output)

        return prog


def protocol_from_dict(spec: dict, source: str = "tree",
                       budget: int | None = None) -> ProtocolDef:
    """Compile a protocol-tree dictionary into an executable protocol.

    Any malformed field, and a tree nested too deeply to parse, is reported
    as a ``ConfigError``; more executions than ``budget``, as a
    ``BudgetExceededError`` from the header, before any view key is built.
    """
    try:
        machine = _TreeMachine(spec, source, budget)
        k = machine.k
        output_domains = tuple(
            tuple(sorted(outputs)) for outputs in machine.root.reachable
        )
        return ProtocolDef(
            name=machine.name,
            k=k,
            input_domains=tuple(bitstrings(b) for b in machine.input_bits),
            output_domains=output_domains,
            private_tape_lengths=tuple(machine.private_bits),
            public_tape_length=machine.public_bits,
            programs=tuple(machine.program(i) for i in range(1, k + 1)),
            max_local_rounds=2 * machine.root.height + 4,
        )
    except KeyError as exc:
        raise ConfigError(f"protocol tree is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed protocol tree: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("protocol tree is nested too deeply") from exc


def load_protocol(path: str | Path, budget: int | None = None) -> ProtocolDef:
    """Load a protocol-tree JSON file (see ``protocol_from_dict``)."""
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # also bad UTF-8, huge ints
        raise ConfigError(f"cannot load protocol tree {path}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("protocol tree is nested too deeply") from exc
    return protocol_from_dict(spec, source=path.stem, budget=budget)
