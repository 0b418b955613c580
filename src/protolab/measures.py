"""Complexity measures over enumerated protocols, and the protocol
transformations that relate them (publicization, derandomization, products,
and the two-party grid search for the distribution maximizing PIC).

Every measure is an exact finite sum: the joint law of inputs, tapes,
transcripts and outputs is enumerated, and the information quantities are
evaluated on it.  Every exact law (input distribution, joint law, transcript
tree) holds integer numerators over one integer denominator.  Measure names:

  cc    worst-case total communication, in bits (an integer)
  acc   expected total communication under an input distribution (rational)
  ic    internal information cost   sum_i I(X_-i ; Pi_i | X_i R_i Rp)
  pic   public information cost     sum_i I(X_-i ; Pi_i R_-i | X_i R_i Rp)
  spy   sum_i I(X_i ; Pi_i<->)      leakage to a per-player wiretapper

Each per-player information term is defined once, in ``player_term``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigError,
    InvariantError,
    ModelViolationError,
    budgeted_count,
    check_budget,
)
from .info import JointDistribution, cond_entropy, mutual_info, mutual_infos
from .model import (
    DEFAULT_BUDGET,
    ObliviousStructure,
    ProtocolDef,
    ProgramDriver,
    Round,
    View,
    bitstrings,
    fold_views,
    pi_bits,
    run_all,
)
from .zoo import FunctionFamily

#: Global comparison tolerance, in bits, for equality assertions.
TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Input distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputDistribution:
    """Exact law over tuples of per-player inputs: sorted distinct
    ``inputs``, positive int ``nums`` with ``sum(nums) == den`` and
    ``gcd(den, *nums) == 1``, as ``JointDistribution`` holds its rows."""

    name: str
    inputs: tuple[tuple[str, ...], ...]
    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        if len(self.nums) != len(self.inputs):
            raise ValueError("every input needs exactly one numerator")
        if any(x >= y for x, y in zip(self.inputs, self.inputs[1:])):
            raise ValueError("inputs must be sorted and distinct")
        if not all(type(n) is int and n > 0 for n in self.nums):
            raise ValueError("input numerators must be positive ints")
        if type(self.den) is not int or self.den <= 0:
            raise ValueError("the input denominator must be a positive int")
        total = sum(self.nums)
        if total != self.den:
            raise ValueError(
                f"input weights sum to {Fraction(total, self.den)}, not 1"
            )
        if math.gcd(self.den, *self.nums) != 1:
            raise ValueError("input numerators and denominator share a factor")

    @property
    def weights(self) -> tuple[tuple[tuple[str, ...], Fraction], ...]:
        """``(input, Fraction)`` pairs, derived on each read."""
        return tuple((x, Fraction(n, self.den))
                     for x, n in zip(self.inputs, self.nums))

    @classmethod
    def from_weights(cls, name: str, weights) -> "InputDistribution":
        """Law from ``{input: exact weight}`` or pairs, over the lcm."""
        items = []
        for outcome, w in (
            weights.items() if isinstance(weights, Mapping) else weights
        ):
            frac = w if isinstance(w, Fraction) else Fraction(w)
            if frac < 0:
                raise ValueError(f"negative weight for {outcome!r}")
            if frac > 0:
                items.append((tuple(outcome), frac))
        items.sort()
        if len({o for o, _ in items}) != len(items):
            raise ValueError("duplicate input tuples")
        den = math.lcm(*(w.denominator for _, w in items))
        return cls(name, tuple(x for x, _ in items),
                   tuple(w.numerator * (den // w.denominator) for _, w in items),
                   den)

    @classmethod
    def uniform(cls, p: ProtocolDef) -> "InputDistribution":
        inputs = tuple(sorted(p.input_space()))
        return cls("uniform", inputs, (1,) * len(inputs), len(inputs))

    @classmethod
    def independent_bits(cls, alpha: Fraction, beta: Fraction) -> "InputDistribution":
        """Two one-bit players, independent, P[X=0]=alpha, P[Y=0]=beta."""
        alpha, beta = Fraction(alpha), Fraction(beta)
        if not (0 < alpha < 1 and 0 < beta < 1):
            raise ValueError("grid probabilities must be inside (0, 1)")
        weights = {
            ("0", "0"): alpha * beta,
            ("0", "1"): alpha * (1 - beta),
            ("1", "0"): (1 - alpha) * beta,
            ("1", "1"): (1 - alpha) * (1 - beta),
        }
        return cls.from_weights(f"ber({alpha})*ber({beta})", weights)

    @classmethod
    def product(
        cls, a: "InputDistribution", b: "InputDistribution", name: str | None = None
    ) -> "InputDistribution":
        """Product measure on per-player concatenated inputs."""
        nums: dict[tuple[str, ...], int] = {}
        for xa, na in zip(a.inputs, a.nums):
            for xb, nb in zip(b.inputs, b.nums):
                if len(xa) != len(xb):
                    raise ValueError("player counts differ")
                key = tuple(s + t for s, t in zip(xa, xb))
                nums[key] = nums.get(key, 0) + na * nb
        den = a.den * b.den
        return cls.from_weights(name or f"product({a.name},{b.name})",
                                {x: Fraction(n, den) for x, n in nums.items()})

    @classmethod
    def power(cls, mu: "InputDistribution", t: int) -> "InputDistribution":
        """t-fold product of a distribution with itself."""
        if t < 1:
            raise ValueError("power needs t >= 1")
        out = mu
        for _ in range(t - 1):
            out = cls.product(out, mu)
        return replace(out, name=f"{mu.name}^{t}")

    def validate_for(self, p: ProtocolDef) -> None:
        domains = [frozenset(dom) for dom in p.input_domains]
        contains = frozenset.__contains__
        for x in self.inputs:
            if len(x) != p.k:
                raise ConfigError(
                    f"distribution {self.name!r} has {len(x)}-tuples for a "
                    f"{p.k}-player protocol"
                )
            if not all(map(contains, domains, x)):
                i = next(i for i, (dom, xi) in enumerate(zip(domains, x), 1)
                         if xi not in dom)
                raise ConfigError(
                    f"distribution {self.name!r} puts weight on "
                    f"{x[i-1]!r}, outside player {i}'s domain"
                )


# ---------------------------------------------------------------------------
# The joint law of one protocol under one input distribution
# ---------------------------------------------------------------------------


def weighted_executions(
    p: ProtocolDef, mu: InputDistribution, budget: int | None = DEFAULT_BUDGET
):
    """Every execution of p on the support of mu, with an integer weight.

    Returns ``(rows, den)``: ``rows`` yields ``(x, n, private tapes, public
    tape, final views)`` per input x of mu's support, then per tape
    assignment, where the final views are the players' nodes in the view
    tries (``node.record()`` reads each player's run); the execution has
    probability ``n / den``.  ``den`` is ``mu.den`` times the number of
    tape assignments, and ``n`` is x's numerator in mu.  No ``Execution``
    is built.
    """
    mu.validate_for(p)
    views = run_all(p, budget).views
    tapes = list(p.tape_space())
    rows = (
        (x, n, privs, pub, nodes)
        for x, n in zip(mu.inputs, mu.nums)
        for (privs, pub), nodes in zip(tapes, views[x])
    )
    return rows, mu.den << p.total_tape_bits


def build_joint(
    p: ProtocolDef,
    mu: InputDistribution,
    family: FunctionFamily | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> JointDistribution:
    """Exact joint law of inputs, tapes and transcripts.

    Variables: ``x1..xk`` inputs, ``r1..rk`` private tapes, ``rp`` public
    tape, ``pi1..pik`` received transcripts, ``bidi1..bidik`` bidirectional
    transcripts (received-then-sent ordering), ``pi`` the full transcript,
    and ``f1..fk`` when a function family is given.
    Weights are integer numerators over ``mu.den`` times the number of tape
    assignments.
    """
    variables = [f"{v}{i}" for v in ("x", "r") for i in p.players] + ["rp"]
    variables += [f"{v}{i}" for v in ("pi", "bidi") for i in p.players] + ["pi"]
    if family is not None:
        variables += [f"f{i}" for i in p.players]
    rows, den = weighted_executions(p, mu, budget)
    counts: dict[tuple, int] = {}
    last_x = fx = None
    for x, n, privs, pub, nodes in rows:
        recs = [node.record() for node in nodes]
        received = tuple([rec.received for rec in recs])
        row = (
            x
            + privs
            + (pub,)
            + received
            + tuple([rec.received + rec.sent for rec in recs])
            + ("".join(received),)
        )
        if family is not None:
            if x != last_x:  # rows come input by input
                last_x, fx = x, tuple(family.value(i, x) for i in p.players)
            row += fx
        counts[row] = counts.get(row, 0) + n
    return JointDistribution(
        tuple(variables), tuple(counts), tuple(counts.values()), den
    )


def cc(p: ProtocolDef, budget: int | None = DEFAULT_BUDGET) -> int:
    """Worst-case communication: ``ExecutionTable.cc``."""
    return run_all(p, budget).cc


def acc(
    p: ProtocolDef, mu: InputDistribution, budget: int | None = DEFAULT_BUDGET
) -> Fraction:
    """Average communication under mu and uniform tapes, exact."""
    rows, den = weighted_executions(p, mu, budget)
    return Fraction(sum(n * pi_bits(nodes) for _, n, _, _, nodes in rows), den)


def distributional_error(
    p: ProtocolDef,
    mu: InputDistribution,
    family: FunctionFamily,
    budget: int | None = DEFAULT_BUDGET,
) -> Fraction:
    """Probability over mu and the tapes that some player outputs a wrong
    value for its target function."""
    rows, den = weighted_executions(p, mu, budget)
    bad = sum(n for x, n, _, _, nodes in rows
              if any(node.record().output != family.value(i, x)
                     for i, node in enumerate(nodes, 1)))
    return Fraction(bad, den)


def player_term(kind: str, k: int, i: int) -> tuple:
    """Player i's selectors ``(A, B, C)`` of its term I(A ; B | C) in a
    k-player measure, read off ``build_joint``'s variables:

      ic       I(X_-i ; Pi_i | X_i R_i Rp)
      pic      I(X_-i ; Pi_i R_-i | X_i R_i Rp)
      random   I(R_-i ; X_-i | X_i Pi_i R_i Rp), pic's part beyond ic
      leakage  I(X_-i ; Pi_i | X_i R_i Rp f_i)
      spy      I(X_i ; Pi_i<->)
    """
    x_others = [f"x{j}" for j in range(1, k + 1) if j != i]
    r_others = [f"r{j}" for j in range(1, k + 1) if j != i]
    own, pi = [f"x{i}", f"r{i}", "rp"], [f"pi{i}"]
    return {
        "ic": (x_others, pi, own),
        "pic": (x_others, pi + r_others, own),
        "random": (r_others, x_others, [f"x{i}", f"pi{i}", f"r{i}", "rp"]),
        "leakage": (x_others, pi, own + [f"f{i}"]),
        "spy": ([f"x{i}"], [f"bidi{i}"], None),
    }[kind]


def _terms(d: JointDistribution, k: int, kind: str) -> list[float]:
    """Every player's term of one kind, in player order."""
    return [mutual_info(d, *player_term(kind, k, i)) for i in range(1, k + 1)]


def ic(p, mu, budget=DEFAULT_BUDGET, joint=None) -> float:
    """Internal information cost sum_i I(X_-i ; Pi_i | X_i R_i Rp)."""
    d = joint if joint is not None else build_joint(p, mu, None, budget)
    return sum(_terms(d, p.k, "ic"))


def pic(p, mu, budget=DEFAULT_BUDGET, joint=None) -> float:
    """Public information cost sum_i I(X_-i ; Pi_i R_-i | X_i R_i Rp)."""
    d = joint if joint is not None else build_joint(p, mu, None, budget)
    return sum(_terms(d, p.k, "pic"))


def pic_decomposition(p, mu, budget=DEFAULT_BUDGET, joint=None) -> tuple[float, float]:
    """Split pic into its ic part and the private-randomness part.

    Returns ``(ic_term, random_term)`` with
    ``random_term = sum_i I(R_-i ; X_-i | X_i Pi_i R_i Rp)``; the two parts
    must recompose to pic within TOLERANCE.
    """
    d = joint if joint is not None else build_joint(p, mu, None, budget)
    # One player's three terms ask for 6 distinct marginals, so one kernel
    # call per player counts each once; no memo outlives the player.
    ic_term = random_term = total = 0
    for i in p.players:
        ic_i, random_i, pic_i = mutual_infos(
            d, [player_term(kind, p.k, i) for kind in ("ic", "random", "pic")]
        )
        ic_term += ic_i
        random_term += random_i
        total += pic_i
    if abs(ic_term + random_term - total) > TOLERANCE:
        raise InvariantError(
            f"pic decomposition drifted: {ic_term} + {random_term} != {total}"
        )
    return ic_term, random_term


def privacy_terms(
    p, mu, family: FunctionFamily, budget=DEFAULT_BUDGET, joint=None
) -> list[float]:
    """Per-player leakage terms I(X_-i ; Pi_i | X_i R_i Rp f_i(X))."""
    d = joint if joint is not None else build_joint(p, mu, family, budget)
    if "f1" not in d.variables:
        raise ValueError("joint law was built without a function family")
    return _terms(d, p.k, "leakage")


def privacy_leakage(
    p, mu, family: FunctionFamily, budget=DEFAULT_BUDGET, joint=None
) -> float:
    """sum_i I(X_-i ; Pi_i | X_i R_i Rp f_i(X)); zero on a full-support mu
    certifies the protocol private for the family."""
    return sum(privacy_terms(p, mu, family, budget, joint))


def transcript_entropy(p, mu, budget=DEFAULT_BUDGET, joint=None) -> float:
    """H(Pi | X Rp): randomness visible in the full transcript once inputs
    and public coins are fixed; lower-bounds the private entropy used."""
    d = joint if joint is not None else build_joint(p, mu, None, budget)
    return cond_entropy(d, ["pi"], [f"x{i}" for i in p.players] + ["rp"])


def spy_info(p, mu, budget=DEFAULT_BUDGET, joint=None) -> float:
    """sum_i I(X_i ; Pi_i<->): what a wiretapper of each player's links
    learns about that player's input (no conditioning)."""
    d = joint if joint is not None else build_joint(p, mu, None, budget)
    return sum(_terms(d, p.k, "spy"))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def report_float(x: float) -> float:
    """The printed form of a float in every report: ``round(x, 9)``, or x
    to 9 significant digits where that rounding would read a nonzero x as
    0."""
    rounded = round(x, 9)
    return rounded if rounded or not x else float(f"{x:.9g}")


def report_dict(name: str, report) -> dict:
    """A report dataclass as the dict a report prints: its fields in order,
    each float through ``report_float``, and each exact ``Fraction`` as its
    string beside a float ``<field>_bits``."""
    out = {"report": name}
    for key, value in vars(report).items():
        if isinstance(value, Fraction):
            out[key] = str(value)
            out[f"{key}_bits"] = report_float(float(value))
        elif isinstance(value, float):
            out[key] = report_float(value)
        else:
            out[key] = value
    return out


@dataclass
class MeasureReport:
    """Named measure values in bits, with the inputs that produced them."""

    protocol: str
    distribution: str
    tolerance: float
    cc: int
    acc: Fraction
    ic: float
    pic: float
    pic_random_term: float
    transcript_entropy: float
    spy_info: float
    privacy_leakage: float | None = None

    def __post_init__(self):
        if abs(self.ic + self.pic_random_term - self.pic) > self.tolerance:
            raise InvariantError(
                "measure report violates pic = ic + random part"
            )

    def to_dict(self) -> dict:
        return report_dict("measure", self)


def measure_protocol(
    p: ProtocolDef,
    mu: InputDistribution,
    family: FunctionFamily | None = None,
    tolerance: float = TOLERANCE,
    budget: int | None = DEFAULT_BUDGET,
) -> MeasureReport:
    """Compute the full measure suite; cross-checks the decomposition and
    the randomness lower bound before returning."""
    if not 0 < tolerance < math.inf:
        raise ConfigError("tolerance must be positive and finite")
    d = build_joint(p, mu, family, budget)
    ic_term, random_term = pic_decomposition(p, mu, budget, joint=d)
    pic_value = ic_term + random_term
    te = transcript_entropy(p, mu, budget, joint=d)
    if te < (pic_value - ic_term) / p.k - tolerance:
        raise InvariantError(
            "transcript entropy fell below the randomness lower bound"
        )
    leak = (
        privacy_leakage(p, mu, family, budget, joint=d)
        if family is not None
        else None
    )
    return MeasureReport(
        protocol=p.name,
        distribution=mu.name,
        tolerance=tolerance,
        cc=cc(p, budget),
        acc=acc(p, mu, budget),
        ic=ic_term,
        pic=pic_value,
        pic_random_term=random_term,
        transcript_entropy=te,
        spy_info=spy_info(p, mu, budget, joint=d),
        privacy_leakage=leak,
    )


# ---------------------------------------------------------------------------
# Publicization and derandomization
# ---------------------------------------------------------------------------


def interleave_positions(lengths: list[int]) -> list[list[int]]:
    """Round-robin interleaving of several tapes into one: returns, per
    logical tape, the positions of its bits in the combined tape."""
    remaining = list(lengths)
    positions: list[list[int]] = [[] for _ in lengths]
    cursor = 0
    while any(remaining):
        for j in range(len(lengths)):
            if remaining[j] > 0:
                positions[j].append(cursor)
                remaining[j] -= 1
                cursor += 1
    return positions


def _with_tapes(p: ProtocolDef, tapes) -> tuple:
    """p's programs, each run on its view with the private and public tapes
    replaced by ``tapes(i, view)``."""

    def wrap(i: int, original):
        return lambda view: original(
            View(view.player, view.input, *tapes(i, view), view.reads)
        )

    return tuple(wrap(i, p.program(i)) for i in p.players)


def publicize(p: ProtocolDef) -> ProtocolDef:
    """Move all private tapes onto one enlarged public tape.

    The new public tape carries the old public tape and the k private tapes
    interleaved bit by bit; each program reads its old tapes out of the
    shared one, so transcripts are bit-identical per tape assignment and
    obliviousness is preserved.  A protocol with no private tapes is
    returned unchanged.
    """
    if sum(p.private_tape_lengths) == 0:
        return p
    new_len = p.public_tape_length + sum(p.private_tape_lengths)
    positions = interleave_positions(
        [p.public_tape_length] + list(p.private_tape_lengths)
    )

    def tapes(i: int, view: View) -> tuple[str, ...]:
        tape = view.public_tape  # i's private tape, then the old public one
        return tuple("".join(tape[at] for at in positions[j]) for j in (i, 0))

    return replace(
        p,
        name=f"publicize({p.name})",
        private_tape_lengths=(0,) * p.k,
        public_tape_length=new_len,
        programs=_with_tapes(p, tapes),
    )


def public_seed_scores(
    p: ProtocolDef, mu: InputDistribution, budget: int | None = DEFAULT_BUDGET
) -> dict[str, float]:
    """t(r) = sum_i I(X_-i ; Pi_i | X_i, Rp=r) for each public seed r: the
    ic terms on the law given Rp = r, where the tapes are constant."""
    if sum(p.private_tape_lengths) != 0:
        raise ValueError("seed scores are defined for public-coin protocols")
    d = build_joint(p, mu, None, budget)
    return {seed: sum(_terms(d.condition({"rp": seed}), p.k, "ic"))
            for seed in bitstrings(p.public_tape_length)}


def _is_zero_error(p, mu, family, budget) -> bool:
    """No wrong output on the support of mu; without a family, outputs that
    do not depend on the tapes."""
    if family is not None:
        return distributional_error(p, mu, family, budget) == 0
    reference = {}
    rows, _ = weighted_executions(p, mu, budget)
    return all(reference.setdefault(x, outputs) == outputs
               for x, _, _, _, nodes in rows
               for outputs in [[node.record().output for node in nodes]])


def derandomize_zero_error(
    p: ProtocolDef,
    mu: InputDistribution,
    family: FunctionFamily | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> tuple[ProtocolDef, str]:
    """Fix the public seed minimizing the revealed information.

    Requires a public-coin protocol (publicize first) whose outputs do not
    depend on the seed on the support of mu (zero error); the fixed-seed
    protocol then reveals no more than the average over seeds, so its ic is
    at most ic(p, mu).  Ties pick the lexicographically smallest seed.
    Returns ``(deterministic protocol, chosen seed)``.
    """
    if sum(p.private_tape_lengths) != 0:
        raise ValueError(
            "derandomization needs a public-coin protocol; apply publicize()"
        )
    if not _is_zero_error(p, mu, family, budget):
        raise ValueError(f"{p.name} is not zero-error on the support of {mu.name}")
    if p.public_tape_length == 0:
        return p, ""
    scores = public_seed_scores(p, mu, budget)
    seed = min(scores, key=lambda r: (scores[r], r))

    fixed = replace(
        p,
        name=f"derandomize({p.name},seed={seed})",
        public_tape_length=0,
        programs=_with_tapes(p, lambda i, view: ("", seed)),
    )
    return fixed, seed


# ---------------------------------------------------------------------------
# Product of two protocols
# ---------------------------------------------------------------------------


def _fixed_lengths(p: ProtocolDef) -> list[int]:
    lengths = []
    for i in p.players:
        ls = {len(v) for v in p.input_domain(i)}
        if len(ls) != 1:
            raise ConfigError(
                f"product needs fixed-length input domains; player {i} of "
                f"{p.name} mixes lengths"
            )
        lengths.append(ls.pop())
    return lengths


def product_protocol(
    p: ProtocolDef, q: ProtocolDef, budget: int | None = DEFAULT_BUDGET
) -> ProtocolDef:
    """Run two oblivious protocols side by side on disjoint input and tape
    slices, concatenating their messages lot by lot.

    The combined protocol proceeds in one local round per lot: in round t a
    player emits, per link, the first side's lot-t message followed by the
    second side's (either part may be absent), and waits on exactly the
    senders that a lot-t message is due from.  This lot plan is read off
    each side's reference execution, and the first side's part of a merged
    message is split off with that side's ``ExecutionTable.codeword``, so
    each side's view is reconstructed exactly.  Each player keeps one
    driver per side, restarted for every state it rebuilds, so a side
    program runs once per distinct side view of that player.  Both
    protocols must be oblivious and have the same number of players.  A
    product with more executions than the budget (2^64 if None) is refused
    before either side is enumerated.
    """
    if p.k != q.k:
        raise ConfigError("product needs the same number of players")
    # The product's executions, counted from its sides before it is built.
    budgeted_count(budget, p.total_tape_bits + q.total_tape_bits, lambda:
                   math.prod(map(len, p.input_domains + q.input_domains)))
    sa = ObliviousStructure.build(p, budget)
    sb = ObliviousStructure.build(q, budget)
    k = p.k
    in_a, in_b = _fixed_lengths(p), _fixed_lengths(q)
    priv_a, priv_b = p.private_tape_lengths, q.private_tape_lengths
    pub_a = p.public_tape_length

    # Fixed plans, the same in every execution of an oblivious side: per
    # side the sending round of each (player, lot) (a side's lots rise
    # along a player's sending rounds), per (sender, receiver, lot) the
    # sides that send on that link with their link positions, and per
    # (player, lot) the senders it waits on.
    round_of_lot: tuple[dict, dict] = ({}, {})
    link_plan: dict[tuple[int, int, int], dict[int, int]] = {}
    wait_plan: dict[tuple[int, int], set[int]] = {}
    for side, struct in enumerate((sa, sb)):
        for m in struct.messages:
            round_of_lot[side][(m.sender, m.lot)] = m.sender_round
            parts = link_plan.setdefault((m.sender, m.receiver, m.lot), {})
            parts[side] = m.link_index
            wait_plan.setdefault((m.receiver, m.lot), set()).add(m.sender)
    max_lot = max((lot for _, lot in wait_plan), default=0)

    def make_program(i: int):
        # One driver per side, restarted by every state this player builds,
        # so a rebuilt state runs no side program on a view already met.
        drivers = ProgramDriver(p, i), ProgramDriver(q, i)

        def start(view: View):
            """Both side drivers, restarted and run until they block."""
            cut, tape_cut = in_a[i - 1], priv_a[i - 1]
            side_a, side_b = drivers
            side_a.restart(view.input[:cut], view.private_tape[:tape_cut],
                           view.public_tape[:pub_a])
            side_b.restart(view.input[cut:], view.private_tape[tape_cut:],
                           view.public_tape[pub_a:])
            return side_a.run(), side_b.run()

        def fold(state, round_reads, index: int) -> None:
            """Split the merged lot-(index+1) messages into side parts and
            feed them to the side drivers."""
            side_a, side_b = state
            for sender, merged in round_reads:
                parts = link_plan.get((sender, i, index + 1), {})
                offset = 0
                if 0 in parts:
                    word = sa.table.codeword(sender, i, parts[0], merged)
                    if word is None:
                        raise ModelViolationError(
                            "product message does not start with a first-side "
                            "codeword"
                        )
                    side_a.feed(sender, word)
                    offset = len(word)
                if 1 in parts:
                    side_b.feed(sender, merged[offset:])
                    offset = len(merged)
                if offset != len(merged):
                    raise ModelViolationError(
                        "product message has trailing bits after its parts"
                    )
            side_a.run()
            side_b.run()

        state_of = fold_views(start, fold)

        def prog(view: View) -> Round:
            t = view.round
            side_a, side_b = state_of(view)
            if t <= max_lot:
                merged: dict[int, str] = {}
                for rounds, driver in zip(round_of_lot, (side_a, side_b)):
                    r = rounds.get((i, t))
                    if r is not None and r <= len(driver.sends):
                        for recipient, content in driver.sends[r - 1]:
                            merged[recipient] = merged.get(recipient, "") + content
                return Round(
                    sends=tuple(sorted(merged.items())),
                    waits=tuple(sorted(wait_plan.get((i, t), ()))),
                )
            if side_a.output is None or side_b.output is None:
                raise ModelViolationError(
                    f"product player {i} finished its rounds without both "
                    "side outputs"
                )
            return Round(output=side_a.output + side_b.output, halt=True)

        return prog

    def joined(p_domains, q_domains):
        return tuple(tuple(a + b for a in dp for b in dq)
                     for dp, dq in zip(p_domains, q_domains))

    return ProtocolDef(
        name=f"product({p.name},{q.name})",
        k=k,
        input_domains=joined(p.input_domains, q.input_domains),
        output_domains=joined(p.output_domains, q.output_domains),
        private_tape_lengths=tuple(
            priv_a[i - 1] + priv_b[i - 1] for i in p.players
        ),
        public_tape_length=p.public_tape_length + q.public_tape_length,
        programs=tuple(make_program(i) for i in p.players),
        max_local_rounds=max_lot + 2,
        mode=p.mode,
    )


# ---------------------------------------------------------------------------
# Grid search for the PIC-maximizing independent two-party distribution
# ---------------------------------------------------------------------------


@dataclass
class GridResult:
    alpha: Fraction
    beta: Fraction
    value: float
    grid_value: float
    mu: InputDistribution


def _mi_curve(p0: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """I(A ; S) in bits at each bias t = P[A=0], where S has the law p0
    given A = 0 and p1 given A = 1: the t-weighted Jensen-Shannon
    divergence of p0 and p1 (Lin 1991).  Entries where both laws vanish
    are not passed in, so the mixture is positive wherever it is read."""
    t = t[:, None]
    mix = t * p0 + (1 - t) * p1
    return sum(
        (w * p * np.log2(np.where(p > 0, p, mix) / mix)).sum(axis=1)
        for w, p in ((t, p0), (1 - t, p1))
    )


def sup_pic_grid(
    p: ProtocolDef,
    grid_step: float = 0.001,
    budget: int | None = DEFAULT_BUDGET,
) -> GridResult:
    """Maximize pic over a grid of independent Ber(alpha) x Ber(beta) input
    distributions for a two-player one-bit protocol.

    With X_i in the conditioning, player i's term of pic under a product
    law is ``sum_v P[X_i=v] g_iv(P[X_o=0])``.  X_o is independent of the
    tapes, so ``g_iv`` is I(X_o ; Pi_i R_o R_i Rp | X_i=v), a mutual
    information curve in the bias of X_o.  Each curve is evaluated once
    over the grid steps; the winning grid point (ties resolved toward
    smaller alpha, then smaller beta) is then re-evaluated exactly.
    Returns a lower bound on the supremum.  The budget caps the grid
    points per axis as well as the executions; a budget of None caps both
    at 2^64.
    """
    if p.k != 2 or any(set(d) != {"0", "1"} for d in p.input_domains):
        raise ConfigError(
            "grid search needs two players with one-bit input domains"
        )
    if not 0 < grid_step < math.inf:
        raise ConfigError("grid step must be a positive finite number")
    # Below 2^-1024 the float 1 / grid_step overflows; the exact one does not.
    inverse = 1.0 / grid_step
    m = round(inverse if inverse < math.inf else 1 / Fraction(grid_step))
    if m < 2:
        raise ConfigError("grid step too coarse")
    check_budget(budget, m - 1, "pic grid", "grid points per axis")
    try:
        steps = np.arange(1, m) / m
    except (ValueError, MemoryError) as exc:  # numpy refused or ran out
        raise BudgetExceededError(m - 1, budget, "pic grid",
                                  "grid points per axis, more than numpy "
                                  "can hold") from exc

    # Per player i and own input v: the executions per value of
    # (Pi_i, R_o, R_i, Rp), counted apart for X_o = 0 and X_o = 1.
    counts: dict[tuple[int, str], dict] = {
        (i, v): {} for i in (1, 2) for v in "01"
    }
    rows, _ = weighted_executions(p, InputDistribution.uniform(p), budget)
    for x, _, privs, pub, nodes in rows:
        for i, o in ((1, 2), (2, 1)):
            key = (nodes[i - 1].record().received, privs[o - 1],
                   privs[i - 1], pub)
            table = counts[i, x[i - 1]]
            table.setdefault(key, [0, 0])[int(x[o - 1])] += 1
    g = {}
    for key, table in counts.items():
        p0, p1 = (np.array(list(table.values())) / (1 << p.total_tape_bits)).T
        # Grid rows are independent; blocks of them keep every array at
        # most DEFAULT_BUDGET entries whatever the grid and the executions.
        block = max(1, DEFAULT_BUDGET // len(table))
        g[key] = np.concatenate([
            _mi_curve(p0, p1, steps[lo : lo + block])
            for lo in range(0, m - 1, block)
        ])

    best_val = -1.0
    best_ia = best_ib = 1
    tie_window = 1e-12  # float ties resolve toward smaller alpha, then beta
    for ia, alpha in enumerate(steps, start=1):
        total = (
            alpha * g[1, "0"] + (1 - alpha) * g[1, "1"]
            + steps * g[2, "0"][ia - 1] + (1 - steps) * g[2, "1"][ia - 1]
        )
        row_best = float(total.max())
        ib = int(np.argmax(total >= row_best - tie_window))
        if row_best > best_val + tie_window:
            best_val = row_best
            best_ia, best_ib = ia, ib + 1

    alpha = Fraction(best_ia, m)
    beta = Fraction(best_ib, m)
    mu = replace(InputDistribution.independent_bits(alpha, beta),
                 name=f"grid({alpha},{beta})")
    exact = pic(p, mu, budget)
    return GridResult(alpha=alpha, beta=beta, value=exact,
                      grid_value=best_val, mu=mu)
