"""Interactive compression for oblivious public-coin protocols.

Each player i, knowing its own input, organizes the possible values of its
transcript (its messages, sent and received, in the global message order)
into a weighted binary prefix tree.  The players then search for the one
"coherent" profile of transcripts, i.e. the tuple in which every pairwise
conversation matches message by message.  Per stage, each pair compares its
current candidate conversations through an lcp box (first differing index),
everyone broadcasts the smallest inconsistent global message number, and the
receiver of that message moves to the subtree consistent with the revealed
bit; its node weight at least halves with each move, which bounds the
expected number of moving stages by the protocol's internal information
cost.  The global order makes every move sound: a message's lot exceeds
the lot of every message its sender read before sending it, so every bit
of the mover's transcript before message q_min belongs to a message
numbered below q_min, and those messages agree (Braverman and Rao,
"Information equals amortized communication", FOCS 2011).

The lcp boxes live in ``lcp.py``, and the coordinator-phase conversion that
makes any protocol oblivious in ``oblivious.py``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (
    ConfigError,
    InvariantError,
    ModelViolationError,
    check_budget,
)
from .lcp import LcpBox, draw_plan, lcp_exact, plan_holds
from .measures import (InputDistribution, acc, distributional_error, ic,
                       report_dict, weighted_executions)
from .model import (
    DEFAULT_BUDGET,
    ObliviousStructure,
    ProtocolDef,
    validate_public_tape,
)
from .zoo import FunctionFamily

TranscriptProfile = tuple[str, ...]


# ---------------------------------------------------------------------------
# Transcript trees
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    """A node of a transcript tree; an inner node has both children.
    ``weight`` sums mu's integer numerators over the inputs that reach the
    node, ``candidate`` is the leaf the max-weight descent from the node
    reaches (ties take the 0-labelled child), ``height`` the number of
    branching nodes on the longest path down.  An inner node stores its
    candidate in ``best``; a leaf is its own candidate, returned without
    being stored, so a tree holds no reference cycle.  A leaf also carries
    its transcript parsed once, when the tree is built: the owner's output
    there and its conversation with each peer, as
    ``ObliviousStructure.parse_transcript`` returns them."""

    prefix: str
    weight: int
    children: dict[str, "TreeNode"]
    best: "TreeNode | None" = field(default=None, repr=False, compare=False)
    height: int = 0
    leaf_label: str | None = None
    output: str | None = None
    conversations: dict[int, tuple[str, tuple]] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_label is not None

    @property
    def candidate(self) -> "TreeNode":
        return self if self.is_leaf else self.best


@dataclass
class TranscriptTree:
    """Weighted prefix tree over one player's possible transcripts;
    ``leaves`` maps each transcript to its leaf, ``reached`` each full
    input with the owner's input to the leaf its execution reaches, and
    ``mu`` is the law its weights were taken from."""

    root: TreeNode
    leaves: dict[str, TreeNode]
    reached: dict[tuple[str, ...], TreeNode]
    mu: InputDistribution

    @property
    def depth(self) -> int:
        """Branching nodes on the longest root-to-leaf path."""
        return self.root.height


def _build_node(weights: dict[str, int],
                leaves: dict[str, TreeNode]) -> TreeNode:
    strings = sorted(weights)
    first, last = strings[0], strings[-1]
    total = sum(weights.values())
    if len(strings) == 1:
        leaf = leaves[first] = TreeNode(prefix=first, weight=total,
                                        children={}, leaf_label=first)
        return leaf
    cut = lcp_exact(first, last)
    groups: dict[str, dict[str, int]] = {"0": {}, "1": {}}
    for s, w in weights.items():
        if len(s) <= cut:
            raise ModelViolationError(
                f"transcript {s!r} is a proper prefix of another transcript"
            )
        groups[s[cut]][s] = w
    # The sorted first and last transcripts differ at the cut, so both
    # groups are non-empty.
    zero, one = (_build_node(groups[bit], leaves) for bit in "01")
    return TreeNode(
        prefix=first[:cut], weight=total, children={"0": zero, "1": one},
        best=(zero if zero.weight >= one.weight else one).candidate,
        height=1 + max(zero.height, one.height),
    )


def _require_public_coin(p: ProtocolDef) -> None:
    """Compression reads transcripts keyed by input and public tape only;
    checked before any enumeration, so no budget error can hide it."""
    if sum(p.private_tape_lengths) != 0:
        raise ConfigError("compression needs a public-coin protocol")


def build_tree(
    p: ProtocolDef,
    i: int,
    own_input: str,
    public_tape: str,
    mu: InputDistribution,
    budget: int | None = DEFAULT_BUDGET,
    structure: ObliviousStructure | None = None,
) -> TranscriptTree:
    """Weighted prefix tree of player i's possible transcripts given its
    input and the public tape.

    Leaves cover every transcript reachable over the full domain of the
    other players' inputs; a node's weight over the root's is its
    probability given X_i under mu (so leaves unreachable under mu carry
    weight zero), and the root holds X_i's marginal numerator.  Each
    distinct final view's transcript is read once, and each leaf's
    transcript is parsed here, once, into the owner's output and its
    per-peer conversations; each full input is mapped to the leaf it
    reaches.  Requires an oblivious public-coin protocol.
    """
    _require_public_coin(p)
    struct = structure or ObliviousStructure.build(p, budget)
    if own_input not in p.input_domain(i):
        raise ValueError(f"{own_input!r} is not an input of player {i}")
    mu.validate_for(p)
    cond = {x: n for x, n in zip(mu.inputs, mu.nums) if x[i - 1] == own_input}
    marginal = sum(cond.values())
    if marginal == 0:
        raise ValueError(
            f"mu gives X_{i}={own_input!r} zero mass; the conditional "
            "weights are undefined"
        )
    public_tape = validate_public_tape(p, public_tape)
    weights: dict[str, int] = {}
    outputs: dict[str, str] = {}
    transcript_of: dict[tuple[str, ...], str] = {}
    # Player i's final view fixes its transcript; a trie node is a dict,
    # so views are told apart by identity.
    view_transcript: dict[int, str] = {}
    none_tapes = tuple("" for _ in range(p.k))
    # The inputs that hold the owner's, in input_space() order.
    domains = list(p.input_domains)
    domains[i - 1] = (own_input,)
    for x in itertools.product(*domains):
        node = struct.table.final_views(x, none_tapes, public_tape)[i - 1]
        rec = node.record()
        t = view_transcript.get(id(node))
        if t is None:
            t = view_transcript[id(node)] = struct.transcript(rec, i)
        transcript_of[x] = t
        weights[t] = weights.get(t, 0) + cond.get(x, 0)
        outputs[t] = rec.output
    leaves: dict[str, TreeNode] = {}
    root = _build_node(weights, leaves)
    if root.weight != marginal:
        raise InvariantError("tree weights do not sum to the owner's marginal")
    for t, leaf in leaves.items():
        leaf.output = outputs[t]
        leaf.conversations = struct.parse_transcript(i, t)
    return TranscriptTree(
        root=root, leaves=leaves,
        reached={x: leaves[t] for x, t in transcript_of.items()}, mu=mu,
    )


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------


def is_coherent(
    profile: TranscriptProfile,
    p: ProtocolDef,
    structure: ObliviousStructure | None = None,
) -> bool:
    """True iff every pairwise conversation matches message by message;
    False also when a transcript does not split into its player's
    messages."""
    struct = structure or ObliviousStructure.build(p)
    if len(profile) != p.k:
        raise ValueError(
            f"a profile holds {p.k} transcripts, not {len(profile)}"
        )
    try:
        parsed = [struct.parse_transcript(i, t)
                  for i, t in zip(p.players, profile)]
    except ValueError:  # a transcript does not split into its messages
        return False
    # Comparing bits is enough: both sides see the same links in the same
    # global order, and every codebook is prefix-free, so equal bits split
    # into equal messages.
    return all(
        parsed[i - 1][j][0] == parsed[j - 1][i][0]
        for i in p.players
        for j in p.players
        if i < j
    )


# ---------------------------------------------------------------------------
# The stage loop
# ---------------------------------------------------------------------------


@dataclass
class StageRecord:
    stage: int
    q_values: dict[tuple[int, int], int | None]
    q_min: int | None
    mover: int | None
    tie: bool


@dataclass
class CompressRun:
    profile: TranscriptProfile
    outputs: tuple[str, ...]  # what each player outputs on its profile leaf
    stages: int  # stages in which a player moved
    total_stages: int  # including the final all-consistent detection stage
    comm_bits: int
    lcp_calls: int
    trace: list[StageRecord]
    log_weight_bound: float  # sum_i log2(root weight / true leaf weight)
    moves_per_player: dict[int, int]


def format_trace(result: CompressRun) -> str:
    """Line-oriented debugging trace: per stage, the mover, the smallest
    inconsistent message number, and the per-pair q values ("." = agree,
    "-" = pair never talks)."""
    lines = []
    for rec in result.trace:
        pairs = " ".join(
            f"q{i},{j}={'.' if g is None else g}"
            for (i, j), g in sorted(rec.q_values.items())
        )
        mover = f"player {rec.mover} moves" if rec.mover else "coherent"
        tie = " (tie)" if rec.tie else ""
        qmin = "inf" if rec.q_min is None else rec.q_min
        lines.append(f"stage {rec.stage}: Q={qmin} {mover}{tie}  [{pairs}]")
    return "\n".join(lines) + "\n"


def _extent_at(extents, bit_index):
    """Index of the extent that holds the conversation bit ``bit_index``."""
    for n, (_, start, end, _) in enumerate(extents):
        if start <= bit_index < end:
            return n
    raise ModelViolationError("lcp result points outside the conversation")


def compress_run(
    p: ProtocolDef,
    mu: InputDistribution,
    inputs: tuple[str, ...],
    public_tape: str,
    box: LcpBox,
    budget: int | None = DEFAULT_BUDGET,
    structure: ObliviousStructure | None = None,
    trees: dict | None = None,
) -> CompressRun:
    """One run of the collaborative transcript search.

    The run reads only the players' trees, the structure's message
    skeleton and the box's answers.  With an exact box the returned
    profile always equals the true one and the stage invariants are
    asserted against the true leaves the trees recorded; with a
    randomized box the truth checks are skipped (a box error may derail a
    stage) and the result may be wrong with small probability.
    ``trees`` memoizes the trees by (player, own input, public tape); a
    memo tree built under a law other than ``mu`` raises ``ValueError``.
    """
    _require_public_coin(p)
    struct = structure or ObliviousStructure.build(p, budget)
    exact = box.mode == "exact"
    k = p.k
    inputs = tuple(inputs)
    if len(inputs) != k:
        raise ValueError("need one input per player")
    trees = {} if trees is None else trees
    tree_of = {}
    for i in p.players:
        key = (i, inputs[i - 1], public_tape)
        tree = trees.get(key)
        if tree is None:
            tree = trees[key] = build_tree(
                p, i, inputs[i - 1], public_tape, mu, budget, structure=struct
            )
        elif tree.mu is not mu and tree.mu != mu:
            raise ValueError(
                f"the tree memo holds player {i}'s tree under law "
                f"{tree.mu.name!r}, not under {mu.name!r}"
            )
        tree_of[i] = tree
    # Each tree checked its owner's input, so the trees reached this one.
    truth = {i: tree_of[i].reached[inputs] for i in p.players}

    tau = {i: tree_of[i].root for i in p.players}
    moves = {i: 0 for i in p.players}
    broadcast_bits = math.ceil(math.log2(struct.table.cc + 2))
    trace: list[StageRecord] = []
    comm_broadcast = 0
    stage = 0
    # Exact boxes move one node strictly deeper per non-final stage, so the
    # loop is bounded by the total tree depth; erring boxes can also cause
    # no-op stages, so randomized runs get slack and then give up with
    # whatever candidates they hold (counted as an error by the caller).
    depth_total = sum(tree_of[i].depth for i in p.players)
    stage_cap = depth_total + 2 if exact else 16 * (depth_total + 4)

    def finish(cand):
        if exact and cand != truth:
            raise ModelViolationError(
                "exact-box compression returned a wrong profile"
            )
        log_bound = sum(
            math.log2(tree_of[i].root.weight / leaf.weight)
            if leaf.weight else math.inf
            for i, leaf in truth.items()
        )
        return CompressRun(
            profile=tuple(cand[i].leaf_label for i in p.players),
            outputs=tuple(cand[i].output for i in p.players),
            stages=sum(moves.values()),
            total_stages=stage,
            comm_bits=box.comm_bits + comm_broadcast,
            lcp_calls=box.calls,
            trace=trace,
            log_weight_bound=log_bound,
            moves_per_player=moves,
        )

    while True:
        stage += 1
        cand = {i: tau[i].candidate for i in p.players}
        if stage > stage_cap:
            if exact:
                raise ModelViolationError("stage loop failed to terminate")
            return finish(cand)
        q_values: dict[tuple[int, int], int | None] = {}
        hits: dict[tuple[int, int], tuple[int, int]] = {}  # (diff, extent)
        for i in p.players:
            for j in p.players:
                if i >= j:
                    continue
                conv_i, ext_i = cand[i].conversations[j]
                conv_j, ext_j = cand[j].conversations[i]
                if not ext_i and not ext_j:
                    continue
                diff = box.compare(conv_i, conv_j)
                if diff is None:
                    q_values[(i, j)] = None
                    continue
                extents = ext_i if diff < len(conv_i) else ext_j
                n = _extent_at(extents, diff)
                q_values[(i, j)] = extents[n][0]
                hits[(i, j)] = diff, n
        comm_broadcast += k * (k - 1) * broadcast_bits
        finite = {pair: g for pair, g in q_values.items() if g is not None}
        if not finite:
            trace.append(StageRecord(stage, q_values, None, None, False))
            return finish(cand)
        q_min = min(finite.values())
        winners = sorted(pair for pair, g in finite.items() if g == q_min)
        pair = winners[0]
        tie = len(winners) > 1
        # Message q_min's sender is "correct"; its receiver moves.
        message = struct.messages[q_min - 1]
        sender, mover = message.sender, message.receiver
        if {sender, mover} != set(pair):
            raise ModelViolationError(
                "q_min does not belong to the winning pair"
            )
        if tau[mover].is_leaf:
            # Only reachable through an erring box: the mover's transcript
            # is already fully pinned, so there is nothing to revise.
            if exact:
                raise ModelViolationError(
                    "exact boxes blamed a player with a settled transcript"
                )
            trace.append(StageRecord(stage, q_values, q_min, None, tie))
            continue
        # Both sides of a conversation list its messages in global order,
        # so the mover's extent of message q_min has the same index.
        diff, n = hits[pair]
        _, start, end, at = cand[mover].conversations[sender][1][n]
        wrong_at = at + min(max(diff - start, 0), end - start - 1)
        # The anchor is the deepest inner node between tau and the candidate
        # leaf whose prefix ends at or before the wrong bit; the mover takes
        # its child off that path.
        label = cand[mover].leaf_label
        anchor = node = tau[mover]
        while not node.is_leaf and len(node.prefix) <= wrong_at:
            anchor = node
            node = node.children[label[len(node.prefix)]]
        on_path_bit = label[len(anchor.prefix)]
        new_tau = anchor.children["1" if on_path_bit == "0" else "0"]
        if exact:
            if len(anchor.prefix) != wrong_at:
                raise ModelViolationError(
                    "branch point does not line up with the wrong bit"
                )
            if not truth[mover].leaf_label.startswith(new_tau.prefix):
                raise ModelViolationError(
                    "stage invariant broken: node is not a prefix of the "
                    "true transcript"
                )
        if 2 * new_tau.weight > tau[mover].weight:
            raise ModelViolationError(
                "moving player's node weight did not halve"
            )
        tau[mover] = new_tau
        moves[mover] += 1
        trace.append(StageRecord(stage, q_values, q_min, mover, tie))


# ---------------------------------------------------------------------------
# Theorem-scale check driver
# ---------------------------------------------------------------------------


@dataclass
class CompressionReport:
    protocol: str
    distribution: str
    lcp_mode: str
    delta: float
    eps_per_call: float | None
    original_error: float
    measured_error: float
    acc_original: float
    acc_compressed: float
    cc_original: int
    ic_original: float
    expected_stages: float
    expected_total_stages: float
    expected_log_weight_bound: float
    bound_value: float
    ratio: float | None
    mean_lcp_calls: float
    max_lcp_calls: int
    ties_seen: int

    def to_dict(self) -> dict:
        return report_dict("compress", self)


def compression_theorem_check(
    p: ProtocolDef,
    mu: InputDistribution,
    delta: float,
    family: FunctionFamily,
    lcp_mode: str = "exact",
    seed: int = 0,
    trials: int = 8,
    budget: int | None = DEFAULT_BUDGET,
    eps_call: float | None = None,
) -> CompressionReport:
    """Run the compression over the whole input space and compare against
    the stated average-communication bound.

    Reports the measured average communication of the compressed protocol,
    the measured distributional error, and the ratio to the bound value
    ``k^2 * ic * log2(cc) * log2(k^2 * ic * log2(cc) / delta)``; the ratio
    is reported, never asserted, since the bound's constant is unspecified,
    and is None when the bound is not positive (say ic = 0 or cc = 1).
    With randomized boxes the per-call error rate defaults to delta over
    twice the exact pass's worst-case call count (so the union bound stays
    within delta), and the measured error comes from seeded Monte-Carlo
    trials.  Passing ``eps_call`` overrides the rate; the error-within-
    delta assertion is then skipped, since the caller chose the operating
    point, and only the measured value is reported.  ``delta`` is an error
    probability, so it must lie in (0, 1); the mode and ``eps_call`` are
    checked before any enumeration too.  With randomized boxes the budget
    (2^64 if None) also caps the runs, executions x trials, before the
    first trial.

    A run is a deterministic function of its box's answers, so a trial
    follows the exact run until its box's first wrong answer (the fact
    behind Braverman and Rao's union bound).  A box answers wrong exactly
    when a hash test on the exact search path collides, and those tests
    depend only on the exact run's lcp calls and the rate.  So each exact
    run's calls are compiled once into a draw plan (``lcp.draw_plan``), and
    a trial walks the plan with its seed (``lcp.plan_holds``); if no test
    collides, its outputs are the exact run's.  Otherwise the trial runs
    ``compress_run`` with a fresh box on the same seed, which returns what
    running the trial in full returns.  Reports stay byte-identical to
    running every trial through ``compress_run``; the trials cost about
    planned tests times trials, plus one run per trial that meets a wrong
    answer.
    """
    if not 0 < delta < 1:
        raise ConfigError(f"delta must be an error probability in (0, 1), "
                          f"got {delta}")
    if lcp_mode not in ("exact", "randomized"):
        raise ConfigError(f"unknown lcp mode {lcp_mode!r}")
    if eps_call is not None and not 0 < eps_call < 1:
        raise ConfigError("lcp error rate must be in (0, 1)")
    if lcp_mode == "randomized" and trials < 1:
        raise ConfigError("randomized compression needs at least one trial")
    _require_public_coin(p)
    struct = ObliviousStructure.build(p, budget)
    eps0 = float(distributional_error(p, mu, family, budget))
    trees: dict = {}

    def wrong(x, outputs) -> bool:
        return outputs != tuple(family.value(i, x) for i in p.players)

    # One exact run per (input, public tape); it has probability n / den.
    # Each is kept with its verdict and its box's calls, for the trials'
    # draw plans, and without its stage trace, of which the report reads
    # only the ties.
    rows, den = weighted_executions(p, mu, budget)
    exact_runs = []
    ties = 0
    for x, n, _, pub, _ in rows:
        box = LcpBox(mode="exact")
        r = compress_run(p, mu, x, pub, box, budget,
                         structure=struct, trees=trees)
        ties += sum(rec.tie for rec in r.trace)
        exact_runs.append((x, n, pub, replace(r, trace=[]),
                           wrong(x, r.outputs), box.history))
    err_exact = Fraction(
        sum(n for _, n, _, _, is_wrong, _ in exact_runs if is_wrong), den
    )

    def mean(getter) -> float:
        return sum(n * getter(r) for _, n, _, r, _, _ in exact_runs) / den

    ic_value = ic(p, mu, budget)
    cc_value = struct.table.cc
    # log2(cc) is 0 at cc = 1, and a protocol that sends nothing (cc = 0)
    # gets the same zero bound.
    inner = p.k * p.k * ic_value * math.log2(max(cc_value, 1))
    # A difference of logarithms: inner / delta overflows for a tiny delta.
    bound = (inner * (math.log2(inner) - math.log2(delta)) if inner > 0
             else 0.0)
    acc_compressed = mean(lambda r: r.comm_bits)
    max_calls = max(r.lcp_calls for _, _, _, r, _, _ in exact_runs)

    assert_budget = eps_call is None
    if lcp_mode == "exact":
        measured = float(err_exact)
        eps_call = None
    else:
        check_budget(budget, len(exact_runs) * trials,
                     "randomized compression", "compress runs")
        if eps_call is None:
            eps_call = delta / max(2 * max_calls, 1)
            if eps_call == 0:
                raise ConfigError(f"delta {delta} leaves a per-call lcp error "
                                  "rate that underflows to 0")

        rng = random.Random(seed)
        bad = 0
        for x, n, pub, _, is_wrong, history in exact_runs:
            plan = draw_plan(history, eps_call)
            for _ in range(trials):
                box_seed = rng.getrandbits(48)
                if plan_holds(plan, box_seed):
                    bad += n * is_wrong
                    continue
                box = LcpBox(mode="randomized", eps=eps_call, seed=box_seed)
                outputs = compress_run(p, mu, x, pub, box, budget,
                                       structure=struct, trees=trees).outputs
                bad += n * wrong(x, outputs)
        measured = bad / (den * trials)

    if assert_budget and measured > eps0 + delta + 1e-12:
        raise ModelViolationError(
            f"compressed protocol error {measured} exceeds eps+delta "
            f"= {eps0 + delta}"
        )
    return CompressionReport(
        protocol=p.name,
        distribution=mu.name,
        lcp_mode=lcp_mode,
        delta=delta,
        eps_per_call=eps_call,
        original_error=eps0,
        measured_error=measured,
        acc_original=float(acc(p, mu, budget)),
        acc_compressed=acc_compressed,
        cc_original=cc_value,
        ic_original=ic_value,
        expected_stages=mean(lambda r: r.stages),
        expected_total_stages=mean(lambda r: r.total_stages),
        expected_log_weight_bound=mean(lambda r: r.log_weight_bound),
        bound_value=bound,
        ratio=acc_compressed / bound if bound > 0 else None,
        mean_lcp_calls=mean(lambda r: r.lcp_calls),
        max_lcp_calls=max_calls,
        ties_seen=ties,
    )
