"""The benchmark's workloads: seeded set-up, the fixed list of operations a
sample performs, and the correctness gate applied to every report.

Each workload has a ``setup_<name>(size, seed, tr)`` that builds every
protocol object and seeded input, and a ``run_<name>(inputs, tr)`` that
yields ``(op_name, thunk)`` pairs.  A thunk returns ``(report, problems)``:
the report is a JSON-ready dict whose canonical form is hashed, and
``problems`` lists every gate check it failed.

The untraced run (``tr`` is ``NULL_TRACER``) calls the public entry points
whole, the way a user would.  The traced run makes the same calls wrapped
in spans and, where the public API allows it, split into their parts:
``measure_protocol`` becomes ``run_all``, ``build_joint``, each info-backed
measure on the shared joint law, then ``cc`` and ``acc``; a compression
check is preceded by ``ObliviousStructure.build``, one ``build_tree`` per
(player, input, tape) and one ``compress_run`` per (input, tape).  Counts
come only from returned values.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import nullcontext
from fractions import Fraction

from protolab import (
    InputDistribution,
    LcpBox,
    MeasureReport,
    ObliviousStructure,
    acc,
    bitstrings,
    build_joint,
    build_tree,
    cc,
    compress_run,
    compression_theorem_check,
    get_entry,
    ic,
    measure_protocol,
    obliviousize,
    pic_decomposition,
    privacy_leakage,
    product_protocol,
    protocol_from_dict,
    publicize,
    run_all,
    spy_info,
    sup_pic_grid,
    transcript_entropy,
)
from protolab.compression import distributional_error
from protolab.measures import TOLERANCE
from protolab.model import DEFAULT_BUDGET

WORKLOADS = ("measure", "transform", "compress")

SIZES = {
    "full": {
        "measure": {"ring": (4, 2), "grid_step": 0.001},
        "transform": {
            "q_index": (3, 2),
            "product": ((3, 2), (3, 1)),
            "fold": (3, 1),
            "publicize": (4, 2),
            "tree": {"depth": 8, "input_bits": 3},
        },
        "compress": {"star": (4, 2), "q_index": (4, 1), "ring": (3, 2)},
    },
    "smoke": {
        "measure": {"ring": (3, 1), "grid_step": 0.05},
        "transform": {
            "q_index": (3, 1),
            "product": ((3, 1), (3, 1)),
            "fold": (3, 1),
            "publicize": (3, 1),
            "tree": {"depth": 4, "input_bits": 2},
        },
        "compress": {"star": (3, 1), "q_index": (3, 1), "ring": (3, 1)},
    },
}

EPS_LADDER = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
COMPRESS_EPS = Fraction(1, 4)
DELTA = 0.1


def digest(report: dict) -> str:
    """SHA-256 of a report's canonical JSON."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def eps_label(eps: Fraction) -> str:
    return f"eps_{eps.numerator}_{eps.denominator}"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def random_mu(rng: random.Random, p, name: str) -> InputDistribution:
    """Full-support random rational distribution over p's input space."""
    raw = {x: rng.randint(1, 64) for x in p.input_space()}
    total = sum(raw.values())
    return InputDistribution.from_weights(
        name, {x: Fraction(w, total) for x, w in raw.items()}
    )


def random_tree_spec(rng: random.Random, depth: int, input_bits: int,
                     name: str) -> dict:
    """Complete two-player protocol tree: every path sends ``depth`` one-bit
    messages, each sender and message table drawn from ``rng``."""
    keys = bitstrings(input_bits)

    def node(d: int) -> dict:
        if d == depth:
            return {"outputs": [rng.choice("01"), rng.choice("01")]}
        sender = rng.choice((1, 2))
        return {
            "sender": sender,
            "receiver": 3 - sender,
            "msg_bits": 1,
            "message_table": {key: rng.choice("01") for key in keys},
            "children": {"0": node(d + 1), "1": node(d + 1)},
        }

    return {
        "name": name,
        "k": 2,
        "input_bits": [input_bits, input_bits],
        "tape_bits": {"private": [0, 0], "public": 0},
        "tree": node(0),
    }


# ---------------------------------------------------------------------------
# Calls shared by the workloads, traced or not
# ---------------------------------------------------------------------------


def _entry(tr, name: str, **params):
    with tr.span("zoo.build"):
        return get_entry(name, **params)


def _run_all(tr, p):
    with tr.span("model.run_all") as s:
        table = run_all(p)
    if tr.enabled:
        s.counts["executions"] = len(table)
        s.counts["local_rounds"] = sum(
            len(rounds) for e in table.values() for rounds in e.patterns
        )
    return table


def _ic(tr, p, mu) -> float:
    if not tr.enabled:
        return ic(p, mu)
    # The same positional key ic() uses, so later whole calls hit the cache.
    with tr.span("measures.build_joint") as s:
        d = build_joint(p, mu, None, DEFAULT_BUDGET)
    s.counts["joint_outcomes"] = len(d.outcomes)
    with tr.span("info.ic"):
        return ic(p, mu, DEFAULT_BUDGET, joint=d)


def _cc(tr, p) -> int:
    with tr.span("measures.cc"):
        return cc(p)


def measure(tr, p, mu, family) -> MeasureReport:
    """``measure_protocol``; split into its parts when traced."""
    if not tr.enabled:
        return measure_protocol(p, mu, family)
    _run_all(tr, p)
    with tr.span("measures.build_joint") as s:
        d = build_joint(p, mu, family, DEFAULT_BUDGET)
    s.counts["joint_outcomes"] = len(d.outcomes)
    with tr.span("info.ic"):
        ic(p, mu, DEFAULT_BUDGET, joint=d)
    with tr.span("info.pic_decomposition"):
        ic_term, random_term = pic_decomposition(p, mu, DEFAULT_BUDGET, joint=d)
    with tr.span("info.transcript_entropy"):
        te = transcript_entropy(p, mu, DEFAULT_BUDGET, joint=d)
    with tr.span("info.spy_info"):
        spy = spy_info(p, mu, DEFAULT_BUDGET, joint=d)
    leak = None
    if family is not None:
        with tr.span("info.privacy_leakage"):
            leak = privacy_leakage(p, mu, family, DEFAULT_BUDGET, joint=d)
    cc_value = _cc(tr, p)
    with tr.span("measures.acc"):
        acc_value = acc(p, mu)
    return MeasureReport(
        protocol=p.name,
        distribution=mu.name,
        tolerance=TOLERANCE,
        cc=cc_value,
        acc=acc_value,
        ic=ic_term,
        pic=ic_term + random_term,
        pic_random_term=random_term,
        transcript_entropy=te,
        spy_info=spy,
        privacy_leakage=leak,
    )


def _measure_problems(r: MeasureReport, k: int) -> list[str]:
    """The check measure_protocol makes before returning, applied to both
    the whole and the split call: transcript entropy is at least the
    private-randomness part of pic over k."""
    problems = []
    _expect(problems, "transcript_entropy", r.transcript_entropy,
            f"at least {r.pic_random_term} / {k}",
            r.transcript_entropy >= r.pic_random_term / k - TOLERANCE)
    return problems


def _expect(problems: list[str], label: str, value, wanted, ok: bool) -> None:
    if not ok:
        problems.append(f"{label} is {value}, expected {wanted}")


# ---------------------------------------------------------------------------
# measure: the exact measure suite over many short executions
# ---------------------------------------------------------------------------


def setup_measure(size: str, seed: int, tr) -> dict:
    k, n = SIZES[size]["measure"]["ring"]
    ring = _entry(tr, "ring-parity", k=k, n=n)
    and_opt = _entry(tr, "and-opt")
    p = ring.protocol
    return {
        "k": k,
        "n": n,
        "ring": ring,
        "and_opt": and_opt,
        "mu_uniform": InputDistribution.uniform(p),
        "mu_random": random_mu(random.Random(seed), p, f"random(seed={seed})"),
        "grid_step": SIZES[size]["measure"]["grid_step"],
    }


def run_measure(inp: dict, tr):
    ring, k, n = inp["ring"], inp["k"], inp["n"]
    p, family = ring.protocol, ring.family

    def uniform():
        r = measure(tr, p, inp["mu_uniform"], family)
        problems = _measure_problems(r, k)
        for label, value, wanted in (
            ("cc", r.cc, k * n),
            ("ic", r.ic, n),
            ("pic", r.pic, k * n),
            ("transcript_entropy", r.transcript_entropy, n),
            ("spy_info", r.spy_info, (k - 1) * n),
            ("privacy_leakage", r.privacy_leakage, 0),
        ):
            _expect(problems, label, value, wanted, _close(value, wanted))
        return r, problems

    def random_mu_suite():
        r = measure(tr, p, inp["mu_random"], family)
        problems = _measure_problems(r, k)
        _expect(problems, "privacy_leakage", r.privacy_leakage, 0,
                _close(r.privacy_leakage, 0))
        _expect(problems, "transcript_entropy", r.transcript_entropy, n,
                _close(r.transcript_entropy, n))
        return r, problems

    def grid():
        step = inp["grid_step"]
        with tr.span("measures.sup_pic_grid") as s:
            g = sup_pic_grid(inp["and_opt"].protocol, step)
        if tr.enabled:
            s.counts["grid_points"] = (round(1 / step) - 1) ** 2
        report = {
            "report": "grid",
            "alpha": str(g.alpha),
            "beta": str(g.beta),
            "value": round(g.value, 9),
            "grid_value": round(g.grid_value, 9),
        }
        # pic over independent inputs peaks at log2(3); a grid of this step
        # lands within a few steps of the peak.
        sup = math.log2(3)
        problems = []
        _expect(problems, "grid pic", g.value, f"within {4 * step} below "
                f"log2(3)", sup - 4 * step <= g.value <= sup + TOLERANCE)
        return report, problems

    yield "ring-parity.uniform", uniform
    yield "ring-parity.random-mu", random_mu_suite
    yield "and-opt.sup-pic-grid", grid


# ---------------------------------------------------------------------------
# transform: few executions, many local rounds, through the replay paths
# ---------------------------------------------------------------------------


def setup_transform(size: str, seed: int, tr) -> dict:
    cfg = SIZES[size]["transform"]
    q_index = _entry(tr, "q-index", k=cfg["q_index"][0], q=cfg["q_index"][1])
    (sk, sn), (rk, rn) = cfg["product"]
    star = _entry(tr, "star-parity", k=sk, n=sn)
    ring = _entry(tr, "ring-parity", k=rk, n=rn)
    fold = _entry(tr, "star-parity", k=cfg["fold"][0], n=cfg["fold"][1])
    pub_k, pub_n = cfg["publicize"]
    pub_src = _entry(tr, "ring-parity", k=pub_k, n=pub_n)
    tree_cfg = cfg["tree"]
    spec = random_tree_spec(random.Random(seed), tree_cfg["depth"],
                            tree_cfg["input_bits"], f"random-tree(seed={seed})")
    with tr.span("treefile.compile"):
        tree = protocol_from_dict(spec)
    mu_star = InputDistribution.uniform(star.protocol)
    mu_ring = InputDistribution.uniform(ring.protocol)
    mu_fold = InputDistribution.uniform(fold.protocol)
    return {
        "q_index": q_index,
        "mu_q": InputDistribution.uniform(q_index.protocol),
        "star": star,
        "ring": ring,
        "mu_star": mu_star,
        "mu_ring": mu_ring,
        "mu_pair": InputDistribution.product(mu_star, mu_ring),
        "fold": fold,
        "mu_fold": mu_fold,
        "mu_fold3": InputDistribution.power(mu_fold, 3),
        "pub_src": pub_src,
        "mu_pub": InputDistribution.uniform(pub_src.protocol),
        "tree": tree,
        "tree_depth": tree_cfg["depth"],
        "mu_tree": InputDistribution.uniform(tree),
    }


def _additivity(tr, prod, mu_prod, parts) -> tuple[dict, list[str]]:
    """Report and checks for a product: ic and cc add up over the parts."""
    table = _run_all(tr, prod)
    ic_prod = _ic(tr, prod, mu_prod)
    cc_prod = _cc(tr, prod)
    ic_parts = [_ic(tr, p, mu) for p, mu in parts]
    cc_parts = [_cc(tr, p) for p, _ in parts]
    problems = []
    _expect(problems, "product ic", ic_prod, f"sum {sum(ic_parts)}",
            _close(ic_prod, sum(ic_parts)))
    _expect(problems, "product cc", cc_prod, f"sum {sum(cc_parts)}",
            cc_prod == sum(cc_parts))
    report = {
        "report": "product",
        "protocol": prod.name,
        "executions": len(table),
        "ic": round(ic_prod, 9),
        "ic_parts": [round(v, 9) for v in ic_parts],
        "cc": cc_prod,
        "cc_parts": cc_parts,
    }
    return report, problems


def _structures(tr, *protocols) -> None:
    """Traced run only: the oblivious structures product_protocol builds."""
    if tr.enabled:
        for p in protocols:
            _run_all(tr, p)
            with tr.span("model.oblivious_structure"):
                ObliviousStructure.build(p)


def run_transform(inp: dict, tr):
    q_entry = inp["q_index"]
    q, mu_q, q_family = q_entry.protocol, inp["mu_q"], q_entry.family

    def ladder_step(eps):
        def op():
            with tr.span("compression.obliviousize"):
                obl = obliviousize(q, mu_q, eps)
            with tr.span("compression.obliviousize_run", eps_label(eps)):
                table = _run_all(tr, obl)
            with tr.span("compression.distributional_error"):
                err = distributional_error(obl, mu_q, q_family)
                err0 = distributional_error(q, mu_q, q_family)
            problems = []
            _expect(problems, "obliviousized error", err,
                    f"at most {err0} + {eps}", err <= err0 + eps)
            report = {
                "report": "obliviousize",
                "protocol": obl.name,
                "eps": str(eps),
                "rounds": obl.max_local_rounds,
                "executions": len(table),
                "error": str(err),
                "original_error": str(err0),
            }
            return report, problems
        return op

    def pair():
        star, ring = inp["star"].protocol, inp["ring"].protocol
        _structures(tr, star, ring)
        with tr.span("measures.product_run"):
            with tr.span("measures.product_protocol"):
                prod = product_protocol(star, ring)
            report = _additivity(tr, prod, inp["mu_pair"], (
                (star, inp["mu_star"]), (ring, inp["mu_ring"])))
        return report

    def threefold():
        s = inp["fold"].protocol
        _structures(tr, s)
        with tr.span("measures.product_run"):
            with tr.span("measures.product_protocol"):
                prod = product_protocol(product_protocol(s, s), s)
            report = _additivity(tr, prod, inp["mu_fold3"],
                                 ((s, inp["mu_fold"]),) * 3)
        return report

    def public():
        entry = inp["pub_src"]
        with tr.span("measures.publicize"):
            pub = publicize(entry.protocol)
        table = _run_all(tr, pub)
        with tr.span("compression.distributional_error"):
            err = distributional_error(pub, inp["mu_pub"], entry.family)
        cc_value = _cc(tr, pub)
        k, n = entry.params["k"], entry.params["n"]
        problems = []
        _expect(problems, "publicized error", err, 0, err == 0)
        _expect(problems, "publicized cc", cc_value, k * n, cc_value == k * n)
        _expect(problems, "publicized tape bits", pub.public_tape_length,
                entry.protocol.total_tape_bits,
                pub.public_tape_length == entry.protocol.total_tape_bits)
        report = {
            "report": "publicize",
            "protocol": pub.name,
            "executions": len(table),
            "cc": cc_value,
            "error": str(err),
        }
        return report, problems

    def tree():
        p = inp["tree"]
        with tr.span("treefile.run"):
            _run_all(tr, p)
        r = measure(tr, p, inp["mu_tree"], None)
        problems = _measure_problems(r, p.k)
        _expect(problems, "tree pic", r.pic, f"ic {r.ic}", _close(r.pic, r.ic))
        _expect(problems, "tree transcript_entropy", r.transcript_entropy, 0,
                _close(r.transcript_entropy, 0))
        _expect(problems, "tree cc", r.cc, inp["tree_depth"],
                r.cc == inp["tree_depth"])
        return r, problems

    for eps in EPS_LADDER:
        yield f"q-index.obliviousize.{eps_label(eps)}", ladder_step(eps)
    yield "product.star-ring", pair
    yield "product.star-threefold", threefold
    yield "ring-parity.publicize", public
    yield "tree.random", tree


# ---------------------------------------------------------------------------
# compress: the compression theorem check
# ---------------------------------------------------------------------------


def setup_compress(size: str, seed: int, tr) -> dict:
    cfg = SIZES[size]["compress"]
    star = _entry(tr, "star-parity", k=cfg["star"][0], n=cfg["star"][1])
    q_index = _entry(tr, "q-index", k=cfg["q_index"][0], q=cfg["q_index"][1])
    ring = _entry(tr, "ring-parity", k=cfg["ring"][0], n=cfg["ring"][1])
    return {
        "star": star,
        "q_index": q_index,
        "ring": ring,
        "mu_star": InputDistribution.uniform(star.protocol),
        "mu_q": InputDistribution.uniform(q_index.protocol),
        "mu_ring": InputDistribution.uniform(ring.protocol),
        "box_seed": seed,
    }


def _split_check(tr, p, mu, eps) -> tuple[float, float]:
    """Traced run only: the parts of compression_theorem_check, returning
    the mu-weighted mean stages and lcp calls of the exact runs.  ``eps``
    labels the run of a protocol that obliviousize produced."""
    run_span = (tr.span("compression.obliviousize_run", eps_label(eps))
                if eps is not None else nullcontext())
    with run_span:
        _run_all(tr, p)
    with tr.span("model.oblivious_structure"):
        struct = ObliviousStructure.build(p)
    _ic(tr, p, mu)
    inputs = {i: {x[i - 1] for x, _ in mu.weights} for i in p.players}
    tapes = bitstrings(p.public_tape_length)
    trees: dict = {}
    for i in p.players:
        for own in sorted(inputs[i]):
            for pub in tapes:
                with tr.span("compression.build_tree") as s:
                    trees[(i, own, pub)] = build_tree(
                        p, i, own, pub, mu, structure=struct
                    )
                s.counts["trees"] = 1
    tape_weight = Fraction(1, 1 << p.public_tape_length)
    weighted = []
    for x, wx in mu.weights:
        for pub in tapes:
            box = LcpBox(mode="exact")
            with tr.span("compression.compress_run") as s:
                run = compress_run(p, mu, x, pub, box, structure=struct,
                                   trees=trees)
            s.counts.update(compress_runs=1, stages=run.stages,
                            lcp_calls=run.lcp_calls, lcp_bits=box.comm_bits)
            weighted.append((wx * tape_weight, run))
    stages = float(sum(float(w) * r.stages for w, r in weighted))
    calls = float(sum(float(w) * r.lcp_calls for w, r in weighted))
    return stages, calls


def _check(tr, variant, p, mu, family, mode, seed=0, eps=None):
    split = _split_check(tr, p, mu, eps) if tr.enabled else None
    with tr.span("compression.theorem_check", variant):
        r = compression_theorem_check(p, mu, DELTA, family, lcp_mode=mode,
                                      seed=seed)
    problems = []
    if mode == "exact":
        _expect(problems, "measured_error", r.measured_error,
                r.original_error, r.measured_error == r.original_error)
        _expect(problems, "expected_stages", r.expected_stages,
                f"at most ic {r.ic_original}",
                r.expected_stages <= r.ic_original + TOLERANCE)
    else:
        _expect(problems, "measured_error", r.measured_error,
                f"at most {r.original_error} + {DELTA}",
                r.measured_error <= r.original_error + DELTA + 1e-12)
    if split is not None:
        stages, calls = split
        _expect(problems, "traced stage mean", stages, r.expected_stages,
                _close(stages, r.expected_stages))
        _expect(problems, "traced lcp call mean", calls, r.mean_lcp_calls,
                _close(calls, r.mean_lcp_calls))
    return r.to_dict(), problems


def run_compress(inp: dict, tr):
    def star():
        entry = inp["star"]
        with tr.span("measures.publicize"):
            p = publicize(entry.protocol)
        return _check(tr, "star", p, inp["mu_star"], entry.family, "exact")

    def chain():
        entry, mu = inp["q_index"], inp["mu_q"]
        with tr.span("compression.obliviousize"):
            obl = obliviousize(entry.protocol, mu, COMPRESS_EPS)
        with tr.span("measures.publicize"):
            p = publicize(obl)
        return _check(tr, "obliviousized", p, mu, entry.family, "exact",
                      eps=COMPRESS_EPS)

    def randomized():
        entry = inp["ring"]
        with tr.span("measures.publicize"):
            p = publicize(entry.protocol)
        return _check(tr, "randomized", p, inp["mu_ring"], entry.family,
                      "randomized", seed=inp["box_seed"])

    yield "star-parity.exact", star
    yield "q-index.obliviousized.exact", chain
    yield "ring-parity.randomized", randomized


SETUP = {"measure": setup_measure, "transform": setup_transform,
         "compress": setup_compress}
RUN = {"measure": run_measure, "transform": run_transform,
       "compress": run_compress}
