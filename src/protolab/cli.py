"""Command-line front end.

Commands:
  measure   compute the measure suite for a protocol and distribution
  audit     privacy audit against the protocol's function family
  compress  run the transcript-search compression and its theorem check
  demo      run the order-leak demonstration (relaxed scheduler)
  list      show the built-in protocol registry

Exit codes: 0 ok, 1 bad configuration, 2 budget exceeded (the budget caps
enumerated executions, the pic grid's points per axis, the local rounds
of --obliviousize and the runs of --lcp randomized, executions x trials),
3 model violation, 4 compression refused a non-oblivious protocol, 5 an
internal invariant check failed (a bug in protolab).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import compression, measures, oblivious, treefile, zoo
from .errors import (
    BudgetExceededError,
    ConfigError,
    InvariantError,
    ModelViolationError,
    NotObliviousError,
)
from .model import DEFAULT_BUDGET, run_relaxed

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BUDGET = 2
EXIT_MODEL = 3
EXIT_NOT_OBLIVIOUS = 4
EXIT_INVARIANT = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive finite number"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="protolab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def protocol_args(sp):
        sp.add_argument("--protocol", required=True,
                        help="registry name or tree:PATH")
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--mu", default="uniform",
                        help="uniform | file:PATH | grid:STEP")
        sp.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)

    def output_args(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
        sp.add_argument("--out", default=None)

    for name, text in (("measure", "compute the measure suite"),
                       ("audit", "privacy audit")):
        sp = sub.add_parser(name, help=text)
        protocol_args(sp)
        sp.add_argument("--tolerance", type=_positive_float,
                        default=measures.TOLERANCE)
        output_args(sp)

    sp = sub.add_parser("compress", help="compression experiment")
    protocol_args(sp)
    output_args(sp)
    sp.add_argument("--lcp", choices=("exact", "randomized"), default="exact")
    sp.add_argument("--eps", type=float, default=None,
                    help="per-call error rate for randomized lcp boxes")
    sp.add_argument("--delta", type=float, default=0.1,
                    help="error budget of the compression theorem, in (0, 1)")
    sp.add_argument("--trials", type=int, default=None,
                    help="runs per input and tape for randomized lcp boxes "
                         "(default 8)")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of the randomized lcp boxes (default 0)")
    sp.add_argument("--obliviousize", type=str, default=None, metavar="EPS",
                    help="first rewrite the protocol through a coordinator")

    sp = sub.add_parser("demo", help="order-leak demonstration")
    sp.add_argument("--protocol", required=True, help="order-leak")
    output_args(sp)

    sp = sub.add_parser("list", help="list built-in protocols")
    output_args(sp)
    return parser


def _load_protocol(args):
    """The protocol, its function family and its name; a protocol whose
    executions exceed the budget fails here, before any input domain is
    built."""
    name = args.protocol
    if name.startswith("tree:"):
        p = treefile.load_protocol(name[len("tree:"):], budget=args.budget)
        return p, None, name
    entry = zoo.get_entry(name, budget=args.budget,
                          k=args.k, n=args.n, q=args.q)
    return entry.protocol, entry.family, name


def _load_distribution(args, p):
    spec = args.mu
    if spec == "uniform":
        return measures.InputDistribution.uniform(p), None
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        try:
            entries = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # also bad UTF-8, huge ints
            raise ConfigError(f"cannot read distribution {path}: {exc}")
        weights = {}
        try:
            for item in entries:
                inputs, num, den = item["inputs"], item["num"], item["den"]
                if not (isinstance(inputs, list)
                        and all(isinstance(v, str) for v in inputs)):
                    raise TypeError(f"inputs {inputs!r} is not a list of "
                                    "bit strings")
                if any(type(n) is not int for n in (num, den)):
                    raise TypeError(f"num {num!r} and den {den!r} must be "
                                    "integers")
                if tuple(inputs) in weights:
                    raise ConfigError(f"bad distribution entry in {path}: "
                                      f"inputs {inputs!r} listed twice")
                weights[tuple(inputs)] = Fraction(num, den)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad distribution entry in {path}: {exc}")
        try:
            mu = measures.InputDistribution.from_weights(
                f"file:{path.name}", weights
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
        mu.validate_for(p)
        return mu, None
    if spec.startswith("grid:"):
        try:
            step = float(spec[len("grid:"):])
        except ValueError:
            raise ConfigError(f"bad grid step in {spec!r}")
        return None, step
    raise ConfigError(f"unknown distribution spec {spec!r}")


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, default=str,
                              allow_nan=False)
        except ValueError as exc:
            raise InvariantError(f"report is not strict JSON: {exc}")
        return text + "\n"
    if fmt == "csv":
        flat = {
            k: (json.dumps(v) if isinstance(v, (list, dict)) else v)
            for k, v in payload.items()
        }
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted(flat))
        writer.writeheader()
        writer.writerow(flat)
        return buf.getvalue()
    lines = [f"{key}: {payload[key]}" for key in sorted(payload)]
    return "\n".join(lines) + "\n"


def _emit(payload: dict, args) -> None:
    text = _render(payload, args.format)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {args.out}: {exc}")
    else:
        sys.stdout.write(text)


def _cmd_measure(args) -> int:
    p, family, _ = _load_protocol(args)
    mu, grid_step = _load_distribution(args, p)
    extras = {}
    if grid_step is not None:
        result = measures.sup_pic_grid(p, grid_step, args.budget)
        mu = result.mu
        extras = {
            "sup_pic_value": measures.report_float(result.value),
            "sup_alpha": str(result.alpha),
            "sup_beta": str(result.beta),
        }
    report = measures.measure_protocol(
        p, mu, family, tolerance=args.tolerance, budget=args.budget
    )
    payload = report.to_dict()
    payload.update(extras)
    _emit(payload, args)
    return EXIT_OK


def _cmd_audit(args) -> int:
    p, family, _ = _load_protocol(args)
    if family is None:
        raise ConfigError(
            "privacy audit needs a function family; tree protocols do not "
            "declare one"
        )
    mu, _grid = _load_distribution(args, p)
    if mu is None:
        raise ConfigError("privacy audit needs a concrete distribution")
    terms = measures.privacy_terms(p, mu, family, args.budget)
    leakage = sum(terms)
    payload = {
        "report": "audit",
        "protocol": p.name,
        "distribution": mu.name,
        "family": family.name,
        "tolerance": measures.report_float(args.tolerance),
        "privacy_leakage": measures.report_float(leakage),
        "per_player": [measures.report_float(t) for t in terms],
        "verdict": "private" if leakage <= args.tolerance else "not-private",
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_compress(args) -> int:
    if args.lcp == "exact":
        for flag in ("eps", "trials", "seed"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} is read by --lcp randomized only")
    p, family, _ = _load_protocol(args)
    if family is None:
        raise ConfigError("compression check needs a function family")
    mu, grid_step = _load_distribution(args, p)
    if mu is None:
        raise ConfigError("compression needs a concrete distribution")
    if args.obliviousize is not None:
        try:
            eps = Fraction(args.obliviousize)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad --obliviousize EPS {args.obliviousize!r}")
        p = oblivious.obliviousize(p, mu, eps, args.budget)
    p = measures.publicize(p)
    # Only the flags given: the check owns the defaults of the others.
    given = {"seed": args.seed, "trials": args.trials, "eps_call": args.eps}
    report = compression.compression_theorem_check(
        p, mu, args.delta, family, lcp_mode=args.lcp, budget=args.budget,
        **{name: value for name, value in given.items() if value is not None},
    )
    _emit(report.to_dict(), args)
    return EXIT_OK


def _cmd_demo(args) -> int:
    if args.protocol not in ("order-leak",):
        raise ConfigError("the demo command supports --protocol order-leak")
    entry = zoo.get_entry("order-leak")
    p = entry.protocol
    runs = []
    for x in ("0", "1"):
        e = run_relaxed(p, (x, "", "", ""))
        runs.append(
            {
                "input": x,
                "message_contents": [m.content for m in e.messages],
                "transcripts": {
                    str(i): e.record(i).received for i in p.players
                },
                "outputs": list(e.outputs),
            }
        )
    identical = (
        runs[0]["message_contents"] == runs[1]["message_contents"]
        and runs[0]["transcripts"] == runs[1]["transcripts"]
    )
    payload = {
        "report": "demo",
        "protocol": p.name,
        "runs": runs,
        "content_transcripts_identical": identical,
        "second_player_outputs": [r["outputs"][1] for r in runs],
        "outputs_differ": runs[0]["outputs"][1] != runs[1]["outputs"][1],
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_list(args) -> int:
    protocols = [
        {
            "name": name,
            "parameters": list(meta["defaults"]),
            "defaults": meta["defaults"],
            "summary": meta["summary"],
        }
        for name, meta in sorted(zoo.REGISTRY.items())
    ]
    _emit({"report": "list", "protocols": protocols}, args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "measure": _cmd_measure,
            "audit": _cmd_audit,
            "compress": _cmd_compress,
            "demo": _cmd_demo,
            "list": _cmd_list,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotObliviousError as exc:
        print(
            f"error: {exc}\nhint: re-run with --obliviousize EPS",
            file=sys.stderr,
        )
        return EXIT_NOT_OBLIVIOUS
    except ModelViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
