"""Command-line front end.

Subcommands: qm, check, falsify, scan, experiment, bruteforce, lp.
JSON goes to stdout; CSV and distribution files go to ``--out`` paths.
Exit codes: 0 success, 1 falsified / violation found (a valid analysis
with a negative verdict), 2 usage error (bad arguments or input, or a
file or stdout that cannot be written), 3 numerical failure or out of
memory.  Every error, an argument the parser rejects included, prints one
JSON object ``{"error": ...}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import secrets
import sys
from dataclasses import asdict
from pathlib import Path

from .chained import (
    classical_min_chain_value,
    evaluate_chain,
    lp_min_chain_given_bias,
    noisy_chain_closed_form,
    quantum_chain_closed_form,
)
from .distributions import (
    ConditionalDistribution,
    _load_json,
    assert_nonsignaling,
    read_json_file,
    write_json_file,
)
from .experiment import (
    MissingSettingPairError,
    estimate_chain_value,
    max_locality_bound,
    read_shots_csv,
    simulate_shots,
    write_shots_csv,
)
from .hvm import (
    _leggett_document,
    falsify_leggett,
    hidden_joint_form,
    induced_distribution,
    locality_bound_check,
    locality_measure,
    make_locality_report,
    model_from_dict,
    model_from_json_file,
    xu_conditional,
)
from .quantum import mix_with_noise, qm_chained_distribution


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = secrets.randbits(32)
    return int(seed)


def _score_dict(score) -> dict:
    return {
        "n": score.n_settings,
        "chain_value": score.value,
        "terms": [[a, b, c] for a, b, c in score.terms],
    }


def cmd_qm(args) -> tuple[dict, int]:
    if args.n < 2:
        raise ValueError("n must be at least 2")
    dist = qm_chained_distribution(args.n)
    if args.visibility is not None:
        dist = mix_with_noise(dist, args.visibility)
    score = evaluate_chain(dist, args.n)
    payload = {
        "n": args.n,
        "visibility": 1.0 if args.visibility is None else args.visibility,
        "ideal_closed_form": quantum_chain_closed_form(args.n),
        **_score_dict(score),
    }
    if args.out:
        write_json_file(dist, args.out)
        payload["out"] = str(args.out)
    else:
        payload["distribution"] = dist.to_dict()
    return payload, 0


def cmd_check(args) -> tuple[dict, int]:
    # NaN or a negative tolerance would fail every table, infinity pass it.
    if not 0.0 <= args.tol < math.inf:
        raise ValueError("--tol must be finite and non-negative")
    dist = read_json_file(args.distribution)
    report = assert_nonsignaling(dist, args.tol)
    payload: dict = {"nonsignaling": asdict(report)}
    code = 0 if report.passed else 1
    if args.locality_bound:
        if dist.n_parties == 2:
            # Append a trivial hidden party so the bound applies as-is.
            table = dist.table.reshape(dist.input_sizes + (1,) + dist.output_sizes + (1,))
            dist3 = ConditionalDistribution(
                dist.input_sizes + (1,), dist.output_sizes + (1,), table
            )
        elif dist.n_parties == 3:
            dist3 = dist
        else:
            raise ValueError("locality bound needs a 2- or 3-party table")
        bound = locality_bound_check(dist3, args.tol)
        payload["locality_bound"] = asdict(bound)
        if bound.passed is not True:
            code = 1
    return payload, code


def cmd_falsify(args) -> tuple[dict, int]:
    raw = _load_json(args.model)
    if not isinstance(raw, dict):
        raise ValueError("model document must be a JSON object")
    n = args.n
    if n < 2:
        raise ValueError("n must be at least 2")
    payload: dict = {"n": n, "model_type": raw.get("type")}
    if args.shots is None and raw.get("type") == "leggett":
        # Falsification needs only Alice's marginal rule and weights.
        doc_n, vectors, _, _, weights = _leggett_document(raw)
        if doc_n != n:
            raise ValueError("model chain length does not match --n")
        report = falsify_leggett(n, vectors, weights)
        payload["mode"] = "exact"
    else:
        model = model_from_dict(raw, n)
        if args.shots is None:
            p4 = induced_distribution(model)
            p_xu = xu_conditional(p4)
            lm = locality_measure(p_xu)
            stat_tol = 1e-9
            payload["mode"] = "exact"
        else:
            if args.shots < 1:
                raise ValueError("shots must be at least 1")
            seed = _resolve_seed(args)
            payload["seed"] = seed
            p4 = induced_distribution(model, mode="sampled", shots=args.shots, seed=seed)
            # Sampled tables are noisy: skip the b-dependence gate and pool
            # over Bob's settings instead.
            p_xu = xu_conditional(p4, tol=1.0, average_b=True)
            cells = 2 * model.n_u
            samples = args.shots * n
            radius = math.sqrt(math.log(2.0 * cells * n / 1e-3) / (2.0 * samples))
            stat_tol = 0.5 * cells * radius
            lm = locality_measure(p_xu, marginal_tol=max(1e-6, cells * radius))
            payload["mode"] = "monte_carlo"
            payload["shots_per_pair"] = args.shots
        bound = 0.5 * quantum_chain_closed_form(n)
        report = make_locality_report(lm, bound, stat_tol)
    payload.update(report.to_dict())
    return payload, (1 if report.falsified else 0)


def cmd_scan(args) -> tuple[dict, int]:
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2")
    v = 1.0 if args.visibility is None else args.visibility
    # Build every row before opening --out, so a bad argument leaves no file.
    # A float repr holds no comma, quote or newline, so no field needs CSV
    # quoting; lines end in "\r\n", as the csv module's writer ends them.
    rows = ["n,chain_value,locality_bound,qm_asymptote\r\n"]
    for n in range(2, args.n_max + 1):
        value = noisy_chain_closed_form(n, v)
        rows.append("%d,%r,%r,%r\r\n" % (n, value, 0.5 * value, math.pi**2 / (8.0 * n)))
    text = "".join(rows)
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    return {"rows": args.n_max - 1, "visibility": v, "out": str(args.out)}, 0


def cmd_experiment(args) -> tuple[dict, int]:
    if args.n < 2:
        raise ValueError("n must be at least 2")
    if args.shots < 1:
        raise ValueError("shots must be at least 1")
    if not 0.0 < args.confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    seed = _resolve_seed(args)
    if args.source == "qm":
        source = qm_chained_distribution(args.n)
        if args.visibility is not None:
            source = mix_with_noise(source, args.visibility)
        reference = evaluate_chain(source, args.n).value
    else:
        if args.visibility is not None:
            raise ValueError("--visibility applies only to the qm source")
        model = model_from_json_file(args.source, args.n)
        source = model
        p4 = induced_distribution(model)
        xy = hidden_joint_form(p4)
        table = xy.table.sum(axis=-1)[:, :, 0]  # drop hidden output, trivial input
        reference = evaluate_chain(
            ConditionalDistribution((args.n, args.n), (2, 2), table), args.n
        ).value
    blocks = simulate_shots(source, args.n, args.shots, seed)
    if args.out:
        write_shots_csv(blocks, args.out)
        blocks = read_shots_csv(args.out)
    report = estimate_chain_value(blocks, args.n, args.confidence)
    payload = {
        "seed": seed,
        "source": str(args.source),
        "shots": args.shots,
        "report": asdict(report),
        "max_locality_bound": max_locality_bound(report),
        "reference_chain_value": reference,
    }
    if args.out:
        payload["out"] = str(args.out)
    return payload, 0


def cmd_bruteforce(args) -> tuple[dict, int]:
    result = classical_min_chain_value(args.n)
    return {
        "n": args.n,
        "min_value": result.min_value,
        "witness": asdict(result.witness),
    }, 0


def cmd_lp(args) -> tuple[dict, int]:
    result = lp_min_chain_given_bias(args.n, args.delta)
    payload = {
        "n": args.n,
        "delta": args.delta,
        "min_value": result.min_value,
        "lower_bound": 2.0 * args.delta,
        "gap": result.gap,
        "branch_values": list(result.branch_values),
        "dual_certificate": [list(y) for y in result.dual_certificate],
    }
    if args.out:
        write_json_file(result.argmin, args.out)
        payload["out"] = str(args.out)
    else:
        payload["argmin"] = result.argmin.to_dict()
    return payload, 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so that ``main``
    prints them as one JSON error instead of usage text on stderr.
    Subparsers are built with the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after it: each
    ``add_argument`` sets up a help formatter, which costs more than a
    whole ``parse_args``, and parsing leaves the parser unchanged."""
    parser = _Parser(
        prog="chainedbell",
        description="Chained Bell experiment simulator and hidden-variable model tester",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qm", help="quantum chained table and its chain value")
    p.add_argument("n", type=int)
    p.add_argument("--visibility", type=float, default=None)
    p.add_argument("--out", type=Path, default=None, help="write the table JSON here")
    p.set_defaults(func=cmd_qm)

    p = sub.add_parser("check", help="non-signaling (and locality bound) check")
    p.add_argument("distribution", type=Path)
    p.add_argument("--locality-bound", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("falsify", help="test a hidden-variable model's local part")
    p.add_argument("model", type=Path)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("scan", help="chain value and locality bound versus N (CSV)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--visibility", type=float, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("experiment", help="simulate shots and estimate the chain value")
    p.add_argument("--source", required=True, help="'qm' or a model JSON path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--visibility", type=float, default=None)
    p.add_argument("--out", type=Path, default=None, help="write the shot CSV here")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bruteforce", help="classical minimum over deterministic strategies")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("lp", help="minimize the chain value under a marginal bias")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", type=Path, default=None, help="write the argmin table here")
    p.set_defaults(func=cmd_lp)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.func(args)
    except SystemExit:  # --help printed its text
        return 0
    except (MissingSettingPairError, ArithmeticError, AssertionError) as exc:
        # AssertionError: a library identity cross-check failed numerically.
        text, code = json.dumps({"error": str(exc)}), 3
    except MemoryError as exc:
        text, code = json.dumps({"error": f"out of memory: {exc}"}), 3
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        text, code = json.dumps({"error": str(exc)}), 2
    else:
        text = json.dumps(payload, indent=2)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the interpreter's exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def entry() -> None:
    sys.exit(main())
