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
import dataclasses
import functools
import json
import math
import os
import secrets
import sys
from pathlib import Path

from .chained import (
    classical_min_chain_value,
    evaluate_chain,
    lp_min_chain_given_bias,
    noisy_chain_closed_form,
)
from .distributions import (
    NORM_TOL,
    ConditionalDistribution,
    _json_float_list,
    _load_json,
    assert_nonsignaling,
    read_json_file,
    write_json_file,
)
from .experiment import (
    MissingSettingPairError,
    estimate_from_counts,
    sample_counts,
    simulate_shots_csv,
)
from . import hvm
from .hvm import (
    chain_table,
    locality_bound_check,
    locality_cap,
    locality_measure,
    model_from_dict,
    model_from_json_file,
    sampled_xu_table,
    xu_table,
)
from .quantum import qm_chained_distribution

_INT64_MAX = 2**63 - 1
_SCAN_ROWS = 65536  # rows per scan CSV write


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(32)
    if seed < 0:  # NumPy's own message names no flag
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    return int(seed)


def _fields(record) -> dict:
    """A flat record's fields in order, uncopied (``asdict`` deep-copies)."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _qm_table(n: int, visibility: float | None, arg: str) -> ConditionalDistribution:
    """The qm table at ``visibility`` (1 when it is None), refused before
    anything is built when its 4·N² entries exceed the model budget
    ``MAX_MODEL_ENTRIES``; the error names ``arg``."""
    if n >= 2 and 4 * n * n > hvm.MAX_MODEL_ENTRIES:
        raise ValueError(f"quantum table too large: {arg} {n} asks for {4 * n * n} numbers, "
                         f"above {hvm.MAX_MODEL_ENTRIES}")
    return qm_chained_distribution(n, 1.0 if visibility is None else visibility)


def cmd_qm(args) -> tuple[dict, int]:
    dist = _qm_table(args.n, args.visibility, "n")
    score = evaluate_chain(dist)
    payload = {
        "n": args.n,
        "visibility": 1.0 if args.visibility is None else args.visibility,
        "ideal_closed_form": noisy_chain_closed_form(args.n, 1.0),
        "chain_value": score.value,
        "terms": [[a, b, c] for a, b, c in score.terms],
    }
    if args.out:
        write_json_file(dist, args.out)
        payload["out"] = str(args.out)
    else:
        payload["distribution"] = dist
    return payload, 0


def cmd_check(args) -> tuple[dict, int]:
    # NaN or a negative tolerance would fail every table, infinity pass it.
    if not 0.0 <= args.tol < math.inf:
        raise ValueError("--tol must be finite and non-negative")
    dist = read_json_file(args.distribution)
    if not args.locality_bound:
        report = assert_nonsignaling(dist, args.tol)
        return {"nonsignaling": _fields(report)}, (0 if report.passed else 1)
    # The bound's own non-signaling test is the check's report.  A table
    # that signals gets no record: the bound is inapplicable, not failed.
    ns, rec = locality_bound_check(dist, args.tol)
    n, lhs = dist.input_sizes[0], () if rec is None else rec.per_setting
    bound = {"applicable": ns.passed, "ns_violation": ns.max_violation, "lhs_x": lhs[:n],
             "lhs_y": lhs[n:], "bound": rec and rec.cap, "passed": rec and rec.passed}
    return {"nonsignaling": _fields(ns), "locality_bound": bound}, (0 if bound["passed"] else 1)


def cmd_falsify(args) -> tuple[dict, int]:
    if args.shots is None and args.seed is not None:
        raise ValueError("--seed applies only with --shots")
    raw = _load_json(args.model)
    n = args.n
    model = model_from_dict(raw, n)
    payload: dict = {"n": n, "model_type": raw["type"]}
    p_xu = xu_table(model)
    chain_value = noisy_chain_closed_form(n, 1.0)
    if args.shots is None:
        record = locality_measure(p_xu, chain_value)
        payload["mode"] = "exact"
    else:
        if args.shots < 1:
            raise ValueError("shots must be at least 1")
        # --shots counts shots per setting pair: each of Alice's settings
        # pools N pairs' shots, drawn at once as one multinomial, whose
        # count must fit in int64.
        samples = args.shots * n
        if samples > _INT64_MAX:
            raise ValueError(f"--shots must be at most {_INT64_MAX // n} at --n {n}")
        seed = _resolve_seed(args)
        payload["seed"] = seed
        p_xu = sampled_xu_table(p_xu, samples, seed)
        cells = 2 * model.n_u
        radius = math.sqrt(math.log(2.0 * cells * n / 1e-3) / (2.0 * samples))
        record = locality_measure(p_xu, chain_value, 0.5 * cells * radius)
        payload["mode"] = "monte_carlo"
        payload["shots_per_pair"] = args.shots
    # Falsified: the worst setting exceeds the cap by more than the tolerance.
    payload.update({
        "per_setting_distance": [[a, d] for a, d in enumerate(record.per_setting)],
        "bound": record.cap,
        "max_distance": record.max_distance,
        "falsified": not record.passed,
        "stat_tolerance": record.tolerance,
    })
    return payload, (0 if record.passed else 1)


def cmd_scan(args) -> tuple[dict, int]:
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2")
    v = 1.0 if args.visibility is None else args.visibility
    noisy_chain_closed_form(2, v)  # checks v before --out is opened
    # A float repr holds no comma, quote or newline, so no field needs CSV
    # quoting; lines end in "\r\n", as the csv module's writer ends them.
    with open(args.out, "w", newline="") as fh:
        fh.write("n,chain_value,locality_bound,qm_asymptote\r\n")
        for start in range(2, args.n_max + 1, _SCAN_ROWS):
            ns = range(start, min(start + _SCAN_ROWS, args.n_max + 1))
            fh.write("".join([
                f"{n},{value!r},{locality_cap(value)!r},{math.pi**2 / (8.0 * n)!r}\r\n"
                for n, value in zip(ns, map(noisy_chain_closed_form, ns, [v] * len(ns)))]))
    return {"rows": args.n_max - 1, "visibility": v, "out": str(args.out)}, 0


def cmd_experiment(args) -> tuple[dict, int]:
    # The library checks shots >= 1 and the confidence, but not int64.
    if args.shots > _INT64_MAX:
        raise ValueError(f"--shots must be at most {_INT64_MAX}")
    seed = _resolve_seed(args)
    if args.source == "qm":
        source = table = _qm_table(args.n, args.visibility, "--n")
    else:
        if args.visibility is not None:
            raise ValueError("--visibility applies only to the qm source")
        # The model is sampled through its outcome table, whose chain value
        # is the reference.
        source = model_from_json_file(args.source, args.n)
        table = chain_table(source)
    reference = evaluate_chain(table).value
    counts, mismatches = sample_counts(table, args.shots, seed)
    report = estimate_from_counts(counts, mismatches, args.confidence)
    payload = {
        "seed": seed,
        "source": str(args.source),
        "shots": args.shots,
        "report": _fields(report),
        "max_locality_bound": locality_cap(report.upper_bound),
        "reference_chain_value": reference,
    }
    if args.out:
        # The stream draws the same counts from the same seed and orders
        # them into shots.  It is written after the estimate, so that a
        # run that fails leaves no file.
        simulate_shots_csv(source, args.shots, seed, args.out)
        payload["out"] = str(args.out)
    return payload, 0


def cmd_bruteforce(args) -> tuple[dict, int]:
    result = classical_min_chain_value(args.n)
    return {
        "n": args.n,
        "min_value": result.min_value,
        "witness": _fields(result.witness),
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
        payload["argmin"] = result.argmin
    return payload, 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so that ``main``
    prints them as one JSON error instead of usage text on stderr.
    Subparsers are built with the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and each subcommand's parser by name, built once and
    shared: an ``add_argument`` costs more than a parse, which changes no
    parser."""
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
    p.add_argument("--tol", type=float, default=NORM_TOL)
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
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The full parser's ``parse_args(argv)`` at half the cost: the rest of an
    argv that starts with a subcommand goes straight to its parser, which
    the full parser's own pass would only hand it on to."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no argv, an unknown command, or -h before it
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


class _Raw(str):
    """Text that :func:`_json_text` writes as it stands."""


# The JSON text of each scalar type, as json writes it (NaN as ``NaN``).
_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__, _Raw: str,
            float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v),
            bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, each line after the first indented
    by ``pad[1:]``: the walk of json's pure-Python encoder, which ``indent``
    selects, without its generators.  Dict keys must be strings."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{_SCALARS[str](k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if items else "{}"
    return json.dumps(value)  # a scalar type's subclass (NumPy's float64), or a TypeError


def _payload_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2)``, where a top-level table stands for
    its ``to_dict()``: its entries are formatted by ``_json_float_list``."""
    for key, value in payload.items():
        if isinstance(value, ConditionalDistribution):
            table = _json_float_list(value.table.ravel(), ",\n      ")
            doc = {**value._size_fields(), "table": _Raw(f"[\n      {table}\n    ]")}
            payload = {**payload, key: doc}
    return _json_text(payload)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        payload, code = args.func(args)
    except SystemExit:  # --help printed its text
        return 0
    except (MissingSettingPairError, ArithmeticError, AssertionError) as exc:
        # AssertionError: a library identity cross-check failed numerically.
        text, code = json.dumps({"error": str(exc)}), 3
    except MemoryError as exc:
        text, code = json.dumps({"error": f"out of memory: {exc}"}), 3
    except (ValueError, TypeError, KeyError, OSError) as exc:
        text, code = json.dumps({"error": str(exc)}), 2
    else:
        text = _payload_text(payload)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the interpreter's exit flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


def entry() -> None:
    sys.exit(main())
