"""Command-line front end.

Subcommands: paths (basis dimensions), exact (symbolic polynomial),
evaluate (exact value at one k or a k-sweep), sample (simulated quantum
estimation), verify (relation/axiom/invariance suites).

Output is a single JSON document on stdout (CSV only for --sweep-k when
requested); all diagnostics go to stderr. Exit status: 0 on success or an
all-pass verify, 1 on verification failure, 2 on bad input, 3 on an internal
error (a defect, reported as one "internal error: <Type>: <message>" line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable

from . import checks
from .braids import BraidWord, parse_braid_word, writhe
from .evaluation import jones_value_exact
from .laurent import convert_to_t
from .pathmodel import choose_a, count_walks
from .sampling import SamplerConfig, sample_jones_value
from .tl import jones_polynomial


class CliError(ValueError):
    """Bad command-line input (exit status 2)."""


def _emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")


def _load_braid(args: argparse.Namespace) -> BraidWord:
    inline = getattr(args, "braid", None)
    path = getattr(args, "braid_file", None)
    if (inline is None) == (path is None):
        raise CliError("provide exactly one braid source: --braid or --braid-file")
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            return BraidWord.from_json_dict(data)
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested past the parser's depth
            raise CliError(f"cannot load braid file {path}: {exc}") from exc
    if args.strands is None:
        raise CliError("--strands is required with --braid")
    return parse_braid_word(inline, args.strands)


def _parse_sweep(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise CliError(f"--sweep-k expects 'a..b', got {text!r}") from None
    if lo_i < 3 or hi_i < lo_i:
        raise CliError(f"--sweep-k range {text!r} must satisfy 3 <= a <= b")
    return lo_i, hi_i


def _emit_sweep(args: argparse.Namespace, document: dict, value_at: Callable[[int], complex]) -> int:
    """value_at(k) for every k in --sweep-k: CSV rows, or JSON rows under document["sweep"]."""
    lo, hi = _parse_sweep(args.sweep_k)
    values = {k: value_at(k) for k in range(lo, hi + 1)}
    if args.format == "csv":
        sys.stdout.write("k,re,im,abs\n")
        for k, value in values.items():
            sys.stdout.write(f"{k},{value.real!r},{value.imag!r},{abs(value)!r}\n")
        return 0
    document["sweep"] = [{"k": k, "value": [v.real, v.imag], "abs": abs(v)} for k, v in values.items()]
    _emit(document)
    return 0


def _add_braid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--braid", help="inline braid word, e.g. '1 -2 1 -2'")
    parser.add_argument("--braid-file", help="JSON file {\"strands\": n, \"word\": [+-i, ...]}")
    parser.add_argument("--strands", type=int, help="strand count for --braid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tljones",
        description="Jones polynomial evaluation via the Temperley-Lieb path model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_paths = sub.add_parser("paths", help="walk-basis dimensions per endpoint sector")
    p_paths.add_argument("--n", type=int, required=True)
    p_paths.add_argument("--k", type=int, required=True)

    p_exact = sub.add_parser("exact", help="exact symbolic Jones polynomial")
    _add_braid_arguments(p_exact)
    p_exact.add_argument("--sweep-k", help="evaluate the polynomial at every k in a..b")
    p_exact.add_argument("--format", choices=("json", "csv"), default="json")

    p_eval = sub.add_parser("evaluate", help="exact numeric value at t = e^(2 pi i/k)")
    _add_braid_arguments(p_eval)
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--sweep-k", help="evaluate at every k in a..b")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")

    p_sample = sub.add_parser("sample", help="simulated Hadamard-test estimation")
    _add_braid_arguments(p_sample)
    p_sample.add_argument("--k", type=int, required=True)
    p_sample.add_argument("--epsilon", type=float, default=0.1)
    p_sample.add_argument("--delta", type=float, default=0.05)
    p_sample.add_argument("--iterations", type=int)
    p_sample.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--n", type=int, default=6, help="max strand count")
    p_verify.add_argument("--k", type=int, default=8, help="max k")
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--tol", action="append", default=[],
        metavar="NAME=VALUE", help="override one tolerance field",
    )
    return parser


def _run_paths(args: argparse.Namespace) -> int:
    dims = count_walks(args.n, args.k)
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "dims": {str(m): dim for m, dim in sorted(dims.items())},
            "total": sum(dims.values()),
        }
    )
    return 0


def _run_exact(args: argparse.Namespace) -> int:
    word = _load_braid(args)
    poly_a = jones_polynomial(word)
    document = word.to_json_dict() | {"writhe": writhe(word), "polynomial_a": poly_a.to_json_dict("A")}
    try:
        document["polynomial_t"] = convert_to_t(poly_a).to_json_dict("t")
    except ValueError as exc:
        document["polynomial_t"] = None
        document["t_unavailable_reason"] = str(exc)
    if args.sweep_k:
        return _emit_sweep(args, document, lambda k: poly_a.evaluate(choose_a(k)))
    _emit(document)
    return 0


def _run_evaluate(args: argparse.Namespace) -> int:
    word = _load_braid(args)
    if (args.k is not None) == bool(args.sweep_k):
        raise CliError("provide exactly one of --k or --sweep-k")
    if args.k is not None and args.k < 3:
        raise CliError(f"--k must be >= 3, got {args.k}")
    if args.sweep_k:
        return _emit_sweep(args, word.to_json_dict(), lambda k: jones_value_exact(word, k).value)
    result = jones_value_exact(word, args.k)
    _emit(result.to_json_dict())
    return 0


def _run_sample(args: argparse.Namespace) -> int:
    word = _load_braid(args)
    config = SamplerConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        iterations=args.iterations,
        seed=args.seed,
    )
    _emit(sample_jones_value(word, args.k, config).to_json_dict())
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    for flag, value, least in (("--n", args.n, 2), ("--k", args.k, 3), ("--samples", args.samples, 1)):
        if value < least:
            raise CliError(f"{flag} must be >= {least}, got {value}")
    fields = [field.name for field in dataclasses.fields(checks.Tolerances)]
    overrides = {}
    for item in args.tol:
        if "=" not in item:
            raise CliError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        if name not in fields:
            raise CliError(f"unknown tolerance {name!r}; choose from {fields}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise CliError(f"--tol {item!r}: value is not a number") from None
    tol = checks.Tolerances(**overrides)  # a non-finite or negative value is a ValueError: exit 2 in main
    reports = checks.run_verification(
        n_max=args.n, k_max=args.k, samples=args.samples, seed=args.seed, tol=tol
    )
    all_passed = all(report.passed for report in reports)
    _emit(
        {
            "all_passed": all_passed,
            "tolerances": dataclasses.asdict(tol),
            "suites": [report.to_json_dict() for report in reports],
        }
    )
    return 0 if all_passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "paths": _run_paths,
        "exact": _run_exact,
        "evaluate": _run_evaluate,
        "sample": _run_sample,
        "verify": _run_verify,
    }
    try:
        if getattr(args, "format", None) == "csv" and not args.sweep_k:  # refused before any braid is read or evaluated
            raise CliError("--format csv is only available with --sweep-k")
        return handlers[args.command](args)
    except ValueError as exc:  # CliError and every library input error subclass it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, kept apart from bad input (2) and a failed verification (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
