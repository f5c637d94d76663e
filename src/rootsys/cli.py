"""Command-line front end: generate root-system data, compute exponents,
and run the verification ledger.

Exit codes: 0 all good, 1 verification failure or method disagreement,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cartan import (
    MAX_RANK,
    CartanMatrix,
    RankedType,
    all_types,
    build_cartan,
    validate_cartan,
)
from .errors import InvalidArgumentError, InvalidCartanError, InvalidTypeError
from .exponents import (
    COXETER_EIGENVALUES,
    DUAL_PARTITION,
    coxeter_exponents,
    dual_partition,
    height_distribution,
)
from .roots import RootSystem, enumerate_roots
from .verify import build_ledger, g2_criterion_report

SKIP_RANK_ONE = "m2 undefined (rank >= 2 required)"


class _CliError(Exception):
    pass


def _add_selector(p: argparse.ArgumentParser, with_all: bool) -> None:
    p.add_argument("--type", help="named type, e.g. A5, G2")
    p.add_argument("--cartan", help="path to a JSON 2-D integer Cartan matrix")
    if with_all:
        p.add_argument("--all", action="store_true", help="every type up to --max-rank")
        p.add_argument("--max-rank", type=int, default=12)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootsys", description="exact root-system computations"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="enumerate positive roots")
    _add_selector(gen, with_all=True)

    exps = sub.add_parser("exponents", help="compute Weyl exponents")
    _add_selector(exps, with_all=True)
    exps.add_argument(
        "--method", choices=("dual", "coxeter", "both"), default="both"
    )

    ver = sub.add_parser("verify", help="run all structural checks")
    _add_selector(ver, with_all=True)
    return parser


def _load_cartan_file(path: str) -> CartanMatrix:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise _CliError(f"{path} must hold a 2-D integer array")
    try:
        return validate_cartan(raw)
    except InvalidCartanError as exc:
        pretty = ", ".join(v.replace("-", " ") for v in exc.violations)
        raise _CliError(f"invalid Cartan matrix: {pretty}") from exc
    except InvalidArgumentError as exc:
        raise _CliError(str(exc)) from exc


def _targets(args) -> list[tuple[str, CartanMatrix]]:
    chosen = [
        bool(args.type),
        bool(args.cartan),
        bool(getattr(args, "all", False)),
    ]
    if sum(chosen) != 1:
        raise _CliError("choose exactly one of --type, --cartan, --all")
    if args.type:
        try:
            t = RankedType.parse(args.type)
        except InvalidTypeError as exc:
            raise _CliError(str(exc)) from exc
        return [(str(t), build_cartan(t))]
    if args.cartan:
        return [("custom", _load_cartan_file(args.cartan))]
    if not 1 <= args.max_rank <= MAX_RANK:
        raise _CliError(f"--max-rank must be between 1 and {MAX_RANK}")
    return [(str(t), build_cartan(t)) for t in all_types(args.max_rank)]


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _dump(payload) -> str:
    return json.dumps(payload, indent=2)


def _system(label: str, cartan: CartanMatrix) -> RootSystem:
    return enumerate_roots(cartan, None if label == "custom" else label)


def cmd_gen(args) -> int:
    targets = _targets(args)
    payloads = [_system(label, c).to_json_dict() for label, c in targets]
    if args.format == "table":
        lines = ["type      rank  roots  c_max  highest_root"]
        for p in payloads:
            lines.append(
                f"{str(p['type'] or 'custom'):<8}  {p['rank']:>4}  {len(p['roots']):>5}"
                f"  {p['c_max']:>5}  {p['highest_root']}"
            )
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _dump(payloads if len(payloads) > 1 else payloads[0]))
    return 0


def _exponent_entry(label: str, cartan: CartanMatrix, method: str) -> dict:
    entry: dict = {"type": label}
    if method in ("dual", "both"):
        rs = _system(label, cartan)
        entry["dual"] = dual_partition(height_distribution(rs)).to_json_dict()
    if method in ("coxeter", "both"):
        entry["coxeter"] = coxeter_exponents(cartan).to_json_dict()
    if method == "both":
        entry["agree"] = _reports_agree(entry["dual"], entry["coxeter"])
    return entry


def _reports_agree(a: dict, b: dict) -> bool:
    return a["exponents"] == b["exponents"] and a["h"] == b["h"]


def cmd_exponents(args) -> int:
    entries = [
        _exponent_entry(label, c, args.method) for label, c in _targets(args)
    ]
    disagree = [e for e in entries if args.method == "both" and not e["agree"]]
    if args.format == "table":
        lines = ["type      method                h  exponents"]
        for e in entries:
            for key in (DUAL_PARTITION, COXETER_EIGENVALUES):
                short = key.split("-")[0]
                if short in e:
                    rep = e[short]
                    lines.append(
                        f"{e['type']:<8}  {rep['method']:<19}  {rep['h']:>2}"
                        f"  {rep['exponents']}"
                    )
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _dump(entries if len(entries) > 1 else entries[0]))
    return 1 if disagree else 0


def cmd_verify(args) -> int:
    targets = _targets(args)
    ledgers = []
    skipped = []
    for label, cartan in targets:
        if cartan.rank < 2:
            skipped.append({"type": label, "skipped": SKIP_RANK_ONE})
            continue
        ledgers.append(build_ledger(_system(label, cartan)))

    payload: dict = {
        "ledgers": [l.to_json_dict() for l in ledgers],
        "skipped": skipped,
    }
    if getattr(args, "all", False):
        payload["g2_criterion"] = g2_criterion_report(ledgers)

    all_pass = all(l.passed for l in ledgers) and (
        payload.get("g2_criterion", {"pass": True})["pass"]
    )
    n_case1 = sum(1 for l in ledgers if l.case == 1)
    summary = (
        f"{len(ledgers)} types verified, "
        f"{sum(1 for l in ledgers if l.passed)} passed, "
        f"{n_case1} case-1, {len(skipped)} skipped"
    )
    payload["summary"] = summary

    if args.format == "table":
        lines = ["type      c_max  m2  case  verdict"]
        for l in ledgers:
            verdict = "pass" if l.passed else "FAIL"
            lines.append(
                f"{l.label:<8}  {l.c_max:>5}  {l.m2:>2}  {l.case:>4}  {verdict}"
            )
        for s in skipped:
            lines.append(f"{s['type']:<8}  skipped: {s['skipped']}")
        lines.append(summary)
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _dump(payload))
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "exponents":
            return cmd_exponents(args)
        return cmd_verify(args)
    except (_CliError, InvalidTypeError, InvalidArgumentError, InvalidCartanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
