"""Command-line front end: generate root-system data, compute exponents,
and run the verification ledger.

Exit codes: 0 all good, 1 verification failure or method disagreement,
2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from bisect import bisect_right
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring_ascii as _string
from operator import mul
from typing import NamedTuple

from .cartan import (
    MAX_RANK,
    CartanMatrix,
    RankedType,
    all_types,
    build_cartan,
    validate_cartan,
)
from .errors import (
    InternalInconsistencyError,
    InvalidArgumentError,
    InvalidCartanError,
    InvalidTypeError,
)
from .exponents import coxeter_exponents, dual_partition
from .roots import RootSystem, enumerate_roots
from .verify import (
    VerificationLedger,
    build_ledger,
    check_exponents_agree,
    g2_criterion_report,
)

SKIP_RANK_ONE = "m2 undefined (rank >= 2 required)"


class _CliError(Exception):
    pass


def _add_selector(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", help="named type, e.g. A5, G2")
    p.add_argument("--cartan", help="path to a JSON 2-D integer Cartan matrix")
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
    _add_selector(gen)

    exps = sub.add_parser("exponents", help="compute Weyl exponents")
    _add_selector(exps)
    exps.add_argument(
        "--method", choices=("dual", "coxeter", "both"), default="both"
    )

    ver = sub.add_parser("verify", help="run all structural checks")
    _add_selector(ver)
    return parser


def _load_cartan_file(path: str) -> CartanMatrix:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, nesting too deep for the parser,
        # or an integer literal past int()'s digit limit
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
        bool(args.all),
    ]
    if sum(chosen) != 1:
        raise _CliError("choose exactly one of --type, --cartan, --all")
    if not 1 <= args.max_rank <= MAX_RANK:
        raise _CliError(f"--max-rank must be between 1 and {MAX_RANK}")
    if args.type:
        try:
            t = RankedType.parse(args.type)
        except InvalidTypeError as exc:
            raise _CliError(str(exc)) from exc
        return [(str(t), build_cartan(t))]
    if args.cartan:
        return [("custom", _load_cartan_file(args.cartan))]
    return [(str(t), build_cartan(t)) for t in all_types(args.max_rank)]


@contextlib.contextmanager
def _output(path: str | None):
    """The handle every command writes to: the --out file, opened before any
    root system is built, or stdout, flushed here so that a closed pipe
    raises inside main and not at interpreter exit."""
    if not path:
        out = sys.stdout
        yield out
        out.flush()
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}") from exc
    with fh:
        yield fh


class _GenPayload:
    """What gen writes for one system: its label, rank, Cartan matrix, one
    {"coeffs": [...], "height": h} per positive root, by height and within a
    height in ``key_layers`` order, the highest root and c_max.  An
    enumerated system's layers come sorted by coefficients; a hand-built
    system's come in the order its layers were given.  render writes the
    json.dumps(..., indent=2) text with no per-root Python: the roots whose
    heights have one number of digits are written as fixed-width byte
    records, one slice assignment fills one coefficient slot or one height
    digit in every record, and only the label goes through json.dumps."""

    __slots__ = ("rs",)

    # coefficient byte -> its digit; a byte past 9 -> NUL, which no digit is
    DIGITS = bytes(range(48, 58)) + bytes(246)

    def __init__(self, rs: RootSystem) -> None:
        self.rs = rs

    def render(self, nl: str) -> str:
        """The roots of heights lo to 10 * lo - 1 all render to records of
        one length: "," and a root's text, one byte for each of its n
        coefficients and d bytes for its height.  Each such group is one
        bytearray of that record repeated; one slice assignment fills slot
        k of every record from byte k of every root's key, and one more
        fills each height digit from a column joined per layer, so a group
        costs n + d slice passes and a few more whatever its root count.
        A coefficient gets one digit, which every finite type allows (c <=
        6, at E8); a coefficient past 9 raises InternalInconsistencyError,
        naming the lowest height that has one, instead of writing wrong
        text.  The head, the groups and the tail are joined as bytes once
        and decoded once; the first record's "," becomes the "[" that opens
        the roots."""
        rs = self.rs
        n = rs.rank
        key = nl + "  "  # the payload's own keys
        item = key + "  "  # a Cartan row, a root, a highest-root coefficient
        field = item + "  "  # a Cartan entry, a root's keys
        coeff = field + "  "  # a root's coefficient
        cartan_row = "[" + field + ("," + field).join(["%d"] * n) + item + "]"
        lead = "," + item + "{" + field + '"coeffs": [' + coeff
        step = len(coeff) + 2  # from one coefficient slot to the next
        record = lead + ("," + coeff).join("0" * n) + field + "]," + field + '"height": '

        def array(items) -> str:  # a list value of the payload
            return "[" + item + ("," + item).join(items) + key + "]"

        pieces = [(
            "{" + key + '"type": ' + json.dumps(rs.label)
            + "," + key + '"rank": %d' % n
            + "," + key + '"cartan": ' + array([cartan_row % row for row in rs.cartan.rows])
            + "," + key + '"roots": '
        ).encode()]
        layers, sizes = rs.key_layers, rs.layer_sizes
        lo = 1
        while lo < len(layers):
            hi = min(10 * lo, len(layers))
            raw = b"".join(map(
                int.to_bytes, chain.from_iterable(layers[lo:hi]), repeat(n), repeat("big")
            ))
            if raw:
                digits = raw.translate(self.DIGITS)
                if not digits.isdigit():
                    past = bisect_right(list(accumulate(sizes[lo:hi])), digits.index(0) // n)
                    raise InternalInconsistencyError(
                        f"a root of height {lo + past} has a coefficient past 9, which gen "
                        "writes as one digit"
                    )
                heights = [b"%d" % h for h in range(lo, hi)]
                d = len(heights[0])
                size = len(record) + d + len(item) + 1
                buf = bytearray((record + "0" * d + item + "}").encode()) * (len(raw) // n)
                for k in range(n):
                    buf[len(lead) + k * step :: size] = digits[k::n]
                for p in range(d):
                    column = b"".join(map(mul, [h[p : p + 1] for h in heights], sizes[lo:hi]))
                    buf[len(record) + p :: size] = column
                if len(pieces) == 1:
                    buf[0] = 0x5B  # "[": the first root opens the array
                pieces.append(buf)
            lo = hi
        pieces.append((
            key + "]"
            + "," + key + '"highest_root": ' + array(map(str, rs.highest_root().coeffs))
            + "," + key + '"c_max": %d' % rs.c_max()
            + nl + "}"
        ).encode())
        return b"".join(pieces).decode()


class _ExponentsPayload:
    """What exponents writes for one type: the entry _exponent_entry made,
    {"type": ..., then "dual" and "coxeter", each {"exponents": [...], "h":
    h, "method": ...}, as --method asks, then "agree" for both}.  render
    writes its json.dumps(..., indent=2) text from a fixed template: the
    strings go through encode_basestring_ascii, the C function json.dumps
    uses, and the ints and the boolean are written as literals.  An
    ExponentReport holds at least one exponent, so no list is empty."""

    __slots__ = ("entry",)

    def __init__(self, entry: dict) -> None:
        self.entry = entry

    def render(self, nl: str) -> str:
        entry = self.entry
        key = nl + "  "  # the entry's own keys
        field = key + "  "  # a report's keys
        item = field + "  "  # an exponent
        pieces = ["{" + key + '"type": ' + _string(entry["type"])]
        for method in ("dual", "coxeter"):
            if method in entry:
                rep = entry[method]
                pieces += (
                    "," + key + '"' + method + '": {' + field + '"exponents": [' + item,
                    ("," + item).join(map(str, rep["exponents"])),
                    field + "]," + field + '"h": %d' % rep["h"]
                    + "," + field + '"method": ' + _string(rep["method"]) + key + "}",
                )
        if "agree" in entry:
            pieces.append("," + key + '"agree": ' + ("true" if entry["agree"] else "false"))
        pieces.append(nl + "}")
        return "".join(pieces)


class _VerifyPayload(NamedTuple):
    """What verify writes: {"ledgers": [...]} and then the keys of rest,
    the skipped types, the G2 criterion and the summary."""

    ledgers: list[VerificationLedger]
    rest: dict


def _ledger_text(ledger: VerificationLedger, nl: str) -> str:
    """The text of json.dumps(ledger.to_json_dict(), indent=2), nested as
    _render nests it, from a fixed template: strings go through
    encode_basestring_ascii, the C function json.dumps uses, ints and None
    are written as literals, an empty counterexample list as [], and only
    a nonempty one goes through json.dumps.  A check leaves its note out
    when it is empty, as CheckResult.to_json_dict does."""
    key = nl + "  "  # the ledger's own keys
    name = key + "  "  # a check's name
    item = name + "  "  # a check's keys
    checks = [
        name + _string(check) + ": {" + item + '"pass": ' + ("true" if c.passed else "false")
        + "," + item + '"counterexamples": '
        + (_render(c.counterexamples, item) if c.counterexamples else "[]")
        + ("," + item + '"note": ' + _string(c.note) if c.note else "")
        + name + "}"
        for check, c in ledger.checks.items()
    ]
    return (
        "{" + key + '"type": ' + _string(ledger.label)
        + "," + key + '"c_max": %d' % ledger.c_max
        + "," + key + '"m2": ' + _int_or_null(ledger.m2)
        + "," + key + '"case": ' + _int_or_null(ledger.case)
        + "," + key + '"witness_t": ' + _int_or_null(ledger.witness_t)
        + "," + key + '"checks": ' + ("{" + ",".join(checks) + key + "}" if checks else "{}")
        + nl + "}"
    )


def _int_or_null(value: int | None) -> str:
    return "null" if value is None else "%d" % value


def _render(obj, nl: str = "\n") -> str:
    """The text json.dumps(obj, indent=2) gives for obj, for obj nested where
    nl (a line break and the indentation of obj's own level) precedes its
    closing bracket: every line break of the top-level text gains the
    indentation, and none is lost, since JSON strings hold no raw line
    break.  A _GenPayload or an _ExponentsPayload renders itself."""
    if type(obj) in (_GenPayload, _ExponentsPayload):
        return obj.render(nl)
    return json.dumps(obj, indent=2).replace("\n", nl)


def _emit(out, payload, k: int, n: int) -> None:
    """Write payload k of n.  The n calls in order write what
    json.dumps(payloads if n > 1 else payloads[0], indent=2) gives, plus a
    newline, without holding more than one payload's text.  A lone
    _VerifyPayload is written one ledger's text at a time, and then its
    rest: the json.dumps text of rest less its opening brace closes the
    object.  One of n > 1 payloads is three writes, the
    array's opening or the separator, the payload's text and the array's
    closing or nothing, so its text, up to megabytes for gen, is never
    copied into a concatenation."""
    if n == 1:
        if type(payload) is _VerifyPayload:
            out.write('{\n  "ledgers": [')
            for j, ledger in enumerate(payload.ledgers):
                out.write(",\n    " if j else "\n    ")
                out.write(_ledger_text(ledger, "\n    "))
            out.write("\n  ]," if payload.ledgers else "],")
            out.write(json.dumps(payload.rest, indent=2)[1:])
        else:
            out.write(_render(payload, "\n"))
        out.write("\n")
        return
    out.write("[\n  " if k == 0 else ",\n  ")
    out.write(_render(payload, "\n  "))
    out.write("\n]\n" if k == n - 1 else "")


def _system(label: str, cartan: CartanMatrix) -> RootSystem:
    return enumerate_roots(cartan, None if label == "custom" else label)


def cmd_gen(args, targets, out) -> int:
    if args.format == "table":
        out.write("type      rank  roots  c_max  highest_root\n")
    for k, (label, cartan) in enumerate(targets):
        rs = _system(label, cartan)
        if args.format == "table":
            out.write(
                f"{rs.label or 'custom':<8}  {rs.rank:>4}  {rs.num_positive:>5}"
                f"  {rs.c_max():>5}  {list(rs.highest_root().coeffs)}\n"
            )
        else:
            _emit(out, _GenPayload(rs), k, len(targets))
    return 0


def _exponent_entry(label: str, cartan: CartanMatrix, method: str) -> dict:
    entry: dict = {"type": label}
    if method in ("dual", "both"):
        dual = dual_partition(_system(label, cartan))
        entry["dual"] = dual.to_json_dict()
    if method in ("coxeter", "both"):
        coxeter = coxeter_exponents(cartan)
        entry["coxeter"] = coxeter.to_json_dict()
    if method == "both":
        entry["agree"] = check_exponents_agree(dual, coxeter).passed
    return entry


def cmd_exponents(args, targets, out) -> int:
    disagree = False
    if args.format == "table":
        out.write("type      method                h  exponents\n")
    for k, (label, cartan) in enumerate(targets):
        e = _exponent_entry(label, cartan, args.method)
        disagree |= args.method == "both" and not e["agree"]
        if args.format == "json":
            _emit(out, _ExponentsPayload(e), k, len(targets))
        else:
            for method in ("dual", "coxeter"):
                if method in e:
                    rep = e[method]
                    out.write(
                        f"{e['type']:<8}  {rep['method']:<19}  {rep['h']:>2}"
                        f"  {rep['exponents']}\n"
                    )
    return 1 if disagree else 0


def cmd_verify(args, targets, out) -> int:
    ledgers = []
    skipped = []
    for label, cartan in targets:
        if cartan.rank < 2:
            skipped.append({"type": label, "skipped": SKIP_RANK_ONE})
            continue
        ledgers.append(build_ledger(_system(label, cartan)))

    rest: dict = {"skipped": skipped}
    all_pass = all(l.passed for l in ledgers)
    if args.all:
        rest["g2_criterion"] = report = g2_criterion_report(ledgers)
        all_pass = all_pass and report["pass"]
    n_case1 = sum(1 for l in ledgers if l.case == 1)
    summary = (
        f"{len(ledgers)} types verified, "
        f"{sum(1 for l in ledgers if l.passed)} passed, "
        f"{n_case1} case-1, {len(skipped)} skipped"
    )
    rest["summary"] = summary

    if args.format == "table":
        lines = ["type      c_max  m2  case  verdict"]
        for l in ledgers:
            verdict = "pass" if l.passed else "FAIL"
            # m2 and case are None when a structure builder raised
            m2, case = ("-" if v is None else v for v in (l.m2, l.case))
            lines.append(
                f"{l.label:<8}  {l.c_max:>5}  {m2:>2}  {case:>4}  {verdict}"
            )
        for s in skipped:
            lines.append(f"{s['type']:<8}  skipped: {s['skipped']}")
        lines.append(summary)
        out.write("\n".join(lines) + "\n")
    else:
        _emit(out, _VerifyPayload(ledgers, rest), 0, 1)
    return 0 if all_pass else 1


COMMANDS = {"gen": cmd_gen, "exponents": cmd_exponents, "verify": cmd_verify}


def _detach_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so the interpreter's
    final flush of whatever a closed pipe refused writes nowhere instead of
    printing "Exception ignored"."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        targets = _targets(args)
        with _output(args.out) as out:
            return COMMANDS[args.command](args, targets, out)
    except BrokenPipeError:
        _detach_stdout()
        with contextlib.suppress(BrokenPipeError):  # stderr may be the same pipe
            print("error: output closed before everything was written", file=sys.stderr)
        return 2
    except OSError as exc:  # writing or closing the output, such as a full disk
        if not args.out:
            _detach_stdout()
        where = args.out or "stdout"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (_CliError, InvalidTypeError, InvalidArgumentError, InvalidCartanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
