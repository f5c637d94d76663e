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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _string
from operator import mul

from .cartan import (
    MAX_RANK,
    CartanMatrix,
    RankedType,
    all_types,
    build_cartan,
    validate_cartan,
)
from .errors import (
    InvalidArgumentError,
    InvalidCartanError,
    InvalidTypeError,
)
from .exponents import coxeter_exponents, dual_partition
from .roots import RootSystem, _trailing, enumerate_roots
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


# The most bytes read from a --cartan file.  B32's matrix, the largest
# MAX_RANK allows, is 3.2 KB of compact JSON and 20 KB at indent=8, so the
# budget leaves room for any layout while a huge file costs at most this
# much memory before it is refused.
CARTAN_FILE_BYTES = 1 << 20


def _load_cartan_file(path: str) -> CartanMatrix:
    try:
        with open(path, "rb") as fh:
            data = fh.read(CARTAN_FILE_BYTES + 1)
        if len(data) > CARTAN_FILE_BYTES:
            raise _CliError(f"{path} is larger than {CARTAN_FILE_BYTES} bytes")
        raw = json.loads(data.decode("utf-8"))
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


# coefficient byte -> its digit; COEFFICIENT_CAP = 9 keeps every byte below 10
DIGITS = bytes(range(48, 58)) + bytes(246)
# Cartan entry -> its text, indexed by the entry: a finite-type matrix has
# entries -3 to 2 only
ENTRIES = ("0", "1", "2", "-3", "-2", "-1")


def _gen_text(rs: RootSystem, nl: str) -> str:
    """What gen writes for one system, the json.dumps(..., indent=2) text
    of its label, rank, Cartan matrix, one {"coeffs": [...], "height": h}
    per positive root, by height and within a height in ``key_layers``
    order, the highest root and c_max, with every line break replaced by
    nl.  An enumerated system's layers come sorted by coefficients; a
    hand-built system's come in the order its layers were given.

    No per-root Python runs: the roots of heights lo to 10 * lo - 1 all
    render to records of one length: "," and a root's text, one byte for
    each of its n coefficients and d bytes for its height.  Each such group
    is one bytearray of that record repeated; one slice assignment fills
    slot k of every record from byte k of every root's key, and one more
    fills each height digit from a column joined per layer, so a group
    costs n + d slice passes and a few more whatever its root count.  A
    coefficient gets one digit, since no RootSystem has one past
    COEFFICIENT_CAP = 9, the bound ``SignedRoots`` gives.  Only the
    label goes through json.dumps.  A Cartan row starts as rank "0"
    strings; its nonzero entries, read through ``nonzero``, take their
    text from ENTRIES, and the row is joined once.  The head, the groups
    and the tail are joined as bytes once and decoded once; the first
    record's "," becomes the "[" that opens the roots."""
    n = rs.rank
    key = nl + "  "  # the payload's own keys
    item = key + "  "  # a Cartan row, a root, a highest-root coefficient
    field = item + "  "  # a Cartan entry, a root's keys
    coeff = field + "  "  # a root's coefficient
    lead = "," + item + "{" + field + '"coeffs": [' + coeff
    step = len(coeff) + 2  # from one coefficient slot to the next
    record = lead + ("," + coeff).join("0" * n) + field + "]," + field + '"height": '

    def array(items) -> str:  # a list value of the payload
        return "[" + item + ("," + item).join(items) + key + "]"

    zeros = ["0"] * n
    cartan_rows = []
    for row, cols in zip(rs.cartan.rows, rs.cartan.nonzero):
        texts = zeros[:]
        for j in cols:
            texts[j] = ENTRIES[row[j]]
        cartan_rows.append("[" + field + ("," + field).join(texts) + item + "]")
    pieces = [(
        "{" + key + '"type": ' + json.dumps(rs.label)
        + "," + key + '"rank": %d' % n
        + "," + key + '"cartan": ' + array(cartan_rows)
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
            digits = raw.translate(DIGITS)
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
        + "," + key + '"highest_root": ' + array(map(str, rs.highest_root()))
        + "," + key + '"c_max": %d' % rs.c_max()
        + nl + "}"
    ).encode())
    return b"".join(pieces).decode()


def _exponents_text(entry: dict, nl: str) -> str:
    """What exponents writes for one type, the entry _exponent_entry made,
    {"type": ..., then "dual" and "coxeter", each {"exponents": [...], "h":
    h, "method": ...} read off that ExponentReport, as --method asks, then
    "agree" for both}: its json.dumps(..., indent=2) text, every line break
    replaced by nl, from a fixed template.  The strings go through
    encode_basestring_ascii, the C function json.dumps uses, and the ints
    and the boolean are written as literals.  An ExponentReport holds at
    least one exponent, so no list is empty."""
    key = nl + "  "  # the entry's own keys
    field = key + "  "  # a report's keys
    item = field + "  "  # an exponent
    pieces = ["{" + key + '"type": ' + _string(entry["type"])]
    for method in ("dual", "coxeter"):
        if method in entry:
            rep = entry[method]
            pieces += (
                "," + key + '"' + method + '": {' + field + '"exponents": [' + item,
                ("," + item).join(map(str, rep.exponents)),
                field + "]," + field + '"h": %d' % rep.coxeter_number
                + "," + field + '"method": ' + _string(rep.method) + key + "}",
            )
    if "agree" in entry:
        pieces.append("," + key + '"agree": ' + ("true" if entry["agree"] else "false"))
    pieces.append(nl + "}")
    return "".join(pieces)


def _ledger_text(ledger: VerificationLedger, nl: str) -> str:
    """What verify writes for one ledger, {"type": ..., "c_max", "m2",
    "case", "witness_t", then "checks", one {"pass": ..., "counterexamples":
    [...], "note": ...} per check in ledger order}: its
    json.dumps(..., indent=2) text, every line break replaced by nl, from a
    fixed template.  Strings go through encode_basestring_ascii, the C
    function json.dumps uses, ints and None are written as literals, an
    empty counterexample list as [], and only a nonempty one goes through
    json.dumps.  A check with an empty note leaves "note" out."""
    key = nl + "  "  # the ledger's own keys
    name = key + "  "  # a check's name
    item = name + "  "  # a check's keys
    checks = [
        name + _string(check) + ": {" + item + '"pass": ' + ("true" if c.passed else "false")
        + "," + item + '"counterexamples": '
        + (json.dumps(c.counterexamples, indent=2).replace("\n", item)
           if c.counterexamples else "[]")
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


def _emit(out, text, k: int, n: int) -> None:
    """Write payload k of n: the pieces text(nl) gives, nl being a line
    break and the indentation of the payload's own level.  When they join
    to json.dumps(payload, indent=2) with every line break replaced by nl,
    the n calls in order write what json.dumps(payloads if n > 1 else
    payloads[0], indent=2) gives, plus a newline.  text is called here, so
    no more than one payload's text is held, and a payload of many pieces,
    such as verify's ledgers, is written a piece at a time; each piece,
    up to megabytes for gen, is written as it is, never copied into a
    concatenation with the array's opening, separator or closing."""
    if n > 1:
        out.write("[\n  " if k == 0 else ",\n  ")
    for piece in text("\n  " if n > 1 else "\n"):
        out.write(piece)
    out.write("\n" if n == 1 else "\n]\n" if k == n - 1 else "")


def _system(label: str, cartan: CartanMatrix) -> RootSystem:
    return enumerate_roots(cartan, None if label == "custom" else label)


# The families whose rank-k Cartan matrix is the trailing k x k block of
# their rank-n one, k <= n, under build_cartan's Bourbaki labels; a
# --cartan target's label, "custom", starts with none of them.
NESTED = "ABCD"


def _systems(targets):
    """Yield the root system of each target in turn, each built when it is
    asked for, so nothing is built before --out is opened.  A family of
    NESTED is enumerated once, at its largest rank among the targets, when
    its first target is asked for, and that host is dropped when the next
    family starts or the generator ends: it lives for one command.  Each
    target of the family is the host or is read off the host's trailing
    block by ``roots._trailing``, since the simple roots of a block span
    the root system whose Cartan matrix is that block (Humphreys,
    *Reflection Groups and Coxeter Groups* 1.10).  Every other target is
    enumerated on its own."""
    top = {
        label[0]: (label, cartan)
        for label, cartan in sorted(targets, key=lambda t: t[1].rank)
        if label[0] in NESTED
    }
    host = None
    for label, cartan in targets:
        if label[0] not in top:
            yield _system(label, cartan)
            continue
        if host is None or host.label[0] != label[0]:
            host = _system(*top[label[0]])
        yield host if host.rank == cartan.rank else _trailing(host, cartan, label)


def cmd_gen(args, targets, out) -> int:
    if args.format == "table":
        out.write("type      rank  roots  c_max  highest_root\n")
    for k, rs in enumerate(_systems(targets)):
        if args.format == "table":
            out.write(
                f"{rs.label or 'custom':<8}  {rs.rank:>4}  {rs.num_positive:>5}"
                f"  {rs.c_max():>5}  {list(rs.highest_root())}\n"
            )
        else:
            _emit(out, lambda nl: [_gen_text(rs, nl)], k, len(targets))
    return 0


def _exponent_entry(
    label: str, cartan: CartanMatrix, method: str, rs: RootSystem | None
) -> dict:
    """One type's exponents entry: its label, the ExponentReport of each
    route --method asks for under "dual" and "coxeter", and "agree" for
    both.  rs is its root system, which only the dual partition reads, so
    --method coxeter passes None."""
    entry: dict = {"type": label}
    if method in ("dual", "both"):
        entry["dual"] = dual = dual_partition(rs)
    if method in ("coxeter", "both"):
        entry["coxeter"] = coxeter = coxeter_exponents(cartan)
    if method == "both":
        entry["agree"] = check_exponents_agree(dual, coxeter).passed
    return entry


def cmd_exponents(args, targets, out) -> int:
    disagree = False
    if args.format == "table":
        out.write("type      method                h  exponents\n")
    systems = repeat(None) if args.method == "coxeter" else _systems(targets)
    for k, ((label, cartan), rs) in enumerate(zip(targets, systems)):
        e = _exponent_entry(label, cartan, args.method, rs)
        disagree |= args.method == "both" and not e["agree"]
        if args.format == "json":
            _emit(out, lambda nl: [_exponents_text(e, nl)], k, len(targets))
        else:
            for method in ("dual", "coxeter"):
                if method in e:
                    rep = e[method]
                    out.write(
                        f"{e['type']:<8}  {rep.method:<19}  {rep.coxeter_number:>2}"
                        f"  {list(rep.exponents)}\n"
                    )
    return 1 if disagree else 0


def cmd_verify(args, targets, out) -> int:
    skipped = [{"type": label, "skipped": SKIP_RANK_ONE} for label, c in targets if c.rank < 2]
    ledgers = [build_ledger(rs) for rs in _systems([t for t in targets if t[1].rank >= 2])]

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
        def text(nl: str):  # the ledgers one at a time, then the keys of rest
            yield "{" + nl + '  "ledgers": ['
            for j, ledger in enumerate(ledgers):
                yield ("," if j else "") + nl + "    " + _ledger_text(ledger, nl + "    ")
            tail = json.dumps(rest, indent=2)[1:].replace("\n", nl)
            yield (nl + "  ]," if ledgers else "],") + tail

        _emit(out, text, 0, 1)
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
