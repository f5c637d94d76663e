"""Streamed JSON output: the payload texts against json.dumps, byte-identical
command output, --out validation, a closed stdout and a full disk."""

import collections
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootsys as R
import rootsys.cli as cli
from rootsys.cli import _emit, main

from oracles import (
    exponents_payload,
    finite_type_classes,
    gen_payload,
    ledger_payload,
    tall_a12,
    verify_payload,
)

# sha256 of stdout, pinned when the JSON was still written by one
# json.dumps(..., indent=2) call; a deliberate output change updates a
# digest here and says so in CHANGES.md.
GOLDEN = {
    ("gen", "--all", "--max-rank", "24"):
        "e423cb5807dbfe5d84db062e7ab2a09ca390665ee0ad09cb3f8133319b101250",
    ("exponents", "--all", "--max-rank", "24", "--method", "both"):
        "073477731f5076f42d75fb4b785a859d588dcd48c77f182c33ca6e5866a3d5f0",
    ("verify", "--all", "--max-rank", "12"):
        "4e33b5e7c60add2da0fa26e49c1d001284980dbee32b004b196126b100805001",
    ("verify", "--all", "--max-rank", "20"):
        "433f6ef220736b2a367416a6d959cd912c6500eb5100bc7dd2a2539a8db80108",
    ("verify", "--all", "--max-rank", "32"):
        "c8687914c0a2ca403b79008196e2a4bafeb3634a7e10381818adb080f1c317bf",
    ("gen", "--all", "--max-rank", "32"):
        "3d35e55a99e230d98b60e25c86f2b43a8a940b7900d36a8ccf7a3a0e38f5b818",
    ("exponents", "--all", "--max-rank", "32", "--method", "both"):
        "df895d834431fe1adf24e781e3d96d5bfc51b7e7503e8e29084b69698e3da837",
    ("exponents", "--all", "--max-rank", "24", "--method", "dual"):
        "1fea5fbbf783247abfbcdfd049cdca7699168bfe08bfdba21cbdfbb2d6c82c87",
    ("exponents", "--all", "--max-rank", "24", "--method", "coxeter"):
        "516cabe8de3ece66dcb8cae560c05b5c6ef9db89dd4ba4002cceef1b27815b61",
    ("exponents", "--type", "E8", "--method", "both"):
        "2acd927d5ec44a2f509011c119814e00aafbba7d3e651ef38b550a738c98ae87",
}

awkward_text = st.text(
    alphabet=st.sampled_from('"\\/\n\t\r\b\f\x00\x1f\x7fé €\U0001f600\ud800a ')
    | st.characters(),
    max_size=12,
)
ints = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
leaves = (
    st.none()
    | st.booleans()
    | ints
    | st.floats()
    | awkward_text
    | st.lists(ints, max_size=6)
    | st.lists(ints | st.booleans(), max_size=6)
)
keys = awkward_text | ints | st.booleans() | st.none() | st.floats()
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(keys, children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(json_values, min_size=1, max_size=4))
def test_emit_streams_json_dumps(payloads):
    # the framing alone: each payload's text, its line breaks indented to
    # the level _emit asks for, in as many pieces as it has lines
    out = io.StringIO()
    for k, p in enumerate(payloads):
        text = json.dumps(p, indent=2)
        _emit(out, lambda nl: text.replace("\n", nl).splitlines(True), k, len(payloads))
    whole = payloads if len(payloads) > 1 else payloads[0]
    assert out.getvalue() == json.dumps(whole, indent=2) + "\n"


def _run(capsys, tmp_path, to_file, *argv):
    if to_file:
        path = tmp_path / "out.json"
        code = main([*argv, "--out", str(path)])
        assert capsys.readouterr().out == ""
        return code, path.read_text(encoding="utf-8")
    code = main(list(argv))
    return code, capsys.readouterr().out


def _expected(payloads) -> str:
    return json.dumps(payloads if len(payloads) > 1 else payloads[0], indent=2) + "\n"


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("max_rank", [None, 4])
def test_gen_output_is_json_dumps(capsys, tmp_path, to_file, max_rank):
    if max_rank is None:
        argv, labels = ("gen", "--type", "G2"), ["G2"]
    else:
        argv = ("gen", "--all", "--max-rank", str(max_rank))
        labels = [str(t) for t in R.all_types(max_rank)]
    code, text = _run(capsys, tmp_path, to_file, *argv)
    assert code == 0
    assert text == _expected([gen_payload(R.build_system(l)) for l in labels])


@pytest.mark.parametrize("source", ["A1", "cartan"])
def test_gen_single_payload_is_json_dumps(capsys, tmp_path, source):
    # besides --type G2 above: one payload with the fewest %d fields (A1),
    # and one with a null type (--cartan)
    if source == "cartan":
        path = tmp_path / "f4.json"
        path.write_text(json.dumps([list(r) for r in R.build_cartan("F4").rows]))
        argv, rs = ("--cartan", str(path)), R.enumerate_roots(R.build_cartan("F4"))
    else:
        argv, rs = ("--type", source), R.build_system(source)
    assert main(["gen", *argv]) == 0
    assert capsys.readouterr().out == json.dumps(gen_payload(rs), indent=2) + "\n"


def test_gen_template_on_relabelled_classes():
    # every finite type to rank 20 from the leaf search, under a seeded
    # relabelling, enumerated through validate_cartan: each payload alone
    # and all of them as one array render as json.dumps renders the oracle
    rng = random.Random(17)
    systems = []
    for c in finite_type_classes(20):
        perm = rng.sample(range(c.rank), c.rank)
        systems.append(
            R.enumerate_roots(R.validate_cartan([[c.rows[a][b] for b in perm] for a in perm]))
        )
    for rs in systems:
        out = io.StringIO()
        _emit(out, lambda nl: [cli._gen_text(rs, nl)], 0, 1)
        assert out.getvalue() == json.dumps(gen_payload(rs), indent=2) + "\n", rs.cartan.rows
    out = io.StringIO()
    for k, rs in enumerate(systems):
        _emit(out, lambda nl: [cli._gen_text(rs, nl)], k, len(systems))
    assert out.getvalue() == _expected([gen_payload(rs) for rs in systems])


def test_gen_builds_no_per_root_dicts(capsys, monkeypatch):
    # gen renders each payload from its row templates: no
    # RootSystem.to_json_dict, and nothing but the str or None label handed
    # to json.dumps, so no list or dict of a payload goes through it
    def refuse(*args, **kwargs):
        raise AssertionError("a gen payload was built with one dict per root")

    labels = [str(t) for t in R.all_types(8)]
    expected = _expected([gen_payload(R.build_system(l)) for l in labels])
    dumps = json.dumps
    dumped = []

    def guarded(obj, *args, **kwargs):
        if not (obj is None or isinstance(obj, str)):
            raise AssertionError(f"gen handed json.dumps a {type(obj).__name__}")
        dumped.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(R.RootSystem, "to_json_dict", refuse, raising=False)
    monkeypatch.setattr(json, "dumps", guarded)
    assert main(["gen", "--all", "--max-rank", "8"]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out == expected
    assert dumped == labels


@pytest.mark.parametrize("nl", ["\n", "\n  "])
def test_layer_passes_render_every_type_to_rank_32(system, nl):
    # the records against json.dumps of the oracle payload, its line
    # breaks indented as _emit indents them, on every type to rank 32:
    # A1, layers of one root below the top and heights of two digits among
    # them; to rank 8 also on hand-built copies, whose key layers are read
    # off their coefficient bytes
    labels = [str(t) for t in R.all_types(32)]
    single, tall = False, False
    for label in labels:
        rs = system(label)
        expected = json.dumps(gen_payload(rs), indent=2).replace("\n", nl)
        assert cli._gen_text(rs, nl) == expected, label
        if rs.rank <= 8:
            hand = R.RootSystem(rs.cartan, rs.form, rs.layers, rs.label)
            assert cli._gen_text(hand, nl) == expected, label
        single |= any(len(rs.layer(h)) == 1 for h in range(1, rs.max_height))
        tall |= rs.max_height >= 10
    assert "A1" in labels and single and tall


def test_roots_come_in_key_layer_order(system):
    # an enumerated system's layers are sorted, so its roots come by height
    # and then coefficients; a hand-built system's come in the order its
    # layers give, here A3 with each layer reversed, and are not sorted
    rs = system("A3")
    assert all(list(keys) == sorted(keys) for keys in rs.key_layers)
    assert cli._gen_text(rs, "\n") == json.dumps(gen_payload(rs), indent=2)
    layers = tuple(layer[::-1] for layer in rs.layers)
    hand = R.RootSystem(rs.cartan, rs.form, layers, rs.label)
    given = [{"coeffs": list(r.coeffs), "height": r.height} for layer in layers for r in layer]
    expected = json.dumps(dict(gen_payload(hand), roots=given), indent=2)
    assert expected != json.dumps(gen_payload(hand), indent=2)
    assert cli._gen_text(hand, "\n") == expected


@pytest.mark.parametrize("nl", ["\n", "\n  "])
def test_three_digit_heights_render_as_json_dumps(nl):
    # heights 1-9, 10-99 and 100-105 make three groups of records, one per
    # number of height digits
    rs = tall_a12()
    assert rs.max_height == 105 and rs.c_max() == 9
    expected = json.dumps(gen_payload(rs), indent=2).replace("\n", nl)
    assert cli._gen_text(rs, nl) == expected


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("max_rank", [None, 5])
def test_exponents_output_is_json_dumps(capsys, tmp_path, to_file, max_rank):
    if max_rank is None:
        argv, types = ("exponents", "--type", "E7"), [R.RankedType.parse("E7")]
    else:
        argv = ("exponents", "--all", "--max-rank", str(max_rank))
        types = R.all_types(max_rank)
    code, text = _run(capsys, tmp_path, to_file, *argv)
    assert code == 0
    entries = [
        cli._exponent_entry(str(t), R.build_cartan(t), "both", R.build_system(t))
        for t in types
    ]
    assert text == _expected([exponents_payload(e) for e in entries])


@pytest.mark.parametrize("to_file", [False, True])
def test_failing_verify_output_is_json_dumps(capsys, monkeypatch, tmp_path, to_file):
    from rootsys.verify import CheckResult, VerificationLedger

    odd = [{"root": [1, -2, 0], "why": 'quote " slash \\ tab \t é'}, {"none": None}]

    def fake_ledger(rs, **kwargs):
        return VerificationLedger(
            rs.label or "custom", 1, 2, 2, None,
            {"main_relation": CheckResult(False, odd, note="planted")},
        )

    monkeypatch.setattr(cli, "build_ledger", fake_ledger)
    code, text = _run(capsys, tmp_path, to_file, "verify", "--all", "--max-rank", "3")
    assert code == 1
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    checks = [l["checks"]["main_relation"] for l in payload["ledgers"]]
    assert checks and all(c["counterexamples"] == odd and not c["pass"] for c in checks)


@pytest.mark.parametrize("to_file", [False, True])
def test_failing_verify_table_without_m2(capsys, monkeypatch, tmp_path, to_file):
    # a ledger whose structure builders raised carries m2 = case = None:
    # the table prints "-" for them and still exits 1
    from rootsys.verify import CheckResult, VerificationLedger

    def fake_ledger(rs, **kwargs):
        return VerificationLedger(
            rs.label or "custom", 1, None, None, None,
            {"main_relation": CheckResult(False, [], note="planted")},
        )

    monkeypatch.setattr(cli, "build_ledger", fake_ledger)
    code, text = _run(
        capsys, tmp_path, to_file, "verify", "--all", "--max-rank", "3", "--format", "table"
    )
    assert code == 1
    assert "A3            1   -     -  FAIL" in text.splitlines()


def test_exponents_template_matches_json_dumps(capsys, monkeypatch):
    # the exponents template against json.dumps of the oracle payload, its
    # line breaks indented as _emit indents them, on every type to rank 32
    # under each --method and on an entry whose routes disagree under an odd
    # label; and each --method through main writes json.dumps text while
    # json.dumps and json.dump refuse to run; no ExponentReport.to_json_dict
    # runs throughout
    def refuse(*args, **kwargs):
        raise AssertionError("an exponents entry went through json")

    monkeypatch.setattr(R.ExponentReport, "to_json_dict", refuse, raising=False)
    methods = ("dual", "coxeter", "both")
    entries = {
        m: [
            cli._exponent_entry(str(t), R.build_cartan(t), m, R.build_system(t))
            for t in R.all_types(32)
        ]
        for m in methods
    }
    odd = 'quote " slash \\ tab \t nul \x00 é € \U0001f600 \ud800 /'
    disagree = {
        "type": odd,
        "dual": cli._exponent_entry(
            "G2", R.build_cartan("G2"), "dual", R.build_system("G2")
        )["dual"],
        "coxeter": cli._exponent_entry("A2", R.build_cartan("A2"), "coxeter", None)["coxeter"],
        "agree": False,
    }
    for entry in [disagree, *entries["dual"], *entries["coxeter"], *entries["both"]]:
        for nl in ("\n", "\n  "):
            expected = json.dumps(exponents_payload(entry), indent=2).replace("\n", nl)
            assert cli._exponents_text(entry, nl) == expected, entry["type"]

    small = {str(t) for t in R.all_types(8)}
    expected = {
        m: _expected([exponents_payload(e) for e in entries[m] if e["type"] in small])
        for m in methods
    }
    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json, "dump", refuse)
    for m in methods:
        assert main(["exponents", "--all", "--max-rank", "8", "--method", m]) == 0
        assert capsys.readouterr().out == expected[m], m


def test_ledger_template_matches_json_dumps(system, corrupted_ledgers):
    # the ledger template against json.dumps of the oracle payload, its line
    # breaks indented as _emit indents them, on every type to rank 32, on
    # the corrupted corpus, whose ledgers carry error, blocked and failing
    # notes and nonempty counterexamples, and on fake ledgers with m2 =
    # case = None, an empty note, no checks and odd strings
    from rootsys.verify import CheckResult, VerificationLedger

    ledgers = [R.build_ledger(system(str(t))) for t in R.all_types(32) if t.rank > 1]
    ledgers += [ledger for _, _, ledger in corrupted_ledgers]
    odd = 'quote " slash \\ tab \t nul \x00 é € \U0001f600 \ud800 /'
    ledgers += [
        VerificationLedger(
            odd, 3, None, None, None,
            {
                odd: CheckResult(False, [{odd: [odd, None, -1, 2.5, True]}, []], ""),
                "empty note": CheckResult(True, [], ""),
                "note": CheckResult(True, [], odd),
            },
        ),
        VerificationLedger("", 1, 2, 1, 2, {}),
    ]
    notes = collections.Counter()
    for ledger in ledgers:
        for nl in ("\n", "\n    "):
            expected = json.dumps(ledger_payload(ledger), indent=2).replace("\n", nl)
            assert cli._ledger_text(ledger, nl) == expected, ledger.label
        for c in ledger.checks.values():
            notes[c.note.partition(":")[0]] += 1
            notes["failing"] += not c.passed
            notes["counterexamples"] += bool(c.counterexamples)
    assert all(notes[k] for k in ("error", "blocked", "failing", "counterexamples")), notes


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("source", ["A1", "cartan", "G2"])
def test_verify_single_payload_is_json_dumps(capsys, tmp_path, to_file, source):
    # no ledgers at all (A1, skipped), a custom label (--cartan) and a
    # case-1 ledger (G2), each through the template
    if source == "cartan":
        path = tmp_path / "f4.json"
        path.write_text(json.dumps([list(r) for r in R.build_cartan("F4").rows]))
        argv = ("--cartan", str(path))
        payload = verify_payload([R.build_ledger(R.enumerate_roots(R.build_cartan("F4")))], [])
    elif source == "A1":
        argv = ("--type", "A1")
        payload = verify_payload([], [{"type": "A1", "skipped": cli.SKIP_RANK_ONE}])
    else:
        argv = ("--type", source)
        payload = verify_payload([R.build_ledger(R.build_system(source))], [])
    code, text = _run(capsys, tmp_path, to_file, "verify", *argv)
    assert code == 0
    assert text == json.dumps(payload, indent=2) + "\n"


def test_verify_builds_no_ledger_dicts(capsys, monkeypatch):
    # verify writes its ledgers from the template: no to_json_dict of a
    # ledger or a check, and json.dumps only for the rest of the payload,
    # the skipped types, the G2 criterion and the summary, as no ledger has
    # a counterexample
    labels = [str(t) for t in R.all_types(8)]
    ledgers = [R.build_ledger(R.build_system(l)) for l in labels if l != "A1"]
    payload = verify_payload(ledgers, [{"type": "A1", "skipped": cli.SKIP_RANK_ONE}], True)
    expected = json.dumps(payload, indent=2) + "\n"
    dumps = json.dumps
    dumped = []

    def refuse(*args, **kwargs):
        raise AssertionError("a verify ledger went through to_json_dict")

    def guarded(obj, *args, **kwargs):
        dumped.append(sorted(obj))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(R.VerificationLedger, "to_json_dict", refuse, raising=False)
    monkeypatch.setattr(R.CheckResult, "to_json_dict", refuse, raising=False)
    monkeypatch.setattr(json, "dumps", guarded)
    assert main(["verify", "--all", "--max-rank", "8"]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out == expected
    assert dumped == [["g2_criterion", "skipped", "summary"]]


class _Recorder(io.StringIO):
    """An output that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("command", ["gen", "exponents", "verify"])
def test_output_streams_one_payload_at_a_time(monkeypatch, command):
    # README's memory bound: each gen or exponents payload of a sweep, and
    # each ledger of verify's one payload, is written whole in one write
    # that holds no other, so the output holds one payload's text at a time
    types = R.all_types(8)
    if command == "gen":
        texts = [cli._gen_text(R.build_system(t), "\n  ") for t in types]
    elif command == "exponents":
        entries = [
        cli._exponent_entry(str(t), R.build_cartan(t), "both", R.build_system(t))
        for t in types
    ]
        texts = [cli._exponents_text(e, "\n  ") for e in entries]
    else:
        ledgers = [R.build_ledger(R.build_system(t)) for t in types if t.rank > 1]
        texts = [cli._ledger_text(ledger, "\n    ") for ledger in ledgers]
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([command, "--all", "--max-rank", "8"]) == 0
    assert len(set(texts)) == len(texts) > 30
    for text in texts:
        assert sum(text in w for w in out.writes) == 1
    for w in out.writes:
        assert sum(text in w for text in texts) <= 1


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_stdout_digest(capsys, argv):
    main(list(argv))
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("where", ["missing-dir/x.json", "."])
def test_bad_out_path_exits_two_before_building(capsys, monkeypatch, tmp_path, where):
    def refuse(*args, **kwargs):
        pytest.fail("a root system was built before --out was opened")

    monkeypatch.setattr(cli, "enumerate_roots", refuse)
    target = tmp_path / where
    code = main(["gen", "--all", "--max-rank", "24", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["gen", "--all", "--max-rank", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_closed_pipe_stdout_is_detached(capsys, monkeypatch):
    # after the error, stdout's descriptor points at os.devnull, so the flush
    # the interpreter makes at exit cannot raise BrokenPipeError again
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["gen", "--type", "G2"]) == 2
        pipe.write("left in the buffer")
        pipe.flush()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("shared_stderr", [False, True])
def test_closed_pipe_subprocess(shared_stderr):
    # the real case: a reader that stops early, as in `rootsys gen ... | head -1`,
    # or `... 2>&1 | head -1`, where the error line itself cannot be written
    env = dict(os.environ, PYTHONPATH=str(Path(R.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rootsys.cli", "gen", "--all", "--max-rank", "12"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if shared_stderr else subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    if not shared_stderr:
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert err.startswith("error: ") and err.count("\n") == 1
    assert proc.wait(timeout=60) == 2


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--type", "A3"],
        ["exponents", "--type", "G2", "--format", "table"],
        ["verify", "--all", "--max-rank", "3"],
    ],
)
def test_full_stdout_exits_two(capsys, monkeypatch, argv):
    # exit 1 means a check failed: a write the disk refuses is invalid
    # output, exit 2 with one line and no traceback
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_out", [True, False])
def test_dev_full_subprocess(to_out):
    # /dev/full refuses every write: through --out the close raises, through
    # stdout the write or the flush does, and the interpreter's final flush
    # of the detached stdout stays silent
    env = dict(os.environ, PYTHONPATH=str(Path(R.__file__).resolve().parents[1]))
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "rootsys", "gen", "--type", "A3"]
    with open("/dev/full", "w", encoding="utf-8") as full:
        done = subprocess.run(
            argv + ["--out", "/dev/full"] if to_out else argv,
            env=env,
            stdout=subprocess.DEVNULL if to_out else full,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    where = "/dev/full" if to_out else "stdout"
    assert done.returncode == 2
    assert done.stderr.decode() == f"error: cannot write {where}: {os.strerror(errno.ENOSPC)}\n"
