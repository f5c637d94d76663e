"""Command-line behaviour: selectors, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootsys as R
from rootsys.cli import CARTAN_FILE_BYTES, main
from rootsys.exponents import COXETER_EIGENVALUES, DUAL_PARTITION
from rootsys.verify import check_exponents_agree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_g2(capsys):
    code, out, _ = run_cli(capsys, "gen", "--type", "G2")
    assert code == 0
    data = json.loads(out)
    assert len(data["roots"]) == 6
    assert data["highest_root"] == [3, 2]
    assert data["c_max"] == 3


def test_gen_a1(capsys):
    code, out, _ = run_cli(capsys, "gen", "--type", "A1")
    assert code == 0
    assert len(json.loads(out)["roots"]) == 1


def test_gen_deterministic(capsys):
    _, first, _ = run_cli(capsys, "gen", "--type", "F4")
    _, second, _ = run_cli(capsys, "gen", "--type", "F4")
    assert first == second


def test_gen_rejects_affine_matrix(capsys, tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps([[2, -2], [-2, 2]]))
    code, _, err = run_cli(capsys, "gen", "--cartan", str(path))
    assert code == 2
    assert "not positive definite" in err


def test_gen_custom_matrix(capsys, tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps([[2, -1], [-2, 2]]))
    code, out, _ = run_cli(capsys, "gen", "--cartan", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["type"] is None
    assert len(data["roots"]) == 4


def test_gen_rejects_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "gen", "--cartan", str(path))
    assert code == 2 and "JSON" in err


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe[[2]]",  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested past the parser's recursion limit
        b"[[2, 1" + b"0" * 5000 + b"], [-1, 2]]",  # past int()'s digit limit
    ],
    ids=["not-utf8", "too-deep", "too-many-digits"],
)
def test_cartan_file_undecodable(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "gen", "--cartan", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("past", [0, 1])
def test_cartan_file_read_budget(capsys, tmp_path, past):
    # A1's matrix padded to the budget loads; one byte more is refused,
    # after reading no more than that, with one line and no traceback
    path = tmp_path / "padded.json"
    path.write_bytes(b"[[2]]" + b" " * (CARTAN_FILE_BYTES - 5 + past))
    code, out, err = run_cli(capsys, "gen", "--cartan", str(path), "--format", "table")
    if past:
        assert code == 2 and out == ""
        assert err == f"error: {path} is larger than {CARTAN_FILE_BYTES} bytes\n"
    else:
        assert code == 0 and out.splitlines()[1].split()[:2] == ["custom", "1"]


def test_cartan_file_of_the_largest_rank_loads_indented(capsys, tmp_path):
    # B32 at indent=8, about 20 KB, well inside the read budget
    rows = [list(r) for r in R.build_cartan("B32").rows]
    path = tmp_path / "b32.json"
    path.write_text(json.dumps(rows, indent=8))
    assert path.stat().st_size > 16000
    code, out, _ = run_cli(capsys, "gen", "--cartan", str(path), "--format", "table")
    assert code == 0
    assert out.splitlines()[1].split()[:3] == ["custom", "32", str(32 * 32)]


def test_gen_requires_selector(capsys):
    code, _, err = run_cli(capsys, "gen")
    assert code == 2
    assert "choose exactly one" in err


def test_exponents_both_e7(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--type", "E7", "--method", "both")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["dual"]["exponents"] == [1, 5, 7, 9, 11, 13, 17]
    assert data["dual"]["h"] == 18
    assert data["coxeter"]["exponents"] == data["dual"]["exponents"]


def test_exponents_coxeter_a1(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--type", "A1", "--method", "coxeter")
    assert code == 0
    data = json.loads(out)
    assert data["coxeter"] == {
        "exponents": [1],
        "h": 2,
        "method": "coxeter-eigenvalues",
    }


def test_exponents_dual_g2(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--type", "G2", "--method", "dual")
    assert code == 0
    assert json.loads(out)["dual"]["exponents"] == [1, 5]


def test_reports_agree_helper():
    # an ExponentReport's top exponent is h - 1, so a second h needs a
    # second exponent list
    a = R.ExponentReport((1, 3), 4, DUAL_PARTITION)
    for exps, h, agree in (((1, 3), 4, True), ((1, 1, 3), 4, False), ((1, 5), 6, False)):
        b = R.ExponentReport(exps, h, COXETER_EIGENVALUES)
        assert check_exponents_agree(a, b).passed is agree


def test_verify_g2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "G2")
    assert code == 0
    data = json.loads(out)
    ledger = data["ledgers"][0]
    assert (ledger["case"], ledger["c_max"], ledger["m2"]) == (1, 3, 5)
    assert all(c["pass"] for c in ledger["checks"].values())


def test_verify_a1_skipped(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A1")
    assert code == 0
    data = json.loads(out)
    assert data["ledgers"] == []
    assert "m2 undefined" in data["skipped"][0]["skipped"]


def test_verify_all_rank_one_passes(capsys):
    # A1 is skipped, so no ledger is in case 1 and none has c_max = m2 - 2:
    # the G2 criterion holds on an empty sweep, and nothing failed
    code, out, _ = run_cli(capsys, "verify", "--all", "--max-rank", "1")
    assert code == 0
    data = json.loads(out)
    assert data["ledgers"] == [] and len(data["skipped"]) == 1
    assert data["g2_criterion"] == {"pass": True, "case1_types": [], "m2_minus_2_types": []}


def test_verify_all_rank_eight(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--max-rank", "8")
    assert code == 0
    data = json.loads(out)
    case1 = [l["type"] for l in data["ledgers"] if l["case"] == 1]
    assert case1 == ["G2"]
    assert all(
        c["pass"] for l in data["ledgers"] for c in l["checks"].values()
    )
    assert data["g2_criterion"]["pass"] is True
    assert "skipped" in data["summary"]


def test_verify_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--max-rank", "3", "--format", "table"
    )
    assert code == 0
    assert "c_max" in out.splitlines()[0]
    assert any("G2" in line and "pass" in line for line in out.splitlines())


def test_verify_custom_matrix(capsys, tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps([list(r) for r in R.build_cartan("C3").rows]))
    code, out, _ = run_cli(capsys, "verify", "--cartan", str(path))
    assert code == 0
    ledger = json.loads(out)["ledgers"][0]
    assert ledger["type"] == "custom"
    assert all(c["pass"] for c in ledger["checks"].values())


def test_invalid_type_exit_two(capsys):
    for bad in ("Q5", "D3", "E9"):
        code, _, err = run_cli(capsys, "gen", "--type", bad)
        assert code == 2, bad
        assert err


def test_bad_max_rank(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--all", "--max-rank", "0")
    assert code == 2 and "--max-rank" in err
    # the range is checked whichever selector --max-rank comes with
    g2 = tmp_path / "g2.json"
    g2.write_text("[[2, -1], [-3, 2]]", encoding="utf-8")
    for argv in (
        ("gen", "--type", "A3", "--max-rank", "999"),
        ("exponents", "--type", "G2", "--max-rank", "0"),
        ("verify", "--cartan", str(g2), "--max-rank", str(R.MAX_RANK + 1)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: --max-rank") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--type", "A100000"),
        ("verify", "--all", "--max-rank", "1000000"),
        ("exponents", "--all", "--max-rank", str(R.MAX_RANK + 1)),
    ],
)
def test_rank_ceiling_rejects_before_building(capsys, monkeypatch, argv):
    import rootsys.cli as cli

    def refuse(*args, **kwargs):
        pytest.fail("a system above MAX_RANK was built")

    monkeypatch.setattr(cli, "build_cartan", refuse)
    monkeypatch.setattr(cli, "enumerate_roots", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rank_ceiling_cartan_file(capsys, tmp_path):
    n = R.MAX_RANK + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[2 * (i == j) for j in range(n)] for i in range(n)]))
    code, out, err = run_cli(capsys, "gen", "--cartan", str(path))
    assert code == 2 and out == ""
    assert err == f"error: rank {n} exceeds MAX_RANK = {R.MAX_RANK}\n"


def test_import_does_not_load_numpy():
    # numpy would be most of the start-up time, and nothing in the package needs it
    src = str(Path(R.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, rootsys; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_import_does_not_load_fractions():
    # the Cartan gate and the symmetrizer run on integer pairs; fractions,
    # and the decimal module it imports, would add to every command's
    # start-up time, and a bare interpreter loads neither
    src = str(Path(R.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, rootsys.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli():
    # ``python -m rootsys`` must reach cli.run: a missing module would exit
    # 1, the code for a failed check
    src = str(Path(R.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "rootsys", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = python_m("verify", "--type", "G2")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ledgers"][0]["type"] == "G2"
    done = python_m("verify", "--type", "X9")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_out_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "gen", "--type", "A2", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["rank"] == 2


def test_gen_all_emits_array(capsys):
    code, out, _ = run_cli(capsys, "gen", "--all", "--max-rank", "2")
    assert code == 0
    data = json.loads(out)
    assert [d["type"] for d in data] == ["A1", "A2", "B2", "C2", "G2"]


# Table text pinned from the JSON-payload implementation of both commands.
GEN_TABLE_4 = """\
type      rank  roots  c_max  highest_root
A1           1      1      1  [1]
A2           2      3      1  [1, 1]
A3           3      6      1  [1, 1, 1]
A4           4     10      1  [1, 1, 1, 1]
B2           2      4      2  [1, 2]
B3           3      9      2  [1, 2, 2]
B4           4     16      2  [1, 2, 2, 2]
C2           2      4      2  [2, 1]
C3           3      9      2  [2, 2, 1]
C4           4     16      2  [2, 2, 2, 1]
D4           4     12      2  [1, 2, 1, 1]
F4           4     24      4  [2, 3, 4, 2]
G2           2      6      3  [3, 2]
"""
EXPONENTS_TABLE_4 = "type      method                h  exponents\n" + "".join(
    f"{label:<8}  {method:<19}  {h:>2}  {exps}\n"
    for label, h, exps in [
        ("A1", 2, [1]),
        ("A2", 3, [1, 2]),
        ("A3", 4, [1, 2, 3]),
        ("A4", 5, [1, 2, 3, 4]),
        ("B2", 4, [1, 3]),
        ("B3", 6, [1, 3, 5]),
        ("B4", 8, [1, 3, 5, 7]),
        ("C2", 4, [1, 3]),
        ("C3", 6, [1, 3, 5]),
        ("C4", 8, [1, 3, 5, 7]),
        ("D4", 6, [1, 3, 3, 5]),
        ("F4", 12, [1, 5, 7, 11]),
        ("G2", 6, [1, 5]),
    ]
    for method in ("dual-partition", "coxeter-eigenvalues")
)


@pytest.mark.parametrize(
    "command, expected", [("gen", GEN_TABLE_4), ("exponents", EXPONENTS_TABLE_4)]
)
def test_table_format_pinned(capsys, command, expected):
    code, out, err = run_cli(capsys, command, "--all", "--max-rank", "4", "--format", "table")
    assert (code, out, err) == (0, expected, "")


def test_gen_table_custom(capsys, tmp_path):
    path = tmp_path / "g2.json"
    path.write_text("[[2, -1], [-3, 2]]")
    code, out, _ = run_cli(capsys, "gen", "--cartan", str(path), "--format", "table")
    assert code == 0
    assert out.splitlines()[1] == "custom       2      6      3  [2, 3]"


@pytest.mark.parametrize("flag", ["--seed", "--exhaustive-limit"])
def test_verify_rejects_removed_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "B2", flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry", ["1e400", "NaN", '"x"', "2.0", "-1.0", "true", "null", "[-1]"]
)
def test_cartan_rejects_non_integer_entry(capsys, tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(f"[[2, {entry}], [-1, 2]]")
    code, out, err = run_cli(capsys, "verify", "--cartan", str(path))
    assert code == 2 and out == ""
    assert err == "error: expected integer entries\n"


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    # exit-code plumbing: a failing check must flip the exit code to 1
    import rootsys.cli as cli
    from rootsys.verify import CheckResult, VerificationLedger

    def fake_ledger(rs, **kwargs):
        return VerificationLedger(
            rs.label or "custom", 1, 2, 2, None,
            {"main_relation": CheckResult(False, [{"boom": 1}])},
        )

    monkeypatch.setattr(cli, "build_ledger", fake_ledger)
    code, out, _ = run_cli(capsys, "verify", "--type", "A2")
    assert code == 1
    assert not json.loads(out)["ledgers"][0]["checks"]["main_relation"]["pass"]


def test_exponents_exit_one_on_disagreement(capsys, monkeypatch):
    import rootsys.cli as cli

    real = cli._exponent_entry

    def fake_entry(label, cartan, method, rs):
        entry = real(label, cartan, method, rs)
        if "agree" in entry:
            entry["agree"] = False
        return entry

    monkeypatch.setattr(cli, "_exponent_entry", fake_entry)
    code, _, _ = run_cli(capsys, "exponents", "--type", "A2", "--method", "both")
    assert code == 1


def _count_builds(monkeypatch):
    """The labels enumerate_roots is called with through the CLI, in order."""
    import rootsys.cli as cli

    built = []
    enumerate_roots = cli.enumerate_roots

    def counting(cartan, label=None):
        built.append(label)
        return enumerate_roots(cartan, label)

    monkeypatch.setattr(cli, "enumerate_roots", counting)
    return built


HOSTS_24 = ["A24", "B24", "C24", "D24", "E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize(
    "argv", [("gen",), ("exponents", "--method", "both"), ("verify",)]
)
def test_all_enumerates_each_classical_family_once(capsys, monkeypatch, argv):
    # A-D are enumerated at rank 24 alone, and the smaller ranks read off
    # that host; the hosts live for one main call, so a second call builds
    # them again
    built = _count_builds(monkeypatch)
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv, "--all", "--max-rank", "24")
        assert code == 0 and out
    assert built == HOSTS_24 * 2


def test_coxeter_exponents_build_no_root_system(capsys, monkeypatch):
    import rootsys.cli as cli

    def refuse(*args, **kwargs):
        pytest.fail("exponents --method coxeter built a root system")

    monkeypatch.setattr(cli, "enumerate_roots", refuse)
    monkeypatch.setattr(cli, "_trailing", refuse)
    code, out, _ = run_cli(
        capsys, "exponents", "--all", "--max-rank", "24", "--method", "coxeter"
    )
    assert code == 0 and len(json.loads(out)) == 96


@pytest.mark.parametrize("command", ["gen", "exponents", "verify"])
@pytest.mark.parametrize("selector", ["type", "cartan"])
def test_one_target_enumerates_once(capsys, monkeypatch, tmp_path, command, selector):
    built = _count_builds(monkeypatch)
    if selector == "type":
        argv, label = ("--type", "D6"), "D6"
    else:
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(R.build_cartan("C3").rows))
        argv, label = ("--cartan", str(path)), None
    code, _, _ = run_cli(capsys, command, *argv)
    assert code == 0 and built == [label]


def test_vacuity_census_at_max_rank(capsys):
    # the rows that apply to few types, read off the sweep's own ledgers:
    # no_detour needs a pairing of 3, so a length ratio of 3, which only G2
    # has; string_descent needs a pairing of 2 against another simple root,
    # so two root lengths; lengths needs m = m2 - 1 >= 3, and m2 is 2 on A
    # and 3 on B, C and D
    code, out, _ = run_cli(capsys, "verify", "--all", "--max-rank", str(R.MAX_RANK))
    assert code == 0
    ledgers = json.loads(out)["ledgers"]
    assert [l["type"] for l in ledgers] == [
        str(t) for t in R.all_types(R.MAX_RANK) if t.rank >= 2
    ]
    for ledger in ledgers:
        label, checks = ledger["type"], ledger["checks"]
        family, rank = label[0], int(label[1:])
        assert all(c["pass"] for c in checks.values()), label
        detours = 1 if label == "G2" else 0
        assert checks["no_detour"]["note"] == f"{detours} applicable pairs", label
        descents = {"B": rank - 1, "C": rank - 1, "F": 6, "G": 1}.get(family, 0)
        assert checks["string_descent"]["note"] == f"{descents} applicable pairs", label
        vacuous = checks["lengths"]["note"] == "vacuous: m < 3"
        assert vacuous == (family in "ABCD"), label
