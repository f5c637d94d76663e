"""main() at its boundary: argv drawn from a small grammar of commands,
selectors, ranks, type strings, --cartan files and --out paths must end in
exit 0, 1 or 2, never in a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rootsys.cli import main

# Ranks above 6 are drawn only past MAX_RANK, so every real build stays small.
RANKS = st.integers(-2, 6) | st.integers(33, 40)
TYPES = st.sampled_from(
    ["A1", "A3", "B2", "C3", "D4", "G2", "F4", "E6",
     "Q5", "D3", "E9", "A0", "A", "", "a3", "A-1", "A²", "A 3", "A33", "A100000", "G2x"]
)
CARTAN_TEXT = st.sampled_from(
    ["[[2]]", "[[2, -1], [-1, 2]]", "[[2, -1], [-3, 2]]", "[[2, -2], [-2, 2]]",
     "{not json", "", "[]", "[[]]", "[[2, -1], [-1]]", "[[2, 1e400], [-1, 2]]", "NaN",
     '"x"', "[[2, true], [-1, 2]]", "[[[2]]]", "{\"a\": 1}", "[" * 5000 + "]" * 5000,
     "[[2, 1" + "0" * 5000 + "], [-1, 2]]"]
) | st.text(max_size=20)
CARTAN_FILE = CARTAN_TEXT.map(str.encode) | st.binary(max_size=20)


@st.composite
def argvs(draw):
    """argv plus the --cartan file's bytes (None when no file is written)."""
    argv = [draw(st.sampled_from(["gen", "exponents", "verify"]))]
    content = None
    options = st.sampled_from(["type", "all", "cartan", "format", "method", "out"])
    for option in draw(st.lists(options, max_size=4)):
        if option == "type":
            argv += ["--type", draw(TYPES)]
        elif option == "all":
            rank = draw(RANKS.map(str) | st.sampled_from(["x", "1.5", ""]))
            argv += ["--all", "--max-rank", rank]
        elif option == "cartan":
            name = draw(st.sampled_from(["m.json", "missing.json", "."]))
            if name == "m.json":
                content = draw(CARTAN_FILE)
            argv += ["--cartan", "{tmp}/" + name]
        elif option == "format":
            argv += ["--format", draw(st.sampled_from(["json", "table", "xml"]))]
        elif option == "method":
            argv += ["--method", draw(st.sampled_from(["dual", "coxeter", "both", "none"]))]
        else:
            argv += ["--out", draw(st.sampled_from(["{tmp}/o.json", "{tmp}/no/o.json", "{tmp}", ""]))]
    return argv, content


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_main_boundary(drawn):
    argv, content = drawn
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if content is not None:
            Path(tmp, "m.json").write_bytes(content)
        argv = [a.replace("{tmp}", tmp) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
                parsed = True
            except SystemExit as exc:  # argparse rejected argv
                code, parsed = exc.code, False
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if parsed and code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
