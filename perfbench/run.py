"""rootsys benchmark: verdict time, memory and correctness per workload.

    python3 perfbench/run.py --workload sweep12 --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the program is imported from
the checkout's ``src`` directory.  Each pass runs in a fresh single-threaded
interpreter (BLAS pinned to one thread) and calls ``rootsys.cli.main`` or
the public library API, never private entry points.  Passes repeat until
``--seconds`` are spent (at least three), every output is checked against
the reference data in ``reference.py``, and the last line of stdout is one
JSON object with the verdict and the metrics:

* ``--trace 0``: end-to-end metrics from untraced passes: ``wall_s`` (median
  pass time, scaled to the reference host speed; see ``hostspeed.py``),
  ``setup_s`` (median time to start an interpreter and import rootsys, the
  import scaled the same way) and
  ``peak_rss_mb`` (median peak RSS of a pass).
* ``--trace 1``: untraced and traced passes alternate.  Per-layer metrics
  are medians over the traced passes, with times scaled to the reference
  host speed like ``wall_s``; ``trace.overhead_s`` is the traced minus the
  untraced median pass time, and the spans of the last traced pass are
  written to ``.perfbench_work/trace-<workload>-seed<seed>.json``.

Workloads (see NOTES.md for why each was chosen and what it should move):

* ``sweep12``: ``verify --all --max-rank 12``, the default user command.
* ``gen_exp24``: ``gen --all --max-rank 24`` then
  ``exponents --all --max-rank 24 --method both``; no ledger at all.
* ``defects``: seeded corrupted systems through ``build_ledger``; each
  must come back failed.  ``sweep12`` and ``gen_exp24`` ignore ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
import verdicts

DEFECTS = len(reference.DEFECT_TYPES) * reference.DEFECT_DRAWS
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = {
    "sweep12": lambda p: verdicts.check_sweep(12, p["outputs"], p["exit_codes"]),
    "gen_exp24": lambda p: verdicts.check_gen_exp(24, p["outputs"], p["exit_codes"]),
    "defects": lambda p: verdicts.check_defects(p["draws"], DEFECTS),
}
INPUTS = {
    "sweep12": len(reference.sweep_labels(12)),
    "gen_exp24": 2 * len(reference.sweep_labels(24)),
    "defects": DEFECTS,
}
MIN_PASSES = 3
MIN_PASSES_TRACED = 4  # two untraced, two traced
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_PASS = 2
RUN_LIMIT_S = 165  # the whole run must end within 180 s
PERCENTILE_TAIL = 10  # samples that must lie beyond a reported high percentile

IMPORT_PROBE = "import rootsys, sys; sys.stdout.write(rootsys.__file__)"
# One set-up sample: the import, timed with the host-speed probe sampling
# every 10 ms (the import takes about 0.1 s).  Prints the import time and
# all the time spent in the probe, both in seconds, and the speed factor.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import hostspeed
probe = hostspeed.Probe(0.01)
probe.sample_now(3)
before = probe.spent
probe.start()
t0 = time.perf_counter()
import rootsys
t = time.perf_counter() - t0
probe.stop()
probed = probe.spent
probe.sample_now(3)
print(t - probed, before + probe.spent, probe.factor())
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def time_setup(env) -> float:
    """Interpreter start plus ``import rootsys``, numpy included, with the
    import scaled to the reference host speed.  The interpreter start before
    any Python runs cannot be probed and stays as measured."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(HERE)],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    total = time.perf_counter() - t0
    import_s, probe_s, factor = map(float, out.split())
    return total - probe_s - import_s + import_s * factor


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with PERCENTILE_TAIL samples beyond it, or
    None when there are too few samples for one."""
    n = len(values)
    if n <= PERCENTILE_TAIL:
        return None
    return 100.0 * (n - PERCENTILE_TAIL) / n, sorted(values)[n - PERCENTILE_TAIL - 1]


def run_pass(workload, seed, traced, k, env, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(traced)), str(WORK), str(k)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        error = proc.stderr.strip().splitlines()[-1:] if proc.returncode else []
    except subprocess.TimeoutExpired:
        error = [f"pass timed out after {timeout:.0f} s"]
    elapsed = time.perf_counter() - t0
    path = WORK / f"pass-{k}.json"
    if error or not path.is_file():
        return {"traced": traced, "elapsed": elapsed, "error": error or ["no result written"]}
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(traced=traced, elapsed=elapsed)
    return result


def score(workload: str, p: dict) -> tuple[int, int, int, list[str]]:
    if "error" in p:
        return INPUTS[workload], INPUTS[workload], 0, [f"pass crashed: {p['error']}"]
    try:
        attempted, failed, sampled, problems = WORKLOADS[workload](p)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return INPUTS[workload], INPUTS[workload], 0, [f"unreadable output: {exc!r}"]
    # Unexpected extra outputs count as failures, but never beyond the inputs.
    return attempted, min(failed, attempted), sampled, problems


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def at_reference_speed(metrics: dict[str, float], factor: float) -> dict[str, float]:
    return {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}


def output_bytes(p: dict) -> int:
    return sum(os.path.getsize(f) for f in p.get("outputs", []))


def clean_work() -> None:
    for f in WORK.glob("*-*.json"):
        if f.name.startswith(("out-", "pass-")):
            f.unlink()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rootsys" / "__init__.py").is_file():
        print(f"error: no rootsys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference.self_check(reference.sweep_labels(24))
    env = child_env()
    started = time.perf_counter()
    # The probe also compiles the bytecode, which users pay once, not per run.
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True
    )
    src = (ROOT / "src").resolve()
    if probe.returncode or src not in Path(probe.stdout or "/").resolve().parents:
        print(f"error: cannot import rootsys from {src}: {probe.stderr.strip()}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    clean_work()

    setup = [time_setup(env) for _ in range(SETUP_SAMPLES_FIRST)]
    min_passes = MIN_PASSES_TRACED if args.trace else MIN_PASSES
    deadline = time.perf_counter() + args.seconds
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        timeout = RUN_LIMIT_S - (time.perf_counter() - started)
        p = run_pass(args.workload, args.seed, traced, len(passes), env, timeout)
        p["score"] = score(args.workload, p)
        p["output_bytes"] = output_bytes(p)
        passes.append(p)
        clean_work()
        if "error" in p:
            break
        setup += [time_setup(env) for _ in range(SETUP_SAMPLES_PER_PASS)]
        now = time.perf_counter()
        if now - started + p["elapsed"] > RUN_LIMIT_S:
            break
        if len(passes) >= min_passes and now + p["elapsed"] > deadline:
            break

    attempted = sum(p["score"][0] for p in passes)
    failed = sum(p["score"][1] for p in passes)
    ok = [p for p in passes if "error" not in p]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if not plain or (args.trace and not traced):
        for p in passes:
            print("\n".join(p["score"][3]), file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1

    walls = [p["wall_s"] for p in plain]
    e2e = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] / 1024 for p in plain), "MB"),
    }
    sampled = statistics.median(p["score"][2] for p in ok)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  seconds {args.seconds}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:>12.4f} {unit:<6} median")
    print(f"  {'wall_s':<16} n={len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls))
    raw = [p["raw_wall_s"] for p in plain]
    print(f"  {'raw wall_s':<16} {statistics.median(raw):>12.4f} s      median; passes: "
          + " ".join(f"{w:.3f}" for w in raw))
    print(f"  {'host speed':<16} {statistics.median(p['speed_factor'] for p in plain):>12.4f} "
          "x      median reference/measured; wall_s = raw wall_s * this, per pass")
    hp = high_percentile(walls)
    if hp is None:
        print(f"  {'wall_s':<16} no high percentile: it needs more than {PERCENTILE_TAIL} samples")
    else:
        print(f"  {'wall_s':<16} p{hp[0]:.0f} {hp[1]:.4f} s")
    print(f"  {'setup_s':<16} n={len(setup)}")
    print(f"  {'error_rate':<16} {failed / attempted:>12.4f} share  ({failed} of {attempted} inputs)")
    print(f"  {'sampled_checks':<16} {sampled:>12g} count  (ledger checks per pass that sampled)")
    for p in passes:
        for line in p["score"][3]:
            print(f"  problem: {line}")

    if args.trace:
        per_pass = [
            at_reference_speed(spans.layer_metrics(p["trace"], p["output_bytes"]), p["speed_factor"])
            for p in traced
        ]
        metrics = spans.median_metrics(per_pass)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - e2e["wall_s"][0]
        last = traced[-1]["trace"]
        print(f"per-layer spans of the last traced pass ({len(last['spans'])} spans):")
        spans.print_span_table(last)
        print("per-layer metrics (median over traced passes):")
        for name, value in metrics.items():
            print(f"  {name:<46} {value:>14.6g}")
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, "table": spans.span_table(last["spans"]), **last}, fh)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        out = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        out = {name: {"value": v, "unit": unit} for name, (v, unit) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
