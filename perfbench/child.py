"""One workload pass in a fresh process: ``child.py WORKLOAD SEED TRACE WORKDIR K``.

Imports rootsys, optionally installs the span tracer, then times the pass
from the first call into rootsys to the last byte written, while
``hostspeed.Probe`` samples how fast the host runs.  Everything the pass
produced is left in WORKDIR for run.py to check against the reference data:
the CLI's stdout per command in ``out-K-<i>.json``, and a summary in
``pass-K.json`` with the pass time (``raw_wall_s``, the probe's own time
taken out), the host-speed factor, the pass time at reference speed
(``wall_s``), this process's peak RSS, the exit codes, the defect verdicts
and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import json
import random
import resource
import sys
import time
from pathlib import Path

import hostspeed
import reference

import rootsys
import rootsys.cli
from rootsys import Root, RootSystem

PROBE_BOOKENDS = 3  # host-speed samples taken just before and just after the pass

COMMANDS = {
    "sweep12": (["verify", "--all", "--max-rank", "12"],),
    "gen_exp24": (
        ["gen", "--all", "--max-rank", "24"],
        ["exponents", "--all", "--max-rank", "24", "--method", "both"],
    ),
}


def defect_inputs(seed: int) -> list[dict]:
    """Seeded draws: a permuted reference Cartan matrix per draw, plus the
    random stream that later picks the root to corrupt."""
    rng = random.Random(f"defects:{seed}")
    draws = []
    for label in reference.DEFECT_TYPES:
        ref = reference.type_data(label)
        for d in range(reference.DEFECT_DRAWS):
            perm = rng.sample(range(ref.rank), ref.rank)
            draws.append(
                {
                    "id": f"{label}#{d}",
                    "label": label,
                    "perm": perm,
                    "cartan": [[ref.cartan[p][q] for q in perm] for p in perm],
                    "height": rng.randint(2, ref.h - 2),
                    "rng": random.Random(rng.getrandbits(64)),
                }
            )
    return draws


def swap_one_root(rs, height: int, rng: random.Random) -> tuple[RootSystem, tuple, tuple]:
    """Replace one root of the given height by a non-root of the same height
    (one unit moved between two coordinates), keeping every layer's size."""
    layer = list(rs.layer(height))
    for root in rng.sample(layer, len(layer)):
        c = root.coeffs
        moves = [
            tuple(x - (k == i) + (k == j) for k, x in enumerate(c))
            for i in range(len(c))
            for j in range(len(c))
            if i != j and c[i] > 0
        ]
        moves = [m for m in moves if m not in rs]
        if moves:
            fake = rng.choice(moves)
            kept = [r for r in layer if r is not root] + [Root(fake)]
            new_layer = tuple(sorted(kept, key=lambda r: r.coeffs))
            layers = rs.layers[:height] + (new_layer,) + rs.layers[height + 1 :]
            return RootSystem(rs.cartan, rs.form, layers, None), c, fake
    raise RuntimeError(f"no non-root of height {height} is one move away")


def run_defects(seed: int, tracer) -> list[dict]:
    # rootsys functions are looked up at call time so traced passes see
    # the tracer's wrappers.
    verdicts = []
    for draw in defect_inputs(seed):
        if tracer is not None:
            tracer.trace_id = draw["id"]
        v = {"id": draw["id"], "label": draw["label"], "perm": draw["perm"]}
        try:
            rs = rootsys.enumerate_roots(rootsys.validate_cartan(draw["cartan"]), None)
            v["num_positive"] = rs.num_positive
            v["highest_root"] = list(rs.highest_root().coeffs)
            corrupted, v["replaced"], v["fake"] = swap_one_root(rs, draw["height"], draw["rng"])
            ledger = rootsys.build_ledger(corrupted)
            v["passed"] = ledger.passed
            v["failed_checks"] = sorted(n for n, c in ledger.checks.items() if not c.passed)
            v["checks"] = {
                n: {"mode": getattr(c, "mode", None), "note": c.note}
                for n, c in ledger.checks.items()
            }
        except Exception as exc:  # a raise is a wrong verdict, scored by run.py
            v["raised"] = f"{type(exc).__name__}: {exc}"
        verdicts.append(v)
    return verdicts


def main() -> int:
    workload, seed, trace, workdir, k = sys.argv[1:6]
    workdir = Path(workdir)
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(rootsys)

    result: dict = {"exit_codes": [], "outputs": []}
    probe = hostspeed.Probe()
    probe.sample_now(PROBE_BOOKENDS)
    probe.start()
    t0 = time.perf_counter()
    if workload == "defects":
        result["draws"] = run_defects(int(seed), tracer)
    else:
        for i, argv in enumerate(COMMANDS[workload]):
            path = workdir / f"out-{k}-{i}.json"
            with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                code = rootsys.cli.main(argv)
            result["exit_codes"].append(code)
            result["outputs"].append(str(path))
    elapsed = time.perf_counter() - t0
    probe.stop()
    probed = probe.spent
    probe.sample_now(PROBE_BOOKENDS)
    result["raw_wall_s"] = elapsed - probed
    result["speed_factor"] = probe.factor()
    result["wall_s"] = result["raw_wall_s"] * result["speed_factor"]
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(workdir / f"pass-{k}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
