"""Score one pass's outputs against the reference data.

Each function returns ``(attempted, failed, sampled, problems)``: inputs
attempted, inputs whose verdict or output differs from the reference (or
that raised), ledger checks that examined a sample rather than their
whole domain, and a few human-readable lines about what went wrong.
"""

from __future__ import annotations

import json

import reference
from spans import is_sampled, sample_size

MAX_PROBLEMS = 5


def _sampling_problem(label: str, name: str, mode, note: str) -> str | None:
    """A sampled check is only allowed where the program has always sampled,
    and never on fewer triples than it always has."""
    if not is_sampled(mode, note):
        return None
    if not reference.type_data(label).may_be_sampled:
        return f"{name} sampled on a system the program checks exhaustively"
    size = sample_size(note)
    if size is not None and size < reference.MIN_SAMPLED_TRIPLES:
        return f"{name} sampled only {size} triples"
    return None


def _ledger_problems(label: str, checks: dict) -> tuple[int, list[str]]:
    sampled = 0
    problems = []
    for name, c in checks.items():
        mode, note = c.get("mode"), c.get("note", "")
        sampled += is_sampled(mode, note)
        p = _sampling_problem(label, name, mode, note)
        if p:
            problems.append(p)
    return sampled, problems


def check_sweep(max_rank: int, outputs: list[str], exit_codes: list[int]):
    labels = reference.sweep_labels(max_rank)
    with open(outputs[0], encoding="utf-8") as fh:
        payload = json.load(fh)
    bad: dict[str, str] = {}
    sampled = 0
    ledgers = {l["type"]: l for l in payload["ledgers"]}
    skipped = {s["type"] for s in payload["skipped"]}
    for label in labels:
        ref = reference.type_data(label)
        if ref.rank < 2:
            if label not in skipped or label in ledgers:
                bad[label] = "rank-1 type not skipped"
            continue
        led = ledgers.get(label)
        if led is None:
            bad[label] = "no ledger"
            continue
        got = (led["c_max"], led["m2"], led["case"])
        if got != (ref.c_max, ref.m2, ref.case):
            bad[label] = f"(c_max, m2, case) = {got}, expected {(ref.c_max, ref.m2, ref.case)}"
            continue
        failing = sorted(n for n, c in led["checks"].items() if not c["pass"])
        if failing:
            bad[label] = f"checks failed: {failing}"
            continue
        n_sampled, problems = _ledger_problems(label, led["checks"])
        sampled += n_sampled
        if problems:
            bad[label] = problems[0]
    extra = set(ledgers) | skipped
    extra -= set(labels)
    for label in sorted(extra):
        bad[label] = "not a type of the sweep"
    g2 = payload.get("g2_criterion", {})
    if not (g2.get("pass") and g2.get("case1_types") == ["G2"] and g2.get("m2_minus_2_types") == ["G2"]):
        bad.setdefault("G2", f"g2_criterion report wrong: {g2}")
    if exit_codes != [0]:
        bad = {label: f"exit codes {exit_codes}" for label in labels}
    return len(labels), len(bad), sampled, _lines(bad)


def _dual_exponents(heights: list[int]) -> tuple[int, ...]:
    """Exponents read off a height distribution: a has multiplicity
    t_a - t_(a+1), where t_r counts roots of height r."""
    top = max(heights)
    t = [0] * (top + 2)
    for ht in heights:
        t[ht] += 1
    return tuple(a for a in range(1, top + 1) for _ in range(t[a] - t[a + 1]))


def _gen_problem(ref, p: dict) -> str | None:
    if p["rank"] != ref.rank or tuple(map(tuple, p["cartan"])) != ref.cartan:
        return "rank or Cartan matrix differs"
    if tuple(p["highest_root"]) != ref.highest_root or p["c_max"] != ref.c_max:
        return f"highest root {p['highest_root']}, c_max {p['c_max']}"
    coeffs = [tuple(r["coeffs"]) for r in p["roots"]]
    heights = [r["height"] for r in p["roots"]]
    if len(set(coeffs)) != ref.num_positive or len(coeffs) != ref.num_positive:
        return f"{len(coeffs)} roots listed, expected {ref.num_positive} distinct"
    if any(sum(c) != ht or min(c) < 0 for c, ht in zip(coeffs, heights)):
        return "a root with negative coefficients or a wrong height"
    if sorted(zip(heights, coeffs)) != list(zip(heights, coeffs)):
        return "roots not sorted by height, then coefficients"
    if _dual_exponents(heights) != ref.exponents:
        return "height distribution does not give the reference exponents"
    return None


def _exponents_problem(ref, e: dict) -> str | None:
    for key in ("dual", "coxeter"):
        rep = e.get(key, {})
        if tuple(rep.get("exponents", ())) != ref.exponents or rep.get("h") != ref.h:
            return f"{key} exponents {rep.get('exponents')}, h {rep.get('h')}"
    if e.get("agree") is not True:
        return "methods reported as disagreeing"
    return None


def check_gen_exp(max_rank: int, outputs: list[str], exit_codes: list[int]):
    """Both commands count one input per type: 2 x (number of types)."""
    labels = reference.sweep_labels(max_rank)
    if len(exit_codes) != 2:
        return 2 * len(labels), 2 * len(labels), 0, [f"exit codes {exit_codes}"]
    bad: dict[str, str] = {}
    for cmd, path, code, problem in zip(
        ("gen", "exponents"), outputs, exit_codes, (_gen_problem, _exponents_problem)
    ):
        with open(path, encoding="utf-8") as fh:
            entries = {e["type"]: e for e in json.load(fh)}
        for label in labels:
            key = f"{cmd} {label}"
            if code != 0:
                bad[key] = f"exit code {code}"
            elif label not in entries:
                bad[key] = "missing"
            else:
                p = problem(reference.type_data(label), entries[label])
                if p:
                    bad[key] = p
        for label in sorted(set(entries) - set(labels)):
            bad[f"{cmd} {label}"] = "not a type of the workload"
    return 2 * len(labels), len(bad), 0, _lines(bad)


def check_defects(draws: list[dict], expected: int):
    """Every draw must end in a failed ledger: a swapped root is a defect
    the verifier has to report, and a raise is not a verdict."""
    bad: dict[str, str] = {}
    sampled = 0
    for v in draws:
        ref = reference.type_data(v["label"])
        if "raised" in v:
            bad[v["id"]] = f"raised {v['raised']}"
            continue
        theta = [ref.highest_root[p] for p in v["perm"]]
        if v["num_positive"] != ref.num_positive or v["highest_root"] != theta:
            bad[v["id"]] = "permuted system enumerated wrongly"
            continue
        if v["passed"]:
            bad[v["id"]] = f"defect not detected: {v['replaced']} -> {v['fake']}"
            continue
        n_sampled, problems = _ledger_problems(v["label"], v["checks"])
        sampled += n_sampled
        if problems:
            bad[v["id"]] = problems[0]
    if len(draws) != expected:
        bad["draws"] = f"{len(draws)} draws ran, expected {expected}"
    return expected, len(bad), sampled, _lines(bad)


def _lines(bad: dict[str, str]) -> list[str]:
    return [f"{k}: {v}" for k, v in list(bad.items())[:MAX_PROBLEMS]]
