"""Span tracing for the benchmark's traced passes.

The benchmark wraps rootsys's public functions from the outside; rootsys
itself records nothing.  Each span holds its name, trace id, parent span,
start and end.  Spans stay in memory and are written when the pass ends.
The trace id is the input being processed: the type label the CLI passes
to enumerate_roots, or the defect draw the benchmark is running.
"""

from __future__ import annotations

import importlib
import re
import statistics
import time
from collections import defaultdict

# Functions wrapped per layer module, found by name.  A name a module no
# longer defines is reported as absent, never as a crash, so refactors
# that delete or rename a function keep the benchmark running.
TRACED = {
    "cartan": ("build_cartan", "validate_cartan", "symmetrizer"),
    "roots": ("enumerate_roots",),
    "exponents": (
        "height_distribution",
        "dual_partition",
        "coxeter_matrix",
        "coxeter_order",
        "coxeter_exponents",
    ),
    "verify": (
        "build_ledger",
        "mark_chain",
        "top_chain",
        "classify_case",
        "check_two_of_three_sums",
        "check_long_pair_positive",
        "check_string_descent",
        "check_no_detour",
    ),
    "cli": ("_dump", "_emit"),
}
# Every other verify.check_* function is traced as well.
CHECK_PREFIX = "check_"
# Serialisation methods; together with cli._dump and cli._emit they make
# up the cli.output layer (to_json_dict, dumps and the write).
OUTPUT_METHODS = (
    ("roots", "RootSystem", "to_json_dict"),
    ("verify", "VerificationLedger", "to_json_dict"),
    ("exponents", "ExponentReport", "to_json_dict"),
)
OUTPUT_SPANS = frozenset(
    ["cli._dump", "cli._emit"] + [f"{m}.{c}.{f}" for m, c, f in OUTPUT_METHODS]
)

_QUALIFYING = re.compile(r"(\d+) qualifying")
_SAMPLE_SIZE = re.compile(r"sampled: (\d+)")


def is_sampled(mode, note: str) -> bool:
    """Whether a check examined a sample instead of its whole domain: the
    structured ``mode`` field where the ledger has one, else its note."""
    if mode is not None:
        return mode == "sampled"
    return note.startswith("sampled")


def sample_size(note: str) -> int | None:
    m = _SAMPLE_SIZE.match(note)
    return int(m.group(1)) if m else None


def qualifying(result) -> int:
    examined = getattr(result, "examined", None)
    if isinstance(examined, int):
        return examined
    m = _QUALIFYING.search(getattr(result, "note", ""))
    return int(m.group(1)) if m else 0


class Tracer:
    def __init__(self) -> None:
        # [name, trace_id, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.trace_id = None
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None, trace_id_of=None):
        def traced(*args, **kwargs):
            if trace_id_of is not None:
                self.trace_id = trace_id_of(args, kwargs) or self.trace_id
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.trace_id, parent, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                try:
                    after(self.counts, result)
                except AttributeError as exc:  # the result lost a field the count reads
                    self.absent.add(f"{name} result: {exc}")
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function in every rootsys module that binds it,
        since cli and verify import theirs by ``from ... import``."""
        modules = [package]
        modules += [importlib.import_module(f"{package.__name__}.{m}") for m in TRACED]
        for mod, (layer, names) in zip(modules[1:], TRACED.items()):
            if layer == "verify":
                names = names + tuple(
                    n
                    for n, f in vars(mod).items()
                    if n.startswith(CHECK_PREFIX)
                    and n not in names
                    and getattr(f, "__module__", "") == mod.__name__
                )
            for fname in names:
                original = getattr(mod, fname, None)
                if not callable(original):
                    self.absent.add(f"{layer}.{fname}")
                    continue
                wrapper = self.wrap(
                    f"{layer}.{fname}", original, _AFTER.get(fname), _TRACE_ID.get(fname)
                )
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        for layer, cls_name, meth in OUTPUT_METHODS:
            cls = getattr(importlib.import_module(f"{package.__name__}.{layer}"), cls_name, None)
            original = getattr(cls, meth, None)
            if original is None:
                self.absent.add(f"{layer}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", original))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": sorted(self.absent)}


def _label_arg(args, kwargs):
    return kwargs.get("label", args[1] if len(args) > 1 else None)


def _after_enumerate(counts, rs) -> None:
    counts["roots.enumerate_roots.roots"] += rs.num_positive


def _after_check(key):
    def after(counts, result) -> None:
        counts[key] += qualifying(result)

    return after


def _after_ledger(counts, ledger) -> None:
    for c in ledger.checks.values():
        counts["verify.counterexamples"] += len(c.counterexamples)
        counts["verify.sampled_checks"] += is_sampled(
            getattr(c, "mode", None), getattr(c, "note", "")
        )


def _type_arg(args, kwargs):
    return str(kwargs.get("t", args[0] if args else ""))


# The CLI builds every Cartan matrix first and then enumerates type by type,
# so both calls name the input that the spans after them belong to.
_TRACE_ID = {"build_cartan": _type_arg, "enumerate_roots": _label_arg}
_AFTER = {
    "enumerate_roots": _after_enumerate,
    "build_ledger": _after_ledger,
    "check_two_of_three_sums": _after_check("verify.check_two_of_three_sums.qualifying"),
    "check_long_pair_positive": _after_check("verify.check_long_pair_positive.qualifying"),
}


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive time and self time (inclusive time
    minus the time covered by its direct children)."""
    child_time = [0.0] * len(spans)
    for name, _tid, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
    for k, (name, _tid, _parent, start, end) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["time_s"] += end - start
        row["self_s"] += end - start - child_time[k]
    return dict(table)


def output_time(spans) -> float:
    """Time in the cli.output layer: output spans not nested in another."""
    total = 0.0
    for name, _tid, parent, start, end in spans:
        if name not in OUTPUT_SPANS:
            continue
        while parent >= 0 and spans[parent][0] not in OUTPUT_SPANS:
            parent = spans[parent][2]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(trace: dict, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    spans = trace["spans"]
    table = span_table(spans)
    counts = trace["counts"]

    def row(name):
        return table.get(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})

    ledgers = row("verify.build_ledger")["calls"]
    out = {}
    for name in (
        "verify.check_two_of_three_sums",
        "verify.check_long_pair_positive",
        "verify.check_string_descent",
        "verify.check_no_detour",
        "verify.build_ledger",
        "exponents.coxeter_exponents",
        "exponents.coxeter_order",
        "exponents.dual_partition",
        "roots.enumerate_roots",
        "cartan.validate_cartan",
        "cartan.symmetrizer",
    ):
        out[f"{name}.time_s"] = row(name)["time_s"]
    out["verify.build_ledger.self_s"] = row("verify.build_ledger")["self_s"]
    out["verify.build_ledger.calls"] = ledgers
    for name in ("verify.mark_chain", "verify.top_chain"):
        out[f"{name}.calls_per_ledger"] = row(name)["calls"] / ledgers if ledgers else 0.0
    for key in (
        "verify.check_two_of_three_sums.qualifying",
        "verify.check_long_pair_positive.qualifying",
        "verify.counterexamples",
        "verify.sampled_checks",
        "roots.enumerate_roots.roots",
    ):
        out[key] = counts.get(key, 0)
    out["roots.enumerate_roots.calls"] = row("roots.enumerate_roots")["calls"]
    out["cartan.validate_cartan.calls"] = row("cartan.validate_cartan")["calls"]
    out["cli.output.time_s"] = output_time(spans)
    out["cli.output.bytes"] = output_bytes
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def print_span_table(trace: dict) -> None:
    table = span_table(trace["spans"])
    print(f"{'span':<44} {'calls':>7} {'time_s':>10} {'self_s':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<44} {row['calls']:>7} {row['time_s']:>10.4f} {row['self_s']:>10.4f}")
    for name in trace["absent"]:
        print(f"{name:<44} absent")
