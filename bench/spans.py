"""Span tracing of the library, installed from outside it.

Each public function is wrapped at the name through which its caller
reaches it (`cli.classify_case`, `positivity.pencil_coeffs`,
`classifier.witness_search`, which `positivity` imports at call time, ...).
A wrapper records one span per call: layer name, start, end and the span
that was open when it was called.  Spans stay in memory; `Tracer.dump`
writes them out.  Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module attribute holding the binding, attribute path, layer name)
WRAP_POINTS = [
    ("cli", "main", "cli.main"),
    ("cli", "Report.build", "cli.Report.build"),
    ("cli", "parse_rational", "exactnum.parse_rational"),
    ("cli", "from_plain_coeffs", "forms.from_plain_coeffs"),
    ("cli", "decide_problem", "positivity.decide_problem"),
    ("cli", "to_decimal", "exactnum.to_decimal"),
    ("cli", "classify_case", "classifier.classify_case"),
    ("cli", "table3_facts_hold", "classifier.table3_facts_hold"),
    ("cli", "circle_min_estimate_plain", "classifier.circle_min_estimate_plain"),
    ("cli", "classical_quantities", "classical.classical_quantities"),
    ("cli", "classical_is_pd", "classical.classical_is_pd"),
    ("cli", "sylvester_pd", "positivity.sylvester"),
    ("cli", "sylvester_psd", "positivity.sylvester"),
    ("classifier", "witness_search", "classifier.witness_search"),
    ("positivity", "sign_of", "exactnum.sign_of"),
]
# pencil functions are recomputed by several callers: wrap every binding
for _module in ("cli", "positivity", "classifier"):
    for _name in ("pencil_coeffs", "critical_param", "g_eval"):
        WRAP_POINTS.append((_module, _name, f"pencil.{_name}"))
for _module in ("cli", "positivity"):
    WRAP_POINTS.append((_module, "pencil_matrix", "pencil.pencil_matrix"))

DECISION = "positivity.decide_problem"

# (metric, layer, statistic, parent layer the spans must have or None)
# statistic: "us" inclusive time, "self_us" self time, "calls" call count,
# all per form; "us_per_call" inclusive time per call
LAYER_METRICS = [
    ("forms.from_plain_coeffs.us_per_form", "forms.from_plain_coeffs", "us", None),
    ("exactnum.parse_rational.us_per_form", "exactnum.parse_rational", "us", None),
    ("positivity.decide_problem.us_per_form", DECISION, "us", None),
    ("positivity.decide_problem.self_us_per_form", DECISION, "self_us", None),
    ("pencil.pencil_coeffs.calls_per_form", "pencil.pencil_coeffs", "calls", None),
    ("pencil.critical_param.calls_per_form", "pencil.critical_param", "calls", None),
    ("classical.classical_is_pd.calls_per_form", "classical.classical_is_pd", "calls", None),
    # the lam0 sign tests: only the calls made by the decision itself
    ("pencil.critical_param.us_per_form", "pencil.critical_param", "us", DECISION),
    ("pencil.g_eval.us_per_form", "pencil.g_eval", "us", DECISION),
    ("exactnum.sign_of.us_per_form", "exactnum.sign_of", "us", DECISION),
    ("pencil.pencil_matrix.us_per_form", "pencil.pencil_matrix", "us", None),
    ("positivity.sylvester.us_per_form", "positivity.sylvester", "us", None),
    ("classifier.witness_search.calls_per_form", "classifier.witness_search", "calls", None),
    ("classifier.witness_search.us_per_call", "classifier.witness_search", "us_per_call", None),
    ("classifier.witness_search.us_per_form", "classifier.witness_search", "us", None),
    ("classifier.classify_case.us_per_form", "classifier.classify_case", "us", None),
    ("classifier.table3_facts_hold.us_per_form", "classifier.table3_facts_hold", "us", None),
    ("classifier.circle_min_estimate_plain.us_per_form",
     "classifier.circle_min_estimate_plain", "us", None),
    ("classical.classical_quantities.us_per_form", "classical.classical_quantities", "us", None),
    ("exactnum.to_decimal.calls_per_form", "exactnum.to_decimal", "calls", None),
    ("exactnum.to_decimal.us_per_form", "exactnum.to_decimal", "us", None),
    ("cli.Report.build.self_us_per_form", "cli.Report.build", "self_us", None),
    ("cli.main.self_us_per_form", "cli.main", "self_us", None),
]


class Tracer:
    """Collects spans as [id, parent id or None, layer, start, end] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._ids = itertools.count()

    def wrap(self, layer: str, fn):
        spans, open_, ids = self.spans, self._open, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [next(ids), open_[-1] if open_ else None, layer, 0.0, 0.0]
            spans.append(span)
            open_.append(span[0])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_.pop()

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start afresh."""
        out = list(self.spans)
        self.spans.clear()  # in place: the wrappers append to this list
        return out

    @staticmethod
    def dump(spans: list[list], path: Path) -> None:
        path.write_text(json.dumps(
            [{"id": s[0], "parent": s[1], "layer": s[2], "start": s[3], "end": s[4]}
             for s in spans]), encoding="utf-8")


def _resolve(modules: dict, module: str, path: str):
    owner = modules[module]
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every point of WRAP_POINTS for the duration of the block.

    `modules` maps the short module names used above to the imported modules.
    """
    saved = []
    try:
        for module, path, layer in WRAP_POINTS:
            owner, name = _resolve(modules, module, path)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(layer, original))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = []
    for s in spans:
        covered, reach = 0.0, s[3]
        for start, end in sorted(children.get(s[0], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s[4] - s[3] - covered)
    return out


def layer_totals(spans: list[list], bucket=lambda span: 0) -> dict:
    """Totals per metric of LAYER_METRICS over `spans`, per bucket(span):
    {bucket: {metric: total}}.  Totals are not yet divided per form: seconds
    for the time statistics ("us_per_call" too), counts for "calls"."""
    layer_of = {s[0]: s[2] for s in spans}
    by_layer: dict[str, list[tuple[list, float]]] = {}
    for s, self_time in zip(spans, _self_times(spans)):
        by_layer.setdefault(s[2], []).append((s, self_time))
    totals: dict = {}
    for metric, layer, stat, parent in LAYER_METRICS:
        for s, self_time in by_layer.get(layer, ()):
            if parent is not None and layer_of.get(s[1]) != parent:
                continue
            if stat == "calls":
                value = 1.0
            elif stat == "self_us":
                value = self_time
            else:
                value = s[4] - s[3]
            group = totals.setdefault(bucket(s), {})
            group[metric] = group.get(metric, 0.0) + value
    return totals
