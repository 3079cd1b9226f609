"""One validate / gate / fence path for every committed bench report.

A bench report is ``{"schema": ..., <meta fields>, "rows": [...]}``;
each row carries a ``kind`` (the hot-path bench's rows carry none, so
their kind is ``None``).  A :class:`Bench` declares what a valid report
holds and which bounds it must meet, and :func:`validate`, :func:`gate`,
:func:`compare`, :func:`load` and :func:`write` read nothing else:

* an *invariant* is a bound every stored report must hold, such as
  ``max_abs_diff <= 1e-10``; :func:`validate` raises on it;
* a *gate* is an absolute bound on a report, such as prefetch speedup
  ``>= 1.3``;
* a *fence* is a bound relative to the baseline row with the same key:
  at most :data:`REGRESSION` worse.

A gate whose ``when`` field is false on a row, a fence whose ``when``
field is false on either row, and a fenced row with no baseline row are
each reported as skipped with a note, never passed silently.

Adding a bench takes two things: a ``run_*_bench`` function that returns
the report, and a :class:`Bench` declaration in
:mod:`repro.bench.benches`.  ``benchmarks/bench.py NAME`` then runs,
gates and fences it, and ``--out BENCH_NAME.json`` records the baseline.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: allowed regression of a fenced field against its baseline row
REGRESSION = 0.25

#: field types; a tuple of allowed values is a type too
POSITIVE = "positive"
NUMBER = "number"
BOOL = "bool"
ANY = "any"

_TYPE_NAMES = {
    POSITIVE: "a positive number",
    NUMBER: "a number",
    BOOL: "a bool",
    ANY: "present",
}

_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}

Report = Dict[str, Any]
Row = Dict[str, Any]
#: ``where(row, peers)`` selects rows; ``peers`` are the rows of its kind
Where = Callable[[Row, List[Row]], bool]


@dataclass(frozen=True)
class Bound:
    """``row[field] <op> limit`` on each row of ``kind`` that ``where`` selects.

    A selected row whose ``when`` field is false is skipped; ``skip``,
    formatted with the report's and the row's fields, says why.
    """

    kind: Optional[str]
    field: str
    op: str
    limit: Any
    where: Optional[Where] = None
    when: Optional[str] = None
    skip: str = ""


@dataclass(frozen=True)
class Fence:
    """``row[field]`` at most :data:`REGRESSION` worse than its baseline row.

    ``better`` is ``"higher"`` (a floor) or ``"lower"`` (a ceiling); the
    ``when`` field must be true on both rows.
    """

    kind: Optional[str]
    field: str
    better: str
    where: Optional[Where] = None
    when: Optional[str] = None


@dataclass(frozen=True)
class Bench:
    """Everything the gate path knows about one bench.

    ``kinds`` maps each row kind to its required fields and their types;
    every declared kind must appear in a report.  ``key`` names the
    fields, among those a kind declares, that match a row to its
    baseline row; the kind is always part of the key.  ``label`` maps a
    kind to a format string over the row's fields (default: the kind).
    ``meta`` types report-level fields, ``check`` returns a problem with
    the report as a whole (or ``None``), and ``same`` lists report fields
    that must equal the baseline's.  ``run(quick, seed)`` produces a
    fresh report.
    """

    name: str
    schema: str
    kinds: Mapping[Optional[str], Mapping[str, Any]]
    run: Callable[[bool, int], Report]
    key: Tuple[str, ...] = ()
    label: Mapping[Optional[str], str] = field(default_factory=dict)
    meta: Mapping[str, Any] = field(default_factory=dict)
    check: Optional[Callable[[Report], Optional[str]]] = None
    invariants: Tuple[Bound, ...] = ()
    gates: Tuple[Bound, ...] = ()
    fences: Tuple[Fence, ...] = ()
    same: Tuple[str, ...] = ()

    def row_label(self, row: Row) -> str:
        return self.label.get(row.get("kind"), "{kind}").format(**row)

    def row_key(self, row: Row) -> Tuple:
        fields = self.kinds[row.get("kind")]
        return (row.get("kind"),) + tuple(
            tuple(row[f]) if isinstance(row[f], list) else row[f]
            for f in self.key
            if f in fields
        )


def fmt(value: Any) -> str:
    return format(value, ".6g") if isinstance(value, float) else str(value)


def _require(obj: Mapping, name: str, type_: Any, where: str) -> None:
    if name not in obj:
        raise ConfigurationError(f"{where} missing field {name!r}")
    value = obj[name]
    if type_ == BOOL:
        ok = isinstance(value, bool)
    elif type_ in (NUMBER, POSITIVE):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and (type_ == NUMBER or value > 0)
    else:
        ok = type_ == ANY or value in type_
    if not ok:
        raise ConfigurationError(
            f"{where} field {name!r} must be "
            f"{_TYPE_NAMES.get(type_, f'one of {type_}')}, got {value!r}"
        )


def _select(rule, rows: List[Row]) -> List[Row]:
    peers = [r for r in rows if r.get("kind") == rule.kind]
    return [r for r in peers if rule.where is None or rule.where(r, peers)]


def _apply(
    bench: Bench, bounds: Tuple[Bound, ...], report: Report
) -> Tuple[List[str], List[str]]:
    failures: List[str] = []
    skipped: List[str] = []
    for bound in bounds:
        for row in _select(bound, report["rows"]):
            label = f"{bench.row_label(row)}: {bound.field}"
            value = row[bound.field]
            if bound.when and not row[bound.when]:
                note = bound.skip.format(**{**report, **row})
                skipped.append(f"{label} gate skipped, {bound.when}=false ({note})")
            elif not _OPS[bound.op](value, bound.limit):
                failures.append(
                    f"{label} {fmt(value)}, required {bound.op} {fmt(bound.limit)}"
                )
    return failures, skipped


def validate(bench: Bench, report: Report) -> None:
    """Raise :class:`ConfigurationError` unless ``report`` matches ``bench``."""
    if not isinstance(report, dict):
        raise ConfigurationError(f"{bench.name} report must be a JSON object")
    if report.get("schema") != bench.schema:
        raise ConfigurationError(
            f"{bench.name} report schema must be {bench.schema!r}, "
            f"got {report.get('schema')!r}"
        )
    for name, type_ in bench.meta.items():
        _require(report, name, type_, f"{bench.name} report")
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ConfigurationError(
            f"{bench.name} report must carry a non-empty 'rows' list"
        )
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ConfigurationError(f"rows[{i}] must be a JSON object")
        kind = row.get("kind")
        if kind not in bench.kinds:
            raise ConfigurationError(f"rows[{i}] has unknown kind {kind!r}")
        for name, type_ in bench.kinds[kind].items():
            _require(row, name, type_, f"rows[{i}]")
    missing = [k for k in bench.kinds if all(r.get("kind") != k for r in rows)]
    if missing:
        raise ConfigurationError(f"{bench.name} report lacks row kinds {missing}")
    problem = bench.check(report) if bench.check else None
    if problem:
        raise ConfigurationError(problem)
    violated, _ = _apply(bench, bench.invariants, report)
    if violated:
        raise ConfigurationError(f"invariant violated: {violated[0]}")


def gate(bench: Bench, report: Report) -> Tuple[List[str], List[str]]:
    """Validate, then apply the gates; returns ``(failures, skipped)``."""
    validate(bench, report)
    return _apply(bench, bench.gates, report)


def compare(
    bench: Bench, report: Report, baseline: Report
) -> Tuple[List[str], List[str]]:
    """Validate both, then fence ``report`` against ``baseline``.

    Returns ``(failures, skipped)``.  Every fenced row with no baseline
    row of the same key gets one skipped note naming the key.
    """
    validate(bench, report)
    validate(bench, baseline)
    for name in bench.same:
        if report.get(name) != baseline.get(name):
            return [
                f"cannot compare {name}={report.get(name)} report against "
                f"{name}={baseline.get(name)} baseline; record the baseline "
                f"with the same setting"
            ], []
    base_by_key = {bench.row_key(row): row for row in baseline["rows"]}
    failures: List[str] = []
    skipped: List[str] = []
    unmatched = set()
    for fence in bench.fences:
        for row in _select(fence, report["rows"]):
            key = bench.row_key(row)
            base = base_by_key.get(key)
            if base is None:
                if key not in unmatched:
                    unmatched.add(key)
                    skipped.append(
                        f"{bench.row_label(row)}: no baseline row with key "
                        f"{key}, not fenced"
                    )
                continue
            label = f"{bench.row_label(row)}: {fence.field}"
            if fence.when and not (row[fence.when] and base[fence.when]):
                side = "baseline" if row[fence.when] else "report"
                skipped.append(
                    f"{label} fence skipped, {side} row has {fence.when}=false"
                )
                continue
            was, now = base[fence.field], row[fence.field]
            if was <= 0:
                skipped.append(f"{label} fence skipped, baseline is {fmt(was)}")
                continue
            if fence.better == "higher":
                limit = was * (1.0 - REGRESSION)
                bad, name = now < limit, "floor"
            else:
                limit = was * (1.0 + REGRESSION)
                bad, name = now > limit, "ceiling"
            if bad:
                failures.append(
                    f"{label} {fmt(now)} beyond {name} {fmt(limit)} "
                    f"(baseline {fmt(was)}, allowed regression {REGRESSION:.0%})"
                )
    return failures, skipped


def load(path) -> Report:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write(bench: Bench, report: Report, path) -> str:
    """Validate, then write ``report`` as indented JSON in its own key order."""
    validate(bench, report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return str(path)
