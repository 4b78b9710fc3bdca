"""The experiment report and its CSV and JSON formats.

A report is the keyed sections of :data:`SECTIONS` (accuracy, AUC over k,
paired t-tests), in that order, then the metadata. Rows are sorted by key and
floats written as their ``repr``, so identical reports give identical bytes.
CSV: each section is its header (key columns, then value columns) and its
rows, with a blank line between sections; metadata is ``key,value`` rows of
JSON cells (keys sorted); cells are quoted by the :mod:`csv` rules. JSON: one
object (sorted keys, indent 2) with each section's rows under its JSON name
and ``metadata`` as an object; a NaN value is ``null`` and reads back as NaN.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError


@dataclass
class ExperimentReport:
    """Keyed result tables; assembled order-independently and sorted at emit."""

    accuracies: dict = field(default_factory=dict)  # (subject, k, strategy, pipeline) -> float
    aucs: dict = field(default_factory=dict)  # (subject, strategy, pipeline) -> float
    ttests: dict = field(default_factory=dict)  # (sa, pa, sb, pb) -> (t, p)
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Section:
    """A keyed table: its report attribute, JSON name, typed key columns and value columns."""

    attr: str
    name: str
    keys: dict
    values: tuple  # a row's value is a float under one column, a tuple under several

    @property
    def header(self) -> list[str]:
        return [*self.keys, *self.values]

    def rows(self, report: ExperimentReport, cell) -> list[list]:
        """Each row as its key cells, then ``cell`` of each value; sorted by key."""
        table, one = getattr(report, self.attr), len(self.values) == 1
        return [[*key, *map(cell, (table[key],) if one else table[key])] for key in sorted(table)]

    def read(self, report: ExperimentReport, rows) -> None:
        for number, row in enumerate(rows, 1):
            try:
                if not isinstance(row, list) or len(row) != len(self.header):
                    raise ValueError(f"expected the {len(self.header)} columns {self.header}")
                key = tuple(kind(cell) for kind, cell in zip(self.keys.values(), row))
                value = tuple(math.nan if c is None else float(c) for c in row[len(key):])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{self.name} row {number} {row!r}: {exc}") from exc
            getattr(report, self.attr)[key] = value if len(value) > 1 else value[0]


SECTIONS = (
    Section("accuracies", "accuracy",
            {"subject": str, "k": int, "strategy": str, "pipeline": str}, ("accuracy",)),
    Section("aucs", "auc", {"subject": str, "strategy": str, "pipeline": str}, ("auc",)),
    Section("ttests", "ttest",
            {"strategy_a": str, "pipeline_a": str, "strategy_b": str, "pipeline_b": str},
            ("t", "p")),
)
META_HEADER = ["key", "value"]


def emit_report(report: ExperimentReport, path, format: str = "csv") -> None:
    """Write the report; identical reports produce identical bytes."""
    renderers = {"csv": render_report_csv, "json": render_report_json}
    if format not in renderers:
        raise ConfigError(f"unknown report format {format!r}")
    try:
        Path(path).write_text(renderers[format](report))
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path}: {exc}") from exc


def render_report_csv(report: ExperimentReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for section in SECTIONS:
        writer.writerows([section.header, *section.rows(report, lambda v: repr(float(v))), []])
    writer.writerow(META_HEADER)
    writer.writerows([k, json.dumps(v, sort_keys=True)] for k, v in sorted(report.metadata.items()))
    return out.getvalue()


def render_report_json(report: ExperimentReport) -> str:
    doc = {s.name: s.rows(report, lambda v: None if math.isnan(v) else float(v)) for s in SECTIONS}
    doc["metadata"] = report.metadata
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def read_report(path) -> ExperimentReport:
    """Parse a report written by :func:`emit_report` (either format); a
    missing section or a malformed row raises :class:`ConfigError` naming it."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse JSON report {path}: {exc}") from exc
    else:
        rows = csv.reader(io.StringIO(text))
        groups = [list(group) for nonblank, group in itertools.groupby(rows, bool) if nonblank]
        headers, expected = [g[0] for g in groups], [s.header for s in SECTIONS] + [META_HEADER]
        if headers != expected:
            raise ConfigError(f"expected report sections headed {expected}, found {headers}")
        doc = {section.name: group[1:] for section, group in zip(SECTIONS, groups)}
        doc["metadata"] = {}
        for number, row in enumerate(groups[-1][1:], 1):
            try:
                key, value = row
                doc["metadata"][key] = json.loads(value)
            except ValueError as exc:
                raise ConfigError(f"metadata row {number} {row!r}: {exc}") from exc
    for name, kind in [(section.name, list) for section in SECTIONS] + [("metadata", dict)]:
        if not isinstance(doc.get(name), kind):
            raise ConfigError(f"report has no {name!r} section (a {kind.__name__})")
    report = ExperimentReport(metadata=doc["metadata"])
    for section in SECTIONS:
        section.read(report, doc[section.name])
    return report
