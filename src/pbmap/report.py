"""Mapping metric reports: per-circuit records and batch tables in text,
JSON, and CSV form."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

SCHEMA_VERSION = 1
CSV_HEADER = "circuit,dffs_before,dffs_after,area,jj,depth,runtime"


class ReportError(Exception):
    pass


@dataclass
class MappingReport:
    circuit: str
    dffs_before: int
    dffs_after: int
    area: float
    jj_total: int
    logical_depth: int
    splitters: int
    hit_rate: float
    runtime: float
    po_pad_dffs: int

    def to_dict(self):
        d = asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d


def build_report(result, circuit: str | None = None) -> MappingReport:
    """Collapse a FlowResult into the reported metric set.  Area and JJ are
    taken from the retimed network (gates + splitters + remaining DFFs)."""
    net = result.after
    return MappingReport(
        circuit=circuit or net.name,
        dffs_before=result.dffs_before,
        dffs_after=result.dffs_after,
        area=round(net.area, 6),
        jj_total=net.jj_count,
        logical_depth=net.depth,
        splitters=net.splitter_count,
        hit_rate=round(result.hit_rate, 4),
        runtime=round(result.runtime, 4),
        po_pad_dffs=net.po_pad_dffs,
    )


def emit(reports: list[MappingReport], fmt: str = "text") -> str:
    if fmt == "json":
        docs = [r.to_dict() for r in reports]
        return json.dumps(docs[0] if len(docs) == 1 else docs, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        # the csv module quotes a circuit name holding a comma or a quote
        csv.writer(out, lineterminator="\n").writerows(
            (r.circuit, r.dffs_before, r.dffs_after, r.area, r.jj_total,
             r.logical_depth, r.runtime) for r in reports)
        if len(reports) > 1:
            n = len(reports)
            out.write("average,%.2f,%.2f,%.4f,%.1f,%.2f,%.4f\n" % (
                sum(r.dffs_before for r in reports) / n,
                sum(r.dffs_after for r in reports) / n,
                sum(r.area for r in reports) / n,
                sum(r.jj_total for r in reports) / n,
                sum(r.logical_depth for r in reports) / n,
                sum(r.runtime for r in reports) / n,
            ))
        return out.getvalue()
    if fmt == "text":
        cols = ["circuit", "dffs_before", "dffs_after", "area", "jj",
                "depth", "splitters", "po_pads", "hit_rate", "runtime"]
        rows = [[r.circuit, r.dffs_before, r.dffs_after, r.area, r.jj_total,
                 r.logical_depth, r.splitters, r.po_pad_dffs, r.hit_rate,
                 r.runtime] for r in reports]
        widths = [max(len(str(c)), *(len(str(row[i]) ) for row in rows))
                  for i, c in enumerate(cols)]
        lines = ["  ".join(str(c).ljust(w) for c, w in zip(cols, widths))]
        for row in rows:
            lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines) + "\n"
    raise ReportError(f"unsupported report format '{fmt}'")
