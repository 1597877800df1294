"""Flat-file formats: field text files, CSV tables and JSON mirrors.

CSV numbers are written with 12 significant digits, below the tightest
tolerance used anywhere, so emitted files re-parse to equivalent
values and identical inputs produce byte-identical output.  Every JSON
file is ``json_text``'s: ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline.

Every output file is written by ``write_text``, the one write path:
UTF-8 with ``"\n"`` line ends on every platform, overwritten in place,
so that a rerun into the same directory pays no truncate on open.  A
write is not atomic.  A reader may see a file half written, and a
process killed mid-write can leave a file whose new bytes are followed
by the previous run's tail, which for a CSV table can still parse.
Nothing is synced: a rewritten file, like a new one, reaches the disk
at the kernel's periodic writeback (an ``O_TRUNC`` open made ext4
start it at close), so a power loss before then can leave old bytes
or pages of both runs.  Rerun an interrupted command before reading
its outputs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
from typing import Iterable, Sequence

from .harness import ScanReport, SweepReport, SweepRow
from .regularized import DiscreteField, SolveResult
from .sharp import DeformationGraph, PiecewiseLinearField

__all__ = [
    "format_number",
    "json_text",
    "write_text",
    "write_field",
    "parse_field",
    "field_to_text",
    "discrete_csv",
    "solve_summary_json",
    "sweep_csv",
    "sweep_json",
    "scan_csv",
    "scan_json",
    "cracks_csv",
    "deformation_csv",
    "deformation_json",
]


def format_number(x) -> str:
    return f"{float(x):.12g}"


def json_text(obj) -> str:
    """The JSON file text of ``obj``: sorted keys, two-space indent, a closing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def field_to_text(field: PiecewiseLinearField) -> str:
    """Serialize a piecewise-linear field: the header lines ``lambda`` and
    ``kind pwlinear``, then one (knot, value) pair per line.  Field files
    carry shortest-round-trip floats, not the 12-digit CSV precision, so
    re-parsing reproduces energies exactly.
    """
    out = [f"lambda {float(field.domain_length)!r}", "kind pwlinear"]
    for knot, value in zip(field.knots, field.knot_values):
        out.append(f"{float(knot)!r} {float(value)!r}")
    return "\n".join(out) + "\n"


def parse_field(text: str) -> PiecewiseLinearField:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3 or not lines[0].startswith("lambda ") or not lines[1].startswith("kind "):
        raise ValueError("field file needs 'lambda' and 'kind' header lines")
    lam_line, kind_line = lines[0].split(), lines[1].split()
    if len(lam_line) != 2 or len(kind_line) != 2:
        raise ValueError("field header lines must hold exactly one value")
    lam = float(lam_line[1])
    kind = kind_line[1]
    pairs = [tuple(float(tok) for tok in ln.split()) for ln in lines[2:]]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("field body lines must hold exactly two numbers")
    if kind != "pwlinear":
        raise ValueError(f"unknown field kind {kind!r}")
    return PiecewiseLinearField(lam, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting the file in place.

    The file is opened without ``O_TRUNC`` and written in full (a short
    write is continued).  A regular file longer than the new text is then
    cut to its length; a device or pipe, such as a link to ``/dev/null``,
    is only written.  A write that fails cuts the file to the bytes
    written so far and re-raises the write's error.  A process killed
    mid-write leaves the new bytes followed by the old file's tail.
    """
    data = text.encode("utf-8")
    # O_BINARY (Windows only) keeps "\n" from becoming "\r\n".
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    except BaseException:
        with contextlib.suppress(OSError):
            _cut(fd, written)
        raise
    else:
        _cut(fd, written)
    finally:
        os.close(fd)


def _cut(fd: int, length: int) -> None:
    # ftruncate fails with EINVAL on a device or FIFO, whose st_size is 0.
    if os.fstat(fd).st_size > length:
        os.ftruncate(fd, length)


def write_field(path, field) -> None:
    write_text(path, field_to_text(field))


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_number(v) if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()


def discrete_csv(field: DiscreteField) -> str:
    """A (y, value) row per value, at its node or, for a CellField, cell midpoint."""
    return _csv_text(("y", "value"), zip(field.points().tolist(), field.values.tolist()))


def solve_summary_json(result: SolveResult, metadata: dict) -> str:
    payload = {
        "energy": result.energy,
        "rescaled_energy": result.rescaled_energy,
        "iterations": result.iterations,
        "transition_count": result.transition_count,
        "converged": result.converged,
        "start_label": result.start_label,
        "metadata": metadata,
    }
    return json_text(payload)


# One column per SweepRow field, in field order.
_SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def _sweep_cell(value):
    """None as an empty cell, a boolean as 0 or 1, anything else as is."""
    if value is None:
        return ""
    return int(value) if isinstance(value, bool) else value


def _sweep_row_cells(row):
    return [_sweep_cell(getattr(row, name)) for name in _SWEEP_COLUMNS]


def sweep_csv(report: SweepReport) -> str:
    return _csv_text(_SWEEP_COLUMNS, (_sweep_row_cells(r) for r in report.rows))


def sweep_json(report: SweepReport) -> str:
    payload = {
        "metadata": report.metadata,
        "rows": [dict(zip(_SWEEP_COLUMNS, _sweep_row_cells(r))) for r in report.rows],
    }
    return json_text(payload)


def scan_csv(report: ScanReport) -> str:
    mu = report.metadata["mu"]
    rows = (
        (
            float(r.lam),
            float(mu),
            r.n,
            float(r.energy),
            float(r.x),
            ";".join(format_number(p) for p in r.crack_positions),
        )
        for r in report.rows
    )
    return _csv_text(("lambda", "mu", "n", "V_n", "x", "crack_positions"), rows)


def scan_json(report: ScanReport) -> str:
    payload = {
        "metadata": report.metadata,
        "rows": [
            {
                "lambda": r.lam,
                "x": r.x,
                "n": r.n,
                "V_n": r.energy,
                "crack_positions": list(r.crack_positions),
            }
            for r in report.rows
        ],
    }
    return json_text(payload)


def cracks_csv(variant_cracks: dict[str, Sequence[tuple[float, float]]]) -> str:
    rows = (
        (variant, float(x), float(opening))
        for variant, cracks in sorted(variant_cracks.items())
        for x, opening in cracks
    )
    return _csv_text(("variant", "material_position", "opening"), rows)


def deformation_csv(graph: DeformationGraph) -> str:
    rows = [
        ("segment", float(x0), float(x1), float(f0), float(f1))
        for x0, x1, f0, f1 in graph.segments
    ] + [("jump", float(x), float(x), float(lo), float(hi)) for x, lo, hi in graph.jumps]
    return _csv_text(("kind", "x_start", "x_end", "f_lower", "f_upper"), rows)


def deformation_json(graph: DeformationGraph) -> str:
    payload = {
        "segments": [list(seg) for seg in graph.segments],
        "jumps": [list(j) for j in graph.jumps],
    }
    return json_text(payload)
