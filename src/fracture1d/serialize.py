"""Flat-file formats: field text files, CSV tables and JSON mirrors.

CSV numbers are written with 12 significant digits, below the tightest
tolerance used anywhere, so emitted files re-parse to equivalent
values and identical inputs produce byte-identical output.  Every JSON
file is ``json_text``'s, which writes the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline but builds
them itself: json.dumps with an indent runs json's pure-Python encoder.

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
from itertools import repeat
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


# json's scalar writers: its C string quoter, and float.__repr__ with
# json's texts for NaN and the infinities.
_quote = json.encoder.encode_basestring_ascii
_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_text(o):
    """json's text of a scalar, tested in json.encoder's isinstance
    order; None for a list, tuple or dict."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = _repr(o)
        return _NONFINITE.get(text, text)
    if isinstance(o, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def json_text(obj) -> str:
    """The JSON file text of ``obj``: the bytes of
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, with json's
    TypeError for a value or key it cannot encode and its ValueError for
    a circular payload.  The chunks of the text go to one list, joined
    once."""
    out = []
    text = _scalar_text(obj)
    if text is None:
        _emit(obj, out, "\n", set(), {})
    else:
        out.append(text)
    out.append("\n")
    return "".join(out)


def _emit(o, out, nl, active, shapes) -> None:
    """Append the chunks of the list, tuple or dict ``o``, whose lines
    start with ``nl``, to ``out``.  ``active`` holds the ids of the
    containers being written; ``shapes`` maps the str keys of a dict, in
    its order, and its indent to the sorted keys and their line starts."""
    is_dict = isinstance(o, dict)
    if not o:
        out.append("{}" if is_dict else "[]")
        return
    if (ident := id(o)) in active:
        raise ValueError("Circular reference detected")
    inner = nl + "  "
    sep = "," + inner
    if not is_dict and type(o[0]) is float:  # a list of finite floats, joined in C
        try:
            text = sep.join(map(_repr, o))  # float.__repr__ rejects a non-float
        except TypeError:
            text = "n"
        if "n" not in text:  # no nan or inf
            out.append("[" + inner + text + nl + "]")
            return
    active.add(ident)
    heads, values = repeat(sep), o
    if is_dict:
        if type(o) is not dict:
            o = dict(o.items())  # the items json reads from a subclass
        shape = (tuple(o), inner)
        if (keys_heads := shapes.get(shape)) is None:
            keys, heads = sorted(o), []  # line starts up to the first key json rejects
            for key in keys:
                if not isinstance(key, str):
                    shape = None  # 1, 1.0 and True are one key with three texts
                    if not (key is None or isinstance(key, (int, float))):
                        break
                    key = _scalar_text(key)
                heads.append(sep + _quote(key) + ": ")
            keys_heads = keys, heads
            if shape:
                shapes[shape] = keys_heads
        keys, heads = keys_heads
        values = map(o.__getitem__, keys)
    start = len(out)
    for head, value in zip(heads, values):
        if type(value) is float and value - value == 0.0:
            out.append(head + _repr(value))
        elif (text := _scalar_text(value)) is not None:
            out.append(head + text)
        else:
            out.append(head)
            _emit(value, out, inner, active, shapes)
    if is_dict and len(heads) < len(keys):
        name = keys[len(heads)].__class__.__name__
        raise TypeError(f"keys must be str, int, float, bool or None, not {name}")
    out[start] = ("{" if is_dict else "[") + out[start][1:]
    out.append(nl + ("}" if is_dict else "]"))
    active.discard(ident)


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
    """One row per load.  mu is formatted once per scan, and each list of
    crack positions once: they depend on the crack count alone, so
    neighbouring rows share them."""
    mu = format_number(report.metadata["mu"])
    positions = {}
    rows = []
    for r in report.rows:
        cell = positions.get(r.crack_positions)
        if cell is None:
            cell = positions[r.crack_positions] = ";".join(map(format_number, r.crack_positions))
        rows.append((float(r.lam), mu, r.n, float(r.energy), float(r.x), cell))
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
