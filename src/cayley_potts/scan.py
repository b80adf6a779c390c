"""Activity sweeps and every output format of ``roots`` and ``scan``.

There is one result record, ``ScanRow``: ``find_h_roots`` returns one and
a sweep is a list of them.  Text, CSV and JSON all render here.  One
function builds a row's JSON object: a sweep's JSON is a list of them, and
a ``roots`` report is one of them with the domain (theta_1, theta_2) and
each root's residual and kind added, which its text prints.  Those extras
are recomputed from the row by the same calls the solver makes, so they
match it bit for bit.  A report's CSV is a one-row scan.

The CSV has a fixed 8-column schema with 17-significant-digit decimals, so
a file round-trips to the exact same floats, and ``parse_csv`` reads back
only lines ``emit_csv`` would write.  Output is ASCII, deterministic byte
for byte, and goes through one writer.
"""

from __future__ import annotations

import os

from ._args import check_int
from .period2 import domain_bounds, h_scalar, theta_cr
from .solver import ScanRow, _linspace, find_h_roots

CSV_HEADER = "k,theta,theta_cr,count,x0,x1,x2,flags"
FORMATS = ("text", "csv", "json")
_OVERFLOW_PREFIX = "overflow:"


def scan_theta(k: int, theta_lo: float, theta_hi: float,
               steps: int) -> list[ScanRow]:
    """One row per theta on the inclusive uniform grid [theta_lo, theta_hi]
    of ``steps`` points; steps = 1 gives theta_lo alone.

    A failed row is recorded with an error flag and an empty root list,
    never dropped.
    """
    theta_cr(k)  # validates k
    if not 0.0 < theta_lo < theta_hi < 1.0:
        raise ValueError(f"need 0 < theta_lo < theta_hi < 1, got "
                         f"[{theta_lo}, {theta_hi}]")
    check_int("steps", steps, 1)

    rows = []
    for theta in _linspace(theta_lo, theta_hi, steps):
        try:
            rows.append(find_h_roots(theta, k))
        except (ValueError, ArithmeticError) as exc:
            rows.append(ScanRow(k=k, theta=theta, roots=(),
                                flags=(f"error:{type(exc).__name__}",)))
    return rows


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _row_fields(row: ScanRow) -> list[str]:
    x0 = x1 = x2 = ""
    extras: list[float] = []
    for r in row.roots:
        if r == 1.0 and not x1:
            x1 = _fmt(r)
        elif r < 1.0 and not x0:
            x0 = _fmt(r)
        elif r > 1.0 and not x2:
            x2 = _fmt(r)
        else:
            extras.append(r)
    flags = list(row.flags)
    if extras:
        # extra roots ride in the flags column; the 8-column header is fixed
        flags.append(_OVERFLOW_PREFIX + "|".join(_fmt(r) for r in extras))
    return [str(row.k), _fmt(row.theta), _fmt(row.theta_cr), str(row.count),
            x0, x1, x2, ";".join(flags)]


def write_text(destination, text: str) -> None:
    """Write ASCII text to a path (a str or any os.PathLike), or to a text
    or binary stream."""
    data = text.encode("ascii")
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "wb") as f:
            f.write(data)
        return
    write = getattr(destination, "write", None)
    if write is None:
        raise ValueError(f"cannot write to destination {destination!r}")
    try:
        write(data)
    except TypeError:  # text-mode stream
        write(text)


def _payload(row: ScanRow, report: bool = False) -> dict:
    """The JSON object of a row.  A ``roots`` report adds the domain and,
    per root, its residual |h(x)| and kind; the solver injects the fixed
    point as exactly 1.0, so that value alone is translation-invariant."""
    payload = {"k": row.k, "theta": row.theta, "theta_cr": row.theta_cr}
    roots = list(row.roots)
    if report:
        payload["theta_1"], payload["theta_2"] = domain_bounds(row.theta,
                                                               row.k)
        roots = [{"x": x, "residual": abs(h_scalar(x, row.theta, row.k)),
                  "kind": ("translation-invariant" if x == 1.0
                           else "period-2")} for x in roots]
    payload.update(count=row.count, roots=roots,
                   pairs=[list(p) for p in row.pairs], flags=list(row.flags))
    return payload


def _json(payload) -> str:
    import json  # only --format json pays for it

    return json.dumps(payload, indent=2) + "\n"


def render_rows(rows, fmt: str) -> str:
    """Sweep rows in one of FORMATS."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "json":
        return _json([_payload(r) for r in rows])
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(_row_fields(r)) for r in rows]
    else:
        lines = [f"{'k':>3} {'theta':>20} {'count':>5}  roots / flags"]
        for r in rows:
            roots = "  ".join(f"{x:.12g}" for x in r.roots) or "-"
            flags = (" [" + ";".join(r.flags) + "]") if r.flags else ""
            lines.append(f"{r.k:>3} {r.theta:>20.17g} {r.count:>5}  "
                         f"{roots}{flags}")
    return "\n".join(lines) + "\n"


def render_report(row: ScanRow, fmt: str) -> str:
    """One activity's roots in one of FORMATS; the CSV is a one-row scan,
    and the text prints the JSON object's fields."""
    if fmt == "csv":
        return render_rows([row], "csv")
    payload = _payload(row, report=True)
    if fmt == "json":
        return _json(payload)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    roots = payload["roots"]
    n_ti = sum(r["kind"] == "translation-invariant" for r in roots)
    lines = [
        f"k={row.k}  theta={row.theta:.12g}  theta_cr={row.theta_cr:.12g}",
        f"domain: ({payload['theta_1']:.12g}, {payload['theta_2']:.12g})",
        f"count={row.count}: {n_ti} translation-invariant + "
        f"{row.count - n_ti} period-2",
    ]
    lines += [f"  x = {r['x']:<22.17g} |h(x)| = {r['residual']:<12.3e} "
              f"{r['kind']}" for r in roots]
    lines += [f"orbit pair: f({x0:.12g}) = {x2:.12g}" for x0, x2 in row.pairs]
    lines.append("flags: " + (";".join(row.flags) if row.flags
                              else "(none)"))
    return "\n".join(lines) + "\n"


def emit_csv(rows, destination) -> None:
    """Write rows as CSV: header + one line per row, LF endings, 17
    significant digits per float."""
    write_text(destination, render_rows(rows, "csv"))


def parse_csv(source) -> list[ScanRow]:
    """Rebuild rows from emit_csv output, read from a path (a str or any
    os.PathLike) or a text or binary stream.

    Each row is built from its k, theta, root columns and flags, and a line
    is accepted only if that row writes it back: theta_cr must be
    theta_cr(k), the count must match the roots, each root must sit in the
    column emit_csv puts it in, and every float must be in its %.17g form.
    The 17-digit decimals parse back to the exact original floats, and the
    row pairs its roots by the solver's own rule, so a solver row
    round-trips exactly.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="ascii") as f:
            text = f.read()
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("ascii")

    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognised CSV header")

    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            k, theta, _, _, x0, x1, x2, flag_column = parts
            roots = [float(x) for x in (x0, x1, x2) if x]
            flags = []
            for flag in (f for f in flag_column.split(";") if f):
                if flag.startswith(_OVERFLOW_PREFIX):
                    roots += [float(x) for x in
                              flag[len(_OVERFLOW_PREFIX):].split("|")]
                else:
                    flags.append(flag)
            row = ScanRow(k=int(k), theta=float(theta),
                          roots=sorted(roots), flags=flags)
        except OverflowError:
            # f(x0) = (...)^k past the float range: no solver row holds
            # such a root, since find_h_roots paired the same floats
            raise ValueError(f"root out of range for its k: {ln!r}") from None
        except ValueError as exc:
            raise ValueError(f"malformed row {ln!r}: {exc}") from None
        if _row_fields(row) != parts:
            raise ValueError(f"row does not write back as read: {ln!r}")
        rows.append(row)
    return rows
