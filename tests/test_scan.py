"""Activity sweeps and the CSV/JSON table emitters."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cayley_potts.scan as scan_mod
from cayley_potts.period2 import theta_cr
from cayley_potts.scan import (CSV_HEADER, ScanRow, emit_csv, parse_csv,
                               render_rows, scan_theta, write_text)
from cayley_potts.solver import bisect, find_h_roots

GOLDEN = Path(__file__).parent / "data" / "scan_k3_golden.csv"


def k3_rows():
    return scan_theta(3, 0.05, 0.95, 19)


# -------------------------------------------------------------- scan_theta


def test_scan_counts_below_threshold():
    rows = scan_theta(3, 0.05, 0.20, 4)
    assert [r.count for r in rows] == [3, 3, 3, 3]
    assert all(r.theta_cr == 0.25 for r in rows)


def test_scan_counts_above_threshold():
    rows = scan_theta(3, 0.30, 0.90, 4)
    assert [r.count for r in rows] == [1, 1, 1, 1]


def test_scan_straddles_k4_threshold():
    assert scan_theta(4, 0.39, 0.40, 1)[0].count == 3
    assert scan_theta(4, 0.41, 0.42, 1)[0].count == 1


def test_scan_grid_is_monotone_and_unique():
    rows = k3_rows()
    thetas = [r.theta for r in rows]
    assert thetas == sorted(thetas)
    assert len(set(thetas)) == len(thetas)
    assert thetas[0] == 0.05 and thetas[-1] == pytest.approx(0.95)


def test_scan_theta_column_is_numpy_linspace():
    expected = [float(t) for t in np.linspace(0.05, 0.95, 19)]
    assert [r.theta for r in k3_rows()] == expected
    assert [r.theta for r in scan_theta(3, 0.3, 0.3 + 1e-12, 4)] == \
        [float(t) for t in np.linspace(0.3, 0.3 + 1e-12, 4)]


def test_scan_matches_root_reports():
    row = scan_theta(3, 0.1, 0.2, 1)[0]
    assert row == find_h_roots(0.1, 3)


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_theta(3, 0.9, 0.1, 5)
    with pytest.raises(ValueError):
        scan_theta(3, 0.0, 0.5, 5)
    with pytest.raises(ValueError):
        scan_theta(3, 0.1, 1.0, 5)
    with pytest.raises(ValueError):
        scan_theta(3, 0.1, 0.5, 0)
    with pytest.raises(ValueError):
        scan_theta(2, 0.1, 0.5, 5)


def test_scan_records_failed_rows(monkeypatch):
    real = find_h_roots

    def flaky(theta, k):
        if 0.4 < theta < 0.6:
            # the bisection's non-finite guard, met at the first midpoint
            return bisect(lambda x: math.nan, 1.0, 2.0, -1.0, 1.0)
        return real(theta, k)

    monkeypatch.setattr(scan_mod, "find_h_roots", flaky)
    rows = scan_theta(3, 0.3, 0.7, 3)
    assert [r.count for r in rows] == [1, 0, 1]
    assert rows[1].roots == ()
    assert rows[1].flags == ("error:ArithmeticError",)


# -------------------------------------------------------------------- csv


def test_csv_header_and_shape():
    buf = io.BytesIO()
    emit_csv(scan_theta(3, 0.1, 0.2, 1), buf)
    lines = buf.getvalue().decode("ascii").split("\n")
    assert lines[0] == CSV_HEADER == "k,theta,theta_cr,count,x0,x1,x2,flags"
    assert len(lines) == 3 and lines[-1] == ""  # header + row + trailing LF


def test_csv_matches_frozen_golden():
    buf = io.BytesIO()
    emit_csv(k3_rows(), buf)
    assert buf.getvalue() == GOLDEN.read_bytes()


def test_csv_deterministic():
    a, b = io.BytesIO(), io.BytesIO()
    emit_csv(k3_rows(), a)
    emit_csv(k3_rows(), b)
    assert a.getvalue() == b.getvalue()


def test_csv_text_stream_and_path(tmp_path):
    rows = scan_theta(3, 0.1, 0.2, 1)
    sio = io.StringIO()
    emit_csv(rows, sio)
    target = tmp_path / "rows.csv"
    emit_csv(rows, target)
    assert target.read_text(encoding="ascii") == sio.getvalue()


def test_csv_roundtrip_exact():
    # just below theta_cr the solver may report the pair, drop it, or pile
    # up noise roots (ROADMAP items 2 and 3); whatever it reports, the CSV
    # must give back the same rows, pairs included
    rows = k3_rows() + [
        find_h_roots(theta_cr(k) * (1 - gap), k)
        for k in (3, 4, 5, 10, 20, 50, 100)
        for gap in (1e-3, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)]
    buf = io.BytesIO()
    emit_csv(rows, buf)
    assert parse_csv(io.BytesIO(buf.getvalue())) == rows


def test_csv_overflow_column():
    row = ScanRow(k=3, theta=0.1, roots=(0.125, 0.5, 1.0, 2.0, 30.0),
                  flags=())
    assert row.pairs == ()
    buf = io.StringIO()
    emit_csv([row], buf)
    line = buf.getvalue().split("\n")[1]
    assert line == "3,0.10000000000000001,0.25,5,0.125,1,2,overflow:0.5|30"
    parsed = parse_csv(io.StringIO(buf.getvalue()))[0]
    assert parsed.roots == row.roots
    assert parsed.count == 5
    assert parsed.flags == ()


def test_parse_csv_pairs_only_what_the_solver_paired():
    # at k=50 just below theta_cr the solver reports a pile of noise roots
    # (ROADMAP item 2); the extras ride in the overflow flag, and the x0/x2
    # columns are not the pair it reported.  A row with a pair the rule
    # would not give cannot be built: test_scan_row_works_out_its_fields
    rows = [find_h_roots(theta_cr(50) * (1 - 1e-10), 50)]
    buf = io.StringIO()
    emit_csv(rows, buf)
    for row, parsed in zip(rows, parse_csv(io.StringIO(buf.getvalue()))):
        assert parsed.roots == row.roots
        assert set(parsed.pairs) <= set(row.pairs)
        assert parsed == row


def test_scan_row_works_out_its_fields():
    report = find_h_roots(0.1, 3)
    row = ScanRow(k=3, theta=0.1, roots=report.roots, flags=())
    assert row.theta_cr == 0.25 == theta_cr(3)
    assert row.pairs == report.pairs and len(row.pairs) == 1
    assert row == report and row.count == 3
    # theta_cr and the pairs follow from k and the roots; they are not
    # arguments, so no row can carry a hand-set value
    for extra in ({"theta_cr": 0.9}, {"pairs": ((0.5, 2.0),)}):
        with pytest.raises(TypeError):
            ScanRow(k=3, theta=0.1, roots=report.roots, flags=(), **extra)


@pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_scan_row_refuses_an_activity_no_solver_takes(theta):
    with pytest.raises(ValueError, match="activity must lie in"):
        ScanRow(k=3, theta=theta, roots=(1.0,), flags=())


@pytest.mark.parametrize("roots", [(0.5, math.inf), (math.nan, 1.0),
                                   (0.0, 1.0), (-0.5, 1.0), (1.0, 0.5),
                                   (1.0, 1.0)])
def test_scan_row_refuses_roots_no_solver_makes(roots):
    with pytest.raises(ValueError, match="finite, positive and ascending"):
        ScanRow(k=3, theta=0.1, roots=roots, flags=())


def test_csv_error_row_renders_empty_fields():
    row = ScanRow(k=3, theta=0.5, roots=(), flags=("error:ArithmeticError",))
    buf = io.StringIO()
    emit_csv([row], buf)
    assert buf.getvalue().split("\n")[1] == (
        "3,0.5,0.25,0,,,,error:ArithmeticError")
    assert parse_csv(io.StringIO(buf.getvalue()))[0] == row


def test_emit_rejects_empty():
    with pytest.raises(ValueError):
        emit_csv([], io.StringIO())
    with pytest.raises(ValueError):
        write_text(io.StringIO(), render_rows([], "json"))


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_csv(io.StringIO("wrong,header\n"))
    with pytest.raises(ValueError):
        parse_csv(io.StringIO(CSV_HEADER + "\n1,2,3\n"))
    # count column must agree with the roots present
    with pytest.raises(ValueError):
        parse_csv(io.StringIO(CSV_HEADER + "\n3,0.5,0.25,2,,1,,\n"))
    # a root below 1 whose image overflows at this k: no solver row
    line = f"1000,0.01,{theta_cr(1000):.17g},2,{1e-05:.17g},1,,"
    with pytest.raises(ValueError, match="root out of range for its k"):
        parse_csv(io.StringIO(CSV_HEADER + "\n" + line + "\n"))
    # lines emit_csv would not write: theta_cr other than theta_cr(k), a
    # root outside its column, a float not in its %.17g form
    for line in ("3,0.1,0.9,1,,1,,", "3,0.1,0.25,1,,7,,",
                 "3,0.1,0.25,1,,1,,"):
        with pytest.raises(ValueError, match="does not write back"):
            parse_csv(io.StringIO(CSV_HEADER + "\n" + line + "\n"))
    # rows no solver makes: an infinite root, an activity of nan
    for line, rule in (("3,0.10000000000000001,0.25,2,0.5,,inf,", "roots"),
                       ("3,nan,0.25,1,,1,,", "activity")):
        with pytest.raises(ValueError, match=rule + " must"):
            parse_csv(io.StringIO(CSV_HEADER + "\n" + line + "\n"))


def test_17g_is_lossless():
    value = 0.1 + 0.2 + 1e-17
    assert float(f"{value:.17g}") == value


# ------------------------------------------------------------------- json


def test_json_schema_and_values():
    rows = scan_theta(3, 0.1, 0.2, 2)
    buf = io.StringIO()
    write_text(buf, render_rows(rows, "json"))
    payload = json.loads(buf.getvalue())
    assert len(payload) == 2
    first = payload[0]
    assert set(first) == {"k", "theta", "theta_cr", "count", "roots",
                          "pairs", "flags"}
    assert first["k"] == 3
    assert first["count"] == 3
    assert first["roots"] == list(rows[0].roots)
    assert first["pairs"] == [list(p) for p in rows[0].pairs]
