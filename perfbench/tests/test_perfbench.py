"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from workloads import KNOWN, OK, WRONG  # noqa: E402


def golden_rows():
    with open(ROOT / "tests/data/scan_k3_golden.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_reference_reproduces_k3_golden_pairs():
    rows = [r for r in golden_rows() if r["count"] == "3"]
    assert len(rows) == 4
    for r in rows:
        x0, x2 = ref.period2_pair(3, float(r["theta"]))
        assert ref.rel_err(float(r["x0"]), x0) < 1e-14
        assert ref.rel_err(float(r["x2"]), x2) < 1e-14


def test_reference_resolves_roots_closer_to_the_endpoint_than_doubles():
    # k=50, theta=0.5: ln x0 - ln theta_1 is about 1.9e-14 (ROADMAP item 2),
    # inside the solver's 1e-9 clamp margin
    x0, x2 = ref.period2_pair(50, 0.5)
    with ref.mp.workdps(ref.DPS):
        offset = ref.mpmath.log(x0) - 50 * ref.mpmath.log(ref.mpf(1.5) / 2)
        assert 1.8e-14 < offset < 2.0e-14
        assert 1 < x2 < ref.mpf(0.5) ** -50


def test_reference_asserts_its_bracket():
    with pytest.raises(AssertionError):
        ref._illinois(lambda t: t * t + 1, -1.0, 1.0, 1e-12)


def test_field_reference_matches_a_hand_computed_tree():
    # k=2, n=1: the root has three leaf children
    leaf = np.array([[0.3, -0.2], [1.0, 0.5], [-1.5, 0.0]])
    theta = 0.7
    expected = np.zeros(2)
    for h in leaf:
        e = np.exp(h)
        expected += np.log((theta * e + (e.sum() - e) + 1) / (theta + e.sum()))
    out = ref.propagate_reference(2, 1, leaf, theta)
    assert out.shape == (4, 2)
    np.testing.assert_allclose(out[0], expected, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(out[1:], leaf)


def test_tree_check_text_matches_the_documented_transcript():
    readme = (ROOT / "README.md").read_text()
    assert workloads.readme_transcript(readme, ("tree-check", "--k", "3", "--n", "2")) \
        == workloads.tree_check_text(3, 2)


def test_wrong_reports_count_as_failures():
    k, theta = 3, 0.1
    x0, x2 = (float(x) for x in ref.period2_pair(k, theta))
    good = ([x0, 1.0, x2], [(x0, x2)], [])
    assert workloads.check_roots(k, theta, 3, *good) == (OK, "")
    nudged = x0 * (1 + 1e-8)
    assert workloads.check_roots(k, theta, 3, [nudged, 1.0, x2],
                                 [(nudged, x2)], [])[0] == WRONG
    assert workloads.check_roots(k, theta, 1, [1.0], [], [])[0] == WRONG
    assert workloads.check_roots(k, 0.3, 3, [x0, 1.0, x2], [], [])[0] == WRONG
    # the two defect classes ROADMAP item 2 lists are told apart, not hidden
    assert workloads.check_roots(k, theta, 3, [x0, 1.0, x2], [], [])[0] == KNOWN
    assert workloads.check_roots(k, theta, 2, [1.0, x2], [],
                                 ["domain-edge"])[0] == KNOWN
    assert workloads.check_roots(k, theta, 2, [1.0, x2 * 2], [],
                                 ["domain-edge"])[0] == WRONG


class FakeWorkload:
    def __init__(self, verdicts):
        self.verdicts = verdicts

    def ops(self, seed):
        return iter(range(len(self.verdicts)))

    def run(self, op):
        if self.verdicts[op] == "raise":
            raise ValueError("broken op")
        return op

    def check(self, op, out):
        return self.verdicts[op], "why"


def test_run_ops_counts_wrong_raised_and_known_ops():
    wl = FakeWorkload([OK, WRONG, KNOWN, "raise", OK])
    result = worker.run_ops(wl, wl.ops(0), 0, 5, 60)
    assert len(result["latencies"]) == 5
    assert result["wrong"] == 2 and result["known"] == 1
    assert [p["status"] for p in result["problems"]] == [WRONG, KNOWN, WRONG]


def test_percentile_matches_numpy_linear():
    xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 0.5]
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert spans.percentile(xs, q) == pytest.approx(np.percentile(xs, 100 * q))
    assert spans.percentile(list(range(1, 11)), 0.9) == pytest.approx(9.1)


def test_self_time_subtracts_child_spans_and_fine_calls(monkeypatch):
    clock = iter([0.0, 3.0, 7.0, 10.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    t = spans.Tracer()
    t.open("a")            # 0
    t.fine("f", 2.0)       # a fine call of 2 s inside a
    t.open("b")            # 3
    t.close()              # 7: b lasts 4 s
    t.close()              # 10: a lasts 10 s
    assert t.self_s["b"] == 4.0
    assert t.self_s["a"] == 10.0 - 4.0 - 2.0
    assert t.inside[("a", "f")] == 1
    a, b = sorted(t.spans, key=lambda s: s["name"])
    assert b["parent"] == a["id"] and a["parent"] is None


def first_ops(name, seed, n):
    gen = workloads.make(name, None, {}).ops(seed)
    return [next(gen) for _ in range(n)]


def same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(name):
    a, b = first_ops(name, 7, 40), first_ops(name, 7, 40)
    assert all(same(x, y) for x, y in zip(a, b))
    assert not all(same(x, y) for x, y in zip(a, first_ops(name, 8, 40)))


def traced_counts(cp, name, seed, n_ops):
    tracer = spans.Tracer()
    wl = workloads.make(name, cp, {})
    layers.install(tracer, cp)
    try:
        wl.setup()
        result = worker.run_ops(wl, wl.ops(seed), 0, n_ops, 120, tracer)
    finally:
        tracer.restore()
    assert result["wrong"] == 0
    return dict(tracer.calls), dict(tracer.extra)


@pytest.mark.parametrize("name,n_ops", [("sweep", 2), ("recursion", 2)])
def test_one_seed_gives_identical_counts(name, n_ops):
    cp = pytest.importorskip("cayley_potts")
    first = traced_counts(cp, name, 3, n_ops)
    assert first == traced_counts(cp, name, 3, n_ops)
    assert first[0]["period2.h_scalar" if name == "sweep" else "potts.f_map"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
