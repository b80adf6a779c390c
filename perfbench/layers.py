"""The package's layers as the traced run sees them.

``install`` swaps the module-level names through which each layer is
called for the tracer's wrappers; ``metrics`` turns the tracer's spans and
counters, plus the cli stub's records, into the per-layer metrics named in
BENCHMARK.json.  Every metric is reported on every workload, as 0 where the
workload does not reach that layer.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from spans import Tracer

CLI_SUBCOMMANDS = ("roots", "scan", "verify", "orbit", "tree-check")


def install(tracer: Tracer, cp) -> None:
    period2, solver, scan, potts, tree = (cp.period2, cp.solver, cp.scan,
                                          cp.potts, cp.tree)

    extra = tracer.extra

    def found(brackets):
        extra["solver.brackets_found"] += len(brackets)

    def reported(report):
        extra["solver.roots_reported"] += report.count

    def rows(result):
        extra["scan.rows"] += len(result)

    tracer.patch(solver, "h_scalar",
                 tracer.fine_wrapper("period2.h_scalar", solver.h_scalar))
    tracer.patch(solver, "f_scalar",
                 tracer.fine_wrapper("period2.f_scalar", solver.f_scalar))
    bounds = tracer.count_wrapper("period2.domain_bounds", period2.domain_bounds)
    tracer.patch(period2, "domain_bounds", bounds)
    tracer.patch(solver, "domain_bounds", bounds)
    tracer.patch(solver, "scan_brackets", tracer.span_wrapper(
        "solver.scan_brackets", solver.scan_brackets, found))
    tracer.patch(solver, "bisect",
                 tracer.span_wrapper("solver.bisect", solver.bisect))
    tracer.patch(scan, "find_h_roots", tracer.span_wrapper(
        "solver.find_h_roots", scan.find_h_roots, reported))
    tracer.patch(scan, "scan_theta",
                 tracer.span_wrapper("scan.scan_theta", scan.scan_theta, rows))
    for name in ("emit_csv", "parse_csv"):
        tracer.patch(scan, name,
                     tracer.span_wrapper("scan." + name, getattr(scan, name)))

    tracer.patch(potts, "f_map",
                 tracer.fine_wrapper("potts.f_map", potts.f_map))
    for name in ("propagate_fields", "check_consistency"):
        tracer.patch(potts, name,
                     tracer.span_wrapper("potts." + name, getattr(potts, name)))
    build = tracer.span_wrapper("tree.build_tree", tree.build_tree)
    tracer.patch(tree, "build_tree", build)
    tracer.patch(potts, "build_tree", build)

    measure = potts.finite_volume_measure
    warm = tracer.seen

    def finite_volume_measure(tr, boundary_fields, params):
        # the first call per (k, depth, q) also builds the cached tables
        key = (tr.k, tr.depth, params.q)
        cold = key not in warm
        warm.add(key)
        name = "potts.finite_volume_measure" + (".cold" if cold else "")
        tracer.open(name)
        try:
            return measure(tr, boundary_fields, params)
        finally:
            tracer.close()
            if not cold:
                extra["potts.configs_enumerated"] += params.q ** tr.n_vertices

    tracer.patch(potts, "finite_volume_measure", finite_volume_measure)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, cli_records: list) -> dict:
    """Per-layer values, keyed by metric name, with their units."""
    c, t, s, x = tracer.calls, tracer.time_s, tracer.self_s, tracer.extra
    fvm = "potts.finite_volume_measure"
    values = {
        "period2.h_scalar.calls": (c["period2.h_scalar"], "count"),
        "period2.h_scalar.time_s": (t["period2.h_scalar"], "s"),
        "period2.f_scalar.calls": (c["period2.f_scalar"], "count"),
        "period2.domain_bounds.calls": (c["period2.domain_bounds"], "count"),
        "solver.find_h_roots.calls": (c["solver.find_h_roots"], "count"),
        "solver.find_h_roots.self_s": (s["solver.find_h_roots"], "s"),
        "solver.h_evals_per_row": (
            _ratio(c["period2.h_scalar"], x["scan.rows"]), "count"),
        "solver.scan_brackets.calls": (c["solver.scan_brackets"], "count"),
        "solver.brackets_found": (x["solver.brackets_found"], "count"),
        "solver.bisect.calls": (c["solver.bisect"], "count"),
        "solver.bisect.h_evals": (
            tracer.inside[("solver.bisect", "period2.h_scalar")], "count"),
        "solver.useful_root_ratio": (
            _ratio(x["solver.roots_reported"], c["solver.bisect"]), "ratio"),
        "scan.scan_theta.self_s": (s["scan.scan_theta"], "s"),
        "scan.rows": (x["scan.rows"], "count"),
        "scan.emit_csv.time_s": (t["scan.emit_csv"], "s"),
        "scan.parse_csv.time_s": (t["scan.parse_csv"], "s"),
        "potts.f_map.calls": (c["potts.f_map"], "count"),
        "potts.f_map.time_s": (t["potts.f_map"], "s"),
        "potts.propagate_fields.self_s": (s["potts.propagate_fields"], "s"),
        "tree.build_tree.calls": (c["tree.build_tree"], "count"),
        "tree.build_tree.time_s": (t["tree.build_tree"], "s"),
        "potts.finite_volume_measure.calls": (c[fvm], "count"),
        "potts.finite_volume_measure.time_s": (t[fvm], "s"),
        "potts.finite_volume_measure.cold_s": (t[fvm + ".cold"], "s"),
        "potts.configs_enumerated": (x["potts.configs_enumerated"], "count"),
        "potts.configs_per_s": (
            _ratio(x["potts.configs_enumerated"], t[fvm]), "1/s"),
        "potts.check_consistency.self_s": (s["potts.check_consistency"], "s"),
    }
    values.update(cli_metrics(cli_records))
    return values


def cli_metrics(records: list) -> dict:
    """Per-invocation medians of the stub's timings, and total stdout."""
    def med(xs):
        return median(xs) if xs else 0.0

    main_by_sub = defaultdict(list)
    for r in records:
        main_by_sub[r["sub"]].append(r["main_s"])
    values = {
        "cli.interpreter_s": (med([r["interpreter_s"] for r in records]), "s"),
        "cli.import_s": (med([r["import_s"] for r in records]), "s"),
    }
    for sub in CLI_SUBCOMMANDS:
        values["cli.main_s." + sub] = (med(main_by_sub[sub]), "s")
    values["cli.stdout_bytes"] = (sum(r["stdout_bytes"] for r in records), "bytes")
    return values
