"""The simpson3 calls the traced run wraps, and the per-layer metrics.

Every wrapped binding is one the package (or the benchmark) calls through
at run time, so a wrapper sees each call.  Span names are
``<module>.<layer>``; each gives ``<name>_calls``, ``<name>_s`` (busy) and
``<name>_self_s``, and a few layers add counts taken from their results.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from simpson3 import cli, experiments, feasibility, symmetry, tables, triangulation

from spans import LayerTotals, Span, Tracer, has_ancestor, layer_totals

CATALOG_BUILD = "triangulation.catalog_build"

KINDS = (
    CATALOG_BUILD,
    "triangulation.batch",
    "triangulation.exact",
    "triangulation.oracle",
    "tables.form_signs",
    "symmetry.orbit_classes",
    "symmetry.canonical",
    "symmetry.apply",
    "feasibility.obstruction",
    "experiments.mc3d",
    "experiments.mc2d",
    "experiments.sweep",
    "experiments.optimize_key",
    "experiments.optimizer",
    "experiments.verify",
    "experiments.pool_fill",
    "cli.main",
)

COUNTS = (
    "triangulation.batch_rows",
    "triangulation.batch_discards",
    "triangulation.exact_degenerate",
    "experiments.optimizer_nfev",
    "experiments.optimizer_zero_loss",
    "experiments.witness_per_restart",
    "experiments.verify_failed",
    "experiments.backstop_rows",
)

METRIC_UNITS: dict[str, str] = {}
for _kind in KINDS:
    METRIC_UNITS[f"{_kind}_calls"] = "count"
    METRIC_UNITS[f"{_kind}_s"] = "s"
    METRIC_UNITS[f"{_kind}_self_s"] = "s"
for _name in COUNTS:
    METRIC_UNITS[_name] = "ratio" if _name.endswith("_per_restart") else "count"


def _batch_counts(args, ids) -> dict:
    return {"rows": int(len(ids)), "discards": int(np.count_nonzero(ids == 0))}


def _optimizer_counts(args, result) -> dict:
    return {"nfev": int(result.nfev), "zero": bool(result.fun == 0.0)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    tracer.patch_function(triangulation, "_build_catalog", CATALOG_BUILD)
    tracer.patch_function(
        triangulation, "classify_heights_batch", "triangulation.batch", _batch_counts
    )
    tracer.patch_function(triangulation, "classify_exact", "triangulation.exact")
    tracer.patch_function(triangulation, "classify_float_oracle", "triangulation.oracle")
    tracer.patch_function(tables, "eval_form_signs", "tables.form_signs")
    tracer.patch_function(symmetry, "orbit_classes", "symmetry.orbit_classes")
    tracer.patch_function(symmetry, "canonical_class_of", "symmetry.canonical")
    tracer.patch_function(symmetry, "apply", "symmetry.apply")
    tracer.patch_function(symmetry, "apply_table", "symmetry.apply")
    tracer.patch_function(feasibility, "obstruction", "feasibility.obstruction")
    tracer.patch_function(feasibility, "obstruction_triple", "feasibility.obstruction")
    tracer.patch_function(experiments, "estimate_3d_conversion", "experiments.mc3d")
    tracer.patch_function(experiments, "estimate_2d_reversal", "experiments.mc2d")
    tracer.patch_attr(scipy.optimize, "minimize", "experiments.optimizer", _optimizer_counts)
    tracer.patch_attr(
        experiments.Witness, "verify", "experiments.verify", lambda a, ok: {"failed": not ok}
    )
    tracer.patch_attr(experiments.ConversionSearch, "ensure_pools", "experiments.pool_fill")
    tracer.patch_attr(experiments.ConversionSearch, "_sweep", "experiments.sweep")
    tracer.patch_attr(
        experiments.ConversionSearch,
        "_optimize_key",
        "experiments.optimize_key",
        lambda a, r: {"witness": r[0] is not None},
    )
    tracer.patch_function(cli, "main", "cli.main")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of ``METRIC_UNITS``, zero where a layer did no work."""
    totals = layer_totals(spans)
    out: dict[str, float] = {}
    for kind in KINDS:
        t = totals.get(kind, LayerTotals())
        out[f"{kind}_calls"] = t.calls
        out[f"{kind}_s"] = t.busy_s
        out[f"{kind}_self_s"] = t.self_s
    rows = discards = degenerate = nfev = zero = failed = backstop = witnesses = 0
    for i, s in enumerate(spans):
        if s.name == "triangulation.batch" and "rows" in s.counts:
            rows += s.counts["rows"]
            discards += s.counts["discards"]
            if has_ancestor(spans, i, "experiments.sweep"):
                backstop += s.counts["rows"]
        elif s.name == "triangulation.exact":
            degenerate += s.counts.get("raised") == "DegenerateTable"
        elif s.name == "experiments.optimizer" and "nfev" in s.counts:
            nfev += s.counts["nfev"]
            zero += s.counts["zero"]
        elif s.name == "experiments.verify":
            failed += bool(s.counts.get("failed", False))
        elif s.name == "experiments.optimize_key":
            witnesses += bool(s.counts.get("witness", False))
    restarts = out["experiments.optimizer_calls"]
    out.update(
        {
            "triangulation.batch_rows": rows,
            "triangulation.batch_discards": discards,
            "triangulation.exact_degenerate": degenerate,
            "experiments.optimizer_nfev": nfev,
            "experiments.optimizer_zero_loss": zero,
            "experiments.witness_per_restart": witnesses / restarts if restarts else 0.0,
            "experiments.verify_failed": failed,
            "experiments.backstop_rows": backstop,
        }
    )
    return out
