"""Which spinorlab functions the traced run wraps, and the per-layer metrics it reports."""

from __future__ import annotations

import importlib
import itertools

# metric prefix -> (spinorlab module, attribute).  Each is wrapped in every
# spinorlab namespace that binds it.
MODULE_FUNCTIONS = {
    "cli.read_documents": ("cli", "read_documents"),
    "cli.emit": ("cli", "_emit"),
    "bilinears.bilinears": ("bilinears", "bilinears"),
    "bilinears.fierz_residuals": ("bilinears", "fierz_residuals"),
    "bilinears.aggregate": ("bilinears", "aggregate"),
    "bilinears.is_boomerang": ("bilinears", "is_boomerang"),
    "bilinears.generalized_fierz_residuals": ("bilinears", "generalized_fierz_residuals"),
    "bilinears.aggregate_matrix_residual": ("bilinears", "aggregate_matrix_residual"),
    "bilinears.reconstruct": ("bilinears", "reconstruct"),
    "classify.classify": ("classify", "classify"),
    "mapping.elko_map_conditions": ("mapping", "elko_map_conditions"),
    "mapping.mappability": ("mapping", "mappability"),
    "hopf.column_to_quaternions": ("hopf", "column_to_quaternions"),
    "hopf.quaternions_to_column": ("hopf", "quaternions_to_column"),
    "hopf.column_to_even": ("hopf", "column_to_even"),
    "hopf.even_to_column": ("hopf", "even_to_column"),
    "hopf.even_to_ideal": ("hopf", "even_to_ideal"),
    "hopf.ideal_to_column": ("hopf", "ideal_to_column"),
    "hopf.even_to_quaternions": ("hopf", "even_to_quaternions"),
    "hopf.hopf_map_unnormalized": ("hopf", "hopf_map_unnormalized"),
    "flagdipole.projection_spinor": ("flagdipole", "projection_spinor"),
    "flagdipole.frame_from_bilinears": ("flagdipole", "frame_from_bilinears"),
    "flagdipole.annihilator_residuals": ("flagdipole", "annihilator_residuals"),
    "flagdipole.projector_idempotency_residual": ("flagdipole", "projector_idempotency_residual"),
    "flagdipole.sigma_projector_matrix": ("flagdipole", "sigma_projector_matrix"),
    "flagdipole.sigma_projector": ("flagdipole", "sigma_projector"),
    "flagdipole.class_limit": ("flagdipole", "class_limit"),
}
SPANS = [*MODULE_FUNCTIONS, "cli.json_dumps", "gamma.mv_to_matrix"]
ROOT_SPAN = "cli.main"  # the benchmark's span around each cli.main call

# The per-record entry call of each corpus workload.  The cli namespace makes
# it once per record, in input order, so each such call starts a new item.
RECORD_ENTRY = {
    "classify-mixed": "bilinears.bilinears",
    "mapcheck-mixed": "mapping.elko_map_conditions",
}


def per_layer_names() -> list[str]:
    """Every metric a traced run reports, in BENCHMARK.json order."""
    names = [f"{span}.{kind}" for span in SPANS for kind in ("self_us_per_item", "calls_per_item")]
    return names + [
        "cli.unattributed.self_us_per_item",
        "bilinears.reconstruct.degenerate_share",
        "classify.classify.error_share",
        "algebra.multivector_inits_per_item",
        "algebra.geometric_products_per_item",
        "trace.overhead_share",
    ]


def per_layer_unit(name: str) -> str:
    if name.endswith("self_us_per_item"):
        return "us"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def install(tracer, workload: str) -> None:
    """Wrap every traced function for one traced pass of ``workload``."""
    module = lambda name: importlib.import_module(f"spinorlab.{name}")
    cli = module("cli")
    multivector = module("algebra").Multivector
    counter = itertools.count()
    for name, (mod_name, attr) in MODULE_FUNCTIONS.items():
        item_of = None
        if RECORD_ENTRY.get(workload) == name:
            item_of = {"spinorlab.cli": lambda args: next(counter)}
        elif name in ("cli.read_documents", "cli.emit"):
            item_of = {"spinorlab.cli": lambda args: None}  # batch-level work, no record
        tracer.wrap_function(name, getattr(module(mod_name), attr), item_of)
    tracer.wrap_module_function(
        "cli.json_dumps", cli, "json", "dumps",
        item_of=lambda args: args[0].get("index") if isinstance(args[0], dict) else None,
    )
    tracer.wrap_method("gamma.mv_to_matrix", module("gamma").GammaRep, "mv_to_matrix")
    tracer.count_calls("algebra.multivector_inits", multivector, "__init__")
    tracer.count_calls(
        "algebra.geometric_products", multivector, "__mul__",
        when=lambda args: isinstance(args[1], multivector),
    )
