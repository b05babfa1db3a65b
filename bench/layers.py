"""Which program functions the traced pass wraps, and how their spans and
counts become per-layer metrics.

Every time metric is a sum of span self times, so a layer's time excludes
the wrapped layers it calls into; a function that is only counted (the
field and omega-ring arithmetic) is charged to its caller's self time.
Every count is computed from call arguments, results or file sizes, so it
repeats exactly between runs of the same commit.
"""

from __future__ import annotations

import os
from math import comb

from spans import JOB_SPAN, Recorder, self_times

PACKAGE = "nestfill"


def _kron_entries(args, kwargs, result):
    return {"kronecker.entries": result.n_rows * result.n_cols}


def _product_terms(args, kwargs, result):
    gen = result.generator
    return {"arrays.product_terms": result.top.n_rows * gen.m * gen.k}


def _oa_work(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    t = args[2] if len(args) > 2 else kwargs["t"]
    n = len(rows)
    m = len(rows[0]) if n else 0
    return {"verify.oa_calls": 1, "verify.rows_counted": n * comb(m, t)}


def _one(counter):
    return lambda args, kwargs, result: {counter: 1}


def _bytes_written(args, kwargs, result):
    paths = result if isinstance(result, list) else [result]
    return {"io.bytes_written": sum(os.path.getsize(p) for p in paths)}


def _bytes_read(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"io.bytes_read": os.path.getsize(path)}


# span target -> (self-time bucket, optional count function)
SPANS = {
    "cli.main": ("cli.self_s", None),
    "cli.cmd_construct": ("cli.self_s", None),
    "cli.cmd_lift": ("cli.self_s", None),
    "cli.cmd_verify": ("cli.self_s", None),
    "cli.cmd_export": ("cli.self_s", None),
    "cli.verify_design": ("cli.self_s", None),
    "io.save_json": ("io.save_s", _bytes_written),
    "io.save_csv": ("io.save_s", _bytes_written),
    "io.export_scatter": ("io.save_s", _bytes_written),
    "io.load": ("io.load_s", _bytes_read),
    "io.symbols_for": ("io.symbols_s", None),
    "galois.Field.__init__": ("galois.field_init_s", None),
    "groups.chain_field_tower": ("groups.chain_build_s", None),
    "groups.chain_subfield_tower": ("groups.chain_build_s", None),
    "groups.chain_omega_ring": ("groups.chain_build_s", None),
    "groups.chain_from_descriptor": ("groups.chain_build_s", None),
    "groups.GroupChain.projection_map": ("groups.projection_s", None),
    "groups.GroupChain.projection_table": ("groups.projection_s", None),
    "groups.GroupChain.enumerate_ordered": ("groups.projection_s", None),
    "groups.GroupChain.layer_elements": ("groups.projection_s", None),
    "groups.SubfieldTowerChain.layer_elements": ("groups.projection_s", None),
    "kronecker.GroupMatrix.__init__": ("kronecker.self_s", None),
    "kronecker.kron_sum": ("kronecker.self_s", _kron_entries),
    "kronecker.col_kron_sum": ("kronecker.self_s", _kron_entries),
    "arrays.generator_matrix": ("arrays.self_s", None),
    "arrays.full_factorial": ("arrays.self_s", None),
    "arrays.rao_hamming_oa": ("arrays.self_s", None),
    "arrays.build_h_tower": ("arrays.self_s", None),
    "arrays.bush_matrix": ("arrays.self_s", None),
    "arrays.construct_noa_rh": ("arrays.self_s", _product_terms),
    "arrays.construct_noa_subfield": ("arrays.self_s", _product_terms),
    "arrays.construct_noa_bush": ("arrays.self_s", _product_terms),
    "arrays.construct_from_ndm": ("arrays.self_s", None),
    "arrays.construct_soa_kron": ("arrays.self_s", None),
    "arrays.construct_noa_kron_multi": ("arrays.self_s", None),
    "arrays.construct_ndm_kron": ("arrays.self_s", None),
    "verify.check_oa_strength": ("verify.oa_s", _oa_work),
    "verify.check_nested": ("verify.nested_s", None),
    "verify.check_sliced": ("verify.sliced_s", None),
    "verify.check_nested_dm": ("verify.dm_s", None),
    # verify.delta_s when called directly from a constructor (see layer_metrics)
    "verify.check_difference_matrix": ("verify.dm_s", _one("verify.dm_calls")),
    "verify.check_stratification": ("verify.strat_s", _one("verify.strat_calls")),
    "verify.check_latin_hypercube": ("verify.strat_s", _one("verify.strat_calls")),
    "spacefill.build_nsfd": ("spacefill.relabel_s", None),
    "spacefill.build_ssfd_multi": ("spacefill.relabel_s", None),
    "spacefill.build_ssfd_grouped": ("spacefill.relabel_s", None),
    "spacefill.compose_qual_quant": ("spacefill.relabel_s", None),
    "spacefill.oa_based_lh": ("spacefill.lh_s", None),
    "spacefill.gen_nested_permutation": ("spacefill.perm_s", None),
    "spacefill.gen_sliced_permutation": ("spacefill.perm_s", None),
    "spacefill.is_nested_permutation": ("spacefill.perm_s", None),
    "spacefill.is_sliced_permutation": ("spacefill.perm_s", None),
}

# hot arithmetic: counted, never timed on its own
COUNTS = {
    "galois.Field.mul_codes": "galois.mul_calls",
    "galois.Field.add_codes": "galois.add_calls",
    "galois.Field.sub_codes": "galois.add_calls",
    "groups.OmegaElement.__add__": "groups.omega_add_calls",
}

VERIFY_TIMES = sorted({b for b, _ in SPANS.values() if b.startswith("verify.")} | {"verify.delta_s"})
TIME_METRICS = sorted({bucket for bucket, _ in SPANS.values()} | {"verify.delta_s"}) + [
    "verify.self_s",  # every oracle's self time: the sum of VERIFY_TIMES
    "trace.unattributed_s",
]
COUNT_METRICS = sorted(
    set(COUNTS.values())
    | {"kronecker.entries", "arrays.product_terms", "verify.oa_calls", "verify.rows_counted",
       "verify.dm_calls", "verify.strat_calls", "io.bytes_written", "io.bytes_read"}
)


def install(rec: Recorder) -> None:
    """Wrap every SPANS and COUNTS target of the already imported package."""
    for target, (_, measure) in SPANS.items():
        rec.install(PACKAGE, target, lambda fn, t=target, m=measure: rec.span_wrapper(fn, t, m))
    for target, counter in COUNTS.items():
        rec.install(PACKAGE, target, lambda fn, c=counter: rec.count_wrapper(fn, c))


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer self times (s) and counts of everything recorded so far."""
    out = {name: 0.0 for name in TIME_METRICS}
    for name in COUNT_METRICS:
        out[name] = rec.counts.get(name, 0)
    spans = rec.spans
    for span, own in zip(spans, self_times(spans)):
        if span.name == JOB_SPAN:
            out["trace.unattributed_s"] += own
            continue
        bucket = SPANS[span.name][0]
        if span.name == "verify.check_difference_matrix" and span.parent is not None \
                and spans[span.parent].name.startswith("arrays."):
            bucket = "verify.delta_s"
        out[bucket] += own
    out["verify.self_s"] = sum(out[k] for k in VERIFY_TIMES)
    return out
