"""Command-line front end: construct, lift, verify, export.

`construct` and `lift` write JSON design files; `export` is the one command
that converts them to CSV or scatter data.  A non-default field modulus comes
from the `modulus` key of a `--chain` descriptor.  `METHODS` is the one place
a construct method is described.  `_file_claims` is the one reader of a
design file's claims for `verify` and `lift`: it loads the file's chain and
returns the claims with their oracle inputs; the file types that may carry
each key come from `io._FIELDS`, and a key on another type exits 2.

Every job starts a fresh interpreter, so `arrays`, `spacefill` and `verify`
are lazily loaded module objects (`_lazy`): a job compiles and runs each one
only when its command first reads from it.  `verify` loads `verify` alone,
`export` none of the three, `construct` `arrays` and `verify`, `lift` all three.

Exit codes: 0 on success, 2 on bad parameters, malformed inputs or an
unwritable output path, 3 when a brute-force oracle rejects a claim.  Every
randomized stage records its seed and permutations in the output file, and
repeated runs of the same job produce byte-identical files.  NESTFILL_SEED
supplies the default seed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__
from .errors import NestfillError, SpecError, VerificationFailure
from .groups import (
    GroupChain,
    chain_field_tower,
    chain_from_descriptor,
    chain_subfield_tower,
    is_int,
)
from .io import (
    _FIELDS,
    DesignFile,
    _write_text,
    export_scatter,
    load,
    read_json,
    save_csv,
    save_json,
    symbols_for,
)
from .kronecker import GroupMatrix


def _lazy(name: str):
    """The package module `name`, registered in `sys.modules` now but run only
    when one of its attributes is first read; a module already loaded is
    returned as it is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# Never `from .arrays import ...` these three here: an import statement reads
# the registered module's `__spec__`, which loads it at once.
arrays, spacefill, verify = _lazy("arrays"), _lazy("spacefill"), _lazy("verify")


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NESTFILL_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise SpecError(f"NESTFILL_SEED must be an integer, got {env!r}") from None


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise SpecError(f"expected comma-separated integers, got {text!r}") from None


def _refuse_unread(args, names, where: str) -> None:
    """Refuse any option of `names` that was given, since it is not read `where`."""
    for name in names:
        if getattr(args, name) not in (None, []):
            raise SpecError(f"--{name.replace('_', '-')} is not read {where}")


def _resolve_chain(args, tower) -> GroupChain:
    if args.chain is not None:
        _refuse_unread(args, ("p", "u"), "beside --chain")
        return chain_from_descriptor(read_json(args.chain, "chain file"))
    if args.p is None or not args.u:
        raise SpecError("give either --chain FILE or both --p and --u")
    return tower(args.p, _parse_int_list(args.u))


def _load_input_design(path, chain: GroupChain, levels: int, want: str):
    design = load(path)
    if design.type != want:
        raise SpecError(f"input {path} has type {design.type!r}; {want!r} is expected there")
    if design.s and design.s != levels:
        raise SpecError(f"input {path} declares s={design.s}, but {levels} levels "
                        f"are expected there")
    rows = GroupMatrix(design.rows, chain.group)
    if want == "dm":
        return arrays.DifferenceMatrix(rows)
    return arrays.OrthogonalArray(rows, levels, design.t_claimed or 2)


def _report_text(reports, **head) -> str:
    """The JSON report of `reports` (the `head` keys, `passed`, `checks`) as
    written by `construct` and `verify`."""
    payload = {**head, "passed": all(r.passed for r in reports),
               "checks": [r.to_dict() for r in reports]}
    return json.dumps(payload, indent=2) + "\n"


def _design_file(matrix: GroupMatrix, chain: GroupChain, method: str, params: dict,
                 claim: verify.Claim) -> DesignFile:
    """A constructed matrix over `chain` with its provenance and the
    annotations of the one claim it records, which `_file_claims` reads back."""
    kind = "dm" if claim.kind == "nested-dm" else "oa"
    annotations = {} if kind == "dm" else {"t_claimed": claim.strength}
    if claim.kind == "sliced":
        annotations.update(slice_size=claim.size, collapse_layer=claim.layers[0])
    else:
        annotations["layer_prefixes"] = list(claim.rows)
    rows = matrix.codes()
    return DesignFile(
        type=kind, rows=rows, s=chain.top_size, chain=chain.descriptor(),
        meta={"tool": "nestfill", "version": __version__, "method": method,
              "params": params},
        symbols=symbols_for(chain, rows), **annotations,
    )


def _file_claims(design: DesignFile) -> tuple[list, dict, Optional[GroupChain]]:
    """The claims `design` records (README "Claims"), the `check_claims`
    keyword inputs they are checked with, and the chain whose codes its rows
    hold, None where they are checked as integer levels.  This is the one
    place that loads a file's chain and reads its type; an annotation that
    cannot be checked in full, or that `_FIELDS` does not allow on its file
    type, is a SpecError."""
    chain = design.load_chain()
    for key, (_, _, types) in _FIELDS.items():
        if getattr(design, key) is not None and design.type not in types:
            raise SpecError(f"{design.type!r} files cannot carry {key!r}; "
                            f"only {'/'.join(types)} files do")
    n = design.n
    if design.type == "lh":
        claims = [verify.Claim("lh")]
        for grid in design.grids or []:
            g = grid["grid"]
            if "rows" in grid:
                if grid["rows"] > n:
                    raise SpecError(f"grid claim on the first {grid['rows']} rows of a "
                                    f"{n}-row design")
                claims.append(verify.Claim(
                    "strat", f"stratification[first {grid['rows']} rows, g={g}]",
                    (0, grid["rows"]), strength=g))
            else:
                size = _slice_size(grid["slice_size"], n)
                claims.append(verify.Claim(
                    "strat", f"stratification[slices of {size} rows, g={g}]",
                    strength=g, size=size))
        if design.scale not in (None, n):  # a Latin hypercube holds the values 0..n-1
            raise SpecError(f"scale {design.scale} of a Latin hypercube is not its row "
                            f"count {n}")
        return claims, {"levels": [n]}, None
    if chain is None and design.type != "design" and (
            design.type == "dm" or design.layer_prefixes or design.slice_size
            or design.collapse_layer):
        raise SpecError(f"the claims of this {design.type!r} file need a 'chain' to be checked")
    t = design.t_claimed or 2
    if design.type == "design" or chain is None:
        return ([verify.Claim("oa", strength=t) if design.s else verify.Claim("lh")],
                {"levels": [design.s]}, None)
    layers = tuple(range(1, chain.layers + 1))
    stops = tuple(design.layer_prefixes or ())
    if stops:
        if len(stops) != chain.layers:
            raise SpecError(f"{len(stops)} layer prefixes for a {chain.layers}-layer chain")
        if any(b <= a for a, b in zip(stops, stops[1:])):
            raise SpecError(f"layer prefixes {list(stops)} are not strictly increasing")
        if stops[-1] != n:
            raise SpecError(f"last layer prefix {stops[-1]} is not the row count {n}")
    if design.type == "dm":
        claims = [verify.Claim("nested-dm", rows=stops, layers=layers) if stops
                  else verify.Claim("dm")]
    else:
        if t > design.m:  # the oracle refuses it too, but lift runs no oracle on its input
            raise SpecError(f"strength {t} exceeds column count {design.m}")
        claims = [verify.Claim("nested", rows=stops, layers=layers, strength=t)
                  if stops else verify.Claim("oa", strength=t)]
        if design.slice_size or design.collapse_layer:
            if not (design.slice_size and design.collapse_layer):
                raise SpecError("a sliced claim needs both 'slice_size' and 'collapse_layer'")
            if design.collapse_layer > chain.layers:
                raise SpecError(f"claim 'sliced' names a layer outside 1..{chain.layers}")
            claims.append(verify.Claim("sliced", layers=(design.collapse_layer,), strength=t,
                                       size=_slice_size(design.slice_size, n)))
    if design.s not in (None, chain.top_size):
        raise SpecError(f"s={design.s} is not the chain's top size {chain.top_size}")
    return claims, chain.oracle_inputs(), chain


def _slice_size(size: int, n: int) -> int:
    if n % size:
        raise SpecError(f"slice size {size} does not divide the {n} rows of the design")
    return size


class Method(NamedTuple):
    """A construct method: the options it reads beside --chain/--p/--u/--out, in its
    builder's order; the tower --p/--u name; its --input type, count (None: one per
    layer) and levels of input i; each file's stem tail ("" is --out) and claim."""
    reads: tuple
    build: Callable
    tower: Callable = chain_field_tower
    input: str = "oa"
    count: Optional[int] = None
    levels: Callable = lambda chain, i: len(chain.transversal_codes(i))
    writes: tuple = ("",)
    claim: Callable = lambda family: family.nested


# each builder looks `construct_*` up on `arrays` when called, so building
# the table loads no construction code and a rebound builder is the one called
METHODS = {
    "rh-noa": Method(("k", "columns"), lambda *a: arrays.construct_noa_rh(*a)),
    "subfield-noa": Method(("k", "columns"), lambda *a: arrays.construct_noa_subfield(*a),
                           chain_subfield_tower),
    "bush-noa": Method(("k",), lambda *a: arrays.construct_noa_bush(*a), chain_subfield_tower),
    "ndm-product": Method(("input",), lambda chain, a: arrays.construct_from_ndm(
        chain, arrays.OrthogonalArray(a[0].matrix, chain.top_size, 2)), count=1,
        levels=lambda chain, i: chain.top_size, writes=("-dm", "")),
    "kron-soa": Method(("input",), lambda chain, a: arrays.construct_soa_kron(a[1], a[0], chain),
                       count=2, claim=lambda family: family.sliced[0]),
    "kron-noa": Method(("input",), lambda chain, a: arrays.construct_noa_kron_multi(a, chain)),
    "kron-ndm": Method(("input",), lambda chain, a: arrays.construct_ndm_kron(a, chain),
                       input="dm"),
}


def cmd_construct(args) -> int:
    name, method = args.method, METHODS[args.method]
    _refuse_unread(args, [o for o in ("input", "k", "columns") if o not in method.reads],
                   f"by {name}")
    chain = _resolve_chain(args, method.tower)
    params = {"p": getattr(chain, "p", None), "u": getattr(chain, "u_chain", None)
              and list(chain.u_chain), "k": args.k, "chain": chain.descriptor()}
    if "k" in method.reads and args.k is None:
        raise SpecError(f"--k is required for {name}")
    given = {"k": args.k, "columns": None}
    if args.columns is not None:
        given["columns"] = params["columns"] = [_parse_int_list(chunk)
                                                for chunk in args.columns.split(";")]
    if (n := method.count) and len(args.input) != n:
        raise SpecError(f"{name} takes exactly {('one', 'two')[n - 1]} --input "
                        f"array{'s' * (n > 1)}")
    if not n and "input" in method.reads and len(args.input) != chain.layers:
        what = "difference matrix" if method.input == "dm" else "array"
        raise SpecError(f"need one {what} per chain layer ({chain.layers}), "
                        f"got {len(args.input)}")
    given["input"] = [_load_input_design(p, chain, method.levels(chain, i), method.input)
                      for i, p in enumerate(args.input, start=1)]
    built = method.build(chain, *(given[o] for o in method.reads))
    families = built if isinstance(built, tuple) else (built,)
    reports, base = families[-1].verification, Path(args.out)
    written = []  # removed again if a later write fails
    try:
        for tail, family in zip(method.writes, families):
            design = _design_file(family.top, chain, name + tail, params, method.claim(family))
            written.append(save_json(design, base.parent / (base.stem + tail + base.suffix)
                                     if tail else args.out))
        out_path = written[-1]
        written.append(_write_text(out_path.with_suffix(out_path.suffix + ".verify.json"),
                                   [_report_text(reports)], "verification report"))
    except SpecError:
        for path in written:
            path.unlink()
        raise
    print(f"wrote {out_path} ({design.type}, {design.n}x{design.m}); "
          f"{len(reports)} check{'s' * (len(reports) != 1)} passed")
    return 0


def _load_family(design: DesignFile) -> arrays.NestedFamily:
    if design.type != "oa":
        raise SpecError(f"cannot lift a {design.type!r} design file; lift needs an 'oa' file")
    if not design.chain:
        raise SpecError("design file carries no chain; cannot lift")
    if not design.layer_prefixes:
        raise SpecError("design file carries no layer prefixes; cannot lift")
    claims, _, chain = _file_claims(design)
    return arrays.NestedFamily(chain, GroupMatrix(design.rows, chain.group), claims[0])


def _load_permutations(path, kind: str, chain: GroupChain):
    data = read_json(path, "permutation file")
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise SpecError(f"permutation file {path} is not of kind {kind!r}")
    values = data.get("values")
    if not isinstance(values, list) or not all(
        isinstance(v, list) and all(map(is_int, v)) for v in values
    ):
        raise SpecError(f"permutation file {path} needs 'values': a list of integer lists")
    cls = spacefill.NestedPermutation if kind == "nested" else spacefill.SlicedPermutation
    return [cls(tuple(v), tuple(chain.sizes)) for v in values]


def cmd_lift(args) -> int:
    _refuse_unread(args, ("perms",) if args.mode == "grouped" else ("i", "j", "group_order"),
                   f"in {args.mode} mode")
    if args.perms is not None and args.stage == "relabel-only":
        _refuse_unread(args, ("seed",), "by a relabel-only lift with --perms")
    design = load(args.design)
    family = _load_family(design)
    chain = family.chain
    seed = _default_seed(args)
    m = family.top.n_cols
    if args.mode in ("nested", "sliced"):
        gen, tag, build = {
            "nested": (spacefill.gen_nested_permutation, "np", spacefill.build_nsfd),
            "sliced": (spacefill.gen_sliced_permutation, "sp", spacefill.build_ssfd_multi),
        }[args.mode]
        if args.perms is not None:
            perms = _load_permutations(args.perms, args.mode, chain)
        else:
            perms = [gen(chain.sizes, seed, tag=f"{tag}:{c}") for c in range(m)]
        lifted = build(family, perms, seed=seed, stage=args.stage)
    else:  # grouped
        if args.i is None or args.j is None:
            raise SpecError("grouped mode needs --i and --j")
        order = None if args.group_order is None else _parse_int_list(args.group_order)
        lifted = spacefill.build_ssfd_grouped(
            family, i=args.i, j=args.j, group_order=order, seed=seed,
            stage=args.stage,
        )
    meta = {"tool": "nestfill", "version": __version__, "method": f"lift-{args.mode}",
            "source": design.meta, "stage": args.stage}
    if args.stage == "relabel-only":
        fields = dict(type="design", rows=lifted.design, s=lifted.scale,
                      t_claimed=design.t_claimed, layer_prefixes=design.layer_prefixes,
                      slice_size=design.slice_size)
    else:
        fields = dict(type="lh", rows=lifted.lifted, scale=lifted.n, grids=lifted.grids,
                      seeds={"lift": seed})
    out = DesignFile(**fields, chain=design.chain, permutations=lifted.permutations or None,
                     meta=meta)
    out_path = save_json(out, args.out)
    print(f"wrote {out_path} ({out.type}, {out.n}x{out.m})")
    return 0


def verify_design(design: DesignFile) -> list:
    """Run every oracle the file's annotations claim."""
    claims, inputs, chain = _file_claims(design)
    rows = design.rows if chain is None else GroupMatrix(design.rows, chain.group).code_rows
    reports = verify.check_claims(rows, claims, **inputs)
    if chain is None:
        return list(reports)
    return [r.with_levels(chain.group.text_code) for r in reports]


def cmd_verify(args) -> int:
    design = load(args.design)
    reports = verify_design(design)
    text = _report_text(reports, design=str(args.design))
    if args.out:
        _write_text(args.out, [text], "verification report")
    else:
        sys.stdout.write(text)
    for r in reports:
        print(r.message(), file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 3


def cmd_export(args) -> int:
    design = load(args.design)
    if args.format == "scatter":
        paths = export_scatter(design, args.out)
        print("\n".join(str(p) for p in paths))
        return 0
    path = (save_csv if args.format == "csv" else save_json)(design, args.out)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestfill",
        description="Construct, lift, verify and export nested/sliced designs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a design and verify it")
    c.add_argument("--method", required=True, choices=tuple(METHODS))
    c.add_argument("--p", type=int, help="prime modulus for tower chains")
    c.add_argument("--u", help="comma-separated layer degrees, e.g. 1,2,3")
    c.add_argument("--chain", help="JSON file with a chain descriptor")
    c.add_argument("--k", type=int, help="number of independent columns")
    c.add_argument("--columns", help="explicit generator columns as code lists, e.g. '1,0;0,1;1,1'")
    c.add_argument("--input", action="append", default=[],
                   help="input design file (repeat in layer order)")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_construct)

    l = sub.add_parser("lift", help="relabel and lift a design to a space-filling one")
    l.add_argument("--design", required=True)
    l.add_argument("--mode", required=True, choices=("nested", "sliced", "grouped"))
    l.add_argument("--stage", choices=("full", "relabel-only"), default="full")
    l.add_argument("--perms", help="JSON file: {kind, values: [[...], ...]}")
    l.add_argument("--seed", type=int)
    l.add_argument("--i", type=int, help="slice granularity layer (grouped mode)")
    l.add_argument("--j", type=int, help="collapse layer (grouped mode)")
    l.add_argument("--group-order", help="comma-separated layer-j codes (grouped mode)")
    l.add_argument("--out", required=True)
    l.set_defaults(func=cmd_lift)

    v = sub.add_parser("verify", help="re-run every oracle a design file claims")
    v.add_argument("--design", required=True)
    v.add_argument("--out", help="write the JSON report here instead of stdout")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="convert a design file")
    e.add_argument("--design", required=True)
    e.add_argument("--format", required=True, choices=("json", "csv", "scatter"))
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except NestfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
