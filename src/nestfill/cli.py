"""Command-line front end: construct, lift, verify, export.

`construct` and `lift` write JSON design files; `export` is the one command
that converts them to CSV or scatter data.  A non-default field modulus comes
from the `modulus` key of a `--chain` descriptor.  `METHODS` is the one place
a construct method is described.  This module parses, loads and dispatches;
each rule about the data is kept by the module that owns it.  Every claim
rule is `io`'s (`io.annotations` writes claims, `io.DesignFile.claims` reads
them back, given the file's chain); `_file_claims`, the one reader of a
file's claims for `verify` and `lift`, builds that chain and picks the
oracle inputs.  A file that breaks any claim rule exits 2.

Every job starts a fresh interpreter, so every package module but `errors`
and `io` is a lazily loaded module object (`_lazy`): a job compiles and runs
each one only when its command first reads from it.  `export` runs none of
them; `verify` runs `verify`, and `galois`, `groups` and `kronecker` only for
a file with a `chain` (never one that `lift` wrote); `lift` runs
`galois`, `groups`, `kronecker` and `spacefill`, as the two records it reads
(`Claim`, `NestedFamily`) live in `errors`; `construct` runs all but
`spacefill`.  The process entry points, the `nestfill` console script and
`python -m nestfill.cli`, call `run`, which freezes the heap as the job ends
so the interpreter's exit collections skip what the job leaves; `main`, which
tests and library callers call, never freezes it.

Exit codes: 0 on success, 2 on bad parameters, malformed inputs or an
unwritable output path, 3 when a brute-force oracle rejects a claim.  Every
randomized stage records its seed and permutations in the output file, and
repeated runs of the same job produce byte-identical files; `--seed`, 0 when
not given, is the one seed a job reads.  A `--perms` file is read as integer
lists, which the lift checks against the design's chain; without one, the
lift draws its permutations from the seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__
from .errors import NestedFamily, NestfillError, SpecError, VerificationFailure, is_int
from .io import (DesignFile, annotations, export_scatter, load, read_json, save_csv, save_json,
                 symbols_for, write_all, write_text)


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


# Never `from .arrays import ...` these here: an import statement reads the
# registered module's `__spec__`, which loads it at once.
galois, groups, kronecker = _lazy("galois"), _lazy("groups"), _lazy("kronecker")
arrays, spacefill, verify = _lazy("arrays"), _lazy("spacefill"), _lazy("verify")


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


def _resolve_chain(args, tower) -> groups.GroupChain:
    if args.chain is not None:
        _refuse_unread(args, ("p", "u"), "beside --chain")
        return groups.chain_from_descriptor(read_json(args.chain, "chain file"))
    if args.p is None or not args.u:
        raise SpecError("give either --chain FILE or both --p and --u")
    return tower(args.p, _parse_int_list(args.u))


def _load_input_design(path, chain: groups.GroupChain, levels: int, want: str):
    design = load(path)
    if design.type != want:
        raise SpecError(f"input {path} has type {design.type!r}; {want!r} is expected there")
    if design.s and design.s != levels:
        raise SpecError(f"input {path} declares s={design.s}, but {levels} levels "
                        f"are expected there")
    rows = kronecker.GroupMatrix(design.rows, chain.group)
    if want == "dm":
        return arrays.DifferenceMatrix(rows)
    return arrays.OrthogonalArray(rows, levels, design.t_claimed or 2)


def _report_text(reports, **head) -> str:
    """The JSON report of `reports` (the `head` keys, `passed`, `checks`) as
    written by `construct` and `verify`."""
    payload = {**head, "passed": all(r.passed for r in reports),
               "checks": [r.to_dict() for r in reports]}
    return json.dumps(payload, indent=2) + "\n"


def _file_claims(design: DesignFile) -> tuple[list, dict, Optional[groups.GroupChain]]:
    """The claims `design` records (`DesignFile.claims`), their `check_claims`
    keyword inputs, and the chain whose codes its rows hold (None for integer
    levels).  A top-level `chain` means the rows are codes of that chain; this
    is the one place that builds it.  `lh` and `design` files hold integer
    levels, and those `lift` writes carry no `chain` (the base's stays in
    `meta.source_chain`), so they load no group code; an older one that has a
    `chain` still has it built, so a malformed one is refused."""
    chain = groups.chain_from_descriptor(design.chain) if design.chain else None
    if chain is None or design.type in ("lh", "design"):
        return design.claims(), {"levels": [design.s or design.n]}, None
    return design.claims(chain), chain.oracle_inputs(), chain


class Method(NamedTuple):
    """A construct method: the options it reads beside --chain/--p/--u/--out, in its
    builder's order; the tower --p/--u name; its --input type, count (None: one per
    layer) and levels of input i; each file's stem tail ("" is --out) and claim."""
    reads: tuple
    build: Callable
    tower: Callable = lambda *a: groups.chain_field_tower(*a)
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
                           lambda *a: groups.chain_subfield_tower(*a)),
    "bush-noa": Method(("k",), lambda *a: arrays.construct_noa_bush(*a),
                       lambda *a: groups.chain_subfield_tower(*a)),
    "ndm-product": Method(("input",), lambda chain, a: arrays.construct_from_ndm(chain, a[0]),
                          count=1, levels=lambda chain, i: chain.top_size, writes=("-dm", "")),
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
    reports, out = families[-1].verification, Path(args.out)
    writers = []  # one per design file, the last to --out, then the report
    for tail, family in zip(method.writes, families):
        rows = family.top.codes()
        meta = dict(tool="nestfill", version=__version__, method=name + tail, params=params)
        design = DesignFile(**annotations([method.claim(family)]), rows=rows, meta=meta,
                            s=chain.top_size, chain=chain.descriptor(),
                            symbols=symbols_for(chain, rows))
        writers.append(partial(save_json, design,
                               out.parent / (out.stem + tail + out.suffix) if tail else out))
    write_all(writers + [partial(write_text, out.with_suffix(out.suffix + ".verify.json"),
                                 [_report_text(reports)], "verification report")])
    print(f"wrote {out} ({design.type}, {design.n}x{design.m}); "
          f"{len(reports)} check{'s' * (len(reports) != 1)} passed")
    return 0


def _load_family(design: DesignFile) -> NestedFamily:
    if design.type != "oa":
        raise SpecError(f"cannot lift a {design.type!r} design file; lift needs an 'oa' file")
    if not design.chain:
        raise SpecError("design file carries no chain; cannot lift")
    if not design.layer_prefixes:
        raise SpecError("design file carries no layer prefixes; cannot lift")
    claims, _, chain = _file_claims(design)
    return NestedFamily(chain, kronecker.GroupMatrix(design.rows, chain.group), claims[0])


def _load_permutations(path, kind: str) -> list[list[int]]:
    data = read_json(path, "permutation file")
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise SpecError(f"permutation file {path} is not of kind {kind!r}")
    values = data.get("values")
    if not isinstance(values, list) or not all(isinstance(v, list) and all(map(is_int, v))
                                               for v in values):
        raise SpecError(f"permutation file {path} needs 'values': a list of integer lists")
    return values


def cmd_lift(args) -> int:
    """Lift an `oa` file into an `lh` file (or, with `--stage relabel-only`, a
    `design` file).  Its rows are integer levels, not codes of the base's
    chain, so it carries no `chain`: `meta.source_chain` keeps the base's
    descriptor as provenance, beside the base's `meta` in `meta.source`."""
    _refuse_unread(args, ("perms",) if args.mode == "grouped" else ("i", "j", "group_order"),
                   f"in {args.mode} mode")
    if args.perms is not None and args.stage == "relabel-only":
        _refuse_unread(args, ("seed",), "by a relabel-only lift with --perms")
    design = load(args.design)
    family = _load_family(design)
    seed = 0 if args.seed is None else args.seed
    if args.mode in ("nested", "sliced"):
        build = spacefill.build_nsfd if args.mode == "nested" else spacefill.build_ssfd_multi
        perms = None if args.perms is None else _load_permutations(args.perms, args.mode)
        lifted = build(family, perms, seed=seed, stage=args.stage)
    else:  # grouped
        if args.i is None or args.j is None:
            raise SpecError("grouped mode needs --i and --j")
        order = None if args.group_order is None else _parse_int_list(args.group_order)
        lifted = spacefill.build_ssfd_grouped(family, i=args.i, j=args.j, group_order=order,
                                              seed=seed, stage=args.stage)
    meta = {"tool": "nestfill", "version": __version__, "method": f"lift-{args.mode}",
            "source": design.meta, "source_chain": design.chain, "stage": args.stage}
    if args.stage == "relabel-only":
        fields = dict(type="design", rows=lifted.design, s=lifted.scale,
                      t_claimed=design.t_claimed, layer_prefixes=design.layer_prefixes,
                      slice_size=design.slice_size)
    else:
        fields = dict(**annotations(lifted.grids), rows=lifted.lifted, scale=lifted.n,
                      seeds={"lift": seed})
    out = DesignFile(**fields, permutations=lifted.permutations or None, meta=meta)
    out_path = save_json(out, args.out)
    print(f"wrote {out_path} ({out.type}, {out.n}x{out.m})")
    return 0


def verify_design(design: DesignFile) -> list:
    """Run every oracle the file's annotations claim."""
    claims, inputs, chain = _file_claims(design)
    rows = (design.rows if chain is None
            else kronecker.GroupMatrix(design.rows, chain.group).code_rows)
    reports = verify.check_claims(rows, claims, **inputs)
    return list(reports) if chain is None else [r.with_levels(chain.group.text_code)
                                                for r in reports]


def cmd_verify(args) -> int:
    design = load(args.design)
    reports = verify_design(design)
    text = _report_text(reports, design=str(args.design))
    if args.out:
        write_text(args.out, [text], "verification report")
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
    """Run one command.  Its rows are lists and tuples, which hold no reference
    cycles, so it runs without the cyclic garbage collector; the caller's
    setting is restored on every exit, argparse's `SystemExit` included."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except NestfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def run(argv=None) -> int:
    """`main(argv)`, then `gc.freeze()` on every exit, argparse's `SystemExit`
    included: the objects the job leaves move to the permanent generation,
    which the interpreter's exit collections skip, and the OS reclaims them
    with the process; `atexit` and the stdio flushes still run."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
