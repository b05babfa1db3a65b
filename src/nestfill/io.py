"""Design file formats.

JSON is the primary format: one object holding the integer-code rows, the
chain descriptor, structure annotations (layer prefixes, slice size, grid
claims), the seeds and permutations behind any randomized stage, and a
symbol table mapping codes to element text forms.  The header keys are
written with a two-space indent and ``rows`` comes last, one compact row
per line.  Reading takes any JSON layout of the same object, so older files
written one integer per line load unchanged.  CSV carries the same metadata
in exactly one ``# meta=...`` comment line (a second is refused) followed
by an ``x1..xm`` header and the code rows.  Scatter export writes one
two-column CSV per dimension pair.

Serialization is deterministic: fixed key order, no timestamps, so repeated
runs of the same job produce byte-identical files.  Writers stream: a design
file goes to disk as its header and then one row at a time, never as one
whole-file string, and a write that fails removes its partial file.  Scatter
export formats each distinct value once and shares that string between the
cells holding it.

`DesignFile` is the one gate of every annotation rule that needs no chain (a
key its file type may not carry, a grid or slice past the rows, prefixes
that do not rise to n): every reader, `export` and construct's `--input`
included, refuses such a file, and no writer can emit one.  It is also the
one claim codec: `DesignFile.claims` reads the claims a file records, and
every writer records its claims through `annotations`, which refuses a claim
that would read back as another.  Given the chain whose codes the rows
hold, `DesignFile.claims` also applies the three rules that need it.  This
module imports only `errors`, so an `export` job loads no group code: a
file's `chain` stays its JSON descriptor here, and the caller builds the
chain.  `write_all` is the one all-or-nothing writer of a command's files.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Iterable

from . import __version__
from .errors import Claim, Record, SpecError, is_int

FORMAT_NAME = "nestfill-design"


def _positive(v) -> bool:
    return is_int(v) and v >= 1


def _grid(g) -> bool:
    """A grid claim: `grid` and exactly one of `rows` and `slice_size`; any
    other key is a claim no check reads, refused by name."""
    if isinstance(g, dict) and (unknown := g.keys() - {"grid", "rows", "slice_size"}):
        raise SpecError(f"grid entry key {min(unknown, key=str)!r} is not grid, rows or slice_size")
    extent = [g[k] for k in ("rows", "slice_size") if k in g] if isinstance(g, dict) else []
    return len(extent) == 1 and _positive(extent[0]) and _positive(g.get("grid"))


_TYPES = ("oa", "dm", "design", "lh")

# every key a design file may carry, in the order `to_dict` writes it -> (test
# of its value, what the test wants, the file types that may carry it); a key
# on another type is a claim no check reads, which `DesignFile` refuses
_FIELDS = {
    "type": (lambda v: v in _TYPES, "one of oa, dm, design, lh", _TYPES),
    "rows": (lambda v: isinstance(v, list) and all(map(isinstance, v, itertools.repeat(list))),
             "a list of rows", _TYPES),
    "s": (_positive, "a positive integer", ("oa", "dm", "design")),
    "t_claimed": (_positive, "a positive integer", ("oa", "design")),
    "chain": (lambda v: isinstance(v, dict), "an object", _TYPES),
    "layer_prefixes": (lambda v: isinstance(v, list) and all(map(_positive, v)),
                       "a list of positive integers", ("oa", "dm", "design")),
    "slice_size": (_positive, "a positive integer", ("oa", "design")),
    "collapse_layer": (_positive, "a positive integer", ("oa",)),
    "grids": (lambda v: isinstance(v, list) and all(map(_grid, v)),
              "a list of {grid, rows | slice_size} objects of positive integers", ("lh",)),
    "scale": (_positive, "a positive integer", ("lh",)),
    "seeds": (lambda v: isinstance(v, dict), "an object", _TYPES),
    "permutations": (lambda v: isinstance(v, list), "a list", _TYPES),
    "meta": (lambda v: isinstance(v, dict), "an object", _TYPES),
    "symbols": (lambda v: isinstance(v, dict), "an object", _TYPES),
}


def _check_rows(rows) -> None:
    """Refuse an empty, ragged or non-integer design: two passes in C, over
    the row widths and then over the cell types."""
    if not rows or not rows[0]:
        raise SpecError("design has no rows")
    if len(set(map(len, rows))) != 1:
        raise SpecError("ragged design rows")
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        raise SpecError("design rows must hold integer level codes")


class DesignFile(Record):
    """One design file's contents: one keyword field per `_FIELDS` key, None
    where absent (`meta` an empty dict).  Building one applies every
    annotation rule that needs no chain: each given field passes its
    `_FIELDS` test and suits the file type, the rows are checked, and the
    annotations fit them.  So every file a writer emits loads, and only
    the rules that need the chain wait for `claims`.  `to_dict`
    writes the fields after `type` and `rows` in `_fields` order."""

    __slots__ = _fields = tuple(_FIELDS)

    def __init__(self, type: str, rows: list[list[int]], **fields):
        if unknown := fields.keys() - _FIELDS:
            raise TypeError(f"DesignFile got unknown fields {sorted(unknown)}")
        fields.update(type=type, rows=rows)
        for key, (valid, want, types) in _FIELDS.items():
            value = fields.get(key)
            if value is not None and not valid(value):
                raise SpecError(f"design field {key!r} must be {want}, got {value!r}")
            if value is not None and type not in types:  # a claim no check reads
                raise SpecError(f"{type!r} files cannot carry {key!r}; "
                                f"only {'/'.join(types)} files do")
            setattr(self, key, value)
        _check_rows(rows)
        if self.meta is None:
            self.meta = {}
        # the annotations must fit the rows: grids and slices within and
        # tiling the n rows, prefixes rising to n, a strength of at most m
        n, stops, grids = self.n, self.layer_prefixes or [], self.grids or []
        for rows in (g["rows"] for g in grids if "rows" in g):
            if rows > n:
                raise SpecError(f"grid claim on the first {rows} rows of a {n}-row design")
        if self.scale not in (None, n):  # a Latin hypercube holds the values 0..n-1
            raise SpecError(f"scale {self.scale} of a Latin hypercube is not its row count {n}")
        if any(b <= a for a, b in zip(stops, stops[1:])):
            raise SpecError(f"layer prefixes {stops} are not strictly increasing")
        if stops and stops[-1] != n:
            raise SpecError(f"last layer prefix {stops[-1]} is not the row count {n}")
        if (self.t_claimed or 0) > self.m:
            raise SpecError(f"strength {self.t_claimed} exceeds column count {self.m}")
        if self.type == "oa" and (self.slice_size is None) != (self.collapse_layer is None):
            raise SpecError("a sliced claim needs both 'slice_size' and 'collapse_layer'")
        for size in [g.get("slice_size", 1) for g in grids] + [self.slice_size or 1]:
            if n % size:
                raise SpecError(f"slice size {size} does not divide the {n} rows of the design")

    def claims(self, chain=None) -> list[Claim]:
        """The claims the annotations record, in `verify`'s order (README
        "Claims"); one that needs a chain or an `s` the file lacks is a SpecError.
        A given `chain`, the `groups.GroupChain` whose codes the rows hold,
        must fit the annotations: one prefix per layer, a collapse layer
        within its layers and `s` its top size."""
        claims = _read_claims(dict(zip(self._fields, self._values())))
        if chain is not None:
            stops = self.layer_prefixes or ()
            if stops and len(stops) != chain.layers:
                raise SpecError(f"{len(stops)} layer prefixes for a {chain.layers}-layer chain")
            if (self.collapse_layer or 0) > chain.layers:
                raise SpecError(f"claim 'sliced' names a layer outside 1..{chain.layers}")
            if self.s not in (None, chain.top_size):
                raise SpecError(f"s={self.s} is not the chain's top size {chain.top_size}")
        return claims

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def to_dict(self) -> dict:
        out = {"format": FORMAT_NAME, "version": __version__, "type": self.type,
               "n": self.n, "m": self.m}
        for key in self._fields[2:]:  # every field after type and rows
            value = getattr(self, key)
            if value is not None and (value or key != "meta"):  # meta only when non-empty
                out[key] = value
        out["rows"] = self.rows
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DesignFile":
        if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
            raise SpecError("not a nestfill design file")
        kwargs = {key: data[key] for key in _FIELDS if data.get(key) is not None}
        for key in ("type", "rows"):
            if key not in kwargs:
                raise SpecError(f"design file has no {key!r}")
        design = cls(**kwargs)
        for key in ("n", "m"):  # the header, where present, must count the rows read
            if key in data and not (is_int(data[key]) and data[key] == getattr(design, key)):
                raise SpecError(f"design header {key}={data[key]!r} does not match the "
                                f"{design.n}x{design.m} rows")
        return design


def _read_claims(f: dict) -> list[Claim]:
    """The claims of a file whose fields are the keys of `f` (an absent key
    reads as None): `DesignFile.claims`, and what `annotations` checks its
    claims read back as."""
    kind, chain, s, t_claimed = f["type"], f.get("chain"), f.get("s"), f.get("t_claimed")
    if kind == "lh":
        claims = [Claim("lh")]
        for g in f.get("grids") or []:
            rows, size = g.get("rows"), g.get("slice_size", 0)
            where = f"first {rows}" if rows else f"slices of {size}"
            claims.append(Claim("strat", f"stratification[{where} rows, g={g['grid']}]",
                                (0, rows) if rows else (), strength=g["grid"], size=size))
        return claims
    t, stops, size = t_claimed or 2, tuple(f.get("layer_prefixes") or ()), f.get("slice_size")
    if not chain and (kind == "dm" or kind == "oa" and (stops or size)):
        raise SpecError(f"the claims of this {kind!r} file need a 'chain' to be checked")
    if kind == "design" or not chain:  # checked as integer levels
        if s is None and (kind == "oa" or t_claimed):
            raise SpecError(f"the strength claim of this {kind!r} file needs 's', "
                            f"the level count it is checked at")
        return [Claim("oa", strength=t) if s else Claim("lh")]
    layers = tuple(range(1, len(stops) + 1))
    if kind == "dm":
        return [Claim("nested-dm", rows=stops, layers=layers) if stops else Claim("dm")]
    claims = [Claim("nested", rows=stops, layers=layers, strength=t) if stops
              else Claim("oa", strength=t)]
    if f.get("collapse_layer"):  # `DesignFile` gives it a slice size
        claims.append(Claim("sliced", layers=(f["collapse_layer"],), strength=t, size=size))
    return claims


def annotations(claims) -> dict:
    """The file `type` and annotation keys that record `claims`, as
    `DesignFile.claims` reads them back (README "Claims").  Claims that give
    one key two values are a SpecError, and so is a claim the keys cannot
    record: each must read back, names cleared, as itself from a file with a
    chain and these keys (key values such as a slice size of 0 are then
    refused by `DesignFile`, when the file is built)."""
    out, claims = {}, list(claims)
    for c in claims:
        kind = "lh" if c.kind in ("lh", "strat") else "dm" if c.kind.endswith("dm") else "oa"
        keys = {"type": kind, **({"t_claimed": c.strength} if kind == "oa" else {})}
        if c.kind.startswith("nested"):
            keys["layer_prefixes"] = list(c.rows)
        elif c.kind == "sliced":
            keys.update(slice_size=c.size, collapse_layer=c.layers[0] if c.layers else None)
        elif c.kind == "strat":
            extent = {"rows": c.rows[-1]} if c.rows else {"slice_size": c.size}
            out.setdefault("grids", []).append({**extent, "grid": c.strength})
        for key, value in keys.items():
            if out.setdefault(key, value) != value:
                raise SpecError(f"claims record both {out[key]!r} and {value!r} as {key!r}")
    back = [b._replace(name="") for b in _read_claims({**out, "chain": True})] if out else []
    for c in claims:
        if c._replace(name="") not in back:
            raise SpecError(f"no annotation keys record the claim {c}")
    return out


def symbols_for(chain, rows) -> dict:
    """The symbol table of `rows`: each code they hold, as a string, mapped
    to its text form in the group of the `groups.GroupChain` `chain`."""
    codes = sorted(set(itertools.chain.from_iterable(rows)))
    return {str(c): chain.group.text_code(c) for c in codes}


def save_json(design: DesignFile, path) -> Path:
    """Write `design` as indented JSON with one compact row per line."""
    payload = design.to_dict()
    rows = payload.pop("rows")
    head = json.dumps(payload, indent=2)[: -len("\n}")]

    def pieces():
        yield f'{head},\n  "rows": [\n'
        sep = "    ["
        for r in rows:
            yield sep + ",".join(map(str, r))
            sep = "],\n    ["
        yield "]\n  ]\n}\n"

    return write_text(path, pieces(), "design file")


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {what} {path}: {exc}") from None


def write_text(path, pieces: Iterable[str], what: str) -> Path:
    """Stream the string `pieces` to `path`.  An unwritable path is a
    SpecError naming `what` was to be written there; a write that fails
    after the file was opened removes the partial file first."""
    path = Path(path)
    opened = False
    try:
        with path.open("w") as out:
            opened = True
            out.writelines(pieces)
    except OSError as exc:
        # never a device, a pipe or the target of a link such as /dev/stdout
        if opened and path.is_file() and not path.is_symlink():
            path.unlink()
        raise SpecError(f"cannot write {what} {path}: {exc.strerror or exc}") from None
    return path


def write_all(writers: Iterable) -> list[Path]:
    """The paths the `writers` return, called in order, each writing one file;
    if one fails, the files the earlier ones wrote are removed before its
    SpecError is raised, so a command leaves all of its files or none."""
    paths = []
    try:
        for write in writers:
            paths.append(write())
    except SpecError:
        for path in paths:
            path.unlink()
        raise
    return paths


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, too deep, or an over-long integer
        raise SpecError(f"cannot parse {what}: {exc}") from None


def read_json(path, what: str):
    """The parsed JSON file at `path`; an unreadable or malformed file is a
    SpecError naming `what` it should have been."""
    return _parse_json(_read_text(path, what), f"{what} {path}")


def load(path) -> DesignFile:
    """The design file at `path`: text starting with "{" reads as JSON and
    text starting with "#" as CSV, whatever the suffix; other text reads as
    CSV under a .csv suffix and as JSON otherwise."""
    path = Path(path)
    text = _read_text(path, "design file")
    first = text.lstrip()[:1]
    if first == "#" or (first != "{" and path.suffix.lower() == ".csv"):
        return _load_csv(text)
    return DesignFile.from_dict(_parse_json(text, f"design file {path}"))


def save_csv(design: DesignFile, path) -> Path:
    payload = design.to_dict()
    rows = payload.pop("rows")
    head = (f"# {FORMAT_NAME} v{__version__}\n# meta={json.dumps(payload)}\n"
            + ",".join(f"x{j + 1}" for j in range(design.m)) + "\n")
    return write_text(path, itertools.chain(
        [head], (",".join(map(str, r)) + "\n" for r in rows)), "design file")


def _load_csv(text: str) -> DesignFile:
    metas = []
    lines = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("meta="):
                metas.append(_parse_json(body[len("meta=") :], "CSV '# meta=' line"))
            continue
        lines.append(line)
    if len(metas) > 1:
        raise SpecError(f"CSV design has {len(metas)} '# meta=' lines; it must have one")
    # the x1..xm header, checked once the rows are read; a later one is a bad row
    header = lines.pop(0) if lines and lines[0].startswith("x") else None
    # each cell is a JSON integer, so the data lines parse as one JSON array
    # of rows; a line that is not one row alone (such as `1],[2`) changes
    # the row count or fails the parse, and is named
    rows = _json_or_none("[[" + "],[".join(lines) + "]]" if lines else "[]")
    if rows is None or len(rows) != len(lines):
        bad = next(line for line in lines if _json_or_none(f"[{line}]") is None)
        raise SpecError(f"malformed CSV row {bad!r}")
    if not metas or not isinstance(metas[0], dict):
        raise SpecError("CSV design is missing its '# meta={...}' line")
    design = DesignFile.from_dict({**metas[0], "rows": rows})
    if header is not None and header != ",".join(f"x{j + 1}" for j in range(design.m)):
        raise SpecError(f"CSV header {header!r} is not x1..x{design.m} for {design.m}-column rows")
    return design


def _json_or_none(text: str):
    """The parsed JSON array `text`, or None where it is not one."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def export_scatter(design: DesignFile, out_prefix) -> list[Path]:
    """One CSV of (xi, xj) points per dimension pair of the design."""
    prefix = Path(out_prefix)
    m = design.m
    if m < 2:
        raise SpecError("scatter export needs at least two dimensions")
    # one str per distinct value, shared by every cell that holds it
    text = {v: str(v) for v in set(itertools.chain.from_iterable(design.rows))}
    columns = [list(map(text.__getitem__, col)) for col in zip(*design.rows)]

    def pair(i, j):
        points = "\n".join(map(",".join, zip(columns[i], columns[j])))
        return write_text(prefix.parent / f"{prefix.name}_x{i + 1}_x{j + 1}.csv",
                          [f"x{i + 1},x{j + 1}\n", points, "\n"], "scatter file")

    return write_all(lambda i=i, j=j: pair(i, j) for i in range(m) for j in range(i + 1, m))
