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

This module imports only `errors`, so an `export` job loads no group code: a
file's `chain` stays its JSON descriptor here, and `cli` builds the chain.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Iterable

from . import __version__
from .errors import Record, SpecError, is_int

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
# on another type is a claim no check reads, which `verify` and `lift` refuse
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
    where absent (`meta` an empty dict); each given field passes its
    `_FIELDS` test and the rows are checked when it is built, so every file
    the writers emit loads.  `to_dict` writes the fields after `type` and
    `rows` in `_fields` order."""

    __slots__ = _fields = tuple(_FIELDS)

    def __init__(self, type: str, rows: list[list[int]], **fields):
        if unknown := fields.keys() - _FIELDS:
            raise TypeError(f"DesignFile got unknown fields {sorted(unknown)}")
        fields.update(type=type, rows=rows)
        for key, (valid, want, _) in _FIELDS.items():
            value = fields.get(key)
            if value is not None and not valid(value):
                raise SpecError(f"design field {key!r} must be {want}, got {value!r}")
            setattr(self, key, value)
        _check_rows(rows)
        if self.meta is None:
            self.meta = {}

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

    return _write_text(path, pieces(), "design file")


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {what} {path}: {exc}") from None


def _write_text(path, pieces: Iterable[str], what: str) -> Path:
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
    path = Path(path)
    text = _read_text(path, "design file")
    if path.suffix.lower() == ".csv" or text.lstrip().startswith("#"):
        return _load_csv(text)
    return DesignFile.from_dict(_parse_json(text, f"design file {path}"))


def save_csv(design: DesignFile, path) -> Path:
    payload = design.to_dict()
    rows = payload.pop("rows")
    head = (f"# {FORMAT_NAME} v{__version__}\n# meta={json.dumps(payload)}\n"
            + ",".join(f"x{j + 1}" for j in range(design.m)) + "\n")
    return _write_text(path, itertools.chain(
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
    paths = []  # removed again if a later write fails
    try:
        for i in range(m):
            for j in range(i + 1, m):
                path = prefix.parent / f"{prefix.name}_x{i + 1}_x{j + 1}.csv"
                points = "\n".join(map(",".join, zip(columns[i], columns[j])))
                paths.append(_write_text(path, [f"x{i + 1},x{j + 1}\n", points, "\n"],
                                         "scatter file"))
    except SpecError:
        for path in paths:
            path.unlink()
        raise
    return paths
