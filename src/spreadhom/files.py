"""Declarative poset / module / family files.

A file in the plain subset that dump_poset and dump_module write is read
line by line, its values by `json`; any other file is parsed with yaml's
safe loader, on libyaml when PyYAML was built with it, which refuses a
repeated key, an alias and nesting deeper than MAX_NESTING. PyYAML is
loaded only when a file needs it.
A module file is read one way: over the poset that its `poset:` reference
names, relative to the module file.
Serialization is a small canonical emitter (stable ordering, labels always
double-quoted) so that serializing a parsed canonical file reproduces it
byte for byte.
"""
from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import os
import re
import sys

from .approx import BUILTIN_FAMILIES, Family, builtin_family
from .errors import CommutativityError, FileFormatError, ShapeError, SpreadHomError
from .field import PrimeField
from .modules import PersistenceModule
from .poset import DEFAULT_CAP, Poset, Spread, spread_from_antichains

# PyYAML runs on first use: its import is most of the CLI's import time, and a
# file in the plain subset (see _read_plain) never needs it
yaml = sys.modules.get("yaml")
if yaml is None:
    _spec = importlib.util.find_spec("yaml")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    yaml = sys.modules["yaml"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(yaml)

# Most dense matrix cells a module file may ask for, before any is built: a
# d_b x d_a map per cover a -> b and a d_a x d_a identity per element a.
MAX_DENSE_CELLS = 10 ** 7

# Deepest nesting of mappings and lists a file may have; the formats need 4.
# libyaml composes a document recursively, so a file some 25 000 levels deep
# overflows the C stack, and the loader's own messages recurse on far less.
MAX_NESTING = 16

# yaml reads a mapping key only within 1024 characters of where it starts
_PLAIN_STRING_MAX = 1000
_PLAIN_REFUSED = re.compile(r"[^\n -~]|[\\#&*]")
_PLAIN_TOP = re.compile(r"(poset|dims|maps|elements|covers):(?: (.*))?")
_PLAIN_ENTRY = re.compile(rf'  "([^"]{{0,{_PLAIN_STRING_MAX}}})": (.*)')
_PLAIN_BARE = re.compile(r'[-0-9\[\]{},: "]*')
_PLAIN_BRACKETS = re.compile(r"[\[\]{}]")


def _unique_keys(pairs):
    mapping = dict(pairs)
    if len(mapping) < len(pairs):
        raise ValueError("repeated key")
    return mapping


_PLAIN_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _plain_json(raw: str, depth: int):
    """The JSON value `raw`, if yaml reads it alike inside `depth` enclosing mappings; else None.

    Outside its strings it may hold only brackets, braces, commas, colons,
    spaces and integers, with no space before a colon; it must nest within
    MAX_NESTING and repeat no key.
    """
    parts = raw.split('"')
    bare = '""'.join(parts[::2])
    if (len(parts) % 2 == 0 or any(len(s) > _PLAIN_STRING_MAX for s in parts[1::2])
            or " :" in bare or not _PLAIN_BARE.fullmatch(bare)):
        return None
    steps = (1 if c in "[{" else -1 for c in _PLAIN_BRACKETS.findall(bare))
    if max(itertools.accumulate(steps, initial=depth)) > MAX_NESTING:
        return None
    try:
        return _PLAIN_JSON.decode(raw)
    except ValueError:  # not one JSON value, a repeated key, or an integer too long to read
        return None


def _read_plain(text: str):
    """The file's mapping if `text` is in the plain subset that dump_poset and dump_module write; else None.

    Each line is a top-level `poset`, `dims`, `maps`, `elements` or `covers`
    key with ": " and one JSON value (see _plain_json), or such a key alone,
    followed by at least one `  "a->b": <json>` or `  "a->b": id` line. No
    key repeats, and the text is printable ASCII without backslash, `#`, `&`
    or `*`. Wherever this returns a value, yaml.load with _Loader returns an
    equal one without raising, nested no deeper than MAX_NESTING.
    """
    if _PLAIN_REFUSED.search(text):
        return None
    data, block = {}, None
    for line in text.removesuffix("\n").split("\n"):
        entry = block is not None and _PLAIN_ENTRY.fullmatch(line)
        if entry:
            mapping, key, value = block, entry[1], "id" if entry[2] == "id" else _plain_json(entry[2], 2)
        elif block == {}:  # yaml reads a key with no value and no entries as null
            return None
        else:
            top = _PLAIN_TOP.fullmatch(line)
            if top is None:
                return None
            block = {} if top[2] is None else None
            mapping, key, value = data, top[1], block if top[2] is None else _plain_json(top[2], 1)
        if value is None or key in mapping:
            return None
        mapping[key] = value
    return None if block == {} else data


@functools.cache
def _loader():
    class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        """yaml.safe_load, except that a mapping may not repeat a key (the last would win).

        The C parser, when present, feeds the same Python constructor and
        resolver, so every value keeps its type.
        """

        def construct_mapping(self, node, deep=False):
            mapping = super().construct_mapping(node, deep)
            if len(mapping) < len(node.value):
                keys = [self.construct_object(k, deep=deep) for k, _ in node.value]
                dup = next(k for i, k in enumerate(keys) if k in keys[:i])
                raise yaml.constructor.ConstructorError(None, None, f"found duplicate key {dup!r}", node.start_mark)
            return mapping

    return _Loader


def __getattr__(name):
    """`files._Loader`, the yaml loader class, made when first asked for."""
    if name == "_Loader":
        return _loader()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_yaml(path: str):
    """The file's one document: by _read_plain, or by yaml once its parse events show no alias and no deep nesting.

    libyaml's event parser is iterative, so that walk is safe on any file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            # latin-1 reads each byte as one character, so a non-ASCII byte fails _read_plain
            data = _read_plain(fh.buffer.read().decode("latin-1"))
            if data is None:
                fh.seek(0)
                depth = 0
                for event in yaml.parse(fh, Loader=_loader()):
                    if isinstance(event, yaml.AliasEvent):
                        raise FileFormatError(f"{path}: line {event.start_mark.line + 1}: YAML aliases are refused")
                    depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
                    if depth > MAX_NESTING:
                        raise FileFormatError(f"{path}: line {event.start_mark.line + 1}: "
                                              f"nested deeper than {MAX_NESTING} levels")
                fh.seek(0)
                data = yaml.load(fh, Loader=_loader())
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path}: not UTF-8 text ({e})") from None
    except yaml.YAMLError as e:
        raise FileFormatError(f"{path}: not valid YAML ({' '.join(str(e).split())})") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a mapping at the top level")
    return data


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_label(path: str, x) -> str:
    """A label as written; an integer (YAML reads `1` as one) by its digits."""
    if not isinstance(x, str) and not _is_int(x):
        raise FileFormatError(f"{path}: label {x!r} is not a string or an integer")
    return str(x)


def _expect_keys(path: str, data: dict, allowed: set[str], required: set[str]):
    unknown = set(data) - allowed
    if unknown:
        raise FileFormatError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise FileFormatError(f"{path}: missing keys {sorted(missing)}")


def load_poset(path: str) -> Poset:
    data = _load_yaml(path)
    _expect_keys(path, data, {"elements", "covers"}, {"elements", "covers"})
    elements = data["elements"]
    if not isinstance(elements, list):
        raise FileFormatError(f"{path}: 'elements' must be a list of labels")
    names = [_as_label(path, x) for x in elements]
    index = {lbl: i for i, lbl in enumerate(names)}
    raw_covers = [] if data["covers"] is None else data["covers"]
    if not isinstance(raw_covers, list):
        raise FileFormatError(f"{path}: 'covers' must be a list of pairs, got {raw_covers!r}")
    covers = []
    for item in raw_covers:
        if not isinstance(item, list) or len(item) != 2:
            raise FileFormatError(f"{path}: each cover must be a pair, got {item!r}")
        a, b = (_as_label(path, x) for x in item)
        for lbl in (a, b):
            if lbl not in index:
                raise FileFormatError(f"{path}: unknown element label {lbl!r} in cover")
        covers.append((index[a], index[b]))
    try:
        return Poset(len(names), covers, names)
    except (SpreadHomError, ValueError) as e:  # a cycle, a redundant cover, a repeated or unnameable label
        raise type(e)(f"{path}: {e}") from None


def load_module(path: str, field: PrimeField, posets: dict[str, Poset] | None = None):
    """Parse a module file; returns (module, poset, poset_reference).

    The module is read over the poset its `poset:` reference names, relative
    to the module file; `posets` (resolved path -> Poset) memoises those loads.
    """
    data = _load_yaml(path)
    _expect_keys(path, data, {"poset", "dims", "maps"}, {"poset", "dims"})
    ref = data["poset"]
    if not isinstance(ref, str):
        raise FileFormatError(f"{path}: 'poset' must be a file name, got {ref!r}")
    poset_path = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    posets = {} if posets is None else posets
    resolved = os.path.realpath(poset_path)
    if resolved not in posets:
        posets[resolved] = load_poset(poset_path)
    poset = posets[resolved]
    dims = [0] * poset.n
    raw_dims = data["dims"]
    if not isinstance(raw_dims, dict):
        raise FileFormatError(f"{path}: 'dims' must map labels to counts")
    seen = set()
    for lbl, d in raw_dims.items():
        lbl = _as_label(path, lbl)
        try:
            a = poset.element(lbl)
        except KeyError:
            raise FileFormatError(f"{path}: unknown element label {lbl!r} in dims") from None
        if a in seen:  # e.g. the keys "1" and 1
            raise FileFormatError(f"{path}: dims gives element {lbl!r} twice")
        seen.add(a)
        if not _is_int(d) or d < 0:
            raise FileFormatError(f"{path}: dims[{lbl!r}] must be a non-negative integer, got {d!r}")
        dims[a] = d
    cells = sum(dims[a] * dims[b] for a, b in poset.covers) + sum(d * d for d in dims)
    if cells > MAX_DENSE_CELLS:
        raise FileFormatError(f"{path}: dims need {cells} dense matrix cells, more than {MAX_DENSE_CELLS}")
    raw_maps = {} if data.get("maps") is None else data["maps"]
    if not isinstance(raw_maps, dict):
        raise FileFormatError(f"{path}: 'maps' must map 'a->b' keys to matrices")
    maps = {}
    keys = {}
    covers = set(poset.covers)
    for key, value in raw_maps.items():
        key = _as_label(path, key)
        if "->" not in key:
            raise FileFormatError(f"{path}: map key {key!r} is not of the form 'a->b'")
        left, right = (t.strip() for t in key.split("->", 1))
        try:
            a, b = poset.element(left), poset.element(right)
        except KeyError as e:
            raise FileFormatError(f"{path}: map key {key!r}: {e.args[0]}") from None
        if (a, b) not in covers:
            raise FileFormatError(f"{path}: map key {key!r} is not a cover of the poset")
        if (a, b) in keys:
            raise FileFormatError(f"{path}: map keys {keys[(a, b)]!r} and {key!r} name the same cover")
        keys[(a, b)] = key
        if value == "id":
            if dims[a] != dims[b]:
                raise FileFormatError(
                    f"{path}: map {key!r} says 'id' but dimensions are {dims[a]} and {dims[b]}"
                )
            maps[(a, b)] = field.eye(dims[a])
        else:
            if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
                raise FileFormatError(f"{path}: map {key!r} must be a matrix (list of rows) or 'id'")
            if len({len(row) for row in value}) > 1:
                raise FileFormatError(f"{path}: map {key!r} has rows of unequal length")
            for row in value:
                for x in row:
                    if not _is_int(x):
                        raise FileFormatError(f"{path}: map {key!r} has entry {x!r}, not an integer")
            shape = (len(value), len(value[0]) if value else dims[a])
            if shape != (dims[b], dims[a]):
                raise ShapeError(f"{path}: map {key!r} has shape {shape}, expected {(dims[b], dims[a])}")
            maps[(a, b)] = value
    try:
        module = PersistenceModule(poset, field, dims, maps)
    except CommutativityError as e:
        raise CommutativityError(f"{path}: {e}") from None
    return module, poset, ref


def _parse_spread(path: str, item, poset: Poset) -> Spread:
    if not isinstance(item, dict) or set(item) != {"sources", "targets"}:
        raise FileFormatError(
            f"{path}: each spread needs exactly 'sources' and 'targets', got {item!r}"
        )
    masks = []
    for key in ("sources", "targets"):
        if not isinstance(item[key], list):
            raise FileFormatError(f"{path}: spread {key!r} must be a list of labels, got {item[key]!r}")
        mask = 0
        for x in item[key]:
            lbl = _as_label(path, x)
            try:
                bit = 1 << poset.element(lbl)
            except KeyError as e:
                raise FileFormatError(f"{path}: {e.args[0]}") from None
            if mask & bit:  # read as a set, a repeated label (or "1" and 1) would silently be dropped
                raise FileFormatError(f"{path}: spread {key!r} lists label {lbl!r} twice")
            mask |= bit
        masks.append(mask)
    return spread_from_antichains(poset, *masks)


def load_family(spec: str, poset: Poset, cap: int = DEFAULT_CAP) -> Family:
    """A builtin family name, or a path to a family file.

    A family file is `{spreads: [...]}`; any other key is refused.
    """
    if spec in BUILTIN_FAMILIES:
        return builtin_family(poset, spec, cap)
    if not os.path.exists(spec):
        raise FileFormatError(
            f"{spec!r} is neither a builtin family ({', '.join(BUILTIN_FAMILIES)}) nor a file"
        )
    data = _load_yaml(spec)
    _expect_keys(spec, data, {"spreads"}, {"spreads"})
    if not isinstance(data["spreads"], list):
        raise FileFormatError(f"{spec}: 'spreads' must be a list")
    try:
        return Family(poset, [_parse_spread(spec, item, poset) for item in data["spreads"]])
    except FileFormatError:  # already names the file
        raise
    except SpreadHomError as e:  # sources or targets not an antichain, a repeated or disconnected spread
        raise type(e)(f"{spec}: {e}") from None


# -- canonical emission ---------------------------------------------------------


def dump_poset(p: Poset) -> str:
    elements = json.dumps(list(p.names))
    covers = json.dumps([[p.label(a), p.label(b)] for a, b in p.covers])
    return f"elements: {elements}\ncovers: {covers}\n"


def _is_identity(mat, field: PrimeField) -> bool:
    return mat.shape[0] == mat.shape[1] and mat == field.eye(mat.shape[0])


def dump_module(m: PersistenceModule, poset_ref: str) -> str:
    dims = {m.poset.label(a): int(d) for a, d in enumerate(m.dims) if d}
    lines = [f"poset: {json.dumps(poset_ref)}", f"dims: {json.dumps(dims)}"]
    entries = []
    for a, b in m.poset.covers:
        mat = m.maps[(a, b)]
        if not any(map(any, mat.rows)):
            continue
        key = json.dumps(f"{m.poset.label(a)}->{m.poset.label(b)}")
        if _is_identity(mat, m.field):
            entries.append(f"  {key}: id")
        else:
            entries.append(f"  {key}: {json.dumps(mat.rows)}")
    if entries:
        lines.append("maps:")
        lines.extend(entries)
    else:
        lines.append("maps: {}")
    return "\n".join(lines) + "\n"


def dump_family(members) -> str:
    lines = ["spreads:"]
    for s in members:
        src = json.dumps(s.poset.label_set(s.sources))
        tgt = json.dumps(s.poset.label_set(s.targets))
        lines.append(f"  - {{sources: {src}, targets: {tgt}}}")
    return "\n".join(lines) + "\n"
