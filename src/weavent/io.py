"""JSON input/output for every structure kind: the package's one reader,
writer and text format of files and reports.

One structure per file.  Schemas are strict: unknown keys are rejected, and
every reference (event names, element ids, node/edge ids) is checked at
load time.  ``load_structure`` reads a file (``read_bytes``) and parses
its bytes (``parse_bytes``), dispatching on the expected kind: ``es``,
``domain``, ``grammar``, ``asyncgraph`` or ``epes``.  ``dumps`` gives the
JSON text of files, reports and errors, and ``write_text`` writes every
file; a failed read or write, or input that is not UTF-8 JSON, ends in
``SchemaError``.

The text ``dumps`` gives is byte for byte ``json.dumps(obj, indent=2,
sort_keys=True)``.  That call always runs through ``json``'s pure-Python
encoder, so ``dumps`` writes the lists of strings, the flat objects and the
lists of records (objects that share one set of keys: enabling entries,
graph nodes and edges) that make up most of a payload in one ``str.join``
each, over ``json``'s C string encoder.  ``dumps_domain`` gives the same
text for a domain's ``domain_to_json`` without building it: each element
name is encoded once and the covers are filled from the index pairs.
``dumps_grammar`` does the same for a grammar's ``grammar_to_json``: each
graph's nodes and edges fill one record template per kind, and each map of
a rule leg is written in one join.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping

from .es import BINARY, EventStructure
from .domains import FiniteDomain
from .duality import Epes
from .graphs import GraphMorphism, TypedGraph
from .rewrite import Grammar, Rule
from .asyncgraphs import AsyncError, AsyncGraph, _edge_map, _square

_enc = json.encoder.encode_basestring_ascii  # a string as JSON text


class SchemaError(ValueError):
    """Input file does not follow the expected schema."""


def _require_keys(obj: Mapping, allowed: set, required: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{what}: missing keys {sorted(missing)}")


def _string_list(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{what}: expected a list of strings")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what}: expected a list")
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what}: expected a string")
    return value


def _items(value, what: str, read: Callable) -> list:
    """``read(item)`` for each item of ``value``, the list field ``what``.

    Each check raises SchemaError naming the field it checks.  ``read``
    names fields relative to its item (``""`` for the item itself,
    ``".needs"`` for one of its fields), and ``_items`` puts the item's
    name, ``what[k]``, in front on the way out: a parse that succeeds
    formats no name per item.
    """
    value, out = _list(value, what), []
    try:
        for item in value:
            out.append(read(item))
    except SchemaError as exc:
        raise SchemaError(f"{what}[{len(out)}]{exc}") from None
    return out


def _pair(value) -> tuple:
    if len(_string_list(value, "")) != 2:
        raise SchemaError(": expected a pair")
    return value[0], value[1]


def _built(build: Callable, *args, what: str = ""):
    """``build(*args)``, a constructor or validator, with a ValueError it
    raises turned into a SchemaError, behind ``what: `` if ``what`` is set."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}" if what else str(exc)) from None


# ---------------------------------------------------------------------- #
# Event structures
# ---------------------------------------------------------------------- #

def _enabling(entry) -> tuple:
    _require_keys(entry, {"needs", "event"}, {"needs", "event"}, "")
    return _string_list(entry["needs"], ".needs"), _string(entry["event"], ".event")


def parse_es(obj: Mapping) -> EventStructure:
    _require_keys(obj, {"events", "conflict", "consistent", "enabling"},
                  {"events"}, "event structure")
    if "conflict" in obj and "consistent" in obj:
        raise SchemaError("give either 'conflict' or 'consistent', not both")
    events = _string_list(obj["events"], "events")
    enabling = _items(obj.get("enabling", []), "enabling", _enabling)
    if "consistent" in obj:
        family = [_string_list(xs, "consistent[*]")
                  for xs in _list(obj["consistent"], "consistent")]
        return _built(EventStructure.with_consistency, events, family, enabling)
    conflict = _items(obj.get("conflict", []), "conflict", _pair)
    return _built(EventStructure.binary, events, conflict, enabling)


def es_to_json(es: EventStructure) -> Dict[str, Any]:
    out: Dict[str, Any] = {"events": sorted(es.events)}
    if es.conflict_kind == BINARY:
        out["conflict"] = sorted(sorted(p) for p in es.conflict)
    else:
        out["consistent"] = sorted(sorted(m) for m in es.consistent_sets)
    out["enabling"] = [{"needs": sorted(needs), "event": e}
                       for needs, e in sorted(es.enabling_gens, key=lambda g: (g[1], sorted(g[0])))]
    return out


def parse_epes(obj: Mapping) -> Epes:
    _require_keys(obj, {"events", "conflict", "enabling", "equiv"}, {"events"}, "EPES")
    base = parse_es({k: v for k, v in obj.items() if k != "equiv"})
    covered = set()

    def block(xs) -> frozenset:
        for e in _string_list(xs, ""):
            if e not in base.events:
                raise SchemaError(f": unknown event {e!r}")
            if e in covered:
                raise SchemaError(f": event {e!r} in two blocks")
        covered.update(xs)
        return frozenset(xs)
    # an empty block names no event, so dropping it leaves the partition as it is
    blocks = [b for b in _items(obj.get("equiv", []), "equiv", block) if b]
    blocks += [frozenset((e,)) for e in base.events - covered]
    return Epes(base, frozenset(blocks))


def epes_to_json(p: Epes) -> Dict[str, Any]:
    out = es_to_json(p.base)
    out["equiv"] = sorted((sorted(b) for b in p.equiv if len(b) > 1))
    return out


# ---------------------------------------------------------------------- #
# Domains
# ---------------------------------------------------------------------- #

def parse_domain(obj: Mapping) -> FiniteDomain:
    _require_keys(obj, {"elements", "covers", "kind"}, {"elements", "covers"}, "domain")
    elements = _string_list(obj["elements"], "elements")
    covers = _items(obj["covers"], "covers", _pair)
    return _built(FiniteDomain, elements, covers, obj.get("kind", "coherent"))


def domain_to_json(dom: FiniteDomain) -> Dict[str, Any]:
    return {"elements": list(dom.elements),
            "covers": dom.covers(),
            "kind": dom.kind}


def dumps_domain(dom: FiniteDomain) -> str:
    """``dumps(domain_to_json(dom))``, with each element name encoded once
    and the whole text filled in one format, covers from the index pairs."""
    names = list(map(_enc, dom.elements))
    pairs = dom._cover_pairs
    # the names are arguments, never part of the template, so '%' in one is safe
    covers = _listed("[\n      %s,\n      %s\n    ]", len(pairs), "\n  ")
    template = '{\n  "covers": ' + covers + ',\n  "elements": [\n    %s\n  ],\n  "kind": %s\n}'
    return template % (*chain.from_iterable((names[a], names[b]) for a, b in pairs),
                       ",\n    ".join(names), _enc(dom.kind))


# ---------------------------------------------------------------------- #
# Typed graphs and grammars
# ---------------------------------------------------------------------- #

def parse_graph(obj: Mapping, what: str = "graph", self_typed: bool = False) -> TypedGraph:
    _require_keys(obj, {"nodes", "edges"}, {"nodes"}, what)

    def node(nd) -> tuple:
        _require_keys(nd, {"id", "type"}, {"id"}, "")
        if not self_typed and "type" not in nd:
            raise SchemaError(": missing type")
        nid = _string(nd["id"], ".id")
        return nid, nid if self_typed else _string(nd["type"], ".type")
    required = {"id", "src", "tgt"} if self_typed else {"id", "type", "src", "tgt"}

    def edge(ed) -> tuple:
        _require_keys(ed, {"id", "type", "src", "tgt"}, required, "")
        eid = _string(ed["id"], ".id")
        return (eid, _string(ed.get("type", eid), ".type"),
                _string(ed["src"], ".src"), _string(ed["tgt"], ".tgt"))
    ntype = dict(_items(obj["nodes"], f"{what}.nodes", node))
    edges = _items(obj.get("edges", []), f"{what}.edges", edge)
    return _built(TypedGraph, ntype, edges, ntype, what=what)


def graph_to_json(g: TypedGraph, self_typed: bool = False) -> Dict[str, Any]:
    nodes = []
    for n in sorted(g.nodes):
        nodes.append({"id": n} if self_typed else {"id": n, "type": g.node_type[n]})
    edges = []
    for e in sorted(g.edges):
        entry = {"id": e, "src": g.src[e], "tgt": g.tgt[e]}
        if not self_typed:
            entry["type"] = g.edge_type[e]
        edges.append(entry)
    return {"nodes": nodes, "edges": edges}


def _parse_rule_map(obj: Mapping, src: TypedGraph, tgt: TypedGraph, what: str) -> GraphMorphism:
    _require_keys(obj, {"nodes", "edges"}, {"nodes"}, what)
    nmap = obj["nodes"]
    emap = obj.get("edges", {})
    if not isinstance(nmap, dict) or not isinstance(emap, dict):
        raise SchemaError(f"{what}: node/edge maps must be objects")
    if not all(isinstance(v, str) for v in chain(nmap.values(), emap.values())):
        raise SchemaError(f"{what}: node/edge maps must map ids to strings")
    mor = GraphMorphism(src, tgt, dict(nmap), dict(emap))
    _built(mor.validate, what=what)
    return mor


def _rule(rd) -> Rule:
    fields = {"name", "L", "K", "R", "l", "r"}
    _require_keys(rd, fields, fields, "")
    lg, kg, rg = parse_graph(rd["L"], ".L"), parse_graph(rd["K"], ".K"), parse_graph(rd["R"], ".R")
    lmor, rmor = _parse_rule_map(rd["l"], kg, lg, ".l"), _parse_rule_map(rd["r"], kg, rg, ".r")
    return Rule(_string(rd["name"], ".name"), lg, kg, rg, lmor, rmor)


def parse_grammar(obj: Mapping) -> Grammar:
    _require_keys(obj, {"type_graph", "start", "rules"},
                  {"type_graph", "start", "rules"}, "grammar")
    tg = parse_graph(obj["type_graph"], "type_graph", self_typed=True)
    start = parse_graph(obj["start"], "start")
    grammar = Grammar(tg, start, tuple(_items(obj["rules"], "rules", _rule)))
    _built(grammar.validate)
    return grammar


def grammar_to_json(g: Grammar) -> Dict[str, Any]:
    return {
        "type_graph": graph_to_json(g.type_graph, self_typed=True),
        "start": graph_to_json(g.start),
        "rules": [{
            "name": r.name,
            "L": graph_to_json(r.L),
            "K": graph_to_json(r.K),
            "R": graph_to_json(r.R),
            "l": {"nodes": dict(sorted(r.l.node_map.items())),
                  "edges": dict(sorted(r.l.edge_map.items()))},
            "r": {"nodes": dict(sorted(r.r.node_map.items())),
                  "edges": dict(sorted(r.r.edge_map.items()))},
        } for r in g.rules],
    }


def _listed(record: str, n: int, nl: str) -> str:
    """The template of a list of ``n`` records at the indent ``nl``, each
    filled from the template ``record``."""
    nl2 = nl + "  "
    return "[" + nl2 + ("," + nl2).join([record] * n) + nl + "]" if n else "[]"


def _record(keys: tuple, nl: str) -> str:
    """The template of a record at the indent ``nl`` with the fixed
    ``keys``, its values left to fill.  The keys are encoded into the
    template, so a '%' in one is doubled."""
    nl2 = nl + "  "
    fields = [_enc(k).replace("%", "%%") + ": %s" for k in keys]
    return "{" + nl2 + ("," + nl2).join(fields) + nl + "}"


# the node and edge record templates of a graph's text, per indent and per
# typing: a grammar's graphs sit at the indent of its fields or of a rule's
_GRAPH_RECORDS = {(nl, self_typed): (_record(("id", *typed), nl + "    "),
                                     _record(("id", "src", "tgt", *typed), nl + "    "))
                  for nl in ("\n  ", "\n      ")
                  for self_typed, typed in ((True, ()), (False, ("type",)))}


def _graph_text(g: TypedGraph, nl: str, self_typed: bool = False) -> str:
    """``dumps(graph_to_json(g, self_typed))`` at the indent ``nl``, one of
    the two in ``_GRAPH_RECORDS``."""
    nl2 = nl + "  "
    nodes, edges = sorted(g.nodes), sorted(g.edges)
    node_columns = [map(_enc, nodes)]
    edge_columns = [map(_enc, edges), map(_enc, map(g.src.__getitem__, edges)),
                    map(_enc, map(g.tgt.__getitem__, edges))]
    if not self_typed:
        node_columns.append(map(_enc, map(g.node_type.__getitem__, nodes)))
        edge_columns.append(map(_enc, map(g.edge_type.__getitem__, edges)))
    node, edge = _GRAPH_RECORDS[nl, self_typed]
    # the ids are arguments, never part of a template, so '%' in one is safe
    edges_text = _listed(edge, len(edges), nl2) % tuple(chain.from_iterable(zip(*edge_columns)))
    nodes_text = _listed(node, len(nodes), nl2) % tuple(chain.from_iterable(zip(*node_columns)))
    return "{" + nl2 + '"edges": ' + edges_text + "," + nl2 + '"nodes": ' + nodes_text + nl + "}"


def _maps_text(m: GraphMorphism, nl: str) -> str:
    """``dumps`` of a rule leg's ``{"nodes", "edges"}`` maps at the indent
    ``nl``, each map's sorted pairs in one join."""
    nl2, nl3 = nl + "  ", nl + "    "
    edges, nodes = (("{" + nl3 + ("," + nl3).join([_enc(k) + ": " + _enc(v)
                                                    for k, v in sorted(pairs.items())])
                     + nl2 + "}") if pairs else "{}" for pairs in (m.edge_map, m.node_map))
    return "{" + nl2 + '"edges": ' + edges + "," + nl2 + '"nodes": ' + nodes + nl + "}"


def dumps_grammar(g: Grammar) -> str:
    """``dumps(grammar_to_json(g))`` with no JSON object built: each graph's
    node and edge records are filled from one template per kind, and each
    map of a rule leg is written in one join."""
    nl = "\n      "  # the indent of a rule's fields
    rules = ["{" + nl + '"K": ' + _graph_text(r.K, nl) + "," + nl + '"L": ' + _graph_text(r.L, nl)
             + "," + nl + '"R": ' + _graph_text(r.R, nl) + "," + nl + '"l": ' + _maps_text(r.l, nl)
             + "," + nl + '"name": ' + _enc(r.name) + "," + nl + '"r": ' + _maps_text(r.r, nl)
             + "\n    }" for r in g.rules]
    return ('{\n  "rules": ' + _listed("%s", len(rules), "\n  ") % tuple(rules)
            + ',\n  "start": ' + _graph_text(g.start, "\n  ")
            + ',\n  "type_graph": ' + _graph_text(g.type_graph, "\n  ", self_typed=True) + "\n}")


# ---------------------------------------------------------------------- #
# Asynchronous graphs
# ---------------------------------------------------------------------- #

def _async_edge(ed) -> tuple:
    _require_keys(ed, {"id", "src", "tgt"}, {"id", "src", "tgt"}, "")
    return _string(ed["id"], ".id"), _string(ed["src"], ".src"), _string(ed["tgt"], ".tgt")


def _async_square(sq, emap: Dict[str, tuple], late: List[ValueError]):
    """The square ``sq``, a pair of 2-edge paths, as ``asyncgraphs._square``
    checks it against ``emap``; a square that fails that check is put on
    ``late``, to be reported once every square has its shape checked."""
    if not isinstance(sq, list) or len(sq) != 2:
        raise SchemaError(": expected a pair of 2-edge paths")
    for w in sq:
        if not (isinstance(w, list) and len(w) == 2
                and isinstance(w[0], str) and isinstance(w[1], str)):
            _string_list(w, "")  # raises unless ``w`` is a list of strings
            raise SchemaError(": expected a pair of 2-edge paths")
    try:
        return _square(emap, tuple(sq[0]), tuple(sq[1]))
    except AsyncError as exc:
        late.append(exc)
        return None


def parse_async(obj: Mapping) -> AsyncGraph:
    """The graph of ``obj``, each square read and checked once, in input
    order.  The errors come in the order of the checks: the shapes of the
    nodes, the edges, every square and the origin, then the edges and the
    origin against the nodes (``asyncgraphs._edge_map``), then the first
    square that is not one in the graph."""
    _require_keys(obj, {"nodes", "edges", "origin", "squares"},
                  {"nodes", "edges", "origin"}, "async graph")
    nodes = frozenset(_string_list(obj["nodes"], "nodes"))
    edges = _items(obj["edges"], "edges", _async_edge)
    origin = obj["origin"]
    late: List[ValueError] = []
    try:  # an origin that is not a string fails its shape check below
        emap = _edge_map(nodes, edges, origin if isinstance(origin, str) else "")
    except AsyncError as exc:
        emap = {}
        late.append(exc)
    squares = _items(obj.get("squares", []), "squares",
                     lambda sq: _async_square(sq, emap, late))
    origin = _string(origin, "origin")
    if late:
        raise SchemaError(str(late[0]))
    return AsyncGraph(nodes, emap, origin, frozenset(squares))


def async_to_json(a: AsyncGraph) -> Dict[str, Any]:
    return {
        "nodes": sorted(a.nodes),
        "edges": [{"id": e, "src": s, "tgt": t}
                  for e, (s, t) in sorted(a.edges.items())],
        "origin": a.origin,
        "squares": sorted(sorted([list(p) for p in sq]) for sq in a.squares),
    }


# ---------------------------------------------------------------------- #
# Dispatch
# ---------------------------------------------------------------------- #

_PARSERS = {
    "es": parse_es,
    "domain": parse_domain,
    "grammar": parse_grammar,
    "asyncgraph": parse_async,
    "epes": parse_epes,
}


def _parser(kind: str):
    if kind not in _PARSERS:
        raise SchemaError(f"unknown kind {kind!r}; expected one of {tuple(_PARSERS)}")
    return _PARSERS[kind]


def read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``; SchemaError if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(str(exc)) from None


def parse_bytes(data: bytes, path: str, kind: str):
    """Validate one structure of the expected kind from ``data``, the bytes
    of the file at ``path``, read as a file opened in text mode reads them:
    UTF-8, with each ``\\r\\n`` or lone ``\\r`` turned into ``\\n``."""
    parse = _parser(kind)
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError (JSON is UTF-8), or nesting
        # past the recursion limit
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    return parse(obj)


def load_structure(path: str, kind: str):
    """Load and validate one structure of the expected kind from a file."""
    _parser(kind)  # an unknown kind is named before the file is read
    return parse_bytes(read_bytes(path), path, kind)


# how each scalar type is written; json.dumps writes any other leaf
_SCALAR = {str: _enc, int: int.__repr__, bool: {True: "true", False: "false"}.get,
           type(None): lambda _: "null"}
_SCALARS, _STR, _DICT = frozenset(_SCALAR), {str}, {dict}
_LISTED = _SCALARS | {list}


def _scalar(x) -> str:
    return _SCALAR[x.__class__](x)


def _records(x, nl: str):
    """The text of ``x``, a non-empty list of dicts at the indent ``nl``,
    when the dicts share one non-empty set of string keys and every value
    is a string, int, bool, None or list of strings: each record fills one
    template.  None for any other list."""
    first = x[0].keys()
    if any(d.keys() != first for d in x) or set(map(type, first)) != _STR:
        return None
    keys = sorted(first)
    nl2, nl3, nl4 = nl + "  ", nl + "    ", nl + "      "
    columns = []
    for k in keys:
        vals = list(map(itemgetter(k), x))
        kinds = set(map(type, vals))
        if kinds <= _SCALARS:
            columns.append(map(_enc if kinds == _STR else _scalar, vals))
            continue
        if not kinds <= _LISTED or set(map(type, chain.from_iterable(
                v for v in vals if v.__class__ is list))) - _STR:
            return None
        sep4 = "," + nl4
        columns.append([_scalar(v) if v.__class__ is not list
                        else "[" + nl4 + sep4.join(map(_enc, v)) + nl3 + "]" if v
                        else "[]" for v in vals])
    template = _record(keys, nl2)
    return "[" + nl2 + ("," + nl2).join(map(template.__mod__, zip(*columns))) + nl + "]"


def dumps(obj: Any) -> str:
    """``obj`` as JSON text: two-space indents, sorted keys.

    The text is byte for byte ``json.dumps(obj, indent=2, sort_keys=True)``,
    and what that call rejects (an unknown type, a bad key, a cycle) raises
    the same error here.  A list of strings, an object whose values are all
    strings, ints, bools or None, or a list of records (objects with one
    shared set of string keys, each value a string, int, bool, None or list
    of strings) is written in one join over ``json``'s C string encoder; a
    domain's text has its own writer, ``dumps_domain``.  Any other
    container is walked with an explicit stack, so nesting depth is not
    bounded by the recursion limit, and any leaf other than a string, int,
    bool or None is written by ``json.dumps``.
    """
    out: List[str] = []
    path: List[int] = []  # ids of the containers open at each depth
    todo: List = [(obj, "\n")]  # text, or a value with the newline and indent of its depth
    while todo:
        x = todo.pop()
        if x.__class__ is str:
            out.append(x)
            continue
        x, nl = x
        code = _SCALAR.get(x.__class__)
        if code is not None:
            out.append(code(x))
            continue
        if not isinstance(x, (list, tuple, dict)):
            out.append(json.dumps(x))
            continue
        if not x:
            out.append("{}" if isinstance(x, dict) else "[]")
            continue
        nl2 = nl + "  "
        sep = "," + nl2
        if isinstance(x, dict):
            keys = sorted(x)
            vals = list(map(x.__getitem__, keys))
            if set(map(type, keys)) != _STR:  # json writes these keys as strings
                for k in keys:
                    if not isinstance(k, (str, int, float)) and k is not None:
                        raise TypeError("keys must be str, int, float, bool or None, "
                                        f"not {k.__class__.__name__}")
                keys = [k if isinstance(k, str) else json.dumps(k) for k in keys]
            kinds = set(map(type, vals))
            if kinds <= _SCALARS:
                texts = map(_enc if kinds == _STR else _scalar, vals)
                out.append("{" + nl2 + sep.join(map(": ".join, zip(map(_enc, keys), texts)))
                           + nl + "}")
                continue
            heads = [sep + _enc(k) + ": " for k in keys]
            heads[0] = "{" + heads[0][1:]
            close = nl + "}"
        else:
            kinds = set(map(type, x))
            if kinds == _STR:
                out.append("[" + nl2 + sep.join(map(_enc, x)) + nl + "]")
                continue
            if kinds == _DICT and (text := _records(x, nl)) is not None:
                out.append(text)
                continue
            vals = x
            heads = ["[" + nl2] + [sep] * (len(x) - 1)
            close = nl + "]"
        depth = len(nl) >> 1
        del path[depth:]
        if id(x) in path:
            raise ValueError("Circular reference detected")
        path.append(id(x))
        todo.append(close)
        for head, v in zip(reversed(heads), reversed(vals)):
            todo += ((v, nl2), head)
    return "".join(out)


_SLICE = 1 << 16  # characters encoded at a time by ``write_text``


def write_text(path: str, *parts: str) -> None:
    """Write ``parts`` to ``path`` in order, so no payload is copied to
    append a newline, and each in slices of ``_SLICE`` characters, so no
    payload is encoded to UTF-8 whole; SchemaError if that fails."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for part in parts:
                for at in range(0, len(part), _SLICE):
                    fh.write(part[at:at + _SLICE])
    except OSError as exc:
        raise SchemaError(f"cannot write {path!r}: {exc}") from None


def dump_json(obj: Mapping, path: str) -> None:
    write_text(path, dumps(obj), "\n")
