"""Batch front end.

Verbs: ``check``, ``convert``, ``connect``, ``derive``, ``synth``,
``roundtrip``, ``axioms``, ``async``, ``emit``.  Reports are JSON objects
``{"verb", "inputs", "results", "witnesses"}`` on stdout.  Exit codes:
0 when every asserted property holds, 1 when a property check fails (the
report names the failing check and carries a witness), 2 on invalid input
(diagnostics on stderr).  Output is byte-identical across runs.

Lines of a verb and its flags are read from ``_OPTIONS``; argparse, built
from that table, runs only for ``--help``, errors and its other spellings.

``main`` may be called many times in one process, a batch session.  Each
call reads its input file's bytes; when they are the bytes of the last file
of that kind that parsed, or of the grammar ``synth --out`` last wrote, the
call gets that structure back, with what earlier verbs derived from it
and kept on it: the configuration table, the domain, the connected
structure, a domain's certificate, the axiom and asynchronous-graph
reports, a grammar's verdict (each under its ``_common.once`` function)
and the matches of its start graph.
``_SESSION`` holds one structure per input kind and drops it before a new
file of that kind is parsed, or before ``synth --out`` holds the grammar it
wrote; a file that fails to parse is not held.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import domains as dommod
from . import dot as dotmod
from . import io as iomod
from .es import EsError, classify, configuration_count
from .domains import OrderError, algebraicity, interchange_classes, irreducible_elements, \
    primes, validate_domain, weak_primes
from .duality import _counit_holds, _es_matches, _fuse_counit_holds, _unfold_unit_holds, \
    connect_es, dom_of_es, epes_dom, epes_ev, ev_of_domain, fuse, unfold, validate_epes
from .graphs import GraphError
from .intervals import _zeta_events, check_axioms, ev_wd, interval_classes, zeta
from .asyncgraphs import AsyncError, async_domain, validate_async_graph
from .rewrite import DEFAULT_CEILING, grammar_from_es, once_per_rule_depth, trace_classes

# verb -> flag -> (dest, type), in the order ``--help`` lists the flags: the
# value is read through ``str`` or ``int``; ``bool`` marks a switch, which
# takes no value.  An input's kind is its dest without the underscore.
_INPUTS = {"--es": ("es", str), "--domain": ("domain", str), "--grammar": ("grammar", str),
           "--async": ("async_graph", str), "--epes": ("epes", str)}
_WRITES = {**_INPUTS, "--out": ("out", str)}
_OPTIONS = {
    "check": {**_INPUTS, "--weak": ("weak", bool)},
    "convert": {**_WRITES, "--to": ("to", str)},
    "connect": _WRITES,
    "derive": {**_WRITES, "--format": ("format", str), "--depth": ("depth", int),
               "--fusion-safe": ("fusion_safe", bool)},
    "synth": _WRITES,
    "roundtrip": _INPUTS,
    "axioms": _INPUTS,
    "async": {**_WRITES, "--weak": ("weak", bool)},
    "emit": {**_WRITES, "--format": ("format", str)},
}
# the flag a line must give wherever its verb takes it
_REQUIRED = "--to"


# The batch session: per input kind, the bytes of the last file of that
# kind that parsed, or that ``synth`` wrote, and its structure, which keeps
# what verbs derive from it (``_common.once``).
_SESSION: Dict[str, Tuple[bytes, Any]] = {}


def _load(path: str, kind: str):
    """The structure in the file at ``path``, read on every call: the one
    the session holds when the bytes are those it was parsed from (or,
    for a grammar, written from), else the file's own, parsed after the
    old one of its kind is dropped."""
    data = iomod.read_bytes(path)
    if kind in _SESSION and _SESSION[kind][0] == data:
        return _SESSION[kind][1]
    _SESSION.pop(kind, None)
    value = iomod.parse_bytes(data, path, kind)
    _SESSION[kind] = data, value
    return value


def _one_input(args, expects: Optional[str] = None) -> tuple:
    """The path, kind and structure of the one input; SchemaError unless
    its kind is ``expects``, when that is given."""
    given = [dest for dest, _ in _INPUTS.values() if getattr(args, dest)]
    if len(given) != 1:
        raise iomod.SchemaError("give exactly one input "
                                "(--es | --domain | --grammar | --async | --epes)")
    path = getattr(args, given[0])
    kind = given[0].replace("_", "")
    value = _load(path, kind)
    if expects and kind != expects:
        option = "async" if expects == "asyncgraph" else expects
        raise iomod.SchemaError(f"{args.verb} expects --{option}")
    return path, kind, value


def _write_report(verb: str, inputs: Dict[str, str], results: Dict[str, Any],
                  witnesses: Optional[List] = None) -> None:
    """Write the report's JSON text and a newline to stdout.  A
    ``structure`` in ``results`` is JSON text (``_encoded``), written at its
    indentation between the text before and after it: no JSON string holds
    a newline, so only that key starts a line ``    "structure": ``."""
    structure = results.get("structure")
    text = iomod.dumps({"verb": verb, "inputs": inputs, "witnesses": witnesses or [],
                        "results": {**results, "structure": None} if structure else results})
    write = sys.stdout.write
    if structure:
        head, key, text = text.partition('\n    "structure": null')
        write(head)
        write(key[:-4])
        write(structure.replace("\n", "\n    "))
    write(text)
    write("\n")


def _encoded(text: str, out: Optional[str]) -> str:
    """``text``, a payload's JSON text, written to ``out`` when given, for
    the report to carry too."""
    if out:
        iomod.write_text(out, text, "\n")
    return text


def _domain_summary(dom) -> Dict[str, Any]:
    alg = algebraicity(dom)
    return {
        "elements": len(dom.elements),
        "covers": len(dom._cover_pairs),
        "irreducibles": sorted(irreducible_elements(dom)),
        "primes": sorted(primes(dom)),
        "weak_primes": sorted(weak_primes(dom)),
        "interchange_classes": [sorted(c) for c in interchange_classes(dom)],
        "irreducible_algebraic": alg.irreducible_algebraic,
        "prime_algebraic": alg.prime_algebraic,
        "weak_prime_algebraic": alg.weak_prime_algebraic,
    }


def _async_results(rep) -> Dict[str, Any]:
    """Each axiom's verdict on an asynchronous graph, and the weak and full
    validity verdicts."""
    return {"axiom1": rep.axiom1, "axiom2": rep.axiom2,
            "cube_up": rep.cube_up, "cube_down": rep.cube_down,
            "coherence": rep.coherence,
            "all_cofinal_equivalent": rep.all_cofinal_equivalent,
            "weak_valid": rep.weak_valid(), "full_valid": rep.full_valid(),
            "weak_prime": rep.weak_prime(), "prime": rep.prime()}


# ---------------------------------------------------------------------- #
# Verbs
# ---------------------------------------------------------------------- #

def _cmd_check(args) -> tuple:
    path, kind, value = _one_input(args)
    witnesses: List = []
    if kind == "es":
        cl = classify(value)
        results = {"kind": kind, "live": cl.live, "stable": cl.stable,
                   "prime": cl.prime, "connected": cl.connected,
                   "configurations": configuration_count(value)}
        if not cl.live:
            witnesses += list(cl.diagnostics)
            raise _FailureWithReport(results, witnesses, path)
    elif kind == "domain":
        rep = validate_domain(value)
        results = {"kind": kind, "valid": rep.ok}
        if not rep.ok:
            witnesses.append({"check": rep.condition, "witness": list(rep.witness or ())})
            raise _FailureWithReport(results, witnesses, path)
        results.update(_domain_summary(value))
    elif kind == "grammar":  # validated by its parser, or built valid by ``synth``
        results = {"kind": kind, "rules": [r.name for r in value.rules],
                   "start_nodes": len(value.start.nodes),
                   "start_edges": len(value.start.edges)}
    elif kind == "asyncgraph":
        rep = validate_async_graph(value)
        results = {"kind": kind, **_async_results(rep)}
        if not results["weak_valid" if args.weak else "full_valid"]:
            witnesses += list(rep.diagnostics)
            raise _FailureWithReport(results, witnesses, path)
    else:  # epes
        ok, diags = validate_epes(value)
        results = {"kind": kind, "valid": ok}
        if not ok:
            witnesses += list(diags)
            raise _FailureWithReport(results, witnesses, path)
    return {"input": path}, results, witnesses


class _FailureWithReport(Exception):
    """A failed property check; its ``args`` are the results, the witnesses
    and the input path of the report."""


def _cmd_convert(args) -> tuple:
    path, kind, value = _one_input(args)
    target = args.to
    # built at each call, so that every construction is looked up as it runs
    construct = {("es", "domain"): dom_of_es, ("es", "epes"): unfold,
                 ("domain", "es"): ev_of_domain, ("domain", "epes"): epes_ev,
                 ("domain", "es-intervals"): ev_wd, ("epes", "es"): fuse,
                 ("epes", "domain"): epes_dom}.get((kind, target))
    if construct is None:
        raise iomod.SchemaError(f"cannot convert {kind} to {target}")
    made = construct(value)
    if target == "domain":
        text = iomod.dumps_domain(made)
    elif target == "epes":
        text = iomod.dumps(iomod.epes_to_json(made))
    else:
        text = iomod.dumps(iomod.es_to_json(made))
    results = {"from": kind, "to": target, "written": args.out or None,
               "structure": _encoded(text, args.out)}
    return {"input": path}, results, []


def _cmd_connect(args) -> tuple:
    path, _, value = _one_input(args, "es")
    out = connect_es(value)
    structure = _encoded(iomod.dumps(iomod.es_to_json(out)), args.out)
    return {"input": path}, {"connected": classify(out).connected, "events": len(out.events),
                             "written": args.out or None, "structure": structure}, []


def _cmd_derive(args) -> tuple:
    path, _, value = _one_input(args, "grammar")
    if (args.format or "json") not in ("json", "dot"):
        raise iomod.SchemaError(f"unknown format {args.format!r}")
    depth = args.depth
    if depth is None:
        # exhaustive for once-per-rule grammars (e.g. synthesised ones)
        depth = once_per_rule_depth(value)
        if depth is None:
            raise iomod.SchemaError(
                "derive requires --depth (this grammar has no provable bound)")
    elif depth < 0:
        raise iomod.SchemaError(f"--depth must not be negative, got {depth}")
    ceiling = os.environ.get("WEAVENT_CLASS_CEILING", DEFAULT_CEILING)
    try:
        ceiling = int(ceiling)
    except ValueError:
        raise iomod.SchemaError(f"WEAVENT_CLASS_CEILING is not an integer: {ceiling!r}") from None
    if ceiling < 0:
        raise iomod.SchemaError(f"WEAVENT_CLASS_CEILING must not be negative, got {ceiling}")
    res = trace_classes(value, depth, fusion_safe=args.fusion_safe, ceiling=ceiling)
    dom = res.domain
    alg = algebraicity(dom)
    results = {
        "depth": depth,
        "fusion_safe": args.fusion_safe,
        "trace_classes": len(res.classes),
        "classes": [c.element_id for c in res.classes],
        "weak_prime": alg.weak_prime_algebraic,
        "prime": alg.prime_algebraic,
    }
    witnesses: List = []
    if args.out:
        if args.format == "dot":
            iomod.write_text(args.out, dotmod.poset_dot(dom, "traces"))
        else:
            iomod.write_text(args.out, iomod.dumps_domain(dom), "\n")
        results["written"] = args.out
    expected_prime = args.fusion_safe
    if not alg.weak_prime_algebraic or (expected_prime and not alg.prime_algebraic):
        witnesses.append({"check": "trace-domain-algebraicity",
                          "witness": results["classes"]})
        raise _FailureWithReport(results, witnesses, path)
    return {"input": path}, results, witnesses


def _cmd_synth(args) -> tuple:
    path, _, value = _one_input(args, "es")
    grammar = grammar_from_es(value)
    text = _encoded(iomod.dumps_grammar(grammar), args.out)
    if args.out:
        # the file's bytes as ``_load`` reads them back, unless the write
        # translated newlines: then the file is parsed as any other
        _SESSION["grammar"] = (text + "\n").encode("utf-8"), grammar
    results = {"rules": [r.name for r in grammar.rules],
               "start_nodes": len(grammar.start.nodes),
               "exhaustive_depth": len(grammar.rules),
               "written": args.out or None, "structure": text}
    return {"input": path}, results, []


def _cmd_roundtrip(args) -> tuple:
    """The maps of the duality, each tested as the isomorphism, with no
    search: the unit φ of ``domains._certify`` and the counit
    (``_counit_holds``) for ``--es``; φ and ζ for ``--domain``; the unit η
    (``_unfold_unit_holds``) and the counit ε (``_fuse_counit_holds``) for
    ``--epes``.  Each check is a result key, its verdict and the witness
    named if it fails."""
    path, kind, value = _one_input(args)
    results = {"kind": kind}
    if kind == "es":
        cl = classify(value)
        if not cl.live:
            raise iomod.SchemaError("roundtrip --es needs a live structure: "
                                    + "; ".join(cl.diagnostics))
        dom = dom_of_es(value)
        connected = ev_of_domain(dom)  # connect_es(value), on the domain at hand
        checks = [("dom_preserved", dommod._certify(dom, connected), "coreflection-domain")]
        if cl.connected:
            checks.insert(0, ("connected_fixed_point", _counit_holds(value, connected),
                              "coreflection-counit"))
    elif kind == "domain":
        es = ev_of_domain(value)
        checks = [("dom_of_ev_isomorphic", dommod._certified(value), "duality-domain-roundtrip"),
                  ("interval_construction_agrees",
                   _es_matches(ev_wd(value), es, _zeta_events(value)),
                   "interval-vs-irreducible-es")]
        results["zeta_classes"] = len(zeta(value))
    elif kind == "epes":
        fused = fuse(value)
        again = unfold(fused)
        checks = [("unfold_fuse_isomorphic", _unfold_unit_holds(value, again),
                   "epes-unfold-fuse"),
                  ("fuse_unfold_isomorphic", _fuse_counit_holds(fused, fuse(again)),
                   "es-fuse-unfold")]
    else:
        raise iomod.SchemaError("roundtrip expects --es, --domain or --epes")
    results.update((key, ok) for key, ok, _ in checks)
    witnesses = [{"check": check, "witness": path} for _, ok, check in checks if not ok]
    if witnesses:
        raise _FailureWithReport(results, witnesses, path)
    return {"input": path}, results, witnesses


def _cmd_axioms(args) -> tuple:
    path, _, value = _one_input(args, "domain")
    rep = check_axioms(value)
    alg = algebraicity(value)
    results = {"F": rep.F, "C": rep.C, "R": rep.R, "V": rep.V, "I": rep.I,
               "intervals": len(value._cover_pairs),
               "interval_classes": len(interval_classes(value)),
               "weak_prime_algebraic": alg.weak_prime_algebraic}
    witnesses = []
    if rep.witness is not None:
        witnesses.append({"check": "interval-axiom", "witness": list(rep.witness)})
    return {"input": path}, results, witnesses


def _cmd_async(args) -> tuple:
    path, _, value = _one_input(args, "asyncgraph")
    rep = validate_async_graph(value)
    results = _async_results(rep)
    witnesses: List = []
    if rep.weak_prime():
        dom = async_domain(value)
        results["path_classes"] = len(dom.elements)
        if args.out:
            iomod.write_text(args.out, iomod.dumps_domain(dom), "\n")
            results["written"] = args.out
    if not results["weak_valid" if args.weak else "full_valid"]:
        witnesses += list(rep.diagnostics)
        raise _FailureWithReport(results, witnesses, path)
    return {"input": path}, results, witnesses


def _cmd_emit(args) -> tuple:
    path, kind, value = _one_input(args)
    if (args.format or "dot") != "dot":
        raise iomod.SchemaError(f"unknown format {args.format!r}")
    if not args.out:
        raise iomod.SchemaError("emit requires --out")
    if kind == "es":
        text = dotmod.poset_dot(dom_of_es(value))
    elif kind == "domain":
        text = dotmod.poset_dot(value)
    elif kind == "grammar":
        text = dotmod.typed_graph_dot(value.start, "start")
    elif kind == "asyncgraph":
        text = dotmod.async_dot(value)
    else:
        raise iomod.SchemaError("emit expects --es, --domain, --grammar or --async")
    iomod.write_text(args.out, text)
    return {"input": path}, {"written": args.out, "bytes": len(text)}, []


_VERBS = {
    "check": _cmd_check,
    "convert": _cmd_convert,
    "connect": _cmd_connect,
    "derive": _cmd_derive,
    "synth": _cmd_synth,
    "roundtrip": _cmd_roundtrip,
    "axioms": _cmd_axioms,
    "async": _cmd_async,
    "emit": _cmd_emit,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="weavent",
        description="Event structures, weak prime domains, fusing graph rewriting.")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, options in _OPTIONS.items():
        sub = subs.add_parser(verb)
        for flag, (dest, kind) in options.items():
            if kind is bool:
                sub.add_argument(flag, dest=dest, action="store_true")
            else:
                sub.add_argument(flag, dest=dest, type=kind, required=flag == _REQUIRED)
    return parser


def _read_argv(argv: List[str]) -> Optional[argparse.Namespace]:
    """What ``build_parser().parse_args(argv)`` returns for a verb and its
    flags, each once with a value not starting with ``-``; else None."""
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    values, given = {}, set()
    for dest, kind in options.values():
        values[dest] = False if kind is bool else None
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in options or flag in given:
            return None
        given.add(flag)
        dest, kind = options[flag]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as one argparse rejects
        if value.startswith("-"):
            return None
        try:
            values[dest] = kind(value)
        except ValueError:
            return None
    if _REQUIRED in options and _REQUIRED not in given:
        return None
    return argparse.Namespace(verb=argv[0], **values)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or build_parser().parse_args(argv)
    handler = _VERBS[args.verb]
    code = 0
    try:
        inputs, results, witnesses = handler(args)
    except _FailureWithReport as fail:
        results, witnesses, path = fail.args
        code, inputs = 1, {"input": path}
    except (iomod.SchemaError, EsError, OrderError, GraphError, AsyncError) as exc:
        sys.stderr.write(iomod.dumps({"error": str(exc)}) + "\n")
        return 2
    try:
        _write_report(args.verb, inputs, results, witnesses)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, as Python's
        # documentation advises, so that the flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
