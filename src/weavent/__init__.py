"""weavent: finite event structures, weak prime domains, and fusing graph rewriting.

The package works entirely with finite structures.  Event structures come
with an enabling relation given by finite generators and either a binary
conflict or a consistency predicate; their configuration posets are finite
domains.  Typed-graph rewriting uses the double-pushout approach with
left-linear (possibly fusing, i.e. non-right-linear) rules, and derivation
traces of a grammar yield the same class of domains.
"""

from .es import EventStructure, EsError, LivenessError, classify, configurations, \
    is_configuration, is_secured, minimal_enablings, saturate, validate_es_morphism
from .domains import FiniteDomain, OrderError, algebraicity, decompose, diff, \
    interchange_classes, interchangeable, irreducible_elements, irreducibles, predecessor, \
    primes, validate_domain, validate_domain_morphism, weak_primes
from .duality import Epes, configuration_id, connect_es, dom_of_es, \
    dom_of_es_morphism, epes_dom, epes_ev, epes_is_connected, ev_of_domain, fuse, unfold, \
    validate_epes
from .graphs import GraphError, GraphMorphism, TypedGraph, find_matches, \
    graph_isomorphism, iso_hash
from .rewrite import Derivation, DirectDerivation, Grammar, Rule, TraceClass, \
    TraceLimitError, apply_rule, grammar_from_es, interchange, is_fusion_safe, \
    sequential_independence, trace_classes, trace_domain
from .intervals import check_axioms, ev_wd, interval_classes, interval_leq, zeta
from .asyncgraphs import AsyncError, AsyncGraph, async_domain, hasse_as_async, \
    validate_async_graph

# The exhaustive references, the isomorphism searches among them, load on
# first use, so that the command line, which never calls them, does not
# compile them.
_ORACLES = ("epes_isomorphic", "equivalent_traces", "es_isomorphic",
            "interchangeable_by_definition", "interchangeable_via_compacts", "is_pushout",
            "poset_isomorphic", "primes_by_definition", "pushout",
            "trace_classes_by_definition", "validate_domain_by_definition",
            "verify_direct_derivation", "weak_primes_by_definition")


def __getattr__(name: str):
    if name in _ORACLES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_ORACLES)
