"""Rewriting with rules that merge nodes.

The grammar models a name-passing process: two nodes (a channel and a
restricted name), two rules that each delete one output loop and merge the
nodes, and a rule consuming the input loop that only matches after a merge.
Because merging is idempotent, the second fusion can still fire -- through a
non-injective match -- and the step is then no longer fusion-safe.
"""

from weavent import (apply_rule, algebraicity, find_matches, graph_isomorphism,
                     interchange, is_fusion_safe, equivalent_traces,
                     sequential_independence, trace_classes,
                     trace_classes_by_definition, trace_domain,
                     verify_direct_derivation, Derivation, dom_of_es,
                     poset_isomorphic, ev_of_domain, es_isomorphic)
from weavent.fixtures import e_run, e_prime_conflict, running_grammar

g = running_grammar()
start = g.start
print("start graph nodes:", sorted(start.nodes))
print("start graph loops:", sorted(start.edge_type[e] for e in start.edges))

p_a, p_b, p_c = (g.rule(n) for n in ("p_a", "p_b", "p_c"))
print("\nmatches at the start graph: p_a:", len(find_matches(p_a.L, start)),
      " p_b:", len(find_matches(p_b.L, start)),
      " p_c:", len(find_matches(p_c.L, start)))

d1 = apply_rule(start, p_a, find_matches(p_a.L, start)[0])
print("\nafter p_a the two nodes are merged:", sorted(d1.H.nodes))
print("both squares verified as pushouts:", verify_direct_derivation(d1))
print("fusion safe:", is_fusion_safe(d1))

(m,) = find_matches(p_b.L, d1.H)
print("\np_b still matches, non-injectively:", not m.is_injective())
d2 = apply_rule(d1.H, p_b, m)
print("fusion safe:", is_fusion_safe(d2), "(the merge happened already)")

pair = sequential_independence(d1, d2)
print("\np_a ; p_b sequentially independent:", pair is not None)
d2n, d1n = interchange(d1, d2, pair)
print("interchanged to:", d2n.rule.name, ";", d1n.rule.name,
      "  same result:", graph_isomorphism(d1n.H, d2.H) is not None)
psi = Derivation(start).extend(d1).extend(d2)
swapped = Derivation(start).extend(d2n).extend(d1n)
print("the witnessing permutation:", equivalent_traces(psi, swapped))

res = trace_classes(g, depth=3)
# trace_classes extends only one representative per class; the reference
# enumerator builds every interleaving, so count them there
every = trace_classes_by_definition(g, depth=3)
print("\ntrace classes at depth 3:")
for cls, full in zip(res.classes, every.classes):
    print("   ", cls.element_id, f"({len(full.members)} interleavings)")
dom = res.domain
print("the trace poset matches the configuration poset:",
      poset_isomorphic(dom, dom_of_es(e_run())) is not None)
print("and its events are the original ones:",
      es_isomorphic(ev_of_domain(dom), e_run()) is not None)

safe = trace_domain(g, depth=3, fusion_safe=True)
print("\nfusion-safe mode forbids re-merging:", len(safe.elements), "classes,",
      "prime:", algebraicity(safe).prime_algebraic)
print("it matches the conflict variant of the structure:",
      poset_isomorphic(safe, dom_of_es(e_prime_conflict())) is not None)
