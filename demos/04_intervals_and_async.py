"""Two other faces of the same domains: intervals and asynchronous graphs.

Cover pairs of a poset, grouped by the induced equivalence, are another way
to spot the events; the classes biject with the interchangeability classes
of irreducibles.  Reading the Hasse diagram as a transition graph with all
squares commuting gives an asynchronous graph; the downward (stability)
direction of the cube axiom fails exactly where an event has several
minimal histories.
"""

from weavent import (check_axioms, dom_of_es, ev_wd, es_isomorphic,
                     interval_classes, zeta, hasse_as_async, async_domain,
                     poset_isomorphic, validate_async_graph)
from weavent.fixtures import e_ccs, e_run, m3

run_dom = dom_of_es(e_run())
print("interval classes of the or-enabled domain:")
for cls in interval_classes(run_dom):
    print("   ", sorted(cls))
print("\nzeta maps interval classes onto irreducible classes:")
for ivc, irc in zeta(run_dom):
    print("   ", sorted(ivc)[0], "...  ->", sorted(irc))

print("\naxioms on this domain:", check_axioms(run_dom))
print("axioms on the three-atom lattice:", check_axioms(m3()),
      "(one class of intervals, distinct covers of the bottom: (R) fails)")

es = ev_wd(run_dom)
print("\nthe interval construction recovers the events:",
      es_isomorphic(es, e_run()) is not None)

a_run = hasse_as_async(run_dom)
rep = validate_async_graph(a_run)
print("\nHasse diagram as an asynchronous graph (all squares commuting):")
print("    square axioms:", rep.axiom1 and rep.axiom2,
      "| upward cube:", rep.cube_up,
      "| downward (stability):", rep.cube_down,
      "| coherence:", rep.coherence)
print("    weak prime:", rep.weak_prime())
print("    path classes rebuild the poset:",
      poset_isomorphic(async_domain(a_run), run_dom) is not None)

ccs_dom = dom_of_es(e_ccs())
rep2 = validate_async_graph(hasse_as_async(ccs_dom))
print("\nthe stable structure's graph also satisfies stability:",
      rep2.full_valid() and rep2.prime())
