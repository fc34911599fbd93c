"""Exhaustive signing search with the structural pre-filter.

Usage:
    python3 demos/search_and_filters.py

Shows the search on a graph that cancels (K_4), one that provably
cannot (C_5), and the quick necessary-condition report that rejects
most non-candidates before any signing is tried.
"""

from signedwiener.canceling import necessary_conditions
from signedwiener.graphs import (
    complete_graph,
    cycle_graph,
    path_graph,
    theta_graph,
)
from signedwiener.search import find_k_canceling_signing


def filter_line(g) -> str:
    rep = necessary_conditions(g, 1)
    return "passes" if rep.passes else "; ".join(rep.failures())


def main() -> None:
    k4 = complete_graph(4)
    hit = find_k_canceling_signing(k4, 1)
    print(f"K_4: found={hit.found} after {hit.examined} signings")
    print(f"  signs: {hit.witness.signs}")
    print()

    c5 = cycle_graph(5)
    miss = find_k_canceling_signing(c5, 1, use_filter=False)
    print(f"C_5 without the filter: found={miss.found} "
          f"after {miss.examined} signings (the full half-space)")
    filtered = find_k_canceling_signing(c5, 1)
    print(f"C_5 with the filter:    found={filtered.found} "
          f"after {filtered.examined} signings")
    print()

    print("necessary-condition reports (a failing line kills the search):")
    for name, g in (("P_4", path_graph(4)), ("C_5", cycle_graph(5)),
                    ("K_4", complete_graph(4))):
        print(f"  {name:4s} -> {filter_line(g)}")
    print()

    print("thetas (t paths on n vertices have n + t - 2 edges, so the "
          "filter settles t <= 3):")
    for lengths in ((2, 2, 3), (1, 2, 2, 3)):
        print(f"  theta{lengths} -> {filter_line(theta_graph(lengths))}")


if __name__ == "__main__":
    main()
