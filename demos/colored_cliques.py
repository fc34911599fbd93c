"""Beyond two signs: r-colorings whose paths use every color equally.

Usage:
    python3 demos/colored_cliques.py

Certifies the stored 3-colorings of K_6 and K_12 and shows one balanced
path witness.
"""

from signedwiener.distances import canceling_path_witness
from signedwiener.witnesses import certify, complete_rk_coloring


def main() -> None:
    for n, r, k in ((6, 3, 2), (12, 3, 3)):
        w = complete_rk_coloring(n, r, k)
        c = certify(w)
        counts = [w.coloring.colors.count(col) for col in range(1, r + 1)]
        print(f"{w.name}: ({r},{k})-canceling certified={c.ok}, "
              f"color usage {counts}")
    print()

    w = complete_rk_coloring(6, 3, 2)
    path = canceling_path_witness(w.graph, w.coloring, 0, 3)
    print(f"balanced 0-3 path in {w.name}: vertices {path.vertices}")
    print(f"  per-color edge counts {path.color_counts}")


if __name__ == "__main__":
    main()
