"""Admissible weights on a trinion graph, and the count they must hit.

Each edge carries a label j/k, and a weight is the tuple of its numerators j;
a labeling is admissible when every vertex satisfies the parity, level-cap,
and triangle conditions, which make every bridge numerator even.  The punchline:
the number of admissible labelings is the quantization dimension, whichever
graph of the genus you pick.
"""

from fractions import Fraction

from bsq.trigraph import DUMBBELL_GRAPH, THETA_GRAPH, generate_trivalent
from bsq.verlinde import verlinde_dim
from bsq.weights import count_admissible, enumerate_admissible, is_admissible


def main():
    print("all admissible weights on the theta graph at k=2 (numerators):")
    for w in enumerate_admissible(THETA_GRAPH, 2):
        print(f"  {w}  labels {tuple(str(Fraction(j, 2)) for j in w)}")

    print()
    print("counts agree with the dimension, graph by graph:")
    for k in range(1, 7):
        dim = verlinde_dim(2, k).dim
        ct = count_admissible(THETA_GRAPH, k)
        cd = count_admissible(DUMBBELL_GRAPH, k)
        print(f"  k={k}: theta {ct:>3}  dumbbell {cd:>3}  dim {dim:>3}")
    for k in range(1, 4):
        counts = [count_admissible(g, k) for g in generate_trivalent(3)]
        print(f"  genus 3, k={k}: counts {counts}  dim {verlinde_dim(3, k).dim}")

    print()
    print("bridges need no rule of their own: an odd numerator on the dumbbell bridge,")
    print("caught by condition 1 at both of its end vertices")
    report = is_admissible(DUMBBELL_GRAPH, 2, (1, 1, 1))
    for v in report.violations:
        print(f"  {v.site}: condition {v.condition}, {v.detail}")
    print("  summed over one side of a bridge, the ends give twice the inner labels plus")
    print("  the bridge's, so condition 1 at every vertex makes every bridge even")

    print()
    print("negative control: capping numerators at k-1 breaks the identity")
    for k in (1, 2, 3):
        short = count_admissible(THETA_GRAPH, k, max_numerator=k - 1)
        print(f"  k={k}: open-range count {short} vs dimension {verlinde_dim(2, k).dim}")


if __name__ == "__main__":
    main()
