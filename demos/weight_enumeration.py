"""Admissible weights on a trinion graph, and the count they must hit.

Each edge carries a label j/k, and a weight is the tuple of its numerators j;
a labeling is admissible when every vertex satisfies the parity, level-cap,
and triangle conditions and every bridge numerator is even.  The punchline:
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
    print("why the bridge rule matters: an odd numerator on the dumbbell bridge")
    report = is_admissible(DUMBBELL_GRAPH, 2, (0, 1, 0))
    for v in report.violations:
        print(f"  {v.site}: condition {v.condition}, {v.detail}")

    print()
    print("negative control: capping numerators at k-1 breaks the identity")
    for k in (1, 2, 3):
        short = count_admissible(THETA_GRAPH, k, max_numerator=k - 1)
        print(f"  k={k}: open-range count {short} vs dimension {verlinde_dim(2, k).dim}")


if __name__ == "__main__":
    main()
