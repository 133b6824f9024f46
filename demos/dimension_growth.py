"""How the quantization dimension grows with genus and level.

The headline object is a finite trigonometric sum that must come out an
integer; verlinde_dim evaluates it in extended precision, chosen from the
sum's size, and certifies the rounding with an explicit error bound.
"""

from bsq.verlinde import verlinde_dim


def main():
    print("dimension table dim(g, k)")
    levels = range(1, 9)
    print("  g\\k " + "".join(f"{k:>8}" for k in levels))
    for g in range(1, 6):
        row = [verlinde_dim(g, k).dim for k in levels]
        print(f"  {g:>3} " + "".join(f"{d:>8}" for d in row))

    print()
    print("genus 1 collapses to k+1 (two marked points on a sphere glued):")
    print(" ", [verlinde_dim(1, k).dim for k in range(1, 11)])

    print()
    print("the certificate: raw sum, rounded value, and the error bound")
    for g, k in [(2, 6), (4, 10), (6, 12)]:
        v = verlinde_dim(g, k)
        print(f"  g={g} k={k:<3} dim={v.dim:<12} error_bound={v.error_bound:.3e}")

    print()
    print("the precision is chosen where 96 bits cannot certify the sum:")
    for g, k in [(10, 50), (6, 200)]:
        v = verlinde_dim(g, k)
        print(f"  g={g:<2} k={k:<3} {v.precision} bits  bound={v.error_bound:.3e}")


if __name__ == "__main__":
    main()
