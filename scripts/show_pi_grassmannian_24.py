#!/usr/bin/env python3
"""Derive and print the (U1, U2) change of coordinates of G_Pi(2, 4).

Shows the full transitions, their reduced parts, the odd-degree layers and
the cubic term that separates the fermionic transitions from those of the
parity-shifted cotangent sheaf of the reduced Grassmannian.
"""

from superpi.builders import derive_transition_from_cells, pi_grassmannian_cells


def main() -> None:
    cells = pi_grassmannian_cells(2, 4)
    t12 = derive_transition_from_cells(cells[0], cells[1])

    print("derived transitions U1 -> U2:")
    for name in t12.target.coords:
        print(f"  {name} = {t12.images[name].to_str()}")

    print("\nreduced parts (the ordinary Grassmannian):")
    for name in t12.target.even_coords:
        print(f"  {name}|red = {t12.images[name].degree_part(0).to_str()}")

    print("\nodd-degree layers of the fermionic transitions:")
    for name in t12.target.odd_coords:
        image = t12.images[name]
        for degree in sorted(image.degrees()):
            print(f"  {name}[deg {degree}] = {image.degree_part(degree).to_str()}")

    cubic = t12.images["th22"].degree_part(3)
    print(f"\ncubic correction in th22: {cubic.to_str()}")


if __name__ == "__main__":
    main()
