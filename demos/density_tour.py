"""Walk through selection schemes and their densities on a DNA-style string.

Run: python3 demos/density_tour.py
"""

from uhspath.mykkeltveit import build_mykkeltveit_set
from uhspath.paths import longest_remaining_path
from uhspath.schemes import (
    build_compatible_minimizer,
    expected_density,
    minimizer_scheme,
    particular_density,
)

SEQ = "CACTGCTGTACCTCTTCT"


def main():
    # a (3, 5)-minimizer over ACGT: pick the smallest 3-mer in each 7-symbol window
    sch = minimizer_scheme(sigma=4, k=3, w=5)
    res = particular_density(sch, SEQ)
    print(f"sequence          {SEQ}")
    print(f"selected/windows  {res.selected}/{res.windows}")
    print(f"density           {res.density} = {float(res.density):.4f}")

    exp = expected_density(sch)
    print(f"expected density  {float(exp.density):.4f} ({exp.mode})")
    print(f"random-order floor is about 2/(w+1) = {2 / 6:.4f}")
    print()

    # rank the members of a small hitting set first and density drops
    w = 6
    uhs = build_mykkeltveit_set(2, w)
    l = longest_remaining_path(uhs).longest_vertices
    compat = build_compatible_minimizer(uhs, l + 1)
    print(f"binary decycling set at w={w}: {uhs.cardinality} of {2**w} 6-mers "
          f"(relative size {float(uhs.relative_size()):.4f})")
    print(f"UHS guarantee for {l + 1}-windows: {compat.guarantee}")
    d = expected_density(compat)
    print(f"compatible-minimizer density: {float(d.density):.4f} <= relative size")


if __name__ == "__main__":
    main()
