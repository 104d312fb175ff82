"""How far can you walk around a decycling set?

Builds the complex-embedding decycling set for a range of w, measures the
longest remaining path L(w), and compares it with the explicit constructed
path in the upper half-plane.

Run: python3 demos/decycling_growth.py
"""

from uhspath.core import necklace_count
from uhspath.mykkeltveit import build_long_path, build_mykkeltveit_set
from uhspath.paths import longest_remaining_path


def main():
    print("  w  |set|    L(w)   L/w^2   L/w^3   constructed")
    print("-" * 52)
    for w in range(4, 23):
        m = build_mykkeltveit_set(2, w)
        assert m.cardinality == necklace_count(2, w)
        L = longest_remaining_path(m).longest_vertices
        try:
            built = str(len(build_long_path(2, w).vertices))
        except ValueError:
            built = "-"
        print(f"{w:3d}  {m.cardinality:5d}  {L:6d}  {L / w**2:6.3f}  {L / w**3:6.4f}   {built}")
    print()
    print("L(w) outgrows w^2 and the constructed quadruple path gives an")
    print("explicit certificate of that growth once w >= 16.")


if __name__ == "__main__":
    main()
