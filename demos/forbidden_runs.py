"""A hitting set from one forbidden word, and the Markov chain behind its size.

Every w-mer that begins with 0^d, plus every w-mer with no 0^d run at all,
hits all long walks; the remaining path length is exactly w - d.  The share
of run-free w-mers is a matrix power of a d-state chain with a closed-form
characteristic polynomial.

Run: python3 demos/forbidden_runs.py
"""

from uhspath.forbidden import (
    bracket_holds,
    build_forbidden_set,
    dominant_root,
    eigenpair_residual,
    forbidden_d,
    survival_probability,
)
from uhspath.paths import longest_remaining_path


def main():
    for w in (9, 16, 24):
        d = forbidden_d(2, w)
        F = build_forbidden_set(2, w)
        L = longest_remaining_path(F).longest_vertices
        print(f"w={w:2d}  d={d}  |F|={F.cardinality:8d}  "
              f"relative size {float(F.relative_size()):.4f}  longest path {L} (= w-d)")
    print()

    print("survival of the zero-run chain (exact rationals):")
    for d in (2, 3):
        for w in (8, 16, 32):
            p = survival_probability(2, d, w)
            print(f"  d={d} w={w:2d}: {p} ~ {float(p):.6f}")
    print()

    for d in (2, 3, 4):
        assert bracket_holds(2, d)
        lam = dominant_root(2, d)
        print(f"dominant eigenvalue d={d}: {float(lam):.10f}  "
              f"(residual {eigenpair_residual(2, d, lam):.2e})")


if __name__ == "__main__":
    main()
