"""The two workload scripts, their seeded inputs and the check of every step.

A workload is a fixed script of ``uhspath`` invocations (a "pass").  Each
step names its argv, the files it writes (relative to the pass's scratch
directory) and a checker that verifies the step's JSON and files with the
independent code in ``checks``.  Checkers take their sizes as parameters so
that ``selftest.py`` can run them at small sizes.  Only the density steps
depend on the seed; every other step runs the same argv for every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    binary_mds_count,
    check_walk,
    count_selected,
    decode_binary_set,
    decode_word,
    embedding_im,
    forbidden_d,
    forward_charged,
    kmer_codes,
    necklace_count,
    no_zero_run_count,
    rational,
    require,
)

ACGT = "ACGT"
SETUP_ARGV = ("necklaces", "--sigma", "2", "--w", "4")
ESTIMATE_SAMPLE = 10**7  # symbols drawn by the sampled estimate (d4 --sample)
SEQ_SYMBOLS = 120_000  # keeps the --seq argument under the 128 KiB argv limit
D3_DENSITY = Fraction(3915, 16384)  # lexicographic minimizer, sigma=2 k=5 w=10


@dataclass
class Inputs:
    """Seeded inputs of one run, plus facts that steps of a pass hand on."""

    seed: int
    workdir: Path
    order: list[str] = field(default_factory=list)  # O: random order of all 4^5 5-mers
    seq: str = ""  # Q: uniform ACGT string
    est_seed: int = 0  # --seed for the sampled estimate
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Step:
    id: str
    argv: tuple[str, ...]
    check: Callable[[dict, Inputs], None]
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[Inputs], list[Step]]
    prepare: Callable[[Inputs], None] = lambda inputs: None


def args(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def check_setup(out: dict, _inputs: Inputs) -> None:
    got = (out["sigma"], out["w"], out["necklace_count"])
    require(got == (2, 4, 6), f"setup output {got} != (2, 4, 6)")


# -- graph checkers ------------------------------------------------------------------


def check_mykkeltveit(out: dict, inputs: Inputs, sigma: int, w: int, set_file: str = "") -> None:
    """Cardinality by Moreau's formula; the set file decodes to the same count."""
    expect = necklace_count(sigma, w)
    if set_file:
        got_sigma, got_w, mask = decode_binary_set(inputs.workdir / set_file)
        inputs.facts[set_file] = (mask, out["longest_path"])
        require((got_sigma, got_w) == (sigma, w), f"set file is sigma={got_sigma} w={got_w}")
        require(int(mask.sum()) == expect, f"set file holds {int(mask.sum())} members, not {expect}")
    require(out["cardinality"] == expect, f"cardinality {out['cardinality']} != {expect}")
    require(out["necklace_count"] == expect, f"necklace_count {out['necklace_count']} != {expect}")
    require(out["decycling"] is True, "set is not decycling")
    require(out["longest_path"] >= 1, "empty remaining path")


def check_witness(out: dict, inputs: Inputs, sigma: int, w: int, set_file: str) -> None:
    """A witness of de Bruijn edges outside the decoded set, as long as claimed."""
    mask, longest = inputs.facts[set_file]
    require(out["kind"] == "ACYCLIC" and out["cycle_witness"] == [], "not acyclic")
    require(out["longest_vertices"] == longest, f"{out['longest_vertices']} != {longest} of the build")
    codes = [decode_word(t, sigma, w) for t in out["witness"]]
    require(len(codes) == out["longest_vertices"], "witness length differs from longest_vertices")
    check_walk(codes, sigma, w)
    require(not mask[codes].any(), "witness enters the set")


def check_forbidden_uhs(out: dict, _inputs: Inputs, sigma: int, w: int, l: int) -> None:
    """Remaining path w - d; size sigma^(w-d) plus the strings with no 0^d run."""
    d = forbidden_d(sigma, w)
    card = sigma ** (w - d) + no_zero_run_count(sigma, d, w)
    require(out["kind"] == "ACYCLIC", "forbidden set is not decycling")
    require(out["longest_path"] == w - d, f"longest_path {out['longest_path']} != w - d = {w - d}")
    require(out["cardinality"] == card, f"cardinality {out['cardinality']} != {card}")
    require(rational(out["relative_size"]) == Fraction(card, sigma**w), "relative_size")
    require(out["is_uhs"] is (w - d < l) and out["l"] == l, "is_uhs")


# -- density checkers ----------------------------------------------------------------


def _check_scheme(out: dict, sigma: int, w: int, k: int, kind: str) -> None:
    got = (out["sigma"], out["w"], out["k"], out.get("kind", kind))
    require(got == (sigma, w, k, kind), f"scheme fields {got}")


def check_exact_density(out: dict, inputs: Inputs, sigma: int, k: int, w: int, rank) -> None:
    """Exact density equals the charged forward contexts counted here."""
    _check_scheme(out, sigma, w, k, "MINIMIZER")
    m = sigma ** (w + k)
    expect = Fraction(forward_charged(rank, sigma, k, w), m)
    density = inputs.facts["exact_density"] = rational(out["density"])
    require(out["mode"] == "EXPECTED_EXACT", f"mode {out['mode']}")
    require(out["windows"] == m and Fraction(out["selected"], m) == density, "selected / windows")
    require(density == expect, f"density {density} != {expect} from forward contexts")


def check_forward_contexts(out: dict, inputs: Inputs, sigma: int, k: int, w: int) -> None:
    """Context theorem: the forward context set's relative size is the density."""
    _check_scheme(out, sigma, w, k, "MINIMIZER")
    rel = rational(out["relative_size"])
    density = inputs.facts["exact_density"]
    require(out["variant"] == "forward" and out["context_symbols"] == w + k, "context shape")
    require(Fraction(out["cardinality"], sigma ** (w + k)) == rel, "cardinality / sigma^(w+k)")
    require(rel == density, f"relative size {rel} != exact density {density}")


def check_local_contexts(out: dict, _inputs: Inputs, sigma: int, k: int, w: int,
                         expect: Fraction | None = None) -> None:
    """Local contexts of the lexicographic minimizer: relative size = exact density."""
    _check_scheme(out, sigma, w, k, "MINIMIZER")
    symbols = 2 * w + k - 2
    rel = rational(out["relative_size"])
    exact = Fraction(forward_charged(np.arange(sigma**k), sigma, k, w), sigma ** (w + k))
    require(out["variant"] == "local" and out["context_symbols"] == symbols, "context shape")
    require(Fraction(out["cardinality"], sigma**symbols) == rel, "cardinality / sigma^symbols")
    require(expect is None or exact == expect, f"reference density {exact} != {expect}")
    require(rel == exact, f"local context relative size {rel} != exact density {exact}")


def write_run_set(path: Path, k: int) -> None:
    """The forbidden-run set for d = 1 in text format: every k-mer starting with 0, plus 1^k."""
    members = [format(c, f"0{k}b") for c in range(2 ** (k - 1))] + ["1" * k]
    path.write_text(f"uhs sigma=2 w={k}\n" + "\n".join(members) + "\n")


def check_estimate(out: dict, inputs: Inputs, k: int, w: int, sample: int) -> None:
    """The sampled estimate of the set-compatible minimizer, recounted here.

    The recount replays the CLI's seeded draw of the sampled string
    (``numpy.random.default_rng(seed).integers(0, 2, size=sample)``).  The
    standard error is only required to be finite and positive, since how it
    is estimated is the program's choice.
    """
    _check_scheme(out, 2, w, k, "COMPATIBLE")
    require(out["mode"] == "EXPECTED_ESTIMATE" and out["uhs_guarantee"] is True, "mode/guarantee")
    s = np.random.default_rng(inputs.est_seed).integers(0, 2, size=sample, dtype=np.int64)
    codes = kmer_codes(s, 2, k)
    del s
    member = (codes < 2 ** (k - 1)) | (codes == 2**k - 1)
    keys = codes + np.where(member, 0, 2**k)  # members rank first, then code order
    del codes, member
    selected = count_selected(keys, w)
    windows = sample - k + 1
    require(out["windows"] == windows, f"windows {out['windows']} != {windows}")
    require(out["selected"] == selected, f"selected {out['selected']} != {selected} by reference")
    require(rational(out["density"]) == Fraction(selected, windows), "density")
    require(math.isfinite(out["stderr"]) and out["stderr"] > 0, f"stderr {out['stderr']}")


def check_particular(out: dict, _inputs: Inputs, k: int, w: int, seq: str) -> None:
    """Particular density of the lexicographic minimizer on an ACGT string."""
    _check_scheme(out, 4, w, k, "MINIMIZER")
    raw = np.frombuffer(seq.encode(), dtype=np.uint8)
    syms = np.searchsorted(np.frombuffer(ACGT.encode(), dtype=np.uint8), raw).astype(np.int64)
    selected = count_selected(kmer_codes(syms, 4, k), w)
    positions = len(seq) - k + 1
    require(out["mode"] == "PARTICULAR", f"mode {out['mode']}")
    require(out["windows"] == positions, f"windows {out['windows']} != {positions}")
    require(out["selected"] == selected, f"selected {out['selected']} != {selected} by reference")
    require(rational(out["density"]) == Fraction(selected, positions), "density")


# -- pointwise checkers --------------------------------------------------------------


def check_long_path(out: dict, inputs: Inputs, w: int, vertex_file: str, csv_file: str = "") -> None:
    """Distinct vertices on legal edges, each with Im(P) > 0 in floats."""
    lines = (inputs.workdir / vertex_file).read_text().split()
    codes = [decode_word(t, 2, w) for t in lines]
    require(out["vertices"] == len(codes), f"{out['vertices']} vertices claimed, {len(codes)} listed")
    require(out["validated"] is True and out["all_im_positive"] is True, "flags")
    check_walk(codes, 2, w)
    ims = [embedding_im(c, 2, w) for c in codes]
    require(min(ims) > 1e-9, f"vertex with Im(P) = {min(ims)} <= 0")
    require(math.isclose(out["min_im"], min(ims), abs_tol=1e-9), "min_im")
    if csv_file:
        rows = (inputs.workdir / csv_file).read_text().split()
        require(rows[0] == "step,re,im" and len(rows) == len(codes) + 1, "csv shape")
        for i, row in enumerate(rows[1:]):
            step, _re, im = row.split(",")
            require(int(step) == i and abs(float(im) - ims[i]) <= 1e-9, f"csv row {i}")


def check_necklace_list(out: dict, _inputs: Inputs, sigma: int, w: int) -> None:
    """FKM classes: Moreau's count, least rotations, periods summing to sigma^w."""
    expect = necklace_count(sigma, w)
    classes = out["classes"]
    require(out["necklace_count"] == expect, f"necklace_count {out['necklace_count']} != {expect}")
    require(len(classes) == expect, f"{len(classes)} classes listed")
    require(sum(c["size"] for c in classes) == sigma**w, "class sizes do not add up to sigma^w")
    reps = [c["rep"] for c in classes]
    require(len(set(reps)) == len(reps), "repeated representative")
    for c in classes:
        rep, size = c["rep"], c["size"]
        require(len(rep) == w and w % size == 0 and rep == rep[size:] + rep[:size], f"class {rep}")
        require(all(rep <= rep[i:] + rep[:i] for i in range(1, size)), f"{rep} is not least")
        require(all(rep != rep[i:] + rep[:i] for i in range(1, size)), f"{rep} period < {size}")


def check_fsm(out: dict, _inputs: Inputs, sigma: int, d: int, w: int) -> None:
    """Survival equals the integer recurrence over sigma^w; matrix in closed form."""
    mu = Fraction(1, sigma)
    survival = rational(out["survival"])
    require(survival == Fraction(no_zero_run_count(sigma, d, w), sigma**w), "survival")
    rows = [[rational(v) for v in row] for row in out["matrix"]]
    expect = [[1 - mu] * d] + [[mu if j == i - 1 else 0 for j in range(d)] for i in range(1, d)]
    require(rows == expect, "fsm matrix")
    require(out["bracket_holds"] is True, "bracket")
    require(1 - mu**d < out["dominant_root"] < 1 - mu ** (d + 1), "dominant root outside bracket")


def check_census(out: dict, _inputs: Inputs, w: int) -> None:
    """The count of minimum decycling sets equals a brute-force count over transversals."""
    expect = binary_mds_count(w)
    require((out["sigma"], out["w"]) == (2, w), f"census of sigma={out['sigma']} w={out['w']}")
    require(out["mds_count"] == expect, f"mds_count {out['mds_count']} != {expect}")
    require(0 <= out["prunes"] < out["nodes_explored"], "prunes / nodes_explored")


# -- workloads -----------------------------------------------------------------------


def graph_steps(_inputs: Inputs) -> list[Step]:
    return [
        Step("g1", args("mykkeltveit --sigma 2 --w 22 --out m22.bin --binary"),
             partial(check_mykkeltveit, sigma=2, w=22, set_file="m22.bin"), ("m22.bin",)),
        Step("g2", args("longest-path --sigma 2 --w 22 --set m22.bin"),
             partial(check_witness, sigma=2, w=22, set_file="m22.bin")),
        Step("g3", args("mykkeltveit --sigma 4 --w 11"), partial(check_mykkeltveit, sigma=4, w=11)),
        Step("g4", args("check-uhs --sigma 2 --w 22 --set forbidden --l 22"),
             partial(check_forbidden_uhs, sigma=2, w=22, l=22)),
    ]


def acgt_code(text: str) -> int:
    code = 0
    for c in text:
        code = code * 4 + ACGT.index(c)
    return code


def order_rank(order: list[str]) -> np.ndarray:
    rank = np.empty(len(order), dtype=np.int64)
    rank[[acgt_code(t) for t in order]] = np.arange(len(order))
    return rank


def prepare_density(inputs: Inputs) -> None:
    rng = random.Random(inputs.seed)
    kmers = ["".join(ACGT[(c >> 2 * (4 - i)) & 3] for i in range(5)) for c in range(4**5)]
    rng.shuffle(kmers)
    inputs.order = kmers
    inputs.seq = "".join(rng.choices(ACGT, k=SEQ_SYMBOLS))
    inputs.est_seed = rng.randrange(2**31)
    (inputs.workdir / "order.txt").write_text("\n".join(kmers) + "\n")
    write_run_set(inputs.workdir / "f16.txt", 16)


def density_steps(inputs: Inputs) -> list[Step]:
    rank = order_rank(inputs.order)
    return [
        Step("d1", args("density --sigma 4 --w 5 --order order.txt"),
             partial(check_exact_density, sigma=4, k=5, w=5, rank=rank)),
        Step("d2", args("contexts --sigma 4 --w 5 --order order.txt --variant forward"),
             partial(check_forward_contexts, sigma=4, k=5, w=5)),
        Step("d3", args("contexts --sigma 2 --w 10 --minimizer --k 5 --variant local"),
             partial(check_local_contexts, sigma=2, k=5, w=10, expect=D3_DENSITY)),
        Step("d4", args(f"density --sigma 2 --w 16 --compatible f16.txt --estimate --seed {inputs.est_seed}"
                        f" --sample {ESTIMATE_SAMPLE}"),
             partial(check_estimate, k=16, w=16, sample=ESTIMATE_SAMPLE)),
        Step("d5", args("density --sigma 4 --w 12 --minimizer --k 7 --seq") + (inputs.seq,),
             partial(check_particular, k=7, w=12, seq=inputs.seq)),
    ]


def pointwise_steps(_inputs: Inputs) -> list[Step]:
    return [
        Step("p1", args("long-path --sigma 2 --w 100 --out lp.txt --csv lp.csv"),
             partial(check_long_path, w=100, vertex_file="lp.txt", csv_file="lp.csv"),
             ("lp.txt", "lp.csv")),
        Step("p2", args("long-path --sigma 2 --w 101 --out lp1.txt"),
             partial(check_long_path, w=101, vertex_file="lp1.txt"), ("lp1.txt",)),
        Step("p3", args("necklaces --sigma 4 --w 10 --list"), partial(check_necklace_list, sigma=4, w=10)),
        Step("p4", args("fsm --sigma 2 --d 6 --w 2000"), partial(check_fsm, sigma=2, d=6, w=2000)),
    ]


def census_steps(_inputs: Inputs) -> list[Step]:
    return [Step("c1", args("mds-count --sigma 2 --w 5"), partial(check_census, w=5))]


def density_pointwise_steps(inputs: Inputs) -> list[Step]:
    return density_steps(inputs) + pointwise_steps(inputs) + census_steps(inputs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("graph", graph_steps),
        Workload("density_pointwise", density_pointwise_steps, prepare_density),
    )
}
