"""Reference implementations that the tests compare the library's kernels with.

Each kernel has one oracle here: a slow, direct reading of its definition.

- peel (`paths.longest_remaining_path`, `paths._peel`'s rows through
  `labels_from_rows`): `dfs_longest`; its cycle witness: `cycle_walk`;
- selection (`schemes._selected`, `scheme_values`, `is_forward`, the
  densities): `select` on every window, through `picks` and `estimate`;
- context sets: `charged_contexts`, the charged windows of a cyclic de Bruijn
  sequence;
- the compatible minimizer's rank: `compatible_rank`;
- the forbidden-run set and its survival count: `zero_runs`;
- the eigenpair residual: `matvec_residual`, the FSM matrix times
  `dominant_eigenvector`;
- the characteristic polynomial's signs and the dominant root: `char_g` in
  Fractions, `scaled_g` in integers and `fraction_bisection`; the proved
  bracket (`bracket_holds`): `bracket_sign_change`, its end signs from
  fixed-point bounds on a d-th power, exact where the bounds do not decide;
- the Mykkeltveit set: `class_pick`, one conjugacy class at a time, by the
  paper's rule with Re P and signs from `part_sign`, which shares no code
  with `exactsign`;
- the long path's ring walk: `code_ring`;
- the bulk set-file parser: `per_line_load_text`; digit rows
  (`kmerset.digit_rows`, then `digit_lines` in `save_text`, `long-path` and
  the witness text): `kmer_decode`;
- FKM necklace generation: `recursive_fkm`; the necklace count: `orbit_count`;
- the fixed-point sign tier: `mp_im` and `mp_re` at 200 digits, and the
  cyclotomic zero test, `reduce_mod_cyclotomic` of a `part_polynomial`;
  `part_sign` decides a sign from the two.

Three kernels keep a second oracle for sizes the first cannot reach in test
time: `digit_loop_build` (the Mykkeltveit mask up to sigma = 2, w = 20),
`matvec_survival` (survival at w = 2000) and `g_residual` (the eigenpair
residual at d = 1074, where it rounds to 0.0).  `successor`, `pure_rotation`,
`raw_embedding`, `embedding` and `hits` are the per-word definitions the
oracles and tests build on; they take a w-mer as its code with (sigma, w),
or as symbols.
The Hypothesis strategies at the end draw the properties' inputs.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from uhspath import exactsign
from uhspath.core import (
    canonical_rotation_code,
    check_alphabet,
    check_budget,
    debruijn_sequence,
    kmer_encode,
    parse_symbols,
    rotation_code,
)
from uhspath.exactsign import NEG, POS, ZERO
from uhspath.forbidden import ROOT_TOL, fsm_matrix
from uhspath.kmerset import KmerSet, read_header
from uhspath.mykkeltveit import build_mykkeltveit_set
from uhspath.paths import ACYCLIC, CYCLIC
from uhspath.schemes import (
    EXPECTED_ESTIMATE,
    TABLE,
    DensityResult,
    _BATCHES,
    build_compatible_minimizer,
    minimizer_scheme,
    scheme_values,
    table_scheme,
)

# -- per-word definitions ------------------------------------------------------


def symbols(code, sigma, w):
    """The w symbols of a code, first symbol most significant."""
    return tuple((code // sigma ** (w - 1 - i)) % sigma for i in range(w))


def kmer_decode(code, sigma, w):
    """Digit text of the w-mer with this code, one code at a time."""
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    check_alphabet(sigma)
    if not 0 <= code < sigma**w:
        raise ValueError(f"code {code} out of range for sigma={sigma}, w={w}")
    return "".join(map(str, symbols(code, sigma, w)))


def one_sign(syms, approx, sigma):
    """`exactsign.signs` of one word, as a block of one."""
    rows = np.array([syms])
    return int(exactsign.signs(np.array([approx]), sigma, len(syms), rows.__getitem__)[0])


#: doubles of a part farther from zero than this keep their sign in the
#: oracles: far above their error at the sizes the oracles run
FLOAT_TRUST = 1e-9


def part_sign(syms, part, approx):
    """NEG/ZERO/POS of Im P ("im") or Re P ("re") of a word, with no code of
    `exactsign`: a double `approx` past FLOAT_TRUST keeps its sign; nearer
    zero, ZERO where Phi_w divides the part's polynomial, and otherwise the
    sign of the part at 200 digits."""
    if abs(approx) > FLOAT_TRUST:
        return POS if approx > 0 else NEG
    if reduce_mod_cyclotomic(part_polynomial(syms, part), len(syms)):
        return ZERO
    return POS if (mp_im if part == "im" else mp_re)(syms) > 0 else NEG


def successor(code, sigma, w, a):
    """Out-neighbor of a code in the de Bruijn graph: drop the first symbol, append a."""
    if not 0 <= a < sigma:
        raise ValueError(f"symbol {a} out of range for sigma={sigma}")
    return (code * sigma + a) % sigma**w


def pure_rotation(code, sigma, w):
    """Cyclic left rotation: the successor that stays inside the code's conjugacy class."""
    return successor(code, sigma, w, code // sigma ** (w - 1))


@dataclass(frozen=True)
class ComplexPoint:
    re: float
    im: float
    im_sign: int  # NEG/ZERO/POS, certified

    def __complex__(self):
        return complex(self.re, self.im)


def raw_embedding(symbols, w):
    """P of a symbol sequence in doubles, one root of unity per nonzero symbol."""
    return sum(x * cmath.exp(2j * math.pi * (i + 1) / w) for i, x in enumerate(symbols) if x)


def embedding(code, sigma, w):
    """P(x) = sum x_i r^(i+1), with the exact sign of the imaginary part."""
    syms = symbols(code, sigma, w)
    p = raw_embedding(syms, w)
    return ComplexPoint(p.real, p.imag, part_sign(syms, "im", p.imag))


def hits(kset, s):
    """True iff some w-window of s is a member of the set."""
    syms = parse_symbols(s, kset.sigma)
    if len(syms) < kset.w:
        raise ValueError(f"string of length {len(syms)} is shorter than w={kset.w}")
    return any(
        kset.contains_code(kmer_encode(syms[i : i + kset.w], kset.sigma))
        for i in range(len(syms) - kset.w + 1)
    )


# -- peel ----------------------------------------------------------------------


def dfs_longest(kset):
    """(kind, labels, witness codes) of the graph left after removing the set.

    An iterative depth-first search colours nodes: reaching a node still on
    the stack closes a cycle (CYCLIC, no labels, no witness).  Otherwise
    labels[v] is the number of vertices on the longest path from v, set
    when v leaves the stack (0 for members), and the witness follows the
    production tie-break: the least code with the largest label, then the
    least successor symbol whose label is one less.
    """
    sigma, n = kset.sigma, kset.n
    member = kset.mask.tolist()
    state = [0] * n  # 0 unseen, 1 on the stack, 2 done
    labels = [0] * n
    for root in range(n):
        if member[root] or state[root]:
            continue
        state[root] = 1
        stack = [(root, 0)]  # node, next symbol to try
        while stack:
            v, a = stack[-1]
            if a < sigma:
                stack[-1] = (v, a + 1)
                u = (v * sigma + a) % n
                if member[u] or state[u] == 2:
                    continue
                if state[u] == 1:
                    return CYCLIC, None, []
                state[u] = 1
                stack.append((u, 0))
            else:
                stack.pop()
                state[v] = 2
                labels[v] = 1 + max(labels[(v * sigma + b) % n] for b in range(sigma))
    longest = max(labels, default=0)
    if longest == 0:
        return ACYCLIC, labels, []
    v = labels.index(longest)
    path = [v]
    while labels[v] > 1:
        v = next(u for u in range((v * sigma) % n, (v * sigma) % n + sigma) if labels[u] == labels[v] - 1)
        path.append(v)
    return ACYCLIC, labels, path


def cycle_walk(kset):
    """The cycle witness of a cyclic graph, by the production tie-break.

    The pending codes are the survivors left after repeatedly dropping the
    survivors that have no surviving successor.  The walk starts at the
    least pending code, steps to the least-symbol pending successor, and is
    cut at the first repeat, from that code's first visit.
    """
    sigma, n = kset.sigma, kset.n
    pending = set(np.flatnonzero(~kset.mask).tolist())

    def successors(v):
        return [u for u in range((v * sigma) % n, (v * sigma) % n + sigma) if u in pending]

    while dead := {v for v in pending if not successors(v)}:
        pending -= dead
    walk = [min(pending)]
    while (v := successors(walk[-1])[0]) not in walk:
        walk.append(v)
    return walk[walk.index(v) :]


def labels_from_rows(h, mask, sigma):
    """int32 label of every w-mer from the peel's rows: w-mer v gets
    h[v mod sigma^(w-1)], its suffix row's wave, and members get 0, as
    `dfs_longest` labels them on an acyclic graph."""
    label = np.empty(mask.size, dtype=np.int32)
    label.reshape(sigma, -1)[:] = h
    label[mask] = 0
    return label


# -- selection -----------------------------------------------------------------


def select(scheme, window):
    """Selected position for one window; minimizers pick the leftmost minimum k-mer."""
    syms = parse_symbols(window, scheme.sigma)
    if len(syms) != scheme.window_symbols:
        raise ValueError(f"window must have {scheme.window_symbols} symbols, got {len(syms)}")
    sigma = scheme.sigma
    if scheme.kind == TABLE:
        code = 0
        for v in syms:
            code = code * sigma + v
        return int(scheme.table[code])
    kk = sigma**scheme.k
    code = 0
    for v in syms[: scheme.k]:
        code = code * sigma + v
    best_rank, best_pos = int(scheme.rank[code]), 0
    for i, v in enumerate(syms[scheme.k :], start=1):
        code = (code * sigma + v) % kk
        r = int(scheme.rank[code])
        if r < best_rank:
            best_rank, best_pos = r, i
    return best_pos


def picks(scheme, syms, cyclic):
    """Position picked by each window of syms: rolls a window along the
    string and asks `select`; cyclic strings wrap windows and positions."""
    syms = [int(s) for s in syms]
    ws, length = scheme.window_symbols, len(syms)
    if cyclic:
        work, count = syms + syms[: ws - 1], length
    else:
        work, count = syms, length - ws + 1
    out = [i + select(scheme, work[i : i + ws]) for i in range(count)]
    return [p % length for p in out] if cyclic else out


def selected_mask(scheme, syms, cyclic):
    seen = np.zeros(len(syms), dtype=bool)
    seen[picks(scheme, syms, cyclic)] = True
    return seen


def estimate(scheme, sample_symbols, seed):
    """The sampled density from one draw of the whole sample, counted with `select`."""
    s = np.random.default_rng(seed).integers(0, scheme.sigma, size=sample_symbols, dtype=np.int64)
    seen = selected_mask(scheme, s.tolist(), cyclic=False)
    count = int(np.count_nonzero(seen))
    span = scheme.window_symbols if scheme.kind == TABLE else scheme.k
    denom = sample_symbols - span + 1
    batches = [b.mean() for b in np.array_split(seen, _BATCHES)]
    stderr = float(np.std(batches, ddof=1) / np.sqrt(_BATCHES))
    return DensityResult(count, denom, Fraction(count, denom), EXPECTED_ESTIMATE, stderr)


def charged_contexts(scheme, order):
    """(mask over the order-symbol contexts, charged count) on the cyclic de
    Bruijn sequence of that order.

    Every context occurs once in the sequence, as the windows ending at some
    window i.  The context is a member iff window i is charged: its pick is
    none of the picks of the windows before it in the context.  The charged
    count is the number of distinct picks.
    """
    sigma = scheme.sigma
    seq = parse_symbols(debruijn_sequence(sigma, order, cyclic=True), sigma)
    n = len(seq)
    p = picks(scheme, seq, cyclic=True)
    back = order - scheme.window_symbols  # windows before the last one
    mask = np.zeros(n, dtype=bool)
    for i in range(n):
        start = i - back
        code = kmer_encode([seq[(start + t) % n] for t in range(order)], sigma)
        mask[code] = p[i] not in {p[(i - j) % n] for j in range(1, back + 1)}
    return mask, len(set(p))


def compatible_rank(mask):
    """Rank of each k-mer: members of the set first, lexicographic within."""
    order = sorted(range(mask.size), key=lambda c: (not mask[c], c))
    rank = np.empty(mask.size, dtype=np.int64)
    rank[order] = np.arange(mask.size)
    return rank


# -- forbidden-run set -----------------------------------------------------------


def zero_runs(sigma, w):
    """(leading zero run, longest zero run) of every w-mer code, one digit pass per symbol.

    The forbidden set for d is `(lead >= d) | (longest < d)`, and the survival
    count of the zero-run chain is `(longest < d).sum()`.
    """
    codes = np.arange(sigma**w, dtype=np.int64)
    run = np.zeros(codes.size, dtype=np.int8)
    lead = np.zeros(codes.size, dtype=np.int8)
    longest = np.zeros(codes.size, dtype=np.int8)
    for i in range(w):
        run = np.where((codes // sigma ** (w - 1 - i)) % sigma == 0, run + 1, 0).astype(np.int8)
        lead += run == i + 1
        np.maximum(longest, run, out=longest)
    return lead, longest


def matvec_survival(sigma, d, w):
    """Second survival oracle: w exact mat-vecs of the FSM matrix from the
    empty-run state, summed; it reaches the w = 2000 of the fsm benchmark."""
    rows = list(fsm_matrix(sigma, d))
    p = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(d))
    for _ in range(w):
        p = tuple(sum(r * x for r, x in zip(row, p)) for row in rows)
    return sum(p, Fraction(0))


def char_g(mu, d, lam):
    """The characteristic polynomial times (lam - mu), in Fractions:
    det(A_d - lam I) = (-1)^d g(lam) / (lam - mu) for lam != mu."""
    return lam ** (d + 1) - lam**d - mu ** (d + 1) + mu**d


def scaled_g(sigma, d, a, b):
    """g(a/b) (b sigma)^(d+1) in integers, b > 0: the integer whose sign
    `forbidden._g_sign` returns."""
    return sigma ** (d + 1) * a**d * (a - b) + (sigma - 1) * b ** (d + 1)


def power_bounds(p, q, d, bits):
    """Integers l <= (p/q)^d 2^bits <= h, 0 <= p <= q, by square-and-multiply
    in fixed point at `bits` fraction bits, floors carrying l, ceilings h."""
    l, h = (p << bits) // q, -(-(p << bits) // q)
    pl = ph = 1 << bits
    while d:
        if d & 1:
            pl, ph = pl * l >> bits, -(-ph * h >> bits)
        l, h = l * l >> bits, -(-h * h >> bits)
        d >>= 1
    return pl, ph


def end_sign(sigma, d, q, c):
    """Sign of g at the bracket end (q - 1)/q, read off the sign of
    c - ((q - 1)/q)^d: g(lo) = mu^d [(1 - mu) - lo^d] with q = sigma^d and
    c = 1 - mu, g(hi) = mu^(d+1) [(sigma - 1) - hi^d] with q = sigma^(d+1)
    and c = sigma - 1.  `power_bounds` at 2 (d + 1) log2(sigma) + 64 bits
    decides it; where c lies between its bounds (at d = 1, where g(lo) = 0),
    the exact d^2-bit `scaled_g` does."""
    bits = 64 + 2 * (d + 1) * sigma.bit_length()
    l, h = power_bounds(q - 1, q, d, bits)
    if h < c * 2**bits:
        return 1
    if l > c * 2**bits:
        return -1
    v = scaled_g(sigma, d, q - 1, q)
    return (v > 0) - (v < 0)


def bracket_sign_change(sigma, d):
    """Whether g changes sign between the bracket's ends 1 - mu^d and
    1 - mu^(d+1), each sign found by `end_sign` (the exact d^2-bit integers
    at every end take about 2 s over sigma <= 10, d <= 200)."""
    glo = end_sign(sigma, d, sigma**d, Fraction(sigma - 1, sigma))
    ghi = end_sign(sigma, d, sigma ** (d + 1), sigma - 1)
    return glo * ghi < 0


def g_residual(sigma, d, root):
    """The eigenpair residual read off g: row 0's (1 - mu)(1 + s + ... +
    s^(d-1)) - root is -g(root) / (root^(d-1) (root - mu)), so for a root
    a/b != mu it is |V| / |sigma^d a^(d-1) b (sigma a - b)|, V = `scaled_g`,
    one correctly rounded quotient."""
    lam = Fraction(root)
    a, b = lam.numerator, lam.denominator
    return abs(scaled_g(sigma, d, a, b)) / abs(sigma**d * a ** (d - 1) * b * (sigma * a - b))


def fraction_bisection(sigma, d):
    """The dominant root by bisection in Fractions on (1 - mu^d, 1 - mu^(d+1))
    to ROOT_TOL, evaluating `char_g` at every midpoint."""
    mu = Fraction(1, sigma)
    lo, hi = 1 - mu**d, 1 - mu ** (d + 1)
    glo, ghi = char_g(mu, d, lo), char_g(mu, d, hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if (glo < 0) == (ghi < 0):
        raise ValueError(f"no sign change on the bracket for sigma={sigma}, d={d}")
    while hi - lo > ROOT_TOL:
        mid = (lo + hi) / 2
        gm = char_g(mu, d, mid)
        if gm == 0:
            return mid
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return (lo + hi) / 2


def dominant_eigenvector(sigma, d, root):
    """Right eigenvector (1, s, ..., s^(d-1)) of the FSM matrix, s = mu / root."""
    s = Fraction(1, sigma) / Fraction(root)
    return tuple(s**i for i in range(d))


def matvec_residual(sigma, d, root):
    """The eigenpair residual max_i |(A v)_i - root v_i| from the d x d product
    of the FSM matrix with `dominant_eigenvector`."""
    lam = Fraction(root)
    v = dominant_eigenvector(sigma, d, lam)
    Av = [sum(r * x for r, x in zip(row, v)) for row in fsm_matrix(sigma, d)]
    return max(abs(float(a - lam * x)) for a, x in zip(Av, v))


# -- Mykkeltveit set -------------------------------------------------------------


def class_pick(rep_code, sigma, w):
    """The member of rep's conjugacy class the set keeps, found by walking
    the whole class (about w embeddings per class): the least member if P is
    0, else the member with Im P = 0 and Re P < 0 if there is one, else the
    member with Im P(x) < 0 < Im P(R(x))."""
    members = [rep_code]
    c = rotation_code(rep_code, sigma, w)
    while c != rep_code:
        members.append(c)
        c = rotation_code(c, sigma, w)
    rep_syms = symbols(members[0], sigma, w)
    if all(reduce_mod_cyclotomic(part_polynomial(rep_syms, p), w) for p in ("im", "re")):
        return min(members)
    ims = []
    for mc in members:
        syms = symbols(mc, sigma, w)
        p = raw_embedding(syms, w)
        s = part_sign(syms, "im", p.imag)
        if s == ZERO and part_sign(syms, "re", p.real) == NEG:
            return mc
        ims.append(s)
    k = len(members)
    kept = [members[j] for j in range(k) if ims[j] == NEG and ims[(j + 1) % k] == POS]
    assert len(kept) == 1, f"class of {rep_code} keeps {len(kept)} members"
    return kept[0]


def class_walk_mask(sigma, w):
    """The Mykkeltveit mask from `class_pick` on every conjugacy class."""
    mask = np.zeros(sigma**w, dtype=bool)
    for code in range(sigma**w):
        if canonical_rotation_code(code, sigma, w) == code:
            mask[class_pick(code, sigma, w)] = True
    return mask


def digit_loop_build(sigma, w):
    """Second Mykkeltveit oracle: the mask from w int64 digit passes over all
    codes, each borderline sign decided by `part_sign` one code at a time,
    and the paper's rule with Re P; it reaches sizes (sigma = 2, w = 20)
    where the class walk is too slow."""
    n = sigma**w
    codes = np.arange(n, dtype=np.int64)
    im = np.zeros(n)
    re = np.zeros(n)
    for i in range(w):
        digit = (codes // sigma ** (w - 1 - i)) % sigma
        ang = 2 * math.pi * (i + 1) / w
        im += digit * math.sin(ang)
        re += digit * math.cos(ang)

    def certify(sgn, vals, borderline, part):
        for c in np.flatnonzero(borderline):
            sgn[c] = part_sign(symbols(int(c), sigma, w), part, float(vals[c]))

    im_sgn = np.sign(im).astype(np.int8)
    certify(im_sgn, im, np.abs(im) <= FLOAT_TRUST, "im")
    re_sgn = np.sign(re).astype(np.int8)
    certify(re_sgn, re, (np.abs(re) <= FLOAT_TRUST) & (im_sgn == 0), "re")
    rot = (codes * sigma + codes // (n // sigma)) % n
    least = (im_sgn == ZERO) & (re_sgn == ZERO)
    c = origin = np.flatnonzero(least)
    canon = origin.copy()
    for _ in range(w - 1):
        c = (c * sigma + c // (n // sigma)) % n
        np.minimum(canon, c, out=canon)
    least[origin] = canon == origin
    on_axis = (re_sgn == NEG) | ((re_sgn == ZERO) & least)
    return np.where(im_sgn == ZERO, on_axis, (im_sgn == NEG) & (im_sgn[rot] == POS))


def code_ring(sigma, w, zero_tags, quads):
    """The ring walk's vertex codes, by code arithmetic.  A rotate appends
    the symbol that leaves, a write appends 0."""
    n = sigma**w
    lead = n // sigma
    code = sum(sigma ** (w - 1 - t) for t in range(w) if t not in zero_tags)
    code = code * sigma % n + code // lead
    pointer = 1
    trace = [code]
    for quad in quads:
        for tag in quad:
            for _ in range((tag - pointer) % w or w):
                code = code * sigma % n + code // lead
                trace.append(code)
            code = code * sigma % n
            trace.append(code)
            pointer = (tag + 1) % w
    return trace


# -- set files, necklaces, signs ---------------------------------------------------


def per_line_load_text(path, budget=1 << 28):
    """The set file read one line at a time with kmer_encode, after the
    library's own header check."""
    with open(path) as fh:
        sigma, w = read_header(fh.readline(), "uhs", f"bad set file header in {path}")
        check_budget(sigma, w, budget, "KmerSet")
        mask = np.zeros(sigma**w, dtype=bool)
        for line in fh:
            line = line.strip()
            if line:
                code = kmer_encode(line, sigma)
                if len(parse_symbols(line, sigma)) != w:
                    raise ValueError(f"k-mer {line!r} has wrong length, expected {w}")
                mask[code] = True
    return KmerSet(sigma, w, mask)


def orbit_count(sigma, w):
    """Number of conjugacy classes, by the least rotation of every code."""
    return len({canonical_rotation_code(code, sigma, w) for code in range(sigma**w)})


def recursive_fkm(sigma, n, lyndon):
    """The recursive FKM generator, a chain of n nested generators."""
    a = [0] * (n + 1)

    def gen(t, p):
        if t > n:
            if n % p == 0:
                yield (tuple(a[1 : p + 1]) if lyndon else tuple(a[1 : n + 1])), p
        else:
            a[t] = a[t - p]
            yield from gen(t + 1, p)
            for j in range(a[t - p] + 1, sigma):
                a[t] = j
                yield from gen(t + 1, t)

    return gen(1, 1)


def mp_im(symbols, dps=200):
    with mp.workdps(dps):
        w = len(symbols)
        return mp.fsum(x * mp.sin(2 * mp.pi * (i + 1) / w) for i, x in enumerate(symbols))


def mp_re(symbols, dps=200):
    with mp.workdps(dps):
        w = len(symbols)
        return mp.fsum(x * mp.cos(2 * mp.pi * (i + 1) / w) for i, x in enumerate(symbols))


def part_polynomial(symbols, part):
    """sum x_i (z^(i+1) + c z^-(i+1)), exponents mod w; c = -1 (im) or +1 (re)."""
    w = len(symbols)
    coef = [0] * w
    for i, x in enumerate(symbols):
        coef[(i + 1) % w] += x
        coef[(w - i - 1) % w] += (-1 if part == "im" else 1) * x
    return coef


def _divide_monic(num, den):
    # exact quotient of integer polynomials (ascending), den monic
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = num[i + len(den) - 1]
        if c:
            for j, p in enumerate(den):
                num[i + j] -= c * p
    assert not any(num), "cyclotomic division left a remainder"
    return q


@lru_cache(maxsize=None)
def cyclotomic_coeffs(w):
    """Coefficients of the w-th cyclotomic polynomial, ascending degree:
    (x^w - 1) divided by Phi_d for every proper divisor d of w."""
    poly = [-1] + [0] * (w - 1) + [1]
    for d in range(1, w):
        if w % d == 0:
            poly = _divide_monic(poly, cyclotomic_coeffs(d))
    return tuple(poly)


def reduce_mod_cyclotomic(coef, w):
    """True iff the integer polynomial (ascending coef) is divisible by
    Phi_w, by long division."""
    phi = cyclotomic_coeffs(w)
    deg = len(phi) - 1
    rem = list(coef)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, p in enumerate(phi):
                rem[i - deg + j] -= c * p
    return all(v == 0 for v in rem[:deg])


# -- Hypothesis strategies ---------------------------------------------------------


def widths(sigma, max_nodes, low=1):
    """Every w >= low with sigma^w <= max_nodes."""
    high = low
    while sigma ** (high + 1) <= max_nodes:
        high += 1
    return st.integers(low, high)


@lru_cache(maxsize=None)
def _mykkeltveit_mask(sigma, w):
    return build_mykkeltveit_set(sigma, w).mask


def _bits(draw, n):
    """n random bits: drawn one by one for small n, else from a drawn seed and density."""
    if n <= 64:
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) < density


@st.composite
def kmer_sets(draw, sigma, max_nodes=1 << 12):
    """A random set, or a random superset of the Mykkeltveit set, which is
    decycling and so gives ACYCLIC graphs with long paths."""
    w = draw(widths(sigma, max_nodes))
    mask = _bits(draw, sigma**w)
    if w >= 2 and draw(st.booleans()):
        mask = _mykkeltveit_mask(sigma, w) | (mask & _bits(draw, sigma**w))
    return KmerSet(sigma, w, mask)


def _permutation(draw, n):
    return np.array(draw(st.permutations(range(n))), dtype=np.int64)


@st.composite
def selection_schemes(draw, sigma, span=None, max_codes=None):
    """Tables (mostly not forward), forward tables, lexicographic, random-order
    and compatible minimizers, and w = 1 schemes.

    With `span` and `max_codes`, sigma ** span(k, w) <= max_codes: the check
    that draws the scheme enumerates span(k, w) symbols.
    """

    def fits(k, w):
        return max_codes is None or sigma ** span(k, w) <= max_codes

    kind = draw(st.sampled_from(["table", "forward_table", "lexicographic", "order", "compatible"]))
    if kind == "table":
        w = draw(st.sampled_from([w for w in range(1, 7) if sigma**w <= 64 and fits(1, w)]))
        table = draw(st.lists(st.integers(0, w - 1), min_size=sigma**w, max_size=sigma**w))
        return table_scheme(sigma, w, table)
    k = draw(st.sampled_from([k for k in range(1, 4) if sigma**k <= 64 and fits(k, 1)]))
    w = draw(st.sampled_from([w for w in range(1, 6) if fits(k, w)]))
    if kind == "lexicographic":
        return minimizer_scheme(sigma, k, w)
    if kind == "compatible":
        U = _bits(draw, sigma**k)
        if not U.any():
            U[draw(st.integers(0, sigma**k - 1))] = True
        return build_compatible_minimizer(KmerSet(sigma, k, U), w)
    mini = minimizer_scheme(sigma, k, w, _permutation(draw, sigma**k))
    ws = mini.window_symbols
    if kind == "forward_table" and sigma**ws <= 1 << 8 and fits(1, ws):
        return table_scheme(sigma, ws, scheme_values(mini))
    return mini


def symbol_lists(sigma, min_size, max_extra=40):
    return st.lists(st.integers(0, sigma - 1), min_size=min_size, max_size=min_size + max_extra)
