"""Command-line front end: one subcommand per capability, JSON on stdout.

Exit codes: 0 success, 1 validation error, 2 budget exceeded or out of
memory (a MemoryError), 3 internal invariant failure (an AssertionError, i.e.
a bug rather than bad input).  Exact rationals are emitted as {"num", "den",
"float"} objects.  The one randomized path, density's sampled estimate, takes
--seed, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys

from .core import (
    DIGIT_TEXT,
    BudgetError,
    DEFAULT_NODE_BUDGET,
    check_budget,
    check_digit_text,
    debruijn_sequence,
    necklace_count,
    necklaces,
)

# Handlers import what they run: necklaces, debruijn-seq, mds-count and fsm
# do not load numpy.


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; that's our budget code
        raise ValueError(message)


def _rat(x) -> dict:
    """An exact rational, a Fraction, as {"num", "den", "float"}."""
    return {"num": x.numerator, "den": x.denominator, "float": float(x)}


def _write(out: dict) -> None:
    """Writes out as the line json.dumps(out) + "\\n".  A value that is an
    iterator stands for the array of its items, each already JSON text, and
    is written an item at a time as it yields them; every other value is
    known before the first byte, so only an iterator can fail mid-line."""
    write = sys.stdout.write
    write("{")
    for i, (key, value) in enumerate(out.items()):
        write((", " if i else "") + json.dumps(key) + ": ")
        if hasattr(value, "__next__"):
            write("[")
            for j, item in enumerate(value):
                write((", " if j else "") + item)
            write("]")
        else:
            write(json.dumps(value))
    write("}\n")


def _check_text_out(args) -> None:
    """A text --out holds digit lines, so sigma > 10 fails before any work."""
    if getattr(args, "out", None) and not args.binary:
        check_digit_text(args.sigma)


def _save_set(kset, args) -> None:
    """Saves kset to --out, where given, as the binary or the text form."""
    if getattr(args, "out", None):
        (kset.save_binary if args.binary else kset.save_text)(args.out)


def _resolve_set(spec: str, sigma: int, w: int, budget: int):
    if spec == "forbidden":
        from .forbidden import build_forbidden_set

        return build_forbidden_set(sigma, w, budget=budget)
    if spec == "mykkeltveit":
        from .mykkeltveit import build_mykkeltveit_set

        return build_mykkeltveit_set(sigma, w, budget=budget)
    from .kmerset import KmerSet

    kset = KmerSet.load(spec, budget)
    if (kset.sigma, kset.w) != (sigma, w):
        raise ValueError(f"set file is sigma={kset.sigma} w={kset.w}, expected sigma={sigma} w={w}")
    return kset


def _peeled_set(args, spec: str):
    """(set, report): the set that spec names, saved to a --out that is
    checked before the set is built, and its longest remaining path."""
    from . import paths

    _check_text_out(args)
    kset = _resolve_set(spec, args.sigma, args.w, args.budget)
    _save_set(kset, args)
    return kset, paths.longest_remaining_path(kset, budget=args.budget)


def _load_scheme(args):
    from . import schemes
    from .kmerset import KmerSet

    if args.minimizer:
        k = 1 if args.k is None else args.k
        return schemes.minimizer_scheme(args.sigma, k, args.w, budget=args.budget)
    if args.table:
        scheme = schemes.load_scheme_table(args.table, budget=args.budget)
    elif args.order:
        scheme = schemes.load_minimizer_order(args.order, args.sigma, args.w, budget=args.budget)
    else:
        U = KmerSet.load(args.compatible, args.budget)
        scheme = schemes.build_compatible_minimizer(U, args.w, budget=args.budget)
    # the flags name the scheme's shape, k only where --k is given
    shape = "sigma={0.sigma} w={0.w}" + ("" if args.k is None else " k={0.k}")
    got, want = shape.format(scheme), shape.format(args)
    if got != want:
        raise ValueError(f"scheme is {got}, expected {want}")
    return scheme


# -- subcommand handlers: each returns its answer for run() to write ---------


def _cmd_necklaces(args) -> dict:
    # the count has more than w log10(sigma) - log10(w) digits: past the most
    # that Python prints, fail before computing it (Pythons before 3.10.7 have
    # no such limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.sigma >= 2 and args.w >= 1:
        if args.w > (limit + 1 + math.log10(args.w)) / math.log10(args.sigma):
            raise ValueError(
                f"necklace count of sigma={args.sigma}, w={args.w} has more than "
                f"{limit} digits, the most Python prints"
            )
    out = {
        "sigma": args.sigma,
        "w": args.w,
        "necklace_count": necklace_count(args.sigma, args.w),
    }
    if args.list:
        check_budget(out["necklace_count"], 1, args.budget, "necklace list")
        check_digit_text(args.sigma)
        # A class is the fixed JSON text {"rep": "<word>", "size": <period>},
        # its word a str of symbol code points below 10 and so apart from
        # every other character: the classes are joined as text and rendered
        # by one translate, and handed on as one item that holds them all.
        words = necklaces(args.sigma, args.w)
        classes = ", ".join([f'{{"rep": "{word}", "size": {period}}}' for word, period in words])
        out["classes"] = iter([classes.translate(DIGIT_TEXT)])
    return out


def _cmd_debruijn_seq(args) -> dict:
    seq = debruijn_sequence(args.sigma, args.n, cyclic=args.cyclic, budget=args.budget)
    return {
        "sigma": args.sigma,
        "order": args.n,
        "cyclic": args.cyclic,
        "length": len(seq),
        "sequence": seq,
    }


def _cmd_mykkeltveit(args) -> dict:
    from .paths import ACYCLIC

    kset, report = _peeled_set(args, "mykkeltveit")
    return {
        "sigma": args.sigma,
        "w": args.w,
        "cardinality": kset.cardinality,
        "necklace_count": necklace_count(args.sigma, args.w),
        "decycling": report.kind == ACYCLIC,
        "longest_path": report.longest_vertices,
    }


def _cmd_forbidden(args) -> dict:
    from .forbidden import forbidden_d

    kset, report = _peeled_set(args, "forbidden")
    return {
        "sigma": args.sigma,
        "w": args.w,
        "d": forbidden_d(args.sigma, args.w),
        "cardinality": kset.cardinality,
        "relative_size": _rat(kset.relative_size()),
        "longest_path": report.longest_vertices,
    }


def _cmd_contexts(args) -> dict:
    from . import contexts

    _check_text_out(args)
    scheme = _load_scheme(args)
    if args.variant == "local":
        cs = contexts.build_context_set_local(scheme, budget=args.budget)
    else:
        cs = contexts.build_context_set_forward(scheme, budget=args.budget)
    _save_set(cs, args)
    return {
        "sigma": scheme.sigma,
        "w": scheme.w,
        "k": scheme.k,
        "variant": args.variant,
        "context_symbols": cs.w,
        "cardinality": cs.cardinality,
        "relative_size": _rat(cs.relative_size()),
    }


def _cmd_density(args) -> dict:
    from . import schemes

    scheme = _load_scheme(args)
    out = {"sigma": scheme.sigma, "w": scheme.w, "k": scheme.k, "kind": scheme.kind}
    if args.seq is not None:
        res = schemes.particular_density(scheme, args.seq, cyclic=args.cyclic)
    elif args.estimate:
        res = schemes.estimate_density(scheme, sample_symbols=args.sample, seed=args.seed)
    else:
        res = schemes.expected_density(
            scheme, sample_symbols=args.sample, seed=args.seed, budget=args.budget
        )
    out.update(
        selected=res.selected, windows=res.windows, density=_rat(res.density), mode=res.mode
    )
    if res.stderr is not None:
        out["stderr"] = res.stderr
    if scheme.guarantee is not None:
        out["uhs_guarantee"] = scheme.guarantee
    return out


def _cmd_check_uhs(args) -> dict:
    from .paths import ACYCLIC

    kset, report = _peeled_set(args, args.set)
    out = {
        "sigma": args.sigma,
        "w": args.w,
        "cardinality": kset.cardinality,
        "relative_size": _rat(kset.relative_size()),
        "kind": report.kind,
        "longest_path": report.longest_vertices,
    }
    if args.l is not None:
        out["l"] = args.l
        out["is_uhs"] = report.kind == ACYCLIC and report.longest_vertices < args.l
    return out


def _cmd_longest_path(args) -> dict:
    from .kmerset import digit_lines, digit_rows

    def text(codes):
        return digit_lines(digit_rows(codes, args.sigma, args.w)).decode().split()

    check_digit_text(args.sigma)  # the witnesses print as digit text
    _, report = _peeled_set(args, args.set)
    return {
        "sigma": args.sigma,
        "w": args.w,
        "kind": report.kind,
        "longest_vertices": report.longest_vertices,
        "witness": text(report.witness),
        "cycle_witness": text(report.cycle_witness),
    }


def _cmd_long_path(args) -> dict:
    from .kmerset import digit_lines
    from .mykkeltveit import build_long_path

    check_digit_text(args.sigma)  # the vertices print as digit text
    lp = build_long_path(args.sigma, args.w, budget=args.budget)
    n, w = lp.vertices.shape
    step = max(1, (1 << 22) // (w + 1))  # rows of about 4 MiB of text per write
    # both files are open before the first vertex byte: a bad path prints nothing
    with contextlib.ExitStack() as files:
        fh = files.enter_context(open(args.out, "w")) if args.out else sys.stdout
        csv = files.enter_context(open(args.csv, "w")) if args.csv else None
        if csv:
            csv.write("step,re,im\n")
        for i in range(0, n, step):
            fh.write(digit_lines(lp.vertices[i : i + step]).decode())
            if csv:
                ps = enumerate(lp.embeddings[i : i + step].tolist(), i)
                csv.write("".join([f"{k},{p.real!r},{p.imag!r}\n" for k, p in ps]))
    return {
        "sigma": args.sigma,
        "w": args.w,
        "vertices": n,
        "quadruples": len(lp.quadruples),
        "validated": True,  # build_long_path raises on any failed check
        "all_im_positive": True,
        "min_im": float(lp.embeddings.imag.min()),
    }


def _cmd_mds_count(args) -> dict:
    from .mds import enumerate_mds

    census = enumerate_mds(args.sigma, args.w, emit_sets=bool(args.emit))
    if args.emit:
        from .kmerset import KmerSet

        os.makedirs(args.emit, exist_ok=True)
        width = len(str(max(census.mds_count - 1, 1)))
        for i, codes in enumerate(census.sets):
            kset = KmerSet.from_codes(args.sigma, args.w, codes)
            kset.save_text(os.path.join(args.emit, f"mds_{i:0{width}d}.txt"))
    return {
        "sigma": args.sigma,
        "w": args.w,
        "mds_count": census.mds_count,
        "nodes_explored": census.nodes_explored,
        "prunes": census.prunes,
    }


def _cmd_fsm(args) -> dict:
    from . import forbidden

    # the matrix is written a row at a time, its rows sharing a few distinct
    # entries whose JSON text is rendered once each, looked up by id
    text = {}

    def row_text(row):
        for key, v in dict(zip(map(id, row), row)).items():
            if key not in text:
                text[key] = json.dumps(_rat(v))
        return "[" + ", ".join(map(text.__getitem__, map(id, row))) + "]"

    out = {
        "sigma": args.sigma,
        "d": args.d,
        "matrix": map(row_text, forbidden.fsm_matrix(args.sigma, args.d)),
        "bracket_holds": forbidden.bracket_holds(args.sigma, args.d),
    }
    if out["bracket_holds"]:
        root = forbidden.dominant_root(args.sigma, args.d)
        out["dominant_root"] = float(root)
        out["eigenvector_residual"] = forbidden.eigenpair_residual(
            args.sigma, args.d, root
        )
    if args.w is not None:
        out["w"] = args.w
        out["survival"] = _rat(
            forbidden.survival_probability(args.sigma, args.d, args.w)
        )
    return out


# -- wiring ------------------------------------------------------------------


def _add_common(p, w=True, budget=True):
    p.add_argument("--sigma", type=int, default=2)
    if w:
        p.add_argument("--w", type=int, required=True)
    if budget:
        p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)


def _add_scheme_opts(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--minimizer", action="store_true", help="lexicographic k-mer order")
    source.add_argument("--order", help="minimizer order file (one k-mer per line)")
    source.add_argument("--table", help="scheme table file")
    source.add_argument("--compatible", help="set file; members rank before non-members")
    p.add_argument("--k", type=int, help="k-mer length (default 1 for --minimizer)")


def _add_out(p):
    p.add_argument("--out")
    p.add_argument("--binary", action="store_true")


def _opts_necklaces(p):
    _add_common(p)
    p.add_argument("--list", action="store_true")


def _opts_debruijn_seq(p):
    _add_common(p, w=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cyclic", action="store_true")


def _opts_built_set(p):
    _add_common(p)
    _add_out(p)


def _opts_contexts(p):
    _add_common(p)
    _add_scheme_opts(p)
    p.add_argument("--variant", choices=["local", "forward"], default="local")
    _add_out(p)


def _opts_density(p):
    _add_common(p)
    _add_scheme_opts(p)
    p.add_argument("--seq", help="particular density on this string")
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--estimate", action="store_true", help="skip the exact path")
    p.add_argument("--sample", type=int, default=10**7)
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled string")


def _opts_named_set(p):
    _add_common(p)
    p.add_argument("--set", required=True, help="file path, 'forbidden' or 'mykkeltveit'")


def _opts_check_uhs(p):
    _opts_named_set(p)
    p.add_argument("--l", type=int)


def _opts_long_path(p):
    _add_common(p)
    p.add_argument("--out", help="vertex file (default: stdout)")
    p.add_argument("--csv", help="write per-step embeddings re,im")


def _opts_mds_count(p):
    _add_common(p, budget=False)
    p.add_argument("--emit", help="directory to write every set as a text file")


def _opts_fsm(p):
    _add_common(p, w=False, budget=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--w", type=int)


# each subcommand's handler and options, in the order the help lists them
_COMMANDS = {
    "necklaces": (_cmd_necklaces, _opts_necklaces),
    "debruijn-seq": (_cmd_debruijn_seq, _opts_debruijn_seq),
    "mykkeltveit": (_cmd_mykkeltveit, _opts_built_set),
    "forbidden": (_cmd_forbidden, _opts_built_set),
    "contexts": (_cmd_contexts, _opts_contexts),
    "density": (_cmd_density, _opts_density),
    "check-uhs": (_cmd_check_uhs, _opts_check_uhs),
    "longest-path": (_cmd_longest_path, _opts_named_set),
    "long-path": (_cmd_long_path, _opts_long_path),
    "mds-count": (_cmd_mds_count, _opts_mds_count),
    "fsm": (_cmd_fsm, _opts_fsm),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser, with the subparser of the subcommand that argv starts
    with, or of every subcommand if it starts with none (the help and the
    error that list them): building all eleven, mostly in add_parser, takes
    about twice as long as building one."""
    parser = _Parser(prog="uhspath")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS:
        fn, opts = _COMMANDS[name]
        p = sub.add_parser(name)
        opts(p)
        p.set_defaults(fn=fn)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        _write(args.fn(args))
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    # Loading numpy starts OpenBLAS worker threads that spin for about 0.1 s
    # of CPU on another core, and the only float matrix product here is a
    # small table product in the Mykkeltveit build: one thread does it.  Set
    # before any handler imports numpy; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status = run()
    # Every output is written and its file closed by now.  Freezing moves the
    # objects left (numpy's import leaves about 20k) out of the collector's
    # reach, so the interpreter's final collection does not walk them.
    gc.freeze()
    sys.exit(status)
