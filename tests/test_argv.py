"""Every invocation is bounded: an argv grammar over all eleven subcommands.

Each drawn argv runs in process, with small sizes and budgets, and must end
in exit 0 (one JSON line on stdout, after the vertex lines for `long-path`
without `--out`), or in exit 1 or 2 with nothing on stdout and exactly one
`error:` line on stderr.  An `--out` or `--csv` path that cannot be written
never ends in exit 0.  A traceback, an exit 3 or any other output fails.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from uhspath.cli import run
from uhspath.mykkeltveit import build_mykkeltveit_set

SMALL = st.integers(-1, 6).map(str)
SIGMA = st.sampled_from(["-1", "0", "1", "2", "2", "2", "3", "4", "11"])
BUDGET = st.sampled_from([[], ["--budget", "0"], ["--budget", "40"], ["--budget", "5000"]])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths the grammar names: valid set, order and table files at sigma = 2,
    a malformed file, a missing one, a directory, and output paths."""
    d = tmp_path_factory.mktemp("argv")
    (d / "set.txt").write_text("uhs sigma=2 w=3\n000\n111\n")
    build_mykkeltveit_set(2, 4).save_binary(str(d / "set.bin"))
    (d / "order.txt").write_text("11\n00\n10\n01\n")
    (d / "table.txt").write_text("scheme sigma=2 w=2\n00 0\n01 1\n10 0\n11 1\n")
    (d / "bad.txt").write_text("not a header\n")
    (d / "emit").mkdir()
    names = ["set.txt", "set.bin", "order.txt", "table.txt", "bad.txt", "missing.txt", "emit"]
    return {name: str(d / name) for name in names + ["out", "csv"]}


def opt(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def flag(name):
    return st.sampled_from([[], [name]])


def unwritable(f):
    """Output paths that cannot be opened for writing: a directory, and a
    file in a directory that does not exist."""
    return [f["emit"], f["missing.txt"] + "/x"]


def argvs(f):
    # never an input file: a set saved over bad.txt would stop it being malformed
    path = st.sampled_from([f["out"], *unwritable(f)])
    out = st.tuples(opt("--out", path), flag("--binary")).map(lambda t: t[0] + t[1])
    scheme = st.one_of(
        st.just(["--minimizer"]),
        st.sampled_from(["order.txt", "table.txt", "set.txt", "bad.txt", "missing.txt"]).flatmap(
            lambda name: st.sampled_from(["--order", "--table", "--compatible"]).map(
                lambda source: [source, f[name]]
            )
        ),
    )
    sets = st.sampled_from(["forbidden", "mykkeltveit", f["set.txt"], f["set.bin"], f["bad.txt"]])

    def command(name, *parts):
        return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])

    common = (SIGMA.map(lambda s: ["--sigma", s]), SMALL.map(lambda w: ["--w", w]))
    return st.one_of(
        command("necklaces", *common, flag("--list"), BUDGET),
        command(
            "debruijn-seq", common[0], SMALL.map(lambda n: ["--n", n]), flag("--cyclic"), BUDGET
        ),
        command("mykkeltveit", *common, out, BUDGET),
        command(
            "forbidden", common[0], st.integers(8, 12).map(lambda w: ["--w", str(w)]), out, BUDGET
        ),
        command(
            "contexts", *common, scheme, opt("--k", SMALL),
            opt("--variant", st.sampled_from(["local", "forward"])), out, BUDGET,
        ),
        command(
            "density", *common, scheme, opt("--k", SMALL),
            st.sampled_from(
                [[], ["--estimate"], ["--seq", "0110100"], ["--seq", "ACGT"], ["--seq", "x"]]
            ),
            flag("--cyclic"), st.integers(-1, 300).map(lambda n: ["--sample", str(n)]),
            opt("--seed", st.integers(-1, 3).map(str)), BUDGET,
        ),
        command("check-uhs", *common, sets.map(lambda s: ["--set", s]), opt("--l", SMALL), BUDGET),
        command("longest-path", *common, sets.map(lambda s: ["--set", s]), BUDGET),
        command(
            "long-path", common[0], st.integers(-1, 24).map(lambda w: ["--w", str(w)]),
            opt("--out", st.sampled_from([f["out"], *unwritable(f)])),
            opt("--csv", st.sampled_from([f["csv"], *unwritable(f)])), BUDGET,
        ),
        command(
            "mds-count", common[0], st.integers(-1, 4).map(lambda w: ["--w", str(w)]),
            opt("--emit", st.just(f["emit"])),
        ),
        command("fsm", common[0], SMALL.map(lambda d: ["--d", d]), opt("--w", SMALL)),
    )


def test_every_argv_exits_cleanly(files):
    @settings(max_examples=400)
    @given(argv=argvs(files))
    # a minimizer's shape is checked before sigma^k is sized: 0^-1 divides by zero
    @example(argv=["density", "--sigma", "0", "--w", "2", "--minimizer", "--k", "-1"])
    @example(argv=["contexts", "--sigma", "0", "--w", "2", "--minimizer", "--k", "-1"])
    # the vertex lines come after both files are open
    @example(argv=["long-path", "--sigma", "2", "--w", "20", "--csv", unwritable(files)[1]])
    @example(argv=["long-path", "--sigma", "2", "--w", "20", "--out", files["out"],
                   "--csv", unwritable(files)[0]])
    def check(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = run(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
        assert status in (0, 1, 2), (argv, status, err)
        writes = {v for k, v in zip(argv, argv[1:]) if k in ("--out", "--csv")}
        if writes & set(unwritable(files)):
            assert status != 0, argv
        if status == 0:
            lines = out.splitlines()
            obj = json.loads(lines[-1])
            vertex_lines = obj["vertices"] if argv[0] == "long-path" and "--out" not in argv else 0
            assert len(lines) == vertex_lines + 1, (argv, out)
            assert err == "", (argv, err)
        else:
            assert out == "", (argv, out)
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)

    check()
