import contextlib
import hashlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import uhspath
from uhspath import cli
from uhspath.cli import run
from uhspath.kmerset import KmerSet


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


class TestBasics:
    def test_necklaces(self, capsys):
        obj = invoke_json(capsys, "necklaces", "--sigma", "2", "--w", "6")
        assert obj["necklace_count"] == 14

    def test_necklaces_list(self, capsys):
        obj = invoke_json(capsys, "necklaces", "--sigma", "2", "--w", "4", "--list")
        assert len(obj["classes"]) == 6
        assert sum(c["size"] for c in obj["classes"]) == 16
        assert obj["classes"][0] == {"rep": "0000", "size": 1}

    @pytest.mark.parametrize("sigma,w", [(2, 1), (2, 9), (3, 6), (10, 3)])
    def test_necklaces_list_is_json_dumps(self, capsys, sigma, w):
        # the class list is joined as text: the bytes json.dumps writes
        from uhspath.core import _fkm

        assert run(["necklaces", "--sigma", str(sigma), "--w", str(w), "--list"]) == 0
        classes = [
            {"rep": "".join(str(ord(c)) for c in word), "size": p} for word, p in _fkm(sigma, w, False)
        ]
        want = {"sigma": sigma, "w": w, "necklace_count": len(classes), "classes": classes}
        assert capsys.readouterr().out == json.dumps(want) + "\n"

    def test_debruijn_seq(self, capsys):
        obj = invoke_json(capsys, "debruijn-seq", "--sigma", "2", "--n", "2")
        assert obj["sequence"] == "00110"
        obj = invoke_json(capsys, "debruijn-seq", "--sigma", "2", "--n", "4", "--cyclic")
        assert obj["length"] == 16

    def test_mykkeltveit(self, capsys):
        obj = invoke_json(capsys, "mykkeltveit", "--sigma", "2", "--w", "8")
        assert obj["cardinality"] == obj["necklace_count"] == 36
        assert obj["decycling"] is True

    def test_forbidden(self, capsys):
        obj = invoke_json(capsys, "forbidden", "--sigma", "2", "--w", "16")
        assert obj["d"] == 1
        assert obj["longest_path"] == 15
        assert obj["cardinality"] == 2**15 + 1

    def test_fsm(self, capsys):
        obj = invoke_json(capsys, "fsm", "--sigma", "2", "--d", "1")
        assert obj["bracket_holds"] is False
        obj = invoke_json(capsys, "fsm", "--sigma", "2", "--d", "2", "--w", "4")
        assert obj["bracket_holds"] is True
        assert abs(obj["dominant_root"] - 0.8090169943749475) < 1e-9
        assert obj["survival"] == {"num": 1, "den": 2, "float": 0.5}

    def test_fsm_large_d(self, capsys):
        # the 10^6-entry matrix renders one JSON text per distinct entry: the
        # same bytes as one dict per entry, in about 0.7 s where that took 4 s
        start = time.perf_counter()
        code, out = invoke(capsys, "fsm", "--sigma", "2", "--d", "1000", "--w", "5")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        digest = "2274a564e130847780d567ef614fb41d5349f36ca123ee5f48d572f26fffbe13"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_mds_count(self, capsys):
        obj = invoke_json(capsys, "mds-count", "--sigma", "2", "--w", "4")
        assert obj["mds_count"] == 30


class TestDensity:
    def test_particular_worked_sequence(self, capsys):
        obj = invoke_json(
            capsys,
            "density",
            "--sigma", "4", "--w", "5", "--minimizer", "--k", "3",
            "--seq", "CACTGCTGTACCTCTTCT",
        )
        assert obj["density"]["float"] == 0.375
        assert obj["selected"] == 6 and obj["windows"] == 16

    def test_expected_exact(self, capsys):
        obj = invoke_json(capsys, "density", "--sigma", "2", "--w", "2", "--minimizer", "--k", "1")
        assert obj["density"] == {"num": 3, "den": 4, "float": 0.75}
        assert obj["mode"] == "EXPECTED_EXACT"

    def test_estimate_seeded_identical(self, capsys):
        argv = [
            "density", "--sigma", "2", "--w", "6", "--minimizer", "--k", "3",
            "--estimate", "--sample", "100000", "--seed", "11",
        ]
        a = invoke(capsys, *argv)
        b = invoke(capsys, *argv)
        assert a == b and a[0] == 0
        assert json.loads(a[1])["mode"] == "EXPECTED_ESTIMATE"

    def test_compatible_guarantee_flag(self, capsys, tmp_path):
        p = str(tmp_path / "m.txt")
        code, _ = invoke(capsys, "mykkeltveit", "--sigma", "2", "--w", "6", "--out", p)
        assert code == 0
        obj = invoke_json(
            capsys, "density", "--sigma", "2", "--w", "7", "--compatible", p
        )
        assert "uhs_guarantee" in obj


class TestSetsAndFiles:
    def test_check_uhs_builtin_forbidden(self, capsys):
        obj = invoke_json(
            capsys, "check-uhs", "--sigma", "2", "--w", "16", "--set", "forbidden", "--l", "16"
        )
        assert obj["kind"] == "ACYCLIC"
        assert obj["longest_path"] == 15
        assert obj["is_uhs"] is True

    def test_check_uhs_l_too_small(self, capsys):
        obj = invoke_json(
            capsys, "check-uhs", "--sigma", "2", "--w", "16", "--set", "forbidden", "--l", "15"
        )
        assert obj["is_uhs"] is False

    def test_longest_path_witness(self, capsys):
        obj = invoke_json(
            capsys, "longest-path", "--sigma", "2", "--w", "9", "--set", "forbidden"
        )
        assert obj["longest_vertices"] == 8
        assert len(obj["witness"]) == 8

    def test_text_and_binary_round_trip(self, capsys, tmp_path):
        t = str(tmp_path / "m.txt")
        b = str(tmp_path / "m.bin")
        invoke(capsys, "mykkeltveit", "--sigma", "2", "--w", "8", "--out", t)
        invoke(capsys, "mykkeltveit", "--sigma", "2", "--w", "8", "--out", b, "--binary")
        assert KmerSet.load_text(t) == KmerSet.load_binary(b)
        # both load back through check-uhs
        for p in (t, b):
            obj = invoke_json(capsys, "check-uhs", "--sigma", "2", "--w", "8", "--set", p)
            assert obj["cardinality"] == 36

    def test_set_dimension_mismatch(self, capsys, tmp_path):
        p = str(tmp_path / "m.txt")
        invoke(capsys, "mykkeltveit", "--sigma", "2", "--w", "8", "--out", p)
        code, _ = invoke(capsys, "check-uhs", "--sigma", "2", "--w", "9", "--set", p)
        assert code == 1

    def test_contexts(self, capsys):
        obj = invoke_json(
            capsys, "contexts", "--sigma", "2", "--w", "2", "--minimizer", "--k", "1"
        )
        assert obj["context_symbols"] == 3
        assert obj["cardinality"] == 6
        assert obj["relative_size"]["float"] == 0.75

    def test_long_path(self, capsys, tmp_path):
        out = str(tmp_path / "path.txt")
        csv = str(tmp_path / "path.csv")
        code, _ = invoke(
            capsys, "long-path", "--sigma", "2", "--w", "16", "--out", out, "--csv", csv
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 34
        assert open(csv).readline() == "step,re,im\n"

    def test_long_path_bytes(self, capsys, tmp_path):
        # stdout at w = 100, pinned; --out holds the same vertex lines
        code, out = invoke(capsys, "long-path", "--sigma", "2", "--w", "100")
        assert code == 0
        digest = "7dd985684daa863ff621800013df0290c5272e87a9a2d1640671fe6eee4ab441"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        lines = str(tmp_path / "lp.txt")
        code, json_line = invoke(capsys, "long-path", "--sigma", "2", "--w", "100", "--out", lines)
        assert code == 0
        assert open(lines).read() + json_line == out

    def test_long_path_json(self, capsys):
        obj = invoke_json(capsys, "long-path", "--sigma", "2", "--w", "16")
        assert obj["vertices"] == 34
        assert obj["quadruples"] == 2
        assert obj["validated"] is True
        assert obj["min_im"] > 0

    def test_mds_emit(self, capsys, tmp_path):
        d = str(tmp_path / "sets")
        obj = invoke_json(capsys, "mds-count", "--sigma", "2", "--w", "3", "--emit", d)
        assert obj["mds_count"] == 4
        import os

        files = sorted(os.listdir(d))
        assert len(files) == 4
        loaded = {tuple(sorted(KmerSet.load_text(os.path.join(d, f)).codes().tolist())) for f in files}
        assert len(loaded) == 4


class TestExitCodes:
    def test_bad_subcommand(self, capsys):
        assert run(["no-such-command"]) == 1

    def test_missing_required(self, capsys):
        assert run(["necklaces", "--sigma", "2"]) == 1

    def test_validation_error(self, capsys):
        # d = 0 at w=8: construction refuses
        assert run(["forbidden", "--sigma", "2", "--w", "8"]) == 1

    def test_budget_error(self, capsys):
        assert run(["mykkeltveit", "--sigma", "2", "--w", "20", "--budget", "100"]) == 2

    def test_exact_density_budget(self, capsys):
        # the forward context set has 2^(4+3) = 128 states
        argv = ["density", "--sigma", "2", "--w", "4", "--minimizer", "--k", "3", "--budget", "10"]
        assert run(argv) == 2
        assert "budget is 10" in capsys.readouterr().err

    def test_estimate_sample_over_budget(self, capsys):
        # the sampled estimate's mask takes a byte per symbol: one past the
        # default budget is refused before any draw, whatever --budget says
        argv = ["density", "--sigma", "2", "--w", "3", "--minimizer", "--estimate",
                "--sample", "268435457", "--budget", "1000"]
        assert run(argv) == 2  # imports the modules outside the measurement
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sampled estimate needs 268435457 states, budget is 268435456\n"
        assert peak < 1 << 20

    @pytest.mark.parametrize("sample", ["0", "2", "5"])
    def test_estimate_sample_shorter_than_window(self, capsys, sample):
        # a (k=3, w=4) minimizer window spans 6 symbols
        argv = ["density", "--sigma", "2", "--w", "4", "--minimizer", "--k", "3",
                "--estimate", "--sample", sample]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: string of length {sample} is shorter than a window (6 symbols)\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("density --sigma 2 --w 0 --minimizer --k 2", "need w >= 1 and k >= 1, got w=0 k=2"),
            ("contexts --sigma 2 --w 3 --minimizer --k -1", "need w >= 1 and k >= 1, got w=3 k=-1"),
            ("density --sigma 1 --w 3 --minimizer --k 2", "alphabet size must be >= 2, got 1"),
            ("forbidden --sigma 1 --w 30", "alphabet size must be >= 2, got 1"),
            ("debruijn-seq --sigma 1 --n 3", "alphabet size must be >= 2, got 1"),
            ("debruijn-seq --sigma 2 --n 0", "need n >= 1, got 0"),
            ("debruijn-seq --sigma 2 --n -2", "need n >= 1, got -2"),
            ("fsm --sigma 1 --d 2 --w 10", "alphabet size must be >= 2, got 1"),
            ("fsm --sigma 1 --d 2", "alphabet size must be >= 2, got 1"),
            ("necklaces --sigma 11 --w 3 --list", "digit text form only supports sigma <= 10"),
            ("mykkeltveit --sigma 0 --w 5", "alphabet size must be >= 2, got 0"),
            ("long-path --sigma 0 --w 100", "alphabet size must be >= 2, got 0"),
            ("long-path --sigma 1 --w 100", "alphabet size must be >= 2, got 1"),
            ("density --sigma 0 --w 2 --minimizer --k -1", "alphabet size must be >= 2, got 0"),
            ("contexts --sigma 0 --w 2 --minimizer --k -1", "alphabet size must be >= 2, got 0"),
        ],
        ids=["w0", "k-1", "sigma1", "forbidden_sigma1", "debruijn_sigma1", "debruijn_n0",
             "debruijn_n-2", "fsm_sigma1", "fsm_sigma1_matrix_only", "necklaces_list_sigma11",
             "mykkeltveit_sigma0", "long_path_sigma0", "long_path_sigma1",
             "density_sigma0_k-1", "contexts_sigma0_k-1"],
    )
    def test_bad_shape(self, capsys, argv, message):
        # a minimizer's shape is checked before sigma^k is sized, so sigma = 0
        # with k = -1 names the alphabet rather than dividing by zero
        assert run(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "error,line",
        [
            (MemoryError(), "error: out of memory"),
            (
                MemoryError("Unable to allocate 1.00 TiB"),
                "error: out of memory: Unable to allocate 1.00 TiB",
            ),
        ],
        ids=["bare", "with-message"],
    )
    def test_memory_error_is_exit_2(self, capsys, monkeypatch, error, line):
        from uhspath import forbidden

        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(forbidden, "build_forbidden_set", exhausted)
        assert run(["forbidden", "--sigma", "2", "--w", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    @pytest.mark.parametrize(
        "line", ["01", "01 1 0", "01 x"], ids=["missing_pick", "extra_field", "non_integer_pick"]
    )
    def test_malformed_scheme_table(self, capsys, tmp_path, line):
        table = tmp_path / "t.txt"
        table.write_text(f"scheme sigma=2 w=2\n00 0\n\n{line}\n10 0\n11 1\n")
        assert run(["density", "--sigma", "2", "--w", "2", "--table", str(table)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad line 4 in scheme file {table}: expected a window and an integer pick\n"
        )

    @pytest.mark.parametrize(
        "name,content,argv,message",
        [
            ("t1.bin", b"UHS1", "check-uhs --sigma 2 --w 3 --set {f}", "truncated set file {f}"),
            ("s.txt", b"uhs sigma=x w=3\n000\n", "check-uhs --sigma 2 --w 3 --set {f}",
             "bad set file header in {f}"),
            ("t.txt", b"scheme sigma=2 w=x\n00 0\n", "density --sigma 2 --w 2 --table {f}",
             "bad scheme file header in {f}"),
            ("t.txt", b"scheme sigma=2 w=-1\n0 0\n", "density --sigma 2 --w -1 --table {f}",
             "w must be >= 1, got -1"),
        ],
        ids=["binary_truncated", "set_sigma_not_integer", "scheme_w_not_integer",
             "scheme_w_negative"],
    )
    def test_malformed_header(self, capsys, tmp_path, name, content, argv, message):
        f = tmp_path / name
        f.write_bytes(content)
        assert run(argv.format(f=f).split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(f=f)}\n"

    @pytest.mark.parametrize(
        "argv,module,builder",
        [
            ("mykkeltveit --sigma 11 --w 7", "mykkeltveit", "build_mykkeltveit_set"),
            ("contexts --sigma 11 --w 1 --minimizer --k 1", "contexts", "build_context_set_local"),
            ("forbidden --sigma 11 --w 7", "forbidden", "build_forbidden_set"),
        ],
        ids=["mykkeltveit", "contexts", "forbidden"],
    )
    def test_failed_text_save_leaves_no_file(
        self, capsys, monkeypatch, tmp_path, argv, module, builder
    ):
        # a text set file holds digit lines, so sigma > 10 fails before the build
        def never(*args, **kwargs):
            raise AssertionError("set built before the alphabet check")

        monkeypatch.setattr(importlib.import_module(f"uhspath.{module}"), builder, never)
        out = tmp_path / "s.txt"
        assert run(argv.split() + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: digit text form only supports sigma <= 10\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_unwritable_csv_prints_nothing(self, capsys, tmp_path, out):
        # both files are opened before the first vertex line is written
        argv = ["long-path", "--sigma", "2", "--w", "20", "--csv", str(tmp_path / "no" / "x.csv")]
        if out:
            argv += ["--out", str(tmp_path / "lp.txt")]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert not out or (tmp_path / "lp.txt").read_text() == ""

    def test_set_file_alphabet(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("uhs sigma=0 w=3\n")
        assert run(["check-uhs", "--sigma", "0", "--w", "3", "--set", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alphabet size must be >= 2, got 0\n"

    @pytest.mark.parametrize(
        "argv,what",
        [
            ("mykkeltveit --sigma 2 --w 20000", "decycling set construction"),
            ("contexts --sigma 2 --w 9000 --minimizer --k 5", "local context set"),
            ("debruijn-seq --sigma 2 --n 20000", "de Bruijn sequence"),
        ],
        ids=["mykkeltveit", "contexts", "debruijn-seq"],
    )
    def test_budget_error_with_huge_count(self, capsys, argv, what):
        # sigma^w has more decimal digits than Python will print
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {what} needs at least 2^")

    @pytest.mark.parametrize(
        "argv",
        [
            "necklaces --sigma 2 --w 8 --list",
            "debruijn-seq --sigma 2 --n 4",
            "mykkeltveit --sigma 2 --w 6",
            "forbidden --sigma 2 --w 16",
            "contexts --sigma 2 --w 3 --minimizer --k 1",
            "density --sigma 2 --w 4 --minimizer --k 3",
            "check-uhs --sigma 2 --w 6 --set mykkeltveit",
            "longest-path --sigma 2 --w 16 --set forbidden",
            "long-path --sigma 2 --w 101",
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_every_budget_is_read(self, capsys, argv):
        assert run([*argv.split(), "--budget", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "budget is 1" in lines[0]

    @pytest.mark.parametrize(
        "argv",
        [
            "density --sigma 2 --w 5 --minimizer --k 11 --estimate --sample 1000",
            "density --sigma 2 --w 5 --order {o} --estimate --sample 1000",
        ],
        ids=["minimizer", "order"],
    )
    def test_minimizer_rank_table_budget(self, capsys, tmp_path, argv):
        # the rank table has 2^11 entries; it is checked before it is allocated
        o = tmp_path / "o.txt"
        o.write_text("0" * 11 + "\n")
        assert run([*argv.format(o=o).split(), "--budget", "1024"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: minimizer rank table needs 2048 states, budget is 1024\n"

    @pytest.mark.parametrize(
        "argv", ["fsm --sigma 2 --d 3", "mds-count --sigma 2 --w 3"], ids=["fsm", "mds-count"]
    )
    def test_budget_only_where_read(self, capsys, argv):
        assert run([*argv.split(), "--budget", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --budget 5\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("density --sigma 3 --w 7 --table {t}", "scheme is sigma=2 w=2, expected sigma=3 w=7"),
            ("density --sigma 2 --w 2 --table {t} --k 2",
             "scheme is sigma=2 w=2 k=1, expected sigma=2 w=2 k=2"),
            ("density --sigma 3 --w 7 --compatible {m}", "scheme is sigma=2 w=7, expected sigma=3 w=7"),
            ("contexts --sigma 2 --w 7 --compatible {m} --k 5",
             "scheme is sigma=2 w=7 k=6, expected sigma=2 w=7 k=5"),
            ("density --sigma 2 --w 3 --order {o} --k 3",
             "scheme is sigma=2 w=3 k=2, expected sigma=2 w=3 k=3"),
            ("density --sigma 2 --w 2 --minimizer --k 2 --table {t}",
             "argument --table: not allowed with argument --minimizer"),
            ("contexts --sigma 2 --w 2 --order {o} --compatible {m}",
             "argument --compatible: not allowed with argument --order"),
            ("density --sigma 2 --w 2 --k 2",
             "one of the arguments --minimizer --order --table --compatible is required"),
        ],
        ids=["table_shape", "table_k", "compatible_sigma", "compatible_k", "order_k",
             "minimizer_and_table", "order_and_compatible", "no_source"],
    )
    def test_scheme_source_conflict(self, capsys, tmp_path, argv, message):
        t, o, m = tmp_path / "t.txt", tmp_path / "o.txt", tmp_path / "m.txt"
        t.write_text("scheme sigma=2 w=2\n00 0\n01 1\n10 0\n11 1\n")
        o.write_text("00\n01\n10\n11\n")
        KmerSet.from_codes(2, 6, [0b000000, 0b010101]).save_binary(str(m))
        assert run(argv.format(t=t, o=o, m=m).split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_scheme_matching_flags(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("scheme sigma=2 w=2\n00 0\n01 1\n10 0\n11 1\n")
        for k in ([], ["--k", "1"]):
            obj = invoke_json(capsys, "density", "--sigma", "2", "--w", "2", "--table", str(t), *k)
            assert (obj["sigma"], obj["w"], obj["k"], obj["kind"]) == (2, 2, 1, "TABLE")

    def test_seed_belongs_to_density(self, capsys):
        assert run(["mykkeltveit", "--sigma", "2", "--w", "6", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --seed 1\n"
        argv = ["density", "--sigma", "2", "--w", "6", "--minimizer", "--k", "3",
                "--estimate", "--sample", "100000", "--seed"]
        a = invoke_json(capsys, *argv, "11")
        b = invoke_json(capsys, *argv, "12")
        assert a["mode"] == b["mode"] == "EXPECTED_ESTIMATE"
        assert a["selected"] != b["selected"]

    def test_missing_file(self, capsys):
        assert run(["check-uhs", "--sigma", "2", "--w", "4", "--set", "/nope"]) == 1

    def test_internal_invariant_failure(self, capsys, monkeypatch):
        from uhspath import mykkeltveit

        def broken(*args, **kwargs):
            raise AssertionError("sign classification bug")

        monkeypatch.setattr(mykkeltveit, "build_mykkeltveit_set", broken)
        assert run(["mykkeltveit", "--sigma", "2", "--w", "6"]) == 3
        assert "internal error: sign classification bug" in capsys.readouterr().err

    def test_longest_path_rejects_wide_alphabet_first(self, capsys, monkeypatch):
        # the witnesses print as digit text, so sigma > 10 fails before any work
        from uhspath import mykkeltveit, paths

        def never(*args, **kwargs):
            raise AssertionError("set built or peeled before the alphabet check")

        monkeypatch.setattr(mykkeltveit, "build_mykkeltveit_set", never)
        monkeypatch.setattr(paths, "longest_remaining_path", never)
        assert run(["longest-path", "--sigma", "11", "--w", "7", "--set", "mykkeltveit"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: digit text form only supports sigma <= 10\n"

    @pytest.mark.parametrize("corrupt", ["row", "short", "loose"])
    @pytest.mark.parametrize(
        "argv",
        [
            "mykkeltveit --sigma 2 --w 10",
            "forbidden --sigma 2 --w 16",
            "check-uhs --sigma 2 --w 10 --set mykkeltveit --l 70",
            "longest-path --sigma 2 --w 10 --set mykkeltveit",
        ],
        ids=["mykkeltveit", "forbidden", "check-uhs", "longest-path"],
    )
    def test_path_answer_certified_before_printing(self, capsys, monkeypatch, argv, corrupt):
        # a peel that zeroes one surviving w-mer's row, reports its longest
        # path one short, or doubles every wave (a certificate that holds
        # but leaves the witness walk without a successor) exits 3
        from uhspath import paths

        real_peel = paths._peel

        def corrupted(mask, sigma):
            h, longest = real_peel(mask, sigma)
            if corrupt == "row":
                h[int(np.flatnonzero(~mask)[0]) % h.size] = 0
            elif corrupt == "short":
                longest -= 1
            else:
                h, longest = 2 * h, 2 * longest
            return h, longest

        monkeypatch.setattr(paths, "_peel", corrupted)
        assert run(argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert len(captured.err.splitlines()) == 1

    def test_forbidden_huge_alphabet_fails_fast(self, capsys):
        # the message names the least w that admits the construction, found
        # by doubling and bisection rather than by counting up from w = 2
        start = time.perf_counter()
        assert run(["forbidden", "--sigma", str(10**30), "--w", "2"]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: construction needs d >= 1")

    @pytest.mark.parametrize(
        "argv,status",
        [
            ("forbidden --sigma 2 --w " + str(10**400), 2),
            ("forbidden --sigma " + str(10**200) + " --w 2", 1),
            ("necklaces --sigma 2 --w 100000000", 1),
            ("fsm --sigma 2 --d 3 --w 100000000", 2),
            ("fsm --sigma 2 --d 100000 --w 5", 2),
        ],
        ids=["forbidden-huge-w", "forbidden-huge-sigma", "necklaces", "fsm-huge-w", "fsm-huge-d"],
    )
    def test_huge_arguments_fail_fast(self, capsys, argv, status):
        # past a float's range, a printable count or any budget, each call
        # fails before its work with one error line; fsm-huge-w fails the
        # survival gate, which fsm passes before it writes the first byte of
        # its streamed line
        start = time.perf_counter()
        assert run(argv.split()) == status
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv,status",
        [
            ("mykkeltveit --sigma 3 --w 100000000", 2),
            ("check-uhs --sigma 3 --w 100000000 --set mykkeltveit", 2),
            ("contexts --sigma 3 --w 100000000 --minimizer --k 1", 2),
            ("debruijn-seq --sigma 3 --n 100000000", 2),
            ("density --sigma 3 --w 5 --minimizer --k 100000000 --estimate --sample 1000", 2),
            ("density --sigma 3 --w 100000000 --minimizer --k 1", 1),
            ("check-uhs --sigma 3 --w 100000000 --set {dir}/set.txt", 2),
            ("check-uhs --sigma 3 --w 100000000 --set {dir}/set.bin", 2),
            ("density --sigma 3 --w 100000000 --table {dir}/table.txt", 2),
            ("long-path --sigma 2 --w 100000001", 2),
        ],
        ids=[
            "mykkeltveit", "check-uhs", "contexts", "debruijn-seq", "rank-table",
            "exact-density", "text-set-header", "binary-set-header", "table-header",
            "long-path",
        ],
    )
    def test_power_sizes_fail_before_built(self, capsys, tmp_path, argv, status):
        # sigma^w with w = 10^8 has about 1.6e8 bits: the size gate refuses it
        # from its lower bound, and the exact density falls back to a sample
        # shorter than a window.  The long path's steps pass the budget within
        # its first quadruples.  The alarm fails a call still running.
        (tmp_path / "set.txt").write_text("uhs sigma=3 w=100000000\n")
        (tmp_path / "set.bin").write_bytes(b"UHS1" + bytes([3]) + (10**8).to_bytes(4, "little"))
        (tmp_path / "table.txt").write_text("scheme sigma=3 w=100000000\n")

        def ring(signum, frame):
            pytest.fail(f"{argv} still running after 5 s")

        previous = signal.signal(signal.SIGALRM, ring)
        signal.alarm(5)
        try:
            start = time.perf_counter()
            assert run(argv.format(dir=tmp_path).split()) == status
            assert time.perf_counter() - start < 1.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if status == 1:
            assert lines[0] == (
                "error: string of length 10000000 is shorter than a window (100000000 symbols)"
            )

    def test_largest_printable_necklace_count(self, capsys):
        # 2^14000 / 14000 has 4211 digits, under Python's 4300: it still prints
        obj = invoke_json(capsys, "necklaces", "--sigma", "2", "--w", "14000")
        assert obj["necklace_count"] * 14000 >= 2**14000

    def test_necklace_count_without_digit_limit(self, capsys, monkeypatch):
        # Pythons before 3.10.7 have no sys.get_int_max_str_digits: no limit to check
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        obj = invoke_json(capsys, "necklaces", "--sigma", "2", "--w", "6")
        assert obj["necklace_count"] == 14

    def test_long_path_undefined_width(self, capsys):
        # the even program leaves the upper half plane at w=18: bad input, not a bug
        assert run(["long-path", "--sigma", "2", "--w", "18"]) == 1
        assert "has Im(P) <= 0" in capsys.readouterr().err

    def test_long_path_sigma_over_10_before_walk(self, capsys, monkeypatch):
        # the vertices print as digit text: sigma > 10 fails before any work
        from uhspath import mykkeltveit

        monkeypatch.setattr(mykkeltveit, "_run_ring", lambda *a: pytest.fail("walk built"))
        assert run(["long-path", "--sigma", "11", "--w", "100"]) == 1
        assert capsys.readouterr().err == "error: digit text form only supports sigma <= 10\n"

    def test_long_path_self_check_failure(self, capsys, monkeypatch):
        # the walk ends on its window j again, whose doubles tie with those of
        # a third, different window k: the revisit is found among the ties
        from uhspath import mykkeltveit

        w = 100
        lp = mykkeltveit.build_long_path(2, w)
        first = {}
        for k, p in enumerate(lp.embeddings.tolist()):
            j = first.setdefault(p, k)
            if j != k:
                break
        assert j != k and lp.vertices[j].tolist() != lp.vertices[k].tolist()
        real_run_ring = mykkeltveit._run_ring

        def repeating(*args):
            walk = real_run_ring(*args)
            return np.concatenate([walk, walk[j : j + w]])

        monkeypatch.setattr(mykkeltveit, "_run_ring", repeating)
        assert run(["long-path", "--sigma", "2", "--w", str(w)]) == 3
        assert "internal error: constructed walk revisits a vertex" in capsys.readouterr().err


class TestParser:
    """The parser holds only the subparser that argv names; the help and the
    errors that list every subcommand keep their bytes."""

    COMMANDS = [
        "necklaces", "debruijn-seq", "mykkeltveit", "forbidden", "contexts", "density",
        "check-uhs", "longest-path", "long-path", "mds-count", "fsm",
    ]
    # sha256 of the --help text at COLUMNS=80, built with every subparser
    # under the argparse of Python 3.10 and 3.11
    HELP_SHA256 = {
        "": "7e6e573055e3f63001567aefda8b921a93cde826f1a96e1a030725f16b485d1b",
        "necklaces": "8b369393cb95c352dbe40fe0b5844dc9c1ab78c2955532958beba40081304d6a",
        "debruijn-seq": "6f2de55ac11cc972f039c8f24aee3965e8199e1eb121e1b659c7983abc6565f4",
        "mykkeltveit": "f0571454e7064321ed9e5ea069fdf6168dfaf0e7f648159a9248b0b6ad954f45",
        "forbidden": "3e2720ea65fa2cc53b0bb43ea0294894daa187479f03dee5671c403d9a17266e",
        "contexts": "5ca02e2d6ba42ac2c512924d47fdb6151690421b3ce015eda567d86e69e1c596",
        "density": "365849bf96052fce394e9f5f47928d6707666a4cd5e36dcc28d29eab07214512",
        "check-uhs": "8d958d7f91573eb14ffb900a4e4547a5d8d5a9ef1b0e9359402f2883b4166bd4",
        "longest-path": "a672fd7859f3a4f8e8140cdfdcb822319be138341a597717a35a90bc60816162",
        "long-path": "b86d10a8e2b985694056db6fb0f0fb8bc0f3dac22db732f45abd1d94d4f11e64",
        "mds-count": "b762e06f097a9fd1a8f44a8a943bbf4e270294e3417101772a24101dec82ec7d",
        "fsm": "942389d8e9401ec378e8a4f1e88e5dfca7b905fddb51ac977db049ac56f0ca64",
    }
    ERRORS = {
        "": "error: the following arguments are required: cmd\n",
        "bogus": "error: argument cmd: invalid choice: 'bogus' (choose from "
        + ", ".join(map(repr, COMMANDS))
        + ")\n",
    }
    PINNED = pytest.mark.skipif(
        sys.version_info[:2] not in [(3, 10), (3, 11)],
        reason="bytes pinned under the argparse of Python 3.10 and 3.11",
    )

    @staticmethod
    def _run(capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = run(argv)
        except SystemExit as e:  # --help exits from inside argparse
            code = e.code
        out, err = capsys.readouterr()
        return code, out, err

    @PINNED
    @pytest.mark.parametrize("cmd", list(HELP_SHA256))
    def test_help_bytes(self, capsys, monkeypatch, cmd):
        code, out, err = self._run(capsys, monkeypatch, cmd.split() + ["--help"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP_SHA256[cmd]

    @PINNED
    @pytest.mark.parametrize("argv", list(ERRORS), ids=["none", "bogus"])
    def test_error_bytes(self, capsys, monkeypatch, argv):
        assert self._run(capsys, monkeypatch, argv.split()) == (1, "", self.ERRORS[argv])

    @pytest.mark.parametrize(
        "argv",
        ["", "-h", "bogus", "--sigma 2", "necklaces --sigma 2", "density --w 3", "fsm --d x"]
        + [f"{cmd} --help" for cmd in COMMANDS],
    )
    def test_same_as_every_subparser(self, capsys, monkeypatch, argv):
        # on any Python: the bytes of a parser built with all eleven
        lazy = self._run(capsys, monkeypatch, argv.split())
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda _argv: build_parser())
        assert self._run(capsys, monkeypatch, argv.split()) == lazy

    def test_one_subparser_built(self):
        parser = cli.build_parser(["fsm", "--d", "1"])
        with pytest.raises(ValueError, match="invalid choice: 'necklaces'"):
            parser.parse_args(["necklaces", "--w", "4"])


class TestProcessEntryPoint:
    """`cli.main` in a fresh interpreter, launched as the benchmark launches it."""

    @pytest.mark.parametrize(
        "argv,status",
        [
            ("necklaces --sigma 2 --w 4", 0),
            ("necklaces --sigma 1 --w 4", 1),
            ("mykkeltveit --sigma 2 --w 20 --budget 100", 2),
        ],
        ids=["ok", "validation", "budget"],
    )
    def test_exit_status_reaches_the_process(self, argv, status):
        src = os.path.dirname(os.path.dirname(uhspath.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "from uhspath.cli import main; main()", *argv.split()],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == status, proc.stderr
        if status == 0:
            assert proc.stdout == '{"sigma": 2, "w": 4, "necklace_count": 6}\n'
            assert proc.stderr == ""
        else:
            assert proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1
            assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (
                "necklaces --sigma 2 --w 4 --list",
                '{"sigma": 2, "w": 4, "necklace_count": 6, "classes": [{"rep": "0000", "size": 1}, '
                '{"rep": "0001", "size": 4}, {"rep": "0011", "size": 4}, {"rep": "0101", "size": 2}, '
                '{"rep": "0111", "size": 4}, {"rep": "1111", "size": 1}]}\n',
            ),
            (
                "debruijn-seq --sigma 2 --n 3",
                '{"sigma": 2, "order": 3, "cyclic": false, "length": 10, "sequence": "0001011100"}\n',
            ),
        ],
        ids=["necklaces", "debruijn-seq"],
    )
    def test_literal_stdout(self, argv, stdout):
        src = os.path.dirname(os.path.dirname(uhspath.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "from uhspath.cli import main; main()", *argv.split()],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

    def test_written_files_complete_at_exit(self, tmp_path):
        # main() freezes the collector after run() returns: every --out and
        # --csv file is closed by then, byte for byte what run() writes in process
        src = os.path.dirname(os.path.dirname(uhspath.__file__))
        argvs = [
            "long-path --sigma 2 --w 100 --out {d}/lp.txt --csv {d}/lp.csv",
            "mykkeltveit --sigma 2 --w 14 --out {d}/m.txt",
            "forbidden --sigma 2 --w 16 --out {d}/f.bin --binary",
        ]
        for where in ("process", "in_process"):
            d = tmp_path / where
            d.mkdir()
            for argv in argvs:
                args = argv.format(d=d).split()
                if where == "process":
                    proc = subprocess.run(
                        [sys.executable, "-c", "from uhspath.cli import main; main()", *args],
                        env={**os.environ, "PYTHONPATH": src},
                        capture_output=True,
                    )
                    assert proc.returncode == 0, proc.stderr
                else:
                    assert run(args) == 0
        names = ["lp.txt", "lp.csv", "m.txt", "f.bin"]
        for name in names:
            got = (tmp_path / "process" / name).read_bytes()
            assert got == (tmp_path / "in_process" / name).read_bytes(), name
        assert (tmp_path / "process" / "lp.csv").read_text().count("\n") == 1314

    @staticmethod
    def _child_peak(*argv):
        """(exit status, stdout lines, peak RSS in KiB) of one `main()` run: a
        small parent forks it and reads its peak from wait4, so the peak is
        the run's own."""
        src = os.path.dirname(os.path.dirname(uhspath.__file__))
        script = (
            "import os, sys\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os.execv(sys.executable, [sys.executable, '-c',\n"
            "             'from uhspath.cli import main; main()', *sys.argv[1:]])\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.splitlines()
        status, maxrss_kib = map(int, lines[-1].split())
        assert status == 0, proc.stderr
        return lines[:-1], maxrss_kib

    def test_long_path_peak_rss(self):
        # about 44 MB at w = 1001 with the walk as one array (129 MB when
        # every vertex was a str)
        lines, maxrss_kib = self._child_peak(
            "long-path", "--sigma", "2", "--w", "1001", "--out", os.devnull
        )
        assert json.loads(lines[0])["vertices"] == 25124
        assert maxrss_kib < 80 * 1024

    def test_fsm_peak_rss(self):
        # the 10^6-entry matrix is written a row at a time: about 16 MB, where
        # the whole matrix and its whole text took 125 MB
        lines, maxrss_kib = self._child_peak("fsm", "--sigma", "2", "--d", "1000", "--w", "5")
        digest = "2274a564e130847780d567ef614fb41d5349f36ca123ee5f48d572f26fffbe13"
        assert hashlib.sha256((lines[0] + "\n").encode()).hexdigest() == digest
        assert maxrss_kib < 40 * 1024

    @pytest.mark.parametrize(
        "argv",
        [
            "necklaces --sigma 2 --w 4",
            "debruijn-seq --sigma 2 --n 3",
            "mds-count --sigma 2 --w 4",
            "mykkeltveit --sigma 2 --w 10",
            "longest-path --sigma 2 --w 10 --set mykkeltveit",
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_no_fractions_without_a_fraction(self, argv):
        # fractions (and the decimal it loads) is imported where a Fraction
        # is built, which these outputs never do
        src = os.path.dirname(os.path.dirname(uhspath.__file__))
        script = (
            "import sys\n"
            "before = {'fractions', 'decimal'} & set(sys.modules)\n"
            "from uhspath.cli import main\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as e:\n"
            "    print(e.code, sorted(({'fractions', 'decimal'} & set(sys.modules)) - before), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv.split()],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.stderr == "0 []\n"

    @pytest.mark.parametrize("user", [None, "3"], ids=["unset", "user-set"])
    def test_blas_pool_pinned_before_numpy_loads(self, user):
        # main() sets OPENBLAS_NUM_THREADS=1 before a handler imports numpy,
        # and keeps a value the user set
        src = os.path.dirname(os.path.dirname(uhspath.__file__))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if user is not None:
            env["OPENBLAS_NUM_THREADS"] = user
        script = (
            "import os, sys\n"
            "from uhspath.cli import main\n"
            "before = 'numpy' in sys.modules\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as e:\n"
            "    after = 'numpy' in sys.modules\n"
            "    pin = os.environ.get('OPENBLAS_NUM_THREADS')\n"
            "    print(e.code, before, after, pin, file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "mykkeltveit", "--sigma", "2", "--w", "10"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.stderr.split() == ["0", "False", "True", user or "1"]
        assert json.loads(proc.stdout)["cardinality"] == 108


class TestStdoutPins:
    """Every subcommand's stdout, in process, pinned by its sha256.  The
    sampled --estimate is left out: its bytes follow numpy's RNG stream and
    np.std, which numpy releases do not hold fixed."""

    @pytest.mark.parametrize(
        "argv,status,digest",
        [
            pytest.param(
                "necklaces --sigma 3 --w 5", 0,
                "6bff1833c8955b34d1fbce44181695910f39ff2869cbdfbc7206ea793cd8aee5",
                id="necklaces",
            ),
            pytest.param(
                "necklaces --sigma 3 --w 5 --list", 0,
                "fb089c1dfc335f3d9ef2733220a1924ec6527878110dcd17d0248a06f27ce59b",
                id="necklaces-list",
            ),
            pytest.param(
                "debruijn-seq --sigma 3 --n 3 --cyclic", 0,
                "b0ef6898a09abab940c5e6f72adafef369cb5001cc6b0be5947b1efc9c8e6f08",
                id="debruijn-seq",
            ),
            pytest.param(
                "mykkeltveit --sigma 2 --w 10", 0,
                "feb1c1250ce63725273e68dc54c5a03019cc2882dc44169ba064dead18713b1e",
                id="mykkeltveit",
            ),
            pytest.param(
                "forbidden --sigma 2 --w 12", 0,
                "5b0ae99f0012f22752d0dd0c8662cb0e82cf6dcaa0aedbf40cd99d93dbf22477",
                id="forbidden",
            ),
            pytest.param(
                "contexts --sigma 2 --w 4 --minimizer --k 3", 0,
                "c49d366dfc443fabb0218a3bda7e7c4fcdcf3bea49e48464fd94fc70cb271bed",
                id="contexts-local",
            ),
            pytest.param(
                "contexts --sigma 2 --w 3 --minimizer --k 1 --variant forward", 0,
                "b3f13bdc9c051ad1cf056de98264dc68cb447f1bed210527238a38e010360e27",
                id="contexts-forward",
            ),
            pytest.param(
                "density --sigma 2 --w 4 --minimizer --k 3", 0,
                "3ea501d95e89b86fbccbb02b4b1aa673f71e2ef9c6c32cbda89b0ffa9d9f8b92",
                id="density-exact",
            ),
            pytest.param(
                "density --sigma 4 --w 5 --minimizer --k 3 --seq CACTGCTGTACCTCTTCT", 0,
                "cf242cb99750edbfc41f612ee1ec600bde5fa3c69e280642122ff73295ef74e3",
                id="density-seq",
            ),
            pytest.param(
                "check-uhs --sigma 2 --w 10 --set forbidden --l 12", 0,
                "d8a281d90cf7a84a329fa0bd724a5b243ace818504a6ad8ff3138cff95101ac3",
                id="check-uhs",
            ),
            pytest.param(
                "longest-path --sigma 2 --w 3 --set c3.txt", 0,
                "b1f31e351c4377987fa3fcf5d1027e0609dfd748b969f332def248255b045148",
                id="longest-path-cyclic",
            ),
            pytest.param(
                "long-path --sigma 2 --w 20", 0,
                "b9554deb22f34d9ef916537d6a71769471c7a8ab454f25a3bd8d0edb5046c160",
                id="long-path",
            ),
            pytest.param(
                "mds-count --sigma 2 --w 4", 0,
                "f28c403b0e418206b6ae63d6e7a1edcb4136eeda0337c3109fd1a1b15dd9edfa",
                id="mds-count",
            ),
            pytest.param(
                "fsm --sigma 2 --d 3 --w 6", 0,
                "898a0045f4015ca0a64d12d9a60d6948f4332ffdc614e2d6c9697e512da773ba",
                id="fsm",
            ),
            pytest.param(
                "necklaces --sigma 1 --w 4", 1, hashlib.sha256(b"").hexdigest(), id="exit-1"
            ),
            pytest.param(
                "mykkeltveit --sigma 2 --w 20 --budget 100", 2, hashlib.sha256(b"").hexdigest(),
                id="exit-2",
            ),
        ],
    )
    def test_stdout_sha256(self, capsys, monkeypatch, tmp_path, argv, status, digest):
        # c3.txt leaves the cycles 010 -> 101 -> 010 and 111 -> 111 unhit
        (tmp_path / "c3.txt").write_text("uhs sigma=2 w=3\n000\n100\n")
        monkeypatch.chdir(tmp_path)
        assert run(argv.split()) == status
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x7fé€\u2028😀'), st.characters()))
RATIONAL = st.fixed_dictionaries({"num": st.integers(), "den": st.integers(1), "float": st.floats()})
VALUE = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT, RATIONAL)


def written(out: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._write(out)
    return buf.getvalue()


class TestWriter:
    @given(st.dictionaries(TEXT, st.one_of(VALUE, st.lists(VALUE))))
    @example({})
    @example({'"k\\"': 'v"\n', "é": [None, {"num": 1, "den": 3, "float": 1 / 3}], "e": []})
    def test_bytes_of_json_dumps(self, fields):
        # a drawn list is handed over as an iterator of its items' JSON texts,
        # and must read as json.dumps writes the list of those items parsed
        texts = {k: [json.dumps(v) for v in x] for k, x in fields.items() if isinstance(x, list)}
        out = {k: iter(texts[k]) if k in texts else x for k, x in fields.items()}
        want = {k: [json.loads(t) for t in texts[k]] if k in texts else x for k, x in fields.items()}
        assert written(out) == json.dumps(want) + "\n"

    def test_items_written_as_yielded(self):
        # each item is on stdout before the iterator is asked for the next
        seen = []
        buf = io.StringIO()

        def rows():
            for i in range(3):
                yield str(i)
                seen.append(buf.getvalue())

        with contextlib.redirect_stdout(buf):
            cli._write({"a": 1, "m": rows(), "z": None})
        assert seen == ['{"a": 1, "m": [0', '{"a": 1, "m": [0, 1', '{"a": 1, "m": [0, 1, 2']
        assert buf.getvalue() == '{"a": 1, "m": [0, 1, 2], "z": null}\n'
