"""Every pinned `uhspath` output, written once.

A row is one run: its argv, the exit status, its stdout (the one line
printed, or the sha256 of the whole of stdout), the sha256 of each file the
run writes, the input files written before it, and its stderr where that is
pinned.  `tests/test_cli.py` runs every row in process through `cli.run`;

    python tests/pins.py uhspath

runs every row through the installed console script, each in a fresh temp
dir with a 10 s bound, and names the rows that differ.  The sampled
`--estimate` has no row: its bytes follow numpy's RNG stream and np.std,
which numpy releases do not hold fixed.
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

# c3.txt leaves the cycles 010 -> 101 -> 010 and 111 -> 111 unhit
C3 = {"c3.txt": "uhs sigma=2 w=3\n000\n100\n"}


class Pin(NamedTuple):
    name: str
    argv: str
    status: int = 0
    stdout: str = ""  # the line printed, or a sha256 of all of stdout; "" for none
    files: dict = {}  # written file -> sha256 of its bytes
    inputs: dict = {}  # input file -> its text
    stderr: str = None  # the message, where pinned; a run that exits 0 writes none


PINS = [
    Pin("necklaces", "necklaces --sigma 3 --w 5", 0,
        "6bff1833c8955b34d1fbce44181695910f39ff2869cbdfbc7206ea793cd8aee5"),
    Pin("necklaces-list", "necklaces --sigma 3 --w 5 --list", 0,
        "fb089c1dfc335f3d9ef2733220a1924ec6527878110dcd17d0248a06f27ce59b"),
    Pin("necklaces-s2w4", "necklaces --sigma 2 --w 4", 0,
        '{"sigma": 2, "w": 4, "necklace_count": 6}'),
    Pin("necklaces-list-s2w4", "necklaces --sigma 2 --w 4 --list", 0,
        '{"sigma": 2, "w": 4, "necklace_count": 6, "classes": [{"rep": "0000", "size": 1}, '
        '{"rep": "0001", "size": 4}, {"rep": "0011", "size": 4}, {"rep": "0101", "size": 2}, '
        '{"rep": "0111", "size": 4}, {"rep": "1111", "size": 1}]}'),
    Pin("debruijn-seq", "debruijn-seq --sigma 3 --n 3 --cyclic", 0,
        "b0ef6898a09abab940c5e6f72adafef369cb5001cc6b0be5947b1efc9c8e6f08"),
    Pin("debruijn-seq-s2n3", "debruijn-seq --sigma 2 --n 3", 0,
        '{"sigma": 2, "order": 3, "cyclic": false, "length": 10, "sequence": "0001011100"}'),
    Pin("mykkeltveit", "mykkeltveit --sigma 2 --w 10", 0,
        '{"sigma": 2, "w": 10, "cardinality": 108, "necklace_count": 108, "decycling": true, '
        '"longest_path": 69}'),
    Pin("mykkeltveit-s3w9", "mykkeltveit --sigma 3 --w 9", 0,
        '{"sigma": 3, "w": 9, "cardinality": 2195, "necklace_count": 2195, "decycling": true, '
        '"longest_path": 140}'),
    Pin("mykkeltveit-s7w2-out", "mykkeltveit --sigma 7 --w 2 --out m72.txt", 0,
        '{"sigma": 7, "w": 2, "cardinality": 28, "necklace_count": 28, "decycling": true, '
        '"longest_path": 6}',
        {"m72.txt": "7149a850b23c39bc1def9242ae79ed7f3d34a3510dbe1c5b2eb6643be0cfcde4"}),
    Pin("mykkeltveit-s3w6-out", "mykkeltveit --sigma 3 --w 6 --out m36.txt", 0,
        '{"sigma": 3, "w": 6, "cardinality": 130, "necklace_count": 130, "decycling": true, '
        '"longest_path": 36}',
        {"m36.txt": "258b7fbc539a0ae1ef8850f6352aad1be1b9420b395c13542029479df2de1a7b"}),
    Pin("forbidden", "forbidden --sigma 2 --w 12", 0,
        "5b0ae99f0012f22752d0dd0c8662cb0e82cf6dcaa0aedbf40cd99d93dbf22477"),
    Pin("forbidden-out", "forbidden --sigma 2 --w 16 --out f16.txt", 0,
        '{"sigma": 2, "w": 16, "d": 1, "cardinality": 32769, "relative_size": {"num": 32769, '
        '"den": 65536, "float": 0.5000152587890625}, "longest_path": 15}',
        {"f16.txt": "7ca85d5a7e51cf815e0f350a58a3ed3d7b68968bb7717c9e1ebac44d6ef38a73"}),
    Pin("contexts-local", "contexts --sigma 2 --w 4 --minimizer --k 3", 0,
        "c49d366dfc443fabb0218a3bda7e7c4fcdcf3bea49e48464fd94fc70cb271bed"),
    Pin("contexts-forward", "contexts --sigma 2 --w 3 --minimizer --k 1 --variant forward", 0,
        '{"sigma": 2, "w": 3, "k": 1, "variant": "forward", "context_symbols": 4, '
        '"cardinality": 10, "relative_size": {"num": 5, "den": 8, "float": 0.625}}'),
    Pin("density-exact", "density --sigma 2 --w 4 --minimizer --k 3", 0,
        "3ea501d95e89b86fbccbb02b4b1aa673f71e2ef9c6c32cbda89b0ffa9d9f8b92"),
    Pin("density-seq", "density --sigma 4 --w 5 --minimizer --k 3 --seq CACTGCTGTACCTCTTCT", 0,
        "cf242cb99750edbfc41f612ee1ec600bde5fa3c69e280642122ff73295ef74e3"),
    Pin("check-uhs", "check-uhs --sigma 2 --w 10 --set forbidden --l 12", 0,
        "d8a281d90cf7a84a329fa0bd724a5b243ace818504a6ad8ff3138cff95101ac3"),
    Pin("check-uhs-mykkeltveit", "check-uhs --sigma 2 --w 10 --set mykkeltveit --l 70", 0,
        '{"sigma": 2, "w": 10, "cardinality": 108, "relative_size": {"num": 27, "den": 256, '
        '"float": 0.10546875}, "kind": "ACYCLIC", "longest_path": 69, "l": 70, "is_uhs": true}'),
    Pin("longest-path-cyclic", "longest-path --sigma 2 --w 3 --set c3.txt", 0,
        "b1f31e351c4377987fa3fcf5d1027e0609dfd748b969f332def248255b045148", inputs=C3),
    Pin("longest-path-s2w10", "longest-path --sigma 2 --w 10 --set mykkeltveit", 0,
        "375c2644007b904fbc457b5fe2cad9f356fd7b37267d7a520cd44b386d5b0a74"),
    Pin("longest-path-s4w6", "longest-path --sigma 4 --w 6 --set mykkeltveit", 0,
        "138c6644dd9d60eefa0062217426ce3b161bab8f8ceb90b0ef5fef4e4e63beec"),
    Pin("long-path", "long-path --sigma 2 --w 20", 0,
        "b9554deb22f34d9ef916537d6a71769471c7a8ab454f25a3bd8d0edb5046c160"),
    Pin("long-path-w100", "long-path --sigma 2 --w 100", 0,
        "7dd985684daa863ff621800013df0290c5272e87a9a2d1640671fe6eee4ab441"),
    Pin("long-path-w101", "long-path --sigma 2 --w 101", 0,
        "3ab4b06227257fdd62eb5f01a91164d384709642627eacc050a5828da4034480"),
    Pin("mds-count", "mds-count --sigma 2 --w 4", 0,
        '{"sigma": 2, "w": 4, "mds_count": 30, "nodes_explored": 109, "prunes": 50}'),
    Pin("fsm", "fsm --sigma 2 --d 3 --w 6", 0,
        "898a0045f4015ca0a64d12d9a60d6948f4332ffdc614e2d6c9697e512da773ba"),
    Pin("fsm-d1000", "fsm --sigma 2 --d 1000 --w 5", 0,
        "2274a564e130847780d567ef614fb41d5349f36ca123ee5f48d572f26fffbe13"),
    Pin("fsm-d1", "fsm --sigma 2 --d 1", 0,
        "5f2661def84b3f82a0644c8d2a3cd9a9204dd1fa990a369b385e6ab7c52bd466"),
    Pin("fsm-d20", "fsm --sigma 2 --d 20 --w 30", 0,
        "d41a1b011dffb10fc7ad5d735b761a768ce493a25ad4a8b685cc29e120db051c"),
    Pin("fsm-s3", "fsm --sigma 3 --d 5 --w 7", 0,
        "44204e4b304177f87ef8b8f880714c1500bdf138775653cbc7b5f822d7bf7953"),
    Pin("fsm-s10", "fsm --sigma 10 --d 11", 0,
        "86cb519a443c84aca8e988340d2bbfc07497299228a7ead74c739967142b4cb6"),
    Pin("exit-1", "necklaces --sigma 1 --w 4", 1),
    Pin("exit-1-bad-command", "bogus", 1, stderr=(
        "error: argument cmd: invalid choice: 'bogus' (choose from 'necklaces', 'debruijn-seq', "
        "'mykkeltveit', 'forbidden', 'contexts', 'density', 'check-uhs', 'longest-path', "
        "'long-path', 'mds-count', 'fsm')")),
    Pin("exit-1-bad-sigma", "density --sigma 0 --w 2 --minimizer --k -1", 1),
    Pin("exit-1-unwritable-csv", "long-path --sigma 2 --w 20 --csv /nonexistent/x.csv", 1),
    Pin("exit-1-non-ascii-seq", "density --sigma 2 --w 2 --minimizer --k 1 --seq \u0661\u0660\u0661\u0661", 1,
        stderr="error: invalid symbol in '\u0661\u0660\u0661\u0661'"),
    Pin("exit-1-trailing-byte-set", "check-uhs --sigma 2 --w 1 --set b.bin", 1,
        inputs={"b.bin": "UHS1\x02\x01\x00\x00\x00\x03\x00"},
        stderr="error: bytes or bits past the mask in set file b.bin"),
    Pin("exit-1-underscore-header", "check-uhs --sigma 2 --w 10 --set h.txt", 1,
        inputs={"h.txt": "uhs sigma=2 w=1_0\n0000000000\n"}, stderr="error: bad set file header in h.txt"),
    Pin("exit-2", "mykkeltveit --sigma 2 --w 20 --budget 100", 2),
    Pin("exit-2-huge-w", "mykkeltveit --sigma 3 --w 100000000", 2),
    Pin("exit-2-huge-long-path", "long-path --sigma 2 --w 100000001", 2),
]
BY_NAME = {pin.name: pin for pin in PINS}


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def write_inputs(pin, where):
    for name, text in pin.inputs.items():
        (Path(where) / name).write_text(text)


def differences(pin, where, status, out, err):
    """What of `pin` a run in directory `where` did not reproduce."""
    wrong = [f"exit {status}"] if status != pin.status else []
    if out != (pin.stdout and pin.stdout + "\n") and sha256(out) != pin.stdout:
        wrong.append("stdout")
    for name, digest in pin.files.items():
        path = Path(where) / name
        if not path.is_file() or sha256(path.read_bytes()) != digest:
            wrong.append(name)
    if pin.stderr is not None and err != pin.stderr + "\n" or pin.status == 0 and err:
        wrong.append("stderr")
    return wrong


def run_command(command, pin, env=None):
    """What of `pin` a run of `command` (a list) in a fresh temp dir did not reproduce."""
    with tempfile.TemporaryDirectory() as where:
        write_inputs(pin, where)
        try:
            proc = subprocess.run(
                [*command, *pin.argv.split()], cwd=where, env=env, capture_output=True, text=True,
                timeout=10,
            )
        except subprocess.TimeoutExpired:
            return ["over 10 s"]
        return differences(pin, where, proc.returncode, proc.stdout, proc.stderr)


if __name__ == "__main__":
    failed = [(pin.name, wrong) for pin in PINS if (wrong := run_command(sys.argv[1:], pin))]
    for name, wrong in failed:
        print(f"{name}: {', '.join(wrong)} differ")
    print(f"{len(PINS) - len(failed)} of {len(PINS)} pins hold")
    sys.exit(1 if failed else 0)
