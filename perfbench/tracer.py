"""Traced in-process run of one ``uhspath`` invocation, and the per-layer table.

Run as a child process::

    python tracer.py SRC_DIR SPANS_FILE {time|memory} -- ARGV...

It imports the package from SRC_DIR inside a root span ``import.uhspath``
(numpy is imported lazily here, so that its import falls in that span),
wraps every public function of the traced modules (and the file methods of
``KmerSet``) wherever a module binds it, runs ``uhspath.cli.run(ARGV)`` and
writes the spans it kept in memory to SPANS_FILE (``.npz``).  A span is
(name, parent span, start, duration, peak traced bytes); a generator
returned by a wrapped function gets one span that accumulates the time
spent inside its ``next`` calls.  In ``memory`` mode
``tracemalloc`` runs inside the spans named in ``MEMORY_SPANS`` and records
their peaks; it slows Python allocation, so times come from ``time`` mode.

``layer_table`` turns the span files of one pass into per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
import types
from collections import defaultdict

MODULES = (
    "cli", "core", "kmerset", "paths", "schemes", "contexts",
    "forbidden", "mykkeltveit", "exactsign", "mds",
)
MEMORY_SPANS = frozenset({
    "mykkeltveit.build_mykkeltveit_set",
    "forbidden.build_forbidden_set",
    "paths.longest_remaining_path",
    "schemes.estimate_density",
    "contexts.build_context_set_local",
})
KMERSET_METHODS = ("save_binary", "load_binary", "save_text", "load_text")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_file(c, args, kwargs, _res):
    c["kmerset.bytes"] += os.path.getsize(_arg(args, kwargs, 1 if len(args) > 1 else 0, "path"))


def _count_zero_test(c, _args, _kwargs, res):
    c["exactsign.zero_test.count"] += 1
    c["exactsign.zero.count"] += bool(res)


def _count_bulk_codes(c, args, kwargs, _res):
    c["mykkeltveit.bulk_codes"] += _arg(args, kwargs, 0, "sigma") ** _arg(args, kwargs, 1, "w")


def _count_survivors(c, args, kwargs, _res):
    kset = _arg(args, kwargs, 0, "kset")
    c["paths.survivors"] += kset.n - kset.cardinality


def _count_windows(c, _args, _kwargs, res):
    c["schemes.windows"] += res.windows


def _count_census(c, _args, _kwargs, res):
    c["mds.nodes_explored"] += res.nodes_explored
    c["mds.prunes"] += res.prunes


#: counters taken from a wrapped call's arguments and result
PROBES = {
    "kmerset.save_binary": _count_file,
    "kmerset.save_text": _count_file,
    "kmerset.load_binary": _count_file,
    "kmerset.load_text": _count_file,
    "exactsign.im_is_zero": _count_zero_test,
    "exactsign.re_is_zero": _count_zero_test,
    "mykkeltveit.build_mykkeltveit_set": _count_bulk_codes,
    "paths.longest_remaining_path": _count_survivors,
    "schemes.particular_density": _count_windows,
    "schemes.estimate_density": _count_windows,
    "mds.enumerate_mds": _count_census,
}


class Tracer:
    """Span store plus the wrappers that fill it; one per traced process."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = []  # per span: name id
        self.parent = []  # per span: parent span index, -1 at the root
        self.start = []
        self.dur = []
        self.peak = []  # per span: peak traced bytes above entry, -1 if not measured
        self.stack: list[int] = []
        self.mem: list[list[int]] = []  # per open memory span: [base bytes, peak seen]
        self.counters: dict[str, int] = defaultdict(int)
        self.install_s = 0.0  # time spent wrapping, the tracer's own

    # -- span bookkeeping -------------------------------------------------------

    def _name_id(self, qualname: str) -> int:
        nid = self.name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.dur.append(0.0)
        self.peak.append(-1)
        self.stack.append(idx)
        return idx

    def _mem_enter(self) -> bool:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        elif self.mem:
            outer = self.mem[-1]
            outer[1] = max(outer[1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        self.mem.append([base, base])
        return started

    def _mem_exit(self, idx: int, started: bool) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        base, seen = self.mem.pop()
        self.peak[idx] = max(seen, peak) - base
        if self.mem:
            self.mem[-1][1] = max(self.mem[-1][1], peak)
        if started:
            tracemalloc.stop()

    def wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        probe = PROBES.get(qualname)
        measure_memory = self.memory and qualname in MEMORY_SPANS
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            started = tracer._mem_enter() if measure_memory else False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.start[idx] = t0
                tracer.dur[idx] = t1 - t0
                tracer.stack.pop()
                if measure_memory:
                    tracer._mem_exit(idx, started)
            if probe is not None:
                probe(tracer.counters, args, kwargs, result)
            if isinstance(result, types.GeneratorType):
                return tracer._timed_generator(nid, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _timed_generator(self, nid: int, gen):
        idx = None
        while True:
            if idx is None:
                idx = self._open(nid)
                self.start[idx] = time.perf_counter()
            else:
                self.stack.append(idx)
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.dur[idx] += time.perf_counter() - t0
                self.stack.pop()
            yield item

    # -- installation ------------------------------------------------------------

    def install(self, package: str = "uhspath") -> None:
        """Import the package in a root span; wrap and rebind its public functions."""
        idx = self._open(self._name_id(f"import.{package}"))
        t0 = time.perf_counter()
        try:
            every = [importlib.import_module(package)]
            mods = {}
            for name in MODULES:
                try:
                    mods[name] = importlib.import_module(f"{package}.{name}")
                except ModuleNotFoundError:  # a module folded into another reports nothing
                    pass
        finally:
            t1 = time.perf_counter()
            self.start[idx] = t0
            self.dur[idx] = t1 - t0
            self.stack.pop()
        every += mods.values()
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        kmerset = mods["kmerset"].KmerSet
        for attr in KMERSET_METHODS:
            raw = kmerset.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(kmerset, attr, classmethod(self.wrap(f"kmerset.{attr}", raw.__func__)))
            else:
                setattr(kmerset, attr, self.wrap(f"kmerset.{attr}", raw))
        self.install_s = time.perf_counter() - t1

    def save(self, path: str, end: float, rc: int) -> None:
        import numpy as np

        meta = {"names": self.names, "counters": dict(self.counters), "end": end,
                "install_s": self.install_s, "rc": rc}
        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            dur=np.array(self.dur, dtype=np.float64),
            peak=np.array(self.peak, dtype=np.int64),
        )


# -- per-layer table ---------------------------------------------------------------


def load_spans(path) -> dict:
    import numpy as np

    with np.load(path) as z:
        out = {key: z[key] for key in ("name", "parent", "start", "dur", "peak")}
        out.update(json.loads(str(z["meta"])))
    return out


def reaches_memory_span(path) -> bool:
    s = load_spans(path)
    return any(s["names"][nid] in MEMORY_SPANS for nid in set(s["name"].tolist()))


def layer_table(timed, memory_files) -> dict[str, float]:
    """Sum the spans of one traced pass into per-function and per-module figures.

    ``timed`` pairs each ``time`` span file with the ``time.perf_counter()``
    reading at which the parent spawned that child; on Linux both processes
    read the same CLOCK_MONOTONIC.  Returns ``<module>.<function>.{calls,self_s}``
    (``import.uhspath`` among them), ``<module>.self_s`` and the counters from
    the ``time`` span files,
    ``<module>.<function>.peak_mb`` from the ``memory`` ones, and
    ``trace.unattributed_s``: the time from spawn to the end of
    ``cli.run`` that no root span covers, less the tracer's own wrapping
    time.  It holds interpreter start and any work outside the package's
    import and ``cli.run``.  Self time is a span's duration minus its
    children's.
    """
    import numpy as np

    calls = defaultdict(int)
    self_s = defaultdict(float)
    peak = defaultdict(float)
    counters = defaultdict(int)
    unattributed = 0.0
    for path, spawned in timed:
        s = load_spans(path)
        names, parent, dur = s["names"], s["parent"], s["dur"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        own = dur - child
        unattributed += s["end"] - spawned - s["install_s"] - float(dur[parent < 0].sum())
        for nid, name in enumerate(names):
            sel = s["name"] == nid
            if sel.any():
                calls[name] += int(sel.sum())
                self_s[name] += float(own[sel].sum())
        # bulk-built signs were decided in floats unless the build asked exactsign
        if "mykkeltveit.build_mykkeltveit_set" in names and "exactsign.im_sign" in names:
            build = names.index("mykkeltveit.build_mykkeltveit_set")
            im_sign = names.index("exactsign.im_sign")
            for idx in np.flatnonzero(s["name"] == im_sign):
                p = parent[idx]
                while p >= 0 and s["name"][p] != build:
                    p = parent[p]
                if p >= 0:
                    counters["mykkeltveit.bulk_codes"] -= 1
        for key, value in s["counters"].items():
            counters[key] += value
    for path in memory_files:
        s = load_spans(path)
        for idx in np.flatnonzero(s["peak"] >= 0):
            name = s["names"][s["name"][idx]]
            peak[name] = max(peak[name], float(s["peak"][idx]) / 2**20)

    table: dict[str, float] = {}
    for name in calls:
        table[f"{name}.calls"] = calls[name]
        table[f"{name}.self_s"] = self_s[name]
        if name in peak:
            table[f"{name}.peak_mb"] = peak[name]
    for mod in MODULES:
        table[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
    decided = calls["exactsign.im_sign"] + calls["exactsign.re_sign"]
    zero_tests = counters["exactsign.zero_test.count"]
    table["exactsign.float.count"] = decided - zero_tests + counters.pop("mykkeltveit.bulk_codes", 0)
    table["exactsign.mp.count"] = zero_tests - counters["exactsign.zero.count"]
    table.update(counters)
    table["trace.unattributed_s"] = unattributed
    return table


def main(argv: list[str]) -> int:
    src, spans_file, mode, sep, *cli_argv = argv
    if sep != "--" or mode not in ("time", "memory"):
        raise SystemExit("usage: tracer.py SRC_DIR SPANS_FILE {time|memory} -- ARGV...")
    sys.path.insert(0, src)
    tracer = Tracer(memory=mode == "memory")
    tracer.install()
    from uhspath import cli

    rc = cli.run(cli_argv)
    sys.stdout.flush()
    tracer.save(spans_file, time.perf_counter(), rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
