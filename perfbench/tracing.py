"""Span tracing of the multiorder layers, installed from outside the library.

`Tracer.install()` replaces each traced function with a wrapper in every
multiorder module that binds it by name (so `cli.refute`, `refuter.refute`
and the recursive calls inside `refuter` all go through one wrapper), and
on the classes that own the traced methods.  Each call records a span
(name, start, end, parent, op) and the counters its hook derives from the
result.  Self time is a span's duration minus the time covered by its
child spans; it is accumulated as spans close, so it stays exact even when
the in-memory span log is full.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

SPAN_LOG_LIMIT = 100_000

MODULES = (
    "field",
    "orders",
    "lattice",
    "matrix",
    "genericity",
    "refuter",
    "finite",
    "serialize",
    "cli",
)

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "field.sign.calls": "count",
    "field.sign.self_s": "s",
    "field.fs_det.calls": "count",
    "field.fs_det.self_s": "s",
    "orders.compare.calls": "count",
    "orders.compare.self_s": "s",
    "lattice.shell_blocks.blocks": "count",
    "lattice.shell_blocks.rows": "count",
    "lattice.shell_blocks.self_s": "s",
    "lattice.iter_box.points": "count",
    "matrix.build.self_s": "s",
    "matrix.verify.self_s": "s",
    "matrix.cross_row.self_s": "s",
    "genericity.find_witness.calls": "count",
    "genericity.find_witness.self_s": "s",
    "genericity.find_witness.probes": "count",
    "genericity.satisfies.calls": "count",
    "genericity.satisfies.self_s": "s",
    "genericity.exact_check_ratio": "ratio",
    "genericity.brute_fallbacks": "count",
    "genericity.witness_brute.self_s": "s",
    "genericity.witness_norm_max": "norm",
    "refuter.refute.self_s": "s",
    "refuter.refute.Dependent.self_s": "s",
    "refuter.refute.RationalKernel.self_s": "s",
    "refuter.refute.SmallVolume.self_s": "s",
    "refuter.refute.DiscreteBase.self_s": "s",
    "refuter.verify_certificate.self_s": "s",
    "refuter.scan_box.calls": "count",
    "refuter.scan_box.self_s": "s",
    "refuter.scan_share": "ratio",
    "finite.embed.self_s": "s",
    "finite.induced.self_s": "s",
    "finite.amalgamate.self_s": "s",
    "serialize.certificate_to_json.self_s": "s",
    "serialize.certificate_from_json.self_s": "s",
    "serialize.multiorder_from_json.self_s": "s",
    "cli.run.self_s": "s",
    "bench.ops": "count",
    "bench.remainder.self_s": "s",
    "bench.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

ROOT = "bench.remainder"


class _Frame:
    __slots__ = ("name", "start", "child", "index", "self_s")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.self_s = 0.0


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[_Frame] = []
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.dropped = 0
        self.op = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.outer_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> _Frame:
        self.calls[name] += 1
        self.depth[name] += 1
        index = len(self.spans) + self.dropped
        frame = _Frame(name, self.clock(), index)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        frame.self_s = duration - frame.child
        self.self_s[frame.name] += frame.self_s
        self.depth[frame.name] -= 1
        if not self.depth[frame.name]:
            self.outer_s[frame.name] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += duration
        if len(self.spans) < SPAN_LOG_LIMIT:
            self.spans.append(
                (frame.name, frame.start, end, parent.index if parent else -1, self.op)
            )
        else:
            self.dropped += 1

    def dump_spans(self, path: str) -> None:
        """Write the span log as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )

    # -- wrapping ------------------------------------------------------------

    def _call_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook is not None:
                hook(tracer, frame, result)
            return result

        return traced

    def _generator_wrapper(self, name, fn, hook):
        """One span per `next()`, so a generator's self time is the time
        spent producing its items, not the time its consumer holds it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                hook(tracer, frame, item)
                yield item

        return traced

    def _counting_wrapper(self, name, fn):
        """Counts yielded items without spans: `iter_box` yields one point
        per exact check, so a span per point would dominate its callers."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[name] += 1
                yield item

        return counted

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, modules, home, attr, wrapper) -> None:
        original = getattr(modules[home], attr)
        for module in modules.values():
            if module.__dict__.get(attr) is original:
                self._patch(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"multiorder.{m}") for m in MODULES}
        calls = [
            ("field", "fs_det", "field.fs_det", None),
            ("matrix", "build", "matrix.build", None),
            ("matrix", "verify", "matrix.verify", None),
            ("matrix", "cross_row", "matrix.cross_row", None),
            ("genericity", "find_witness", "genericity.find_witness", _witness_hook),
            ("genericity", "satisfies", "genericity.satisfies", None),
            ("genericity", "witness_brute", "genericity.witness_brute", None),
            ("refuter", "refute", "refuter.refute", _refute_hook),
            ("refuter", "verify_certificate", "refuter.verify_certificate", None),
            ("refuter", "scan_box", "refuter.scan_box", None),
            ("finite", "embed", "finite.embed", None),
            ("finite", "induced", "finite.induced", None),
            ("finite", "amalgamate", "finite.amalgamate", None),
            ("serialize", "certificate_to_json", "serialize.certificate_to_json", None),
            ("serialize", "certificate_from_json", "serialize.certificate_from_json", None),
            ("cli", "run", "cli.run", None),
        ]
        for home, attr, name, hook in calls:
            fn = getattr(mods[home], attr)
            self._patch_function(mods, home, attr, self._call_wrapper(name, fn, hook))
        blocks = mods["lattice"].shell_blocks
        self._patch_function(
            mods,
            "lattice",
            "shell_blocks",
            self._generator_wrapper("lattice.shell_blocks", blocks, _blocks_hook),
        )
        points = self._counting_wrapper("lattice.iter_box.points", mods["lattice"].iter_box)
        self._patch_function(mods, "lattice", "iter_box", points)
        scalar = mods["field"].FieldScalar
        self._patch(scalar, "sign", self._call_wrapper("field.sign", scalar.sign, None))
        order = mods["orders"].OrderSpec
        self._patch(
            order, "compare", self._call_wrapper("orders.compare", order.compare, None)
        )
        multi = mods["genericity"].MultiOrder
        self._patch(
            multi,
            "from_json",
            staticmethod(
                self._call_wrapper(
                    "serialize.multiorder_from_json", multi.from_json, None
                )
            ),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values; the bench.* and trace.* entries are filled in by
        the runner, which owns the root span and the untraced replay."""
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".self_s"):
                out[metric] = self.self_s.get(metric[: -len(".self_s")], 0.0)
            elif metric.endswith(".calls"):
                out[metric] = self.calls.get(metric[: -len(".calls")], 0)
            else:
                out[metric] = self.counts.get(metric, 0)
        probes = out["genericity.find_witness.probes"]
        out["genericity.exact_check_ratio"] = (
            self.calls["genericity.satisfies"] / probes if probes else 0.0
        )
        verify_s = self.outer_s.get("refuter.verify_certificate", 0.0)
        out["refuter.scan_share"] = (
            self.outer_s.get("refuter.scan_box", 0.0) / verify_s if verify_s else 0.0
        )
        return out


def _witness_hook(tracer: Tracer, frame: _Frame, result) -> None:
    tracer.counts["genericity.find_witness.probes"] += result.probes
    if result.backend == "brute":
        tracer.counts["genericity.brute_fallbacks"] += 1
    norm = max(abs(x) for x in result.point)
    counts = tracer.counts
    counts["genericity.witness_norm_max"] = max(counts["genericity.witness_norm_max"], norm)


def _refute_hook(tracer: Tracer, frame: _Frame, cert) -> None:
    tracer.self_s[f"refuter.refute.{cert.lemma_tag}"] += frame.self_s


def _blocks_hook(tracer: Tracer, frame: _Frame, block) -> None:
    # shell_blocks recurses into itself in high rank; count only the blocks
    # that reach the caller outside the lattice module.
    if not tracer.depth["lattice.shell_blocks"]:
        tracer.counts["lattice.shell_blocks.blocks"] += 1
        tracer.counts["lattice.shell_blocks.rows"] += len(block)
