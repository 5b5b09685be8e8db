"""Spans and counters recorded around calls into the qdelcode layers.

Tracing works from outside the program: :class:`Tracer` replaces each
traced public function with a wrapper in every qdelcode namespace that
binds it, which is where its callers look it up, and restores the
originals on :meth:`Tracer.uninstall`.  A wrapper records one span (name,
start, end, parent) and feeds the layer's counters from the call's
arguments and result.  Spans stay in memory until the caller drains them.

``bits.delete_at`` runs millions of times per ``check``, so it gets a bare
call counter and no span; its time is part of its callers' self time.
"""

from __future__ import annotations

import importlib
import itertools
from collections import Counter
from time import perf_counter

MODULES = ("bits", "codes", "family", "delsets", "partition", "quantum", "cli")

Span = tuple[str, float, float, int]  # name, start, end, index of the parent span or -1


def _count_code_words(t, args, result):
    t.counts["codes.words"] += len(args[0].words)


def _count_highrate_words(t, args, result):
    t.counts["codes.words"] += len(result.words)


def _count_family_words(t, args, result):
    t.counts["codes.words"] += len(result.words())


def _count_decomposition(t, args, result):
    t.counts["delsets.cell_decomposition_calls"] += 1
    t.counts["delsets.labels"] += len(result.cells)
    t.counts["delsets.deleted_words"] += sum(len(c) for c in result.cells.values())


def _count_encoded(t, args, result):
    t.max_support = max(t.max_support, len(result.amplitudes))


def _count_decoded(t, args, result):
    code, _, branch = args
    t.counts["quantum.branches"] += 1
    t.counts["quantum.decode_nonzero"] += sum(len(s.amplitudes) for _, s in result.members)
    t.counts["quantum.decode_slots"] += code.dimension * len(branch.members)


def _count_tsv(t, args, result):
    t.counts["cli.tsv_bytes"] += len(result.encode())


# (module, attribute, span name, counter).  A dotted attribute names a
# method, which is patched on its class instead of in module namespaces.
TRACED = (
    ("codes", "highrate_code", "codes.highrate_code", _count_highrate_words),
    ("codes", "build_highrate_partition", "codes.build_highrate_partition", _count_family_words),
    ("codes", "is_single_deletion_code", "codes.is_single_deletion_code", _count_code_words),
    ("family", "FamilySet.__init__", "family.FamilySet", None),
    ("cli", "main", "cli.main", None),
    ("cli", "read_family_file", "cli.read_family_file", None),
    ("cli", "write_family_file", "cli.write_family_file", None),
    ("delsets", "cell_decomposition", "delsets.cell_decomposition", _count_decomposition),
    ("partition", "is_brs_stable", "partition.is_brs_stable", None),
    ("partition", "is_homogeneous", "partition.is_homogeneous", None),
    ("partition", "check_c1", "partition.check_c1", None),
    ("partition", "check_c2", "partition.check_c2", None),
    ("partition", "check_c3", "partition.check_c3", None),
    ("partition", "condition_report", "partition.condition_report", None),
    ("quantum", "CodeInstance.__init__", "quantum.CodeInstance", None),
    ("quantum", "encode", "quantum.encode", _count_encoded),
    ("quantum", "delete_qubit", "quantum.delete_qubit", None),
    # roundtrip_verify measures through the private helper, so it is the
    # measure layer too; nested same-name spans add up in self time.
    ("quantum", "measure", "quantum.measure", None),
    ("quantum", "_measure_all", "quantum.measure", None),
    ("quantum", "decode_branch", "quantum.decode_branch", _count_decoded),
    ("quantum", "fidelity", "quantum.fidelity", None),
    ("quantum", "roundtrip_verify", "quantum.roundtrip_verify", None),
    ("quantum", "RoundtripReport.to_tsv", "cli.to_tsv", _count_tsv),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TRACED))


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.max_support = 0
        self._stack: list[int] = []
        self._delete_at_calls = itertools.count()
        self._delete_at_base = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def _counted(self, fn):
        tick = self._delete_at_calls.__next__

        def counted(x, i):
            tick()
            return fn(x, i)

        return counted

    def install(self) -> None:
        modules = [importlib.import_module("qdelcode")]
        modules += [importlib.import_module(f"qdelcode.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        replacements = []
        for mod, attr, name, counter in TRACED:
            owner = by_name[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), name, counter))
            else:
                fn = getattr(owner, attr)
                replacements.append((fn, self._wrap(fn, name, counter)))
        delete_at = by_name["bits"].delete_at
        replacements.append((delete_at, self._counted(delete_at)))
        for fn, wrapper in replacements:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def drain(self) -> tuple[list[Span], Counter[str], int]:
        """Return and clear the spans, the counts (with ``bits.delete_at_calls``)
        and the largest support seen since the last drain."""
        if self._stack:
            raise RuntimeError("drain() inside an open span")
        spans = list(self.spans)
        counts = self.counts.copy()
        ticks = next(self._delete_at_calls)
        counts["bits.delete_at_calls"] = ticks - self._delete_at_base
        self._delete_at_base = ticks + 1
        support = self.max_support
        self.spans.clear()
        self.counts.clear()
        self.max_support = 0
        return spans, counts, support

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> tuple[Counter[str], float]:
    """Self time per span name, and the total time of the root spans."""
    child_time = [0.0] * len(spans)
    roots = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            roots += end - start
    out: Counter[str] = Counter()
    for (name, start, end, _), inner in zip(spans, child_time):
        out[name] += end - start - inner
    return out, roots
