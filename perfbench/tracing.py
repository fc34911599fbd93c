"""Span recorder for the traced benchmark run.

The tracer wraps public functions of the ``signedwiener`` layers from
the outside.  The package modules bind their imports by name
(``from .distances import canceling_reach_row``), so a wrapper is
installed on every package module whose namespace holds the original
function object: that is the attribute each caller actually resolves,
including a module's own global where a function calls another in the
same module (``wiener_signed`` -> ``signed_distance_row``).  No source
file of the package changes, and ``uninstall`` restores every binding.

A span is (name, start, end, parent span, job id, flag).  Spans stay in
compact arrays in memory for the whole traced phase and are aggregated
when the run ends.  A call whose innermost open span already has the
same name is not recorded again, so recursion (``connected_graphs``)
and same-layer delegation (``canceling_reach_row`` with r=2 calling
``zero_reach_row``) count once, at the outermost call.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

SIGNED_ROW = "distances.signed_row"
COLORED_ROW = "distances.colored_row"
WIENER = "distances.wiener"
WITNESS = "distances.witness"
DELETE = "graphs.delete_vertices"
VERDICT = "canceling.verdict"
SEARCH = "search.search"
CONNECTED = "search.connected_graphs"
PARSE = "witnesses.parse"
CERTIFY = "witnesses.certify"
RENDER = "reports.render"

SPAN_NAMES = (SIGNED_ROW, COLORED_ROW, WIENER, WITNESS, DELETE, VERDICT,
              SEARCH, CONNECTED, PARSE, CERTIFY, RENDER)


def _reach_row_name(args, kwargs):
    coloring = args[1] if len(args) > 1 else kwargs["coloring"]
    return SIGNED_ROW if coloring.r == 2 else COLORED_ROW


def _holds(result) -> int:
    return int(bool(result.holds))


def _found(result) -> int:
    # SearchResult.found, or every ThresholdRow of a scan holds
    if isinstance(result, list):
        return int(all(row.holds for row in result))
    return int(bool(result.found))


def text_length(result) -> int:
    return len(result)


# (function name, span name or callable choosing it, flag extractor);
# the name is looked up in every package module that binds it
TARGETS = (
    ("signed_distance_row", SIGNED_ROW, None),
    ("zero_reach_row", SIGNED_ROW, None),
    ("canceling_reach_row", _reach_row_name, None),
    ("wiener_signed", WIENER, None),
    ("signed_distance_with_witness", WITNESS, None),
    ("canceling_path_witness", WITNESS, None),
    ("delete_vertices", DELETE, None),
    ("is_k_canceling_signing", VERDICT, _holds),
    ("is_rk_canceling_coloring", VERDICT, _holds),
    ("find_k_canceling_signing", SEARCH, _found),
    ("threshold_scan", SEARCH, _found),
    ("connected_graphs", CONNECTED, None),
    ("parse_witness", PARSE, None),
    ("certify", CERTIFY, None),
)

# delete_vertices is timed only as called from canceling
ONLY_IN = {"delete_vertices": ("signedwiener.canceling",)}


class Tracer:
    """Records spans around wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.flag = array("q")
        self.stack: list[int] = []
        self.current_job = -1
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, fn, name, flag_of=None):
        """A wrapper of fn recording one span per outermost call."""
        fixed = None if callable(name) else self.name_ids[name]
        pick = name if callable(name) else None
        ids = self.name_ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if pick is None else ids[pick(args, kwargs)]
            stack = self.stack
            if stack and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.current_job)
            self.flag.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if flag_of is not None:
                self.flag[idx] = flag_of(result)
            return result

        return traced

    def install(self, modules, extra=()) -> None:
        """Wrap every TARGETS function wherever a module binds it, plus
        (module, attribute, span name, flag extractor) entries."""
        for fname, span, flag_of in TARGETS:
            allowed = ONLY_IN.get(fname)
            holders = [m for m in modules if hasattr(m, fname)
                       and (allowed is None or m.__name__ in allowed)]
            originals = {id(getattr(m, fname)): getattr(m, fname)
                         for m in holders}
            wrapped = {key: self.wrap(fn, span, flag_of)
                       for key, fn in originals.items()}
            for m in holders:
                original = getattr(m, fname)
                self._saved.append((m, fname, original))
                setattr(m, fname, wrapped[id(original)])
        for module, attr, span, flag_of in extra:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span, flag_of))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def aggregate(self, passes: int, jobs_per_pass: int) -> list[dict]:
        """Per-pass totals for each span name: calls, total seconds,
        self seconds, flag sum, and calls made directly by a verdict.

        Job ids run on across passes, so pass = job id // jobs_per_pass.
        """
        count = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        parent = self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = [{name: {"calls": 0, "s": 0.0, "self_s": 0.0, "flag": 0,
                       "under_verdict": 0}
                for name in SPAN_NAMES} for _ in range(passes)]
        verdict = self.name_ids[VERDICT]
        for i in range(count):
            rec = out[self.job[i] // jobs_per_pass][SPAN_NAMES[self.name[i]]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            rec["flag"] += self.flag[i]
            p = parent[i]
            if p >= 0 and self.name[p] == verdict:
                rec["under_verdict"] += 1
        return out

