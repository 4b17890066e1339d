"""Spans around calls into the public functions of each onefacemaps layer.

``Tracer.install`` rebinds every public function of the library modules,
wherever the package refers to it, to a wrapper that records a span
(name, parent, start, end).  Calls the layers make into each other are
therefore seen too, e.g. the ``topology.genus`` calls inside
``samplers.sample_genus_filtered``.  Spans stay in memory; a layer's self
time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from array import array

LAYERS = ("mapcore", "counting", "samplers", "topology", "spectra", "stats")
NAMED_FUNCTIONS = (
    "topology.genus",
    "topology.is_noncrossing",
    "topology.is_bipartite",
    "topology.degree_distribution",
    "mapcore.build_adjacency",
    "mapcore.write_records",
    "mapcore.read_records",
)
DRAW_FUNCTIONS = ("samplers.sample_uniform_gluing", "samplers.sample_ncpp")
# CLI command spans: one per subcommand, and two for the commands at n=300
CLI_COMMANDS = (
    "generate", "enumerate", "count", "table", "spectrum", "density",
    "spacings", "meanjth", "genus", "degrees", "walks",
    "table_n300", "generate_filtered",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = ["spectra.calls", "spectra.self_s", "spectra.ms_per_call_p50"]
    names += ["samplers.calls", "samplers.self_s", "samplers.draws", "samplers.us_per_draw",
              "samplers.filter_draws", "samplers.kept", "samplers.accept_ratio"]
    for layer in ("topology", "mapcore", "counting", "stats"):
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += [f"{fn}.self_s" for fn in NAMED_FUNCTIONS]
    names += ["cli.import_s", "cli.calls", "cli.self_s"]
    names += [f"cli.{cmd}.wall_ms" for cmd in CLI_COMMANDS]
    names += ["trace.overhead_s"]
    return names


class Tracer:
    """In-memory span recorder.

    Span i is (names[i], parents[i], starts[i], ends[i]); parents[i] is
    the index of the enclosing span or -1.  Flat arrays keep the recorder
    out of the garbage collector's way during allocation-heavy layers.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.filtered_kept = 0

    def _wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter
        count_kept = name == "samplers.sample_genus_filtered"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_kept:
                self.filtered_kept += len(result.gluings)
            return result

        return traced

    def install(self) -> None:
        """Route every public library function through a span wrapper."""
        package = importlib.import_module("onefacemaps")
        modules = {layer: importlib.import_module(f"onefacemaps.{layer}") for layer in LAYERS}
        namespaces = [package, importlib.import_module("onefacemaps.cli"), *modules.values()]
        for layer, module in modules.items():
            for fname, fn in list(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._originals.append((ns, key, fn))
                            setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._originals):
            setattr(ns, key, fn)
        self._originals.clear()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span measured by the benchmark itself; returns its index."""
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.names) - 1

    def merge(self, child_spans: list[list], parent: int) -> None:
        """Attach spans recorded in another process below ``parent``."""
        base = len(self.names)
        for name, par, start, end in child_spans:
            self.add(name, start, end, parent if par < 0 else base + par)

    @property
    def spans(self) -> list[list]:
        return [list(s) for s in zip(self.names, self.parents, self.starts, self.ends)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], filtered_kept: int, import_s: float, overhead_s: float) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics of ``per_layer_names``."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, _, _, _), t in zip(spans, own):
        for key in (name.split(".")[0], name):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + t

    m: dict[str, float] = {}
    for layer in LAYERS + ("cli",):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for fn in NAMED_FUNCTIONS:
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)

    spectra_ms = [1e3 * (end - start) for name, _, start, end in spans if name.startswith("spectra.")]
    m["spectra.ms_per_call_p50"] = statistics.median(spectra_ms) if spectra_ms else 0.0

    draws = sum(calls.get(fn, 0) for fn in DRAW_FUNCTIONS)
    in_filter = 0
    sampler_time = 0.0
    for name, parent, start, end in spans:
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name in DRAW_FUNCTIONS and parent_name == "samplers.sample_genus_filtered":
            in_filter += 1
        if name.startswith("samplers.") and not parent_name.startswith("samplers."):
            sampler_time += end - start
    m["samplers.draws"] = draws
    m["samplers.us_per_draw"] = 1e6 * sampler_time / draws if draws else 0.0
    m["samplers.filter_draws"] = in_filter
    m["samplers.kept"] = filtered_kept
    m["samplers.accept_ratio"] = filtered_kept / in_filter if in_filter else 0.0

    m["cli.import_s"] = import_s
    for cmd in CLI_COMMANDS:
        walls = [1e3 * (end - start) for name, _, start, end in spans if name == f"cli.{cmd}"]
        m[f"cli.{cmd}.wall_ms"] = statistics.median(walls) if walls else 0.0
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name in per_layer_names()}
