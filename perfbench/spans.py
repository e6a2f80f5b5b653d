"""In-memory spans around the calls one lapdeconv module makes into another.

The benchmark does not edit the package: it replaces each crossing point
(an attribute the calling module holds, such as ``deconv._lepski_batch``)
with a wrapper that records a span, and restores the original afterwards.
A span is (layer, start, end, parent, attrs); the self time of a span is
its duration minus the durations of its direct children. Spans stay in
memory and are summarised when the run ends.

A crossing point that no longer exists is recorded in ``Tracer.missing``
instead of failing the run; every per-layer metric that reads it is then
reported as unmeasured.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# target (module-relative attribute path) -> layer it enters
CROSSINGS = {
    "smoother.make_kernel": "kernels",
    "smoother.make_boundary_kernel": "kernels",
    "deconv._lepski_batch": "smoother.select",
    "deconv.DesignWeights.weight_matrix": "smoother.eval",
    "deconv.decompose": "resolvent",
    "sim.forward_convolve": "sim.forward",
    "sim.standard_normals": "special.noise",
    "sim.reg_lower_gamma": "special.gamma",
    "sim._estimate_all": "deconv",
    "cli.deconvolve": "deconv",
}

UNMEASURED = -1.0


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)


def _resolve(target: str):
    """(owner object, attribute name) for 'module.attr[.attr]' in lapdeconv."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"lapdeconv.{module_name}")
    for name in path[:-1]:
        owner = getattr(owner, name)
    getattr(owner, path[-1])  # raises AttributeError when the name is gone
    return owner, path[-1]


def _select_attrs(args, result) -> dict:
    # _lepski_batch(times, T, V, sigma, j, L, cfg) -> (lam, selected, details)
    details = result[2]
    return {
        "j": int(args[4]),
        "levels": int(len(details["levels"])),
        "admissible": int(len(details["admissible"])),
        "comparison_points": int(details["comparison_grid_size"]),
    }


def _weight_attrs(args, result) -> dict:
    return {"nbytes": int(result.nbytes)}


ATTRS = {
    "deconv._lepski_batch": _select_attrs,
    "deconv.DesignWeights.weight_matrix": _weight_attrs,
}


class Tracer:
    """Records nested spans while installed; single-threaded use only."""

    def __init__(self, crossings: dict | None = None):
        self.crossings = dict(CROSSINGS if crossings is None else crossings)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.broken: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of the given layer (the benchmark's own roots)."""
        idx = self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _attrs(self, target: str, args, result) -> dict | None:
        attrs_of = ATTRS.get(target)
        if attrs_of is None or result is None:
            return None
        try:
            return attrs_of(args, result)
        except (TypeError, KeyError, IndexError, AttributeError):
            # the crossing still exists but no longer returns what the
            # counters read: its metrics become unmeasured, the run goes on
            if target not in self.broken:
                self.broken.append(target)
            return None

    def _wrap(self, target: str, layer: str, original):
        def traced(*args, **kwargs):
            idx = self.open(layer)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.close(idx, self._attrs(target, args, result))

        traced.__wrapped__ = original
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for target, layer in self.crossings.items():
            try:
                owner, name = _resolve(target)
            except (ImportError, AttributeError):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(target, layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def export(self) -> list[list]:
        """Spans as JSON-ready rows: layer, start, end, parent, attrs."""
        return [[s.layer, s.start, s.end, s.parent, s.attrs] for s in self.spans]

    def extend(self, rows: list[list]) -> None:
        """Append spans exported by another process (a traced CLI child)."""
        base = len(self.spans)
        for layer, start, end, parent, attrs in rows:
            self.spans.append(
                Span(layer, start, end, parent + base if parent >= 0 else -1, attrs)
            )


# per-layer metric -> crossing points whose spans it reads (its own and the
# children subtracted from it); a missing one makes the metric unmeasured
NEEDS = {
    "kernels.busy_s": ("smoother.make_kernel", "smoother.make_boundary_kernel"),
    "kernels.calls": ("smoother.make_kernel", "smoother.make_boundary_kernel"),
    "kernels.setup_busy_s": ("smoother.make_kernel", "smoother.make_boundary_kernel"),
    "smoother.select_s": ("deconv._lepski_batch", "smoother.make_kernel"),
    "smoother.select_max_order_s": ("deconv._lepski_batch", "smoother.make_kernel"),
    "smoother.levels_probed": ("deconv._lepski_batch",),
    "smoother.levels_admissible": ("deconv._lepski_batch",),
    "smoother.comparison_points": ("deconv._lepski_batch",),
    "smoother.eval_s": ("deconv.DesignWeights.weight_matrix", "smoother.make_kernel",
                        "smoother.make_boundary_kernel"),
    "smoother.weight_matrix_mb": ("deconv.DesignWeights.weight_matrix",),
    "resolvent.decompose_s": ("deconv.decompose",),
    "deconv.self_s": ("deconv._lepski_batch", "deconv.DesignWeights.weight_matrix",
                      "deconv.decompose"),
    "sim.forward_s": ("sim.forward_convolve", "sim.reg_lower_gamma"),
    "sim.self_s": ("sim.forward_convolve", "sim.standard_normals",
                   "sim.reg_lower_gamma", "sim._estimate_all"),
    "special.noise_s": ("sim.standard_normals",),
    "special.gamma_s": ("sim.reg_lower_gamma",),
    "cli.self_s": ("cli.deconvolve",),
}


def layer_totals(tracer: Tracer, start: int = 0, end: int | None = None) -> dict:
    """Self seconds per layer and the span counters, over spans[start:end]."""
    selfs = tracer.self_times()
    spans = tracer.spans
    sec: dict[str, float] = {}
    count: dict[str, int] = {}
    selects: list[dict] = []
    estimates: dict[int, list[int]] = {}  # parent span -> its selection spans
    weight_bytes: dict[int, int] = {}  # deconv span -> weight matrices it built
    for i in range(start, len(spans) if end is None else end):
        s = spans[i]
        sec[s.layer] = sec.get(s.layer, 0.0) + selfs[i]
        count[s.layer] = count.get(s.layer, 0) + 1
        if s.layer == "smoother.select" and s.attrs:
            selects.append(s.attrs)
            estimates.setdefault(s.parent, []).append(i)
        elif s.layer == "smoother.eval":
            root = i
            while spans[root].parent >= 0 and spans[root].layer != "deconv":
                root = spans[root].parent
            weight_bytes[root] = weight_bytes.get(root, 0) + s.attrs.get("nbytes", 0)
    # selection of the highest derivative order of each estimate
    max_order_s = 0.0
    for members in estimates.values():
        top = max(spans[i].attrs["j"] for i in members)
        max_order_s += sum(selfs[i] for i in members if spans[i].attrs["j"] == top)
    return {
        "sec": sec,
        "count": count,
        "select_max_order_s": max_order_s,
        "levels": sum(a["levels"] for a in selects),
        "admissible": sum(a["admissible"] for a in selects),
        "comparison_points": sum(a["comparison_points"] for a in selects),
        "weight_matrix_mb": max(weight_bytes.values(), default=0) / 1e6,
    }


def kernel_misses() -> int | None:
    """Kernels built so far in this process (misses of the exact-kernel cache)."""
    from lapdeconv import kernels
    info = getattr(getattr(kernels, "_build_kernel", None), "cache_info", None)
    return None if info is None else info().misses


def mark_unmeasured(metrics: dict, gone, root: str | None = None) -> list[str]:
    """Overwrite every metric that reads a missing crossing; returns their names.

    root is the crossing that opens the deconv span on this workload, when
    the package rather than the benchmark opens it.
    """
    gone = set(gone)
    needs = dict(NEEDS)
    if root is not None:
        needs["deconv.self_s"] = needs["deconv.self_s"] + (root,)
    hit = sorted(name for name, need in needs.items()
                 if name in metrics and gone.intersection(need))
    for name in hit:
        metrics[name] = UNMEASURED
    return hit
