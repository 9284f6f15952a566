"""Attribute a cProfile capture to the simulator's layers.

Layers are named after the modules under ``src/repro`` (:data:`MODULE_LAYER`).
A function in a module the table names belongs to that layer.  Every other
function -- C builtins (``heapq``, ``Counter`` updates), the standard
library, ``config`` helpers, ``core.node`` bookkeeping -- has no layer of
its own: its self time is charged to the layers of its callers, split by
the cumulative time each caller edge carries, following caller edges
upward until a named layer is reached.  Time whose caller chain reaches no
named layer stays in ``other`` (machine assembly and the benchmark's own
loop), and its share is reported.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

LAYERS = (
    "program",
    "engine.replay",
    "protocols",
    "cache",
    "directory",
    "network",
    "engine.events",
    "stats",
    "mem",
)
OTHER = "other"

#: Module under ``repro`` (a package or a single module) -> layer.  The
#: longest matching prefix wins.
MODULE_LAYER = {
    "program": "program",
    "apps": "program",
    "engine.replay": "engine.replay",
    "core.processor": "engine.replay",
    "protocols": "protocols",
    "cache": "cache",
    "directory": "directory",
    "network": "network",
    "engine.resource": "network",
    "engine.events": "engine.events",
    "engine.simulator": "engine.events",
    "stats": "stats",
    "mem": "mem",
}


def module_layer(module: str) -> Optional[str]:
    """Layer of a dotted module name relative to ``repro``, or ``None``."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        layer = MODULE_LAYER.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return None


class Attribution:
    """Per-layer self time and cross-layer call counts of one capture.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``{func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}``, where
    ``func`` is ``(filename, line, name)``.
    """

    def __init__(self, stats: dict, package_dir: Path) -> None:
        self.stats = stats
        root = str(package_dir.resolve()) + "/"
        self._layer: Dict[tuple, Optional[str]] = {}
        for func in stats:
            filename = func[0]
            layer = None
            if filename.startswith(root) and filename.endswith(".py"):
                module = filename[len(root):-3].replace("/", ".")
                layer = module_layer(module.removesuffix(".__init__"))
            self._layer[func] = layer
        self._dist: Dict[tuple, Dict[str, float]] = {}

    def _distribution(self, func: tuple, seen: frozenset) -> Dict[str, float]:
        """How ``func``'s time splits over layers (fractions summing to 1)."""
        layer = self._layer.get(func)
        if layer is not None:
            return {layer: 1.0}
        cached = self._dist.get(func)
        if cached is not None:
            return cached
        callers = self.stats[func][4] if func in self.stats else {}
        if not callers or func in seen:
            return {OTHER: 1.0}
        # Weight each caller edge by the cumulative time it carries, or by
        # its call count where the clock resolution rounds that to zero.
        total = sum(edge[3] for edge in callers.values())
        index = 3 if total > 0 else 0
        if index == 0:
            total = sum(edge[0] for edge in callers.values())
        dist: Dict[str, float] = {}
        inner = seen | {func}
        for caller, edge in callers.items():
            weight = edge[index] / total
            for layer, frac in self._distribution(caller, inner).items():
                dist[layer] = dist.get(layer, 0.0) + weight * frac
        if not seen:
            # A nested resolution depends on the path that reached it
            # (``seen`` cuts cycles), so only top-level ones are memoised.
            self._dist[func] = dist
        return dist

    def caller_layer(self, func: tuple) -> str:
        dist = self._distribution(func, frozenset())
        return max(dist, key=dist.get)

    def self_time(self) -> Tuple[Dict[str, float], float]:
        """``({layer: self seconds}, total profiled seconds)``;
        the layers include :data:`OTHER`."""
        out = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        total = 0.0
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            total += tt
            for layer, frac in self._distribution(func, frozenset()).items():
                out[layer] += tt * frac
        return out, total

    def calls_in(self) -> Dict[str, int]:
        """Calls into each layer's functions from any other layer."""
        out = dict.fromkeys(LAYERS, 0)
        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            layer = self._layer[func]
            if layer is None:
                continue
            for caller, edge in callers.items():
                if self.caller_layer(caller) != layer:
                    out[layer] += edge[0]
        return out
