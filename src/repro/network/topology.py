"""2-D mesh topology with dimension-order routing.

Only hop *counts* matter for timing (the paper models contention at the
endpoints of a message, not at intermediate switches), but the full
dimension-order route is exposed for tests.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.config import SystemConfig


class Mesh:
    """A ``w x h`` mesh of nodes numbered row-major."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.width, self.height = config.mesh_dims
        self.n = config.n_procs
        if self.width * self.height != self.n:
            raise ValueError("mesh dimensions do not cover all nodes")

    def coords(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def hops(self, src: int, dst: int) -> int:
        return self.config.hops(src, dst)

    def route(self, src: int, dst: int) -> Iterator[int]:
        """Dimension-order (X then Y) route, yielding intermediate nodes.

        Yields every node on the path from ``src`` to ``dst`` inclusive.
        """
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        yield src
        while x != dx:
            x += 1 if dx > x else -1
            yield self.node_at(x, y)
        while y != dy:
            y += 1 if dy > y else -1
            yield self.node_at(x, y)

    def average_distance(self) -> float:
        """Mean hop count over all ordered pairs of distinct nodes.

        Manhattan distance splits by axis: the ordered pairs of a ``k``-node
        line are ``(k - 1) k (k + 1) / 3`` hops apart in total, and every
        x-pair recurs in each of ``h * h`` row pairs (likewise for y).
        """
        if self.n == 1:
            return 0.0
        w, h = self.width, self.height
        x_total = h * h * (w - 1) * w * (w + 1) // 3
        y_total = w * w * (h - 1) * h * (h + 1) // 3
        return (x_total + y_total) / (self.n * (self.n - 1))
