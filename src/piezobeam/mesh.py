"""1D meshes on [0, L] with exact patch-interval alignment.

Patch meshes keep the electrode edges a and b as mesh nodes: the segments
[0, a], [a, b] and [b, L] are each meshed uniformly, with element counts
apportioned to segment lengths by largest remainder.  Coefficient jumps then
always fall on element boundaries and every element integrand stays smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometry, TooFewElements
from .materials import BeamGeometry


@dataclass(frozen=True)
class Mesh:
    """Sorted node coordinates plus the patch node span (or None)."""

    nodes: np.ndarray
    patch_span: tuple | None = None  # (node index of a, node index of b)

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    def region(self, name: str) -> tuple:
        """(element indices, (left, right) end coordinates) of region 'all' or
        'patch'; without a patch span the patch covers the whole mesh."""
        span = self.patch_span if name == "patch" else None
        ia, ib = span or (0, self.n_elements)
        return np.arange(ia, ib), (float(self.nodes[ia]), float(self.nodes[ib]))


def _apportion(total: int, weights) -> list:
    """Largest-remainder allocation of `total` among `weights`, >= 1 each."""
    weights = np.asarray(weights, dtype=float)
    raw = total * weights / weights.sum()
    counts = np.maximum(1, np.floor(raw).astype(int))
    while counts.sum() > total:
        # only possible via the minimum-1 clamp; shrink the largest count
        counts[int(np.argmax(counts))] -= 1
    rem = total - counts.sum()
    if rem > 0:
        frac = raw - np.floor(raw)
        order = np.argsort(-frac, kind="stable")
        for k in range(rem):
            counts[order[k % len(counts)]] += 1
    return counts.tolist()


def build_mesh(geometry: BeamGeometry, n_elements: int, patch: bool = False) -> Mesh:
    """Uniform mesh of [0, L]; for patch variants, piecewise uniform with the
    patch edges as nodes.  Requires n_elements >= 2 (>= 4 with a patch)."""
    L = geometry.length
    if patch:
        if n_elements < 4:
            raise TooFewElements(f"patch mesh needs >= 4 elements, got {n_elements}")
        a, b = geometry.patch_start, geometry.patch_end
        if a is None or b is None or not (0.0 < a < b < L):
            raise InvalidGeometry(f"patch interval [{a}, {b}] invalid for length {L}",
                                  "patch_start")
        counts = _apportion(n_elements, [a, b - a, L - b])
        pieces = [
            np.linspace(0.0, a, counts[0] + 1),
            np.linspace(a, b, counts[1] + 1)[1:],
            np.linspace(b, L, counts[2] + 1)[1:],
        ]
        nodes = np.concatenate(pieces)
        ia = counts[0]
        ib = counts[0] + counts[1]
        return Mesh(nodes=nodes, patch_span=(ia, ib))
    if n_elements < 2:
        raise TooFewElements(f"mesh needs >= 2 elements, got {n_elements}")
    return Mesh(nodes=np.linspace(0.0, L, n_elements + 1))
