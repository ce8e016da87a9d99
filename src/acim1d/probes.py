"""Fixed dictionary of 20 smooth test functions with sup norm <= 1.

Used for weak-* distances (invariance defects).  Sixteen
trigonometric modes plus four C-infinity bumps; the dictionary order is
fixed so reports are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["probe_functions"]


def _bump(center, width):
    def psi(x, c=center, w=width):
        u = (np.asarray(x, dtype=float) - c) / w
        out = np.zeros_like(u)
        mask = np.abs(u) < 1.0
        um = u[mask]
        out[mask] = np.exp(1.0 - 1.0 / (1.0 - um * um))
        return out
    psi.__name__ = f"bump({center:g},{width:g})"
    return psi


def probe_functions():
    """The 20-function dictionary (trig modes j=1..8 and four bumps)."""
    funcs = []
    for j in range(1, 9):
        funcs.append(lambda x, j=j: np.sin(2 * math.pi * j * np.asarray(x)))
        funcs.append(lambda x, j=j: np.cos(2 * math.pi * j * np.asarray(x)))
    funcs.append(_bump(0.25, 0.2))
    funcs.append(_bump(0.75, 0.2))
    funcs.append(_bump(0.5, 0.35))
    funcs.append(_bump(0.1, 0.1))
    return funcs

