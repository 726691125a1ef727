"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately naive: explicit graphs, flood fill,
factorial search, and per-output-cell convolution loops. Nothing imports the
library's production paths.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations

import numpy as np


def enum_subwords(text: str) -> list[tuple[str, int, int]]:
    """Distinct substrings plus the empty word, ordered by (length, first start)."""
    firsts: dict[str, int] = {}
    for i in range(len(text)):
        for j in range(i + 1, len(text) + 1):
            sub = text[i:j]
            if sub not in firsts or i < firsts[sub]:
                firsts[sub] = i
    ordered = sorted(firsts.items(), key=lambda kv: (len(kv[0]), kv[1]))
    return [("", 0, 0)] + [(s, len(s), i) for s, i in ordered]


def grid_components(lam: str, mu: str) -> list[str]:
    """Produced subwords of every component of the (lam, mu) grid.

    Builds the full graph over all s*t cells with diagonal edges between
    matching cells and flood-fills it; empty cells come out as ''.
    """
    s, t = len(lam), len(mu)
    match = [[lam[i] == mu[j] for j in range(t)] for i in range(s)]
    seen = [[False] * t for _ in range(s)]
    produced = []
    for i0 in range(s):
        for j0 in range(t):
            if seen[i0][j0]:
                continue
            if not match[i0][j0]:
                seen[i0][j0] = True
                produced.append("")
                continue
            comp = []
            queue = deque([(i0, j0)])
            seen[i0][j0] = True
            while queue:
                i, j = queue.popleft()
                comp.append((i, j))
                for di, dj in ((1, 1), (-1, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < s and 0 <= nj < t and match[ni][nj] and not seen[ni][nj]:
                        seen[ni][nj] = True
                        queue.append((ni, nj))
            comp.sort()
            produced.append("".join(lam[i] for i, _ in comp))
    return produced


def brute_map(text: str) -> tuple[int, dict[tuple[int, int, int], int]]:
    """Full sparse (lam, mu, nu) -> count map via flood fill, plus table size."""
    table = enum_subwords(text)
    index = {content: k for k, (content, _, _) in enumerate(table)}
    counts: dict[tuple[int, int, int], int] = {}
    d = len(table)
    for li in range(d):
        for mi in range(d):
            lam, mu = table[li][0], table[mi][0]
            if li == 0 and mi == 0:
                counts[(0, 0, 0)] = 1
                continue
            if mi == 0:
                counts[(li, 0, 0)] = len(lam)
                continue
            if li == 0:
                counts[(0, mi, 0)] = len(mu)
                continue
            for nu in grid_components(lam, mu):
                key = (li, mi, index[nu])
                counts[key] = counts.get(key, 0) + 1
    return d, counts


def brute_bijection(a: str, b: str) -> dict[str, str] | None:
    """Try every injective letter map from a's letters onto b's letters."""
    if len(a) != len(b):
        return None
    src, dst = sorted(set(a)), sorted(set(b))
    if len(src) != len(dst):
        return None
    for perm in permutations(dst):
        mapping = dict(zip(src, perm))
        if all(mapping[x] == y for x, y in zip(a, b)):
            return mapping
    return None


def pattern_key(text: str) -> tuple[int, ...]:
    """First-occurrence pattern: positions get the index of their letter's debut."""
    order: dict[str, int] = {}
    out = []
    for ch in text:
        if ch not in order:
            order[ch] = len(order)
        out.append(order[ch])
    return tuple(out)


def conv2d_direct(x: np.ndarray, w: np.ndarray, b: np.ndarray, dout: np.ndarray | None = None):
    """Valid stride-1 NHWC convolution, one output cell at a time, in float64.

    Returns the output, or with ``dout`` the gradients (dw, db, dx) of
    sum(output * dout), each window contributing only to its own cell.
    """
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    n, h, wd, _ = x.shape
    kh, kw, _, cout = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    out = np.zeros((n, oh, ow, cout))
    dw, dx = np.zeros_like(w), np.zeros_like(x)
    for s in range(n):
        for i in range(oh):
            for j in range(ow):
                window = x[s, i : i + kh, j : j + kw]
                out[s, i, j] = np.einsum("hwc,hwcd->d", window, w) + b
                if dout is not None:
                    g = np.asarray(dout[s, i, j], dtype=np.float64)
                    dw += np.einsum("hwc,d->hwcd", window, g)
                    dx[s, i : i + kh, j : j + kw] += np.einsum("hwcd,d->hwc", w, g)
    if dout is None:
        return out
    return dw, np.asarray(dout, dtype=np.float64).sum(axis=(0, 1, 2)), dx
