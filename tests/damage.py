"""Hypothesis strategies that damage a valid file's bytes, for the fuzz tests."""

from __future__ import annotations

from hypothesis import strategies as st


def truncated(data: bytes) -> st.SearchStrategy[bytes]:
    """``data`` cut short anywhere, down to nothing."""
    return st.integers(0, len(data) - 1).map(lambda k: data[:k])


@st.composite
def flipped(draw, data: bytes, lo: int = 0, hi: int | None = None) -> bytes:
    """``data`` with one to three bits flipped in bytes ``lo`` to ``hi``."""
    buf = bytearray(data)
    hi = len(data) if hi is None else hi
    for _ in range(draw(st.integers(1, 3))):
        buf[draw(st.integers(lo, hi - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(buf)


def damaged(data: bytes) -> st.SearchStrategy[bytes]:
    return truncated(data) | flipped(data)
