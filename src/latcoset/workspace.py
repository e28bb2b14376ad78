"""Buffers the hot loops keep between calls for their large temporaries.

A numpy temporary of a few hundred KB is mapped and unmapped by the
allocator, or the heap top it sits on is trimmed and grown back, and each
time its pages are touched again they fault.  The batched decoders and the
layered enumeration run such temporaries on every block of every call, so
they write them into views of the buffers kept here instead: a steady
stream of calls of one shape then takes no fresh pages.

Each buffer is kept under a key, grows to the largest size asked of it and
never shrinks; :func:`workspace_bytes` gives what they hold.  A view is
valid until the next request under the same key, so a key belongs to one
kernel, and a kernel that calls another, or that recurses, uses keys the
callee does not.  The kernels return fresh arrays; only their helpers
hand views to the kernel that calls them.  The buffers are per process (a
forked pool worker starts with copies of its parent's) and not for use
from several threads at once.
"""

from __future__ import annotations

import math

import numpy as np

_BUFFERS: dict = {}


def workspace(key, shape, dtype=float) -> np.ndarray:
    """An uninitialised C-contiguous array of ``shape`` and ``dtype``, a view
    of the buffer kept under (``key``, ``dtype``), valid until the next call
    with that key and dtype."""
    dtype = np.dtype(dtype)
    n = math.prod(shape)
    buf = _BUFFERS.get((key, dtype))
    if buf is None or buf.size < n:
        buf = _BUFFERS[key, dtype] = np.empty(n, dtype)
    return buf[:n].reshape(shape)


def workspace_bytes() -> int:
    """Bytes held by every workspace buffer of this process."""
    return sum(buf.nbytes for buf in _BUFFERS.values())
