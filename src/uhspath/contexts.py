"""Charged contexts of a selection scheme, as sets of fixed-length strings.

A context is the shortest amount of string that determines whether a window
selects a position no earlier window already selected (a "charged" window).
For a scheme with windows of `ws` symbols the local contexts have
2w + k - 2 symbols (w windows ending at the last one); for forward schemes
ws + 1 symbols suffice (only the preceding window matters).  The expected
density of the scheme equals the relative size of its context set, which is
how `schemes.expected_density` computes it.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_NODE_BUDGET, check_budget
from .kmerset import KmerSet
from .schemes import TABLE, SelectionScheme, digit_slice, is_forward, scheme_values


def local_context_symbols(scheme: SelectionScheme) -> int:
    return 2 * scheme.w + scheme.k - 2


def forward_context_symbols(scheme: SelectionScheme) -> int:
    return scheme.window_symbols + 1


def build_context_set_local(
    scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET
) -> KmerSet:
    """Contexts whose last window picks a position none of the w-1 windows
    before it picked.  Valid for any scheme, forward or not.

    Only the last window's picks are spelled out over every context; window
    i is compared with them through a (sigma^i, sigma^ws, rest) view, its
    picks broadcast along the first and last axes, into one reused buffer.
    """
    sigma, w = scheme.sigma, scheme.w
    W = local_context_symbols(scheme)
    m = check_budget(sigma, W, budget, "local context set")
    fv = scheme_values(scheme, budget=budget)
    last = digit_slice(fv, sigma, w - 1, W)
    member = np.ones(m, dtype=bool)
    fresh = np.empty(m, dtype=bool)
    for i in range(w - 1):
        # window i picks i + f(window i), the last window (w - 1) + f(last window)
        shape = (sigma**i, fv.size, -1)
        picks = (fv + (i - (w - 1))).reshape(1, -1, 1)
        np.not_equal(last.reshape(shape), picks, out=fresh.reshape(shape))
        member &= fresh
    return KmerSet(sigma, W, member)


def build_context_set_forward(
    scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET
) -> KmerSet:
    """Contexts of ws + 1 symbols whose second window picks a fresh position.

    Requires a forward scheme: the selected position never moves backwards,
    so the previous window is the only one that can have selected it
    already.  Minimizers are forward by construction; tables are checked.
    """
    if scheme.kind == TABLE and not is_forward(scheme, budget=budget):
        raise ValueError("scheme is not forward")
    sigma = scheme.sigma
    ws = scheme.window_symbols
    check_budget(sigma, ws + 1, budget, "forward context set")
    fv = scheme_values(scheme, budget=budget)
    member = digit_slice(fv + 1, sigma, 1, ws + 1) != digit_slice(fv, sigma, 0, ws + 1)
    return KmerSet(sigma, ws + 1, member)

