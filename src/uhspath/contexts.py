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


def _fresh_picks(scheme: SelectionScheme, windows: int, budget: int, what: str) -> KmerSet:
    """Contexts of `windows` windows whose last window picks a position none
    of the windows before it picked.

    Only the last window's picks are spelled out over every context; window
    i is compared with them through a (sigma^i, sigma^ws, rest) view, its
    picks broadcast along the first and last axes.  The first compare makes
    the mask and each later one goes into one reused buffer, so two windows
    take one pass; a single window leaves every context a member.
    """
    sigma = scheme.sigma
    W = scheme.window_symbols + windows - 1
    m = check_budget(sigma, W, budget, what)
    fv = scheme_values(scheme, budget=budget)
    last = digit_slice(fv, sigma, windows - 1, W)
    member = (np.empty if windows > 1 else np.ones)(m, dtype=bool)
    fresh = np.empty(m, dtype=bool)
    for i in range(windows - 1):
        # window i picks i + f(window i), the last window (windows - 1) + f(last window)
        shape = (sigma**i, fv.size, -1)
        picks = (fv + (i - (windows - 1))).reshape(1, -1, 1)
        np.not_equal(last.reshape(shape), picks, out=(fresh if i else member).reshape(shape))
        if i:
            member &= fresh
    return KmerSet(sigma, W, member)


def build_context_set_local(
    scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET
) -> KmerSet:
    """Contexts whose last window picks a position none of the w-1 windows
    before it picked.  Valid for any scheme, forward or not."""
    return _fresh_picks(scheme, scheme.w, budget, "local context set")


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
    return _fresh_picks(scheme, 2, budget, "forward context set")
