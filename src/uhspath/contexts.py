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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DEFAULT_NODE_BUDGET, check_budget
from .kmerset import KmerSet
from .schemes import TABLE, SelectionScheme, digit_slice, is_forward, scheme_values


@dataclass(frozen=True)
class ContextSet:
    """A KmerSet of charged contexts."""

    kset: KmerSet

    def relative_size(self) -> Fraction:
        return self.kset.relative_size()


def local_context_symbols(scheme: SelectionScheme) -> int:
    return 2 * scheme.w + scheme.k - 2


def forward_context_symbols(scheme: SelectionScheme) -> int:
    return scheme.window_symbols + 1


def build_context_set_local(
    scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET
) -> ContextSet:
    """Contexts whose last window picks a position none of the w-1 windows
    before it picked.  Valid for any scheme, forward or not."""
    sigma = scheme.sigma
    W = local_context_symbols(scheme)
    m = sigma**W
    check_budget(m, budget, "local context set")
    fv = scheme_values(scheme, budget=budget)
    last = digit_slice(fv, sigma, scheme.w - 1, W)
    member = np.ones(m, dtype=bool)
    for i in range(scheme.w - 1):
        # window i picks i + f(window i), the last window (w - 1) + f(last window)
        member &= last != digit_slice(fv + (i - (scheme.w - 1)), sigma, i, W)
    return ContextSet(KmerSet(sigma, W, member))


def build_context_set_forward(
    scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET
) -> ContextSet:
    """Contexts of ws + 1 symbols whose second window picks a fresh position.

    Requires a forward scheme: the selected position never moves backwards,
    so the previous window is the only one that can have selected it
    already.  Minimizers are forward by construction; tables are checked.
    """
    if scheme.kind == TABLE and not is_forward(scheme, budget=budget):
        raise ValueError("scheme is not forward")
    sigma = scheme.sigma
    ws = scheme.window_symbols
    m = sigma ** (ws + 1)
    check_budget(m, budget, "forward context set")
    fv = scheme_values(scheme, budget=budget)
    member = digit_slice(fv + 1, sigma, 1, ws + 1) != digit_slice(fv, sigma, 0, ws + 1)
    return ContextSet(KmerSet(sigma, ws + 1, member))

