"""Universal hitting sets, decycling sets and selection schemes on de Bruijn graphs.

Every name lives in its submodule (`uhspath.core`, `uhspath.mykkeltveit`,
...); the package top level holds only `__version__`, so importing it loads
nothing else.
"""

__version__ = "0.1.0"
