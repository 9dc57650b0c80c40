"""Continued-logarithm gcd: the algorithm, its cost algebra, and the
average-case analysis toolkit (closed-form constants, transfer-operator
numerics, ensemble experiments).

Import from the submodules: ``algorithm``, ``constants``, ``dyadic``,
``dynamics``, ``experiments``, ``parallel``, ``spectral`` and ``errors``.
"""

__version__ = "0.1.0"
