"""Semilattices over abelian groups, with exact desk-scale verification tools.

Every name is imported from its module; the package defines only ``__version__``."""

__version__ = "0.1.0"
