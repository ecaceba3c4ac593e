"""dunkl-lab: numerical laboratory for radial Dunkl processes of types A and B."""

__version__ = "0.4.0"

from .rootsys import TYPE_A, TYPE_B, RootSystemConfig  # noqa: F401
