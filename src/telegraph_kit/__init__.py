"""Exact simulation, couplings and verification for a mean-reverting telegraph particle.

The package re-exports each module's ``__all__``, the one list of its public names.
"""

from .analysis import *  # noqa: F403
from .coupling import *  # noqa: F403
from .excursions import *  # noqa: F403
from .model import *  # noqa: F403
from .paths import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"
