"""Extensive-form games: trees, counterfactual operators, CFR rounds."""

from . import builders, rounds, tree, values
from .builders import *  # noqa: F403
from .rounds import *  # noqa: F403
from .tree import *  # noqa: F403
from .values import *  # noqa: F403

__all__ = builders.__all__ + rounds.__all__ + tree.__all__ + values.__all__
