"""Gradient-guided search for discrete, readable prompts.

The package tunes a short sequence of prompt embeddings with projected
Langevin dynamics — gradient steps plus annealed Gaussian noise, snapped to
the nearest vocabulary embeddings every step — so the result is always an
actual token sequence.  Supervised search minimizes task NLL plus a fluency
energy; unsupervised search balances the label distribution while keeping
the prompt domain-relevant.  Diagnostics relate prompt quality to label-word
calibration and domain-word usage.
"""

from .errors import *
from .model import *
from .projection import *
from .tasks import *
from .energies import *
from .sampler import *
from .metrics import *
from .analysis import *
from .synthetic import *

__version__ = "0.1.0"

# Each submodule's ``__all__`` is the one declaration of its public names;
# one ``+=`` per module is the form that static analysers follow.
__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += model.__all__
__all__ += projection.__all__
__all__ += tasks.__all__
__all__ += energies.__all__
__all__ += sampler.__all__
__all__ += metrics.__all__
__all__ += analysis.__all__
__all__ += synthetic.__all__
