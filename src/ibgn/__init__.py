"""Generative interval-network models for complex activity recognition.

A complex activity is a set of atomic action intervals; the temporal
signature lives in the forward relations between interval pairs.  This
package provides the relation algebra, consistency-guaranteed network
generation, collapsed Gibbs parameter learning with hyperparameter tuning,
BIC structure selection, per-class max-score classification, dataset
tooling, and a CLI (``ibgn``).
"""

from .algebra import *
from .classify import *
from .dataset import *
from .generate import *
from .learning import *
from .model_io import *
from .network import *
from . import errors

__version__ = "0.1.0"
