"""Workbench for hybrid analog/digital joint source-channel coding.

Exact evaluators for finite-alphabet and Gaussian relay-network bounds, a
Monte Carlo simulator of the random-codebook hybrid coding scheme, and a CLI
producing JSON/CSV/SVG artifacts.
"""

__version__ = "0.1.0"

from .infotheory import (  # noqa: F401
    ConditionalPmf,
    DistortionMeasure,
    JointPmf,
    Pmf,
    compose_joint,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
