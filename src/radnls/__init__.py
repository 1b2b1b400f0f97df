"""radnls: radial pseudospectral mass-critical NLS simulator and diagnostics.

Modules
-------
core        radial grids, the Hankel-type radial Fourier transform, norms
groundstate the positive decaying elliptic profile and its certification
evolution   split-step time integration with conservation logging
bands       dyadic frequency projections, cutoffs, inequality estimators
diagnostics virial dynamics, localization radii, decay-exponent fits
recurrence  space-time norms and the dyadic bootstrap verifier
fieldio     binary snapshots, trajectory dirs, ground-state cache
errors      the exception classes the command line maps to exit codes
cli         ground-state / evolve / diagnose / lemma / selftest commands

Each command imports only the modules it runs, so importing radnls.cli loads
none of the numerics and no numpy, and lemma on a synthetic or file sequence
loads recurrence alone, whose verifier runs on Python floats.
"""

import hashlib
import json

__version__ = "0.1.0"


def config_hash(config: dict) -> str:
    """The first 16 hex digits of the sha256 of config as sorted JSON."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
