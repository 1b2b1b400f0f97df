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
cli         ground-state / evolve / diagnose / lemma / selftest commands
"""

__version__ = "0.1.0"
