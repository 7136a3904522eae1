"""Desk-scale sensing laboratory for switching-metasurface assisted MIMO.

Modules
-------
geometry        scene layout, angle/position maps, angle Jacobian
metasurface     coding sequences, harmonic patterns; the fixed-profile baseline as one case
channel         array responses, pilots, the scatter-point model, the paths (PATHS), the echo
bounds          Fisher information, closed-form angle CRBs, EFIM, position bounds
detection       despreading, ML gain estimate, thresholds, marginal p_D maps, Marcum Q
classification  Rayleigh MAP labeling, confusion rates, two-path fusion
experiments     CLI-facing sweeps producing CSV data + manifests
"""

__version__ = "0.1.0"
