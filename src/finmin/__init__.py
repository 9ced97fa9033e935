"""Minimal-surface toolkit for the three-dimensional slope-metric space.

Profile families and admissible parameters (:mod:`finmin.metric`), volume
factors (:mod:`finmin.volume`), the area integrand and its derivatives
(:mod:`finmin.jet`), the graph and tilted-graph equations with their
ellipticity analysis (:mod:`finmin.graph_pde`), the exact-rational
translation-surface rigidity machinery (:mod:`finmin.translation`), and a
finite-difference Newton solver (:mod:`finmin.solver`). The CLI front end
lives in :mod:`finmin.cli`; each command's handler lives in the module it
drives.
"""

__version__ = "0.1.0"
