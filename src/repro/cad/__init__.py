"""CAD-system layer: the engineering workflow built on top of the BEM core.

The paper integrates its boundary-element formulation "in a Computer Aided
Design system for grounding analysis" whose phases are listed in Table 6.1:
data input, data preprocessing, matrix generation, linear system solving and
results storage.  Those five timed phases run in
:class:`repro.bem.GroundingAnalysis`; this sub-package provides what a
designer does with its results:

* :mod:`repro.cad.project` — persistence:
  :func:`~repro.cad.project.save_results` writes the analysed grid and its
  results to disk, :func:`~repro.cad.project.load_results_json` reads the
  results back;
* :mod:`repro.cad.contours` — earth-surface potential maps and iso-potential
  contour extraction (the paper's Figs. 5.2 and 5.4);
* :mod:`repro.cad.profiles` — potential / touch-voltage profiles along
  user-defined lines on the surface;
* :mod:`repro.cad.report` — plain-text design reports with the safety
  assessment.
"""

from repro.cad.contours import extract_contours, ContourSet, potential_map
from repro.cad.profiles import surface_profile, touch_voltage_profile, ProfileResult
from repro.cad.report import design_report, phase_table, comparison_table

__all__ = [
    "extract_contours",
    "ContourSet",
    "potential_map",
    "surface_profile",
    "touch_voltage_profile",
    "ProfileResult",
    "design_report",
    "phase_table",
    "comparison_table",
]
