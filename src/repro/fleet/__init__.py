"""Suite-grid campaigns (``aikido-repro fleet run``).

* :mod:`repro.fleet.campaign` — :class:`CampaignSpec` (benchmarks x
  seeds x chaos seeds), its expansion into harness jobs, and the
  deterministic campaign report;
* :mod:`repro.fleet.cli` — the ``fleet run`` command line.

Execution, journaling and caching are the suite harness's
:class:`~repro.harness.parallel.ParallelRunner` and
:class:`~repro.harness.journal.RunJournal`; this package only describes
the grid and reports on it.
"""

from repro.fleet.campaign import CampaignSpec, campaign_report, render_report

__all__ = ["CampaignSpec", "campaign_report", "render_report"]
