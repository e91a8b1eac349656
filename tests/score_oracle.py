"""Reference per-gap energies that slice and sum each gap on its own.

The package groups the gaps' power spans by length and sums each group as
the rows of one gathered matrix (``meterfill.metrics.gap_energies``).  This
version sums every gap's slice with ``ndarray.sum``; the tests require the
energies, and the WAPE built from them, to agree bit for bit.
"""

from meterfill.series import resolution_hours


def gap_energies(imputed, gaps):
    """Energy of each gap in ``imputed``: resolution-hours times the power sum."""
    dt = resolution_hours(imputed.resolution)
    return [float(imputed.values[g.first_missing : g.last_missing + 1].sum() * dt) for g in gaps]
