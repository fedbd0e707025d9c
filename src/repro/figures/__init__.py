"""Generators reproducing every table and figure of the paper's evaluation.

Each ``figN`` module exposes functions named after the paper's panels
(``fig3a()``, ``fig3b()``, ...) returning :class:`repro.core.report.Table`
objects whose rows are the same series the paper plots. ``benchmarks/`` runs
one pytest-benchmark per panel, and EXPERIMENTS.md records paper-vs-measured.
"""

from . import fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13
from . import tables

ALL_FIGURES = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "tables": tables,
}

__all__ = ["ALL_FIGURES", "figure_generators"] + list(ALL_FIGURES)


def figure_generators() -> dict:
    """Every panel generator by name (``{"fig3a": fig3.fig3a, ...}``): the
    callables named ``fig*`` in the figure modules."""
    generators = {}
    for module in ALL_FIGURES.values():
        for name in dir(module):
            if name.startswith("fig") and callable(getattr(module, name)):
                generators[name] = getattr(module, name)
    return generators
