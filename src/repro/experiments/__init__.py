"""Experiment reproductions: one module per paper table/figure.

Every module exposes ``run(...) -> <result dataclass>`` and ``render(result)
-> str`` (the text-table equivalent of the paper's plot); the CLI
(``python -m repro.experiments <id>``) and the benchmarks call ``run``.
Importing the package loads no experiment module; import the one you
need (``from repro.experiments import fig6``).
"""

#: Everything ``python -m repro.experiments all`` runs. ``stress``,
#: ``fleet``, ``fleet_chaos`` and ``live_replay`` are registered with
#: the CLI but deliberately absent here: the stress and fleet ladders
#: top out at a million requests (chaos replays its ladder twice) and
#: the live replay opens real sockets, so all four are meant to be
#: invoked explicitly (``python -m repro.experiments stress`` /
#: ``... fleet`` / ``... fleet_chaos`` / ``... live_replay``).
EXPERIMENT_IDS = (
    "table1",
    "fig1",
    "fig2",
    "eq1",
    "fig5",
    "table3",
    "fig6",
    "fig7",
    "headline",
    "ablations",
    "sensitivity",
    "qos_targets",
    "scaling",
    "bursts",
    "robustness",
)

__all__ = ["EXPERIMENT_IDS"]
