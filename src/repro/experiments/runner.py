"""Experiment CLI: ``python -m repro.experiments <id>`` or ``split-repro``.

``all`` runs every reproduction and prints each report; ``headline``
recomputes the abstract's claims (violation rate reduced by up to 43%,
jitter by up to 69.3%) from fresh Fig. 6 / Fig. 7 runs.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.experiments import EXPERIMENT_IDS
from repro.experiments.config import ExperimentContext


#: Experiments the CLI runs only when named, never as part of ``all``
#: (see :data:`repro.experiments.EXPERIMENT_IDS` for why).
OPT_IN_IDS = ("stress", "fleet", "fleet_chaos", "live_replay")


def run_headline(ctx: ExperimentContext) -> str:
    from repro.experiments import fig6, fig7

    f6 = fig6.run(ctx)
    f7 = fig7.run(ctx)
    lines = ["Headline claims (abstract):"]
    best_v = max(
        f6.max_reduction_vs(b) for b in ("clockwork", "prema", "rta")
    )
    lines.append(
        f"  violation-rate reduction, best cell vs best baseline: "
        f"{best_v * 100:.1f} pp (paper: up to 43%)"
    )
    reductions = [
        f7.short_jitter_reduction(b, scen)
        for scen in {c.scenario for c in f7.cells}
        for b in ("clockwork", "prema", "rta")
    ]
    lines.append(
        f"  short-model jitter reduction, best cell: "
        f"{max(reductions) * 100:.1f}% (paper: up to 69.3%)"
    )
    return "\n".join(lines)


def _render_fig6_plot(ctx: ExperimentContext) -> str:
    """Fig. 6 as ASCII line charts, one panel per scenario."""
    from repro.analysis.ascii_plots import line_chart
    from repro.experiments import fig6

    result = fig6.run(ctx)
    panels = []
    for scen in result.scenarios():
        series = {
            policy: list(result.curve(policy, scen))
            for policy in ("split", "clockwork", "prema", "rta")
        }
        panels.append(
            f"{scen}\n"
            + line_chart(
                series,
                x=list(result.alphas),
                y_label="violation rate",
                x_label="alpha",
                width=56,
                height=12,
            )
        )
    return "\n\n".join(panels)


def _render_fig5_plot(ctx: ExperimentContext) -> str:
    """Fig. 5(a) as an ASCII chart: best std per generation."""
    from repro.analysis.ascii_plots import line_chart
    from repro.experiments import fig5

    result = fig5.run(ctx)
    longest = max(len(s.std_by_generation) for s in result.series)

    def padded(values: tuple[float, ...]) -> list[float]:
        return list(values) + [values[-1]] * (longest - len(values))

    series = {s.label: padded(s.std_by_generation) for s in result.series}
    return line_chart(
        series,
        x=list(range(longest)),
        y_label="best std (ms)",
        x_label="generation",
        width=56,
        height=14,
    )


_PLOTTERS = {
    "fig5": _render_fig5_plot,
    "fig6": _render_fig6_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="split-repro",
        description="Reproduce the SPLIT paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=(*EXPERIMENT_IDS, *OPT_IN_IDS, "all"),
        help="which table/figure to regenerate",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for sweep fan-out (default: SPLIT_JOBS env "
            "or all cores; --jobs 1 runs sequentially, bit-for-bit "
            "identical output)"
        ),
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render fig5/fig6 as ASCII charts instead of tables",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help="also write each report to DIR/<experiment>.txt",
    )
    args = parser.parse_args(argv)

    out_dir = None
    if args.out is not None:
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    ctx = ExperimentContext(seed=args.seed, jobs=args.jobs)
    ids = EXPERIMENT_IDS if args.experiment == "all" else (args.experiment,)
    for exp_id in ids:
        if args.plot and exp_id in _PLOTTERS:
            report = _PLOTTERS[exp_id](ctx)
        elif exp_id == "headline":
            report = run_headline(ctx)
        else:
            # Every other id names a module of this package; import only
            # the one that runs.
            module = importlib.import_module(f"repro.experiments.{exp_id}")
            report = module.render(module.run(ctx))
        print(report)
        print()
        if out_dir is not None:
            (out_dir / f"{exp_id}.txt").write_text(report + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
