"""EXPERIMENTS.md generation: run every experiment, record paper vs measured.

``python -m repro report`` (or ``repro-fsai report``) runs the complete
campaign on all three machine models and writes ``EXPERIMENTS.md`` with one
section per experiment of DESIGN.md §4.
"""

from __future__ import annotations

import io
from typing import Dict, Optional, Sequence

import numpy as np

from repro.arch.address import ArrayPlacement
from repro.collection.suite import get_case
from repro.experiments.campaign import CampaignResult, run_campaign
from repro.experiments.orchestrator import require_complete, run_campaign_parallel
from repro.experiments.figures import (
    figure1,
    figure2_series,
    figure3_histogram,
    figure4_histogram,
    figure7_histogram,
    render_histogram,
)
from repro.experiments.correlation import paper_correlations
from repro.experiments.filtering_compare import table3_rows
from repro.experiments.runner import ExperimentConfig
from repro.experiments.tables import (
    extension_stats,
    filter_sweep_stats,
    setup_overhead,
    table1,
)
from repro.collection.generators.fem import wathen

__all__ = ["generate_report", "run_all_campaigns"]

#: Paper-reported Table 2/4/5 rows: (machine, method) -> {filter: (iter, time)}
PAPER_SWEEPS = {
    ("skylake", "fsaie_sp"): {
        "0": (12.40, 2.89), "0.001": (12.25, 5.99), "0.01": (11.76, 9.59),
        "0.1": (6.32, 5.54), "best": (11.45, 11.16),
    },
    ("skylake", "fsaie_full"): {
        "0": (18.41, -3.69), "0.001": (17.88, 8.68), "0.01": (16.71, 12.75),
        "0.1": (8.90, 8.90), "best": (16.60, 15.02),
    },
    ("power9", "fsaie_full"): {
        "0": (18.55, -14.24), "0.001": (17.96, 2.49), "0.01": (16.90, 10.25),
        "0.1": (8.99, 8.56), "best": (15.15, 12.94),
    },
    ("a64fx", "fsaie_full"): {
        "0": (27.81, -17.52), "0.001": (26.47, 14.93), "0.01": (23.98, 20.08),
        "0.1": (13.36, 13.76), "best": (24.91, 22.85),
    },
}

#: Paper Table 3 rows: filter -> (avg iter increase %, highest %).
PAPER_TABLE3 = {0.0: (0.0, 0.88), 0.001: (0.0, 1.95), 0.01: (1.63, 113.9), 0.1: (7.95, 114.96)}


def run_all_campaigns(
    *,
    case_ids: Optional[Sequence[int]] = None,
    progress=None,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint_dir=None,
    resume: bool = False,
) -> Dict[str, CampaignResult]:
    """Run the full sweep on all three machines (random baseline on SKX).

    With any of ``jobs``/``timeout``/``checkpoint_dir``/``resume`` set, each
    machine's sweep goes through the fault-tolerant orchestrator
    (:func:`repro.experiments.orchestrator.run_campaign_parallel`); all
    three machines share one checkpoint directory (records are keyed by
    machine).  A report needs every case, so any unrecovered
    :class:`~repro.experiments.orchestrator.CaseFailure` raises
    :class:`~repro.errors.CampaignIncompleteError`.
    """
    orchestrated = (
        jobs is not None or timeout is not None
        or checkpoint_dir is not None or resume
    )
    campaigns = {}
    for machine in ("skylake", "power9", "a64fx"):
        cfg = ExperimentConfig(
            machine=machine,
            include_random_baseline=(machine == "skylake"),
        )
        if orchestrated:
            outcome = run_campaign_parallel(
                cfg, case_ids=case_ids, jobs=jobs, timeout=timeout,
                retries=retries, checkpoint_dir=checkpoint_dir,
                resume=resume, progress=progress,
            )
            campaigns[machine] = require_complete(outcome).campaign
        else:
            campaigns[machine] = run_campaign(
                cfg, case_ids=case_ids, progress=progress
            )
    return campaigns


def _sweep_comparison(campaign: CampaignResult, method: str, label: str) -> str:
    """Measured vs paper for one Table 2/4/5 block."""
    paper = PAPER_SWEEPS.get((campaign.machine, method))
    measured = filter_sweep_stats(campaign, method)
    out = ["| filter | paper avg iter % | measured | paper avg time % | measured |",
           "|---|---|---|---|---|"]
    for key, st in measured.items():
        p = paper.get(key) if paper else None
        p_it = f"{p[0]:.2f}" if p else "—"
        p_tm = f"{p[1]:.2f}" if p else "—"
        out.append(
            f"| {key} | {p_it} | {st.avg_iterations:.2f} | {p_tm} | {st.avg_time:.2f} |"
        )
    return f"**{label}**\n\n" + "\n".join(out)


def generate_report(
    *,
    case_ids: Optional[Sequence[int]] = None,
    campaigns: Optional[Dict[str, CampaignResult]] = None,
    progress=None,
    include_table1: bool = True,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint_dir=None,
    resume: bool = False,
) -> str:
    """Produce the full EXPERIMENTS.md text."""
    campaigns = campaigns or run_all_campaigns(
        case_ids=case_ids, progress=progress, jobs=jobs, timeout=timeout,
        retries=retries, checkpoint_dir=checkpoint_dir, resume=resume,
    )
    sky = campaigns["skylake"]
    buf = io.StringIO()
    w = buf.write

    w("# EXPERIMENTS — paper-reported vs measured\n\n")
    w("Reproduction of every table and figure of Laut/Borrell/Casas, "
      "HPDC 2021, on the synthetic suite + simulated machines "
      "(substitutions: DESIGN.md §2). `measured` numbers are modelled "
      "seconds (roofline over simulated cache traffic) around *real* PCG "
      "iteration counts; absolute values differ from the paper by design, "
      "shapes are the reproduction target (DESIGN.md §5).\n\n")
    w(f"Campaign: {len(sky.results)} matrices × methods (fsaie_sp, fsaie_full)"
      f" × filters (0, 0.001, 0.01, 0.1) × 3 machines.\n\n")

    # E-T2 / E-T4 / E-T5
    w("## E-T2 — Table 2 (Skylake filter sweep)\n\n")
    w(_sweep_comparison(sky, "fsaie_sp", "FSAIE(sp) on Skylake") + "\n\n")
    w(_sweep_comparison(sky, "fsaie_full", "FSAIE(full) on Skylake") + "\n\n")
    w("## E-T4 — Table 4 (POWER9)\n\n")
    w(_sweep_comparison(campaigns["power9"], "fsaie_full", "FSAIE(full) on POWER9") + "\n\n")
    w("## E-T5 — Table 5 (A64FX, 256 B lines)\n\n")
    w(_sweep_comparison(campaigns["a64fx"], "fsaie_full", "FSAIE(full) on A64FX") + "\n\n")

    # E-T1
    if include_table1:
        w("## E-T1 — Table 1 (per-matrix, Skylake, filter = 0.01)\n\n")
        w("```\n" + table1(sky) + "\n```\n\n")

    # E-T3
    w("## E-T3 — Table 3 (filtering strategies)\n\n")
    t3_cases = [get_case(i) for i in (sky.results[i].case.case_id for i in range(len(sky.results)))]
    rows = table3_rows(t3_cases, ArrayPlacement.aligned(64))
    w("| filter | paper avg inc % | measured | paper highest % | measured |\n")
    w("|---|---|---|---|---|\n")
    for f, avg, high in rows:
        p = PAPER_TABLE3[f]
        w(f"| {f:g} | {p[0]:.2f} | {avg:.2f} | {p[1]:.2f} | {high:.2f} |\n")
    w("\n")

    # E-F2 / E-F5 / E-F6
    for mkey, fig in (("skylake", "E-F2 — Figure 2"), ("power9", "E-F5 — Figure 5"),
                      ("a64fx", "E-F6 — Figure 6")):
        series = figure2_series(campaigns[mkey])
        arr = np.asarray(series.best_filter)
        w(f"## {fig} ({mkey} per-matrix time decrease)\n\n")
        w(f"best-filter improvement: mean {arr.mean():.2f}%, median "
          f"{np.median(arr):.2f}%, min {arr.min():.2f}%, max {arr.max():.2f}% "
          f"({(arr > 0).sum()}/{len(arr)} matrices improved)\n\n")

    # E-F3 / E-F4
    w("## E-F3 — Figure 3 (L1 misses on p per G nnz)\n\n")
    h3 = figure3_histogram(sky)
    w("medians: " + ", ".join(f"{k} = {v:.3f}" for k, v in h3.median.items()) + "\n\n")
    w("```\n" + render_histogram(h3) + "\n```\n\n")
    w("## E-F4 — Figure 4 (Gflop/s of G^T G p)\n\n")
    h4 = figure4_histogram(sky)
    w("medians: " + ", ".join(f"{k} = {v:.1f}" for k, v in h4.median.items()) + "\n\n")
    w("```\n" + render_histogram(h4) + "\n```\n\n")

    # E-F7
    w("## E-F7 — Figure 7 (per-architecture improvement histograms)\n\n")
    h7 = figure7_histogram(list(campaigns.values()))
    w("```\n" + render_histogram(h7) + "\n```\n\n")

    # E-S74
    w("## E-S74 — §7.4 setup overhead\n\n")
    w(setup_overhead(sky) + "\n\n")
    w("(paper: ~180% average overhead of FSAIE(full) at filter 0.01)\n\n")

    # E-A3
    w("## E-A3 — §7.7 extension size per architecture\n\n")
    w("```\n" + extension_stats(campaigns.values()) + "\n```\n\n")
    w("(paper: +61% entries on Skylake/POWER9, +93% on A64FX at filter 0.01)\n\n")

    # Suite-fidelity correlations
    w("## Suite fidelity — paper-vs-measured rank correlations\n\n")
    w("```\n" + paper_correlations(sky).render() + "\n```\n\n")
    w("(positive iteration-count correlation means the synthetic suite "
      "preserves the paper's per-matrix difficulty ordering; see "
      "repro.experiments.correlation)\n\n")

    # E-F1
    w("## E-F1 — Figure 1 (pattern extension example)\n\n")
    demo = wathen(4, 4, seed=3)
    w("```\n" + figure1(demo, ArrayPlacement.aligned(64)) + "\n```\n")
    w(_ADDENDUM)
    return buf.getvalue()


#: Deviations discussion appended to every generated report.
_ADDENDUM = """
## Addendum — deviations and their causes

Three systematic deviations from the paper, all traceable to the scaled
synthetic suite and the modelled-time substitution (DESIGN.md §2):

1. **Iteration improvements match closely; time improvements are smaller
   and the best common filter shifts from 0.01 to 0.1.**  Measured average
   iteration reductions track the paper within ~1-3 points at every filter
   and on every architecture (see E-T2/E-T4/E-T5).  The *time* columns are
   compressed because the suite matrices are ~50x smaller: extension
   entries on short stencil rows are a larger *fraction* of each row, so
   the per-iteration cost of keeping them is relatively higher than on
   SuiteSparse-scale matrices, moving the cost/benefit crossover one filter
   notch to the right.  The paper's qualitative claims (filter=0.0 degrades
   time despite maximal iteration gains; an intermediate filter is best;
   per-matrix best-filter beats any common value) all hold — see
   `benchmarks/bench_sensitivity.py` for their robustness across the model
   parameter grid.

2. **Setup overhead (E-S74) is orders of magnitude larger than the paper's
   ~180%.**  Same scale effect, cubed: baseline local systems here are
   k ~ 5 wide (vs ~30-60 in SuiteSparse), extended ones are 2-4x wider, and
   the local-solve cost grows as k^3.  The §7.4 *conclusion* — setup
   amortises over repeated solves — is demonstrated directly in
   `examples/cfd_time_stepping.py`.

3. **Skylake and POWER9 numbers are exactly equal** (the paper reports
   "very similar" with small alignment/roundoff differences).  Both models
   share 64 B lines and per-core L1 geometry, and the deterministic
   simulation eliminates the allocation-alignment noise real machines add;
   the alignment sensitivity the paper attributes the residual differences
   to is quantified in `benchmarks/bench_ablation_alignment.py`.

## Beyond-paper experiments (see DESIGN.md §4, E-A rows)

| bench | finding |
|---|---|
| `bench_ablation_two_step.py` | two-step transpose extension keeps higher G^T line utilisation than the §6 joint variant; joint never wins on simulated misses |
| `bench_ablation_reordering.py` | RCM restores the locality a shuffle destroys; the fill-in invariant holds in every ordering |
| `bench_parallel_scaling.py` | SpMV saturates modelled DRAM bandwidth near the paper's core counts; nnz-balanced partitions beat row-balanced on skewed matrices |
| `bench_dynamic_pattern.py` | the cache extension composes with FSPAI-style dynamic patterns (§8/§9 complementarity), at ~zero extra misses per entry |
| `bench_miss_ratio_curves.py` | stack-distance miss-ratio curves generalise Figure 3 to all cache capacities |
| `bench_wall_time_motivation.py` | simulation separates cache-aware from random patterns by ~16x (16.1x on case 41); Python wall time, both factors timed on the `reference` backend's one gather kernel, by 0.92–1.04x (2-core Xeon, 7 runs). The default numpy backend's ratio, 2.6–3.3x, is printed beside it: it picks DIA for FSAIE(full)'s exact stencil and one-block/bucketed ELL for the random factor, so it compares kernels, not patterns |
| `bench_sensitivity.py` | headline shapes hold across the (cache scale x penalty) model grid |
| `bench_ablation_sparse_level.py` | the extension helps at every a-priori pattern level N (Alg. 1 generality) |

Regenerate everything: `repro-fsai report -o EXPERIMENTS.md` (~1 h full) or
`pytest benchmarks/ --benchmark-only` (quick scope).
"""
