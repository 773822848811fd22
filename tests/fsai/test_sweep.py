"""Algorithm 4 through one filter-sweep builder.

:func:`repro.fsai.extended.setup_fsaie_sweep` shares a step's extension
and precalc, and each filtered pattern, across the setups of one call.
Sharing must not change a single bit: every setup equals Algorithm 4 run
alone through the stage functions (the oracle below), with the same flop
ledger, and a traced campaign case opens only the shared spans once.
"""

from collections import Counter

import pytest

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.collection.suite import get_case
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentConfig, run_case
from repro.fsai.adaptive import adaptive_pattern, setup_fspai_cache_extended
from repro.fsai.extended import (
    METHOD_STEPS,
    setup_fsaie_joint,
    setup_fsaie_sweep,
    sweep_passes,
)
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.filtering import filter_extension_by_precalc
from repro.fsai.frobenius import (
    compute_g,
    precalculate_g,
    setup_flops_direct,
    setup_flops_precalc,
)
from repro.fsai.patterns import fsai_initial_pattern

PLACEMENT = ArrayPlacement.aligned(64)
FILTERS = (0.0, 0.001, 0.01, 0.1)


def algorithm4(a, base, steps, filter_value):
    """One method's setup built alone, stage by stage (the oracle)."""
    pattern, flops = base, {}
    for k, step in enumerate(steps, 1):
        lower = extend_pattern_cache_friendly(pattern, PLACEMENT, triangular="lower")
        upper = extend_pattern_cache_friendly(
            pattern.transpose(), PLACEMENT, triangular="upper"
        ).transpose()
        extended = {"lower": lower, "upper": upper, "joint": lower.union(upper)}[step]
        g_approx = precalculate_g(a, extended)
        flops[f"precalc{k}"] = setup_flops_precalc(extended)
        pattern = filter_extension_by_precalc(g_approx, pattern, filter_value)
    flops["direct"] = setup_flops_direct(pattern)
    return compute_g(a, pattern), flops


def g_bytes(g):
    return g.indptr.tobytes(), g.indices.tobytes(), g.data.tobytes()


@pytest.mark.parametrize("case_id", [65, 72])
def test_sweep_equals_each_method_built_alone(case_id):
    a = get_case(case_id).build()
    base = fsai_initial_pattern(a)
    methods = ("fsaie_sp", "fsaie_full", "fsaie_joint")
    swept = setup_fsaie_sweep(a, PLACEMENT, methods, FILTERS)
    assert list(swept) == [(m, f) for m in methods for f in FILTERS]
    for (method, f), setup in swept.items():
        g, flops = algorithm4(a, base, METHOD_STEPS[method], f)
        assert g_bytes(setup.g) == g_bytes(g), (method, f)
        assert setup.flops == flops, (method, f)
        assert setup.method == method and setup.filter_value == f
    # The one-filter builder is the same call.
    joint = setup_fsaie_joint(a, PLACEMENT, filter_value=0.1)
    assert g_bytes(joint.g) == g_bytes(swept["fsaie_joint", 0.1].g)


@pytest.mark.parametrize("case_id", [65, 72])
def test_fspai_ext_is_fsaie_sp_on_the_adaptive_base(case_id):
    a = get_case(case_id).build()
    base = adaptive_pattern(a)
    with trace.collecting() as collector:
        setup = setup_fspai_cache_extended(a, PLACEMENT)
    g, flops = algorithm4(a, base, ("lower",), 0.01)
    assert g_bytes(setup.g) == g_bytes(g)
    assert setup.flops == {"adaptive": 9 * setup_flops_direct(base), **flops}
    # One setup span, and the adaptive growth runs inside it.
    (root,) = collector.roots
    assert root.name == "fsai.setup" and root.attrs["method"] == "fspai_ext"
    assert root.total_counters()["fsai.adaptive_steps"] > 0


def test_campaign_case_shares_the_prefix():
    """FSAIE(sp) and FSAIE(full) at four filters: one first extension and
    precalc per case, one first filter per filter value."""
    config = ExperimentConfig()
    with trace.collecting():
        result = run_case(get_case(72), config)
    spans = Counter(s.name for s in result.trace_summary.iter_spans())
    assert spans["fsai.setup"] == 9
    assert spans["fsai.extension"] == 5
    assert spans["fsai.precalc"] == 5
    assert spans["fsai.filtering"] == 8
    assert spans["fsai.frobenius"] == 9
    # The orchestrator's LPT weight counts the same passes.
    passes = sweep_passes(config.methods, config.filters)
    assert passes == spans["fsai.precalc"] + spans["fsai.frobenius"] - 1


def test_extra_pairs_and_duplicates_build_once():
    a = get_case(72).build()
    with trace.collecting() as collector:
        swept = setup_fsaie_sweep(
            a, PLACEMENT, ["fsaie_sp"], [0.01, 0.01],
            extra=[("fsaie_full", 0.01), ("fsaie_sp", 0.01)],
        )
    assert list(swept) == [("fsaie_sp", 0.01), ("fsaie_full", 0.01)]
    names = Counter(s.name for s in collector.roots)
    assert names == {"fsai.setup": 2}


def test_unknown_method_raises_before_building():
    a = get_case(72).build()
    with trace.collecting() as collector:
        with pytest.raises(ConfigurationError, match="gsai_st"):
            setup_fsaie_sweep(a, PLACEMENT, ["fsaie_sp", "gsai_st"], FILTERS)
    assert not collector.roots
