"""Chained Bell experiment simulator and hidden-variable model tester.

The toolkit evaluates the 2N-term chained sum of two-party conditional
distributions, builds the quantum tables that minimize it, checks
non-signaling, measures how much any hidden-variable model's outcomes can
depend on local hidden variables, and runs finite-statistics experiments
that certify an upper bound on that dependence.
"""

from .chained import (
    BiasedChainLP,
    BruteForceResult,
    ChainScore,
    DeterministicStrategy,
    chain_pairs,
    classical_min_chain_value,
    evaluate_chain,
    lp_min_chain_given_bias,
    noisy_chain_closed_form,
)
from .distributions import (
    ConditionalDistribution,
    NonSignalingReport,
    assert_nonsignaling,
    read_json_file,
    write_json_file,
)
from .experiment import (
    EstimateReport,
    MissingSettingPairError,
    estimate_chain_value,
    estimate_from_counts,
    read_shots_csv,
    sample_counts,
    simulate_shots,
    simulate_shots_csv,
)
from .hvm import (
    HiddenVariableModel,
    LocalityReport,
    chain_table,
    inplane_grid,
    leggett_model,
    local_deterministic_model,
    locality_bound_check,
    locality_cap,
    locality_measure,
    model_from_dict,
    model_from_json_file,
    nonlocal_qm_model,
    sampled_xu_table,
    xu_table,
)
from .quantum import qm_chained_distribution

__version__ = "0.1.0"
