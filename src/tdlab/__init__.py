"""tdlab: the linear TD(lambda) family, its forward-view oracles, and a
deterministic benchmark harness for random Markov reward processes."""

from .core import (
    ConfigError,
    Trajectory,
    Transition,
    dot,
    stack_action_features,
)
from .envs import (
    Mdp,
    Mrp,
    Representation,
    TileCoderConfig,
    build_representation,
    canonical_task,
    generate_mdp,
    generate_mrp,
    sample_step,
    stationary_distribution,
    tile_code,
    true_values,
)
from .algos import (
    AccumulateTD,
    ReplaceTD,
    TabularTrueOnlineTD,
    TrueOnlineTD,
    TrueOnlineTDAlphaT,
    TrueOnlineWatkinsQ,
    epsilon_greedy,
    make_prediction_learner,
    run_control_episode,
    run_episode,
)
from .oracle import (
    accumulating_trace_nonrecursive,
    interim_lambda_return,
    n_step_return,
    offline_lambda_return,
    offline_lambda_return_algorithm,
    online_lambda_return_algorithm,
    prop2_condition_holds,
    theorem1_ratio,
    watkins_interim_target,
)
from .harness import (
    EquivalenceReport,
    SweepConfig,
    SweepResult,
    best_per_lambda,
    certify_equivalence,
    paper_alpha_grid,
    paper_lambda_grid,
    run_sweep,
    run_sweeps,
    sweep_to_csv,
)
from .rng import SplitMix64, mix64

__version__ = "0.2.0"
