"""Higher-order quantum-inspired genetic algorithms.

Registers of r qubits model joint distributions over r-bit gene groups;
observation samples classical individuals and a contraction operator pulls
the registers toward the best individual found so far.  Includes an order-1
rotation-gate baseline, a classical GA, MAX-SAT and synthetic problems, an
experiment harness and a contraction-factor tuner.
"""

from .algorithms import (
    Qiga1Config,
    QigaConfig,
    RunResult,
    SgaConfig,
    contraction_update,
    default_rotation_table,
    qiga1_evolve,
    qiga_evolve,
    sga_evolve,
    single_point_crossover,
    update_quantum_population,
)
from .core import (
    BitString,
    QuantumChromosome,
    QuantumRegister,
    RandomSource,
    bits_from_string,
    bits_to_group,
    bits_to_string,
    chromosome_layout,
    chromosome_uniform,
    group_to_bits,
    observe_chromosome,
    observe_register,
    observe_register_many,
    register_basis,
    register_uniform,
)
from .harness import (
    AlgorithmSpec,
    CellResult,
    ExperimentPlan,
    ExperimentResult,
    ProblemSpec,
    RankingTable,
    RunRecord,
    export_aggregate_csv,
    export_all,
    export_convergence_svg,
    export_ranking_csv,
    export_runs_csv,
    rank_algorithms,
    run_experiment,
)
from .metaopt import TuningResult, TuningSpec, export_tuning_csv, tune
from .problems import (
    BlockTable,
    CnfFormula,
    DimacsParseError,
    FitnessFunction,
    MaxSat,
    generate_uniform_3sat,
    load_problem,
    onemax,
    pair_trap,
    parse_dimacs,
    to_dimacs,
)
from .theory import (
    AlgorithmClass,
    OrderProfile,
    classify,
    log2_quantum_factor,
    order_profile,
    profile_grid,
    quantum_factor,
    relative_order,
)

__version__ = "0.1.0"
