"""Complete integer factorization from one multiplicative order.

The package splits into arithmetic primitives (:mod:`ordersplit.ntcore`),
instance generation and order finding (:mod:`ordersplit.oracle`), the
factor-recovery engine (:mod:`ordersplit.engine`), a Monte-Carlo experiment
harness (:mod:`ordersplit.harness`) and a CLI (:mod:`ordersplit.cli`).
"""

from ordersplit.engine import (
    FactorOutcome,
    Factorization,
    FactorSet,
    GuessedExponent,
    RecoveryResult,
    ShorOutcome,
    choose_k,
    factor_with_order,
    guess_multiple,
    recover_factors,
    shor_split,
    split_two_adic,
    theoretical_failure_bound,
)
from ordersplit.harness import (
    CellReport,
    ExperimentConfig,
    cell_passes,
    run_cell,
    run_grid,
    run_shor_baseline_cell,
    write_csv,
    write_json,
)
from ordersplit.ntcore import (
    eta,
    integer_nth_root,
    is_probable_prime,
    multiplicative_order,
    perfect_power_reduce,
    primes_up_to,
    small_prime_divisors,
)
from ordersplit.oracle import (
    InfeasibleParametersError,
    Instance,
    OrderResult,
    exact_order,
    generate_instance,
    sample_unit,
    simulate_order,
)

__version__ = "0.1.0"

__all__ = [
    "CellReport",
    "ExperimentConfig",
    "FactorOutcome",
    "Factorization",
    "FactorSet",
    "GuessedExponent",
    "InfeasibleParametersError",
    "Instance",
    "OrderResult",
    "RecoveryResult",
    "ShorOutcome",
    "cell_passes",
    "choose_k",
    "eta",
    "exact_order",
    "factor_with_order",
    "generate_instance",
    "guess_multiple",
    "integer_nth_root",
    "is_probable_prime",
    "multiplicative_order",
    "perfect_power_reduce",
    "primes_up_to",
    "recover_factors",
    "run_cell",
    "run_grid",
    "run_shor_baseline_cell",
    "sample_unit",
    "shor_split",
    "simulate_order",
    "small_prime_divisors",
    "split_two_adic",
    "theoretical_failure_bound",
    "write_csv",
    "write_json",
]
