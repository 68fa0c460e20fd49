"""shiftlab: pattern statistics, local-lemma certification, and resampling
dynamics for the integers acting on Z/M by translation."""

__version__ = "0.1.0"

from .groups import (GroupError, GroupSet, CyclicTranslation, integer_interval,
                     set_product)
from .shift import (BoundaryError, Config, Pattern, PatternStats, all_patterns,
                    as_fraction, empirical_freq, occurrences)
from .concentration import (McEstimate, concentration_bound, mc_deviation_prob,
                            scb_bound, wilson_interval)
from .lll import (BadEvent, CertificationError, ExplicitEvent,
                  FrequencyDeviationEvent, GLLLWitnessSpec, InstanceStats,
                  check_glll_witness, event_probability_exact,
                  find_log_growth_constant, find_slll_threshold, slll_stats)
from .moser_tardos import (MTResult, TapeSpace, resample_fraction, run_mt,
                           stabilization_ledger, tape_consistency)
from .ergodic import (ConvergenceReport, ergodic_convergence_experiment,
                      log_growth_size, near_invariant_measure,
                      periodic_cylinder_table, uniform_discrepancy_experiment)
from .rokhlin import (BadIntervalPlan, TowerSystem, bad_sequence_experiment,
                      build_tower, plan_intervals, verify_capture)
