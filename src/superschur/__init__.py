"""Exact hook-Schur multiplicities, constant-term residues, and Poincare
series for hook tensor sums, with machine verification suites."""

from .characters import (class_size, default_cache, kronecker, m_bar_lambda,
                         m_lambda, mn_character)
from .hookschur import (Alphabet, hook_schur_def, hook_schur_eval,
                        hook_schur_factorized, hook_schur_jp)
from .laurent import InexactError, LaurentPoly, VarTable, divide_exact
from .partitions import (Hook, HookClass, Partition, classify_hook,
                         conjugate, enumerate_partitions, parse_partition,
                         typical_split)
from .poincare import (budzik_suite, check_derivative_relation, lemmas_suite,
                       multiplicity, p_series, univariate_coefficients,
                       verify_budzik)
from .qseries import (TruncatedSeries, check_limit_identity,
                      closed_form_series, expand_product, gf_partitions,
                      qidentities_suite)
from .residue import (constant_term_by_kernel, constant_term_with_delta,
                      delta_numerator, inner_product, m_bar_prime_residue,
                      m_prime_residue, residue_table, z_alphabets)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
