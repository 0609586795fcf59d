"""Desk-scale computational laboratory for the pattern {x+y, xy}.

Subpackages cover the exact number-theory kernel, logarithmic averaging
and its defect suites, progression projections and bias norms, the
diophantine exponential-sum lab, the Selberg-majorant band decomposition,
colorings with monochromatic-pattern detection, and exact threshold
search.
"""

__version__ = "0.1.0"

from .averages import DefectRecord, SampledFunction, log_avg, uniform_avg
from .coloring import (Coloring, PatternWitness, RichnessConfig,
                       extremal_coloring, find_monochromatic, richness_scan)
from .diophantine import (AlmostPrimeFamily, DiophParams, DiophReport,
                          concat_conclusion_search, concat_hypothesis,
                          dioph_verify, exp_sum, gamma_coprimality,
                          vino_verify, vonmangoldt_exp_sum,
                          weyl_structure_scan)
from .errors import CapacityError, DomainError, RangeError
from .numtheory import (MultiplicativeTables, PrimeTable, RationalApprox,
                        best_rational_approx, harmonic, mertens_sum,
                        ramanujan_sum, sieve_primes)
from .projections import (NormParams, almost_period_defect, maximal_lower,
                          norm_compare_defect, proj_check_defect, project,
                          pythagoras_defect, u1_norm, u1log_norm)
from .search import (PatternGraph, SearchCertificate, ThresholdResult,
                     colorability, pattern_graph, sp_number)
from .sieve import (BandDecomposition, SieveCoefficients, band_decompose,
                    ramanujan_expand, selberg_majorant, verify_sieve_bounds)
