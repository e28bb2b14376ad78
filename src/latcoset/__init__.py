"""Lattice coset coding for MIMO wiretap channels.

Analysis of coefficient-space sublattices (index, successive minima,
well-roundedness), Monte-Carlo estimation of the eavesdropper's correct
decoding probability for the two built-in 2x2 ST codes, evaluation of the
truncated determinant-sum bound, and randomized search for well-rounded
sublattices.
"""

__version__ = "0.1.0"

from .catalog import NAMES, builtin_sublattice, canonical_name
from .channel import (ChannelParams, ChannelRealization, NoiseModel, realify,
                      sample_channel, snr_to_sigma, transmit)
from .decoder import DecodingProblem, ml_decode_exhaustive, sphere_decode
from .errors import (CapacityError, CodebookTooLarge, LatcosetError,
                     NoFeasibleCandidate, NotASublattice, RankDeficientChannel,
                     SingularMatrix)
from .lattice import (IntegerLattice, RealLattice, SmithDecomposition,
                      SuccessiveMinima, coset_label, enumerate_shorter_than,
                      gram, index_in_superlattice, is_well_rounded,
                      smith_normal_form, successive_minima, volume)
from .search import (SearchConfig, SearchReport, random_sublattice_with_index,
                     search_wr_sublattice)
from .stcode import (Codeword, PAMAlphabet, STCodeMap, alamouti_map,
                     code_map_by_name, devectorize, first_coding_gain,
                     golden_map, min_determinant, vectorize)
from .wiretap import (BoundReport, CosetCode, DesignReport, ECDPCurve,
                      ECDPPoint, RateReport, bob_cer_monte_carlo, design_report,
                      design_reports, ecdp_bound, ecdp_bound_report, ecdp_bound_reports,
                      ecdp_monte_carlo, message_of, rates, wilson_interval)

__all__ = [
    "__version__",
    # lattice
    "IntegerLattice", "RealLattice", "SuccessiveMinima", "SmithDecomposition",
    "gram", "volume", "enumerate_shorter_than", "successive_minima",
    "is_well_rounded", "index_in_superlattice", "smith_normal_form",
    "coset_label",
    # st codes
    "STCodeMap", "PAMAlphabet", "Codeword", "alamouti_map", "golden_map",
    "code_map_by_name", "vectorize", "devectorize", "min_determinant",
    "first_coding_gain",
    # channel
    "ChannelParams", "ChannelRealization", "NoiseModel", "sample_channel",
    "realify", "transmit", "snr_to_sigma",
    # decoder
    "DecodingProblem", "ml_decode_exhaustive", "sphere_decode",
    # wiretap
    "CosetCode", "RateReport", "ECDPCurve", "ECDPPoint", "BoundReport",
    "DesignReport", "rates", "message_of", "ecdp_monte_carlo",
    "bob_cer_monte_carlo", "ecdp_bound", "ecdp_bound_report", "ecdp_bound_reports",
    "design_report", "design_reports", "wilson_interval",
    # search
    "SearchConfig", "SearchReport", "random_sublattice_with_index",
    "search_wr_sublattice",
    # catalog
    "NAMES", "builtin_sublattice", "canonical_name",
    # errors
    "LatcosetError", "SingularMatrix", "NotASublattice", "CapacityError",
    "CodebookTooLarge", "RankDeficientChannel", "NoFeasibleCandidate",
]
