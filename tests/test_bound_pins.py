"""Value pins of the eavesdropper bound.

Each case compares ``ecdp_bound_reports`` on a catalog sublattice with
values recorded from an earlier build: ``points_used`` must match exactly,
and each value within 1e-12 relative, so a change to the enumeration or to
the closed-form last level that loses a point or moves a sum past its
last bits fails here.  The cases are golden L'1..L'3 at R = 128 (the
benchmark's bound op) and alamouti L1..L3 at R = 256, at sigma_e^2 = 0.5
and 100 in both exponent modes.
"""

import pytest

from latcoset import CosetCode, PAMAlphabet, alamouti_map, builtin_sublattice, golden_map
from latcoset.wiretap import ecdp_bound_reports

SIGMAS = [0.5, 100.0]
MODES = ["pow2n", "pow2"]

#: (family, lattice, truncation, points_used, values in (sigma, mode) order)
CASES = [
    ("golden", "L'1", 128.0, 133718,
     (4.7512543184627055e-07, 3.593471950580041e-05,
      128366.4859074734, 7797.434976191529)),
    ("golden", "L'2", 128.0, 148760,
     (2.2481942764346786e-07, 9.68104649441949e-06,
      142649.75248949835, 8221.678022986192)),
    ("golden", "L'3", 128.0, 159536,
     (8.442754973852439e-08, 4.68500207476802e-06,
      152884.7232617712, 8520.654487781469)),
    ("alamouti", "L1", 256.0, 616,
     (4.305080964492843e-12, 8.689469626785532e-10,
      576.3029759394224, 17.248525769285823)),
    ("alamouti", "L2", 256.0, 624,
     (2.5307137186409386e-13, 5.526862393854459e-11,
      583.3016709069454, 16.78361384495365)),
    ("alamouti", "L3", 256.0, 624,
     (7.568466175726528e-14, 1.715302202264581e-11,
      583.6406324809866, 16.80443459250484)),
]


@pytest.mark.parametrize("family,name,trunc,points,values", CASES)
def test_bound_matches_recorded_values(family, name, trunc, points, values):
    code_map = golden_map() if family == "golden" else alamouti_map()
    c = CosetCode(map=code_map, alphabet=PAMAlphabet(4), sub=builtin_sublattice(name))
    reps = ecdp_bound_reports(c, SIGMAS, MODES, trunc, 2)
    assert [(rep.sigma_e_sq, rep.exponent_mode) for rep in reps] == \
        [(s, m) for s in SIGMAS for m in MODES]
    assert [rep.points_used for rep in reps] == [points] * len(reps)
    assert [rep.value for rep in reps] == pytest.approx(list(values), rel=1e-12)
