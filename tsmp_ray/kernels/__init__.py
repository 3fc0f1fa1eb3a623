"""Pure-numpy matrix-profile kernels (single-series; no Ray).

These run inside the per-conversation Ray Data stages (one task per packed
block, ``stages.profile_stage.per_block``); they are
exhaustively tested against the brute-force oracle before distribution
(SURVEY.md §7.1 M2).
"""

from .brute import brute_dist_profile, brute_mp
from .mass import MassPre, clean_series, dist_profile, mass_pre, mass_v2, mass_v3
from .mpx import MpxState, mpx, mpx_diagonals, prepare_series
from .mstomp import MultiMatrixProfile, mstomp
from .profile_types import MatrixProfile, empty_profile, merge_min
from .scrimp import scrimp, stamp
from .simple import simple_fast
from .stomp import stomp
from .stompi import StreamingProfile

__all__ = [
    "MassPre", "MatrixProfile", "MpxState", "MultiMatrixProfile",
    "StreamingProfile", "brute_dist_profile", "brute_mp", "clean_series",
    "dist_profile", "empty_profile", "mass_pre", "mass_v2", "mass_v3",
    "merge_min", "mpx", "mpx_diagonals", "mstomp", "prepare_series",
    "scrimp", "simple_fast", "stamp", "stomp",
]
