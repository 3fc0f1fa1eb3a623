"""Pure-numpy matrix-profile kernels (single-series; no Ray).

These run inside the per-conversation Ray Data stages (one task per packed
block, ``stages.profile_stage.per_block``); they are
exhaustively tested against the brute-force oracle before distribution
(SURVEY.md §7.1 M2).
"""
