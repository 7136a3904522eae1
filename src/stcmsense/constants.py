"""Physical constants and shared numeric conventions."""

SPEED_OF_LIGHT = 299792458.0  # m/s

# Condition number above which an information matrix is treated as singular
# and the corresponding bound is masked instead of inverted.
CONDITION_LIMIT = 1e12

# Largest map lattice an experiment may allocate (the default 160 m x 100 m
# scene holds about 16k cells at 1 m and 1M cells at 0.125 m).
MAX_GRID_CELLS = 1_000_000

# Most Monte-Carlo trials per classify-mc row.  A class holds four float64
# draws per trial plus one row's temporaries, about 52 B a trial, so this
# caps a class at about 0.5 GB.
MAX_TRIALS = 10_000_000

# Most bytes each group of model arrays may take, checked before any is
# allocated (``config._check_across``): the M x M pilot block with its Gram,
# the per-element code and profile, one chunk of harmonic-pattern temporaries.
MAX_MODEL_BYTES = 2**28
