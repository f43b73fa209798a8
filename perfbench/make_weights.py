"""Write the seeded random dense-network weights (390 -> 64 -> 64 -> 2).

Usage: python3 make_weights.py OUT_JSON SEED
"""

import sys

from sweepnav.estimator import make_random_bundle, save_weights

if __name__ == "__main__":
    save_weights(make_random_bundle(tau=64, seed=int(sys.argv[2])), sys.argv[1])
