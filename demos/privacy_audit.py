"""Exhaustively audit what an adversary learns, then break the scheme on purpose.

Each check enumerates every model and noise assignment on a tiny instance,
runs the real protocol, and compares exact view counts.  The negative
controls show the checks have teeth: with the masking noise removed, a
colluder's view pins its groupmate's model, and copying one group's noise
into the next makes the sequence-noise chain perfectly dependent.
"""

import json
import time
import warnings

from swiftagg.privacy_oracle import (
    check_conditional_independence,
    check_noise_chain_independence,
    default_instances,
    enumerate_views,
)
from swiftagg.protocol import CollusionBoundWarning

warnings.filterwarnings("ignore", category=CollusionBoundWarning)

instances = default_instances()

for instance in instances:
    start = time.perf_counter()
    dist = enumerate_views(instance)
    result = check_conditional_independence(dist)
    print(f"{instance.label}: {result.to_json()['verdict']}"
          f" ({instance.enumeration_size} assignments in {len(dist.views)} runs,"
          f" {time.perf_counter() - start:.2f}s)")

print()
print("negative control: same colluder instance, noise zeroed")
broken = check_conditional_independence(enumerate_views(instances[1], zero_noise=True))
print(json.dumps(broken.to_json(), indent=2))

print()
print("negative control: group 2 reuses group 1's noise")
chain = check_noise_chain_independence(instances[1], copy_previous_group_noise=True)
print(json.dumps(chain.to_json(), indent=2))
