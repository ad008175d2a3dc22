"""Exhaustively audit what an adversary learns, then break the scheme on purpose.

Each check enumerates every model and noise assignment on a tiny instance,
runs the real protocol, and compares exact view counts.  The negative
controls show the checks have teeth: with the masking noise removed, a
colluder's view pins its groupmate's model, and copying one group's noise
into the next (by patching the oracle's noise enumeration) makes the
sequence-noise chain perfectly dependent.
"""

import json
import time
import warnings
from unittest import mock

from swiftagg import privacy_oracle
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
          f" ({instance.enumeration_size} assignments over {len(dist.views)}"
          f" honest-model assignments,"
          f" {time.perf_counter() - start:.2f}s)")

print()
print("negative control: same colluder instance, noise zeroed")
broken = check_conditional_independence(enumerate_views(instances[1], zero_noise=True))
print(json.dumps(broken.to_json(), indent=2))

print()
print("negative control: group 2 reuses group 1's noise")
real_enumerated = privacy_oracle._enumerated
first_group = instances[1].params.group_size * instances[1].params.t


def copied_noise(spec, slots, zero_noise=False):
    # Noise slot i is user i // t + 1's; every group takes group 1's slots.
    own = real_enumerated(spec, first_group, zero_noise)
    return tuple(own[i % first_group] for i in range(slots))


with mock.patch.object(privacy_oracle, "_enumerated", copied_noise):
    chain = check_noise_chain_independence(instances[1])
print(json.dumps(chain.to_json(), indent=2))
