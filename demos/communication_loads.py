"""Measure communication loads across system sizes and print the comparison table.

Dropout-free runs hit the closed forms exactly: (n-1)(t+d+1) directed user
messages, t+d+1 server uploads of which only t+1 are needed, and a per-user
outbound volume of (t+d+1) * model_len field elements.
"""

import random
import warnings

from swiftagg import (
    AdversaryConfig,
    DropoutPlan,
    FieldSpec,
    ProtocolParams,
    simulate,
    table1_analytic,
)
from swiftagg.protocol import CollusionBoundWarning

warnings.filterwarnings("ignore", category=CollusionBoundWarning)

field = FieldSpec(101)
rng = random.Random(0)

print(f"{'n':>4} {'t':>2} {'d':>2} | {'user msgs':>9} {'formula':>8} | {'uploads':>7} {'needed':>6}")
for n, t, d in [(4, 1, 0), (6, 1, 1), (12, 2, 1), (18, 2, 3), (24, 3, 2)]:
    params = ProtocolParams(n, t, d, 4, field)
    models = [field.vector([rng.randrange(101) for _ in range(4)]) for _ in range(n)]
    result = simulate(params, models, DropoutPlan.none(), AdversaryConfig.none(), seed=n)
    nu = params.group_size
    print(
        f"{n:>4} {t:>2} {d:>2} | {result.metrics.user_to_user_msgs:>9} {(n - 1) * nu:>8}"
        f" | {result.metrics.server_msgs:>7} {t + 1:>6}"
    )

print()
print("load comparison for t=2, d=1, model_len=10:")
for row in table1_analytic(ProtocolParams(12, 2, 1, 10, field)):
    print(f"  {row['approach']:<12} server={row['server_comm']!s:<28} per-user={row['per_user_comm']}")
