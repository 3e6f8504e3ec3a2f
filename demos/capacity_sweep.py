"""Sweep battery capacity and watch the policies separate.

Small batteries forgive crude policies; large batteries punish the
low-complexity heuristic (it can fall into a zero-reward trap) while the
balanced heuristic stays close to the searched optimum and the bound
closes in on the lossless ceiling.

Run:  python demos/capacity_sweep.py   (about 1 s on a 2-core Xeon VM)
"""

import warnings

from ehpolicy import (
    ActionSet,
    BatteryModel,
    IdentityConsumption,
    LogSnrReward,
    Partition,
    QuadraticCapacitor,
    derive_bp,
    derive_lcp,
    evaluate_policy,
    make_truncated_geometric,
    search_partition_policy,
    solve_perfect_soc,
    upper_bound,
)

arrivals = make_truncated_geometric(20.0, 50)
reward = LogSnrReward(0.01)
cons = IdentityConsumption()
actions = ActionSet(tuple(range(0, 51, 2)))

print(f"{'e_max':>6} {'searched':>9} {'low-cmplx':>10} {'balanced':>9} "
      f"{'bound':>8} {'ceiling':>8}")

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # tiny batteries trip the recharge warning
    for e_max in (10, 20, 30, 50, 100, 150, 200, 300):
        battery = BatteryModel(e_max=e_max, efficiency=QuadraticCapacitor(1.05))
        partition = Partition.uniform(e_max, 2)

        searched = search_partition_policy(
            battery, arrivals, cons, reward, actions, partition).best_reward
        perfect = solve_perfect_soc(battery, arrivals, cons, reward, actions)
        bound = upper_bound(battery, arrivals, reward)

        def gain(policy):
            return evaluate_policy(battery, arrivals, cons, reward, policy)

        g_lcp = gain(derive_lcp(perfect, cons, partition, actions))
        g_bp = gain(derive_bp(partition, bound, actions, cons))

        print(f"{e_max:>6} {searched:>9.5f} {g_lcp:>10.5f} {g_bp:>9.5f} "
              f"{bound.g_ub:>8.5f} {bound.g_ideal:>8.5f}")

print()
print("Notes: the low-complexity column collapses once the LOW subset is so")
print("wide that its averaged action overdraws reachable levels; the bound")
print("column approaches the ceiling because a large battery lets charging")
print("happen near the efficiency peak.")
