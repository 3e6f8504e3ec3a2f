"""Compare transmission policies on the baseline scenario.

Solves the perfect-knowledge optimum, searches the best two-subset policy
for a device that only sees LOW/HIGH, derives the two heuristics, and
checks everything against the storage-aware throughput bound and a
Monte Carlo simulation.

Run:  python demos/baseline_policies.py   (about 2 s on a 2-core Xeon VM)
"""

from ehpolicy import (
    ActionSet,
    BatteryModel,
    ConstantEfficiency,
    IdentityConsumption,
    LogSnrReward,
    Partition,
    QuadraticCapacitor,
    derive_bp,
    derive_lcp,
    evaluate_policy,
    make_truncated_geometric,
    search_partition_policy,
    simulate,
    solve_perfect_soc,
    upper_bound,
)

battery = BatteryModel(e_max=100, efficiency=QuadraticCapacitor(1.05))
arrivals = make_truncated_geometric(20.0, 50)
reward = LogSnrReward(0.01)
cons = IdentityConsumption()
actions = ActionSet(tuple(range(101)))
partition = Partition.uniform(100, 2)


def gain(policy):
    return evaluate_policy(battery, arrivals, cons, reward, policy)


print("Perfect charge knowledge: policy iteration over 101 actions...")
perfect = solve_perfect_soc(battery, arrivals, cons, reward, actions)
print(f"  G = {gain(perfect):.5f}")
print("  sample of the policy (state -> transmit power):")
for e in (0, 10, 25, 50, 75, 100):
    print(f"    {e:3d} -> {perfect.actions[e]}")
print()

print("Coarse LOW/HIGH observation: exhaustive search over 101^2 pairs...")
result = search_partition_policy(battery, arrivals, cons, reward, actions, partition)
low, high = result.best_policy.actions
print(f"  best pair (LOW, HIGH) = ({low}, {high}),  G = {result.best_reward:.5f}")
print(f"  evaluated {result.evaluated_count} candidate policies")
print()

bound = upper_bound(battery, arrivals, reward)
print("Heuristics that avoid the search entirely:")
lcp = derive_lcp(perfect, cons, partition, actions)
bp = derive_bp(partition, bound, actions, cons)
print(f"  low-complexity (averages the perfect policy): {lcp.actions}, "
      f"G = {gain(lcp):.5f}")
print(f"  balanced (idle when LOW, mean storable when HIGH): {bp.actions}, "
      f"G = {gain(bp):.5f}")
print()

print("Storage-aware throughput bound:")
print(f"  mean storable harvest  = {bound.b_bar_s:.4f} quanta "
      f"(raw mean {arrivals.mean_b:.1f})")
print(f"  G_ub     = {bound.g_ub:.5f}")
print(f"  g(mean)  = {bound.g_ideal:.5f}   (lossless-battery ceiling)")
print()

print("Why the battery model matters: the best LOW/HIGH policy for a")
print("lossless battery, applied to the real one, traps near empty.")
ideal = BatteryModel(e_max=100, efficiency=ConstantEfficiency(1.0))
naive = search_partition_policy(ideal, arrivals, cons, reward, actions,
                                partition).best_policy
print(f"  lossless-optimal pair = {naive.actions},  G on the real battery = "
      f"{gain(naive):.5f}")
print()

print("Monte Carlo cross-check of the searched policy (10^6 frames):")
report = simulate(battery, arrivals, cons, reward, result.best_policy,
                  frames=10 ** 6, seed=1)
print(f"  empirical G = {report.empirical_reward:.5f} "
      f"+/- {report.std_error:.5f}  (analytic {result.best_reward:.5f})")
