# Fixture: triggers RPL105 — `shard` used computationally with no
# identity-case guard, so shard=None never reaches the unsharded path.
# Linted under a virtual src/repro/core/... path by tests/test_lint.py.


def run_sharded(family, instance, trials, shard):
    if shard[1] > 1:
        return sharded_run(family, instance, trials, shard)
    return serial_run(family, instance, trials)
