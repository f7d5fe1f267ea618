# Fixture: clean counterpart to rpl105_bad.py — the identity case is
# normalized before `shard` is read, and batch=, a chunk size that
# changes no value, is used as it is.


def run_sharded(family, instance, trials, batch=None, shard=None):
    shard = normalize_shard(shard)
    chunks = -(-trials // (batch or trials))
    if shard is None:
        return serial_run(family, instance, trials, chunks)
    return sharded_run(family, instance, trials, chunks, shard)
