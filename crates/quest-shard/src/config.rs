//! Shard-set configuration.

use crate::error::ShardError;

/// Upper bound on the shard count: beyond this, per-shard fixed costs
/// dwarf any per-query win at this engine's scale.
pub const MAX_SHARD_COUNT: usize = 1024;

/// How a [`ShardedStore`](crate::ShardedStore) is partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of hash partitions. Valid range `1..=MAX_SHARD_COUNT`
    /// (1 = a single partition, useful as the degenerate identity case);
    /// 0 is rejected by [`ShardConfig::validate`] — a zero-shard set would
    /// serve every query from no data.
    pub shard_count: usize,
    /// Run *data-proportional* work on scoped threads: the per-shard index
    /// builds (one thread per shard), and the full statistics rebuild and
    /// the full-table `execute` scatter (their slots chunked over
    /// `available_parallelism()` threads, the calling thread taking the
    /// first chunk). Results are always merged in index order, so this knob
    /// changes wall-clock time and nothing else — bit-identity holds either
    /// way.
    ///
    /// It does **not** govern keyword probes: a probe scatter
    /// ([`ShardedStore::scatter_value_scores`](crate::ShardedStore::scatter_value_scores))
    /// is a few hash lookups per shard, cheaper than creating one thread,
    /// so it always runs inline on the calling thread.
    pub parallel: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shard_count: 4,
            parallel: true,
        }
    }
}

impl ShardConfig {
    /// A config with `shard_count` partitions and parallel builds enabled.
    pub fn new(shard_count: usize) -> ShardConfig {
        ShardConfig {
            shard_count,
            ..ShardConfig::default()
        }
    }

    /// Reject out-of-range shard counts. `shard_count = 0` is the important
    /// case: it would partition every row into nothing and serve every
    /// query from no data, so it is a configuration error, not a degenerate
    /// success.
    pub fn validate(&self) -> Result<(), ShardError> {
        if self.shard_count == 0 {
            return Err(ShardError::Config(format!(
                "shard_count = 0 would serve every query from no data; \
                 valid range is 1..={MAX_SHARD_COUNT} (1 = unsharded)"
            )));
        }
        if self.shard_count > MAX_SHARD_COUNT {
            return Err(ShardError::Config(format!(
                "shard_count = {} exceeds the maximum of {MAX_SHARD_COUNT}",
                self.shard_count
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shard_count_rejected() {
        let err = ShardConfig::new(0).validate().unwrap_err();
        assert!(err.to_string().contains("shard_count = 0"));
        for ok in [1, 2, 16, MAX_SHARD_COUNT] {
            assert!(ShardConfig::new(ok).validate().is_ok());
        }
        assert!(ShardConfig::new(MAX_SHARD_COUNT + 1).validate().is_err());
    }
}
