//! Declarative SLO specs evaluated into a [`HealthReport`].
//!
//! An [`SloSpec`] bounds replica lag (or, for a sharded gateway, commit
//! skew) and [`SloSpec::evaluate`] grades an observed lag against it:
//! within bound is [`Healthy`], over bound is [`Degraded`], and over bound
//! by [`SloSpec::critical_factor`]× is [`Critical`], with a human-readable
//! reason. A missing observation (no replicas, no serving shard) never
//! violates — absence of evidence is not an outage.
//!
//! Health monitoring is **strictly observational**: nothing in this module
//! (or in the topology reports that surface it) feeds back into routing,
//! admission, or any serving decision. The replica and shard suites pin
//! that: grading a topology changes no served result.
//!
//! [`Healthy`]: HealthStatus::Healthy
//! [`Degraded`]: HealthStatus::Degraded
//! [`Critical`]: HealthStatus::Critical

/// Graded service health, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthStatus {
    /// Every bound holds.
    #[default]
    Healthy,
    /// At least one bound is exceeded, none critically.
    Degraded,
    /// At least one bound is exceeded by the critical factor (or a hard
    /// failure — a fenced shard, a poisoned WAL — was reported).
    Critical,
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        })
    }
}

/// A declarative SLO: the bound is opt-in (`None` never violates).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Upper bound on replica lag (LSNs behind the primary) — or, for a
    /// sharded gateway, on the commit skew between shards.
    pub max_lag: Option<u64>,
    /// Exceeding a bound by this factor grades [`HealthStatus::Critical`]
    /// instead of [`HealthStatus::Degraded`].
    pub critical_factor: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            max_lag: None,
            critical_factor: 2.0,
        }
    }
}

/// The graded outcome: a status plus one reason per violated bound.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Worst grade across every violated bound.
    pub status: HealthStatus,
    /// One human-readable reason per violation (empty when healthy).
    pub reasons: Vec<String>,
}

impl HealthReport {
    /// Fold another violation in, keeping the worst status.
    pub fn push(&mut self, status: HealthStatus, reason: String) {
        self.status = self.status.max(status);
        self.reasons.push(reason);
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.status)?;
        if !self.reasons.is_empty() {
            write!(f, " ({})", self.reasons.join("; "))?;
        }
        Ok(())
    }
}

impl SloSpec {
    /// Grade `lag`, the worst current replica lag (or inter-shard commit
    /// skew) in LSNs; `None` is no evidence and never violates.
    pub fn evaluate(&self, lag: Option<u64>) -> HealthReport {
        let mut report = HealthReport::default();
        let (Some(lag), Some(bound)) = (lag, self.max_lag) else {
            return report;
        };
        if lag > bound {
            let status = if lag as f64 >= bound as f64 * self.critical_factor {
                HealthStatus::Critical
            } else {
                HealthStatus::Degraded
            };
            report.push(status, format!("lag {lag} lsns exceeds SLO {bound}"));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            max_lag: Some(10),
            critical_factor: 2.0,
        }
    }

    #[test]
    fn within_bounds_is_healthy() {
        let report = spec().evaluate(Some(10));
        assert_eq!(report.status, HealthStatus::Healthy);
        assert!(report.reasons.is_empty());
    }

    #[test]
    fn missing_evidence_never_violates() {
        let report = spec().evaluate(None);
        assert_eq!(report.status, HealthStatus::Healthy);
    }

    #[test]
    fn over_bound_degrades_and_critical_factor_escalates() {
        let degraded = spec().evaluate(Some(15));
        assert_eq!(degraded.status, HealthStatus::Degraded);
        assert_eq!(degraded.reasons.len(), 1);

        let critical = spec().evaluate(Some(20));
        assert_eq!(critical.status, HealthStatus::Critical);
        assert_eq!(critical.reasons, ["lag 20 lsns exceeds SLO 10"]);
    }

    #[test]
    fn unspecified_bounds_never_violate() {
        let report = SloSpec::default().evaluate(Some(u64::MAX));
        assert_eq!(report.status, HealthStatus::Healthy);
    }

    #[test]
    fn report_display_keeps_the_worst_status() {
        let mut report = HealthReport::default();
        assert_eq!(report.to_string(), "healthy");
        report.push(HealthStatus::Critical, "fenced".into());
        report.push(HealthStatus::Degraded, "slow".into());
        assert_eq!(report.status, HealthStatus::Critical);
        assert_eq!(report.to_string(), "critical (fenced; slow)");
    }
}
