//! Declarative SLO specs evaluated into a [`HealthReport`].
//!
//! An [`SloSpec`] states bounds — p99 latency, error rate, replica lag —
//! and [`SloSpec::evaluate`] grades a set of windowed observations
//! ([`HealthInputs`]) against them: within bound is [`Healthy`], over
//! bound is [`Degraded`], and over bound by
//! [`SloSpec::critical_factor`]× is [`Critical`], each violation carrying
//! a human-readable reason. Missing observations (no traffic in the
//! window, no replicas) never violate — absence of evidence is not an
//! outage.
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

/// A declarative SLO: bounds are opt-in (`None` never violates).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Upper bound on windowed p99 latency, microseconds.
    pub max_p99_us: Option<u64>,
    /// Upper bound on the windowed error rate (errors per query, 0..=1).
    pub max_error_rate: Option<f64>,
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
            max_p99_us: None,
            max_error_rate: None,
            max_lag: None,
            critical_factor: 2.0,
        }
    }
}

/// Windowed observations an [`SloSpec`] grades. `None` means "no
/// evidence" (empty window, unreplicated deployment) and never violates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthInputs {
    /// Windowed p99 latency, microseconds.
    pub p99_us: Option<u64>,
    /// Windowed error rate (errors per query).
    pub error_rate: Option<f64>,
    /// Worst current replica lag (or inter-shard commit skew), LSNs.
    pub lag: Option<u64>,
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
    /// A healthy report with no reasons.
    pub fn healthy() -> HealthReport {
        HealthReport::default()
    }

    /// Fold another violation in, keeping the worst status.
    pub fn push(&mut self, status: HealthStatus, reason: String) {
        self.status = self.status.max(status);
        self.reasons.push(reason);
    }

    /// Fold a whole report in (worst status wins, reasons concatenate).
    pub fn merge(&mut self, other: &HealthReport) {
        self.status = self.status.max(other.status);
        self.reasons.extend(other.reasons.iter().cloned());
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
    fn grade(&self, observed: f64, bound: f64) -> Option<HealthStatus> {
        if observed <= bound {
            return None;
        }
        Some(if observed >= bound * self.critical_factor {
            HealthStatus::Critical
        } else {
            HealthStatus::Degraded
        })
    }

    /// Grade a set of windowed observations against this spec.
    pub fn evaluate(&self, inputs: &HealthInputs) -> HealthReport {
        let mut report = HealthReport::healthy();
        if let (Some(p99), Some(bound)) = (inputs.p99_us, self.max_p99_us) {
            if let Some(status) = self.grade(p99 as f64, bound as f64) {
                report.push(status, format!("p99 {p99}us exceeds SLO {bound}us"));
            }
        }
        if let (Some(rate), Some(bound)) = (inputs.error_rate, self.max_error_rate) {
            if let Some(status) = self.grade(rate, bound) {
                report.push(
                    status,
                    format!("error rate {rate:.4} exceeds SLO {bound:.4}"),
                );
            }
        }
        if let (Some(lag), Some(bound)) = (inputs.lag, self.max_lag) {
            if let Some(status) = self.grade(lag as f64, bound as f64) {
                report.push(status, format!("lag {lag} lsns exceeds SLO {bound}"));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            max_p99_us: Some(1_000),
            max_error_rate: Some(0.01),
            max_lag: Some(10),
            critical_factor: 2.0,
        }
    }

    #[test]
    fn within_bounds_is_healthy() {
        let report = spec().evaluate(&HealthInputs {
            p99_us: Some(1_000),
            error_rate: Some(0.01),
            lag: Some(10),
        });
        assert_eq!(report.status, HealthStatus::Healthy);
        assert!(report.reasons.is_empty());
    }

    #[test]
    fn missing_evidence_never_violates() {
        let report = spec().evaluate(&HealthInputs::default());
        assert_eq!(report.status, HealthStatus::Healthy);
    }

    #[test]
    fn over_bound_degrades_and_critical_factor_escalates() {
        let degraded = spec().evaluate(&HealthInputs {
            p99_us: Some(1_500),
            ..HealthInputs::default()
        });
        assert_eq!(degraded.status, HealthStatus::Degraded);
        assert_eq!(degraded.reasons.len(), 1);

        let critical = spec().evaluate(&HealthInputs {
            p99_us: Some(2_000),
            error_rate: Some(0.015),
            ..HealthInputs::default()
        });
        assert_eq!(critical.status, HealthStatus::Critical, "worst grade wins");
        assert_eq!(critical.reasons.len(), 2);
    }

    #[test]
    fn unspecified_bounds_never_violate() {
        let spec = SloSpec::default();
        let report = spec.evaluate(&HealthInputs {
            p99_us: Some(u64::MAX),
            error_rate: Some(1.0),
            lag: Some(u64::MAX),
        });
        assert_eq!(report.status, HealthStatus::Healthy);
    }

    #[test]
    fn report_display_and_merge() {
        let mut a = HealthReport::healthy();
        assert_eq!(a.to_string(), "healthy");
        a.push(HealthStatus::Degraded, "slow".into());
        let mut b = HealthReport::healthy();
        b.push(HealthStatus::Critical, "fenced".into());
        a.merge(&b);
        assert_eq!(a.status, HealthStatus::Critical);
        assert_eq!(a.to_string(), "critical (slow; fenced)");
    }
}
