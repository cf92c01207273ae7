//! The per-run correctness check and the outcome digest.

use flowmig_core::StrategyKind;
use flowmig_engine::EngineStats;
use flowmig_metrics::{MigrationMetrics, TraceLog};
use std::fmt::{self, Write as _};

/// Checks one run's outcome. Every run must complete; a run of a
/// DCR/CCR-family strategy must also drop no event and replay no root.
/// DSM is the paper's unreliable baseline: it drops and replays by design.
///
/// # Errors
///
/// Returns the reason the run failed.
pub fn check_run(kind: StrategyKind, completed: bool, stats: &EngineStats) -> Result<(), String> {
    if !completed {
        return Err("migration did not complete before the horizon".to_owned());
    }
    if kind != StrategyKind::Dsm {
        if stats.events_dropped > 0 {
            return Err(format!("{kind} dropped {} events", stats.events_dropped));
        }
        if stats.replayed_roots > 0 {
            return Err(format!("{kind} replayed {} roots", stats.replayed_roots));
        }
    }
    Ok(())
}

/// FNV-1a (64-bit) over a byte stream; `write!` feeds it without
/// allocating.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Feeds one run's outcome into `digest`: the engine counters without
/// their host-time field, the §4 metrics, and every trace event.
pub fn digest_outcome(
    digest: &mut Digest,
    stats: &EngineStats,
    metrics: &MigrationMetrics,
    trace: &TraceLog,
) {
    // `worker_busy_us` is host wall time; every other counter is simulated.
    let simulated = EngineStats { worker_busy_us: 0, ..*stats };
    let _ = write!(digest, "{simulated:?}{metrics:?}");
    for event in trace.iter() {
        let _ = write!(digest, "{event:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> EngineStats {
        EngineStats { roots_generated: 100, events_processed: 900, ..EngineStats::default() }
    }

    #[test]
    fn a_reliable_strategy_with_one_dropped_event_fails() {
        let dropped = EngineStats { events_dropped: 1, ..stats() };
        assert!(check_run(StrategyKind::Dcr, true, &stats()).is_ok());
        let err = check_run(StrategyKind::Dcr, true, &dropped).unwrap_err();
        assert!(err.contains("dropped 1"), "{err}");
        assert!(check_run(StrategyKind::CcrPipelined, true, &dropped).is_err());
    }

    #[test]
    fn dsm_may_drop_and_replay() {
        let lossy = EngineStats { events_dropped: 40, replayed_roots: 7, ..stats() };
        assert!(check_run(StrategyKind::Dsm, true, &lossy).is_ok());
    }

    #[test]
    fn replayed_roots_fail_a_reliable_strategy() {
        let replayed = EngineStats { replayed_roots: 1, ..stats() };
        assert!(check_run(StrategyKind::Ccr, true, &replayed).is_err());
    }

    #[test]
    fn an_incomplete_run_fails_for_every_strategy() {
        for kind in StrategyKind::ALL {
            assert!(check_run(kind, false, &stats()).is_err(), "{kind}");
        }
    }

    fn digest_of(stats: &EngineStats) -> u64 {
        let mut d = Digest::new();
        digest_outcome(&mut d, stats, &MigrationMetrics::default(), &TraceLog::new());
        d.finish()
    }

    #[test]
    fn the_digest_ignores_host_time_fields() {
        let timed = EngineStats { worker_busy_us: 123_456, ..stats() };
        assert_eq!(digest_of(&stats()), digest_of(&timed));
    }

    #[test]
    fn the_digest_sees_simulated_counters() {
        let other = EngineStats { events_processed: 901, ..stats() };
        assert_ne!(digest_of(&stats()), digest_of(&other));
        let stalls = EngineStats { frontier_stalls: 1, ..stats() };
        assert_ne!(digest_of(&stats()), digest_of(&stalls));
    }
}
