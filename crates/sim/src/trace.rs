//! Decision-trace hooks: capture every per-frame policy decision.
//!
//! The engine computes a full [`wcdma_admission::ScheduleOutcome`] each
//! scheduling round and normally keeps only the grants. A
//! [`DecisionTrace`] sink attached via [`Simulation::attach_trace`]
//! receives the whole decision as a [`DecisionRecord`] — grant vector,
//! per-request δβ̄, objective value, optimality flag, and the region slack
//! left after the grants — so tests can assert on scheduler behaviour
//! frame-for-frame and the campaign layer can emit decision CSVs
//! (`wcdma campaign run --trace`).
//!
//! Tracing is strictly opt-in: with no sink attached the engine's
//! zero-allocation steady state is untouched.

use std::sync::{Arc, Mutex};

use wcdma_admission::SchedStats;
use wcdma_mac::LinkDir;

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::stats::SimReport;

/// One scheduling round's policy decision, as seen by the engine.
///
/// All per-request vectors are aligned: entry `j` belongs to `users[j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Simulation time of the round (s).
    pub t_s: f64,
    /// Link direction scheduled.
    pub dir: LinkDir,
    /// Mobile index of every pending request, in request order.
    pub users: Vec<usize>,
    /// Grant vector (0 = rejected this round).
    pub m: Vec<u32>,
    /// Per-request δβ̄ the decision used.
    pub delta_beta: Vec<f64>,
    /// Objective value the policy reported (weight units).
    pub objective_value: f64,
    /// Whether the decision is provably optimal for the policy's own
    /// objective (see [`wcdma_admission::PolicyScratch::optimal`]).
    pub optimal: bool,
    /// Remaining admissible-region headroom per constraint row *after*
    /// the grants.
    pub slack: Vec<f64>,
}

impl DecisionRecord {
    /// Number of requests granted (m ≥ 1) this round.
    pub fn granted(&self) -> usize {
        self.m.iter().filter(|&&m| m > 0).count()
    }

    /// Total granted spreading units Σ m_j.
    pub fn total_m(&self) -> u64 {
        self.m.iter().map(|&m| m as u64).sum()
    }

    /// The tightest remaining headroom across the region rows (infinite
    /// when the region has no binding rows).
    pub fn min_slack(&self) -> f64 {
        self.slack.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// A sink for per-frame policy decisions.
pub trait DecisionTrace: Send {
    /// Called once per scheduling round that had pending requests.
    fn record(&mut self, rec: DecisionRecord);

    /// Called after each scheduling round with the scheduler's cumulative
    /// [`SchedStats`] (rounds, B&B nodes).
    /// Default: ignored — stats are observability only and never feed back
    /// into the run.
    fn record_sched(&mut self, stats: SchedStats) {
        let _ = stats;
    }
}

/// The standard sink: an appendable, shareable in-memory log. Clones share
/// the same underlying buffer, so a caller can keep one handle and hand
/// another to [`Simulation::attach_trace`] (which takes ownership of its
/// sink).
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    records: Arc<Mutex<Vec<DecisionRecord>>>,
    sched: Arc<Mutex<SchedStats>>,
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latest cumulative scheduling statistics the engine reported
    /// (all zeros before the first round).
    pub fn sched_stats(&self) -> SchedStats {
        *self.sched.lock().expect("trace lock")
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("trace lock").len()
    }

    /// Whether no records have been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the captured records.
    pub fn take(&self) -> Vec<DecisionRecord> {
        std::mem::take(&mut *self.records.lock().expect("trace lock"))
    }
}

impl DecisionTrace for DecisionLog {
    fn record(&mut self, rec: DecisionRecord) {
        self.records.lock().expect("trace lock").push(rec);
    }

    fn record_sched(&mut self, stats: SchedStats) {
        *self.sched.lock().expect("trace lock") = stats;
    }
}

/// Runs a scenario to completion with a [`DecisionLog`] attached and
/// returns the report together with every captured decision.
pub fn run_with_trace(cfg: SimConfig) -> (SimReport, Vec<DecisionRecord>) {
    let log = DecisionLog::new();
    let mut sim = Simulation::new(cfg);
    sim.attach_trace(Box::new(log.clone()));
    let report = sim.run();
    (report, log.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimConfig {
        let mut c = SimConfig::baseline();
        c.n_voice = 6;
        c.n_data = 3;
        c.duration_s = 6.0;
        c.warmup_s = 1.0;
        c
    }

    #[test]
    fn trace_captures_decisions_without_changing_the_run() {
        let (traced_report, records) = run_with_trace(quick_cfg());
        let untraced_report = Simulation::new(quick_cfg()).run();
        assert_eq!(
            traced_report, untraced_report,
            "attaching a trace must not perturb the simulation"
        );
        assert!(!records.is_empty(), "web traffic must trigger rounds");
        for rec in &records {
            assert_eq!(rec.users.len(), rec.m.len());
            assert_eq!(rec.users.len(), rec.delta_beta.len());
            assert!(rec.granted() <= rec.users.len());
            assert!(rec.t_s >= 0.0);
            // Grants never exceed the region: post-grant slack stays
            // non-negative up to the region's own tolerance.
            if rec.granted() > 0 {
                assert!(
                    rec.min_slack() >= -1e-6,
                    "negative slack after grants: {rec:?}"
                );
            }
        }
        // Grants recorded in the trace match the report's magnitude.
        let granted: usize = records.iter().map(|r| r.granted()).sum();
        assert!(granted > 0, "some requests must have been granted");
    }

    #[test]
    fn detached_log_clone_sees_the_records() {
        let log = DecisionLog::new();
        let mut sim = Simulation::new(quick_cfg());
        sim.attach_trace(Box::new(log.clone()));
        for _ in 0..150 {
            sim.step_frame();
        }
        assert!(!log.is_empty(), "3 web users over 3 s must request");
        let n = log.len();
        let drained = log.take();
        assert_eq!(drained.len(), n);
        assert!(log.is_empty(), "take drains the shared buffer");
    }

    /// The trace sink surfaces the statistics: `DecisionLog::sched_stats`
    /// carries the scheduler's cumulative counters alongside the
    /// decisions, and every round the scheduler counts is one record.
    #[test]
    fn decision_log_reports_sched_stats() {
        let mut cfg = quick_cfg();
        cfg.n_data = 24;
        cfg.traffic.mean_burst_bits = 20_000.0;
        cfg.traffic.max_burst_bits = 60_000.0;
        cfg.traffic.mean_reading_s = 0.4;
        let log = DecisionLog::new();
        let mut sim = Simulation::new(cfg);
        sim.attach_trace(Box::new(log.clone()));
        for _ in 0..200 {
            sim.step_frame();
        }
        let via_log = log.sched_stats();
        assert_eq!(via_log, sim.sched_stats(), "log mirrors the scheduler");
        assert!(via_log.rounds > 0, "busy scenario must schedule");
        assert!(via_log.bb_nodes > 0, "JABA-SD runs branch and bound");
        assert_eq!(
            via_log.rounds,
            log.len() as u64,
            "one decision record per scheduling round"
        );
    }
}
