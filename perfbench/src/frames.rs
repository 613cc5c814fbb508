//! Frame-loop passes: build simulations, step them frame by frame under
//! the process's CPU clock, and fingerprint where they ended.
//!
//! A pass runs a list of configurations one after another, each in a
//! fresh `Simulation`, on the calling thread. Untraced passes time
//! `Simulation::new` and every `step_frame` and touch nothing else;
//! traced passes also attach a counting decision sink and read the
//! scheduler counters after every frame.

use std::sync::{Arc, Mutex};

use wcdma::admission::SchedStats;
use wcdma::sim::{DecisionRecord, DecisionTrace, SimConfig, SimReport, Simulation};

use crate::stats::{CpuInstant, Digest};

/// Totals a [`CountingSink`] gathered over scheduling rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Rounds reported (one per direction per frame with requests).
    pub rounds: u64,
    /// Rounds whose decision is proven optimal (the search finished).
    pub optimal: u64,
    /// Requests over all rounds.
    pub requests: u64,
    /// Requests granted over all rounds.
    pub granted: u64,
}

/// A decision sink that keeps only counts, so tracing holds no records.
#[derive(Debug, Clone, Default)]
pub struct CountingSink(Arc<Mutex<TraceCounts>>);

impl CountingSink {
    /// The counts so far.
    pub fn counts(&self) -> TraceCounts {
        *self.0.lock().expect("sink lock")
    }
}

impl DecisionTrace for CountingSink {
    fn record(&mut self, rec: DecisionRecord) {
        let mut c = self.0.lock().expect("sink lock");
        c.rounds += 1;
        c.optimal += rec.optimal as u64;
        c.requests += rec.users.len() as u64;
        c.granted += rec.granted() as u64;
    }
}

/// Where one simulation ended: the counts the benchmark cross-checks
/// between passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndState {
    /// Bursts completed in the statistics window.
    pub bursts_completed: u64,
    /// Scheduling rounds.
    pub rounds: u64,
    /// Branch-and-bound nodes.
    pub bb_nodes: u64,
}

impl EndState {
    fn of(sim: &Simulation) -> Self {
        let s = sim.sched_stats();
        Self {
            bursts_completed: sim.bursts_completed(),
            rounds: s.rounds,
            bb_nodes: s.bb_nodes,
        }
    }
}

/// Per-frame observations of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct FrameTrace {
    /// B&B nodes visited in each frame.
    pub nodes: Vec<f64>,
    /// Pending requests after each frame.
    pub pending: Vec<f64>,
    /// Active bursts after each frame.
    pub active: Vec<f64>,
}

/// One pass over a list of configurations.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// CPU time of each `Simulation::new` (s), extra builds included.
    pub setup_s: Vec<f64>,
    /// CPU time of the builds that were stepped, plus their frame loops
    /// (s).
    pub total_s: f64,
    /// CPU time of each frame (s), in order.
    pub frame_s: Vec<f64>,
    /// CPU time of all frame loops together (s).
    pub loop_s: f64,
    /// Bit-level fingerprint of every simulation's final state.
    pub digest: Digest,
    /// Final counts of each simulation.
    pub ends: Vec<EndState>,
    /// Per-frame observations (traced passes only).
    pub trace: Option<FrameTrace>,
}

impl Pass {
    /// Frames stepped.
    pub fn frames(&self) -> usize {
        self.frame_s.len()
    }
}

/// Runs every configuration in `cfgs` for its `n_frames()`, timing each
/// `Simulation::new` and each frame on the CPU clock. Each configuration
/// is built `builds` times (at least once) right before its frame loop;
/// all builds are timed and all but the last are dropped, so the set-up
/// samples are spread over the whole pass. `traced` attaches a counting
/// sink and records per-frame counters.
pub fn run_pass(cfgs: &[SimConfig], traced: bool, builds: usize) -> Pass {
    let mut pass = Pass {
        trace: traced.then(FrameTrace::default),
        ..Pass::default()
    };
    for cfg in cfgs {
        let frames = cfg.n_frames();
        pass.frame_s.reserve(frames);
        for _ in 1..builds {
            let t = CpuInstant::now();
            let sim = std::hint::black_box(Simulation::new(cfg.clone()));
            pass.setup_s.push(t.elapsed().as_secs_f64());
            drop(sim);
        }
        let t0 = CpuInstant::now();
        let mut sim = Simulation::new(cfg.clone());
        let build_s = t0.elapsed().as_secs_f64();
        pass.setup_s.push(build_s);
        let t_loop = CpuInstant::now();
        match pass.trace.as_mut() {
            None => {
                for _ in 0..frames {
                    let t = CpuInstant::now();
                    sim.step_frame();
                    pass.frame_s.push(t.elapsed().as_secs_f64());
                }
            }
            Some(tr) => {
                sim.attach_trace(Box::new(CountingSink::default()));
                let mut nodes = sim.sched_stats().bb_nodes;
                for _ in 0..frames {
                    let t = CpuInstant::now();
                    sim.step_frame();
                    pass.frame_s.push(t.elapsed().as_secs_f64());
                    let now = sim.sched_stats().bb_nodes;
                    tr.nodes.push((now - nodes) as f64);
                    nodes = now;
                    tr.pending.push(sim.pending_requests() as f64);
                    tr.active.push(sim.active_bursts() as f64);
                }
            }
        }
        let loop_s = t_loop.elapsed().as_secs_f64();
        pass.loop_s += loop_s;
        pass.total_s += build_s + loop_s;
        let end = EndState::of(&sim);
        let d = &mut pass.digest;
        d.word(sim.time().to_bits());
        d.word(end.bursts_completed);
        d.word(end.rounds);
        d.word(end.bb_nodes);
        d.word(sim.pending_requests() as u64);
        d.word(sim.active_bursts() as u64);
        d.floats(sim.network().forward_load_w());
        d.floats(sim.network().reverse_load_w());
        pass.ends.push(end);
    }
    pass
}

/// An untimed reference run of one configuration: the full `SimReport`,
/// the scheduler counters and the decision-sink counts.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The run's report.
    pub report: SimReport,
    /// Final scheduler counters.
    pub sched: SchedStats,
    /// Decision-sink counts.
    pub counts: TraceCounts,
    /// Frames simulated.
    pub frames: usize,
}

impl Reference {
    /// Runs `cfg` to completion with a counting sink attached.
    pub fn run(cfg: &SimConfig) -> Self {
        let sink = CountingSink::default();
        let mut sim = Simulation::new(cfg.clone());
        sim.attach_trace(Box::new(sink.clone()));
        let (report, sched) = sim.run_with_sched_stats();
        Self {
            report,
            sched,
            counts: sink.counts(),
            frames: cfg.n_frames(),
        }
    }

    /// The final counts a pass over the same configuration must reach.
    pub fn end(&self) -> EndState {
        EndState {
            bursts_completed: self.report.bursts_completed,
            rounds: self.sched.rounds,
            bb_nodes: self.sched.bb_nodes,
        }
    }

    /// Whether `other` is the same run, bit for bit.
    pub fn same_as(&self, other: &Reference) -> bool {
        self.report.encode_record() == other.report.encode_record()
            && self.end() == other.end()
            && self.counts == other.counts
    }
}
