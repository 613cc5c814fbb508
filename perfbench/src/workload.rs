//! The benchmark's workloads: their configurations, sizes and the
//! operating-point guards that reject a run which left its regime.
//!
//! Configurations start from `SimConfig::baseline()` and set public
//! fields only; policies resolve by name through
//! `PolicyRegistry::standard()`; the guards read only the `SimReport`
//! and `SchedStats::{rounds, bb_nodes}`. Nothing here names a knob the
//! program may delete without changing its results.

use wcdma::admission::{PolicyRegistry, SchedStats};
use wcdma::math::mix_seed;
use wcdma::sim::campaign::ScenarioSpec;
use wcdma::sim::{SimConfig, SimReport};

/// The campaign workload's grid, parsed at run time.
pub const CAMPAIGN_SPEC: &str = include_str!("../campaign.toml");

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 61 cells, 1,000 mobiles, baseline web traffic: the network pass at
    /// a load a real network carries.
    Metro,
    /// 7 cells, 200 mobiles, small frequent bursts: the burst-admission
    /// solve, often at its node cap.
    Burst,
    /// A grid of small cells through the campaign service and merge.
    Campaign,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 3] = [Workload::Metro, Workload::Burst, Workload::Campaign];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Metro => "metro",
            Workload::Burst => "burst",
            Workload::Campaign => "campaign",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The frame-loop cells of one segment of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Independent simulations per segment, each from its own seed.
    pub cells: usize,
    /// Frames per simulation (warm-up included).
    pub frames: usize,
    /// Leading frames excluded from each simulation's statistics.
    pub warmup_frames: usize,
}

impl Size {
    /// The size of `metro` or `burst` (`smoke` shrinks it for the smoke
    /// tests). `burst` spreads its frames over many short simulations:
    /// its frame cost is set by how many rounds hit the B&B node cap,
    /// which varies much more between seeds than within one.
    pub fn of(w: Workload, smoke: bool) -> Self {
        let (cells, frames, warmup_frames) = match (w, smoke) {
            (Workload::Metro, false) => (4, 400, 50),
            (Workload::Metro, true) => (1, 60, 20),
            (Workload::Burst, false) => (32, 50, 10),
            (Workload::Burst, true) => (2, 50, 10),
            (Workload::Campaign, _) => panic!("campaign cells come from its spec"),
        };
        Size {
            cells,
            frames,
            warmup_frames,
        }
    }

    fn apply(self, cfg: &mut SimConfig) {
        cfg.duration_s = self.frames as f64 * cfg.cdma.frame_s;
        cfg.warmup_s = self.warmup_frames as f64 * cfg.cdma.frame_s;
    }
}

/// Resolves a policy by its registry name.
fn policy(name: &str) -> wcdma::admission::BoxedPolicy {
    PolicyRegistry::standard()
        .resolve(name)
        .unwrap_or_else(|e| panic!("policy {name:?}: {e}"))
}

/// Single-threaded, exact-model base shared by the frame-loop workloads.
fn base(seed: u64, tag: u64, size: Size) -> SimConfig {
    let mut c = SimConfig::baseline();
    c.policy = policy("jaba-sd-j2");
    c.frame_threads = 1;
    c.candidate_k = 0;
    c.seed = mix_seed(tag, seed);
    size.apply(&mut c);
    c
}

/// `metro`: 61 cells (`rings = 4`), 200 data and 800 voice users,
/// baseline web traffic.
pub fn metro_cfg(seed: u64, size: Size) -> SimConfig {
    let mut c = base(seed, 0x6D65_7472, size);
    c.rings = 4;
    c.n_data = 200;
    c.n_voice = 800;
    c
}

/// `burst`: 7 cells, 100 data and 100 voice users, 20 kbit mean and
/// 60 kbit max bursts, 0.3 s reading time.
pub fn burst_cfg(seed: u64, size: Size) -> SimConfig {
    let mut c = base(seed, 0x6275_7273, size);
    c.n_data = 100;
    c.n_voice = 100;
    c.traffic.mean_burst_bits = 20_000.0;
    c.traffic.max_burst_bits = 60_000.0;
    c.traffic.mean_reading_s = 0.3;
    c
}

/// A saturated profile the guards must reject: 10,000 mobiles (1,000
/// data) on 7 cells. Every frame is overloaded and nothing is admitted.
pub fn saturated_cfg(seed: u64, size: Size) -> SimConfig {
    let mut c = base(seed, 0x7361_7475, size);
    c.n_data = 1_000;
    c.n_voice = 9_000;
    c
}

/// The cells of one `metro` or `burst` segment: cell `i` takes seed
/// `mix_seed(seed, i)`.
pub fn sim_cells(w: Workload, seed: u64, smoke: bool) -> Vec<SimConfig> {
    let size = Size::of(w, smoke);
    (0..size.cells as u64)
        .map(|i| match w {
            Workload::Metro => metro_cfg(mix_seed(seed, i), size),
            Workload::Burst => burst_cfg(mix_seed(seed, i), size),
            Workload::Campaign => panic!("campaign cells come from its spec"),
        })
        .collect()
}

/// The campaign workload's spec for `seed` (`smoke` keeps one
/// replication of a shorter grid).
pub fn campaign_spec(seed: u64, smoke: bool) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::parse(CAMPAIGN_SPEC)?;
    spec.seed = mix_seed(0x6361_6d70, seed);
    if smoke {
        spec.replications = 1;
        spec.duration_s = 0.6;
        spec.warmup_s = 0.2;
    }
    Ok(spec)
}

/// Frames inside the statistics window of `cfg`.
pub fn recorded_frames(cfg: &SimConfig) -> u64 {
    ((cfg.duration_s - cfg.warmup_s) / cfg.cdma.frame_s).round() as u64
}

/// The cells of `spec` as the campaign runner builds them: scenario
/// `s`, replication `r` runs `s.cfg` with seed `mix_seed(s.seed, 1 + r)`,
/// one frame thread.
pub fn campaign_cells(spec: &ScenarioSpec) -> Result<Vec<SimConfig>, String> {
    let mut cells = Vec::new();
    for sc in spec.expand()? {
        for rep in 0..spec.replications {
            let mut cfg = sc.cfg.with_seed(mix_seed(sc.cfg.seed, 1 + rep as u64));
            cfg.frame_threads = 1;
            cells.push(cfg);
        }
    }
    Ok(cells)
}

/// Checks that a frame-loop run stayed in the regime its workload was
/// chosen for, over all its cells' reports and scheduler counters and
/// the `recorded_frames` their statistics cover. Ranges, not a
/// fingerprint: a legitimate change of the canonical order moves the
/// numbers but not the regime.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x < y)` also rejects NaN
pub fn guard(
    w: Workload,
    runs: &[(&SimReport, &SchedStats)],
    recorded_frames: u64,
) -> Result<(), String> {
    let n = runs.len().max(1) as f64;
    let overloads: u64 = runs.iter().map(|(r, _)| r.overload_events).sum();
    let outage = runs.iter().map(|(r, _)| r.outage_rate).sum::<f64>() / n;
    let denial = runs.iter().map(|(r, _)| r.denial_rate).sum::<f64>() / n;
    let bursts: u64 = runs.iter().map(|(r, _)| r.bursts_completed).sum();
    let rounds: u64 = runs.iter().map(|(_, s)| s.rounds).sum();
    let nodes: u64 = runs.iter().map(|(_, s)| s.bb_nodes).sum();
    let mut broken = Vec::new();
    match w {
        Workload::Metro => {
            // A rare single overloaded frame happens at some seeds; a
            // saturated network overloads every frame.
            if overloads * 100 > recorded_frames {
                broken.push(format!(
                    "{overloads} of {recorded_frames} frames overloaded (want at most 1 %)"
                ));
            }
            if !(outage < 0.1) {
                broken.push(format!("outage_rate {outage} (want < 0.1)"));
            }
        }
        Workload::Burst => {
            let nodes_per_round = nodes as f64 / rounds.max(1) as f64;
            if !(nodes_per_round > 1.0) {
                broken.push(format!("{nodes_per_round} B&B nodes per round (want > 1)"));
            }
            if !(denial < 1.0) {
                broken.push(format!("denial_rate {denial} (want < 1)"));
            }
        }
        Workload::Campaign => {}
    }
    if bursts == 0 {
        broken.push("no bursts completed (want > 0)".to_string());
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} left its operating point: {}",
            w.name(),
            broken.join("; ")
        ))
    }
}
