//! Per-layer measurements taken from outside the program, by timing
//! calls into its public entry points.
//!
//! The network layer driver builds a workload's population with the
//! same public calls `Simulation::new` uses (`Network::new`,
//! `populate_round_robin`/`populate_weighted`, `RandomWaypoint`) and then
//! times, per frame, the mobility step plus `Network::move_mobile` for
//! every walker, and `Network::step`. It carries no traffic and no
//! scheduler, so it isolates the network pass. The campaign probes time
//! the campaign layer's entry points on the benchmark's campaign grid.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;

use wcdma::cdma::{hotspot_weights, populate_round_robin, populate_weighted, Network};
use wcdma::geo::{HexLayout, MobilityModel, RandomWaypoint};
use wcdma::math::{mix_seed, Xoshiro256pp};
use wcdma::sim::campaign::{
    merge_dirs, run_grid_jobs, run_spec_service, ScenarioSpec, ServiceConfig,
};
use wcdma::sim::SimConfig;

use crate::stats::{hd_quantile, mean, median, CpuInstant, Spread};

/// A network plus its walkers, built like the engine builds them.
pub struct LayerDriver {
    net: Network,
    walkers: Vec<RandomWaypoint>,
    dt: f64,
}

impl LayerDriver {
    /// Builds the population of `cfg` (single-threaded).
    pub fn new(cfg: &SimConfig) -> Self {
        let layout = HexLayout::new(cfg.rings, cfg.cell_radius_m);
        let bound = layout.cell_radius() * (2.0 * cfg.rings as f64 + 1.0);
        let mut net = Network::new(cfg.cdma.clone(), layout, cfg.seed);
        let mut rng = Xoshiro256pp::substream(cfg.seed, 0x9_1ACE);
        let placed = if cfg.hotspot_overload == 1.0 {
            populate_round_robin(&mut net, cfg.n_voice, cfg.n_data, cfg.speed_ms, &mut rng)
        } else {
            let weights = hotspot_weights(net.num_cells(), cfg.hotspot_overload);
            populate_weighted(
                &mut net,
                cfg.n_voice,
                cfg.n_data,
                cfg.speed_ms,
                &weights,
                &mut rng,
            )
        };
        let walkers = placed
            .iter()
            .map(|u| {
                RandomWaypoint::new(
                    u.pos,
                    cfg.speed_ms,
                    5.0,
                    bound,
                    Xoshiro256pp::substream(cfg.seed, mix_seed(0x0B11E, u.index as u64)),
                )
            })
            .collect();
        net.set_frame_threads(1);
        net.set_candidates(cfg.candidate_k, cfg.candidate_refresh);
        Self {
            net,
            walkers,
            dt: cfg.cdma.frame_s,
        }
    }

    /// Mobile-cell links the network pass evaluates per frame.
    pub fn links(&self) -> usize {
        self.net.num_mobiles() * self.net.num_cells()
    }

    /// Steps one frame; returns the mobility CPU time, and the network
    /// step's CPU and wall times (s). With two frame threads the CPU
    /// time adds up both threads, so only the wall time shows scaling.
    pub fn frame(&mut self) -> (f64, f64, f64) {
        let t0 = CpuInstant::now();
        for (j, w) in self.walkers.iter_mut().enumerate() {
            let pos = w.step(self.dt);
            self.net.move_mobile(j, pos);
        }
        let (t1, wall) = (CpuInstant::now(), Instant::now());
        self.net.step(self.dt);
        let step_wall = wall.elapsed().as_secs_f64();
        (
            (t1 - t0).as_secs_f64(),
            t1.elapsed().as_secs_f64(),
            step_wall,
        )
    }
}

/// The network and mobility layers of one configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetworkLayers {
    /// Median `Network::step` CPU time at one thread (ms).
    pub step_ms: f64,
    /// Mean `Network::step` CPU time at one thread (ms).
    pub step_mean_ms: f64,
    /// Median `Network::step` wall time at two threads (ms).
    pub step_ms_2t: f64,
    /// Median wall time at one thread ÷ median wall time at two.
    pub speedup_2t: f64,
    /// Per-block medians of the CPU time at one thread (ms).
    pub step_1t: Spread,
    /// Per-block medians of the wall time at two threads (ms).
    pub step_2t: Spread,
    /// Median mobility step plus `move_mobile` for every walker, CPU
    /// time (ms).
    pub mobility_ms: f64,
    /// Mean of the same (ms).
    pub mobility_mean_ms: f64,
    /// Mobile-cell links per step (mean over the cells).
    pub links: usize,
}

/// Measures the network layers over `cells`: for each, after `warmup`
/// untimed frames, `blocks` alternating pairs of one-thread and
/// two-thread blocks of `block_frames` frames each. Medians (Harrell–Davis)
/// and means pool every cell's frames.
pub fn network_layers(
    cells: &[SimConfig],
    warmup: usize,
    blocks: usize,
    block_frames: usize,
) -> NetworkLayers {
    let (mut one, mut two, mut mob) = (Vec::new(), Vec::new(), Vec::new());
    let mut one_wall = Vec::new();
    let (mut blocks_1t, mut blocks_2t) = (Vec::new(), Vec::new());
    let mut links = 0;
    for cfg in cells {
        let mut d = LayerDriver::new(cfg);
        links += d.links();
        for _ in 0..warmup {
            d.frame();
        }
        for _ in 0..blocks {
            for threads in [1, 2] {
                d.net.set_frame_threads(threads);
                let mut block = Vec::with_capacity(block_frames);
                for _ in 0..block_frames {
                    let (m, cpu, wall) = d.frame();
                    if threads == 1 {
                        block.push(cpu * 1e3);
                        one_wall.push(wall * 1e3);
                        mob.push(m * 1e3);
                    } else {
                        block.push(wall * 1e3);
                    }
                }
                let (all, per_block) = if threads == 1 {
                    (&mut one, &mut blocks_1t)
                } else {
                    (&mut two, &mut blocks_2t)
                };
                per_block.push(hd_quantile(&block, 0.5));
                all.extend(block);
            }
        }
    }
    NetworkLayers {
        step_ms: hd_quantile(&one, 0.5),
        step_mean_ms: mean(&one),
        step_ms_2t: hd_quantile(&two, 0.5),
        speedup_2t: hd_quantile(&one_wall, 0.5) / hd_quantile(&two, 0.5),
        step_1t: Spread::of(&blocks_1t),
        step_2t: Spread::of(&blocks_2t),
        mobility_ms: hd_quantile(&mob, 0.5),
        mobility_mean_ms: mean(&mob),
        links: links / cells.len().max(1),
    }
}

/// The campaign layer on one spec.
#[derive(Debug, Clone, Copy)]
pub struct CampaignLayers {
    /// Median interval between `run_grid_jobs` completions, in memory (ms).
    pub cell_ms: f64,
    /// Median service-mode wall ÷ median in-memory `run_grid_jobs` wall.
    pub service_overhead: f64,
    /// Median `merge_dirs` wall (ms).
    pub merge_ms: f64,
    /// Journal size after a service run (bytes).
    pub journal_bytes: u64,
    /// Final artefact sizes after a service run (bytes).
    pub artefact_bytes: u64,
}

/// Size of every regular file in `dir` whose name passes `keep` (bytes).
fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The service configuration every campaign timing uses: one shard, one
/// frame thread, unsliced.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        frame_threads: 1,
        ..ServiceConfig::default()
    }
}

/// Measures the campaign layer on `spec`, on the CPU clock, over
/// `repeats` rounds of: an
/// in-memory `run_grid_jobs` pass with completion times (the cells of
/// `run_spec`, without its cheap fold and emit), a service run into a
/// fresh directory under `work`, and a `merge_dirs` of it. The
/// directories are removed after the last round, so no removal lands in
/// a timing.
pub fn campaign_layers(
    spec: &ScenarioSpec,
    work: &Path,
    repeats: usize,
) -> Result<CampaignLayers, String> {
    let scenarios = spec.expand()?;
    let n_reps = spec.replications;
    let jobs: Vec<usize> = (0..scenarios.len() * n_reps).collect();
    let (mut mem, mut svc, mut merge, mut intervals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut journal_bytes, mut artefact_bytes) = (0, 0);
    let mut dirs = Vec::with_capacity(repeats);
    for r in 0..repeats {
        let done = Mutex::new(Vec::with_capacity(jobs.len()));
        let t = CpuInstant::now();
        run_grid_jobs(
            &scenarios,
            n_reps,
            &jobs,
            1,
            1,
            None,
            &AtomicBool::new(false),
            &|_, _| {
                done.lock().expect("lock").push(CpuInstant::now());
            },
        );
        let mut prev = t;
        for at in done.into_inner().expect("lock") {
            intervals.push((at - prev).as_secs_f64() * 1e3);
            prev = at;
        }
        mem.push((prev - t).as_secs_f64());

        let dir = work.join(format!("layers-{r}"));
        let ckpt = dir.join("ckpt");
        let t = CpuInstant::now();
        run_spec_service(spec, &ckpt, &service_config())?;
        svc.push(t.elapsed().as_secs_f64());
        let t = CpuInstant::now();
        merge_dirs(std::slice::from_ref(&ckpt), &dir.join("merged"))?;
        merge.push(t.elapsed().as_secs_f64() * 1e3);
        journal_bytes = dir_bytes(&ckpt, |n| n == "journal.log");
        artefact_bytes = dir_bytes(&ckpt, |n| n.ends_with(".csv") || n.ends_with(".json"));
        dirs.push(dir);
    }
    for dir in dirs {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    }
    Ok(CampaignLayers {
        cell_ms: median(&intervals),
        service_overhead: median(&svc) / median(&mem),
        merge_ms: median(&merge),
        journal_bytes,
        artefact_bytes,
    })
}
