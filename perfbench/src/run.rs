//! One benchmark run of one workload: reference runs, repeated timed
//! segments, correctness checks, guards, and the metrics.
//!
//! Every timing runs on the calling thread with `frame_threads = 1` and
//! `shards = 1`, on the process's CPU clock ([`CpuInstant`]). A run
//! repeats bit-identical segments of its workload until its (wall) time
//! budget is spent and reports medians over them, so a change of host
//! speed during the run moves single segments, not the result.

use std::path::Path;
use std::time::{Duration, Instant};

use wcdma::sim::campaign::journal::{read_journal, JournalEntry};
use wcdma::sim::campaign::{campaign_csv, campaign_json, merge_dirs, run_spec, run_spec_service};
use wcdma::sim::SimConfig;

use crate::frames::{run_pass, Pass, Reference, TraceCounts};
use crate::layers::{campaign_layers, network_layers, service_config};
use crate::report::{jnum, jpercentile, jspread, jstr, RunResult};
use crate::stats::{hd_quantile, mean, median, peak_rss_mb, slope, CpuInstant, Percentile, Spread};
use crate::workload::{campaign_cells, campaign_spec, guard, recorded_frames, sim_cells, Workload};

/// How long a run measures and how many segments it may use.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall time to spend on timed segments.
    pub seconds: Duration,
    /// Segments run even when the time is spent.
    pub min_segments: usize,
    /// Segments never exceeded.
    pub max_segments: usize,
}

impl Budget {
    /// Runs `segment` at least `min_segments` times, then again while
    /// one more segment of the average length so far still fits in the
    /// budget (at most `max_segments`); returns the results in order.
    fn repeat<T>(&self, mut segment: impl FnMut(usize) -> T) -> Vec<T> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < self.min_segments
            || (out.len() < self.max_segments
                && start.elapsed().as_secs_f64() * (out.len() + 1) as f64 / out.len() as f64
                    <= self.seconds.as_secs_f64())
        {
            out.push(segment(out.len()));
        }
        out
    }
}

/// Common settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Settings<'a> {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Timing budget.
    pub budget: Budget,
    /// Smoke sizes (a few frames or cells).
    pub smoke: bool,
    /// Scratch directory for campaign checkpoints (created and removed).
    pub work: &'a Path,
}

/// The frame-loop cells of a workload: one configuration for `metro` and
/// `burst`, every (scenario, replication) cell for `campaign`.
fn cells_of(s: &Settings) -> Result<Vec<SimConfig>, String> {
    match s.workload {
        Workload::Campaign => campaign_cells(&campaign_spec(s.seed, s.smoke)?),
        w => Ok(sim_cells(w, s.seed, s.smoke)),
    }
}

/// Checks that every pass reached the same final state as `passes[0]`
/// and as the reference runs; mismatching passes' frames count as failed.
fn check_passes(out: &mut RunResult, passes: &[&Pass], refs: &[Reference]) {
    let want: Vec<_> = refs.iter().map(Reference::end).collect();
    for (i, p) in passes.iter().enumerate() {
        let problem = if p.digest != passes[0].digest {
            "a different state than segment 0"
        } else if p.ends != want {
            "different counts than the reference runs"
        } else {
            continue;
        };
        out.failed = (out.failed + p.frames() as u64).min(out.attempted);
        out.incorrect(format!("segment {i} ended with {problem}"));
    }
}

/// The decision-sink counts, scheduler rounds, B&B nodes and frames
/// summed over `refs`.
fn ref_totals(refs: &[Reference]) -> (TraceCounts, u64, u64, usize) {
    let mut c = TraceCounts::default();
    let (mut rounds, mut nodes, mut frames) = (0, 0, 0);
    for r in refs {
        c.rounds += r.counts.rounds;
        c.optimal += r.counts.optimal;
        c.requests += r.counts.requests;
        c.granted += r.counts.granted;
        rounds += r.sched.rounds;
        nodes += r.sched.bb_nodes;
        frames += r.frames;
    }
    (c, rounds, nodes, frames)
}

/// Share of rounds proven optimal (1 when there were no rounds).
fn ok_share(c: &TraceCounts) -> f64 {
    if c.rounds == 0 {
        1.0
    } else {
        c.optimal as f64 / c.rounds as f64
    }
}

/// Simulated frames per CPU second of each pass's frame loops.
fn fps(passes: &[&Pass]) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.frames() as f64 / p.loop_s)
        .collect()
}

/// The time of each distinct frame (ms): the median of that frame's
/// times over `passes`, which repeat identical work. Host jitter
/// that hits one repeat of a frame does not reach the median.
fn frame_ms(passes: &[&Pass]) -> Vec<f64> {
    (0..passes[0].frames())
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p.frame_s[i] * 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Frame metrics over untraced passes: `frames_per_s` from the median
/// segment; percentiles over the distinct frames' median times. Unless
/// `smoke`, p99 must leave at least 10 frames beyond it.
fn frame_metrics(out: &mut RunResult, passes: &[&Pass], smoke: bool) {
    let frames = frame_ms(passes);
    let (p50, p99) = (Percentile::of(&frames, 0.5), Percentile::of(&frames, 0.99));
    if !smoke && p99.beyond < 10 {
        out.incorrect(format!(
            "only {} of {} distinct frames lie beyond frame_ms_p99 (want at least 10)",
            p99.beyond, p99.samples
        ));
    }
    let fps_spread = Spread::of(&fps(passes));
    out.metric("frames_per_s", fps_spread.median);
    out.metric("frame_ms_p50", p50.value);
    out.metric("frame_ms_p99", p99.value);
    out.detail("frames_per_s", jspread(&fps_spread));
    out.detail("frame_ms_p50", jpercentile(&p50));
    out.detail("frame_ms_p99", jpercentile(&p99));
    // The same percentiles of each segment on its own, for their spread.
    for (key, q) in [
        ("frame_ms_p50_segments", 0.5),
        ("frame_ms_p99_segments", 0.99),
    ] {
        let per_segment: Vec<f64> = passes
            .iter()
            .map(|p| hd_quantile(&p.frame_s, q) * 1e3)
            .collect();
        out.detail(key, jspread(&Spread::of(&per_segment)));
    }
    out.detail("frames_per_segment", passes[0].frames().to_string());
}

/// Runs the reference run of every cell, and (when `twice`) the first
/// cell once more: the two must agree bit for bit. Returns the runs with
/// the workload's guard verdict.
fn references(
    out: &mut RunResult,
    s: &Settings,
    cells: &[SimConfig],
    twice: bool,
) -> (Vec<Reference>, Result<(), String>) {
    let refs: Vec<Reference> = cells.iter().map(Reference::run).collect();
    if twice && !Reference::run(&cells[0]).same_as(&refs[0]) {
        out.incorrect("two reference runs of one cell disagree".to_string());
    }
    let verdict = match s.workload {
        Workload::Campaign => Ok(()),
        w => {
            let runs: Vec<_> = refs.iter().map(|r| (&r.report, &r.sched)).collect();
            guard(w, &runs, cells.iter().map(recorded_frames).sum())
        }
    };
    (refs, verdict)
}

/// `--trace 0` on `metro` or `burst`.
fn sim_e2e(s: &Settings) -> Result<RunResult, String> {
    let mut out = RunResult::new();
    let cells = cells_of(s)?;
    // The reference runs come first and double as the process warm-up.
    let (refs, verdict) = references(&mut out, s, &cells, true);
    let mut rss_mb = 0.0;
    // At least SETUP_REPEATS timed builds per segment, spread over it.
    let builds = SETUP_REPEATS.div_ceil(cells.len());
    let passes = s.budget.repeat(|i| {
        let pass = run_pass(&cells, false, builds);
        if i == 0 {
            rss_mb = peak_rss_mb();
        }
        pass
    });
    out.metric("peak_rss_mb", rss_mb);
    out.attempted = passes.iter().map(|p| p.frames() as u64).sum();
    if let Err(e) = verdict {
        out.off_regime(e);
    }
    let passes: Vec<&Pass> = passes.iter().collect();
    check_passes(&mut out, &passes, &refs);

    let setup: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let cells_per_s: Vec<f64> = passes
        .iter()
        .map(|p| cells.len() as f64 / p.total_s)
        .collect();
    out.metric("setup_s", median(&setup));
    frame_metrics(&mut out, &passes, s.smoke);
    out.metric("cells_per_s", median(&cells_per_s));
    out.metric("ok_share", ok_share(&ref_totals(&refs).0));
    out.detail("setup_s", jspread(&Spread::of(&setup)));
    out.detail("cells_per_s", jspread(&Spread::of(&cells_per_s)));
    out.detail("segments", passes.len().to_string());
    Ok(out)
}

/// `--trace 0` on `campaign`.
fn campaign_e2e(s: &Settings) -> Result<RunResult, String> {
    let mut out = RunResult::new();
    let spec = campaign_spec(s.seed, s.smoke)?;
    let cells = campaign_cells(&spec)?;
    // The in-memory run is the reference every service run and merge
    // must reproduce byte for byte; it also warms the process up.
    let reference = run_spec(&spec, 1)?;
    let (want_csv, want_json) = (campaign_csv(&reference), campaign_json(&reference));
    let want_bursts: Vec<u64> = reference
        .scenarios
        .iter()
        .flat_map(|sr| sr.reports.iter().map(|r| r.bursts_completed))
        .collect();
    let n_cells = cells.len();

    struct Segment {
        setup_s: Vec<f64>,
        campaign_s: f64,
        ok_cells: usize,
        pass: Pass,
    }
    let mut errors = Vec::new();
    let mut rss_mb = 0.0;
    let segments = s.budget.repeat(|i| {
        // Set-up: parse the spec and expand its grid, several times.
        let setup_s = (0..SETUP_REPEATS)
            .map(|_| {
                let t = CpuInstant::now();
                let spec = campaign_spec(s.seed, s.smoke).expect("spec parsed before");
                std::hint::black_box(spec.expand().expect("spec expanded before"));
                t.elapsed().as_secs_f64()
            })
            .collect();
        // Removing a directory here would put the file system's discard
        // work into the next segment's timing; `run` removes them all.
        let dir = s.work.join(format!("segment-{i}"));
        let (ckpt, merged) = (dir.join("ckpt"), dir.join("merged"));
        let t = CpuInstant::now();
        let run = run_spec_service(&spec, &ckpt, &service_config())
            .and_then(|_| merge_dirs(std::slice::from_ref(&ckpt), &merged));
        let campaign_s = t.elapsed().as_secs_f64();
        let checked = run.and_then(|_| {
            verify_campaign(&spec.name, &ckpt, &merged, &want_csv, &want_json, n_cells)
        });
        let ok_cells = match checked {
            Ok(()) => n_cells,
            Err(e) => {
                errors.push(e);
                0
            }
        };
        let pass = run_pass(&cells, false, 1);
        if i == 0 {
            rss_mb = peak_rss_mb();
        }
        Segment {
            setup_s,
            campaign_s,
            ok_cells,
            pass,
        }
    });
    out.metric("peak_rss_mb", rss_mb);
    for e in errors {
        out.incorrect(e);
    }
    out.attempted = (segments.len() * n_cells) as u64;
    let ok_cells: usize = segments.iter().map(|g| g.ok_cells).sum();
    let passes: Vec<&Pass> = segments.iter().map(|g| &g.pass).collect();
    for (i, p) in passes.iter().enumerate() {
        let bursts: Vec<u64> = p.ends.iter().map(|e| e.bursts_completed).collect();
        if p.digest != passes[0].digest || bursts != want_bursts {
            out.incorrect(format!(
                "frame pass {i} ended in a different state than pass 0 or the campaign run"
            ));
        }
    }
    if ok_cells != out.attempted as usize {
        out.off_regime(format!(
            "campaign: {ok_cells} of {} cells journaled and read back",
            out.attempted
        ));
    }

    let setup: Vec<f64> = segments
        .iter()
        .flat_map(|g| g.setup_s.iter().copied())
        .collect();
    let cells_per_s: Vec<f64> = segments
        .iter()
        .map(|g| n_cells as f64 / g.campaign_s)
        .collect();
    out.metric("setup_s", median(&setup));
    frame_metrics(&mut out, &passes, s.smoke);
    out.metric("cells_per_s", median(&cells_per_s));
    out.metric("ok_share", ok_cells as f64 / out.attempted.max(1) as f64);
    out.detail("setup_s", jspread(&Spread::of(&setup)));
    out.detail("cells_per_s", jspread(&Spread::of(&cells_per_s)));
    out.detail("segments", segments.len().to_string());
    out.detail("cells_per_segment", n_cells.to_string());
    Ok(out)
}

/// Timed set-ups per segment, at least.
const SETUP_REPEATS: usize = 16;

/// Checks one service run and its merge against the in-memory reference:
/// every cell journaled once, and both artefact sets byte-identical to
/// `campaign_csv`/`campaign_json`.
fn verify_campaign(
    name: &str,
    ckpt: &Path,
    merged: &Path,
    want_csv: &str,
    want_json: &str,
    n_cells: usize,
) -> Result<(), String> {
    let mut jobs: Vec<usize> = read_journal(ckpt)?
        .entries
        .into_iter()
        .filter_map(|e| match e {
            JournalEntry::Cell { job, .. } => Some(job),
            JournalEntry::Fold { .. } => None,
        })
        .collect();
    jobs.sort_unstable();
    if jobs != (0..n_cells).collect::<Vec<_>>() {
        return Err(format!(
            "journal holds {} cell lines for {n_cells} cells, not one each",
            jobs.len()
        ));
    }
    for dir in [ckpt, merged] {
        for (ext, want) in [("csv", want_csv), ("json", want_json)] {
            let path = dir.join(format!("{name}.{ext}"));
            let got = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            if got != want {
                return Err(format!(
                    "{} differs from the in-memory campaign_{ext}",
                    path.display()
                ));
            }
        }
    }
    Ok(())
}

/// `--trace 1` on any workload: untraced and traced passes alternate, then
/// the network layer driver and the campaign probes run.
fn layers(s: &Settings) -> Result<RunResult, String> {
    let mut out = RunResult::new();
    let cells = cells_of(s)?;
    let (refs, verdict) = references(&mut out, s, &cells, false);
    let pairs = s
        .budget
        .repeat(|_| (run_pass(&cells, false, 1), run_pass(&cells, true, 1)));
    out.attempted = pairs
        .iter()
        .map(|(u, t)| (u.frames() + t.frames()) as u64)
        .sum();
    if let Err(e) = verdict {
        out.off_regime(e);
    }
    let untraced: Vec<&Pass> = pairs.iter().map(|(u, _)| u).collect();
    let traced: Vec<&Pass> = pairs.iter().map(|(_, t)| t).collect();
    let all: Vec<&Pass> = untraced.iter().chain(&traced).copied().collect();
    // Tracing must leave every result bit-identical.
    check_passes(&mut out, &all, &refs);

    let (fps_untraced, fps_traced) = (Spread::of(&fps(&untraced)), Spread::of(&fps(&traced)));
    let frame_mean_ms = mean(&frame_ms(&untraced));

    // Scheduler-side counts: exact for a fixed seed.
    let (counts, rounds, nodes, frames) = ref_totals(&refs);
    out.metric(
        "admission.rounds_per_frame",
        counts.rounds as f64 / frames.max(1) as f64,
    );
    out.metric(
        "admission.requests_per_round",
        counts.requests as f64 / counts.rounds.max(1) as f64,
    );
    out.metric(
        "admission.grant_share",
        counts.granted as f64 / counts.requests.max(1) as f64,
    );
    out.metric("ilp.nodes_per_round", nodes as f64 / rounds.max(1) as f64);
    out.metric("ilp.capped_rounds", (counts.rounds - counts.optimal) as f64);

    // Per-frame observations of the traced passes.
    let tr = traced[0].trace.as_ref().expect("traced pass");
    let ns: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.frame_s.iter().map(|s| s * 1e9))
        .collect();
    let node_x: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.trace.as_ref().expect("traced pass").nodes.iter().copied())
        .collect();
    out.metric("ilp.ns_per_node", slope(&node_x, &ns));
    out.metric("sim.pending_mean", mean(&tr.pending));
    out.metric("sim.active_bursts_mean", mean(&tr.active));
    out.metric(
        "sim.trace_overhead",
        fps_untraced.median / fps_traced.median,
    );

    // Network and mobility layers, on every cell's population.
    let (warmup, blocks, block_frames) = match (s.workload, s.smoke) {
        (_, true) => (2, 1, 5),
        (Workload::Metro, false) => (10, 2, 15),
        (_, false) => (10, 2, 40),
    };
    let net = network_layers(&cells, warmup, blocks, block_frames);
    out.metric("cdma.step_ms", net.step_ms);
    out.metric("cdma.step_ms_2t", net.step_ms_2t);
    out.metric("cdma.speedup_2t", net.speedup_2t);
    out.metric("cdma.links", net.links as f64);
    out.metric("geo.mobility_ms", net.mobility_ms);
    // Means add up where medians do not.
    out.metric(
        "sim.residual_ms",
        frame_mean_ms - net.step_mean_ms - net.mobility_mean_ms,
    );
    out.detail("cdma.step_ms_blocks", jspread(&net.step_1t));
    out.detail("cdma.step_ms_2t_blocks", jspread(&net.step_2t));

    // The campaign layer, on the campaign workload's grid.
    let spec = campaign_spec(s.seed, s.smoke)?;
    let camp = campaign_layers(&spec, s.work, if s.smoke { 1 } else { 3 })?;
    out.metric("campaign.cell_ms", camp.cell_ms);
    out.metric("campaign.service_overhead", camp.service_overhead);
    out.metric("campaign.merge_ms", camp.merge_ms);
    out.metric("campaign.journal_bytes", camp.journal_bytes as f64);
    out.metric("campaign.artefact_bytes", camp.artefact_bytes as f64);

    out.detail("frames_per_s_untraced", jspread(&fps_untraced));
    out.detail("frames_per_s_traced", jspread(&fps_traced));
    out.detail("segments", pairs.len().to_string());
    out.detail("optimal_rounds", counts.optimal.to_string());
    out.detail("rounds", counts.rounds.to_string());
    Ok(out)
}

/// Runs one workload in one mode and returns what it measured.
pub fn run(s: &Settings, trace: bool) -> Result<RunResult, String> {
    std::fs::create_dir_all(s.work)
        .map_err(|e| format!("cannot create {}: {e}", s.work.display()))?;
    let result = match (trace, s.workload) {
        (true, _) => layers(s),
        (false, Workload::Campaign) => campaign_e2e(s),
        (false, _) => sim_e2e(s),
    };
    let _ = std::fs::remove_dir_all(s.work);
    if let Some(parent) = s.work.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    let mut out = result?;
    out.detail("workload", jstr(s.workload.name()));
    out.detail("seed", s.seed.to_string());
    out.detail(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    out.detail("frame_threads", "1".to_string());
    out.detail("shards", "1".to_string());
    out.detail("budget_s", jnum(s.budget.seconds.as_secs_f64()));
    Ok(out)
}
