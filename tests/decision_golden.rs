//! The scheduler's decisions, pinned by value: the full `DecisionRecord`
//! stream of a fixed burst-heavy scenario, under three policies, must
//! reproduce committed FNV-1a hashes bit for bit. This is the second
//! *stored* fixture of the determinism contract (`docs/DETERMINISM.md`),
//! next to `GOLDEN_LOAD_HASH` in `tests/canonical_order.rs`: that one pins
//! the network loads, this one pins what the scheduler decides on them —
//! grant vectors, δβ̄, objective values, optimality flags and the region
//! slack left after the grants.
//!
//! The three policies cover the scheduler's distinct decision paths: exact
//! JABA-SD under J2 (the standard 200,000-node cap, which some rounds of
//! this scenario hit), the feedback-driven `measured-region`, and the
//! solver-free `fcfs`. The
//! hashes must hold on both kernel backends and for every `frame_threads`
//! value. A change that moves them changes scheduling outcomes; regenerate
//! only through the bump procedure in `docs/DETERMINISM.md`.

use wcdma::admission::PolicyRegistry;
use wcdma::sim::{run_with_trace, DecisionRecord, SimConfig};

/// The committed fixture: policy spec → FNV-1a over its decision stream.
const GOLDEN_DECISION_HASHES: [(&str, u64); 3] = [
    ("jaba-sd-j2", 0x6bf7_dd12_549e_79ab),
    ("measured-region", 0x563d_ca99_aab0_7308),
    ("fcfs", 0x31ee_1e3e_aca3_fb8e),
];

/// The pinned scenario: 7 cells, 100 data users firing small, frequent
/// bursts over 100 voice users — a queue that is rarely empty and rounds
/// wide enough for the branch-and-bound to hit its cap. Any change here
/// invalidates the golden hashes.
fn scenario(policy: &str) -> SimConfig {
    let mut c = SimConfig::baseline();
    c.n_voice = 100;
    c.n_data = 100;
    c.traffic.mean_burst_bits = 20_000.0;
    c.traffic.max_burst_bits = 60_000.0;
    c.traffic.mean_reading_s = 0.3;
    c.duration_s = 3.0;
    c.warmup_s = 0.5;
    c.seed = 0xDEC1_5105;
    c.policy = PolicyRegistry::standard()
        .resolve(policy)
        .expect("standard policy");
    c
}

/// FNV-1a, folded over the little-endian bytes of each `u64`.
fn fnv1a_u64(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Hashes every record's `users`, `m`, δβ̄ bits, objective bits, optimality
/// flag and slack bits, each vector prefixed by its length.
fn decision_hash(records: &[DecisionRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for rec in records {
        fnv1a_u64(&mut hash, rec.users.len() as u64);
        for &u in &rec.users {
            fnv1a_u64(&mut hash, u as u64);
        }
        for &m in &rec.m {
            fnv1a_u64(&mut hash, m as u64);
        }
        for &db in &rec.delta_beta {
            fnv1a_u64(&mut hash, db.to_bits());
        }
        fnv1a_u64(&mut hash, rec.objective_value.to_bits());
        fnv1a_u64(&mut hash, rec.optimal as u64);
        fnv1a_u64(&mut hash, rec.slack.len() as u64);
        for &s in &rec.slack {
            fnv1a_u64(&mut hash, s.to_bits());
        }
    }
    hash
}

fn check(frame_threads: usize) {
    for (policy, golden) in GOLDEN_DECISION_HASHES {
        let (_, records) = run_with_trace(scenario(policy).with_frame_threads(frame_threads));
        assert!(
            records.iter().filter(|r| r.granted() > 0).count() > 50,
            "{policy}: the scenario must keep the scheduler busy"
        );
        if policy.starts_with("jaba-sd") {
            assert!(
                records.iter().any(|r| !r.optimal),
                "{policy}: at least one round must stop at the node cap"
            );
        }
        let hash = decision_hash(&records);
        assert_eq!(
            hash, golden,
            "{policy} at {frame_threads} frame thread(s): decision stream hashed to \
             {hash:#018x}; if the change is deliberate, regenerate (docs/DETERMINISM.md)"
        );
    }
}

/// The committed fixture on one frame thread.
#[test]
fn decision_stream_reproduces_committed_golden_hashes() {
    check(1);
}

/// The same hashes on two frame threads.
#[test]
fn decision_stream_hashes_are_frame_thread_invariant() {
    check(2);
}
