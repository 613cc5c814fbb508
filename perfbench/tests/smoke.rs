//! Smoke tests: every workload runs for a few frames or cells and prints
//! every metric with its unit; the operating-point guards reject a
//! saturated network. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use perfbench::frames::Reference;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workload::{guard, recorded_frames, saturated_cfg, sim_cells, Size, Workload};

/// Runs the benchmark binary; returns its exit code, standard output and
/// standard error.
fn bench(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The value printed for `name` in a result line, checking its unit.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    let (value, tail) = rest.split_once(", ").expect("value is followed by a unit");
    assert!(
        tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
        "{name} has the wrong unit in {line}"
    );
    value
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not a number: {value}"))
}

fn smoke(workload: &str, trace: &str, table: &[(&str, &str)]) {
    let (code, stdout, stderr) = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert_eq!(
        code, 0,
        "{workload} --trace {trace} failed: {stderr}\n{stdout}"
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let last = lines.last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for (name, unit) in table {
        assert!(metric(last, name, unit).is_finite());
    }
    let detail = lines[lines.len() - 2];
    for key in [
        "\"seed\": 7",
        "\"nproc\": ",
        "\"segments\": ",
        "\"frame_threads\": 1",
    ] {
        assert!(detail.contains(key), "detail line lacks {key}: {detail}");
    }
}

#[test]
fn metro_prints_every_metric() {
    smoke("metro", "0", &END_TO_END);
    smoke("metro", "1", &PER_LAYER);
}

#[test]
fn burst_prints_every_metric() {
    smoke("burst", "0", &END_TO_END);
    smoke("burst", "1", &PER_LAYER);
}

#[test]
fn campaign_prints_every_metric() {
    smoke("campaign", "0", &END_TO_END);
    smoke("campaign", "1", &PER_LAYER);
}

#[test]
fn bad_arguments_exit_with_code_2() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "metro", "--seconds", "1"][..],
        &[
            "--workload",
            "metro",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let (code, stdout, _) = bench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stdout.is_empty());
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"name\": ").count(),
        3 + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn guards_reject_a_saturated_network() {
    // 10,000 mobiles on 7 cells: every frame overloaded, nothing admitted.
    let size = Size {
        cells: 1,
        frames: 40,
        warmup_frames: 10,
    };
    let cfg = saturated_cfg(1, size);
    let r = Reference::run(&cfg);
    let runs = [(&r.report, &r.sched)];
    let frames = recorded_frames(&cfg);
    let metro = guard(Workload::Metro, &runs, frames).expect_err("metro guard must fire");
    assert!(metro.contains("frames overloaded"), "{metro}");
    let burst = guard(Workload::Burst, &runs, frames).expect_err("burst guard must fire");
    assert!(burst.contains("nodes per round"), "{burst}");
}

#[test]
fn guards_accept_the_workloads() {
    for w in [Workload::Metro, Workload::Burst] {
        let cells = sim_cells(w, 3, true);
        let refs: Vec<Reference> = cells.iter().map(Reference::run).collect();
        let runs: Vec<_> = refs.iter().map(|r| (&r.report, &r.sched)).collect();
        let frames = cells.iter().map(recorded_frames).sum();
        guard(w, &runs, frames).unwrap_or_else(|e| panic!("{e}"));
    }
}
