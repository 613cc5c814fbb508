//! `perfbench --workload <metro|burst|campaign> --seed <n> --seconds <s>
//! --trace <0|1> [--smoke]`
//!
//! Prints a detail line and, last, one JSON result line; exits 1 when a
//! correctness check or an operating-point guard fails, 2 on bad
//! arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::run::{run, Budget, Settings};
use perfbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
    })
}

/// Keeps freed heap memory in the process for reuse (glibc `mallopt`):
/// no allocation below 32 MiB is served by its own `mmap`, and the heap
/// is not trimmed. A repeated `Simulation::new` then reuses the pages the
/// previous one freed, instead of faulting in fresh zeroed pages, so the
/// set-up timing measures the program's work rather than the kernel's
/// page zeroing (whose cost drifts with the host's memory traffic).
/// Returns whether both settings took.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes allocator tuning; it is called
    // before this process starts any other thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() -> bool {
    false
}

fn main() -> ExitCode {
    let keep_memory = keep_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let settings = Settings {
        workload: args.workload,
        seed: args.seed,
        budget: Budget {
            seconds: Duration::from_secs_f64(if args.smoke { 0.0 } else { args.seconds }),
            // A traced run times untraced/traced pairs, so two suffice.
            min_segments: if args.smoke || args.trace { 2 } else { 3 },
            max_segments: 200,
        },
        smoke: args.smoke,
        work: &work,
    };
    let mut result = match run(&settings, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in table {
        match result.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v.is_finite() => {}
            _ => result.incorrect(format!("metric {name} was not measured")),
        }
    }
    result.detail("keep_freed_memory", keep_memory.to_string());
    for p in &result.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{}", result.detail_line());
    println!("{}", result.result_line(table));
    if result.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
