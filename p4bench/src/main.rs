//! The p4update benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path p4bench/Cargo.toml -- \
//!     --workload p4update-ft4096 --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric of the workload, `--trace 1`
//! every per-layer metric. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the line
//! before it records provenance. Any failed output check is listed on
//! standard error and makes the exit code non-zero. `p4bench/README.md`
//! lists the metrics and which end-to-end metric each layer should move.

mod explorer;
mod migrate;
mod stats;
mod traced;

use std::process::ExitCode;

/// The workloads, by `--workload` name.
const WORKLOADS: [&str; 2] = ["p4update-ft4096", "central-ft4096"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The git revision of the working directory, if it is a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn provenance(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    format!(
        "{{\"provenance\": {{\"git_rev\": \"{}\", \"available_parallelism\": {parallelism}, \
         \"loadavg\": \"{}\", \"seed\": {}, \"profile\": \"release\", \"workload\": \"{}\", \
         \"trace\": {}, \"seconds\": {}}}}}",
        git_rev(),
        loadavg.trim(),
        args.seed,
        args.workload,
        u8::from(args.trace),
        args.seconds
    )
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "p4bench: refusing a debug build (the analysis gate's debug assertions and \
             unoptimized code would change what is measured); build with --release"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("p4bench: {e}");
            eprintln!(
                "usage: p4bench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Load average before any work, so it shows what else ran.
    println!("{}", provenance(&args));
    let system = match args.workload.as_str() {
        "p4update-ft4096" => migrate::P4UPDATE,
        "central-ft4096" => migrate::CENTRAL,
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let mut out = if args.trace {
        migrate::run_traced(system, args.seed, args.seconds)
    } else {
        migrate::run(system, args.seed, args.seconds)
    };
    out.finish();
    println!("{}", out.to_json());
    if out.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &out.check_failures {
            eprintln!("p4bench: check failed: {f}");
        }
        ExitCode::FAILURE
    }
}
