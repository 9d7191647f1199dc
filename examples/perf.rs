//! Performance baseline runner: drives the multi-flow scale benchmark and
//! writes `BENCH_p4update.json` (events/sec, peak queue depth, p50/p99
//! flow-completion times and stranded-flow counts for every
//! scale × system cell, plus a run-level thread-scaling probe and the
//! 32768-switch run).
//!
//! ```sh
//! cargo run --release --example perf              # full run, writes BENCH_p4update.json
//! cargo run --example perf -- --smoke             # CI smoke: small scales, schema check only
//! cargo run --example perf -- --smoke --out /tmp/a.json --strip-timing
//! cargo run --example perf -- --check BENCH_p4update.json   # validate an existing artifact
//! cargo run --release --example perf -- --threads 4
//! cargo run --release --example perf -- --ft32768-smoke 32  # the 32768-switch run, alone
//! ```
//!
//! `--threads N` shards the (system × seed) grid over N workers. The
//! `--strip-timing` output (wall-clock fields removed) is byte-identical
//! for any N, which `scripts/check.sh` verifies by diffing 1-vs-4-thread
//! smoke runs. `--ft32768-smoke F` runs only the 32768-switch probe with
//! F flows and prints its entry — the quick CI-sized version of the full
//! artifact's `ft32768` entry; it exits non-zero unless the queue
//! drained and every flow completed.
//!
//! The full run should be made from a release build on an otherwise idle
//! machine; the committed baseline's absolute numbers are indicative, not
//! normative — `--check` validates shape, not throughput.

use p4update::perf::{ft32768_probe, run_bench, strip_timing, validate_report, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut strip = false;
    let mut threads = 1usize;
    let mut ft32768_flows: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--strip-timing" => strip = true,
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
            }
            "--ft32768-smoke" => {
                i += 1;
                ft32768_flows = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| (1..=238).contains(&n))
                        .unwrap_or_else(|| usage("--ft32768-smoke needs a flow count in 1..=238")),
                );
            }
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--out needs a path")),
                );
            }
            "--check" => {
                i += 1;
                check = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--check needs a path")),
                );
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    if let Some(flows) = ft32768_flows {
        let entry = ft32768_probe(flows).unwrap_or_else(|e| fail(&e));
        println!("{}", entry.to_string_pretty());
        return;
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let doc =
            Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: malformed JSON: {e}")));
        // The committed baseline must cover all four scales.
        if let Err(e) = validate_report(&doc, 4) {
            fail(&format!("{path}: {e}"));
        }
        println!("{path}: ok");
        return;
    }

    if !smoke && cfg!(debug_assertions) {
        eprintln!("note: full run in a debug build; use --release for baseline numbers");
    }
    let report = run_bench(smoke, threads);
    let min_scales = if smoke { 1 } else { 4 };
    if let Err(e) = validate_report(&report, min_scales) {
        fail(&format!("generated report failed validation: {e}"));
    }
    // Smoke mode is a CI health check: run, validate, and only persist
    // when a path was asked for (the determinism diff in check.sh needs
    // the artifact on disk).
    let out = match (smoke, out) {
        (true, None) => {
            println!("smoke run ok");
            return;
        }
        (_, out) => out.unwrap_or_else(|| "BENCH_p4update.json".into()),
    };
    let persisted = if strip { strip_timing(&report) } else { report };
    let text = persisted.to_string_pretty();
    std::fs::write(&out, &text).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!("wrote {out}");
    if !smoke {
        print_summary(&persisted);
    }
}

fn print_summary(report: &p4update::perf::Json) {
    let Some(scales) = report.get("scales").and_then(Json::as_arr) else {
        return;
    };
    for scale in scales {
        let name = scale.get("scale").and_then(Json::as_str).unwrap_or("?");
        let nodes = scale.get("nodes").and_then(Json::as_f64).unwrap_or(0.0);
        println!("{name} ({nodes} switches):");
        for sys in scale.get("systems").and_then(Json::as_arr).unwrap_or(&[]) {
            println!(
                "  {:<12} {:>10.0} events/s   peak queue {:>6.0}   fct p50 {:>8.1} ms   p99 {:>8.1} ms   done {:.1}%   stranded {:.0}",
                sys.get("system").and_then(Json::as_str).unwrap_or("?"),
                sys.get("events_per_sec").and_then(Json::as_f64).unwrap_or(0.0),
                sys.get("peak_queue_depth").and_then(Json::as_f64).unwrap_or(0.0),
                sys.get("fct_p50_ms").and_then(Json::as_f64).unwrap_or(0.0),
                sys.get("fct_p99_ms").and_then(Json::as_f64).unwrap_or(0.0),
                sys.get("completion_rate").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
                sys.get("stranded_flows").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    if let Some(ts) = report.get("thread_scaling") {
        if let Some(rl) = ts.get("run_level") {
            let scale = rl.get("scale").and_then(Json::as_str).unwrap_or("?");
            let avail = rl
                .get("parallelism_available")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            println!("run-level thread scaling ({scale}, {avail:.0} cores available):");
            for p in rl.get("points").and_then(Json::as_arr).unwrap_or(&[]) {
                println!(
                    "  {:>2.0} threads   {:>7.2} s   speedup {:>5.2}x",
                    p.get("threads").and_then(Json::as_f64).unwrap_or(0.0),
                    p.get("wall_secs").and_then(Json::as_f64).unwrap_or(0.0),
                    p.get("speedup").and_then(Json::as_f64).unwrap_or(0.0),
                );
            }
        }
    }
    if let Some(e) = report.get("ft32768") {
        println!(
            "ft32768 ({:.0} switches, {:.0} flows): {:.0} events   {:.0} events/s",
            e.get("nodes").and_then(Json::as_f64).unwrap_or(0.0),
            e.get("flows").and_then(Json::as_f64).unwrap_or(0.0),
            e.get("events").and_then(Json::as_f64).unwrap_or(0.0),
            e.get("events_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf [--smoke] [--threads N] [--out PATH] [--strip-timing] [--check FILE] \
         [--ft32768-smoke FLOWS]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
