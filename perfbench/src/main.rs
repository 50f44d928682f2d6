//! The repository benchmark.
//!
//! ```text
//! sknn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` stands the workload's deployment up several times (the
//! median is `setup_s`), then runs its closed loop for `--seconds` and
//! prints the end-to-end metrics. `--trace 1` times every layer's unit
//! costs, then runs the loop untraced and traced for half the time each,
//! and prints the per-layer metrics plus the tracing overhead. Either way
//! every answer is checked against the plaintext oracle, a table goes to
//! stdout, and the last line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//!
//! Build and run from the repository root:
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload basic-k1024 --seed 1 --seconds 10 --trace 0`

mod ledger;
mod stats;
mod trace;
mod workload;

#[cfg(test)]
mod json;

use stats::{median, result_json, tail, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workload::{run_phase, stand_up, Phase, Stream, Workload};

const USAGE: &str =
    "usage: sknn-perfbench --workload <name> --seed <n> --seconds <1..=60> --trace <0|1>";

/// Deployments stood up per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Request kinds the workloads send, reported per query (0 when a
/// workload never sends one).
const REQUEST_TAGS: [&str; 6] = [
    "SmBatch",
    "LsbBatch",
    "SminRound",
    "MinSelection",
    "TopK",
    "DecryptBatch",
];

/// Stages whose seconds every workload records (the others are printed
/// in the table where they occur).
const COMMON_STAGES: [sknn_core::Stage; 3] = [
    sknn_core::Stage::DistanceComputation,
    sknn_core::Stage::RecordSelection,
    sknn_core::Stage::Finalization,
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sknn-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match run(&args, &out) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sknn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, out: &Path) -> Result<String, String> {
    let w = &args.workload;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "# {} seed={} seconds={} trace={} cpus={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# {}", w.describe());
    println!("# why: {}", w.why);
    if args.trace {
        traced_run(args, out)
    } else {
        untraced_run(args, out)
    }
}

fn untraced_run(args: &Args, out: &Path) -> Result<String, String> {
    let w = &args.workload;
    let mut setups = Vec::new();
    let mut dep = None;
    for i in 0..SETUPS {
        // Tear the previous deployment down first, outside the timing.
        drop(dep.take());
        let (d, took) = stand_up(w, args.seed, None, out, &format!("setup{i}"))?;
        setups.push(took.as_secs_f64());
        dep = Some(d);
    }
    let mut dep = dep.ok_or("no deployment was stood up")?;
    let mut rng = workload::rng_for(args.seed, Stream::Queries);
    let phase = run_phase(w, &mut dep, args.seconds as f64, &mut rng, None)?;
    drop(dep);
    let setup_note = format!("median of {SETUPS} standups");
    let e2e = end_to_end(w, &phase, median(&setups), &setup_note);
    println!("end-to-end (untraced):\n{}", e2e.table());
    let extra = extra_end_to_end(w, &phase);
    if !extra.0.is_empty() {
        println!("not in the result line:\n{}", extra.table());
    }
    result_json(phase.failed == 0, phase.attempted, phase.failed, &e2e)
}

/// The end-to-end metrics of one timed phase, in the result line's order.
fn end_to_end(w: &Workload, p: &Phase, setup_s: f64, setup_note: &str) -> Metrics {
    let mut m = Metrics::default();
    m.push_note("setup_s", setup_s, "s", setup_note);
    let rounds = p.latencies.len();
    let what = if w.batch == 1 {
        "per query"
    } else {
        "per run_batch call"
    };
    m.push_note(
        "query_p50_s",
        median(&p.latencies),
        "s",
        format!("{what}, n={rounds}"),
    );
    let t = tail(&p.latencies);
    m.push_note(
        "query_tail_s",
        t.value,
        "s",
        format!(
            "p{:.1} of n={}, {} beyond",
            t.percentile, t.samples, t.beyond
        ),
    );
    let correct = (p.attempted - p.failed) as f64;
    m.push_note(
        "queries_per_s",
        correct / p.wall.as_secs_f64(),
        "1/s",
        format!("{correct} correct in {:.2} s", p.wall.as_secs_f64()),
    );
    m.push_note(
        "cpu_s_per_query",
        p.per_query(p.cpu_s),
        "s",
        format!("{:.2} CPU-s over {} queries", p.cpu_s, p.attempted),
    );
    m.push(
        "wire_bytes_per_query",
        p.per_query(p.comm.total_bytes() as f64),
        "bytes",
    );
    m.push(
        "round_trips_per_query",
        p.per_query(p.comm.requests as f64),
        "count",
    );
    m.push("peak_rss_mb", trace::peak_rss_mb(), "MiB");
    m.push("peak_threads", p.peak_threads as f64, "count");
    m
}

/// End-to-end numbers the result line does not carry: those that apply
/// to only some workloads or are zero on a healthy run, and Bob's
/// encryption time, a few milliseconds of single-threaded work whose
/// run-to-run spread follows the host's load more than the program.
fn extra_end_to_end(w: &Workload, p: &Phase) -> Metrics {
    let mut m = Metrics::default();
    m.push_note(
        "user_encrypt_ms",
        median(&p.encrypt_ms),
        "ms",
        format!("Bob's encrypt_query, n={}", p.encrypt_ms.len()),
    );
    if w.churn > 0 {
        m.push_note(
            "update_p50_ms",
            median(&p.update_ms),
            "ms",
            format!(
                "n={}, compaction every {} steps",
                p.update_ms.len(),
                w.compact_every
            ),
        );
    }
    m.push_note(
        "failed_frac",
        p.failed as f64 / p.attempted.max(1) as f64,
        "ratio",
        format!("{} of {}", p.failed, p.attempted),
    );
    m
}

fn traced_run(args: &Args, out: &Path) -> Result<String, String> {
    let w = &args.workload;
    let half = args.seconds as f64 / 2.0;
    let (units_m, units) = ledger::unit_costs(w, args.seed)?;

    let (mut plain, plain_setup) = stand_up(w, args.seed, None, out, "plain")?;
    let mut rng = workload::rng_for(args.seed, Stream::Queries);
    let untraced = run_phase(w, &mut plain, half, &mut rng, None)?;
    drop(plain);

    let tracer = Arc::new(Tracer::default());
    let (mut dep, traced_setup) = stand_up(w, args.seed, Some(&tracer), out, "traced")?;
    let origin = Instant::now();
    let mut rng = workload::rng_for(args.seed, Stream::Queries);
    let traced = run_phase(w, &mut dep, half, &mut rng, Some(&tracer))?;
    let store_m = ledger::store_costs(w, &mut dep, args.seed)?;
    drop(dep);
    let spans_path: PathBuf = out.join(format!("spans-{}-seed{}.csv", w.name, args.seed));
    tracer
        .write_csv(&spans_path, origin)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut layers = Metrics::default();
    layers.0.extend(units_m.0);
    per_layer(w, &traced, &tracer, &units, &mut layers);
    layers.0.extend(store_m.0);

    // Tracing overhead: the same loop, traced minus untraced.
    let a = end_to_end(w, &untraced, plain_setup.as_secs_f64(), "one standup");
    let b = end_to_end(w, &traced, traced_setup.as_secs_f64(), "one standup");
    println!("tracing overhead (same loop, {half} s each):");
    println!(
        "  {:<26} {:>14} {:>14} {:>14}",
        "metric", "untraced", "traced", "traced-untraced"
    );
    for (x, y) in a.0.iter().zip(&b.0) {
        println!(
            "  {:<26} {:>14.6} {:>14.6} {:>14.6} {}",
            x.name,
            x.value,
            y.value,
            y.value - x.value,
            x.unit
        );
    }
    for name in ["query_p50_s", "cpu_s_per_query", "queries_per_s"] {
        let (x, y) = (a.get(name).unwrap_or(0.0), b.get(name).unwrap_or(0.0));
        let unit = b.0.iter().find(|m| m.name == name).map_or("", |m| m.unit);
        layers.push(format!("overhead.{name}"), y - x, unit);
    }
    println!("\nper-layer (traced):\n{}", layers.table());
    print_ledger(w, &traced, &units);
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    result_json(failed == 0, attempted, failed, &layers)
}

/// The per-layer metrics of a traced phase: pool, executor stages,
/// predictions, transport spans, and CPU by thread group.
fn per_layer(w: &Workload, p: &Phase, tracer: &Tracer, units: &ledger::Units, m: &mut Metrics) {
    let q = p.attempted.max(1) as f64;
    m.push_note(
        "paillier.pool_hit_ratio",
        p.pool.hits as f64 / p.pool.draws().max(1) as f64,
        "ratio",
        format!(
            "{} hits of {} draws, C1 and C2 pools",
            p.pool.hits,
            p.pool.draws()
        ),
    );
    m.push(
        "paillier.pool_precomputed_per_query",
        p.pool.precomputed as f64 / q,
        "count",
    );

    let sharded_note = if w.shards > 1 {
        "summed over shards"
    } else {
        ""
    };
    for stage in sknn_core::Stage::ALL {
        let name = ledger::stage_name(stage);
        if COMMON_STAGES.contains(&stage) {
            m.push_note(
                format!("exec.{name}.s"),
                p.profile.stage(stage).as_secs_f64() / q,
                "s",
                sharded_note,
            );
        }
        let ops = p.profile.ops(stage);
        m.push(
            format!("exec.{name}.c2_decryptions"),
            ops.c2_decryptions as f64 / q,
            "count",
        );
        m.push(
            format!("exec.{name}.cts_to_c2"),
            ops.ciphertexts_to_c2 as f64 / q,
            "count",
        );
        m.push(
            format!("exec.{name}.cts_from_c2"),
            ops.ciphertexts_from_c2 as f64 / q,
            "count",
        );
    }
    for stage in COMMON_STAGES {
        m.push(
            format!("ledger.{}.predicted_s", ledger::stage_name(stage)),
            ledger::predicted_s(w, units, stage),
            "s",
        );
    }

    let spans = trace::summarize(&tracer.spans());
    m.push("transport.round_trips", p.comm.requests as f64 / q, "count");
    m.push("transport.bytes", p.comm.total_bytes() as f64 / q, "bytes");
    m.push_note(
        "transport.rtt_p50_us",
        spans.rtt_p50.as_secs_f64() * 1e6,
        "us",
        format!(
            "{} complete spans, {} incomplete",
            spans.complete, spans.incomplete
        ),
    );
    let blocked = spans.blocked.as_secs_f64();
    let busy = spans.busy.as_secs_f64();
    m.push("transport.c1_blocked_s", blocked / q, "s");
    m.push("c2.busy_s", busy / q, "s");
    m.push("transport.wire_s", (blocked - busy) / q, "s");
    m.push_note(
        "c1.compute_s",
        p.cpu_groups.get("c1").copied().unwrap_or(0.0) / q,
        "s",
        "CPU of C1's threads",
    );
    for tag in REQUEST_TAGS {
        m.push(
            format!("transport.requests.{tag}"),
            spans.by_tag.get(tag).copied().unwrap_or(0) as f64 / q,
            "count",
        );
    }
    for (tag, n) in &spans.by_tag {
        if !REQUEST_TAGS.contains(tag) {
            println!("# unlisted request kind {tag}: {n}");
        }
    }

    m.push(
        "engine.cpu_busy_cores",
        p.cpu_s / p.wall.as_secs_f64(),
        "cores",
    );
    for group in ["c2", "refill"] {
        m.push(
            format!("cpu.{group}_s"),
            p.cpu_groups.get(group).copied().unwrap_or(0.0) / q,
            "s",
        );
    }
    if w.batch == 1 {
        let wall: f64 = p.latencies.iter().sum();
        println!(
            "# c1 wall minus blocked: {:.6} s per query (the CPU-based c1.compute_s should agree)",
            (wall - blocked) / q
        );
    }
}

/// One predicted-vs-measured line per stage the workload runs, and the
/// ROADMAP's "C2 share of SSED" claim against the measured split.
fn print_ledger(w: &Workload, p: &Phase, units: &ledger::Units) {
    let q = p.attempted.max(1) as f64;
    println!("ledger (per query; predicted = primitive count x unit cost):");
    println!(
        "  {:<12} {:>12} {:>12} {:>12}",
        "stage", "predicted_s", "measured_s", "gap_s"
    );
    for stage in sknn_core::Stage::ALL {
        let predicted = ledger::predicted_s(w, units, stage);
        let measured = p.profile.stage(stage).as_secs_f64() / q;
        if predicted == 0.0 && measured == 0.0 {
            continue;
        }
        println!(
            "  {:<12} {predicted:>12.6} {measured:>12.6} {:>12.6}{}",
            ledger::stage_name(stage),
            measured - predicted,
            if w.shards > 1 {
                "  (measured is summed over shards)"
            } else {
                ""
            }
        );
    }
    let c1 = p.cpu_groups.get("c1").copied().unwrap_or(0.0);
    let c2 = p.cpu_groups.get("c2").copied().unwrap_or(0.0);
    if c1 + c2 > 0.0 {
        println!(
            "# ROADMAP claim \"C2 is ~90% of SSED time\": C2 has {:.1}% of C1+C2 CPU here \
             (ssed is {:.0}% of measured stage time)",
            100.0 * c2 / (c1 + c2),
            100.0
                * p.profile
                    .stage(sknn_core::Stage::DistanceComputation)
                    .as_secs_f64()
                / p.profile.total().as_secs_f64().max(f64::MIN_POSITIVE)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_validated() {
        let a = args("--workload secure-k512 --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload.name, "secure-k512");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(args("--workload secure-k512 --seed 7 --seconds 0 --trace 1").is_err());
        assert!(args("--workload secure-k512 --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload secure-k512 --seed 7 --seconds 10").is_err());
    }

    #[test]
    fn printed_names_are_legal() {
        for tag in REQUEST_TAGS {
            assert!(stats::valid_name(&format!("transport.requests.{tag}")));
        }
        for w in workload::WORKLOADS {
            assert!(stats::valid_name(w.name));
        }
    }
}
