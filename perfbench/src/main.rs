//! `perfbench` — the LeiShen benchmark: one command, four workloads, every
//! verdict checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload backfill|forensics|monitor|catchup --seed N --seconds S \
//!     --trace 0|1 [--arrival-seed N]
//! ```
//!
//! `--seed` seeds the corpus generator; `--arrival-seed` (default: the
//! generator seed) seeds the bursty block cut of the stream workloads.
//! With `--trace 0` the run measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics of
//! the traced run and writes its spans to `perfbench/out/`. The last line
//! of standard output is the result as one JSON object. The exit code is
//! non-zero when any correctness check fails.

mod host;
mod openloop;
mod setup;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use leishen::{DetectorConfig, LeiShen};

use host::Host;
use setup::{block_cut, Corpus, SetupTimes, TempDir};
use spans::Recorder;
use stats::{median, percentile, sorted, tail};
use workloads::{Ctx, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Detections the generator's seed-42 corpus must yield (Table V).
const SEED_42_FLAGGED: usize = 180;

/// End-to-end metrics, with units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("tx_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, with units, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 43] = [
    ("scenarios.generate_s", "s"),
    ("ethsim.validate_ms", "ms"),
    ("flashloan.busy_ms", "ms"),
    ("tagging.busy_ms", "ms"),
    ("simplify.busy_ms", "ms"),
    ("trades.busy_ms", "ms"),
    ("patterns.busy_ms", "ms"),
    ("tagging.tags_resolved", "count"),
    ("simplify.kept", "count"),
    ("simplify.dropped", "count"),
    ("simplify.merged", "count"),
    ("trades.count", "count"),
    ("patterns.pairs_examined", "count"),
    ("patterns.matches", "count"),
    ("patterns.match_ratio", "ratio"),
    ("scan.cache_hit_ratio", "ratio"),
    ("scan.cache_misses", "count"),
    ("scan.lock_waits", "count"),
    ("scan.overhead_ms", "ms"),
    ("scan.cache_gain", "ratio"),
    ("scan.parallel_scaling", "ratio"),
    ("sched.plan_ms", "ms"),
    ("sched.waves", "count"),
    ("sched.largest_cluster", "count"),
    ("scan.snapshot_rebuilds_per_block", "1/block"),
    ("stream.scan_us_p50", "us"),
    ("stream.scan_us_p99", "us"),
    ("store.append_us_p50", "us"),
    ("store.append_us_p99", "us"),
    ("stream.handoff_us", "us"),
    ("stream.ingest_wait_ms", "ms"),
    ("stream.producer_waits", "count"),
    ("stream.max_ingest_depth", "count"),
    ("stream.max_emit_depth", "count"),
    ("store.flushes", "count"),
    ("store.bytes_per_tx", "B"),
    ("store.open_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.recorded", "count"),
    ("trace.pinned", "count"),
    ("bench.generator_late_p99_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.layer_residual_pct", "%"),
];

const USAGE: &str = "usage: perfbench --workload backfill|forensics|monitor|catchup \
                     --seed N --seconds S --trace 0|1 [--arrival-seed N]";

struct Args {
    workload: Workload,
    seed: u64,
    arrival_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--arrival-seed" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or_else(|| format!("missing {f}"));
    let workload = get("--workload")?;
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let arrival_seed = match flags.get("--arrival-seed") {
        Some(s) => s.parse().map_err(|e| format!("--arrival-seed: {e}"))?,
        None => seed,
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        arrival_seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its result; `Ok(false)` when a
/// correctness check failed.
fn run(args: &Args) -> Result<bool, String> {
    let host = Host::probe();
    let workers = host.nproc;
    println!("# host {}", host.json());
    println!(
        "# run {{\"workload\":\"{}\",\"seed\":{},\"arrival_seed\":{},\"seconds\":{},\"trace\":{},\"workers\":{workers}}}",
        args.workload.name(),
        args.seed,
        args.arrival_seed,
        args.seconds,
        u8::from(args.trace)
    );

    let detector = LeiShen::new(DetectorConfig::paper());
    let out_dir = setup::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    // Set-up, repeated; the last one is kept. The catch-up journal
    // prefill is set-up too; the reference it is filled from is not.
    let needs_prefill = args.trace || args.workload == Workload::Catchup;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Corpus, SetupTimes)> = None;
    let mut prefilled: Option<TempDir> = None;
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so at most one corpus is resident.
        drop(kept.take());
        drop(prefilled.take());
        let (corpus, times) = Corpus::generate(args.seed);
        let mut total = times.total_s();
        if needs_prefill {
            let view = corpus.view();
            let records = corpus.records();
            let reference =
                reference.get_or_insert_with(|| setup::reference(&detector, &records, &view));
            let blocks = block_cut(records.len(), args.arrival_seed);
            let t = Instant::now();
            let dir = TempDir::new(&out_dir, "prefill").map_err(|e| format!("prefill dir: {e}"))?;
            setup::prefill(
                dir.path(),
                &detector,
                &blocks[..blocks.len() / 2],
                reference,
            )
            .map_err(|e| format!("prefill: {e}"))?;
            total += t.elapsed().as_secs_f64();
            prefilled = Some(dir);
        }
        setup_s.push(total);
        kept = Some((corpus, times));
    }
    let (corpus, times) = kept.expect("at least one set-up");
    let view = corpus.view();
    let records = corpus.records();
    let reference = match reference {
        Some(r) => r,
        None => setup::reference(&detector, &records, &view),
    };
    let blocks = block_cut(records.len(), args.arrival_seed);
    let ctx = Ctx {
        detector: &detector,
        view: &view,
        records: &records,
        reference: &reference,
        blocks: &blocks,
        workers,
        seconds: args.seconds,
    };

    let mut out = Outcome::default();
    let flagged = reference.iter().filter(|a| a.is_attack()).count();
    if args.seed == 42 && flagged != SEED_42_FLAGGED {
        out.error(format!(
            "seed 42 corpus flags {flagged} transactions, expected {SEED_42_FLAGGED}"
        ));
    }
    println!(
        "# corpus {{\"transactions\":{},\"flagged\":{flagged},\"blocks\":{},\"scale\":{}}}",
        records.len(),
        blocks.len(),
        setup::SCALE
    );

    let prefilled_path = prefilled.as_ref().map(|d| d.path());
    let mut notes = Vec::new();
    let metrics = if args.trace {
        let started = Instant::now();
        let mut rec = Recorder::new(started, true);
        let layers = traced::run(
            args.workload,
            &ctx,
            &out_dir,
            prefilled_path.expect("traced runs prefill"),
            &times,
            &mut rec,
            &mut out,
            &mut notes,
        );
        let path = out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        rec.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        ));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied(), unit))
            .collect::<Vec<_>>()
    } else {
        let run = ctx.run(args.workload, &out_dir, prefilled_path);
        let e2e = end_to_end(&run, &setup_s, &mut notes)?;
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.errors.extend(run.errors);
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, e2e.get(name).copied(), unit))
            .collect()
    };
    drop(prefilled);

    report(&out, &metrics, &notes)
}

/// The end-to-end metrics of an untraced run. Verdict latency goes to the
/// notes: on the batch workloads it restates throughput (a pass's time),
/// and on the stream workloads it is too unsteady on a shared host to gate.
fn end_to_end(
    run: &Outcome,
    setup_s: &[f64],
    notes: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&sorted(setup_s.to_vec())));
    m.insert("peak_rss_mb", host::peak_rss_mb()?);
    notes.push(format!("setup_s: median of {} set-ups", setup_s.len()));
    if run.tx_per_s.is_empty() || run.latency_ms.is_empty() {
        return Ok(m);
    }
    m.insert("tx_per_s", median(&sorted(run.tx_per_s.clone())));
    notes.push(format!(
        "tx_per_s: median of {} repetitions",
        run.tx_per_s.len()
    ));
    let latency = sorted(run.latency_ms.clone());
    let mut line = format!(
        "verdict latency: {} samples, p50 {:.3} ms",
        latency.len(),
        percentile(&latency, 50.0)
    );
    if let Some((p, v)) = tail(&latency) {
        line += &format!(
            ", p{p} {v:.3} ms ({} samples beyond)",
            stats::beyond(latency.len(), p)
        );
    }
    notes.push(line);
    Ok(m)
}

/// Prints the notes, every metric by name with its unit, and the result
/// line; `Ok(false)` when any check failed or a metric is missing.
fn report(
    out: &Outcome,
    metrics: &[(&str, Option<f64>, &str)],
    notes: &[String],
) -> Result<bool, String> {
    let mut errors = out.errors.clone();
    for note in notes {
        println!("# note {note}");
    }
    let mut fields = Vec::with_capacity(metrics.len());
    for &(name, value, unit) in metrics {
        let value = match value {
            Some(v) if v.is_finite() => v,
            _ => {
                errors.push(format!("metric {name} was not measured"));
                -1.0
            }
        };
        println!("# metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# failed_ratio = {ratio} ({} of {} attempted)",
        out.failed, out.attempted
    );
    for e in &errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    /// Every string value of `key` in `json`, in order (whitespace-free scan).
    fn values(json: &str, key: &str) -> Vec<String> {
        let flat: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let needle = format!("\"{key}\":\"");
        flat.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &flat[at + needle.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names = values(&json, "name");
        let units = values(&json, "unit");
        let metrics: Vec<(&str, &str)> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let workloads = &names[..names.len() - metrics.len()];
        assert!(
            workloads.iter().all(|w| Workload::from_name(w).is_some()),
            "{workloads:?}"
        );
        let listed: Vec<(&str, &str)> = names[workloads.len()..]
            .iter()
            .zip(&units)
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(listed, metrics);
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload catchup --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.arrival_seed, a.seconds, a.trace),
            (Workload::Catchup, 7, 7, 2.5, true)
        );
        let a = parse_args(&argv(
            "--workload monitor --seed 1 --seconds 1 --trace 0 --arrival-seed 9",
        ))
        .unwrap();
        assert_eq!(a.arrival_seed, 9);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload backfill --seed -1 --seconds 1 --trace 0",
            "--workload backfill --seed 1 --seconds 0 --trace 0",
            "--workload backfill --seed 1 --seconds 1 --trace 2",
            "--workload backfill --seed 1 --seconds 1",
            "--workload backfill --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
