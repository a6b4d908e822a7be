//! Bench-regression gate: fresh `BENCH_scan.json` / `BENCH_obs.json`
//! against the committed baselines.
//!
//! ```sh
//! cargo run -p leishen-bench --release --bin bench_diff -- \
//!     --baseline-scan baseline_scan.json --baseline-obs baseline_obs.json
//! ```
//!
//! Fails (exit 1) when:
//!
//! * throughput regresses by more than `--max-regression-pct` (default
//!   25%) — compared on absolute `tx_per_sec` when the two runs measured
//!   the same corpus (seed, scale, transaction count), and on the
//!   scale-free `speedup` fields otherwise (CI smoke runs use a smaller
//!   corpus than the committed full-run baselines);
//! * `speedup_at_4_workers` falls below `--min-speedup-at-4` (default
//!   3.5) — checked on the committed baseline always, and on the fresh
//!   run too when the corpora match (a smoke run over a different corpus
//!   is not held to the full-run floor);
//! * the telemetry sink's sampled overhead exceeds
//!   `--max-sink-overhead-pct` (default 5%).
//!
//! Setup problems get their own exit codes so CI logs distinguish "the
//! baseline was never stashed" from "the baseline is corrupt": exit 2 for
//! a missing/unreadable file, exit 3 for one that does not parse as JSON.
//!
//! Exit 2 also covers the `scaling_monotonic` gate: a sweep whose
//! 8-worker throughput falls below its own 2-worker throughput by more
//! than `--scaling-tolerance-pct` (default 10%) indicates the sweep
//! itself is broken — a scheduling inversion, not a gradual regression —
//! and is reported as a setup-class failure. Like the speedup floor, it
//! judges the committed baseline always and the fresh run only when the
//! corpora match: a tiny CI smoke sweep on a saturated host measures the
//! same collapsed code path at every worker count, where inversions are
//! pure timer noise. The tolerance absorbs the residual noise of real
//! full-scale runs.
//!
//! Four further gates arm only when their baseline flag is named, so
//! historical invocations keep their argument lists: `--baseline-chaos`
//! (survival + recall under injected faults), `--baseline-stream`
//! (sustained rate + batch≡stream equivalence), `--baseline-evade`
//! (zero default-config evasions, the weakened-config teeth floor, and
//! mixed attack+MEV corpus precision/recall no worse than baseline) and
//! `--baseline-recover` (a 1.0 crash-recovery success rate with zero
//! duplicated and zero lost verdicts, plus a ≥200-point crash-matrix
//! floor on the committed baseline and on fresh non-smoke runs).
//!
//! Both JSON files are parsed with the dependency-free
//! `leishen::trace::json` parser — the same one the provenance importer
//! uses — so the gate needs nothing beyond the workspace.

use std::process::ExitCode;

use leishen::trace::json::{parse, Json};
use leishen_bench::{cli_f64, cli_str};

/// Why a benchmark document could not be loaded — missing file and
/// malformed content are different operator errors and carry different
/// exit codes.
#[derive(Debug)]
enum LoadError {
    /// The file could not be read at all (never stashed, wrong path).
    Missing(String),
    /// The file was read but is not valid JSON (truncated, corrupt).
    Malformed(String),
}

impl LoadError {
    /// The process exit code this error maps to: 2 missing, 3 malformed
    /// (1 stays reserved for genuine benchmark regressions).
    fn exit_code(&self) -> u8 {
        match self {
            LoadError::Missing(_) => 2,
            LoadError::Malformed(_) => 3,
        }
    }

    fn message(&self) -> &str {
        match self {
            LoadError::Missing(m) | LoadError::Malformed(m) => m,
        }
    }
}

fn try_load(path: &str) -> Result<Json, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        LoadError::Missing(format!(
            "bench_diff: missing baseline or fresh file {path}: {e}"
        ))
    })?;
    parse(&text).map_err(|e| {
        LoadError::Malformed(format!(
            "bench_diff: malformed JSON in {path}: {e}"
        ))
    })
}

fn load(path: &str) -> Json {
    match try_load(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{}", e.message());
            std::process::exit(e.exit_code().into());
        }
    }
}

fn f64_at(doc: &Json, path: &[&str], file: &str) -> f64 {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("{file}: missing field {}", path.join(".")));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("{file}: {} is not a number", path.join(".")))
}

/// Whether two runs measured the same corpus and are therefore comparable
/// on absolute throughput.
fn same_corpus(a: &Json, b: &Json) -> bool {
    let key = |d: &Json| {
        let c = d.get("corpus")?;
        Some((
            c.get("seed")?.as_u64()?,
            c.get("scale")?.as_f64()?.to_bits(),
            c.get("transactions")?.as_u64()?,
        ))
    };
    matches!((key(a), key(b)), (Some(x), Some(y)) if x == y)
}

/// One throughput comparison; appends a violation when `fresh` falls more
/// than `max_drop_pct` below `base`.
fn check_drop(
    what: &str,
    base: f64,
    fresh: f64,
    max_drop_pct: f64,
    violations: &mut Vec<String>,
) {
    let change_pct = (fresh / base.max(1e-12) - 1.0) * 100.0;
    let verdict = if change_pct < -max_drop_pct { "FAIL" } else { "ok" };
    println!("  {verdict:<4} {what}: baseline {base:.1}, fresh {fresh:.1} ({change_pct:+.1}%)");
    if change_pct < -max_drop_pct {
        violations.push(format!(
            "{what} regressed {:.1}% (limit {max_drop_pct}%)",
            -change_pct
        ));
    }
}

/// The engine worker sweep `(workers, tx_per_sec)` rows of a scan
/// document. Rows without a `mode` field (the current format) and
/// `scheduled` rows (older files) count; older `naive` rows do not.
fn sweep_rows(doc: &Json, file: &str) -> Vec<(u64, f64)> {
    doc.get("parallel")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{file}: missing parallel[]"))
        .iter()
        .filter(|r| r.get("mode").and_then(Json::as_str).is_none_or(|m| m == "scheduled"))
        .filter_map(|r| Some((r.get("workers")?.as_u64()?, r.get("tx_per_sec")?.as_f64()?)))
        .collect()
}

/// The `scaling_monotonic` gate: scaling an engine scan from 2 to 8
/// workers must never *lose* throughput (beyond `tolerance_pct` of timer
/// noise). Returns the violation message, if any; `None` when either row
/// is absent (smoke runs sweep fewer worker counts).
fn scaling_violation(rows: &[(u64, f64)], tolerance_pct: f64) -> Option<String> {
    let at = |w: u64| rows.iter().find(|(rw, _)| *rw == w).map(|(_, tps)| *tps);
    let (two, eight) = (at(2)?, at(8)?);
    let floor = two * (1.0 - tolerance_pct / 100.0);
    (eight < floor).then(|| {
        format!(
            "scaling not monotonic: 8-worker {eight:.1} tx/s < 2-worker {two:.1} tx/s \
             (tolerance {tolerance_pct}%)"
        )
    })
}

fn main() -> ExitCode {
    let max_drop = cli_f64("--max-regression-pct", 25.0);
    let max_sink = cli_f64("--max-sink-overhead-pct", 5.0);
    let scaling_tolerance = cli_f64("--scaling-tolerance-pct", 10.0);
    let min_speedup_at_4 = cli_f64("--min-speedup-at-4", 3.5);
    let base_scan_path = cli_str("--baseline-scan", "baseline_scan.json");
    let base_obs_path = cli_str("--baseline-obs", "baseline_obs.json");
    let fresh_scan_path = cli_str("--fresh-scan", "BENCH_scan.json");
    let fresh_obs_path = cli_str("--fresh-obs", "BENCH_obs.json");

    let base_scan = load(&base_scan_path);
    let fresh_scan = load(&fresh_scan_path);
    let base_obs = load(&base_obs_path);
    let fresh_obs = load(&fresh_obs_path);
    let mut violations = Vec::new();

    // ----- scan throughput -------------------------------------------------
    if same_corpus(&base_scan, &fresh_scan) {
        println!("scan: corpora match — comparing absolute throughput");
        check_drop(
            "serial tx/s",
            f64_at(&base_scan, &["serial", "tx_per_sec"], &base_scan_path),
            f64_at(&fresh_scan, &["serial", "tx_per_sec"], &fresh_scan_path),
            max_drop,
            &mut violations,
        );
        let base_rows = sweep_rows(&base_scan, &base_scan_path);
        let fresh_rows = sweep_rows(&fresh_scan, &fresh_scan_path);
        for (w, base_tps) in &base_rows {
            if let Some((_, fresh_tps)) = fresh_rows.iter().find(|(fw, _)| fw == w) {
                check_drop(
                    &format!("{w}-worker tx/s"),
                    *base_tps,
                    *fresh_tps,
                    max_drop,
                    &mut violations,
                );
            }
        }
    } else {
        println!("scan: corpora differ — comparing scale-free speedup");
        check_drop(
            "speedup at 4 workers",
            f64_at(&base_scan, &["speedup_at_4_workers"], &base_scan_path),
            f64_at(&fresh_scan, &["speedup_at_4_workers"], &fresh_scan_path),
            max_drop,
            &mut violations,
        );
    }

    // ----- scan: worker-scaling gates --------------------------------------
    // The speedup floor holds the committed full-run baseline to the
    // engine's contract; the fresh run is only held to it when it
    // measured the same corpus (CI smoke corpora are tiny and noisy).
    for (doc, path, gated) in [
        (&base_scan, &base_scan_path, true),
        (&fresh_scan, &fresh_scan_path, same_corpus(&base_scan, &fresh_scan)),
    ] {
        if !gated {
            continue;
        }
        let speedup = f64_at(doc, &["speedup_at_4_workers"], path);
        let verdict = if speedup < min_speedup_at_4 { "FAIL" } else { "ok" };
        println!(
            "  {verdict:<4} {path} speedup at 4 workers: {speedup:.2}× (floor {min_speedup_at_4}×)"
        );
        if speedup < min_speedup_at_4 {
            violations.push(format!(
                "{path}: speedup_at_4_workers {speedup:.2} below floor {min_speedup_at_4}"
            ));
        }
        if let Some(message) = scaling_violation(&sweep_rows(doc, path), scaling_tolerance) {
            eprintln!("bench_diff: {path}: {message}");
            return ExitCode::from(2);
        }
        println!(
            "  ok   {path} scaling monotonic (8-worker ≥ 2-worker within {scaling_tolerance}%)"
        );
    }

    // ----- obs: sink overhead ----------------------------------------------
    if same_corpus(&base_obs, &fresh_obs) {
        println!("obs: corpora match — comparing absolute noop throughput");
        check_drop(
            "noop tx/s",
            f64_at(&base_obs, &["sink_overhead", "noop_tx_per_sec"], &base_obs_path),
            f64_at(&fresh_obs, &["sink_overhead", "noop_tx_per_sec"], &fresh_obs_path),
            max_drop,
            &mut violations,
        );
    }
    let overhead = f64_at(&fresh_obs, &["sink_overhead", "overhead_pct"], &fresh_obs_path);
    let verdict = if overhead > max_sink { "FAIL" } else { "ok" };
    println!("  {verdict:<4} sampled sink overhead: {overhead:+.2}% (limit {max_sink}%)");
    if overhead > max_sink {
        violations.push(format!(
            "sampled sink overhead {overhead:.2}% exceeds {max_sink}%"
        ));
    }

    // ----- chaos: survival and recall-under-faults (opt-in) ----------------
    // The chaos gate only arms when a baseline is named: the plain CI
    // `test` job invocation keeps its historical argument list.
    let base_chaos_path = cli_str("--baseline-chaos", "");
    if !base_chaos_path.is_empty() {
        let fresh_chaos_path = cli_str("--fresh-chaos", "BENCH_chaos.json");
        let base_chaos = load(&base_chaos_path);
        let fresh_chaos = load(&fresh_chaos_path);
        println!("chaos: survival + recall under injected faults");

        let survival = f64_at(&fresh_chaos, &["survival_rate"], &fresh_chaos_path);
        let verdict = if survival < 1.0 { "FAIL" } else { "ok" };
        println!("  {verdict:<4} survival rate: {survival:.4} (must be 1.0)");
        if survival < 1.0 {
            violations.push(format!("chaos survival rate {survival:.4} < 1.0"));
        }

        let base_recall = f64_at(&base_chaos, &["recall_clean"], &base_chaos_path);
        let fresh_recall = f64_at(&fresh_chaos, &["recall_clean"], &fresh_chaos_path);
        let verdict = if fresh_recall < base_recall { "FAIL" } else { "ok" };
        println!(
            "  {verdict:<4} recall on uncorrupted txs: baseline {base_recall:.4}, fresh {fresh_recall:.4}"
        );
        if fresh_recall < base_recall {
            violations.push(format!(
                "chaos recall under faults dropped: {fresh_recall:.4} < baseline {base_recall:.4}"
            ));
        }

        let chaos_violations = f64_at(&fresh_chaos, &["violations"], &fresh_chaos_path);
        let verdict = if chaos_violations > 0.0 { "FAIL" } else { "ok" };
        println!("  {verdict:<4} campaign violations: {chaos_violations:.0} (must be 0)");
        if chaos_violations > 0.0 {
            violations.push(format!(
                "chaos campaign recorded {chaos_violations:.0} violation(s)"
            ));
        }
    }

    // ----- stream: sustained throughput + batch≡stream (opt-in) ------------
    // Like the chaos gate, this only arms when a baseline is named, so
    // existing invocations keep their argument lists.
    let base_stream_path = cli_str("--baseline-stream", "");
    if !base_stream_path.is_empty() {
        let fresh_stream_path = cli_str("--fresh-stream", "BENCH_stream.json");
        let base_stream = load(&base_stream_path);
        let fresh_stream = load(&fresh_stream_path);
        println!("stream: sustained rate + batch≡stream equivalence");

        // The equivalence flags are the stream bin's own assertion that
        // its verdicts matched a one-shot batch scan; a fresh run that
        // did not (or could not) record them must not pass the gate.
        for field in ["verdicts_match", "quarantines_match"] {
            let held = fresh_stream
                .get("equivalence")
                .and_then(|e| e.get(field))
                .and_then(Json::as_bool)
                .unwrap_or(false);
            let verdict = if held { "ok" } else { "FAIL" };
            println!("  {verdict:<4} equivalence.{field}: {held}");
            if !held {
                violations.push(format!("stream equivalence.{field} is not true"));
            }
        }

        // Sustained throughput compares like the scan gate: absolute
        // when the corpora match, skipped otherwise (a smoke run over a
        // different corpus says nothing about the full-run rate). The
        // p99 gets triple the throughput tolerance — tail latency under
        // a firehose producer is queueing-dominated and noisy.
        if same_corpus(&base_stream, &fresh_stream) {
            check_drop(
                "sustained stream tx/s",
                f64_at(&base_stream, &["sustained_tx_per_sec"], &base_stream_path),
                f64_at(&fresh_stream, &["sustained_tx_per_sec"], &fresh_stream_path),
                max_drop,
                &mut violations,
            );
            let base_p99 = f64_at(&base_stream, &["p99_latency_us"], &base_stream_path);
            let fresh_p99 = f64_at(&fresh_stream, &["p99_latency_us"], &fresh_stream_path);
            let limit = max_drop * 3.0;
            let growth_pct = (fresh_p99 / base_p99.max(1e-12) - 1.0) * 100.0;
            let verdict = if growth_pct > limit { "FAIL" } else { "ok" };
            println!(
                "  {verdict:<4} p99 verdict latency: baseline {base_p99:.1}µs, \
                 fresh {fresh_p99:.1}µs ({growth_pct:+.1}%)"
            );
            if growth_pct > limit {
                violations.push(format!(
                    "stream p99 latency grew {growth_pct:.1}% (limit {limit}%)"
                ));
            }
        } else {
            println!("  skip corpora differ — absolute stream rates not comparable");
        }
    }

    // ----- evade: precision/recall + blind-spot count (opt-in) -------------
    // Armed by `--baseline-evade`, same as the chaos and stream gates.
    // The headline check is recall on the mixed attack+MEV corpus: a
    // detector change that trades missed attacks for fewer false
    // positives (or vice versa) fails here even if throughput is fine.
    let base_evade_path = cli_str("--baseline-evade", "");
    if !base_evade_path.is_empty() {
        let fresh_evade_path = cli_str("--fresh-evade", "BENCH_evade.json");
        let base_evade = load(&base_evade_path);
        let fresh_evade = load(&fresh_evade_path);
        println!("evade: adversarial blind spots + mixed-corpus precision/recall");

        let lost = f64_at(&fresh_evade, &["default", "evasions"], &fresh_evade_path);
        let verdict = if lost > 0.0 { "FAIL" } else { "ok" };
        println!("  {verdict:<4} default-config evasions found: {lost:.0} (must be 0)");
        if lost > 0.0 {
            violations.push(format!(
                "evade search found {lost:.0} default-config evasion(s) — live blind spot"
            ));
        }

        // The weakened-config count proves the search itself still has
        // teeth; without it a broken search would pass the zero gate
        // vacuously. The floor is the committed baseline's count capped
        // at 5 (smoke budgets are smaller than the full-run baseline's).
        let base_teeth = f64_at(&base_evade, &["weakened", "evasions"], &base_evade_path);
        let teeth = f64_at(&fresh_evade, &["weakened", "evasions"], &fresh_evade_path);
        let floor = base_teeth.min(5.0);
        let verdict = if teeth < floor { "FAIL" } else { "ok" };
        println!(
            "  {verdict:<4} weakened-config evasions found: {teeth:.0} (floor {floor:.0})"
        );
        if teeth < floor {
            violations.push(format!(
                "evade search lost its teeth: {teeth:.0} weakened evasion(s), floor {floor:.0}"
            ));
        }

        for metric in ["precision", "recall"] {
            let base = f64_at(&base_evade, &["mixed_corpus", metric], &base_evade_path);
            let fresh = f64_at(&fresh_evade, &["mixed_corpus", metric], &fresh_evade_path);
            let verdict = if fresh < base { "FAIL" } else { "ok" };
            println!(
                "  {verdict:<4} mixed-corpus {metric}: baseline {base:.4}, fresh {fresh:.4}"
            );
            if fresh < base {
                violations.push(format!(
                    "mixed-corpus {metric} regressed: {fresh:.4} < baseline {base:.4}"
                ));
            }
        }
    }

    // ----- recover: exactly-once crash recovery (opt-in) -------------------
    // Armed by `--baseline-recover`. These are correctness absolutes,
    // not regressions-against-baseline: any crash point that loses or
    // duplicates a verdict is a broken journal, whatever the baseline
    // says. The baseline still earns its keep as the matrix-size floor
    // — a full run must keep covering at least 200 crash points so the
    // gate cannot be satisfied by shrinking the campaign.
    let base_recover_path = cli_str("--baseline-recover", "");
    if !base_recover_path.is_empty() {
        let fresh_recover_path = cli_str("--fresh-recover", "BENCH_recover.json");
        let base_recover = load(&base_recover_path);
        let fresh_recover = load(&fresh_recover_path);
        println!("recover: exactly-once verdicts across crash points");

        let rate = f64_at(&fresh_recover, &["recovery_success_rate"], &fresh_recover_path);
        let verdict = if rate < 1.0 { "FAIL" } else { "ok" };
        println!("  {verdict:<4} recovery success rate: {rate:.4} (must be 1.0)");
        if rate < 1.0 {
            violations.push(format!("recover success rate {rate:.4} < 1.0"));
        }

        for field in ["duplicate_verdicts", "lost_verdicts", "violations"] {
            let count = f64_at(&fresh_recover, &[field], &fresh_recover_path);
            let verdict = if count > 0.0 { "FAIL" } else { "ok" };
            println!("  {verdict:<4} {field}: {count:.0} (must be 0)");
            if count > 0.0 {
                violations.push(format!("recover campaign recorded {count:.0} {field}"));
            }
        }

        // The committed baseline must always be a full-size matrix; a
        // fresh run is only held to the floor when it is not a smoke
        // run (CI smoke matrices are deliberately small).
        let fresh_is_smoke = fresh_recover
            .get("smoke")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        for (doc, path, gated) in [
            (&base_recover, &base_recover_path, true),
            (&fresh_recover, &fresh_recover_path, !fresh_is_smoke),
        ] {
            if !gated {
                continue;
            }
            let cases = f64_at(doc, &["cases"], path);
            let verdict = if cases < 200.0 { "FAIL" } else { "ok" };
            println!("  {verdict:<4} {path} crash matrix size: {cases:.0} (floor 200)");
            if cases < 200.0 {
                violations.push(format!(
                    "{path}: crash matrix covers only {cases:.0} points (floor 200)"
                ));
            }
        }
    }

    if violations.is_empty() {
        println!("\nbench_diff: no regressions");
        ExitCode::SUCCESS
    } else {
        println!("\nbench_diff: {} violation(s):", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_file_maps_to_exit_code_2() {
        let err = try_load("/nonexistent/bench_diff_no_such_file.json")
            .expect_err("path does not exist");
        assert!(matches!(err, LoadError::Missing(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("missing"), "{}", err.message());
        assert!(
            err.message().contains("bench_diff_no_such_file.json"),
            "message names the offending path: {}",
            err.message()
        );
    }

    #[test]
    fn malformed_file_maps_to_exit_code_3() {
        let dir = std::env::temp_dir();
        let path = dir.join("bench_diff_malformed_test.json");
        std::fs::write(&path, "{\"bench\": ").expect("write fixture");
        let err = try_load(path.to_str().unwrap()).expect_err("file is truncated JSON");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, LoadError::Malformed(_)), "{err:?}");
        assert_eq!(err.exit_code(), 3);
        assert!(err.message().contains("malformed"), "{}", err.message());
    }

    #[test]
    fn scaling_gate_trips_only_beyond_tolerance() {
        // 8-worker dead even with 2-worker: fine.
        let flat = [(2, 1000.0), (4, 1800.0), (8, 1000.0)];
        assert_eq!(scaling_violation(&flat, 10.0), None);
        // Within tolerance: noise, not an inversion.
        let noisy = [(2, 1000.0), (8, 950.0)];
        assert_eq!(scaling_violation(&noisy, 10.0), None);
        // A real inversion trips the gate…
        let inverted = [(2, 1000.0), (8, 600.0)];
        let message = scaling_violation(&inverted, 10.0).expect("inversion detected");
        assert!(message.contains("not monotonic"), "{message}");
        // …and a sweep missing either endpoint cannot be judged.
        assert_eq!(scaling_violation(&[(2, 1000.0)], 10.0), None);
        assert_eq!(scaling_violation(&[(8, 600.0)], 10.0), None);
        assert_eq!(scaling_violation(&[], 10.0), None);
    }

    #[test]
    fn sweep_rows_keep_scheduled_and_unlabeled_rows_only() {
        let doc = parse(
            r#"{"parallel": [
                {"workers": 2, "tx_per_sec": 10.0},
                {"workers": 4, "mode": "scheduled", "tx_per_sec": 20.0},
                {"workers": 4, "mode": "naive", "tx_per_sec": 15.0}
            ]}"#,
        )
        .expect("fixture parses");
        assert_eq!(sweep_rows(&doc, "fixture"), vec![(2, 10.0), (4, 20.0)]);
    }

    #[test]
    fn well_formed_file_loads() {
        let dir = std::env::temp_dir();
        let path = dir.join("bench_diff_wellformed_test.json");
        std::fs::write(&path, "{\"bench\": \"scan\"}").expect("write fixture");
        let doc = try_load(path.to_str().unwrap()).expect("valid JSON loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("scan"));
    }
}
