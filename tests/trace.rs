//! Integration: decision-provenance tracing end to end (the flight
//! recorder over the Table I corpus).
//!
//! * A traced 4-worker scan returns *identical* analyses to a serial
//!   untraced reference — tracing observes, never perturbs.
//! * Every flagged trace is pinned, names at least one matched pattern in
//!   its reason chain, and every cleared trace explains the miss.
//! * The JSONL export is the exact inverse of `parse_jsonl`, and the
//!   Chrome trace parses as JSON.
//! * Every attack's trace (events + decision, timing-sanitized) matches
//!   a golden snapshot in `tests/golden_trace/`, and so does the head of
//!   the standard wild corpus (one JSONL golden); regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test trace`.

use ethsim::{TxId, TxStatus, TxTrace};
use leishen::trace::export::{export_chrome_trace, export_json, export_jsonl, parse_jsonl};
use leishen::trace::json;
use leishen::{FlightRecorder, NoopSink, Reason, ScanEngine, TagCache, TxProvenance};
use leishen_scenarios::ExecutedAttack;

mod common;
use common::snapshot::file_name;
use common::trace_snapshot::{check, pretty, sanitized};
use common::{AttackCorpus, WildCorpus};

fn traced_corpus() -> (Vec<ExecutedAttack>, FlightRecorder, Vec<leishen::Analysis>, Vec<leishen::Analysis>) {
    let corpus = AttackCorpus::build();
    let view = corpus.view();
    let detector = common::paper_detector();
    let records = corpus.sorted_records();

    let recorder = FlightRecorder::with_capacity(64);
    let cache = TagCache::new();
    let engine = ScanEngine::new(4).allow_oversubscription();
    let traced = engine.scan_instrumented(&detector, &records, &view, &cache, &NoopSink, &recorder);
    let reference: Vec<_> = records.iter().map(|r| detector.analyze(r, &view)).collect();
    (corpus.attacks, recorder, traced, reference)
}

#[test]
fn traced_parallel_scan_is_identity_preserving() {
    let (attacks, recorder, traced, reference) = traced_corpus();
    assert_eq!(traced, reference, "tracing must not perturb analyses");
    assert_eq!(recorder.recorded(), attacks.len() as u64);

    let expected_flagged = attacks.iter().filter(|a| a.spec.expect_leishen).count();
    assert_eq!(recorder.pinned().len(), expected_flagged, "flagged traces pin");
    for trace in recorder.traces() {
        assert!(!trace.decision.reasons.is_empty(), "reason chain never empty");
        if trace.decision.flagged {
            assert!(
                trace.decision.names_pattern(),
                "tx {} flagged without naming a pattern",
                trace.tx
            );
        } else {
            // Cleared traces still explain themselves: either no flash
            // loan, or a flash loan whose patterns all rejected.
            assert!(
                trace
                    .decision
                    .reasons
                    .iter()
                    .any(|r| matches!(r.code(), "no_flash_loan" | "no_pattern" | "reverted")),
                "tx {} cleared without a clearing reason: {:?}",
                trace.tx,
                trace.decision.reasons
            );
        }
    }
}

#[test]
fn corpus_jsonl_and_chrome_exports_are_well_formed() {
    let (_, recorder, _, _) = traced_corpus();
    let traces = recorder.traces();

    let jsonl = export_jsonl(&traces);
    let parsed = parse_jsonl(&jsonl).expect("exported JSONL parses");
    assert_eq!(parsed, traces, "JSONL round trip is lossless");

    let chrome = export_chrome_trace(&traces);
    let doc = json::parse(&chrome).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(json::Json::as_arr)
        .expect("traceEvents array");
    // One tx slice + one slice per recorded stage, per trace.
    assert!(events.len() >= traces.len() * 2);
    for e in events {
        assert_eq!(e.get("ph").and_then(json::Json::as_str), Some("X"));
    }
}

fn render(trace: TxProvenance) -> String {
    pretty(&export_json(&sanitized(trace)))
}

#[test]
fn harvest_finance_trace_matches_golden_snapshot() {
    let (attacks, recorder, _, _) = traced_corpus();
    let harvest = attacks
        .iter()
        .find(|a| a.spec.name == "Harvest Finance")
        .expect("corpus has Harvest Finance");
    let trace = recorder.find(harvest.tx).expect("trace recorded");
    assert!(trace.decision.flagged, "Harvest Finance is detected");

    let path = common::tests_dir("golden_trace").join("05_harvest_finance.json");
    if let Err(e) = check(&path, &render(trace), common::update_golden()) {
        panic!("{e}");
    }
}

/// Every Table I attack's provenance — flagged or missed — is pinned in
/// `tests/golden_trace/NN_slug.json`, named like its analysis snapshot.
#[test]
fn every_attack_trace_matches_its_golden_snapshot() {
    let update = common::update_golden();
    let (attacks, recorder, _, _) = traced_corpus();
    let dir = common::tests_dir("golden_trace");
    let failures: Vec<String> = attacks
        .iter()
        .filter_map(|attack| {
            let trace = recorder
                .find(attack.tx)
                .unwrap_or_else(|| panic!("{} has no recorded trace", attack.spec.name));
            check(&dir.join(file_name(attack)), &render(trace), update).err()
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Transactions at the head of the standard wild corpus: the cleared
/// traffic a forensics scan mostly records.
const WILD_SAMPLE: usize = 128;

/// The head of the standard wild corpus, recorded with a ring large
/// enough that nothing is evicted, matches a JSONL golden. The wild
/// corpus is all flash-loan traffic, so two variants of its first record
/// ride along to reach the short-circuits: one reverted, one with an
/// empty journal (no flash loan). The sample covers what the attack
/// corpus mostly does not: `root:` tag display, rejected predicates on
/// cleared traffic, and the `reverted`/`no_flash_loan` reasons. (`?`
/// tags — conflicting creation-tree labels — appear in the JulSwap and
/// PancakeHunny attack goldens only.)
#[test]
fn wild_corpus_sample_traces_match_golden_snapshot() {
    let wild = WildCorpus::build();
    let view = wild.view();
    let records = wild.records();
    let next_id = records.iter().map(|r| r.id.0).max().unwrap() + 1;
    let mut reverted = records[0].clone();
    reverted.id = TxId(next_id);
    reverted.status = TxStatus::Reverted("sample".into());
    let mut no_loan = records[0].clone();
    no_loan.id = TxId(next_id + 1);
    no_loan.trace = TxTrace::default();
    let mut sample = records[..WILD_SAMPLE].to_vec();
    sample.extend([&reverted, &no_loan]);

    let recorder = FlightRecorder::with_capacity(sample.len());
    let detector = common::paper_detector();
    ScanEngine::new(1).scan_instrumented(
        &detector,
        &sample,
        &view,
        &TagCache::new(),
        &NoopSink,
        &recorder,
    );
    assert_eq!(
        recorder.recorded(),
        sample.len() as u64,
        "{}",
        wild.provenance()
    );
    assert_eq!(recorder.evicted(), 0, "{}", wild.provenance());

    let traces: Vec<TxProvenance> = recorder.traces().into_iter().map(sanitized).collect();
    let codes: Vec<&str> = traces
        .iter()
        .flat_map(|t| t.decision.reasons.iter().map(Reason::code))
        .collect();
    for code in ["no_flash_loan", "reverted", "no_pattern", "pattern"] {
        assert!(
            codes.contains(&code),
            "sample lacks a {code} trace; {}",
            wild.provenance()
        );
    }
    let jsonl = export_jsonl(&traces);
    for needle in ["\"tag\":\"root:", "\"matched\":false"] {
        assert!(
            jsonl.contains(needle),
            "sample lacks {needle}; {}",
            wild.provenance()
        );
    }

    let path = common::tests_dir("golden_trace").join("wild_seed42_head128.jsonl");
    if let Err(e) = check(&path, &jsonl, common::update_golden()) {
        panic!("{e}");
    }
}

/// Two independently built worlds produce identical sanitized traces —
/// the snapshot above is stable by construction, not by luck.
#[test]
fn sanitized_traces_are_deterministic_across_worlds() {
    let render = || {
        let (_, recorder, _, _) = traced_corpus();
        recorder
            .traces()
            .into_iter()
            .map(|t| export_json(&sanitized(t)))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(), render());
}
