//! Decision-provenance traces for the 22 reconstructed flpAttacks — the
//! flight-recorder run.
//!
//! ```sh
//! cargo run -p leishen-bench --release --bin trace            # full corpus
//! cargo run -p leishen-bench --release --bin trace -- --smoke # first 3, CI
//! ```
//!
//! Replays the Table I corpus through a 4-worker traced scan
//! ([`leishen::ScanEngine::scan_instrumented`] feeding a
//! [`leishen::FlightRecorder`]), verifies the traced analyses are
//! *identical* to a serial untraced reference, cross-links the §VI-D
//! forensics (aggregator heuristic + [`leishen::trace_exits`] exit paths)
//! into every flagged trace, and writes three artifacts:
//!
//! * `TRACE_events.jsonl` — one JSON object per transaction trace
//!   (spans, events, decision with machine-readable reason chain); the
//!   exact inverse of `leishen::trace::export::parse_jsonl`.
//! * `TRACE_chrome.json` — the same traces as Chrome `trace_event` JSON;
//!   open in `chrome://tracing` / Perfetto to see per-worker swimlanes
//!   with one slice per pipeline stage.
//! * `TRACE_provenance.json` — a per-attack "why flagged" summary:
//!   verdict, reason chain, matcher verdict counts, exit classification.
//!
//! For the first attack (bZx-1) the post-attack laundering scenario runs
//! too, so its trace carries multi-level and coin-mixer exits rather than
//! only direct cash-outs.

use std::collections::HashSet;
use std::fmt::Write as _;

use ethsim::TxRecord;
use leishen::trace::export::{export_chrome_trace, export_jsonl, parse_jsonl};
use leishen::trace::{PatternOutcome, Reason, TraceEvent};
use leishen::{
    aggregator_heuristic, trace_exits, DetectorConfig, FlightRecorder, LeiShen, NoopSink,
    ScanEngine, TagCache,
};
use leishen_bench::{cli_flag, corpus_records, known_attack_world, print_table};
use leishen_scenarios::generator::AGGREGATOR_APPS;
use leishen_scenarios::laundering::launder_profit;

/// Renders one reason as a compact human-readable chain element.
fn reason_str(r: &Reason) -> String {
    match r {
        Reason::Reverted => "reverted".into(),
        Reason::NoFlashLoan => "no flash loan".into(),
        Reason::FlashLoan { provider } => format!("flash loan from {provider}"),
        Reason::NoPatternMatched => "no pattern matched".into(),
        Reason::PatternMatched { kind, target, quote, trade_seqs } => {
            format!("{kind} on {target}/{quote} over {} trades", trade_seqs.len())
        }
        Reason::Indeterminate { fault } => format!("indeterminate ({fault})"),
    }
}

fn esc(s: &str) -> String {
    let mut out = String::new();
    leishen::trace::json::escape_into(&mut out, s);
    out
}

fn main() {
    let smoke = cli_flag("--smoke");
    let (mut world, attacks) = known_attack_world();
    assert_eq!(attacks.len(), 22, "the Table I corpus has 22 attacks");
    let last_attack_tx = attacks.iter().map(|a| a.tx.0).max().unwrap_or(0);

    // Post-attack laundering for bZx-1 (§VI-D2): its follow-up txs give
    // the first trace multi-level and coin-mixer exits.
    let laundered = attacks[0].tx;
    launder_profit(&mut world, attacks[0].attacker, 3, 3);

    let labels = world.detector_labels();
    let view = world.view(&labels);
    let detector = LeiShen::new(DetectorConfig::paper());
    let take = if smoke { 3 } else { attacks.len() };
    let subset = &attacks[..take];
    let records = corpus_records(&world, subset.iter().map(|a| a.tx));
    println!(
        "decision provenance — {} attacks{}\n",
        subset.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // ----- traced 4-worker scan + identity check ---------------------------
    let recorder = FlightRecorder::with_capacity(64);
    let cache = TagCache::new();
    let engine = ScanEngine::new(4).allow_oversubscription();
    let traced = engine.scan_instrumented(&detector, &records, &view, &cache, &NoopSink, &recorder);
    let reference: Vec<_> = records.iter().map(|r| detector.analyze(r, &view)).collect();
    assert_eq!(traced, reference, "traced scan must not perturb analyses");
    assert_eq!(recorder.recorded(), records.len() as u64);

    // ----- cross-link forensics into every trace ---------------------------
    for attack in subset {
        let record = world.chain.replay(attack.tx).expect("recorded");
        let cluster: HashSet<_> = [attack.attacker, attack.contract].into_iter().collect();
        // Window: the attack transaction itself; for the laundered attack
        // also the post-corpus follow-ups (the laundering chain).
        let mut window: Vec<&TxRecord> = vec![record];
        if attack.tx == laundered {
            window.extend(
                world
                    .chain
                    .transactions()
                    .iter()
                    .filter(|t| t.id.0 > last_attack_tx),
            );
        }
        let exits = trace_exits(
            &window,
            &cluster,
            view.labels(),
            view.creations(),
            &["Tornado Cash"],
        );
        let heuristic =
            aggregator_heuristic(attack.attacker, AGGREGATOR_APPS, view.labels(), view.creations());
        let sym = |t: ethsim::TokenId| {
            world
                .chain
                .state()
                .token(t)
                .map(|info| info.symbol.clone())
                .unwrap_or_else(|_| t.to_string())
        };
        let annotated = recorder.annotate(attack.tx, |trace| {
            trace.events.push(TraceEvent::Heuristic {
                name: heuristic.name.into(),
                passed: heuristic.passed,
                detail: heuristic.detail,
            });
            for e in &exits {
                trace.events.push(TraceEvent::ExitTraced {
                    kind: e.kind.name().into(),
                    sink: e.sink.to_string(),
                    token: sym(e.token),
                    amount: e.amount,
                    hops: e.kind.hops(),
                    path_len: e.path.len() as u32,
                });
            }
        });
        assert!(annotated, "{}: trace missing from recorder", attack.spec.name);
    }

    // ----- per-attack provenance report ------------------------------------
    let traces = recorder.traces();
    assert_eq!(traces.len(), subset.len());
    let mut rows = Vec::new();
    let mut provenance = Vec::new();
    for attack in subset {
        let trace = recorder.find(attack.tx).expect("trace recorded");
        assert_eq!(
            trace.decision.flagged, attack.spec.expect_leishen,
            "{}: flag disagrees with Table IV",
            attack.spec.name
        );
        assert!(!trace.decision.reasons.is_empty(), "reason chain never empty");
        if trace.decision.flagged {
            assert!(
                trace.decision.names_pattern(),
                "{}: flagged without naming a pattern",
                attack.spec.name
            );
        }
        let chain: Vec<String> = trace.decision.reasons.iter().map(reason_str).collect();
        let (mut matched, mut rejected) = (0usize, 0usize);
        let mut first_failed: Option<&str> = None;
        let mut exits = 0usize;
        for e in &trace.events {
            match e {
                TraceEvent::PatternVerdict { outcome, .. } => match outcome {
                    PatternOutcome::Matched { .. } => matched += 1,
                    PatternOutcome::Rejected { failed } => {
                        rejected += 1;
                        first_failed.get_or_insert(failed.as_str());
                    }
                },
                TraceEvent::ExitTraced { .. } => exits += 1,
                _ => {}
            }
        }
        rows.push(vec![
            format!("{:02} {}", attack.spec.id, attack.spec.name),
            if trace.decision.flagged { "FLAGGED" } else { "cleared" }.to_string(),
            chain.join(" -> "),
            trace.events.len().to_string(),
            exits.to_string(),
        ]);
        let reasons_json = trace
            .decision
            .reasons
            .iter()
            .map(|r| format!("\"{}\"", esc(&reason_str(r))))
            .collect::<Vec<_>>()
            .join(", ");
        let mut p = String::new();
        let _ = write!(
            p,
            "    {{ \"id\": {}, \"name\": \"{}\", \"tx\": {}, \"flagged\": {}, \"reasons\": [{reasons_json}], \"verdicts\": {{ \"matched\": {matched}, \"rejected\": {rejected} }}, \"first_failed\": {}, \"events\": {}, \"exits\": {exits} }}",
            attack.spec.id,
            esc(attack.spec.name),
            attack.tx.0,
            trace.decision.flagged,
            first_failed
                .map(|f| format!("\"{}\"", esc(f)))
                .unwrap_or_else(|| "null".into()),
            trace.events.len(),
        );
        provenance.push(p);
    }
    print_table(&["attack", "verdict", "reason chain", "events", "exits"], &rows);
    let flagged = traces.iter().filter(|t| t.decision.flagged).count();
    println!(
        "\n{} traces recorded ({} flagged and pinned, {} cleared), {} evicted",
        traces.len(),
        flagged,
        traces.len() - flagged,
        recorder.evicted()
    );

    // ----- artifacts --------------------------------------------------------
    let jsonl = export_jsonl(&traces);
    let parsed = parse_jsonl(&jsonl).expect("exported JSONL must parse back");
    assert_eq!(parsed, traces, "JSONL round trip must be lossless");
    std::fs::write("TRACE_events.jsonl", &jsonl).expect("write TRACE_events.jsonl");

    let chrome = export_chrome_trace(&traces);
    std::fs::write("TRACE_chrome.json", &chrome).expect("write TRACE_chrome.json");

    let provenance_json = format!(
        "{{\n  \"bench\": \"trace\",\n  \"smoke\": {smoke},\n  \"attacks\": {},\n  \"flagged\": {flagged},\n  \"reports\": [\n{}\n  ]\n}}\n",
        subset.len(),
        provenance.join(",\n"),
    );
    std::fs::write("TRACE_provenance.json", &provenance_json)
        .expect("write TRACE_provenance.json");
    println!("wrote TRACE_events.jsonl, TRACE_chrome.json, TRACE_provenance.json");
}
