//! Trace exporters: JSONL event logs and Chrome `trace_event` JSON.
//!
//! Both formats are hand-rolled (the workspace carries no JSON
//! dependency). JSONL is the machine-readable archive format — one
//! compact JSON object per trace per line, re-importable with
//! [`parse_jsonl`] into byte-identical [`TxProvenance`] values (floats
//! are written with Rust's shortest round-trip representation, `u128`
//! amounts as decimal strings). The Chrome format targets
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev): one
//! complete-event per transaction plus one nested complete-event per
//! pipeline stage, laid out per worker track.

use std::fmt::Write as _;

use ethsim::{SpanId, TxId};

use super::json::{self, Json, JsonError};
use super::{Decision, PatternOutcome, Reason, SpanRecord, TraceEvent, TxProvenance};
use crate::patterns::PatternKind;
use crate::simplify::DropRule;
use crate::telemetry::Stage;

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    json::escape_into(out, s);
    out.push('"');
}

fn push_seqs(out: &mut String, seqs: &[u32]) {
    out.push('[');
    for (i, s) in seqs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{s}");
    }
    out.push(']');
}

fn push_event(out: &mut String, ev: &TraceEvent) {
    match ev {
        TraceEvent::FlashLoan {
            provider,
            lender,
            borrower,
            amount,
        } => {
            out.push_str("{\"type\":\"flash_loan\",\"provider\":");
            push_str(out, provider);
            out.push_str(",\"lender\":");
            push_str(out, lender);
            out.push_str(",\"borrower\":");
            push_str(out, borrower);
            out.push_str(",\"amount\":");
            match amount {
                Some(a) => {
                    let _ = write!(out, "\"{a}\"");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        TraceEvent::TagAssigned { tag, first_seq } => {
            out.push_str("{\"type\":\"tag_assigned\",\"tag\":");
            push_str(out, tag);
            let _ = write!(out, ",\"first_seq\":{first_seq}}}");
        }
        TraceEvent::SimplifyDropped { seq, rule } => {
            let _ = write!(
                out,
                "{{\"type\":\"simplify_dropped\",\"seq\":{seq},\"rule\":\"{}\"}}",
                rule.name()
            );
        }
        TraceEvent::SimplifyMerged { seq, into_seq } => {
            let _ = write!(
                out,
                "{{\"type\":\"simplify_merged\",\"seq\":{seq},\"into_seq\":{into_seq}}}"
            );
        }
        TraceEvent::SimplifySummary {
            kept,
            dropped,
            merged,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"simplify_summary\",\"kept\":{kept},\"dropped\":{dropped},\"merged\":{merged}}}"
            );
        }
        TraceEvent::TradeIdentified {
            seq,
            kind,
            buyer,
            seller,
        } => {
            let _ = write!(out, "{{\"type\":\"trade\",\"seq\":{seq},\"kind\":");
            push_str(out, kind);
            out.push_str(",\"buyer\":");
            push_str(out, buyer);
            out.push_str(",\"seller\":");
            push_str(out, seller);
            out.push('}');
        }
        TraceEvent::PatternVerdict {
            kind,
            borrower,
            quote,
            target,
            outcome,
        } => {
            let _ = write!(out, "{{\"type\":\"pattern_verdict\",\"pattern\":\"{kind}\"");
            out.push_str(",\"borrower\":");
            push_str(out, borrower);
            out.push_str(",\"quote\":");
            push_str(out, quote);
            out.push_str(",\"target\":");
            push_str(out, target);
            match outcome {
                PatternOutcome::Matched {
                    trade_seqs,
                    volatility,
                } => {
                    out.push_str(",\"matched\":true,\"trade_seqs\":[");
                    for (i, seqs) in trade_seqs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        push_seqs(out, seqs);
                    }
                    let _ = write!(out, "],\"volatility\":{}}}", json::fmt_f64(*volatility));
                }
                PatternOutcome::Rejected { failed } => {
                    out.push_str(",\"matched\":false,\"failed\":");
                    push_str(out, failed);
                    out.push('}');
                }
            }
        }
        TraceEvent::Heuristic {
            name,
            passed,
            detail,
        } => {
            out.push_str("{\"type\":\"heuristic\",\"name\":");
            push_str(out, name);
            let _ = write!(out, ",\"passed\":{passed},\"detail\":");
            push_str(out, detail);
            out.push('}');
        }
        TraceEvent::ExitTraced {
            kind,
            sink,
            token,
            amount,
            hops,
            path_len,
        } => {
            out.push_str("{\"type\":\"exit\",\"kind\":");
            push_str(out, kind);
            out.push_str(",\"sink\":");
            push_str(out, sink);
            out.push_str(",\"token\":");
            push_str(out, token);
            let _ = write!(
                out,
                ",\"amount\":\"{amount}\",\"hops\":{hops},\"path_len\":{path_len}}}"
            );
        }
    }
}

fn push_reason(out: &mut String, reason: &Reason) {
    let _ = write!(out, "{{\"reason\":\"{}\"", reason.code());
    match reason {
        Reason::Reverted | Reason::NoFlashLoan | Reason::NoPatternMatched => {}
        Reason::FlashLoan { provider } => {
            out.push_str(",\"provider\":");
            push_str(out, provider);
        }
        Reason::PatternMatched {
            kind,
            target,
            quote,
            trade_seqs,
        } => {
            let _ = write!(out, ",\"pattern\":\"{kind}\"");
            out.push_str(",\"target\":");
            push_str(out, target);
            out.push_str(",\"quote\":");
            push_str(out, quote);
            out.push_str(",\"trade_seqs\":");
            push_seqs(out, trade_seqs);
        }
        Reason::Indeterminate { fault } => {
            out.push_str(",\"fault\":");
            push_str(out, fault);
        }
    }
    out.push('}');
}

/// Serializes one trace as a single compact JSON object (no newline).
pub fn export_json(trace: &TxProvenance) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"tx\":{},\"span\":{},\"worker\":{},\"spans\":[",
        trace.tx.0, trace.span.0, trace.worker
    );
    for (i, span) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.stage.name(),
            span.start_ns,
            span.end_ns
        );
    }
    out.push_str("],\"events\":[");
    for (i, ev) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_event(&mut out, ev);
    }
    let _ = write!(
        out,
        "],\"decision\":{{\"flagged\":{},\"reasons\":[",
        trace.decision.flagged
    );
    for (i, reason) in trace.decision.reasons.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_reason(&mut out, reason);
    }
    out.push_str("]}}");
    out
}

/// Serializes traces as JSONL: one JSON object per line, in input order.
pub fn export_jsonl(traces: &[TxProvenance]) -> String {
    let mut out = String::new();
    for trace in traces {
        out.push_str(&export_json(trace));
        out.push('\n');
    }
    out
}

fn kind_from_str(s: &str) -> Option<PatternKind> {
    match s {
        "KRP" => Some(PatternKind::Krp),
        "SBS" => Some(PatternKind::Sbs),
        "MBS" => Some(PatternKind::Mbs),
        "KDP*" => Some(PatternKind::Kdp),
        _ => None,
    }
}

fn get<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    obj.get(key)
        .ok_or_else(|| JsonError::semantic(format!("missing key `{key}`")))
}

fn get_str(obj: &Json, key: &str) -> Result<String, JsonError> {
    get(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| JsonError::semantic(format!("`{key}` is not a string")))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, JsonError> {
    get(obj, key)?
        .as_u64()
        .ok_or_else(|| JsonError::semantic(format!("`{key}` is not an integer")))
}

fn get_u32(obj: &Json, key: &str) -> Result<u32, JsonError> {
    u32::try_from(get_u64(obj, key)?)
        .map_err(|_| JsonError::semantic(format!("`{key}` exceeds u32")))
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, JsonError> {
    get(obj, key)?
        .as_bool()
        .ok_or_else(|| JsonError::semantic(format!("`{key}` is not a boolean")))
}

fn get_u128_str(obj: &Json, key: &str) -> Result<u128, JsonError> {
    get(obj, key)?
        .as_u128_str()
        .ok_or_else(|| JsonError::semantic(format!("`{key}` is not a decimal string")))
}

fn get_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], JsonError> {
    get(obj, key)?
        .as_arr()
        .ok_or_else(|| JsonError::semantic(format!("`{key}` is not an array")))
}

fn seqs_from(arr: &[Json]) -> Result<Vec<u32>, JsonError> {
    arr.iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| JsonError::semantic("seq is not a u32"))
        })
        .collect()
}

fn parse_event(obj: &Json) -> Result<TraceEvent, JsonError> {
    let ty = get_str(obj, "type")?;
    Ok(match ty.as_str() {
        "flash_loan" => TraceEvent::FlashLoan {
            provider: get_str(obj, "provider")?,
            lender: get_str(obj, "lender")?,
            borrower: get_str(obj, "borrower")?,
            amount: {
                let v = get(obj, "amount")?;
                if v.is_null() {
                    None
                } else {
                    Some(v.as_u128_str().ok_or_else(|| {
                        JsonError::semantic("`amount` is not a decimal string")
                    })?)
                }
            },
        },
        "tag_assigned" => TraceEvent::TagAssigned {
            tag: get_str(obj, "tag")?,
            first_seq: get_u32(obj, "first_seq")?,
        },
        "simplify_dropped" => TraceEvent::SimplifyDropped {
            seq: get_u32(obj, "seq")?,
            rule: DropRule::from_name(&get_str(obj, "rule")?)
                .ok_or_else(|| JsonError::semantic("unknown simplify drop rule"))?,
        },
        "simplify_merged" => TraceEvent::SimplifyMerged {
            seq: get_u32(obj, "seq")?,
            into_seq: get_u32(obj, "into_seq")?,
        },
        "simplify_summary" => TraceEvent::SimplifySummary {
            kept: get_u32(obj, "kept")?,
            dropped: get_u32(obj, "dropped")?,
            merged: get_u32(obj, "merged")?,
        },
        "trade" => TraceEvent::TradeIdentified {
            seq: get_u32(obj, "seq")?,
            kind: get_str(obj, "kind")?,
            buyer: get_str(obj, "buyer")?,
            seller: get_str(obj, "seller")?,
        },
        "pattern_verdict" => TraceEvent::PatternVerdict {
            kind: kind_from_str(&get_str(obj, "pattern")?)
                .ok_or_else(|| JsonError::semantic("unknown pattern kind"))?,
            borrower: get_str(obj, "borrower")?,
            quote: get_str(obj, "quote")?,
            target: get_str(obj, "target")?,
            outcome: if get_bool(obj, "matched")? {
                PatternOutcome::Matched {
                    trade_seqs: get_arr(obj, "trade_seqs")?
                        .iter()
                        .map(|m| {
                            m.as_arr()
                                .ok_or_else(|| JsonError::semantic("trade_seqs entry not an array"))
                                .and_then(seqs_from)
                        })
                        .collect::<Result<_, _>>()?,
                    volatility: get(obj, "volatility")?
                        .as_f64()
                        .ok_or_else(|| JsonError::semantic("`volatility` is not a number"))?,
                }
            } else {
                PatternOutcome::Rejected {
                    failed: get_str(obj, "failed")?,
                }
            },
        },
        "heuristic" => TraceEvent::Heuristic {
            name: get_str(obj, "name")?,
            passed: get_bool(obj, "passed")?,
            detail: get_str(obj, "detail")?,
        },
        "exit" => TraceEvent::ExitTraced {
            kind: get_str(obj, "kind")?,
            sink: get_str(obj, "sink")?,
            token: get_str(obj, "token")?,
            amount: get_u128_str(obj, "amount")?,
            hops: get_u32(obj, "hops")?,
            path_len: get_u32(obj, "path_len")?,
        },
        other => {
            return Err(JsonError::semantic(format!("unknown event type `{other}`")));
        }
    })
}

fn parse_reason(obj: &Json) -> Result<Reason, JsonError> {
    let code = get_str(obj, "reason")?;
    Ok(match code.as_str() {
        "reverted" => Reason::Reverted,
        "no_flash_loan" => Reason::NoFlashLoan,
        "flash_loan" => Reason::FlashLoan {
            provider: get_str(obj, "provider")?,
        },
        "no_pattern" => Reason::NoPatternMatched,
        "indeterminate" => Reason::Indeterminate {
            fault: get_str(obj, "fault")?,
        },
        "pattern" => Reason::PatternMatched {
            kind: kind_from_str(&get_str(obj, "pattern")?)
                .ok_or_else(|| JsonError::semantic("unknown pattern kind"))?,
            target: get_str(obj, "target")?,
            quote: get_str(obj, "quote")?,
            trade_seqs: seqs_from(get_arr(obj, "trade_seqs")?)?,
        },
        other => {
            return Err(JsonError::semantic(format!("unknown reason `{other}`")));
        }
    })
}

fn parse_trace(obj: &Json) -> Result<TxProvenance, JsonError> {
    Ok(TxProvenance {
        tx: TxId(get_u64(obj, "tx")?),
        span: SpanId(get_u64(obj, "span")?),
        worker: get_u32(obj, "worker")?,
        spans: get_arr(obj, "spans")?
            .iter()
            .map(|s| {
                Ok(SpanRecord {
                    stage: Stage::from_name(&get_str(s, "stage")?)
                        .ok_or_else(|| JsonError::semantic("unknown stage name"))?,
                    start_ns: get_u64(s, "start_ns")?,
                    end_ns: get_u64(s, "end_ns")?,
                })
            })
            .collect::<Result<_, JsonError>>()?,
        events: get_arr(obj, "events")?
            .iter()
            .map(parse_event)
            .collect::<Result<_, _>>()?,
        decision: {
            let d = get(obj, "decision")?;
            Decision {
                flagged: get_bool(d, "flagged")?,
                reasons: get_arr(d, "reasons")?
                    .iter()
                    .map(parse_reason)
                    .collect::<Result<_, _>>()?,
            }
        },
    })
}

/// Parses a JSONL export back into traces — the exact inverse of
/// [`export_jsonl`]: `parse_jsonl(&export_jsonl(&t))? == t`.
pub fn parse_jsonl(input: &str) -> Result<Vec<TxProvenance>, JsonError> {
    input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| parse_trace(&json::parse(line)?))
        .collect()
}

/// Serializes traces in Chrome `trace_event` JSON (the "JSON object
/// format"), loadable in `chrome://tracing` or Perfetto.
///
/// Layout: one process, one thread track per scan worker (`tid` is
/// `worker + 1`). Each trace contributes a complete ("X") event named
/// after the transaction spanning its whole analysis, with one nested
/// complete event per pipeline stage. Timestamps are microseconds from
/// the flight recorder's epoch, so worker tracks share a timeline.
pub fn export_chrome_trace(traces: &[TxProvenance]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for trace in traces {
        let (Some(head), Some(tail)) = (trace.spans.first(), trace.spans.last()) else {
            continue;
        };
        let ts = head.start_ns as f64 / 1_000.0;
        let dur = (tail.end_ns.saturating_sub(head.start_ns)) as f64 / 1_000.0;
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"span\":\"{}\",\"flagged\":{}}}}}",
            trace.tx,
            json::fmt_f64(ts),
            json::fmt_f64(dur),
            trace.worker + 1,
            trace.span,
            trace.decision.flagged
        );
        for span in &trace.spans {
            let ts = span.start_ns as f64 / 1_000.0;
            let dur = (span.end_ns.saturating_sub(span.start_ns)) as f64 / 1_000.0;
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"tx\":{}}}}}",
                span.stage.name(),
                json::fmt_f64(ts),
                json::fmt_f64(dur),
                trace.worker + 1,
                trace.tx.0
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TxProvenance {
        TxProvenance {
            tx: TxId(12),
            span: SpanId::tx_root(TxId(12)),
            worker: 3,
            spans: vec![
                SpanRecord {
                    stage: Stage::FlashLoan,
                    start_ns: 100,
                    end_ns: 250,
                },
                SpanRecord {
                    stage: Stage::Patterns,
                    start_ns: 250,
                    end_ns: 900,
                },
            ],
            events: vec![
                TraceEvent::FlashLoan {
                    provider: "AAVE".into(),
                    lender: "0x00000000000000000000000000000000000000aa".into(),
                    borrower: "0x00000000000000000000000000000000000000bb".into(),
                    amount: Some(340_282_366_920_938_463_463_374_607_431_768_211_455),
                },
                TraceEvent::TagAssigned {
                    tag: "(AAVE, lending pool)".into(),
                    first_seq: 0,
                },
                TraceEvent::SimplifyDropped {
                    seq: 4,
                    rule: DropRule::WethRelated,
                },
                TraceEvent::SimplifyMerged { seq: 7, into_seq: 6 },
                TraceEvent::SimplifySummary {
                    kept: 9,
                    dropped: 3,
                    merged: 1,
                },
                TraceEvent::TradeIdentified {
                    seq: 2,
                    kind: "Swap".into(),
                    buyer: "attacker \"quoted\"".into(),
                    seller: "(Uniswap, pair)".into(),
                },
                TraceEvent::PatternVerdict {
                    kind: PatternKind::Krp,
                    borrower: "attacker".into(),
                    quote: "ETH".into(),
                    target: "WBTC".into(),
                    outcome: PatternOutcome::Rejected {
                        failed: "buy price not rising across the series".into(),
                    },
                },
                TraceEvent::PatternVerdict {
                    kind: PatternKind::Sbs,
                    borrower: "attacker".into(),
                    quote: "ETH".into(),
                    target: "WBTC".into(),
                    outcome: PatternOutcome::Matched {
                        trade_seqs: vec![vec![2, 5, 9]],
                        volatility: 0.612345678912345,
                    },
                },
                TraceEvent::Heuristic {
                    name: "aggregator_initiator".into(),
                    passed: true,
                    detail: "initiator not tagged as aggregator".into(),
                },
                TraceEvent::ExitTraced {
                    kind: "coin_mixer".into(),
                    sink: "0x00000000000000000000000000000000000000cc".into(),
                    token: "ETH".into(),
                    amount: 12_345,
                    hops: 2,
                    path_len: 3,
                },
            ],
            decision: Decision {
                flagged: true,
                reasons: vec![
                    Reason::FlashLoan {
                        provider: "AAVE".into(),
                    },
                    Reason::PatternMatched {
                        kind: PatternKind::Sbs,
                        target: "WBTC".into(),
                        quote: "ETH".into(),
                        trade_seqs: vec![2, 5, 9],
                    },
                ],
            },
        }
    }

    fn cleared() -> TxProvenance {
        TxProvenance {
            tx: TxId(13),
            span: SpanId::tx_root(TxId(13)),
            worker: 0,
            spans: vec![SpanRecord {
                stage: Stage::FlashLoan,
                start_ns: 1_000,
                end_ns: 1_100,
            }],
            events: Vec::new(),
            decision: Decision {
                flagged: false,
                reasons: vec![Reason::NoFlashLoan],
            },
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let traces = vec![sample(), cleared()];
        let jsonl = export_jsonl(&traces);
        assert_eq!(jsonl.lines().count(), 2);
        let back = parse_jsonl(&jsonl).expect("parses");
        assert_eq!(back, traces);
        // And the re-export is byte-identical — the formats are inverses.
        assert_eq!(export_jsonl(&back), jsonl);
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        for line in export_jsonl(&[sample()]).lines() {
            json::parse(line).expect("each line parses standalone");
        }
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(parse_jsonl("{\"tx\":1}").is_err(), "missing keys");
        assert!(parse_jsonl("not json").is_err());
        let bad_kind = export_jsonl(&[sample()]).replace("\"SBS\"", "\"XXX\"");
        assert!(parse_jsonl(&bad_kind).is_err(), "unknown pattern kind");
    }

    #[test]
    fn chrome_trace_shape() {
        let out = export_chrome_trace(&[sample(), cleared()]);
        let parsed = json::parse(&out).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        // One tx event + 2 stage events, then one tx event + 1 stage event.
        assert_eq!(events.len(), 5);
        let tx_event = &events[0];
        assert_eq!(tx_event.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(tx_event.get("name").and_then(|v| v.as_str()), Some("tx#12"));
        assert_eq!(tx_event.get("tid").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(tx_event.get("ts").and_then(|v| v.as_f64()), Some(0.1));
        let stage = &events[1];
        assert_eq!(
            stage.get("name").and_then(|v| v.as_str()),
            Some("flash_loan")
        );
        assert_eq!(stage.get("cat").and_then(|v| v.as_str()), Some("stage"));
    }
}
