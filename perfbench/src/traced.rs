//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! Every traced run measures every layer, so each workload reports the
//! whole per-layer table. The workload named on the command line runs for
//! the full `--seconds`; the parts that measure layers it bypasses run
//! briefly. Each metric has one source, whichever workload is primary:
//!
//! * detector stages and record validation: the pipeline composed from
//!   the stages' public functions, over every transaction, checked per
//!   transaction against `LeiShen::analyze`;
//! * `scan.*`, `sched.*`, `trace.*`: engine, forensics and serial passes
//!   and `WavePlan::build`, interleaved in rounds so that every ratio
//!   compares passes run under the same host conditions;
//! * `stream.*`, `store.*` (except `store.open_ms`): monitor sessions seen
//!   through a media wrapper that times every write, plus a replay of
//!   their blocks through `scan_resilient` one block at a time — what the
//!   scanner station does — since `run_durable` has no hook inside;
//! * `store.open_ms`: `VerdictJournal::open` of the catch-up journal,
//!   followed by `StreamService::resume` (the two halves of `run_durable`).
//!
//! `bench.layer_residual_pct` is the primary workload's time that no layer
//! accounts for: for backfill and forensics, the 1-worker engine wall less
//! the composed stages' self times; for monitor, block latency less
//! generator lateness, ingest wait, scan and store time; for catch-up, the
//! reopen-to-drain wall less the open and the busier pipeline station.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ethsim::{validate_record, Transfer, TxRecord};
use leishen::patterns::{all_legs, match_all_legs_scratch};
use leishen::resilience::ResilienceConfig;
use leishen::simplify::{coalesce_transfers, has_split_transfers};
use leishen::stream::StreamConfig;
use leishen::{
    identify_flash_loans, identify_trades_into, simplify_into, tag_transfers_with_into,
    FlightRecorder, LocalTagCache, PatternMatch, PatternScratch, RecordingSink, ScanEngine, Tag,
    TagCache, TaggedTransfer, Trade, VerdictJournal, WavePlan,
};

use crate::openloop::lateness;
use crate::setup::{journal_config, journal_dir, MediaOp, SetupTimes, TimedMedia};
use crate::spans::{self_ms_by_name, Recorder, SpanId};
use crate::stats::{median, percentile, sorted, supported, tail};
use crate::workloads::{Ctx, Outcome, Workload, MIN_REPS, MONITOR_SESSION_S};

/// Monitor sessions run when monitor is not the primary workload: over
/// 1,000 blocks in all, so each per-block p99 has ten samples beyond it.
const MONITOR_PROBE_SESSIONS: usize = 3;

/// Chunk ceiling `ScanEngine` plans with by default.
const CHUNK_HINT: usize = 32;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Counts the composed pipeline makes along the way.
#[derive(Default)]
struct Counts {
    tags_resolved: u64,
    kept: u64,
    dropped: u64,
    merged: u64,
    trades: u64,
    pairs_examined: u64,
    matches: u64,
}

/// Buffers reused across transactions, as the engine's workers reuse theirs.
#[derive(Default)]
struct Scratch {
    coalesced: Vec<Transfer>,
    tagged: Vec<TaggedTransfer>,
    app: Vec<TaggedTransfer>,
    trades: Vec<Trade>,
    patterns: PatternScratch,
}

/// What the composed pipeline decided for one transaction.
struct Composed {
    valid: bool,
    flagged: bool,
    matches: Vec<PatternMatch>,
    borrower_tags: Vec<Tag>,
}

/// The detector composed from its stages' public functions, in the order
/// `LeiShen::analyze` runs them, with one span per stage call.
fn compose(
    ctx: &Ctx<'_, '_>,
    tx: &TxRecord,
    tags: &mut LocalTagCache<'_>,
    scratch: &mut Scratch,
    counts: &mut Counts,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> Composed {
    let key = tx.id.0;
    let (labels, creations) = (ctx.view.labels(), ctx.view.creations());
    let config = ctx.detector.config();

    let s = rec.open("ethsim.validate", key, parent);
    let valid = validate_record(tx).is_empty();
    rec.close(s);

    let s = rec.open("flashloan", key, parent);
    let loans = if tx.status.is_success() {
        identify_flash_loans(tx)
    } else {
        Vec::new()
    };
    rec.close(s);
    if loans.is_empty() {
        return Composed {
            valid,
            flagged: false,
            matches: Vec::new(),
            borrower_tags: Vec::new(),
        };
    }

    let s = rec.open("simplify.coalesce", key, parent);
    let journal: &[Transfer] =
        if config.coalesce_split_transfers && has_split_transfers(&tx.trace.transfers) {
            coalesce_transfers(&tx.trace.transfers, &mut scratch.coalesced);
            &scratch.coalesced
        } else {
            &tx.trace.transfers
        };
    rec.close(s);

    let mut resolved = 0u64;
    let s = rec.open("tagging", key, parent);
    tag_transfers_with_into(
        journal,
        |addr| {
            resolved += 1;
            tags.resolve(addr, labels, creations)
        },
        &mut scratch.tagged,
    );
    rec.close(s);

    let s = rec.open("simplify", key, parent);
    let stats = simplify_into(&scratch.tagged, ctx.view.weth(), config, &mut scratch.app);
    rec.close(s);

    let s = rec.open("trades", key, parent);
    identify_trades_into(&scratch.app, &mut scratch.trades);
    rec.close(s);

    let s = rec.open("patterns", key, parent);
    let mut borrower_tags: Vec<Tag> = Vec::new();
    for addr in loans.iter().map(|l| l.borrower).chain([tx.from]) {
        resolved += 1;
        let tag = tags.resolve(addr, labels, creations);
        if !borrower_tags.contains(&tag) {
            borrower_tags.push(tag);
        }
    }
    let legs = all_legs(&scratch.trades);
    let mut matches: Vec<PatternMatch> = Vec::new();
    let mut pairs = 0u64;
    for tag in &borrower_tags {
        for m in match_all_legs_scratch(&legs, tag, config, &mut scratch.patterns) {
            if !matches.iter().any(|have| same_match(have, &m)) {
                matches.push(m);
            }
        }
        pairs += scratch.patterns.pairs_examined() as u64;
    }
    rec.close(s);

    counts.tags_resolved += resolved;
    counts.kept += u64::from(stats.kept);
    counts.dropped += u64::from(stats.dropped);
    counts.merged += u64::from(stats.merged);
    counts.trades += scratch.trades.len() as u64;
    counts.pairs_examined += pairs;
    counts.matches += matches.len() as u64;
    Composed {
        valid,
        flagged: !matches.is_empty(),
        matches,
        borrower_tags,
    }
}

/// Match identity as `LeiShen::analyze` deduplicates by: volatility
/// compared bit for bit.
fn same_match(a: &PatternMatch, b: &PatternMatch) -> bool {
    a.kind == b.kind
        && a.target_token == b.target_token
        && a.quote_token == b.quote_token
        && a.volatility.to_bits() == b.volatility.to_bits()
        && a.trade_seqs == b.trade_seqs
        && a.counterparty == b.counterparty
}

/// One composed pass over every record on a fresh cache, each transaction
/// checked against the reference: a divergence means the layer numbers
/// would describe a different program.
fn composed_pass(ctx: &Ctx<'_, '_>, rec: &mut Recorder, out: &mut Outcome) -> Counts {
    let cache = TagCache::new();
    let mut tags = LocalTagCache::new(&cache);
    let mut scratch = Scratch::default();
    let mut counts = Counts::default();
    // A root and at most eight stage spans per transaction.
    rec.reserve(ctx.records.len() * 9);
    out.attempted += ctx.records.len() as u64;
    for (tx, expected) in ctx.records.iter().zip(ctx.reference) {
        let root = rec.open("tx", tx.id.0, None);
        let got = compose(ctx, tx, &mut tags, &mut scratch, &mut counts, rec, root);
        rec.close(root);
        if !got.valid {
            out.error(format!("record of tx {} fails validation", tx.id.0));
        }
        if got.flagged != expected.is_attack()
            || got.matches != expected.matches
            || got.borrower_tags != expected.borrower_tags
        {
            out.error(format!(
                "stage composition diverges from analyze on tx {}",
                tx.id.0
            ));
        }
    }
    counts
}

/// Wall times, in seconds, of each kind of batch pass, one per round.
#[derive(Default)]
struct Walls {
    rounds: usize,
    composed_on: Vec<f64>,
    composed_off: Vec<f64>,
    engine_n: Vec<f64>,
    engine_1: Vec<f64>,
    serial: Vec<f64>,
    plan: Vec<f64>,
    forensics_n: Vec<f64>,
    forensics_1: Vec<f64>,
}

/// Median over rounds of `a / b`, each ratio taken within one round.
fn ratio(a: &[f64], b: &[f64]) -> f64 {
    median_of(a.iter().zip(b).map(|(a, b)| a / b).collect())
}

fn median_of(v: Vec<f64>) -> f64 {
    median(&sorted(v))
}

/// The p99 of per-block samples, which the stream parts size to support it.
fn p99(samples: Vec<f64>, what: &str, notes: &mut Vec<String>) -> f64 {
    let s = sorted(samples);
    if supported(s.len(), 99.0) {
        percentile(&s, 99.0)
    } else {
        let (p, v) = tail(&s).unwrap_or((100.0, s.last().copied().unwrap_or(0.0)));
        notes.push(format!(
            "{what}: {} samples do not support p99; reporting p{p}",
            s.len()
        ));
        v
    }
}

/// Media calls of a durable session attributed to blocks: the emitter
/// journals block k and then calls `on_emit(k)`, so the writes that end
/// after `emitted[k-1]` and by `emitted[k]` are block k's. Writes before
/// the producer started belong to opening the journal.
fn writes_per_block(ops: &[MediaOp], after: Instant, emitted: &[Instant]) -> Vec<Vec<MediaOp>> {
    let mut out = vec![Vec::new(); emitted.len()];
    for op in ops.iter().filter(|op| op.end >= after) {
        let k = emitted.partition_point(|&e| e < op.end);
        if let Some(slot) = out.get_mut(k) {
            slot.push(*op);
        }
    }
    out
}

/// Replays blocks through `scan_resilient` one at a time on a fresh cache,
/// as the stream's scanner station does; returns each block's scan time.
fn scan_per_block(
    ctx: &Ctx<'_, '_>,
    blocks: &[std::ops::Range<usize>],
    rec: &mut Recorder,
    first: u64,
) -> Vec<Duration> {
    let engine = ScanEngine::new(ctx.workers);
    let policy = StreamConfig::default().policy;
    let cache = TagCache::new();
    let root = rec.open("replay.scan", first, None);
    let out = blocks
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let span = rec.open("stream.scan", first + i as u64, root);
            let t = Instant::now();
            std::hint::black_box(engine.scan_resilient(
                ctx.detector,
                &ctx.records[r.clone()],
                ctx.view,
                &cache,
                &policy,
            ));
            let d = t.elapsed();
            rec.close(span);
            d
        })
        .collect();
    rec.close(root);
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the traced parts and returns every per-layer metric.
#[allow(clippy::too_many_arguments)]
pub fn run(
    primary: Workload,
    ctx: &Ctx<'_, '_>,
    out_dir: &Path,
    prefilled: &Path,
    setup: &SetupTimes,
    rec: &mut Recorder,
    out: &mut Outcome,
    notes: &mut Vec<String>,
) -> Layers {
    let mut m = Layers::new();
    let until = |w: Workload| (w == primary).then(|| ctx.deadline());
    m.insert("scenarios.generate_s", setup.generate_s);

    // Batch layers, in rounds that interleave every kind of pass, so each
    // ratio compares passes that ran under the same host conditions. The
    // first round's composed pass keeps its spans; later rounds record
    // into a throwaway recorder, at the same cost.
    let batch_until = until(Workload::Backfill).or(until(Workload::Forensics));
    let policy = ResilienceConfig::new();
    let mut w = Walls::default();
    let mut counts = None;
    let mut cache_stats = (0, 0, 0);
    let mut plan = None;
    let mut recorded = (0, 0);
    while w.rounds < MIN_REPS || batch_until.is_some_and(|t| Instant::now() < t) {
        let round = w.rounds as u64;
        w.rounds += 1;

        // Detector stages composed, with spans and without: the
        // difference is what recording spans costs.
        let mut throwaway = Recorder::new(Instant::now(), true);
        let target = if counts.is_none() {
            &mut *rec
        } else {
            &mut throwaway
        };
        let t = Instant::now();
        let c = composed_pass(ctx, target, out);
        w.composed_on.push(t.elapsed().as_secs_f64());
        counts.get_or_insert(c);
        let t = Instant::now();
        composed_pass(ctx, &mut Recorder::new(Instant::now(), false), out);
        w.composed_off.push(t.elapsed().as_secs_f64());

        // Engine and scheduler. Baselines: the serial uncached `analyze`
        // loop for the cache gain, the engine at 1 worker for scaling.
        let cache = TagCache::new();
        let span = rec.open("scan.engine_nproc", round, None);
        let t = Instant::now();
        let scan = ScanEngine::new(ctx.workers).scan_resilient(
            ctx.detector,
            ctx.records,
            ctx.view,
            &cache,
            &policy,
        );
        w.engine_n.push(t.elapsed().as_secs_f64());
        rec.close(span);
        out.check_verdicts("traced engine pass", 0, &scan.verdicts, ctx.reference);
        cache_stats = (cache.hits(), cache.misses(), cache.lock_waits());

        let span = rec.open("scan.engine_1", round, None);
        let t = Instant::now();
        let scan = ScanEngine::new(1).scan_resilient(
            ctx.detector,
            ctx.records,
            ctx.view,
            &TagCache::new(),
            &policy,
        );
        w.engine_1.push(t.elapsed().as_secs_f64());
        rec.close(span);
        out.check_verdicts(
            "traced 1-worker engine pass",
            0,
            &scan.verdicts,
            ctx.reference,
        );

        let span = rec.open("scan.serial_uncached", round, None);
        let t = Instant::now();
        for r in ctx.records {
            std::hint::black_box(ctx.detector.analyze(r, ctx.view));
        }
        w.serial.push(t.elapsed().as_secs_f64());
        rec.close(span);

        let span = rec.open("sched.plan", round, None);
        let t = Instant::now();
        plan = Some(WavePlan::build(
            ctx.records,
            ctx.view.creations(),
            ctx.workers,
            CHUNK_HINT,
        ));
        w.plan.push(t.elapsed().as_secs_f64());
        rec.close(span);

        // Trace and telemetry: the forensics scan.
        for (workers, walls) in [(ctx.workers, &mut w.forensics_n), (1, &mut w.forensics_1)] {
            let recorder = FlightRecorder::new();
            let span = rec.open("trace.forensics", workers as u64, None);
            let t = Instant::now();
            let analyses = ScanEngine::new(workers).scan_instrumented(
                ctx.detector,
                ctx.records,
                ctx.view,
                &TagCache::new(),
                &RecordingSink::new(),
                &recorder,
            );
            walls.push(t.elapsed().as_secs_f64());
            rec.close(span);
            if analyses != ctx.reference {
                out.error("traced forensics pass: analyses differ from serial analyze".into());
            }
            recorded = (recorder.recorded(), recorder.pinned().len());
        }
    }
    let counts = counts.expect("at least one round");

    m.insert(
        "bench.trace_overhead_ratio",
        ratio(&w.composed_on, &w.composed_off),
    );
    let own = self_ms_by_name(rec.spans());
    let busy = |name: &str| own.get(name).copied().unwrap_or(0.0);
    m.insert("ethsim.validate_ms", busy("ethsim.validate"));
    m.insert("flashloan.busy_ms", busy("flashloan"));
    m.insert("tagging.busy_ms", busy("tagging"));
    m.insert(
        "simplify.busy_ms",
        busy("simplify") + busy("simplify.coalesce"),
    );
    m.insert("trades.busy_ms", busy("trades"));
    m.insert("patterns.busy_ms", busy("patterns"));
    let stages_ms = [
        "flashloan",
        "simplify.coalesce",
        "tagging",
        "simplify",
        "trades",
        "patterns",
    ]
    .iter()
    .map(|s| busy(s))
    .sum::<f64>();
    let validate_ms = busy("ethsim.validate");
    m.insert("tagging.tags_resolved", counts.tags_resolved as f64);
    m.insert("simplify.kept", counts.kept as f64);
    m.insert("simplify.dropped", counts.dropped as f64);
    m.insert("simplify.merged", counts.merged as f64);
    m.insert("trades.count", counts.trades as f64);
    m.insert("patterns.pairs_examined", counts.pairs_examined as f64);
    m.insert("patterns.matches", counts.matches as f64);
    m.insert(
        "patterns.match_ratio",
        counts.matches as f64 / counts.pairs_examined.max(1) as f64,
    );

    let (hits, misses, lock_waits) = cache_stats;
    let plan = plan.expect("planned at least once").stats();
    let e1_ms = median_of(w.engine_1.clone()) * 1e3;
    let f1_ms = median_of(w.forensics_1.clone()) * 1e3;
    m.insert(
        "scan.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert("scan.cache_misses", misses as f64);
    m.insert("scan.lock_waits", lock_waits as f64);
    m.insert("scan.overhead_ms", e1_ms - validate_ms - stages_ms);
    m.insert("scan.cache_gain", ratio(&w.serial, &w.engine_1));
    m.insert("scan.parallel_scaling", ratio(&w.engine_1, &w.engine_n));
    m.insert("sched.plan_ms", median_of(w.plan.clone()) * 1e3);
    m.insert("sched.waves", plan.waves as f64);
    m.insert("sched.largest_cluster", plan.largest_cluster as f64);
    m.insert("trace.overhead_ratio", ratio(&w.forensics_n, &w.engine_n));
    m.insert("trace.recorded", recorded.0 as f64);
    m.insert("trace.pinned", recorded.1 as f64);
    notes.push(format!(
        "{} interleaved batch rounds; medians: serial uncached analyze {:.1} ms, ScanEngine 1 worker {e1_ms:.1} ms, {} workers {:.1} ms; forensics 1 worker {f1_ms:.1} ms, {} workers {:.1} ms",
        w.rounds,
        median_of(w.serial.clone()) * 1e3,
        ctx.workers,
        median_of(w.engine_n.clone()) * 1e3,
        ctx.workers,
        median_of(w.forensics_n.clone()) * 1e3,
    ));
    notes.push("scan.cache_gain = serial uncached analyze / ScanEngine at 1 worker; scan.parallel_scaling = 1 worker / nproc workers; both medians of per-round ratios".into());

    // Stream and store: a durable monitor session seen through timed media.
    let monitor_residual = monitor_part(
        ctx,
        out_dir,
        until(Workload::Monitor),
        rec,
        &mut m,
        out,
        notes,
    );

    // Store read path: reopen the catch-up journal, then resume.
    let catchup_residual = catchup_part(
        ctx,
        out_dir,
        prefilled,
        until(Workload::Catchup),
        rec,
        &mut m,
        out,
        notes,
    );

    let residual = match primary {
        Workload::Backfill => 100.0 * (e1_ms - validate_ms - stages_ms) / e1_ms,
        // `scan_instrumented` runs no validation.
        Workload::Forensics => 100.0 * (f1_ms - stages_ms) / f1_ms,
        Workload::Monitor => monitor_residual.unwrap_or(f64::NAN),
        Workload::Catchup => catchup_residual.unwrap_or(f64::NAN),
    };
    m.insert("bench.layer_residual_pct", residual);
    m
}

/// Per-block samples pooled over the monitor part's sessions.
#[derive(Default)]
struct MonitorSamples {
    blocks: usize,
    scan: Vec<f64>,
    append: Vec<f64>,
    handoff: Vec<f64>,
    late: Vec<f64>,
    ingest_wait: Duration,
    producer_waits: u64,
    max_ingest_depth: usize,
    max_emit_depth: usize,
    flushes: u64,
    bytes: u64,
    txs: u64,
    snapshot_rebuilds: u64,
    covered: Duration,
    latency: Duration,
}

/// The monitor part: sessions as the monitor workload runs them, until
/// `until` or for [`MONITOR_PROBE_SESSIONS`]; returns the share of block
/// latency that no layer span covers.
fn monitor_part(
    ctx: &Ctx<'_, '_>,
    out_dir: &Path,
    until: Option<Instant>,
    rec: &mut Recorder,
    m: &mut Layers,
    out: &mut Outcome,
    notes: &mut Vec<String>,
) -> Option<f64> {
    let mut s = MonitorSamples::default();
    let mut scan: Option<Vec<Duration>> = None;
    let mut sessions = 0;
    let last_start = until.map(|t| t - Duration::from_secs_f64(MONITOR_SESSION_S));
    while sessions < MONITOR_PROBE_SESSIONS || last_start.is_some_and(|t| Instant::now() < t) {
        sessions += 1;
        let (_dir, media) = journal_dir(out_dir, "traced-monitor", None)
            .map_err(|e| out.error(e))
            .ok()?;
        let session = ctx.monitor_session(TimedMedia::new(media), out)?;
        let n = session.emitted.len();
        let latency = session.latency();
        let metrics = session.journal.log_metrics();
        let media = session.journal.into_media();
        let writes = writes_per_block(media.ops(), session.start, &session.emitted);
        // Every session streams the same blocks from a fresh cache, so one
        // replay gives each block's scan time.
        let scan = scan.get_or_insert_with(|| scan_per_block(ctx, &ctx.blocks[..n], rec, 0));

        let root = rec.push(
            "monitor",
            sessions as u64,
            None,
            session.start,
            *session.emitted.last()?,
        );
        let late = lateness(session.start, &session.schedule, &session.started);
        for b in 0..n {
            let key = b as u64;
            let due = session.start + session.schedule.due()[b];
            let block = rec.push("block", key, root, due, session.emitted[b]);
            rec.push("bench.late", key, block, due, session.started[b]);
            rec.push(
                "stream.submit",
                key,
                block,
                session.started[b],
                session.submitted[b],
            );
            let mut stored = Duration::ZERO;
            for op in &writes[b] {
                rec.push(
                    if op.kind == "flush" {
                        "store.sync"
                    } else {
                        "store.append"
                    },
                    key,
                    block,
                    op.start,
                    op.end,
                );
                stored += op.end - op.start;
            }
            let wait = session.submitted[b] - session.started[b];
            s.scan.push(us(scan[b]));
            s.append.push(us(stored));
            s.handoff.push(us(latency[b]) - us(scan[b]) - us(stored));
            s.late.push(ms(late[b]));
            s.ingest_wait += wait;
            s.covered += late[b] + wait + scan[b] + stored;
            s.latency += latency[b];
        }
        let report = &session.report;
        s.blocks += n;
        s.producer_waits += report.stream.ingest.producer_waits;
        s.max_ingest_depth = s.max_ingest_depth.max(report.stream.ingest.max_depth);
        s.max_emit_depth = s.max_emit_depth.max(report.stream.emit.max_depth);
        s.flushes += metrics.flushes;
        s.bytes += metrics.bytes;
        s.txs += report.journal_txs;
        s.snapshot_rebuilds += session.snapshot_rebuilds;
    }

    m.insert(
        "stream.scan_us_p50",
        percentile(&sorted(s.scan.clone()), 50.0),
    );
    m.insert("stream.scan_us_p99", p99(s.scan, "stream.scan_us", notes));
    m.insert(
        "store.append_us_p50",
        percentile(&sorted(s.append.clone()), 50.0),
    );
    m.insert(
        "store.append_us_p99",
        p99(s.append, "store.append_us", notes),
    );
    m.insert("stream.handoff_us", percentile(&sorted(s.handoff), 50.0));
    m.insert("stream.ingest_wait_ms", ms(s.ingest_wait));
    m.insert("stream.producer_waits", s.producer_waits as f64);
    m.insert("stream.max_ingest_depth", s.max_ingest_depth as f64);
    m.insert("stream.max_emit_depth", s.max_emit_depth as f64);
    m.insert("store.flushes", s.flushes as f64);
    m.insert("store.bytes_per_tx", s.bytes as f64 / s.txs.max(1) as f64);
    m.insert(
        "scan.snapshot_rebuilds_per_block",
        s.snapshot_rebuilds as f64 / s.blocks.max(1) as f64,
    );
    m.insert(
        "bench.generator_late_p99_ms",
        p99(s.late, "bench.generator_late_ms", notes),
    );
    notes.push(format!(
        "stream/store layers from {sessions} monitor sessions: {} blocks",
        s.blocks
    ));
    Some(100.0 * (1.0 - s.covered.as_secs_f64() / s.latency.as_secs_f64()))
}

/// The catch-up part; returns the share of the reopen-to-drain wall not
/// covered by the open and the busier of the scan and store stations.
#[allow(clippy::too_many_arguments)]
fn catchup_part(
    ctx: &Ctx<'_, '_>,
    out_dir: &Path,
    prefilled: &Path,
    until: Option<Instant>,
    rec: &mut Recorder,
    m: &mut Layers,
    out: &mut Outcome,
    notes: &mut Vec<String>,
) -> Option<f64> {
    let prefix = ctx.blocks.len() / 2;
    let scan: Duration = scan_per_block(ctx, &ctx.blocks[prefix..], rec, prefix as u64)
        .iter()
        .sum();
    let mut opens = Vec::new();
    let mut residuals = Vec::new();
    let mut stations = Vec::new();
    while opens.is_empty() || until.is_some_and(|t| Instant::now() < t) {
        // The open half of `run_durable`, timed on a copy of its own.
        let (dir, media) = journal_dir(out_dir, "traced-open", Some(prefilled))
            .map_err(|e| out.error(e))
            .ok()?;
        let t = Instant::now();
        let opened =
            VerdictJournal::open(media, journal_config(), ctx.detector.config().fingerprint());
        let open = t.elapsed();
        rec.push("store.open", opens.len() as u64, None, t, t + open);
        opened
            .map_err(|e| out.error(format!("catchup open: {e}")))
            .ok()?;
        drop(dir);

        let (_dir, media) = journal_dir(out_dir, "traced-catchup", Some(prefilled))
            .map_err(|e| out.error(e))
            .ok()?;
        let cycle = ctx.catchup_cycle(TimedMedia::new(media), out)?;
        let stored: Duration = cycle
            .journal
            .into_media()
            .ops()
            .iter()
            .map(|op| op.end - op.start)
            .sum();
        let wall = cycle.wall;
        opens.push(ms(open));
        let critical = open + scan.max(stored);
        residuals.push(100.0 * (wall.as_secs_f64() - critical.as_secs_f64()) / wall.as_secs_f64());
        stations.push((ms(wall), ms(scan), ms(stored)));
    }
    let (wall, scan, stored) = stations[stations.len() / 2];
    notes.push(format!(
        "catch-up critical path ({} cycles, middle one): wall {wall:.1} ms = open {:.2} ms + busier of scan station {scan:.1} ms and store station {stored:.1} ms + residual",
        stations.len(),
        median_of(opens.clone())
    ));
    m.insert("store.open_ms", median_of(opens));
    Some(median_of(residuals))
}
