//! Decision-provenance tracing — structured spans and events recording
//! *why* the detector flagged (or cleared) each transaction.
//!
//! Aggregate telemetry ([`crate::telemetry`]) answers "where does the
//! pipeline spend its time"; this layer answers the analyst's question:
//! *why was this transaction flagged?* For every analyzed transaction a
//! [`TxProvenance`] records
//!
//! * the per-stage spans (wall-clock offsets from a shared epoch),
//! * the full event log — flash loans found, tags assigned with the
//!   transfer that first triggered them, simplify keeps/drops/merges,
//!   identified trades, and every pattern matcher's verdict (the journal
//!   `seq`s it matched, or the first predicate that failed),
//! * the final [`Decision`] with a machine-readable [`Reason`] chain.
//!
//! The collection design mirrors the telemetry sink exactly:
//!
//! * [`TraceSink`] — compile-time-guarded hook trait; monomorphized over
//!   [`NoopTracer`] every event closure and clock read is dead code.
//! * [`FlightRecorder`] — the shared sink: a bounded ring that retains
//!   the last *N* cleared traces and **pins** every trace whose decision
//!   flagged an attack, so batch scans stay allocation-lean while
//!   attacks are always fully recorded.
//! * [`RecordedTrace`] — what the sink receives and the recorder stores:
//!   the raw values the pipeline already held (providers, addresses,
//!   tags, token ids, static predicate names). Display formatting into a
//!   [`TxProvenance`] happens when a trace is read, so the traces a ring
//!   evicts are never formatted.
//! * [`WorkerTracer`] — a per-worker lock-free front ([`FlightRecorder`]'s
//!   `worker_front`): traces accumulate in a thread-local buffer (itself
//!   ring-bounded) and merge into the shared recorder in one mutex
//!   acquisition when the worker finishes.
//!
//! Exporters live in [`export`]: JSONL event logs (one trace per line,
//! re-importable via [`export::parse_jsonl`]) and Chrome `trace_event`
//! JSON openable in `chrome://tracing` / Perfetto, with stage spans
//! nested per worker. [`json`] holds the small hand-rolled JSON parser
//! both the re-import and the `bench_diff` gate share.

pub mod export;
pub mod json;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use ethsim::{Address, SpanId, TokenId, TxId, TxRecord};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::flashloan::Provider;
use crate::patterns::PatternKind;
use crate::simplify::DropRule;
use crate::tagging::Tag;
use crate::telemetry::{Stage, STAGE_COUNT};
use crate::trades::TradeKind;

/// One structured provenance event, in pipeline order.
///
/// Addresses, tags and tokens appear in display form: events are the
/// analyst-facing audit trail, and strings survive the JSONL round trip
/// exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A Table II flash-loan signature matched.
    FlashLoan {
        /// Lending protocol (display name).
        provider: String,
        /// Lender contract address.
        lender: String,
        /// Borrower contract address.
        borrower: String,
        /// Borrowed amount, when the signature exposes it.
        amount: Option<u128>,
    },
    /// A distinct tag entered the transaction's tagged transfer list.
    TagAssigned {
        /// The tag, in display form.
        tag: String,
        /// `seq` of the first journal transfer carrying the tag.
        first_seq: u32,
    },
    /// A journal transfer was dropped by simplify rules 1–2.
    SimplifyDropped {
        /// Journal `seq` of the dropped transfer.
        seq: u32,
        /// Which rule dropped it.
        rule: DropRule,
    },
    /// A journal transfer was merged into a surviving predecessor
    /// (simplify rule 3, pass-through collapse).
    SimplifyMerged {
        /// Journal `seq` of the absorbed transfer.
        seq: u32,
        /// `seq` of the surviving transfer it merged into.
        into_seq: u32,
    },
    /// Stage-2 reduction totals (`kept + dropped + merged` = journal size).
    SimplifySummary {
        /// Transfers surviving into the application-level list.
        kept: u32,
        /// Transfers dropped by rules 1–2.
        dropped: u32,
        /// Transfers merged by rule 3.
        merged: u32,
    },
    /// A Table III trade action was identified.
    TradeIdentified {
        /// `seq` of the trade's first transfer.
        seq: u32,
        /// Swap / Mint-liquidity / Remove-liquidity.
        kind: String,
        /// Buying application tag.
        buyer: String,
        /// Selling application tag.
        seller: String,
    },
    /// One matcher's verdict on one `(quote, target)` pair for one
    /// borrower tag.
    PatternVerdict {
        /// Which pattern was evaluated.
        kind: PatternKind,
        /// The borrower tag evaluated.
        borrower: String,
        /// The quote token (display form).
        quote: String,
        /// The target token (display form).
        target: String,
        /// Matched with evidence, or the first predicate that failed.
        outcome: PatternOutcome,
    },
    /// A post-detection heuristic ran (e.g. the aggregator-initiator
    /// filter, §VI-C).
    Heuristic {
        /// Heuristic name.
        name: String,
        /// Whether the report survives the heuristic.
        passed: bool,
        /// Human-readable score/justification.
        detail: String,
    },
    /// A [`crate::forensics::trace_exits`] exit path cross-linked into
    /// the flagged trace.
    ExitTraced {
        /// Exit classification (`direct` / `multi_level` / `coin_mixer`).
        kind: String,
        /// Terminal sink address.
        sink: String,
        /// Asset (display form).
        token: String,
        /// Amount arriving at the sink.
        amount: u128,
        /// Intermediary hops traversed.
        hops: u32,
        /// Accounts on the path from cluster boundary to sink.
        path_len: u32,
    },
}

/// One matcher's outcome on one pair: the concrete journal `seq`s it
/// matched, or the first (deepest) predicate that failed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PatternOutcome {
    /// The pattern matched.
    Matched {
        /// Journal `seq`s of the trades forming each match.
        trade_seqs: Vec<Vec<u32>>,
        /// Volatility of the first match on this pair.
        volatility: f64,
    },
    /// No match; `failed` names the deepest predicate reached.
    Rejected {
        /// The first predicate that failed.
        failed: String,
    },
}

/// One machine-readable link of a decision's reason chain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Reason {
    /// The transaction reverted; LeiShen only replays committed ones.
    Reverted,
    /// No Table II flash-loan signature matched.
    NoFlashLoan,
    /// A flash loan from `provider` was identified.
    FlashLoan {
        /// Lending protocol display name.
        provider: String,
    },
    /// Flash loan present but no attack pattern matched.
    NoPatternMatched,
    /// An attack pattern matched — the flagging evidence.
    PatternMatched {
        /// Which pattern.
        kind: PatternKind,
        /// Target token (display form).
        target: String,
        /// Quote token (display form).
        quote: String,
        /// Journal `seq`s of the matched trades.
        trade_seqs: Vec<u32>,
    },
    /// Analysis never completed: the transaction was quarantined by the
    /// resilience layer and carries no verdict either way.
    Indeterminate {
        /// Machine-readable fault code (`Quarantine::reason()`), e.g.
        /// `invalid_input:seq_gap` or `panic@tagging`.
        fault: String,
    },
}

impl Reason {
    /// Stable machine-readable code for the reason variant.
    pub fn code(&self) -> &'static str {
        match self {
            Reason::Reverted => "reverted",
            Reason::NoFlashLoan => "no_flash_loan",
            Reason::FlashLoan { .. } => "flash_loan",
            Reason::NoPatternMatched => "no_pattern",
            Reason::PatternMatched { .. } => "pattern",
            Reason::Indeterminate { .. } => "indeterminate",
        }
    }
}

/// The final decision for one transaction, with its reason chain.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Whether the transaction was flagged as a flpAttack.
    pub flagged: bool,
    /// Machine-readable reasons, in pipeline order.
    pub reasons: Vec<Reason>,
}

impl Decision {
    /// Whether the reason chain names at least one matched pattern.
    pub fn names_pattern(&self) -> bool {
        self.reasons
            .iter()
            .any(|r| matches!(r, Reason::PatternMatched { .. }))
    }
}

/// One pipeline stage's span: wall-clock offsets (nanoseconds) from the
/// recorder's epoch, so spans from different workers share a timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Which stage.
    pub stage: Stage,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the recorder epoch, nanoseconds.
    pub end_ns: u64,
}

/// The full decision provenance of one analyzed transaction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TxProvenance {
    /// The analyzed transaction.
    pub tx: TxId,
    /// Root span id ([`SpanId::tx_root`]).
    pub span: SpanId,
    /// Index of the scan worker that analyzed the transaction.
    pub worker: u32,
    /// Per-stage spans, in execution order (empty after short-circuits
    /// only the reached stages appear).
    pub spans: Vec<SpanRecord>,
    /// The structured event log, in pipeline order.
    pub events: Vec<TraceEvent>,
    /// The final decision and its reason chain.
    pub decision: Decision,
}

/// One transaction's provenance as a [`TraceSink`] receives it: the raw
/// values the pipeline already held — providers, addresses, tags (an
/// `Arc` bump), token ids, `&'static str` predicates — formatted into a
/// [`TxProvenance`] only when read.
///
/// A batch scan records every transaction but a [`FlightRecorder`]
/// retains only the last *N* cleared ones plus the flagged ones, so
/// deferring the `Display` work to [`RecordedTrace::to_provenance`] means
/// evicted traces are never formatted at all. The materialized form is
/// exactly what eager formatting produced.
#[derive(Debug)]
pub struct RecordedTrace(Repr);

#[derive(Debug)]
enum Repr {
    /// Recorded by the pipeline; not yet formatted.
    Raw(RawTrace),
    /// Materialized: recorded pre-built, or edited by
    /// [`FlightRecorder::annotate`].
    Built(Box<TxProvenance>),
}

impl RecordedTrace {
    /// The analyzed transaction.
    pub(crate) fn tx(&self) -> TxId {
        match &self.0 {
            Repr::Raw(raw) => raw.tx,
            Repr::Built(p) => p.tx,
        }
    }

    /// Whether the decision flagged an attack.
    pub(crate) fn flagged(&self) -> bool {
        match &self.0 {
            Repr::Raw(raw) => raw.flagged,
            Repr::Built(p) => p.decision.flagged,
        }
    }

    /// The formatted provenance.
    pub fn to_provenance(&self) -> TxProvenance {
        match &self.0 {
            Repr::Raw(raw) => raw.build(),
            Repr::Built(p) => (**p).clone(),
        }
    }

    /// The formatted provenance, materialized in place so it can be
    /// edited.
    fn provenance_mut(&mut self) -> &mut TxProvenance {
        if let Repr::Raw(raw) = &self.0 {
            self.0 = Repr::Built(Box::new(raw.build()));
        }
        match &mut self.0 {
            Repr::Built(p) => p,
            Repr::Raw(_) => unreachable!("materialized above"),
        }
    }
}

impl From<TxProvenance> for RecordedTrace {
    fn from(trace: TxProvenance) -> Self {
        RecordedTrace(Repr::Built(Box::new(trace)))
    }
}

/// [`TxProvenance`] before formatting. Spans sit inline: a transaction
/// reaches at most one span per stage.
#[derive(Debug)]
struct RawTrace {
    tx: TxId,
    worker: u32,
    spans: [SpanRecord; STAGE_COUNT],
    span_count: u8,
    events: Vec<RawEvent>,
    flagged: bool,
    reasons: Vec<RawReason>,
}

impl RawTrace {
    fn build(&self) -> TxProvenance {
        TxProvenance {
            tx: self.tx,
            span: SpanId::tx_root(self.tx),
            worker: self.worker,
            spans: self.spans[..usize::from(self.span_count)].to_vec(),
            events: self.events.iter().map(RawEvent::build).collect(),
            decision: Decision {
                flagged: self.flagged,
                reasons: self.reasons.iter().map(RawReason::build).collect(),
            },
        }
    }
}

/// The [`TraceEvent`]s the pipeline emits, holding raw values.
/// Heuristic and exit events have no raw form: they are added after
/// detection, through [`FlightRecorder::annotate`], already formatted.
#[derive(Debug)]
pub(crate) enum RawEvent {
    FlashLoan {
        provider: Provider,
        lender: Address,
        borrower: Address,
        amount: Option<u128>,
    },
    TagAssigned {
        tag: Tag,
        first_seq: u32,
    },
    SimplifyDropped {
        seq: u32,
        rule: DropRule,
    },
    SimplifyMerged {
        seq: u32,
        into_seq: u32,
    },
    SimplifySummary {
        kept: u32,
        dropped: u32,
        merged: u32,
    },
    TradeIdentified {
        seq: u32,
        kind: TradeKind,
        buyer: Tag,
        seller: Tag,
    },
    PatternVerdict {
        kind: PatternKind,
        borrower: Tag,
        quote: TokenId,
        target: TokenId,
        outcome: RawOutcome,
    },
}

impl RawEvent {
    fn build(&self) -> TraceEvent {
        match self {
            RawEvent::FlashLoan {
                provider,
                lender,
                borrower,
                amount,
            } => TraceEvent::FlashLoan {
                provider: provider.to_string(),
                lender: lender.to_string(),
                borrower: borrower.to_string(),
                amount: *amount,
            },
            RawEvent::TagAssigned { tag, first_seq } => TraceEvent::TagAssigned {
                tag: tag.to_string(),
                first_seq: *first_seq,
            },
            &RawEvent::SimplifyDropped { seq, rule } => TraceEvent::SimplifyDropped { seq, rule },
            &RawEvent::SimplifyMerged { seq, into_seq } => {
                TraceEvent::SimplifyMerged { seq, into_seq }
            }
            &RawEvent::SimplifySummary {
                kept,
                dropped,
                merged,
            } => TraceEvent::SimplifySummary {
                kept,
                dropped,
                merged,
            },
            RawEvent::TradeIdentified {
                seq,
                kind,
                buyer,
                seller,
            } => TraceEvent::TradeIdentified {
                seq: *seq,
                kind: kind.to_string(),
                buyer: buyer.to_string(),
                seller: seller.to_string(),
            },
            RawEvent::PatternVerdict {
                kind,
                borrower,
                quote,
                target,
                outcome,
            } => TraceEvent::PatternVerdict {
                kind: *kind,
                borrower: borrower.to_string(),
                quote: quote.to_string(),
                target: target.to_string(),
                outcome: match outcome {
                    RawOutcome::Matched {
                        trade_seqs,
                        volatility,
                    } => PatternOutcome::Matched {
                        trade_seqs: trade_seqs.clone(),
                        volatility: *volatility,
                    },
                    RawOutcome::Rejected(failed) => PatternOutcome::Rejected {
                        failed: (*failed).to_string(),
                    },
                },
            },
        }
    }
}

/// A [`PatternOutcome`] with the failed predicate still a static string.
#[derive(Debug)]
pub(crate) enum RawOutcome {
    Matched {
        trade_seqs: Vec<Vec<u32>>,
        volatility: f64,
    },
    Rejected(&'static str),
}

/// A [`Reason`] holding raw values.
#[derive(Debug)]
pub(crate) enum RawReason {
    Reverted,
    NoFlashLoan,
    FlashLoan(Provider),
    NoPatternMatched,
    PatternMatched {
        kind: PatternKind,
        target: TokenId,
        quote: TokenId,
        trade_seqs: Vec<u32>,
    },
    Indeterminate(String),
}

impl RawReason {
    fn build(&self) -> Reason {
        match self {
            RawReason::Reverted => Reason::Reverted,
            RawReason::NoFlashLoan => Reason::NoFlashLoan,
            RawReason::FlashLoan(provider) => Reason::FlashLoan {
                provider: provider.to_string(),
            },
            RawReason::NoPatternMatched => Reason::NoPatternMatched,
            RawReason::PatternMatched {
                kind,
                target,
                quote,
                trade_seqs,
            } => Reason::PatternMatched {
                kind: *kind,
                target: target.to_string(),
                quote: quote.to_string(),
                trade_seqs: trade_seqs.clone(),
            },
            RawReason::Indeterminate(fault) => Reason::Indeterminate {
                fault: fault.clone(),
            },
        }
    }
}

/// The trace hook the pipeline calls — the provenance twin of
/// [`crate::telemetry::MetricsSink`], with the same compile-time guard:
/// `ENABLED` is an associated constant, so a pipeline monomorphized over
/// [`NoopTracer`] contains no event construction, no clock reads and no
/// branches.
pub trait TraceSink {
    /// Whether the pipeline should build provenance for this sink.
    const ENABLED: bool;

    /// The worker-local front of this sink (see
    /// [`TraceSink::worker_front`]).
    type WorkerFront<'a>: TraceSink
    where
        Self: 'a;

    /// A front for one worker: traces recorded into the front accumulate
    /// thread-locally — no locks — and merge into the shared sink when
    /// the front drops.
    fn worker_front(&self) -> Self::WorkerFront<'_>;

    /// The shared epoch span offsets are measured from, when one exists.
    fn epoch(&self) -> Option<Instant> {
        None
    }

    /// This front's worker index (0 for shared/serial use).
    fn worker_id(&self) -> u32 {
        0
    }

    /// One transaction's finished provenance, unformatted.
    fn record(&self, trace: RecordedTrace);
}

/// The do-nothing tracer: the hot path's default. Compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl TraceSink for NoopTracer {
    const ENABLED: bool = false;

    type WorkerFront<'a> = NoopTracer;

    #[inline(always)]
    fn worker_front(&self) -> NoopTracer {
        NoopTracer
    }

    #[inline(always)]
    fn record(&self, _trace: RecordedTrace) {}
}

/// What the recorder (and each worker front) accumulates: the bounded
/// ring of recent cleared traces plus the pinned flagged ones.
#[derive(Debug, Default)]
struct RecorderBuf {
    ring: VecDeque<RecordedTrace>,
    pinned: Vec<RecordedTrace>,
    recorded: u64,
    evicted: u64,
}

impl RecorderBuf {
    fn record(&mut self, capacity: usize, trace: RecordedTrace) {
        self.recorded += 1;
        if trace.flagged() {
            self.pinned.push(trace);
        } else {
            self.ring.push_back(trace);
            while self.ring.len() > capacity {
                self.ring.pop_front();
                self.evicted += 1;
            }
        }
    }

    fn merge(&mut self, capacity: usize, other: RecorderBuf) {
        self.recorded += other.recorded;
        self.evicted += other.evicted;
        self.pinned.extend(other.pinned);
        for trace in other.ring {
            self.ring.push_back(trace);
            while self.ring.len() > capacity {
                self.ring.pop_front();
                self.evicted += 1;
            }
        }
    }

    /// Every retained trace, pinned first, then the ring.
    fn iter(&self) -> impl DoubleEndedIterator<Item = &RecordedTrace> {
        self.pinned.iter().chain(self.ring.iter())
    }
}

/// The scan flight recorder: bounded ring of recent traces + pinned
/// flagged traces.
///
/// Memory is bounded by construction: the shared ring holds at most
/// `capacity` cleared traces (each worker front is bounded by the same
/// capacity while a scan is in flight), and only flagged traces — attacks
/// are rare by definition — escape the bound by being pinned. Under a
/// parallel scan the ring's "last N" is per-worker-merge approximate, as
/// with any multi-writer flight recorder; pinned traces are always exact
/// and complete.
///
/// Traces are stored as recorded ([`RecordedTrace`]) and formatted on
/// every read, so the accessors below return fresh [`TxProvenance`]
/// values.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderBuf>,
    capacity: usize,
    epoch: Instant,
    next_worker: AtomicU32,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Default ring capacity (cleared traces retained).
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A recorder with the default ring capacity.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder retaining the last `capacity` cleared traces (minimum
    /// 1); flagged traces are pinned outside the ring and never evicted.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: Mutex::new(RecorderBuf::default()),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            next_worker: AtomicU32::new(0),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total traces recorded (including since-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().recorded
    }

    /// Cleared traces evicted from the ring.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }

    /// The retained cleared traces, oldest first.
    pub fn recent(&self) -> Vec<TxProvenance> {
        self.inner
            .lock()
            .ring
            .iter()
            .map(RecordedTrace::to_provenance)
            .collect()
    }

    /// The pinned (flagged) traces, in record order.
    pub fn pinned(&self) -> Vec<TxProvenance> {
        self.inner
            .lock()
            .pinned
            .iter()
            .map(RecordedTrace::to_provenance)
            .collect()
    }

    /// Every retained trace — pinned first, then the ring — sorted by
    /// transaction id for deterministic export.
    pub fn traces(&self) -> Vec<TxProvenance> {
        let inner = self.inner.lock();
        let mut all: Vec<&RecordedTrace> = inner.iter().collect();
        all.sort_by_key(|t| t.tx());
        all.into_iter().map(RecordedTrace::to_provenance).collect()
    }

    /// The retained trace of `tx`, if any (pinned or still in the ring).
    pub fn find(&self, tx: TxId) -> Option<TxProvenance> {
        let inner = self.inner.lock();
        let found = inner.iter().rev().find(|t| t.tx() == tx);
        found.map(RecordedTrace::to_provenance)
    }

    /// Appends events to the retained trace of `tx` in place — how the
    /// `trace` bin cross-links post-detection context (heuristic verdicts,
    /// forensic exit paths) into a recorded provenance. Only the edited
    /// trace is formatted. Returns `false` when the trace is no longer
    /// retained.
    pub fn annotate(&self, tx: TxId, f: impl FnOnce(&mut TxProvenance)) -> bool {
        let mut inner = self.inner.lock();
        let RecorderBuf { ring, pinned, .. } = &mut *inner;
        if let Some(t) = pinned
            .iter_mut()
            .chain(ring.iter_mut())
            .rev()
            .find(|t| t.tx() == tx)
        {
            f(t.provenance_mut());
            true
        } else {
            false
        }
    }

    /// Drops all retained traces and counters (the epoch is kept).
    pub fn clear(&self) {
        *self.inner.lock() = RecorderBuf::default();
    }

    /// Merges a worker front's accumulated batch in one lock acquisition.
    fn absorb(&self, batch: RecorderBuf) {
        self.inner.lock().merge(self.capacity, batch);
    }
}

impl TraceSink for FlightRecorder {
    const ENABLED: bool = true;

    type WorkerFront<'a> = WorkerTracer<'a>;

    fn worker_front(&self) -> WorkerTracer<'_> {
        WorkerTracer {
            shared: self,
            worker: self.next_worker.fetch_add(1, Ordering::Relaxed),
            local: RefCell::new(RecorderBuf::default()),
        }
    }

    fn epoch(&self) -> Option<Instant> {
        Some(self.epoch)
    }

    fn record(&self, trace: RecordedTrace) {
        self.inner.lock().record(self.capacity, trace);
    }
}

/// One worker's lock-free front of a shared [`FlightRecorder`]: recording
/// is a `RefCell` borrow plus a ring push; the batch merges into the
/// shared recorder when the front drops.
#[derive(Debug)]
pub struct WorkerTracer<'a> {
    shared: &'a FlightRecorder,
    worker: u32,
    local: RefCell<RecorderBuf>,
}

impl TraceSink for WorkerTracer<'_> {
    const ENABLED: bool = true;

    type WorkerFront<'b>
        = WorkerTracer<'b>
    where
        Self: 'b;

    /// A front of a front still funnels into the same shared recorder.
    fn worker_front(&self) -> WorkerTracer<'_> {
        self.shared.worker_front()
    }

    fn epoch(&self) -> Option<Instant> {
        Some(self.shared.epoch)
    }

    fn worker_id(&self) -> u32 {
        self.worker
    }

    fn record(&self, trace: RecordedTrace) {
        self.local
            .borrow_mut()
            .record(self.shared.capacity, trace);
    }
}

impl Drop for WorkerTracer<'_> {
    fn drop(&mut self) {
        self.shared.absorb(self.local.take());
    }
}

/// Filler for the unused tail of [`RawTrace::spans`].
const NO_SPAN: SpanRecord = SpanRecord {
    stage: Stage::FlashLoan,
    start_ns: 0,
    end_ns: 0,
};

/// Builds one transaction's provenance on the worker's stack while the
/// pipeline runs — the trace twin of the telemetry `StageClock`, whose
/// clock reads it shares: `start` and `lap` take the instant the clock
/// just read, if any, and read their own only when it read none. With a
/// disabled sink every method body is dead code behind `T::ENABLED`, and
/// the event closures passed to [`TraceBuilder::event`] are never built.
pub(crate) struct TraceBuilder {
    timing: Option<(Instant, Instant)>,
    spans: [SpanRecord; STAGE_COUNT],
    span_count: u8,
    events: Vec<RawEvent>,
}

impl TraceBuilder {
    /// Starts a builder at `now` (read here when `None`); clocks start
    /// only when `T` records.
    pub fn start<T: TraceSink>(tracer: &T, now: Option<Instant>) -> Self {
        let timing = if T::ENABLED {
            let now = now.unwrap_or_else(Instant::now);
            Some((tracer.epoch().unwrap_or(now), now))
        } else {
            None
        };
        TraceBuilder {
            timing,
            spans: [NO_SPAN; STAGE_COUNT],
            span_count: 0,
            events: Vec::new(),
        }
    }

    /// Closes the span of `stage` at `now` (read here when `None`) and
    /// opens the next one.
    pub fn lap<T: TraceSink>(&mut self, _tracer: &T, stage: Stage, now: Option<Instant>) {
        if T::ENABLED {
            if let Some((epoch, start)) = self.timing {
                let now = now.unwrap_or_else(Instant::now);
                self.spans[usize::from(self.span_count)] = SpanRecord {
                    stage,
                    start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
                    end_ns: now.saturating_duration_since(epoch).as_nanos() as u64,
                };
                self.span_count += 1;
                self.timing = Some((epoch, now));
            }
        }
    }

    /// Appends the event `f` builds — `f` is only called (and its
    /// captures only touched) when `T` records.
    pub fn event<T: TraceSink>(&mut self, _tracer: &T, f: impl FnOnce() -> RawEvent) {
        if T::ENABLED {
            self.events.push(f());
        }
    }

    /// Records `tag` as assigned at `seq` unless an earlier
    /// [`RawEvent::TagAssigned`] already names it. A linear scan: a
    /// transaction has a handful of distinct tags, and cache-interned
    /// app tags compare by pointer first.
    pub fn tag_assigned<T: TraceSink>(&mut self, _tracer: &T, tag: &Tag, seq: u32) {
        if T::ENABLED
            && !self
                .events
                .iter()
                .any(|e| matches!(e, RawEvent::TagAssigned { tag: seen, .. } if seen == tag))
        {
            self.events.push(RawEvent::TagAssigned {
                tag: tag.clone(),
                first_seq: seq,
            });
        }
    }

    /// Delivers the finished trace to the sink.
    pub fn finish<T: TraceSink>(
        self,
        tracer: &T,
        tx: &TxRecord,
        flagged: bool,
        reasons: Vec<RawReason>,
    ) {
        if T::ENABLED {
            tracer.record(RecordedTrace(Repr::Raw(RawTrace {
                tx: tx.id,
                worker: tracer.worker_id(),
                spans: self.spans,
                span_count: self.span_count,
                events: self.events,
                flagged,
                reasons,
            })));
        }
    }
}

/// Records the degraded-mode trace of a transaction the resilience layer
/// quarantined: no spans, no events, decision `flagged: false` with a
/// single [`Reason::Indeterminate`] carrying `fault`.
pub(crate) fn record_indeterminate<T: TraceSink>(tracer: &T, tx: TxId, fault: String) {
    if T::ENABLED {
        tracer.record(RecordedTrace(Repr::Raw(RawTrace {
            tx,
            worker: tracer.worker_id(),
            spans: [NO_SPAN; STAGE_COUNT],
            span_count: 0,
            events: Vec::new(),
            flagged: false,
            reasons: vec![RawReason::Indeterminate(fault)],
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(tx: u64, flagged: bool) -> TxProvenance {
        TxProvenance {
            tx: TxId(tx),
            span: SpanId::tx_root(TxId(tx)),
            worker: 0,
            spans: vec![SpanRecord {
                stage: Stage::FlashLoan,
                start_ns: 0,
                end_ns: 10,
            }],
            events: Vec::new(),
            decision: Decision {
                flagged,
                reasons: if flagged {
                    vec![Reason::PatternMatched {
                        kind: PatternKind::Sbs,
                        target: "WBTC".into(),
                        quote: "ETH".into(),
                        trade_seqs: vec![1, 2, 3],
                    }]
                } else {
                    vec![Reason::NoFlashLoan]
                },
            },
        }
    }

    #[test]
    fn noop_is_disabled() {
        const { assert!(!NoopTracer::ENABLED) }
        NoopTracer.record(trace(0, false).into());
    }

    #[test]
    fn ring_is_bounded_and_flags_are_pinned() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            rec.record(trace(i, false).into());
        }
        rec.record(trace(100, true).into());
        rec.record(trace(101, true).into());
        assert_eq!(rec.recent().len(), 4, "ring bounded at capacity");
        assert_eq!(rec.recent()[0].tx, TxId(6), "oldest evicted first");
        assert_eq!(rec.pinned().len(), 2, "every flagged trace pinned");
        assert_eq!(rec.evicted(), 6);
        assert_eq!(rec.recorded(), 12);
        // Flagged traces survive arbitrary later traffic.
        for i in 200..300 {
            rec.record(trace(i, false).into());
        }
        assert_eq!(rec.pinned().len(), 2);
        assert_eq!(rec.recent().len(), 4);
    }

    #[test]
    fn traces_are_sorted_and_findable() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(trace(5, false).into());
        rec.record(trace(2, true).into());
        rec.record(trace(9, false).into());
        let all = rec.traces();
        assert_eq!(
            all.iter().map(|t| t.tx.0).collect::<Vec<_>>(),
            vec![2, 5, 9]
        );
        assert!(rec.find(TxId(2)).unwrap().decision.flagged);
        assert!(rec.find(TxId(7)).is_none());
    }

    #[test]
    fn annotate_appends_events_in_place() {
        let rec = FlightRecorder::new();
        rec.record(trace(3, true).into());
        let ok = rec.annotate(TxId(3), |t| {
            t.events.push(TraceEvent::Heuristic {
                name: "aggregator_initiator".into(),
                passed: true,
                detail: "initiator untagged".into(),
            })
        });
        assert!(ok);
        assert_eq!(rec.find(TxId(3)).unwrap().events.len(), 1);
        assert!(!rec.annotate(TxId(99), |_| {}));
    }

    #[test]
    fn worker_front_merges_on_drop() {
        let rec = FlightRecorder::with_capacity(16);
        {
            let front = rec.worker_front();
            front.record(trace(1, false).into());
            front.record(trace(2, true).into());
            assert_eq!(rec.recorded(), 0, "nothing shared before the drop");
        }
        assert_eq!(rec.recorded(), 2);
        assert_eq!(rec.pinned().len(), 1);
        assert_eq!(rec.recent().len(), 1);
        // Worker ids are distinct per front.
        let a = rec.worker_front();
        let b = rec.worker_front();
        assert_ne!(a.worker_id(), b.worker_id());
    }

    fn tx_record(id: u64) -> TxRecord {
        TxRecord {
            id: TxId(id),
            block: 1,
            timestamp: 0,
            from: Address::from_u64(1),
            to: Address::from_u64(2),
            function: "f".into(),
            status: ethsim::TxStatus::Success,
            trace: Default::default(),
        }
    }

    /// Records one cleared (or flagged) transaction through the builder,
    /// the way the pipeline does.
    fn build<T: TraceSink>(rec: &T, id: u64, flagged: bool) {
        let mut b = TraceBuilder::start(rec, None);
        b.event(rec, || RawEvent::FlashLoan {
            provider: Provider::Aave,
            lender: Address::from_u64(3),
            borrower: Address::from_u64(4),
            amount: Some(5),
        });
        b.lap(rec, Stage::FlashLoan, None);
        b.tag_assigned(rec, &Tag::Root(Address::from_u64(4)), 0);
        b.tag_assigned(rec, &Tag::BlackHole, 0);
        b.tag_assigned(rec, &Tag::Root(Address::from_u64(4)), 1);
        b.lap(rec, Stage::Tagging, None);
        b.event(rec, || RawEvent::PatternVerdict {
            kind: PatternKind::Krp,
            borrower: Tag::Root(Address::from_u64(4)),
            quote: TokenId::ETH,
            target: TokenId::ETH,
            outcome: RawOutcome::Rejected("buy_then_sell"),
        });
        let reasons = if flagged {
            vec![RawReason::PatternMatched {
                kind: PatternKind::Sbs,
                target: TokenId::ETH,
                quote: TokenId::ETH,
                trade_seqs: vec![1, 2, 3],
            }]
        } else {
            vec![
                RawReason::FlashLoan(Provider::Aave),
                RawReason::NoPatternMatched,
            ]
        };
        b.finish(rec, &tx_record(id), flagged, reasons);
    }

    #[test]
    fn builder_records_spans_events_and_decision() {
        let rec = FlightRecorder::new();
        build(&rec, 7, false);
        let t = rec.find(TxId(7)).expect("recorded");
        assert_eq!(t.span, SpanId::tx_root(TxId(7)));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].stage, Stage::FlashLoan);
        assert!(t.spans[0].end_ns <= t.spans[1].start_ns + 1);
        assert_eq!(
            t.events,
            vec![
                TraceEvent::FlashLoan {
                    provider: "AAVE".into(),
                    lender: Address::from_u64(3).to_string(),
                    borrower: Address::from_u64(4).to_string(),
                    amount: Some(5),
                },
                TraceEvent::TagAssigned {
                    tag: Tag::Root(Address::from_u64(4)).to_string(),
                    first_seq: 0,
                },
                TraceEvent::TagAssigned {
                    tag: "BlackHole".into(),
                    first_seq: 0,
                },
                TraceEvent::PatternVerdict {
                    kind: PatternKind::Krp,
                    borrower: Tag::Root(Address::from_u64(4)).to_string(),
                    quote: TokenId::ETH.to_string(),
                    target: TokenId::ETH.to_string(),
                    outcome: PatternOutcome::Rejected {
                        failed: "buy_then_sell".into(),
                    },
                },
            ],
            "formatted on read; a repeated tag is recorded once"
        );
        assert_eq!(t.decision.reasons[0].code(), "flash_loan");
        assert_eq!(t.decision.reasons[1].code(), "no_pattern");
        assert!(!t.decision.names_pattern());

        // A noop builder is inert end to end (and the closure never runs).
        let mut b = TraceBuilder::start(&NoopTracer, None);
        b.event(&NoopTracer, || unreachable!("disabled sinks build nothing"));
        b.lap(&NoopTracer, Stage::FlashLoan, None);
        b.finish(&NoopTracer, &tx_record(7), false, Vec::new());
    }

    #[test]
    fn builder_spans_reuse_a_shared_instant() {
        let rec = FlightRecorder::new();
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(3);
        let mut b = TraceBuilder::start(&rec, Some(start));
        b.lap(&rec, Stage::FlashLoan, Some(end));
        b.finish(&rec, &tx_record(1), false, vec![RawReason::NoFlashLoan]);
        let span = rec.find(TxId(1)).unwrap().spans[0];
        assert_eq!(span.end_ns - span.start_ns, 3_000);
    }

    #[test]
    fn annotate_materializes_a_built_trace_and_appends() {
        let rec = FlightRecorder::new();
        build(&rec, 3, true);
        build(&rec, 4, false);
        let base = rec.find(TxId(3)).unwrap().events;
        let note = TraceEvent::Heuristic {
            name: "aggregator_initiator".into(),
            passed: true,
            detail: "initiator untagged".into(),
        };
        assert!(rec.annotate(TxId(3), |t| t.events.push(note.clone())));
        let mut expected = base;
        expected.push(note);
        assert_eq!(rec.find(TxId(3)).unwrap().events, expected);
        // The neighbour stays as recorded, and a second annotation
        // edits the already-materialized trace.
        assert_eq!(rec.find(TxId(4)).unwrap().events.len(), 4);
        assert!(rec.annotate(TxId(3), |t| t.events.truncate(1)));
        assert_eq!(rec.find(TxId(3)).unwrap().events.len(), 1);
        assert!(rec.find(TxId(3)).unwrap().decision.flagged);
        assert_eq!(rec.pinned().len(), 1);
    }

    #[test]
    fn quarantined_trace_materializes_its_fault_code() {
        let rec = FlightRecorder::new();
        {
            let front = rec.worker_front();
            record_indeterminate(&front, TxId(9), "invalid_input:seq_gap".into());
        }
        let t = rec.find(TxId(9)).expect("quarantined tx recorded");
        assert!(!t.decision.flagged);
        assert!(t.spans.is_empty() && t.events.is_empty());
        assert_eq!(
            t.decision.reasons,
            vec![Reason::Indeterminate {
                fault: "invalid_input:seq_gap".into()
            }]
        );
        assert_eq!(rec.recent().len(), 1);
    }

    #[test]
    fn reads_are_repeatable() {
        let rec = FlightRecorder::with_capacity(8);
        for i in [5, 1, 9] {
            build(&rec, i, i == 1);
        }
        rec.record(trace(3, false).into());
        let first = rec.traces();
        assert_eq!(first.len(), 4);
        assert_eq!(first, rec.traces(), "formatting on read is deterministic");
        assert_eq!(
            first.iter().map(|t| t.tx.0).collect::<Vec<_>>(),
            vec![1, 3, 5, 9]
        );
    }

    #[test]
    fn builder_traces_keep_the_recorded_and_evicted_counts() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            build(&rec, i, false);
        }
        build(&rec, 100, true);
        {
            let front = rec.worker_front();
            for i in 200..203 {
                build(&front, i, false);
            }
        }
        assert_eq!(rec.recorded(), 14);
        assert_eq!(rec.evicted(), 9);
        assert_eq!(rec.pinned().len(), 1);
        assert_eq!(
            rec.recent().iter().map(|t| t.tx.0).collect::<Vec<_>>(),
            vec![9, 200, 201, 202]
        );
    }
}
