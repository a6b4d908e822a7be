//! The four workloads, untraced: what a user of LeiShen runs, timed from
//! outside through the public API, every verdict checked.

use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use ethsim::TxRecord;
use leishen::resilience::ResilienceConfig;
use leishen::store::{Media, VerdictJournal};
use leishen::stream::{Block, DurableReport, StreamConfig, StreamService};
use leishen::{Analysis, ChainView, FlightRecorder, LeiShen, RecordingSink, ScanEngine, TagCache};

use crate::openloop::{latency_from_due, Schedule};
use crate::setup::{journal_config, journal_dir, same_verdict};

/// Offered load of the live monitor, transactions per second: about a
/// sixth of the durable stream's probed capacity on a 2-core host, so the
/// monitor measures latency at a sustainable rate, not a growing backlog.
pub const MONITOR_RATE: f64 = 2_000.0;

/// Length of one monitor session. The scanner's per-block cost grows with
/// the tag cache, so a session over the whole corpus runs ever closer to
/// saturation and its latency is dominated by noise-amplified queueing;
/// the monitor instead repeats fresh sessions over the corpus's first
/// 9,000 or so transactions, a freshly started monitor's first seconds.
pub const MONITOR_SESSION_S: f64 = 4.5;

/// Fewest timed repetitions in a run, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// A workload: one way users run LeiShen, and the layers it stresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Archive re-scan of the whole corpus through
    /// `ScanEngine::scan_resilient`, with a fresh `TagCache` per pass
    /// because a scan session pays its cold cache once. Exercises the
    /// detector stages, the tag cache and the engine/scheduler; bypasses
    /// the stream and the store.
    Backfill,
    /// The same corpus and engine through `scan_instrumented` with a
    /// `RecordingSink` and a `FlightRecorder`: the always-on "why was this
    /// flagged" mode. Same stages as backfill plus the telemetry and trace
    /// layers, so an instrumentation cost shows here and not in backfill.
    Forensics,
    /// The live durable monitor: blocks of the bursty arrival curve
    /// offered open-loop at a fixed rate through
    /// `StreamService::run_durable` on real files, fsync per block.
    /// Latency is set by per-block stream, scan and store work and queue
    /// handoffs; batch detector throughput is a small share of it. Not in
    /// `BENCHMARK.json`: its block latency is set by thread wake-ups and
    /// fsync stalls, which on a shared 2-core host vary more between runs
    /// than any bound the benchmark may set. Every traced run still streams
    /// monitor sessions for the stream and store layer metrics.
    Monitor,
    /// Restart after an outage: `run_durable` reopens a journal holding
    /// the first half of the blocks (recovery replay, fingerprint check,
    /// verify-and-skip of the prefix), then a closed-loop firehose replays
    /// every block, paced only by backpressure. The only workload that
    /// reads the store back; measures durable capacity. Not in
    /// `BENCHMARK.json`: its throughput is bimodal between runs on a shared
    /// 2-core host (about 9k or 15k tx/s), wider than any bound the
    /// benchmark may set. Every traced run still runs a catch-up cycle for
    /// `store.open_ms` and the catch-up residual.
    Catchup,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists backfill and forensics.
    pub const ALL: [Workload; 4] = [
        Workload::Backfill,
        Workload::Forensics,
        Workload::Monitor,
        Workload::Catchup,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Backfill => "backfill",
            Workload::Forensics => "forensics",
            Workload::Monitor => "monitor",
            Workload::Catchup => "catchup",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What the workloads run against.
pub struct Ctx<'c, 'a> {
    /// The detector, `DetectorConfig::paper()`.
    pub detector: &'c LeiShen,
    /// The chain view.
    pub view: &'c ChainView<'a>,
    /// Every record, in batch order.
    pub records: &'c [&'a TxRecord],
    /// Serial `analyze` verdict of each record.
    pub reference: &'c [Analysis],
    /// The block cut of the stream workloads.
    pub blocks: &'c [Range<usize>],
    /// Worker threads: the host's hardware threads, never more.
    pub workers: usize,
    /// How long the run measures.
    pub seconds: f64,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Transactions attempted, over every repetition.
    pub attempted: u64,
    /// Indeterminate verdicts, rejected submits and transactions lost to
    /// journal errors.
    pub failed: u64,
    /// Correctness violations; empty when every check passed.
    pub errors: Vec<String>,
    /// Transactions given a verdict per second, one value per repetition.
    pub tx_per_s: Vec<f64>,
    /// Verdict latency samples, ms: per block for the stream workloads,
    /// per pass (time to the complete result) for the batch workloads.
    pub latency_ms: Vec<f64>,
}

impl Outcome {
    pub(crate) fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Checks `verdicts`, stream positions `base..`, against the reference.
    pub(crate) fn check_verdicts<'v>(
        &mut self,
        what: &str,
        base: usize,
        verdicts: impl IntoIterator<Item = &'v leishen::resilience::Verdict>,
        reference: &[Analysis],
    ) {
        for (i, v) in verdicts.into_iter().enumerate() {
            if v.is_indeterminate() {
                self.failed += 1;
            }
            if !reference.get(base + i).is_some_and(|r| same_verdict(v, r)) {
                self.error(format!(
                    "{what}: verdict of tx #{} differs from serial analyze",
                    base + i
                ));
            }
        }
    }
}

/// A checked monitor session and the instants its producer and emitter
/// saw, one per block, indexed by block number.
pub struct MonitorSession<M: Media> {
    /// When each block was due.
    pub schedule: Schedule,
    /// The schedule's origin: when the producer began.
    pub start: Instant,
    /// When each submit call began.
    pub started: Vec<Instant>,
    /// When each submit call returned (after any backpressure wait).
    pub submitted: Vec<Instant>,
    /// When each block's verdicts reached `on_emit`.
    pub emitted: Vec<Instant>,
    /// `TagCache::snapshot_rebuilds` of the session's cache.
    pub snapshot_rebuilds: u64,
    /// The service's report.
    pub report: DurableReport,
    /// The journal, with its media.
    pub journal: VerdictJournal<M>,
}

impl<M: Media> MonitorSession<M> {
    /// Each block's latency, from due to emission.
    pub fn latency(&self) -> Vec<Duration> {
        latency_from_due(self.start, &self.schedule, &self.emitted)
    }

    /// Transactions emitted per second of the session.
    pub fn tx_per_s(&self) -> f64 {
        let last = self.emitted.last().copied().unwrap_or(self.start);
        self.report.stream.transactions as f64 / (last - self.start).as_secs_f64()
    }
}

/// A checked catch-up cycle and what its producer and emitter saw.
pub struct CatchupCycle<M: Media> {
    /// From the `run_durable` call (reopen) to its return (drained).
    pub wall: Duration,
    /// When each block's submit call began, by block number.
    pub submitted: Vec<Instant>,
    /// Each emitted block's number and when it reached `on_emit`.
    pub emitted: Vec<(u64, Instant)>,
    /// The service's report.
    pub report: DurableReport,
    /// The journal, with its media.
    pub journal: VerdictJournal<M>,
}

impl Ctx<'_, '_> {
    pub(crate) fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    pub(crate) fn stream_blocks(&self, cut: &[Range<usize>]) -> Vec<Block<'_>> {
        cut.iter()
            .enumerate()
            .map(|(i, r)| Block {
                number: i as u64,
                txs: self.records[r.clone()].to_vec(),
            })
            .collect()
    }

    pub(crate) fn txs_in(&self, cut: &[Range<usize>]) -> usize {
        cut.iter().map(|r| r.len()).sum()
    }

    /// Runs `workload` for the configured time.
    pub fn run(&self, workload: Workload, out_dir: &Path, prefilled: Option<&Path>) -> Outcome {
        match workload {
            Workload::Backfill => self.backfill(),
            Workload::Forensics => self.forensics(),
            Workload::Monitor => self.monitor(out_dir),
            Workload::Catchup => self.catchup(
                out_dir,
                prefilled.expect("catchup set-up prefills a journal"),
            ),
        }
    }

    /// Repeats whole-corpus passes, each on a fresh tag cache, until the
    /// time is up; `check` sees each pass's result after its timing ends.
    fn batch<T>(
        &self,
        what: &str,
        mut pass: impl FnMut(&TagCache) -> T,
        mut check: impl FnMut(T, &mut Outcome),
    ) -> Outcome {
        let mut out = Outcome::default();
        let deadline = self.deadline();
        while out.tx_per_s.len() < MIN_REPS || Instant::now() < deadline {
            let cache = TagCache::new();
            let t = Instant::now();
            let result = pass(&cache);
            let wall = t.elapsed().as_secs_f64();
            check(result, &mut out);
            out.attempted += self.records.len() as u64;
            out.tx_per_s.push(self.records.len() as f64 / wall);
            out.latency_ms.push(wall * 1e3);
            if !out.errors.is_empty() {
                out.error(format!("{what}: stopping after a failed check"));
                break;
            }
        }
        out
    }

    fn backfill(&self) -> Outcome {
        let engine = ScanEngine::new(self.workers);
        let policy = ResilienceConfig::new();
        self.batch(
            "backfill",
            |cache| engine.scan_resilient(self.detector, self.records, self.view, cache, &policy),
            |scan, out| out.check_verdicts("backfill", 0, &scan.verdicts, self.reference),
        )
    }

    fn forensics(&self) -> Outcome {
        let engine = ScanEngine::new(self.workers);
        let flagged = self.reference.iter().filter(|a| a.is_attack()).count();
        self.batch(
            "forensics",
            |cache| {
                let sink = RecordingSink::new();
                let recorder = FlightRecorder::new();
                let analyses = engine.scan_instrumented(
                    self.detector,
                    self.records,
                    self.view,
                    cache,
                    &sink,
                    &recorder,
                );
                (analyses, recorder.pinned().len())
            },
            |(analyses, pinned), out| {
                if analyses.len() != self.reference.len()
                    || analyses.iter().zip(self.reference).any(|(a, r)| a != r)
                {
                    out.error("forensics: analyses differ from serial analyze".into());
                }
                if pinned != flagged {
                    out.error(format!(
                        "forensics: {pinned} pinned traces for {flagged} flagged transactions"
                    ));
                }
            },
        )
    }

    /// Checks a durable session: no crash, every expected block emitted
    /// exactly once in order, journal totals, verdicts.
    pub(crate) fn check_durable(
        &self,
        out: &mut Outcome,
        what: &str,
        report: &DurableReport,
        emitted: &[u64],
        expect: Range<usize>,
        total_blocks: usize,
    ) {
        if let Some(e) = &report.crashed {
            out.error(format!("{what}: journal crashed: {e}"));
        }
        let want: Vec<u64> = (expect.start as u64..expect.end as u64).collect();
        if emitted != want.as_slice() {
            out.error(format!(
                "{what}: emitted {} blocks, expected blocks {}..{} each exactly once",
                emitted.len(),
                expect.start,
                expect.end
            ));
        }
        let total_txs = self.txs_in(&self.blocks[..total_blocks]) as u64;
        if report.journal_blocks != total_blocks || report.journal_txs != total_txs {
            out.error(format!(
                "{what}: journal holds {} blocks / {} txs, expected {total_blocks} / {total_txs}",
                report.journal_blocks, report.journal_txs
            ));
        }
        for b in &report.stream.blocks {
            let range = &self.blocks[b.number as usize];
            if b.base != range.start || b.verdicts.len() != range.len() {
                out.error(format!(
                    "{what}: block {} emitted at the wrong stream position",
                    b.number
                ));
            }
            out.check_verdicts(what, b.base, &b.verdicts, self.reference);
        }
    }

    /// Fresh monitor sessions until the time is up; latency samples pooled.
    fn monitor(&self, out_dir: &Path) -> Outcome {
        let mut out = Outcome::default();
        // A session starts only if it can end within the run's time.
        let last_start = self.deadline() - Duration::from_secs_f64(MONITOR_SESSION_S);
        while out.tx_per_s.is_empty() || Instant::now() < last_start {
            let (_dir, media) = match journal_dir(out_dir, "monitor", None) {
                Ok(m) => m,
                Err(e) => {
                    out.error(e);
                    break;
                }
            };
            let Some(session) = self.monitor_session(media, &mut out) else {
                break;
            };
            out.latency_ms
                .extend(session.latency().iter().map(|d| d.as_secs_f64() * 1e3));
            out.tx_per_s.push(session.tx_per_s());
        }
        out
    }

    /// One open-loop durable session on `media` over the blocks due within
    /// [`MONITOR_SESSION_S`], checked; `None` if it failed a check.
    pub fn monitor_session<M: Media + Send>(
        &self,
        media: M,
        out: &mut Outcome,
    ) -> Option<MonitorSession<M>> {
        let mut schedule = Schedule::fixed_rate(self.blocks.iter().map(|r| r.len()), MONITOR_RATE);
        schedule.truncate(Duration::from_secs_f64(MONITOR_SESSION_S));
        let n_blocks = schedule.due().len();
        let cut = &self.blocks[..n_blocks];
        let txs = self.txs_in(cut);
        let blocks = self.stream_blocks(cut);

        let service = StreamService::new(self.workers, StreamConfig::default());
        let cache = TagCache::new();
        let mut emitted: Vec<(u64, Instant)> = Vec::with_capacity(n_blocks);
        let mut start = Instant::now();
        let mut started = Vec::new();
        let mut submitted = Vec::with_capacity(n_blocks);
        let mut rejected = 0u64;
        let result = service.run_durable(
            self.detector,
            self.view,
            &cache,
            media,
            journal_config(),
            |producer| {
                start = Instant::now();
                let mut blocks = blocks.into_iter();
                started = schedule.drive(start, |_| {
                    let block = blocks.next().expect("one block per due time");
                    if !producer.submit(block) {
                        rejected += 1;
                    }
                    submitted.push(Instant::now());
                });
            },
            |block| emitted.push((block.number, Instant::now())),
        );
        out.attempted += txs as u64;
        let (report, journal) = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += txs as u64;
                out.error(format!("monitor: run_durable failed: {e}"));
                return None;
            }
        };
        out.failed += rejected + txs.saturating_sub(report.stream.transactions) as u64;
        let numbers: Vec<u64> = emitted.iter().map(|e| e.0).collect();
        self.check_durable(out, "monitor", &report, &numbers, 0..n_blocks, n_blocks);
        if report.skipped_blocks != 0 {
            out.error("monitor: a fresh journal skipped blocks".into());
        }
        if !out.errors.is_empty() {
            return None;
        }
        Some(MonitorSession {
            schedule,
            start,
            started,
            submitted,
            emitted: emitted.into_iter().map(|e| e.1).collect(),
            snapshot_rebuilds: cache.snapshot_rebuilds(),
            report,
            journal,
        })
    }

    fn catchup(&self, out_dir: &Path, prefilled: &Path) -> Outcome {
        let mut out = Outcome::default();
        let deadline = self.deadline();
        // Journals are removed after the last cycle: deleting files while
        // a later cycle syncs would put the deletes' I/O into its timing.
        let mut dirs = Vec::new();
        while out.tx_per_s.len() < MIN_REPS || Instant::now() < deadline {
            // Untimed: a private, synced copy of the prefilled journal.
            let (dir, media) = match journal_dir(out_dir, "catchup", Some(prefilled)) {
                Ok(m) => m,
                Err(e) => {
                    out.error(e);
                    break;
                }
            };
            let Some(cycle) = self.catchup_cycle(media, &mut out) else {
                break;
            };
            dirs.push(dir);
            out.tx_per_s
                .push(cycle.report.stream.transactions as f64 / cycle.wall.as_secs_f64());
            out.latency_ms.extend(cycle.emitted.iter().map(|(n, at)| {
                at.duration_since(cycle.submitted[*n as usize])
                    .as_secs_f64()
                    * 1e3
            }));
        }
        out
    }

    /// One catch-up cycle: `run_durable` on `media`, a copy of the journal
    /// prefilled with the first half of the blocks, replaying every block
    /// as fast as backpressure admits; checked, `None` if a check failed.
    pub fn catchup_cycle<M: Media + Send>(
        &self,
        media: M,
        out: &mut Outcome,
    ) -> Option<CatchupCycle<M>> {
        let n_blocks = self.blocks.len();
        let prefix = n_blocks / 2;
        let blocks = self.stream_blocks(self.blocks);
        let service = StreamService::new(self.workers, StreamConfig::default());
        let cache = TagCache::new();
        let mut submitted: Vec<Instant> = Vec::with_capacity(n_blocks);
        let mut emitted: Vec<(u64, Instant)> = Vec::with_capacity(n_blocks - prefix);
        let mut rejected = 0u64;

        let t = Instant::now();
        let result = service.run_durable(
            self.detector,
            self.view,
            &cache,
            media,
            journal_config(),
            |producer| {
                for block in blocks {
                    submitted.push(Instant::now());
                    if !producer.submit(block) {
                        rejected += 1;
                    }
                }
            },
            |block| emitted.push((block.number, Instant::now())),
        );
        let wall = t.elapsed();

        let fresh = self.txs_in(&self.blocks[prefix..]) as u64;
        out.attempted += fresh;
        let (report, journal) = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += fresh;
                out.error(format!("catchup: run_durable failed: {e}"));
                return None;
            }
        };
        out.failed += rejected + fresh.saturating_sub(report.stream.transactions as u64);
        let numbers: Vec<u64> = emitted.iter().map(|e| e.0).collect();
        self.check_durable(
            out,
            "catchup",
            &report,
            &numbers,
            prefix..n_blocks,
            n_blocks,
        );
        if report.skipped_blocks != prefix
            || report.skipped_txs != self.txs_in(&self.blocks[..prefix])
        {
            out.error(format!(
                "catchup: skipped {} blocks / {} txs, prefilled {prefix} blocks",
                report.skipped_blocks, report.skipped_txs
            ));
        }
        if !out.errors.is_empty() {
            return None;
        }
        Some(CatchupCycle {
            wall,
            submitted,
            emitted,
            report,
            journal,
        })
    }
}
