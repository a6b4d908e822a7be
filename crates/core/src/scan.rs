//! Parallel batch scanning with per-worker tag fronts.
//!
//! The per-transaction pipeline ([`LeiShen::analyze`]) re-derives every
//! account tag from scratch: each `tag_of` call walks the account's
//! creation tree and allocates the application name it finds. Across a
//! corpus scan the same venues, providers, and token contracts appear in
//! nearly every transaction, so many of those walks repeat work done a
//! few transactions earlier; the initiators and borrowers, which are
//! most of the distinct addresses, appear in one transaction only.
//!
//! This module adds two pieces:
//!
//! * [`TagCache`] — the tag state of one `(labels, creations)` context:
//!   a pool of [`LocalTagCache`] fronts, fixed-size direct-mapped tables
//!   that keep the recurring addresses' tags for each scan worker and
//!   carry them from one scan to the next. Build a fresh cache per
//!   [`ChainView`].
//! * [`ScanEngine`] — cuts a batch into fixed-size chunks in input order
//!   and fans them over a worker pool (workers claim the next chunk from
//!   a shared counter), each worker resolving through its own front of
//!   one shared `TagCache`. Results come back in **input order**
//!   regardless of which worker processed which chunk, so a parallel
//!   scan is byte-for-byte comparable with a serial loop over the same
//!   slice.
//!
//! ```
//! use leishen::{ChainView, DetectorConfig, Labels, LeiShen, ScanEngine, TagCache};
//!
//! let labels = Labels::new();
//! let view = ChainView::new(&labels, &[], None);
//! let detector = LeiShen::new(DetectorConfig::paper());
//! let engine = ScanEngine::new(4);
//! let analyses = engine.scan(&detector, &[], &view, &TagCache::new()); // empty batch
//! assert!(analyses.is_empty());
//! ```

use std::any::Any;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use ethsim::{validate_record, Address, CreationIndex, TxRecord};
use parking_lot::Mutex;

use crate::detector::{Analysis, AnalysisScratch, ChainView, LeiShen};
use crate::labels::Labels;
use crate::resilience::{
    payload_message, stage_of_payload, Fault, Quarantine, ResilienceConfig, ResilientScan,
    Verdict,
};
use crate::tagging::{tag_of, Tag};
use crate::telemetry::{MetricsSink, NoopSink};
use crate::trace::{record_indeterminate, NoopTracer, TraceSink};

/// FNV-1a. Addresses are short fixed-size keys held in trusted maps, so
/// SipHash's hash-flooding resistance buys nothing here and costs several
/// times more per probe — and the tag probe is the hot path's single
/// most frequent operation.
pub(crate) struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Eight bytes per round instead of one: an address is 20 bytes
        // (plus the slice-hash length prefix), so this is ~7 multiplies
        // per probe instead of ~28.
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            h ^= u64::from_ne_bytes(c.try_into().expect("chunks_exact(8)"));
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

pub(crate) type BuildFnv = BuildHasherDefault<FnvHasher>;

/// Slots in one worker front ([`LocalTagCache`]). A power of two so the
/// slot index is a mask. A scan's hot set (the venues, providers and
/// tokens that recur from one transaction to the next) fits with room
/// to spare; the per-transaction initiators and borrowers that make up
/// most distinct addresses only pass through.
const FRONT_SLOTS: usize = 1024;

/// One direct-mapped front: slot `i` holds the last address resolved
/// whose FNV hash masks to `i`, with its tag. The zero address never
/// enters a front, so `(Address::ZERO, Tag::BlackHole)` marks an empty
/// slot.
type Front = Box<[(Address, Tag)]>;

/// Fronts returned by finished scans, ready for the next one. `epoch`
/// counts [`TagCache::clear`] calls, so a front checked out before a
/// clear is dropped instead of returned.
#[derive(Debug, Default)]
struct FrontPool {
    fronts: Vec<Front>,
    epoch: u64,
}

/// Tag resolution state for one `(labels, creations)` context: the pool
/// of worker fronts that scans resolve through, and the fronts' hit and
/// miss tallies.
///
/// A scan worker resolves through a [`LocalTagCache`]: a fixed-size,
/// direct-mapped front that it owns for the scan and hands back to this
/// cache's pool afterwards, so the next scan on the same cache (the next
/// stream block, the next batch) starts with warm fronts. A scan takes
/// no lock and does no atomic operation per lookup, and the cache never
/// grows with the corpus: a cold scan pays one [`tag_of`] walk per front
/// miss instead of building a corpus-wide memo whose entries are almost
/// all used once.
///
/// Tags depend only on `(address, labels, creations)`, so one cache
/// serves one [`ChainView`]; call [`TagCache::clear`] when either
/// changes.
///
/// The zero address short-circuits to [`Tag::BlackHole`] everywhere.
#[derive(Debug, Default)]
pub struct TagCache {
    // Tallies of the worker fronts, added when each front is dropped.
    hits: AtomicU64,
    misses: AtomicU64,
    pool: Mutex<FrontPool>,
}

/// The FNV hash of `addr`; front-slot indices are its low bits.
fn fnv(addr: Address) -> usize {
    let mut h = FnvHasher::default();
    h.write(addr.as_bytes());
    h.finish() as usize
}

impl TagCache {
    /// An empty cache.
    pub fn new() -> Self {
        TagCache::default()
    }

    /// Always 0: scans no longer rebuild a frozen snapshot of the cache.
    /// Kept until the benchmark stops reporting
    /// `scan.snapshot_rebuilds_per_block`.
    pub fn snapshot_rebuilds(&self) -> u64 {
        0
    }

    /// Always 0: fronts take no lock per lookup. Kept until the
    /// benchmark stops reporting `scan.lock_waits`.
    pub fn lock_waits(&self) -> u64 {
        0
    }

    /// Number of lookups answered without calling [`tag_of`].
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that called [`tag_of`].
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Drops all pooled fronts and resets the counters. Call this when
    /// the label cloud or creation dataset changes.
    pub fn clear(&self) {
        // Under the pool lock, so no front lands its tallies between the
        // epoch bump and the counter reset.
        let mut pool = self.pool.lock();
        pool.fronts.clear();
        pool.epoch += 1;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// A worker-private, fixed-size front for a [`TagCache`].
///
/// A scan worker resolves the same handful of venue / provider / token
/// addresses on nearly every transaction. This front answers those
/// repeats from a direct-mapped table of 1024 slots, indexed by the
/// address's FNV hash: a hit clones the slot's tag, a miss calls
/// [`tag_of`] and overwrites the slot. No lock, no atomic, no growth.
///
/// The table comes from the cache's pool and goes back to it on drop,
/// together with the hit and miss tallies, which then count toward
/// [`TagCache::hits`] and [`TagCache::misses`]. A front taken before a
/// [`TagCache::clear`] is discarded on drop instead, tallies and all.
pub struct LocalTagCache<'a> {
    shared: &'a TagCache,
    slots: Front,
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl<'a> LocalTagCache<'a> {
    /// A front over `shared`: a pooled table when one is free, a fresh
    /// empty one otherwise.
    pub fn new(shared: &'a TagCache) -> Self {
        let (slots, epoch) = {
            let mut pool = shared.pool.lock();
            (pool.fronts.pop(), pool.epoch)
        };
        LocalTagCache {
            shared,
            slots: slots.unwrap_or_else(|| {
                vec![(Address::ZERO, Tag::BlackHole); FRONT_SLOTS].into_boxed_slice()
            }),
            epoch,
            hits: 0,
            misses: 0,
        }
    }

    /// The tag of `addr`: from its slot when the slot holds `addr`,
    /// from [`tag_of`] otherwise.
    pub fn resolve(&mut self, addr: Address, labels: &Labels, creations: &CreationIndex) -> Tag {
        if addr.is_zero() {
            return Tag::BlackHole;
        }
        let slot = &mut self.slots[fnv(addr) & (FRONT_SLOTS - 1)];
        if slot.0 == addr {
            self.hits += 1;
            return slot.1.clone();
        }
        self.misses += 1;
        let tag = tag_of(addr, labels, creations);
        *slot = (addr, tag.clone());
        tag
    }
}

impl Drop for LocalTagCache<'_> {
    fn drop(&mut self) {
        let shared = self.shared;
        let mut pool = shared.pool.lock();
        // A front checked out before a `clear` holds tags of the old
        // context: discard it and its tallies.
        if pool.epoch != self.epoch {
            return;
        }
        shared.hits.fetch_add(self.hits, Ordering::Relaxed);
        shared.misses.fetch_add(self.misses, Ordering::Relaxed);
        pool.fronts.push(std::mem::take(&mut self.slots));
    }
}

/// Summary of one batch scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Transactions analyzed.
    pub transactions: usize,
    /// Transactions whose analysis reported an attack.
    pub attacks: usize,
    /// Transactions quarantined instead of analyzed.
    pub quarantined: usize,
}

/// A batch scanner: fans transactions over a worker pool resolving tags
/// through one [`TagCache`], returning analyses in input order.
///
/// The configured worker count is a *ceiling*: a scan never runs more
/// workers than the batch has chunks, and never more than the machine
/// has hardware threads (extra threads on a saturated machine only add
/// scheduling overhead). Tests that need to exercise the threaded path
/// on small machines can lift the hardware cap with
/// [`ScanEngine::allow_oversubscription`].
#[derive(Clone, Debug)]
pub struct ScanEngine {
    workers: usize,
    chunk_size: usize,
    oversubscribe: bool,
}

impl ScanEngine {
    /// An engine with `workers` worker threads (minimum 1) and the
    /// default chunk size.
    pub fn new(workers: usize) -> Self {
        ScanEngine {
            workers: workers.max(1),
            chunk_size: 32,
            oversubscribe: false,
        }
    }

    /// Overrides how many consecutive transactions each work item
    /// carries (default 32). The batch is cut into runs of exactly this
    /// size in input order, the last run taking the remainder. Smaller
    /// chunks balance better; larger chunks amortize the per-chunk
    /// claim and result hand-off. Minimum 1.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Lifts the hardware-thread cap, spawning the full configured worker
    /// count even on machines with fewer cores. Only useful for testing
    /// the threaded path deterministically.
    pub fn allow_oversubscription(mut self) -> Self {
        self.oversubscribe = true;
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Scans `txs` against a caller-owned cache, returning one
    /// [`Analysis`] per transaction, in input order. The cache may be
    /// reused across batches that share the same [`ChainView`].
    pub fn scan(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
    ) -> Vec<Analysis> {
        self.scan_instrumented(detector, txs, view, cache, &NoopSink, &NoopTracer)
    }

    /// Like [`ScanEngine::scan`], with every worker reporting stage
    /// latency and counters into `sink` and decision provenance into
    /// `tracer` (e.g. a [`crate::telemetry::RecordingSink`] and a
    /// [`crate::trace::FlightRecorder`]), each through its own
    /// lock-free worker front. Produces exactly the same analyses, in
    /// the same input order, as the uninstrumented scan; the telemetry
    /// and trace identity tests assert this.
    ///
    /// This is the propagating scan: no validation, no catch. A
    /// panicking analysis propagates to the caller as a catchable panic
    /// on the calling thread, never a process abort (see `scan_core`).
    pub fn scan_instrumented<S: MetricsSink + Sync, T: TraceSink + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        sink: &S,
        tracer: &T,
    ) -> Vec<Analysis> {
        self.scan_core(detector, txs, view, cache, sink, tracer, None)
            .into_iter()
            .map(|verdict| match verdict {
                Verdict::Analyzed(analysis) => analysis,
                // Unreachable: scan_core only quarantines under Some(policy).
                Verdict::Indeterminate(q) => {
                    panic!("quarantine without a resilience policy: {}", q.reason())
                }
            })
            .collect()
    }

    /// Fault-isolated scan: every transaction gets a
    /// [`Verdict`] — a completed analysis,
    /// or a structured quarantine — and a panicking analysis never
    /// takes the batch (or the process) down with it. See
    /// [`ResilienceConfig`] for the validation/retry policy.
    pub fn scan_resilient(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        policy: &ResilienceConfig,
    ) -> ResilientScan {
        self.scan_resilient_with(detector, txs, view, cache, policy, &NoopSink, &NoopTracer)
    }

    /// [`ScanEngine::scan_resilient`] with instrumentation: quarantines
    /// are counted on the sink
    /// ([`crate::telemetry::TxCountersTotal::quarantined`]) and each
    /// quarantined transaction records a provenance trace whose
    /// decision carries [`crate::trace::Reason::Indeterminate`]. Pass a
    /// [`crate::resilience::FaultInjector`] as the sink to land induced
    /// chaos faults mid-pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_resilient_with<S: MetricsSink + Sync, T: TraceSink + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        policy: &ResilienceConfig,
        sink: &S,
        tracer: &T,
    ) -> ResilientScan {
        let verdicts = self.scan_core(detector, txs, view, cache, sink, tracer, Some(policy));
        let stats = ScanStats {
            transactions: verdicts.len(),
            attacks: verdicts
                .iter()
                .filter_map(Verdict::analysis)
                .filter(|a| a.is_attack())
                .count(),
            quarantined: verdicts.iter().filter(|v| v.is_indeterminate()).count(),
        };
        ResilientScan { verdicts, stats }
    }

    /// The scan, generic over the metrics sink and trace sink so the
    /// [`NoopSink`]/[`NoopTracer`] path monomorphizes with zero
    /// instrumentation. Each worker records into its own
    /// [`MetricsSink::worker_front`] / [`TraceSink::worker_front`] —
    /// thread-local, lock-free — which merges into the shared sink when
    /// the worker finishes.
    ///
    /// With `policy: Some(..)` every transaction is analyzed under
    /// `catch_unwind` and failures become [`Verdict::Indeterminate`];
    /// with `None` the per-transaction guard compiles out and worker
    /// panics are re-raised on the calling thread via `resume_unwind`
    /// (original payload preserved) after every surviving worker has
    /// been joined — a poisoned worker never aborts the process, and
    /// the other workers' chunks are still drained.
    #[allow(clippy::too_many_arguments)]
    fn scan_core<S: MetricsSink + Sync, T: TraceSink + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        sink: &S,
        tracer: &T,
        policy: Option<&ResilienceConfig>,
    ) -> Vec<Verdict> {
        if txs.is_empty() {
            return Vec::new();
        }
        let hw = if self.oversubscribe {
            usize::MAX
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let workers = self
            .workers
            .min(hw)
            .min(txs.len().div_ceil(self.chunk_size));
        if workers <= 1 {
            let mut tags = LocalTagCache::new(cache);
            let mut scratch = AnalysisScratch::default();
            let front = sink.worker_front();
            let tfront = tracer.worker_front();
            return txs
                .iter()
                .enumerate()
                .map(|(index, tx)| {
                    analyze_guarded(
                        detector, tx, index, view, &mut tags, &mut scratch, &front, &tfront,
                        policy,
                    )
                })
                .collect();
        }

        // Fixed-size chunks in input order: chunk `c` covers inputs
        // `c * chunk_size ..`, so results reassemble by concatenation.
        // Workers claim chunk indices from a shared counter until it
        // runs past the end. Completed chunks are published into
        // index-keyed slots immediately, so work a worker finished
        // before dying is never lost with it.
        let chunk_size = self.chunk_size;
        let chunk_count = txs.len().div_ceil(chunk_size);
        let chunk_range = |c: usize| c * chunk_size..((c + 1) * chunk_size).min(txs.len());
        let next_chunk = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Vec<Verdict>>>> =
            (0..chunk_count).map(|_| Mutex::new(None)).collect();

        let scope_result = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut tags = LocalTagCache::new(cache);
                        let mut scratch = AnalysisScratch::default();
                        let front = sink.worker_front();
                        let tfront = tracer.worker_front();
                        loop {
                            // Relaxed: the counter only hands out indices;
                            // verdicts reach the caller through the slot
                            // mutexes and the scope join.
                            let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                            if chunk >= chunk_count {
                                break;
                            }
                            let verdicts: Vec<Verdict> = chunk_range(chunk)
                                .map(|index| {
                                    analyze_guarded(
                                        detector,
                                        txs[index],
                                        index,
                                        view,
                                        &mut tags,
                                        &mut scratch,
                                        &front,
                                        &tfront,
                                        policy,
                                    )
                                })
                                .collect();
                            *slots[chunk].lock() = Some(verdicts);
                        }
                    })
                })
                .collect();
            // Join every worker, collecting panic payloads instead of
            // propagating the first one — the rest of the pool gets to
            // finish draining the chunk counter either way.
            let mut panics: Vec<Box<dyn Any + Send>> = Vec::new();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panics.push(payload);
                }
            }
            panics
        });
        let mut panics = match scope_result {
            Ok(panics) => panics,
            // All threads were joined above, so the scope itself only
            // errors if a payload slipped past the explicit joins.
            Err(payload) => vec![payload],
        };

        if policy.is_none() {
            if let Some(payload) = panics.pop() {
                // Legacy semantics: the caller sees the worker's panic
                // (payload intact, catchable) on its own thread.
                resume_unwind(payload);
            }
        }

        let mut out: Vec<Verdict> = Vec::with_capacity(txs.len());
        for (chunk, slot) in slots.into_iter().enumerate() {
            match slot.into_inner() {
                Some(verdicts) => out.extend(verdicts),
                None => {
                    // A worker died between claiming this chunk and
                    // publishing it (possible under a resilience policy
                    // only if the fault escaped the per-transaction
                    // guard). Reprocess the chunk on the calling thread
                    // under the same guard.
                    let mut tags = LocalTagCache::new(cache);
                    let mut scratch = AnalysisScratch::default();
                    let front = sink.worker_front();
                    let tfront = tracer.worker_front();
                    out.extend(chunk_range(chunk).map(|index| {
                        analyze_guarded(
                            detector,
                            txs[index],
                            index,
                            view,
                            &mut tags,
                            &mut scratch,
                            &front,
                            &tfront,
                            policy,
                        )
                    }));
                }
            }
        }
        out
    }
}

/// Analyzes one transaction under the given resilience policy.
///
/// `policy: None` is the legacy path — a direct `analyze_traced` call
/// with no validation and no unwind guard, so the monomorphized hot
/// path is unchanged. With a policy, the record is validated first
/// (quarantining invalid input before it reaches the pipeline), the
/// analysis runs under `catch_unwind`, and a panicking attempt is
/// retried once with fresh scratch state when the policy allows it.
#[allow(clippy::too_many_arguments)]
fn analyze_guarded<S: MetricsSink, T: TraceSink>(
    detector: &LeiShen,
    tx: &TxRecord,
    index: usize,
    view: &ChainView<'_>,
    tags: &mut LocalTagCache<'_>,
    scratch: &mut AnalysisScratch,
    front: &S,
    tfront: &T,
    policy: Option<&ResilienceConfig>,
) -> Verdict {
    let Some(policy) = policy else {
        return Verdict::Analyzed(detector.analyze_traced(
            tx,
            view,
            &mut |addr| tags.resolve(addr, view.labels(), view.creations()),
            scratch,
            front,
            tfront,
        ));
    };

    // Deadline first: once the budget is spent the scan stops paying
    // for *anything* per transaction (validation included) and just
    // drains the remaining inputs into degraded-mode verdicts.
    if let Some(deadline) = policy.deadline {
        if std::time::Instant::now() >= deadline {
            return quarantine(tx, index, Fault::Deadline, None, 0, front, tfront);
        }
    }

    if policy.validate_inputs {
        let violations = validate_record(tx);
        if !violations.is_empty() {
            return quarantine(
                tx,
                index,
                Fault::InvalidInput { violations },
                None,
                0,
                front,
                tfront,
            );
        }
    }

    let max_attempts = if policy.retry_once { 2 } else { 1 };
    let mut attempts = 0;
    loop {
        attempts += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            detector.analyze_traced(
                tx,
                view,
                &mut |addr| tags.resolve(addr, view.labels(), view.creations()),
                scratch,
                front,
                tfront,
            )
        }));
        match outcome {
            Ok(analysis) => return Verdict::Analyzed(analysis),
            Err(payload) => {
                // The unwound attempt may have left intermediate state
                // in the scratch buffers; start the retry (and any
                // later transaction) from a clean slate. The tag front
                // is kept — a slot is only ever overwritten whole, with
                // the tag of the address it holds.
                *scratch = AnalysisScratch::default();
                if attempts >= max_attempts {
                    let message = payload_message(payload.as_ref());
                    let stage = stage_of_payload(&message);
                    return quarantine(
                        tx,
                        index,
                        Fault::Panic { message },
                        stage,
                        attempts,
                        front,
                        tfront,
                    );
                }
            }
        }
    }
}

/// Builds the [`Verdict::Indeterminate`] outcome: counts the quarantine
/// on the metrics sink and records a degraded-mode provenance trace
/// (decision `flagged: false` with a single
/// [`crate::trace::Reason::Indeterminate`]) so flight recorders see
/// quarantined transactions too.
fn quarantine<S: MetricsSink, T: TraceSink>(
    tx: &TxRecord,
    index: usize,
    fault: Fault,
    stage: Option<crate::telemetry::Stage>,
    attempts: u32,
    front: &S,
    tfront: &T,
) -> Verdict {
    let record = Quarantine {
        tx: tx.id,
        index,
        fault,
        stage,
        attempts,
    };
    if S::ENABLED {
        front.quarantined();
    }
    if T::ENABLED {
        record_indeterminate(tfront, tx.id, record.reason());
    }
    Verdict::Indeterminate(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use ethsim::CreationRecord;

    fn rec(creator: u64, created: u64) -> CreationRecord {
        CreationRecord {
            creator: Address::from_u64(creator),
            created: Address::from_u64(created),
            block: 0,
        }
    }

    #[test]
    fn returned_front_is_reused() {
        let labels = Labels::new();
        let idx = CreationIndex::new(&[rec(1, 2)]);
        let cache = TagCache::new();
        let a = Address::from_u64(2);
        LocalTagCache::new(&cache).resolve(a, &labels, &idx);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let mut front = LocalTagCache::new(&cache);
        assert_eq!(front.resolve(a, &labels, &idx), tag_of(a, &labels, &idx));
        drop(front);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn clear_retires_every_front() {
        let idx = CreationIndex::new(&[]);
        let a = Address::from_u64(7);
        let mut labels = Labels::new();
        labels.set(a, "Old");
        let cache = TagCache::new();
        LocalTagCache::new(&cache).resolve(a, &labels, &idx);
        // Checked out before the clear, dropped after it.
        let mut stale = LocalTagCache::new(&cache);
        stale.resolve(a, &labels, &idx);
        cache.clear();
        drop(stale);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));

        labels.set(a, "New");
        let mut front = LocalTagCache::new(&cache);
        assert_eq!(front.resolve(a, &labels, &idx), Tag::App("New".into()));
        drop(front);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    /// Addresses `from_u64(1..)` whose front slot is the slot of
    /// `from_u64(1)`.
    fn colliders(n: usize) -> Vec<Address> {
        let slot = |a: Address| fnv(a) & (FRONT_SLOTS - 1);
        let target = slot(Address::from_u64(1));
        (1u64..)
            .map(Address::from_u64)
            .filter(|&a| slot(a) == target)
            .take(n)
            .collect()
    }

    proptest::proptest! {
        // More distinct addresses than slots, repeats of them, the zero
        // address, and runs of addresses that share one slot: the front
        // answers every lookup exactly as the uncached walk does, and
        // counts every non-zero lookup once.
        #[test]
        fn front_agrees_with_tag_of(
            seed in 0u64..1000,
            picks in proptest::collection::vec((0usize..6, 0usize..1200), 1..1500),
        ) {
            let universe: Vec<Address> = (1..=1200u64).map(Address::from_u64).collect();
            let mut records = Vec::new();
            let mut labels = Labels::new();
            // A forest of random ten-node creation trees.
            for (i, &a) in universe.iter().enumerate() {
                if i % 10 > 0 {
                    let parent = universe[i - i % 10 + (seed as usize + i) % (i % 10)];
                    records.push(CreationRecord { creator: parent, created: a, block: 0 });
                }
                if (seed as usize + i).is_multiple_of(7) {
                    labels.set(a, format!("App{}", (seed as usize + i) % 3));
                }
            }
            let idx = CreationIndex::new(&records);
            let colliders = colliders(4);
            let picked = picks.iter().map(|&(kind, i)| match kind {
                0 => colliders[i % colliders.len()],
                1 => Address::ZERO,
                _ => universe[i],
            });
            let lookups: Vec<Address> =
                picked.clone().chain(universe.iter().copied()).chain(picked).collect();

            let cache = TagCache::new();
            let mut front = LocalTagCache::new(&cache);
            for &a in &lookups {
                proptest::prop_assert_eq!(front.resolve(a, &labels, &idx), tag_of(a, &labels, &idx));
            }
            drop(front);
            let counted = lookups.iter().filter(|a| !a.is_zero()).count() as u64;
            proptest::prop_assert_eq!(cache.hits() + cache.misses(), counted);
            proptest::prop_assert!(cache.misses() > FRONT_SLOTS as u64);
        }
    }

    #[test]
    fn engine_clamps_degenerate_parameters() {
        let engine = ScanEngine::new(0).with_chunk_size(0);
        assert_eq!(engine.workers(), 1);
        assert_eq!(engine.chunk_size, 1);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        assert!(engine.scan(&detector, &[], &view, &TagCache::new()).is_empty());
    }

    // ----- resilience ------------------------------------------------------

    use crate::resilience::{FaultInjector, InducedFault};
    use crate::telemetry::{RecordingSink, Stage};
    use crate::trace::FlightRecorder;
    use ethsim::Chain;

    /// A small genuine world: a dozen token transactions (no attacks —
    /// the 22-attack corpus is exercised by the integration tests).
    fn world() -> Vec<TxRecord> {
        let mut chain = Chain::default();
        let a = chain.create_eoa("resilience-a");
        let b = chain.create_eoa("resilience-b");
        chain.state_mut().credit_eth(a, 10_000_000).unwrap();
        chain
            .execute(a, a, "setup", |ctx| {
                let c = ctx.create_contract(a)?;
                let gold = ctx.register_token("RGOLD", 18, c);
                ctx.mint_token(gold, a, 1_000_000)?;
                Ok(())
            })
            .unwrap();
        let gold = chain.state().token_by_symbol("RGOLD").unwrap();
        for i in 0..12u64 {
            chain
                .execute(a, b, "pay", move |ctx| {
                    ctx.call(a, b, "pay", 10 + i as u128, |inner| {
                        inner.transfer_token(gold, a, b, 100 + i as u128)?;
                        inner.emit_log(b, "Paid", vec![]);
                        Ok(())
                    })
                })
                .unwrap();
        }
        chain.transactions().to_vec()
    }

    fn refs(records: &[TxRecord]) -> Vec<&TxRecord> {
        records.iter().collect()
    }

    #[test]
    fn resilient_scan_matches_legacy_on_clean_input() {
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let policy = ResilienceConfig::new();

        for engine in [
            ScanEngine::new(1),
            ScanEngine::new(4).with_chunk_size(2).allow_oversubscription(),
        ] {
            let legacy = engine.scan(&detector, &txs, &view, &TagCache::new());
            let resilient =
                engine.scan_resilient(&detector, &txs, &view, &TagCache::new(), &policy);
            assert!(resilient.is_fully_analyzed());
            assert_eq!(resilient.stats.quarantined, 0);
            assert_eq!(resilient.stats.transactions, txs.len());
            let analyses: Vec<&Analysis> = resilient.analyses().collect();
            assert_eq!(analyses.len(), legacy.len());
            for (got, want) in analyses.iter().zip(&legacy) {
                assert_eq!(*got, want);
            }
        }
    }

    #[test]
    fn corrupted_record_is_quarantined_not_fatal() {
        let mut records = world();
        // Out-of-order transfer seqs: fails validation.
        let victim = records.len() - 2;
        records[victim].trace.transfers.first_mut().unwrap().seq = 9_999;
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());

        for engine in [
            ScanEngine::new(1),
            ScanEngine::new(4).with_chunk_size(2).allow_oversubscription(),
        ] {
            let scan = engine.scan_resilient(
                &detector,
                &txs,
                &view,
                &TagCache::new(),
                &ResilienceConfig::new(),
            );
            assert_eq!(scan.stats.quarantined, 1);
            assert_eq!(scan.verdicts.len(), txs.len());
            let q = scan.verdicts[victim]
                .quarantine()
                .expect("corrupted record quarantined");
            assert_eq!(q.index, victim);
            assert_eq!(q.tx, records[victim].id);
            assert_eq!(q.attempts, 0, "invalid input never enters the pipeline");
            assert!(q.reason().starts_with("invalid_input:"), "{}", q.reason());
            // Every other transaction still has a real verdict.
            for (i, v) in scan.verdicts.iter().enumerate() {
                assert_eq!(v.is_indeterminate(), i == victim, "index {i}");
            }
        }
    }

    #[test]
    fn induced_panic_is_transient_under_retry() {
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let target = records[3].id;
        let injector = FaultInjector::new(
            NoopSink,
            [(target, InducedFault::Panic { stage: Stage::FlashLoan })],
        );
        let engine = ScanEngine::new(1);
        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &injector,
            &NoopTracer,
        );
        assert_eq!(injector.panics_fired(), 1);
        assert!(scan.is_fully_analyzed(), "retry absorbs the transient fault");
    }

    #[test]
    fn induced_panic_quarantines_without_retry() {
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let target = records[5].id;
        let injector = FaultInjector::new(
            NoopSink,
            [(target, InducedFault::Panic { stage: Stage::FlashLoan })],
        );
        let engine = ScanEngine::new(4).with_chunk_size(2).allow_oversubscription();
        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new().without_retry(),
            &injector,
            &NoopTracer,
        );
        assert_eq!(scan.stats.quarantined, 1);
        let q = scan.quarantines().next().expect("one quarantine");
        assert_eq!(q.tx, target);
        assert_eq!(q.attempts, 1);
        assert_eq!(q.stage, Some(Stage::FlashLoan));
        assert_eq!(q.reason(), "panic@flash_loan");
        // The batch survived: everything else analyzed.
        assert_eq!(scan.analyses().count(), txs.len() - 1);
    }

    #[test]
    fn quarantines_flow_into_telemetry_and_traces() {
        let mut records = world();
        let victim = 4;
        records[victim].trace.transfers.first_mut().unwrap().amount = u128::MAX;
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());

        let sink = RecordingSink::new();
        let recorder = FlightRecorder::new();
        let engine = ScanEngine::new(4).with_chunk_size(3).allow_oversubscription();
        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &sink,
            &recorder,
        );
        assert_eq!(scan.stats.quarantined, 1);
        assert_eq!(sink.counter_totals().quarantined, 1);
        // The analyzed transactions were recorded as usual.
        assert_eq!(sink.counter_totals().transactions, (txs.len() - 1) as u64);

        let trace = recorder
            .find(records[victim].id)
            .expect("quarantined tx has a provenance trace");
        assert!(!trace.decision.flagged);
        assert_eq!(trace.decision.reasons.len(), 1);
        match &trace.decision.reasons[0] {
            crate::trace::Reason::Indeterminate { fault } => {
                assert_eq!(fault, "invalid_input:amount_overflow");
            }
            other => panic!("expected Indeterminate, got {other:?}"),
        }
    }

    #[test]
    fn legacy_scan_propagates_worker_panics_catchably() {
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let target = records[2].id;

        for engine in [
            ScanEngine::new(1),
            ScanEngine::new(4).with_chunk_size(2).allow_oversubscription(),
        ] {
            let injector = FaultInjector::new(
                NoopSink,
                [(target, InducedFault::Panic { stage: Stage::FlashLoan })],
            );
            let cache = TagCache::new();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                engine.scan_instrumented(&detector, &txs, &view, &cache, &injector, &NoopTracer)
            }));
            // No quarantine path in the legacy scan: the panic reaches
            // the caller with its payload intact — and is catchable, so
            // a worker fault cannot abort the process.
            let payload = caught.expect_err("legacy scan re-raises the panic");
            let message = payload_message(payload.as_ref());
            assert!(
                message.starts_with(crate::resilience::INDUCED_PANIC_PREFIX),
                "{message}"
            );
        }
    }

    #[test]
    fn validation_can_be_disabled() {
        let mut records = world();
        records[1].trace.transfers.first_mut().unwrap().amount = u128::MAX;
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let engine = ScanEngine::new(1);
        // An overflow amount doesn't panic the pipeline — it just
        // produces an untrusted analysis. Without validation the
        // resilient scan analyzes it like the legacy scan would.
        let scan = engine.scan_resilient(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new().without_validation(),
        );
        assert!(scan.is_fully_analyzed());
    }
}
