//! Everything a run prepares before it measures: the corpus, the batch
//! reference verdicts, the block cut, durable journal directories, and the
//! timed media wrapper the traced run sees the store through.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ethsim::{TxId, TxRecord};
use leishen::resilience::Verdict;
use leishen::store::{
    DirMedia, FsyncPolicy, JournalConfig, LogConfig, Media, StoreError, VerdictJournal,
};
use leishen::{Analysis, ChainView, Labels, LeiShen};
use leishen_scenarios::generator::{generate, GeneratorConfig};
use leishen_scenarios::{ArrivalCurve, World};

/// Share of the paper's 272,984 wild flash-loan transactions generated:
/// 27,485 transactions, 180 of them flagged at seed 42.
pub const SCALE: f64 = 0.1;

/// Mean block size of the bursty arrival curve.
pub const MEAN_BLOCK: usize = 8;

/// The generated chain and the ids of its wild transactions, in id order
/// (the canonical batch order, so batch and stream verdicts line up).
pub struct Corpus {
    world: World,
    labels: Labels,
    ids: Vec<TxId>,
}

/// How long each set-up phase took, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Substrate execution of the generated corpus (`scenarios`/`ethsim`).
    pub generate_s: f64,
    /// Label copy and creation index build.
    pub view_s: f64,
    /// Record replay into the batch order.
    pub replay_s: f64,
}

impl SetupTimes {
    /// Sum of the phases.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.view_s + self.replay_s
    }
}

impl Corpus {
    /// Generates the corpus for `seed` and times each phase. View and
    /// records are built once here to time them, and rebuilt (cheaply)
    /// by callers through [`Corpus::view`] and [`Corpus::records`].
    pub fn generate(seed: u64) -> (Corpus, SetupTimes) {
        let t = Instant::now();
        let mut world = World::new();
        let generated = generate(
            &mut world,
            &GeneratorConfig {
                seed,
                scale: SCALE,
                with_attacks: true,
            },
        );
        let generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let labels = world.detector_labels();
        std::hint::black_box(world.view(&labels));
        let view_s = t.elapsed().as_secs_f64();

        let mut ids: Vec<TxId> = generated.iter().map(|g| g.tx).collect();
        let t = Instant::now();
        ids.sort();
        let corpus = Corpus { world, labels, ids };
        std::hint::black_box(corpus.records());
        let replay_s = t.elapsed().as_secs_f64();
        (
            corpus,
            SetupTimes {
                generate_s,
                view_s,
                replay_s,
            },
        )
    }

    /// The detector's view of the chain.
    pub fn view(&self) -> ChainView<'_> {
        self.world.view(&self.labels)
    }

    /// The replayed records, in id order.
    pub fn records(&self) -> Vec<&TxRecord> {
        self.ids
            .iter()
            .map(|&id| {
                self.world
                    .chain
                    .replay(id)
                    .expect("generated transactions are recorded")
            })
            .collect()
    }
}

/// The batch reference: serial, uncached `LeiShen::analyze` over every record.
pub fn reference(detector: &LeiShen, records: &[&TxRecord], view: &ChainView<'_>) -> Vec<Analysis> {
    records.iter().map(|r| detector.analyze(r, view)).collect()
}

/// The block cut every stream workload uses.
pub fn block_cut(n: usize, arrival_seed: u64) -> Vec<Range<usize>> {
    ArrivalCurve::bursty(arrival_seed, MEAN_BLOCK).blocks(n)
}

/// The durable configuration of the README quickstart: fsync on every
/// append, 1 MiB segments, a checkpoint every 16 blocks.
pub fn journal_config() -> JournalConfig {
    JournalConfig {
        log: LogConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
        },
        checkpoint_interval: 16,
    }
}

/// Whether a verdict is the completed analysis `expected`.
pub fn same_verdict(verdict: &Verdict, expected: &Analysis) -> bool {
    matches!(verdict, Verdict::Analyzed(a) if a == expected)
}

/// Journals `blocks` with the reference verdicts, as a first monitor
/// process would have before an outage. The frames are the ones the
/// stream writes for the same verdicts; the workloads check that the
/// streamed verdicts equal the reference.
pub fn prefill(
    dir: &Path,
    detector: &LeiShen,
    blocks: &[Range<usize>],
    reference: &[Analysis],
) -> Result<(), StoreError> {
    let media = DirMedia::open(dir)?;
    let (mut journal, _) =
        VerdictJournal::open(media, journal_config(), detector.config().fingerprint())?;
    for (number, range) in blocks.iter().enumerate() {
        let verdicts: Vec<Verdict> = reference[range.clone()]
            .iter()
            .cloned()
            .map(Verdict::Analyzed)
            .collect();
        journal.append_block(number as u64, range.start as u64, &verdicts)?;
    }
    Ok(())
}

/// Where runs put their journals: `out/` beside this package, inside the
/// checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory removed, with its contents, when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<base>/<tag>-<pid>-<n>`, unique within and across processes.
    pub fn new(base: &Path, tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("{tag}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// A fresh directory holding a durable copy of every file in `src`:
    /// the copies are synced, so a timed run that opens them pays nothing
    /// for writing them back.
    pub fn copy_of(base: &Path, tag: &str, src: &Path) -> std::io::Result<Self> {
        let dir = TempDir::new(base, tag)?;
        for entry in std::fs::read_dir(src)? {
            let entry = entry?;
            let to = dir.path.join(entry.file_name());
            std::fs::copy(entry.path(), &to)?;
            std::fs::File::open(&to)?.sync_all()?;
        }
        std::fs::File::open(&dir.path)?.sync_all()?;
        Ok(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A fresh journal directory — empty, or a synced copy of `src` — and
/// the `DirMedia` over it.
pub fn journal_dir(
    base: &Path,
    tag: &str,
    src: Option<&Path>,
) -> Result<(TempDir, DirMedia), String> {
    let dir = match src {
        Some(src) => TempDir::copy_of(base, tag, src),
        None => TempDir::new(base, tag),
    }
    .map_err(|e| format!("{tag} journal dir: {e}"))?;
    let media = DirMedia::open(dir.path()).map_err(|e| format!("{tag} journal: {e}"))?;
    Ok((dir, media))
}

/// One timed media call.
#[derive(Clone, Copy, Debug)]
pub struct MediaOp {
    /// `append`, `flush` (`sync_data` on `DirMedia`), `truncate` or
    /// `remove`.
    pub kind: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// A [`Media`] that times every write call into the media it wraps, so
/// the traced run sees the store's I/O from outside the program.
pub struct TimedMedia<M> {
    inner: M,
    ops: Vec<MediaOp>,
}

impl<M: Media> TimedMedia<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedMedia {
            inner,
            ops: Vec::new(),
        }
    }

    /// Every call so far, in call order.
    pub fn ops(&self) -> &[MediaOp] {
        &self.ops
    }

    fn timed<T>(&mut self, kind: &'static str, call: impl FnOnce(&mut M) -> T) -> T {
        let start = Instant::now();
        let out = call(&mut self.inner);
        self.ops.push(MediaOp {
            kind,
            start,
            end: Instant::now(),
        });
        out
    }
}

impl<M: Media> Media for TimedMedia<M> {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.timed("append", |m| m.append(name, bytes))
    }

    fn flush(&mut self, name: &str) -> Result<(), StoreError> {
        self.timed("flush", |m| m.flush(name))
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        self.timed("truncate", |m| m.truncate(name, len))
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.timed("remove", |m| m.remove(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journals_live_in_a_fresh_temp_dir_that_is_removed() {
        let base = std::env::temp_dir();
        let dir = TempDir::new(&base, "perfbench-test").unwrap();
        let other = TempDir::new(&base, "perfbench-test").unwrap();
        assert_ne!(dir.path(), other.path());
        let path = dir.path().to_path_buf();

        let media = TimedMedia::new(DirMedia::open(&path).unwrap());
        let (mut journal, recovery) = VerdictJournal::open(media, journal_config(), 7).unwrap();
        assert!(recovery.created);
        journal.append_block(0, 0, &[]).unwrap();
        let media = journal.into_media();
        // The genesis checkpoint syncs twice (the fsync-always append, then
        // the flush every checkpoint makes); the block is an append and a sync.
        let kinds: Vec<&str> = media.ops().iter().map(|op| op.kind).collect();
        assert_eq!(kinds, ["append", "flush", "flush", "append", "flush"]);
        assert!(media.ops().iter().all(|op| op.end >= op.start));

        let copy = TempDir::copy_of(&base, "perfbench-test", &path).unwrap();
        let (journal, recovery) =
            VerdictJournal::open(DirMedia::open(copy.path()).unwrap(), journal_config(), 7)
                .unwrap();
        assert_eq!((recovery.blocks, journal.blocks().len()), (1, 1));

        drop(dir);
        assert!(!path.exists(), "temp dir must be removed on drop");
    }
}
