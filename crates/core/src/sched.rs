//! Batch-affinity diagnostic: how much of a batch shares a working set.
//!
//! Two transactions touching the same venue, flash-loan provider, or
//! attacker creation tree resolve the same tags. This module measures how
//! a batch clusters along those lines, in two layers:
//!
//! 1. **Access-set estimation** ([`access_set`]) — a pre-pass over each
//!    [`TxRecord`]'s transfer journal that collects the creation-tree
//!    roots of every touched address (initiator, entry point, and both
//!    sides of every transfer). The root is exactly the identity tag
//!    propagation groups by (Fig. 7b), so two transactions with
//!    overlapping root sets resolve overlapping tag sets.
//! 2. **Affinity partitioning** ([`WavePlan::build`]) — a union-find pass
//!    clusters transactions whose access sets overlap, then lays the
//!    clusters out in *waves*: each wave holds at most one chunk per
//!    cluster, so chunks in one wave touch disjoint working sets.
//!    [`SchedStats`] reports the result: clusters, the largest cluster,
//!    waves and chunks.
//!
//! [`crate::scan::ScanEngine`] does not use this plan. It once did, and
//! the measurement retired it: on the scale-0.1 wild corpus (27,485
//! transactions) every transaction lands in **one** cluster, so the
//! 859-wave plan is the same 859 chunks in input order that fixed
//! chunking produces. Building it took 71–83 ms, serially on the calling
//! thread, of a ~209 ms 2-worker pass, and that pass ran slower than one
//! worker. The engine now cuts fixed-size chunks in input order; this
//! module stays as the diagnostic that shows whether a corpus has the
//! disjoint structure a conflict-aware layout would need.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ethsim::{Address, CreationIndex, TxRecord};

use crate::scan::BuildFnv;

/// How many chunks per worker a wave aims for. More chunks balance
/// better; fewer amortize per-chunk overhead. Four keeps the tail (the
/// last, partially filled wave) short without flooding the plan with
/// tiny chunks.
const CHUNKS_PER_WORKER: usize = 4;

/// The creation-tree roots `tx` touches: the root of the initiator, of
/// the entry-point contract, and of both sides of every journal transfer
/// (the zero address is skipped — it is the black hole, not an account).
///
/// Roots rather than raw addresses because the root is the identity the
/// tagging stage groups by: a mixer-laundered deposit address and the
/// attack contract it funds sit in one creation tree, so both map to the
/// same root and land in the same cluster. The set is deduplicated and
/// tiny (a handful of roots per transaction), so it is kept as a plain
/// vector.
pub fn access_set(tx: &TxRecord, creations: &CreationIndex) -> Vec<Address> {
    fn push(roots: &mut Vec<Address>, creations: &CreationIndex, addr: Address) {
        if addr.is_zero() {
            return;
        }
        let root = creations.root(addr);
        if !roots.contains(&root) {
            roots.push(root);
        }
    }
    let mut roots = Vec::with_capacity(8);
    push(&mut roots, creations, tx.from);
    push(&mut roots, creations, tx.to);
    for t in &tx.trace.transfers {
        push(&mut roots, creations, t.sender);
        push(&mut roots, creations, t.receiver);
    }
    roots
}

/// Union-find over transaction indices, with the *minimum* index as every
/// set's representative so cluster identity is deterministic and clusters
/// come out ordered by their first transaction.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut i: u32) -> u32 {
        // Path halving: every probe shortcuts grandparent links.
        while self.parent[i as usize] != i {
            let p = self.parent[i as usize];
            self.parent[i as usize] = self.parent[p as usize];
            i = self.parent[i as usize];
        }
        i
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
    }
}

/// One planned chunk: a contiguous span of [`WavePlan::order`], all
/// from one wave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ChunkSpan {
    start: u32,
    end: u32,
}

/// Shape of one planned batch, surfaced by the throughput bench and the
/// benchmark's `sched.*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Transactions planned.
    pub transactions: usize,
    /// Affinity clusters found.
    pub clusters: usize,
    /// Waves the chunks were laid out into.
    pub waves: usize,
    /// Chunks the waves were cut into.
    pub chunks: usize,
    /// The adaptive chunk size the plan settled on.
    pub chunk_size: usize,
    /// Transactions in the largest single cluster — when this approaches
    /// the batch size the corpus is one giant conflict component and the
    /// plan degenerates to ordered chunking.
    pub largest_cluster: usize,
}

/// A conflict-aware layout of one batch: a permutation of the input
/// indices plus the chunk spans it cuts them into.
#[derive(Clone, Debug)]
pub struct WavePlan {
    /// Wave-major permutation of `0..n`: the layout puts `txs[order[i]]`
    /// at schedule position `i`.
    order: Vec<u32>,
    chunks: Vec<ChunkSpan>,
    stats: SchedStats,
}

impl WavePlan {
    /// Plans `txs` for `workers` workers: access sets → union-find
    /// clusters → wave layout, with the chunk size adapted to the batch
    /// (never above `chunk_hint`, shrinking for small batches so each
    /// wave still spreads across the pool).
    ///
    /// Clusters no larger than `chunk_hint` are kept **whole** — their
    /// transactions always share a chunk, so one worker front serves the
    /// whole conflict set — and small clusters are packed together up to
    /// the adaptive target so singleton transactions do not flood the
    /// plan with one-item chunks. Only clusters larger than the hint
    /// split, into hint-sized pieces laid out across consecutive waves.
    pub fn build(
        txs: &[&TxRecord],
        creations: &CreationIndex,
        workers: usize,
        chunk_hint: usize,
    ) -> WavePlan {
        let n = txs.len();
        let workers = workers.max(1);
        let hint = chunk_hint.max(1);
        let chunk_size = adaptive_chunk_size(n, workers, chunk_hint);

        // Cluster by shared creation-tree roots: the first transaction to
        // touch a root owns it; later ones union into the owner's set.
        let mut uf = UnionFind::new(n);
        let mut owner: HashMap<Address, u32, BuildFnv> =
            HashMap::with_capacity_and_hasher(n * 2, BuildFnv::default());
        for (i, tx) in txs.iter().enumerate() {
            for root in access_set(tx, creations) {
                match owner.entry(root) {
                    Entry::Occupied(e) => uf.union(i as u32, *e.get()),
                    Entry::Vacant(e) => {
                        e.insert(i as u32);
                    }
                }
            }
        }

        // Materialize clusters in first-transaction order; members stay
        // in input order within each cluster.
        let mut cluster_of_rep: HashMap<u32, u32, BuildFnv> = HashMap::default();
        let mut clusters: Vec<Vec<u32>> = Vec::new();
        for i in 0..n as u32 {
            let rep = uf.find(i);
            let c = *cluster_of_rep.entry(rep).or_insert_with(|| {
                clusters.push(Vec::new());
                (clusters.len() - 1) as u32
            });
            clusters[c as usize].push(i);
        }

        // Wave layout: wave `w` takes the `w`-th hint-sized piece of
        // every cluster, so a wave's pieces never share a cluster —
        // disjoint access sets run concurrently — while an oversized
        // cluster's own pieces run wave after wave over a warm front.
        // Within a wave, consecutive small pieces pack into one chunk up
        // to the adaptive target (a piece is never split, so a cluster
        // that fits the hint always stays chunk-whole).
        let waves = clusters
            .iter()
            .map(|c| c.len().div_ceil(hint))
            .max()
            .unwrap_or(0);
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut chunks: Vec<ChunkSpan> = Vec::new();
        for wave in 0..waves {
            let mut open: Option<u32> = None;
            let mut flush = |open: &mut Option<u32>, order: &Vec<u32>| {
                if let Some(start) = open.take() {
                    chunks.push(ChunkSpan {
                        start,
                        end: order.len() as u32,
                    });
                }
            };
            for cluster in &clusters {
                let lo = wave * hint;
                if lo >= cluster.len() {
                    continue;
                }
                let hi = (lo + hint).min(cluster.len());
                let piece = &cluster[lo..hi];
                if let Some(start) = open {
                    if order.len() - start as usize + piece.len() > chunk_size {
                        flush(&mut open, &order);
                    }
                }
                let start = *open.get_or_insert(order.len() as u32);
                order.extend_from_slice(piece);
                if order.len() - start as usize >= chunk_size {
                    flush(&mut open, &order);
                }
            }
            flush(&mut open, &order);
        }

        let stats = SchedStats {
            transactions: n,
            clusters: clusters.len(),
            waves,
            chunks: chunks.len(),
            chunk_size,
            largest_cluster: clusters.iter().map(Vec::len).max().unwrap_or(0),
        };
        WavePlan {
            order,
            chunks,
            stats,
        }
    }

    /// The wave-major permutation of input indices.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Number of planned chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The plan's shape.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }
}

/// The chunk size for a batch of `n` over `workers` workers: aim for
/// [`CHUNKS_PER_WORKER`] chunks per worker, never exceeding
/// `chunk_hint` and never below 1. A 64-transaction batch on 4 workers
/// gets 4-transaction chunks (every worker busy); a 10k batch keeps the
/// hint-sized chunks that amortize per-chunk overhead.
fn adaptive_chunk_size(n: usize, workers: usize, chunk_hint: usize) -> usize {
    n.div_ceil(workers.max(1) * CHUNKS_PER_WORKER)
        .clamp(1, chunk_hint.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{CreationRecord, Transfer, TokenId, TxId, TxStatus, TxTrace};

    /// A minimal committed transaction whose journal moves one token
    /// between `sender` and `receiver`.
    fn tx(id: u64, from: u64, to: u64, sender: u64, receiver: u64) -> TxRecord {
        TxRecord {
            id: TxId(id),
            block: 0,
            timestamp: 0,
            from: Address::from_u64(from),
            to: Address::from_u64(to),
            function: "f".into(),
            status: TxStatus::Success,
            trace: TxTrace {
                transfers: vec![Transfer {
                    seq: 0,
                    sender: Address::from_u64(sender),
                    receiver: Address::from_u64(receiver),
                    amount: 1,
                    token: TokenId::ETH,
                }],
                ..TxTrace::default()
            },
        }
    }

    fn rec(creator: u64, created: u64) -> CreationRecord {
        CreationRecord {
            creator: Address::from_u64(creator),
            created: Address::from_u64(created),
            block: 0,
        }
    }

    #[test]
    fn access_set_maps_addresses_to_roots_and_dedups() {
        // 1 -> 2 -> {3, 4}: everything in the tree resolves to root 1.
        let idx = CreationIndex::new(&[rec(1, 2), rec(2, 3), rec(2, 4)]);
        let t = tx(0, 3, 4, 3, 4);
        assert_eq!(access_set(&t, &idx), vec![Address::from_u64(1)]);

        // The zero address is skipped; unrelated addresses are their own
        // root.
        let mut t2 = tx(1, 3, 99, 0, 0);
        t2.trace.transfers[0].receiver = Address::from_u64(50);
        assert_eq!(
            access_set(&t2, &idx),
            vec![
                Address::from_u64(1),
                Address::from_u64(99),
                Address::from_u64(50)
            ]
        );
    }

    #[test]
    fn mixer_laundered_tx_joins_its_creation_tree_siblings() {
        // A mixer tree: attacker EOA 100 deployed mixer 101, which
        // deployed fresh deposit addresses 102 and 103 — the laundering
        // pattern. One tx touches 102, another 103; they never share an
        // address directly, but share ancestry.
        let idx = CreationIndex::new(&[rec(100, 101), rec(101, 102), rec(101, 103)]);
        let records = [
            tx(0, 102, 200, 102, 200), // mixer child 102
            tx(1, 300, 301, 300, 301), // unrelated
            tx(2, 103, 201, 103, 201), // mixer child 103
        ];
        let txs: Vec<&TxRecord> = records.iter().collect();
        let plan = WavePlan::build(&txs, &idx, 4, 32);
        let stats = plan.stats();
        // tx0 and tx2 must cluster (same root 100) even with tx1 between
        // them; the cluster fits one chunk, so they share a chunk — and
        // therefore a wave and a worker front.
        let chunk_of = |input: u32| {
            plan.chunks
                .iter()
                .position(|c| plan.order[c.start as usize..c.end as usize].contains(&input))
                .expect("every tx is scheduled")
        };
        assert_eq!(chunk_of(0), chunk_of(2), "laundered txs share a chunk");
        assert_ne!(chunk_of(0), chunk_of(1), "the unrelated tx does not");
        assert_eq!(stats.clusters, 2);
        assert_eq!(stats.largest_cluster, 2);
    }

    #[test]
    fn disjoint_txs_spread_across_parallel_chunks_in_one_wave() {
        // Eight transactions over eight disjoint address sets: eight
        // clusters, all schedulable concurrently.
        let idx = CreationIndex::new(&[]);
        let records: Vec<TxRecord> = (0..8)
            .map(|i| tx(i, 1000 + i, 2000 + i, 1000 + i, 2000 + i))
            .collect();
        let txs: Vec<&TxRecord> = records.iter().collect();
        let plan = WavePlan::build(&txs, &idx, 4, 32);
        let stats = plan.stats();
        assert_eq!(stats.clusters, 8, "no false conflicts between disjoint txs");
        assert_eq!(stats.waves, 1, "independent work needs no serialization");
        assert_eq!(stats.chunks, 8);
        assert!(
            stats.chunks >= 4,
            "a 4-worker pool gets at least one chunk per worker"
        );
    }

    #[test]
    fn order_is_a_permutation_and_chunks_tile_it() {
        let idx = CreationIndex::new(&[rec(1, 2), rec(1, 3)]);
        let records: Vec<TxRecord> = (0..37)
            .map(|i| {
                if i % 5 == 0 {
                    tx(i, 2, 3, 2, 3) // all in root-1's cluster
                } else {
                    tx(i, 500 + i, 600 + i, 500 + i, 600 + i)
                }
            })
            .collect();
        let txs: Vec<&TxRecord> = records.iter().collect();
        let plan = WavePlan::build(&txs, &idx, 3, 8);
        let mut seen = [false; 37];
        for &i in plan.order() {
            assert!(!seen[i as usize], "index {i} scheduled twice");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every index scheduled");
        // Chunks tile the order exactly, in position order.
        let mut pos = 0;
        for c in &plan.chunks {
            assert_eq!(c.start, pos);
            assert!(c.end > c.start);
            pos = c.end;
        }
        assert_eq!(pos, 37);
    }

    #[test]
    fn one_giant_cluster_degenerates_to_ordered_chunking() {
        // Every tx touches venue 7: one cluster, waves = chunk count,
        // order = input order.
        let idx = CreationIndex::new(&[]);
        let records: Vec<TxRecord> = (0..10).map(|i| tx(i, 100 + i, 7, 100 + i, 7)).collect();
        let txs: Vec<&TxRecord> = records.iter().collect();
        let plan = WavePlan::build(&txs, &idx, 4, 4);
        let stats = plan.stats();
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.largest_cluster, 10);
        assert_eq!(
            plan.order(),
            (0..10u32).collect::<Vec<_>>().as_slice(),
            "single cluster keeps input order"
        );
        assert_eq!(stats.waves, stats.chunks);
    }

    #[test]
    fn adaptive_chunks_shrink_for_small_batches_and_cap_at_the_hint() {
        // Small batch: 8 txs on 4 workers → chunk size 1 (16 target
        // slots), every worker gets work.
        assert_eq!(adaptive_chunk_size(8, 4, 32), 1);
        // Large batch: the hint caps growth.
        assert_eq!(adaptive_chunk_size(100_000, 4, 32), 32);
        // In between: ceil(724 / 16) = 46 → capped to the hint.
        assert_eq!(adaptive_chunk_size(724, 4, 32), 32);
        assert_eq!(adaptive_chunk_size(724, 8, 64), 23);
        // Degenerate inputs clamp sanely.
        assert_eq!(adaptive_chunk_size(0, 4, 32), 1);
        assert_eq!(adaptive_chunk_size(10, 0, 0), 1);
    }

    #[test]
    fn empty_batch_plans_empty() {
        let idx = CreationIndex::new(&[]);
        let plan = WavePlan::build(&[], &idx, 4, 32);
        assert!(plan.order().is_empty());
        assert_eq!(plan.chunk_count(), 0);
        assert_eq!(plan.stats(), SchedStats { chunk_size: 1, ..SchedStats::default() });
    }
}
