//! Contract-creation relationships — the substrate's XBlock-ETH dataset.
//!
//! LeiShen's account tagging (paper §V-B1) propagates DeFi-application tags
//! along contract-creation edges, using the creation dataset of Zheng et al.
//! (XBlock-ETH). Our chain records every creation as a [`CreationRecord`];
//! [`CreationIndex`] provides the parent/child queries the tagging tree
//! builder needs.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::address::Address;

/// One contract-creation edge: `creator` deployed `created` at `block`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreationRecord {
    /// The deploying account (EOA or contract).
    pub creator: Address,
    /// The deployed contract.
    pub created: Address,
    /// Block number of the deployment.
    pub block: u64,
}

/// Index over creation records supporting ancestor/descendant queries.
///
/// ```
/// use ethsim::{Address, CreationIndex, CreationRecord};
///
/// let eoa = Address::from_seed("deployer");
/// let factory = Address::from_seed("factory");
/// let pool = Address::from_seed("pool");
/// let idx = CreationIndex::new(&[
///     CreationRecord { creator: eoa, created: factory, block: 1 },
///     CreationRecord { creator: factory, created: pool, block: 2 },
/// ]);
/// assert_eq!(idx.parent(pool), Some(factory));
/// assert_eq!(idx.root(pool), eoa);
/// assert!(idx.ancestors(pool).eq([factory, eoa]));
/// assert_eq!(idx.descendants(eoa), vec![factory, pool]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CreationIndex {
    parent: HashMap<Address, Address>,
    children: HashMap<Address, Vec<Address>>,
}

impl CreationIndex {
    /// Builds the index from creation records.
    pub fn new(records: &[CreationRecord]) -> Self {
        let mut idx = CreationIndex::default();
        for r in records {
            idx.parent.insert(r.created, r.creator);
            idx.children.entry(r.creator).or_default().push(r.created);
        }
        idx
    }

    /// Direct creator of `addr`, if the index knows one.
    pub fn parent(&self, addr: Address) -> Option<Address> {
        self.parent.get(&addr).copied()
    }

    /// Direct creations of `addr`.
    pub fn children(&self, addr: Address) -> &[Address] {
        self.children.get(&addr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All ancestors of `addr`, nearest first (excludes `addr`), walked
    /// through the parent links without allocating. Creation graphs are
    /// trees (an address is created once); the step bound still guards
    /// against corrupted inputs.
    pub fn ancestors(&self, addr: Address) -> impl Iterator<Item = Address> + '_ {
        std::iter::successors(self.parent(addr), |&p| self.parent(p)).take(1024)
    }

    /// The root of `addr`'s creation tree — the EOA that ultimately
    /// deployed its lineage (or `addr` itself when it has no recorded
    /// creator). The paper tags unknown accounts with no application tag by
    /// this root address (Fig. 7b).
    pub fn root(&self, addr: Address) -> Address {
        self.ancestors(addr).last().unwrap_or(addr)
    }

    /// All transitive creations of `addr`, preorder (excludes `addr`).
    pub fn descendants(&self, addr: Address) -> Vec<Address> {
        let mut out = Vec::new();
        let mut stack: Vec<Address> = self.children(addr).to_vec();
        stack.reverse();
        while let Some(next) = stack.pop() {
            out.push(next);
            let kids = self.children(next);
            for k in kids.iter().rev() {
                stack.push(*k);
            }
        }
        out
    }

    /// Every address in the same creation tree as `addr` (root, all its
    /// descendants), including `addr` itself.
    pub fn tree_of(&self, addr: Address) -> Vec<Address> {
        let root = self.root(addr);
        let mut out = vec![root];
        out.extend(self.descendants(root));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(creator: Address, created: Address) -> CreationRecord {
        CreationRecord {
            creator,
            created,
            block: 0,
        }
    }

    #[test]
    fn empty_index() {
        let idx = CreationIndex::new(&[]);
        let a = Address::from_u64(1);
        assert_eq!(idx.parent(a), None);
        assert!(idx.children(a).is_empty());
        assert_eq!(idx.root(a), a);
        assert_eq!(idx.ancestors(a).next(), None);
        assert!(idx.descendants(a).is_empty());
        assert_eq!(idx.tree_of(a), vec![a]);
    }

    #[test]
    fn three_level_tree() {
        let eoa = Address::from_u64(1);
        let factory = Address::from_u64(2);
        let p1 = Address::from_u64(3);
        let p2 = Address::from_u64(4);
        let idx = CreationIndex::new(&[rec(eoa, factory), rec(factory, p1), rec(factory, p2)]);
        assert!(idx.ancestors(p1).eq([factory, eoa]));
        assert_eq!(idx.root(p1), eoa);
        assert_eq!(idx.root(eoa), eoa);
        assert_eq!(idx.descendants(eoa), vec![factory, p1, p2]);
        assert_eq!(idx.tree_of(p2), vec![eoa, factory, p1, p2]);
        assert_eq!(idx.children(factory), &[p1, p2]);
    }
}
