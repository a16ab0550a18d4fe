//! Dense bitsets over the nodes of one tree.
//!
//! [`NodeSet`] is the set representation used by the Core XPath 1.0
//! linear-time evaluator and as the row type of the Boolean node×node
//! matrices of the PPLbin engine (Section 4 of the paper).  All Boolean
//! operations are word-parallel over `u64` blocks.

use crate::tree::NodeId;
use std::fmt;

/// A set of nodes of a fixed tree, represented as a dense bitset.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NodeSet {
    /// Number of valid bits (== number of nodes of the tree).
    domain: usize,
    words: Vec<u64>,
}

impl NodeSet {
    /// The empty set over a domain of `domain` nodes.
    pub fn empty(domain: usize) -> NodeSet {
        NodeSet {
            domain,
            words: vec![0; domain.div_ceil(64)],
        }
    }

    /// The full set `nodes(t)` over a domain of `domain` nodes.
    pub fn full(domain: usize) -> NodeSet {
        let mut s = NodeSet::empty(domain);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        s.clear_tail();
        s
    }

    /// A singleton set.
    pub fn singleton(domain: usize, node: NodeId) -> NodeSet {
        let mut s = NodeSet::empty(domain);
        s.insert(node);
        s
    }

    /// Build a set from an iterator of nodes.
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(domain: usize, nodes: I) -> NodeSet {
        let mut s = NodeSet::empty(domain);
        for n in nodes {
            s.insert(n);
        }
        s
    }

    fn clear_tail(&mut self) {
        let extra = self.words.len() * 64 - self.domain;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Size of the underlying domain (number of tree nodes), not the set
    /// cardinality.
    #[inline]
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        debug_assert!(i < self.domain);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Insert a node; returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.index();
        debug_assert!(i < self.domain, "node {i} outside domain {}", self.domain);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Remove a node; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.index();
        debug_assert!(i < self.domain);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place set difference (`self \ other`).
    pub fn difference_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place complement relative to the full domain (`nodes(t) \ self`).
    pub fn complement(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Union returning a fresh set.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Intersection returning a fresh set.
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Difference returning a fresh set.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Complemented copy.
    pub fn complemented(&self) -> NodeSet {
        let mut out = self.clone();
        out.complement();
        out
    }

    /// Is `self ∩ other` non-empty?  (Word-parallel, no allocation.)
    pub fn intersects(&self, other: &NodeSet) -> bool {
        debug_assert_eq!(self.domain, other.domain);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        debug_assert_eq!(self.domain, other.domain);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// Iterate over the members in increasing node-id (document) order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// Raw words, exposed for the matrix implementation in `xpath_pplbin`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw words; callers must not set bits beyond the domain.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// Iterator over the members of a [`NodeSet`].
pub struct NodeSetIter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl<'a> Iterator for NodeSetIter<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(NodeId((self.word_idx * 64 + bit) as u32));
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = NodeSetIter<'a>;

    fn into_iter(self) -> NodeSetIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::empty(100);
        assert!(s.is_empty());
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        assert!(s.insert(NodeId(99)));
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(99)));
        assert!(!s.contains(NodeId(4)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(NodeId(3)));
        assert!(!s.remove(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_and_complement_respect_domain() {
        for domain in [1, 5, 63, 64, 65, 128, 130] {
            let full = NodeSet::full(domain);
            assert_eq!(full.len(), domain, "domain {domain}");
            let mut empty = full.clone();
            empty.complement();
            assert!(empty.is_empty(), "domain {domain}");
            let mut again = empty;
            again.complement();
            assert_eq!(again, full);
        }
    }

    #[test]
    fn boolean_algebra() {
        let a = NodeSet::from_iter(70, ids(&[1, 2, 3, 64, 65]));
        let b = NodeSet::from_iter(70, ids(&[2, 3, 4, 65, 69]));
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            ids(&[1, 2, 3, 4, 64, 65, 69])
        );
        assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            ids(&[2, 3, 65])
        );
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), ids(&[1, 64]));
        assert!(a.intersects(&b));
        assert!(!a.difference(&b).intersects(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersection(&b).is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = NodeSet::from_iter(200, ids(&[150, 3, 77, 64, 0, 199]));
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, ids(&[0, 3, 64, 77, 150, 199]));
        assert_eq!(s.first(), Some(NodeId(0)));
        assert_eq!(NodeSet::empty(10).first(), None);
    }

    #[test]
    fn singleton_and_clear() {
        let mut s = NodeSet::singleton(10, NodeId(7));
        assert_eq!(s.len(), 1);
        assert!(s.contains(NodeId(7)));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn debug_formatting_lists_members() {
        let s = NodeSet::from_iter(10, ids(&[1, 4]));
        let dbg = format!("{s:?}");
        assert!(dbg.contains("NodeId(1)") && dbg.contains("NodeId(4)"));
    }
}
