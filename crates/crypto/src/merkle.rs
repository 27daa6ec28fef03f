//! Merkle hash trees with membership proofs.
//!
//! The trust mechanisms in `dasp-verify` (query-result completeness and
//! correctness, paper §I issue 3 and references \[17\]–\[21\]) are built on
//! these trees: each provider commits to its share table, the client keeps
//! only the root, and results carry membership proofs.
//!
//! Leaf and interior hashes are domain-separated (`0x00` / `0x01`
//! prefixes) to prevent second-preimage splicing attacks.

use crate::sha256::Sha256;

/// A 32-byte node hash.
pub type Digest = [u8; 32];

fn leaf_hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// A Merkle tree over an ordered sequence of leaves.
///
/// Odd nodes are promoted (not duplicated), so the tree over `n` leaves
/// has height ⌈log₂ n⌉ and a proof has at most that many siblings.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels\[0\] = leaf hashes, levels.last() = [root].
    levels: Vec<Vec<Digest>>,
}

/// A membership proof: the leaf index plus sibling hashes bottom-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling digests from leaf level to just below the root. `None`
    /// marks levels where the node was promoted without a sibling.
    pub siblings: Vec<Option<Digest>>,
}

impl MerkleTree {
    /// Build a tree over `leaves` (each leaf is arbitrary bytes).
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf set — an empty commitment is meaningless
    /// for result verification; commit to a sentinel row instead.
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = Vec::new();
        let mut current: Vec<Digest> = leaves.iter().map(|l| leaf_hash(l.as_ref())).collect();
        levels.push(current.clone());
        while current.len() > 1 {
            let mut next = Vec::with_capacity(current.len().div_ceil(2));
            for pair in current.chunks(2) {
                if pair.len() == 2 {
                    next.push(node_hash(&pair[0], &pair[1]));
                } else {
                    next.push(pair[0]); // promote odd node
                }
            }
            levels.push(next.clone());
            current = next;
        }
        MerkleTree { levels }
    }

    /// The root commitment.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// True iff the tree has exactly one leaf.
    pub fn is_empty(&self) -> bool {
        false // construction forbids empty trees
    }

    /// Produce a membership proof for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.len(), "leaf index out of bounds");
        let below_root = self.levels.len().saturating_sub(1);
        let mut siblings = Vec::with_capacity(below_root);
        let mut idx = index;
        for level in self.levels.iter().take(below_root) {
            let sibling_idx = idx ^ 1;
            siblings.push(level.get(sibling_idx).copied());
            idx /= 2;
        }
        MerkleProof { index, siblings }
    }

    /// Verify that `leaf_data` is the leaf at `proof.index` under `root`.
    pub fn verify(root: &Digest, leaf_data: &[u8], proof: &MerkleProof) -> bool {
        let mut hash = leaf_hash(leaf_data);
        let mut idx = proof.index;
        for sibling in &proof.siblings {
            match sibling {
                Some(s) => {
                    hash = if idx.is_multiple_of(2) {
                        node_hash(&hash, s)
                    } else {
                        node_hash(s, &hash)
                    };
                }
                None => { /* promoted node: hash unchanged */ }
            }
            idx /= 2;
        }
        &hash == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_rejected() {
        let empty: Vec<Vec<u8>> = Vec::new();
        MerkleTree::build(&empty);
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::build(&[b"only".to_vec()]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        let proof = tree.prove(0);
        assert!(MerkleTree::verify(&tree.root(), b"only", &proof));
    }

    #[test]
    fn all_leaves_provable_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let data = leaves(n);
            let tree = MerkleTree::build(&data);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i);
                assert!(
                    MerkleTree::verify(&tree.root(), leaf, &proof),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let data = leaves(8);
        let tree = MerkleTree::build(&data);
        let proof = tree.prove(3);
        assert!(!MerkleTree::verify(&tree.root(), b"leaf-4", &proof));
        assert!(!MerkleTree::verify(&tree.root(), b"tampered", &proof));
    }

    #[test]
    fn wrong_index_fails() {
        let data = leaves(8);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.prove(3);
        proof.index = 4;
        assert!(!MerkleTree::verify(&tree.root(), b"leaf-3", &proof));
    }

    #[test]
    fn tampered_sibling_fails() {
        let data = leaves(8);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.prove(0);
        if let Some(Some(s)) = proof.siblings.first_mut().map(|s| s.as_mut()) {
            s[0] ^= 1;
        }
        assert!(!MerkleTree::verify(&tree.root(), b"leaf-0", &proof));
    }

    #[test]
    fn roots_differ_on_content_change() {
        let a = MerkleTree::build(&leaves(10));
        let mut changed = leaves(10);
        changed[5] = b"leaf-5-modified".to_vec();
        let b = MerkleTree::build(&changed);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn domain_separation_prevents_splicing() {
        // A two-leaf tree's root must differ from a single leaf whose data
        // is the concatenation of the two child hashes.
        let tree = MerkleTree::build(&[b"a".to_vec(), b"b".to_vec()]);
        let mut concat = Vec::new();
        concat.extend_from_slice(&leaf_hash(b"a"));
        concat.extend_from_slice(&leaf_hash(b"b"));
        let fake = MerkleTree::build(&[concat]);
        assert_ne!(tree.root(), fake.root());
    }

    proptest! {
        #[test]
        fn prop_every_leaf_verifies(n in 1usize..64, probe in 0usize..64) {
            let data = leaves(n);
            let tree = MerkleTree::build(&data);
            let i = probe % n;
            let proof = tree.prove(i);
            prop_assert!(MerkleTree::verify(&tree.root(), &data[i], &proof));
        }
    }
}
