//! Merkle-authenticated share tables with range-completeness proofs.
//!
//! At outsourcing time the client sorts a table's rows by an
//! order-preserving share column, builds a Merkle tree over
//! `hash(row id ‖ shares)` leaves, and keeps only the root. A (possibly
//! dishonest) provider answering a range query must return:
//!
//! * the matching rows, each with a membership proof, **and**
//! * the two *boundary* rows just outside the range (or proofs that the
//!   result touches the table's ends),
//!
//! so the client can check the result is a contiguous leaf run — any
//! withheld row would break contiguity. This is the classic
//! authenticated-range-query construction of the paper's refs \[17\]–\[21\],
//! instantiated over share space.

use crate::VerifyError;
use dasp_crypto::merkle::{Digest, MerkleProof, MerkleTree};
use dasp_crypto::sha256::Sha256;

/// A row as committed: id plus its shares at one provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedRow {
    /// Row id.
    pub id: u64,
    /// Share tuple.
    pub shares: Vec<i128>,
}

fn row_bytes(row: &CommittedRow) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + row.shares.len() * 16);
    out.extend_from_slice(&row.id.to_le_bytes());
    for s in &row.shares {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

fn leaf_payload(position: usize, row: &CommittedRow) -> Vec<u8> {
    // Bind the sort position into the leaf so reordering is detectable.
    let mut h = Sha256::new();
    h.update(&(position as u64).to_le_bytes());
    h.update(&row_bytes(row));
    h.finalize().to_vec()
}

/// The provider-side (and client-rebuildable) authenticated table:
/// rows sorted by one share column.
#[derive(Debug, Clone)]
pub struct AuthenticatedTable {
    rows: Vec<CommittedRow>,
    sort_col: usize,
    tree: MerkleTree,
}

/// A verifiable answer to a share-range query.
#[derive(Debug, Clone)]
pub struct RangeProof {
    /// Index of the first returned leaf in the sorted order.
    pub start: usize,
    /// The matching rows, in sorted order.
    pub rows: Vec<CommittedRow>,
    /// Membership proofs, one per returned row.
    pub proofs: Vec<MerkleProof>,
    /// Row just below the range with its proof (`None` = range starts at
    /// the first leaf).
    pub left_boundary: Option<(CommittedRow, MerkleProof)>,
    /// Row just above the range with its proof (`None` = range ends at
    /// the last leaf).
    pub right_boundary: Option<(CommittedRow, MerkleProof)>,
}

impl AuthenticatedTable {
    /// Commit to `rows`, sorted by `sort_col`'s share.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or `sort_col` is out of range for any row.
    pub fn build(mut rows: Vec<CommittedRow>, sort_col: usize) -> Self {
        assert!(!rows.is_empty(), "cannot commit to an empty table");
        rows.sort_by_key(|r| (r.shares[sort_col], r.id));
        let leaves: Vec<Vec<u8>> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| leaf_payload(i, r))
            .collect();
        let tree = MerkleTree::build(&leaves);
        AuthenticatedTable {
            rows,
            sort_col,
            tree,
        }
    }

    /// The root digest the client retains.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// Number of committed rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Always false (empty tables are unrepresentable).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Answer `lo ≤ share(sort_col) ≤ hi` with a completeness proof. A
    /// reversed range (`lo > hi`) is empty and is proven as any empty
    /// range is: by the rows on either side of where it would sit.
    pub fn prove_range(&self, lo: i128, hi: i128) -> RangeProof {
        let share = |r: &CommittedRow| r.shares.get(self.sort_col).copied();
        let start = self.rows.partition_point(|r| share(r) < Some(lo));
        let end = self
            .rows
            .partition_point(|r| share(r) <= Some(hi))
            .max(start);
        let proved = |i: usize| self.rows.get(i).map(|r| (r.clone(), self.tree.prove(i)));
        RangeProof {
            start,
            rows: self.rows.get(start..end).unwrap_or_default().to_vec(),
            proofs: (start..end).map(|i| self.tree.prove(i)).collect(),
            left_boundary: start.checked_sub(1).and_then(proved),
            right_boundary: proved(end),
        }
    }
}

impl RangeProof {
    /// Verify against the client's `root` for the query `[lo, hi]` on the
    /// committed sort column. `total_rows` is the committed table size
    /// (the client knows it — it outsourced the data).
    pub fn verify(
        &self,
        root: &Digest,
        lo: i128,
        hi: i128,
        sort_col: usize,
        total_rows: usize,
    ) -> Result<(), VerifyError> {
        if self.rows.len() != self.proofs.len() {
            return Err(VerifyError::BadProof);
        }
        // 1. Each row is a committed leaf at the claimed consecutive index.
        for (offset, (row, proof)) in self.rows.iter().zip(&self.proofs).enumerate() {
            let index = self.start + offset;
            if proof.index != index {
                return Err(VerifyError::BadProof);
            }
            let payload = leaf_payload(index, row);
            if !MerkleTree::verify(root, &payload, proof) {
                return Err(VerifyError::BadProof);
            }
            // 2. Every returned row actually matches the range.
            let share = row.shares.get(sort_col).ok_or(VerifyError::BadProof)?;
            if *share < lo || *share > hi {
                return Err(VerifyError::BadProof);
            }
        }
        // 3. Left boundary: either the result starts at leaf 0 or the
        //    previous leaf is proven to be below the range.
        match (&self.left_boundary, self.start) {
            (None, 0) => {}
            (Some((row, proof)), start) if start > 0 => {
                if proof.index != start - 1 {
                    return Err(VerifyError::BadProof);
                }
                let payload = leaf_payload(start - 1, row);
                if !MerkleTree::verify(root, &payload, proof) {
                    return Err(VerifyError::BadProof);
                }
                let share = row.shares.get(sort_col).ok_or(VerifyError::BadProof)?;
                if *share >= lo {
                    return Err(VerifyError::IncompleteRange);
                }
            }
            _ => return Err(VerifyError::IncompleteRange),
        }
        // 4. Right boundary: either the result ends at the last leaf or
        //    the next leaf is proven to be above the range.
        let end = self.start + self.rows.len();
        match (&self.right_boundary, end == total_rows) {
            (None, true) => {}
            (Some((row, proof)), false) => {
                if proof.index != end {
                    return Err(VerifyError::BadProof);
                }
                let payload = leaf_payload(end, row);
                if !MerkleTree::verify(root, &payload, proof) {
                    return Err(VerifyError::BadProof);
                }
                let share = row.shares.get(sort_col).ok_or(VerifyError::BadProof)?;
                if *share <= hi {
                    return Err(VerifyError::IncompleteRange);
                }
            }
            _ => return Err(VerifyError::IncompleteRange),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AuthenticatedTable {
        let rows: Vec<CommittedRow> = [(1u64, 30i128), (2, 210), (3, 42), (4, 64), (5, 88)]
            .iter()
            .map(|&(id, s)| CommittedRow {
                id,
                shares: vec![s],
            })
            .collect();
        AuthenticatedTable::build(rows, 0)
    }

    #[test]
    fn honest_range_verifies() {
        let t = table();
        let proof = t.prove_range(40, 90);
        assert_eq!(
            proof.rows.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        proof.verify(&t.root(), 40, 90, 0, t.len()).unwrap();
    }

    #[test]
    fn full_and_empty_ranges_verify() {
        let t = table();
        let all = t.prove_range(i128::MIN, i128::MAX);
        assert_eq!(all.rows.len(), 5);
        all.verify(&t.root(), i128::MIN, i128::MAX, 0, 5).unwrap();

        let none = t.prove_range(1000, 2000);
        assert!(none.rows.is_empty());
        none.verify(&t.root(), 1000, 2000, 0, 5).unwrap();

        let below = t.prove_range(-10, -5);
        assert!(below.rows.is_empty());
        below.verify(&t.root(), -10, -5, 0, 5).unwrap();
    }

    #[test]
    fn withheld_row_detected() {
        let t = table();
        let mut proof = t.prove_range(40, 90);
        // Provider drops the last matching row and its proof.
        proof.rows.pop();
        proof.proofs.pop();
        // It must also forge the right boundary; reuse the real row 88's
        // neighbour (share 210) — contiguity breaks either way.
        let err = proof.verify(&t.root(), 40, 90, 0, t.len()).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::BadProof | VerifyError::IncompleteRange
        ));
    }

    #[test]
    fn withheld_first_row_detected() {
        let t = table();
        let mut proof = t.prove_range(40, 90);
        proof.rows.remove(0);
        proof.proofs.remove(0);
        proof.start += 1;
        let err = proof.verify(&t.root(), 40, 90, 0, t.len()).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::BadProof | VerifyError::IncompleteRange
        ));
    }

    #[test]
    fn tampered_row_detected() {
        let t = table();
        let mut proof = t.prove_range(40, 90);
        proof.rows[0].shares[0] = 50; // forged share
        assert_eq!(
            proof.verify(&t.root(), 40, 90, 0, t.len()),
            Err(VerifyError::BadProof)
        );
    }

    #[test]
    fn extra_out_of_range_row_detected() {
        let t = table();
        let mut proof = t.prove_range(40, 90);
        // Provider pads with a legitimate but out-of-range row (id 2, 210).
        let idx = 4; // position of share 210 in sorted order
        proof.rows.push(CommittedRow {
            id: 2,
            shares: vec![210],
        });
        proof.proofs.push(
            AuthenticatedTable::build(
                (1..=5)
                    .map(|id| CommittedRow {
                        id,
                        shares: vec![[30i128, 210, 42, 64, 88][(id - 1) as usize]],
                    })
                    .collect(),
                0,
            )
            .tree
            .prove(idx),
        );
        assert!(proof.verify(&t.root(), 40, 90, 0, t.len()).is_err());
    }

    #[test]
    fn missing_boundary_rejected() {
        let t = table();
        let mut proof = t.prove_range(40, 90);
        proof.left_boundary = None; // claim the range starts at leaf 0
        assert_eq!(
            proof.verify(&t.root(), 40, 90, 0, t.len()),
            Err(VerifyError::IncompleteRange)
        );
    }

    #[test]
    fn wrong_root_rejected() {
        let t = table();
        let proof = t.prove_range(40, 90);
        let mut bad_root = t.root();
        bad_root[0] ^= 1;
        assert_eq!(
            proof.verify(&bad_root, 40, 90, 0, t.len()),
            Err(VerifyError::BadProof)
        );
    }

    #[test]
    fn single_row_table() {
        let t = AuthenticatedTable::build(
            vec![CommittedRow {
                id: 9,
                shares: vec![5],
            }],
            0,
        );
        let proof = t.prove_range(0, 10);
        assert_eq!(proof.rows.len(), 1);
        proof.verify(&t.root(), 0, 10, 0, 1).unwrap();
    }
}
