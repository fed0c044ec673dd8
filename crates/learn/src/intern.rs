//! Content-addressed interning of fitted PCA bases.
//!
//! At fleet scale many streams carry the same workload shape — identical
//! synthetic seeds, cloned VMs, mirrored services — and training them produces
//! byte-identical PCA bases. Each basis is small (`(n + 1) · d + n` doubles),
//! but one copy per stream is pure waste when thousands of streams share a
//! signal. [`PcaInterner`] deduplicates them: `intern` returns an existing
//! [`Arc<Pca>`] whenever a *bitwise-identical* basis is already live, so every
//! distinct basis is resident exactly once no matter how many streams use it.
//!
//! The interner holds only [`Weak`] references. It never keeps a basis alive:
//! when the last stream using a basis drops it, the entry dies with it. Dead
//! entries are pruned when a later basis hashes to the same bucket, and by a
//! whole-table sweep whenever the table has doubled since the previous sweep
//! — so a fleet that retrains onto ever-new bases keeps a table about twice
//! its live set, at amortised O(1) per `intern`.
//!
//! Equality is **bitwise** over every field (`f64::to_bits`), not `==`. Two
//! bases that differ only in the sign of an eigenvector, or by one ULP from a
//! different summation order, are *different* bases — sharing them would
//! change forecasts, and forecasts must be bit-stable under interning.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, Weak};

use crate::Pca;

/// A process-wide (or fleet-wide) deduplication table for fitted PCA bases.
///
/// Cheap to share: clone the surrounding `Arc<PcaInterner>`. All methods take
/// `&self`; an internal mutex guards the table.
#[derive(Debug, Default)]
pub struct PcaInterner {
    table: Mutex<Table>,
}

/// Entries below which the table never sweeps: keeps tiny tables (tests, a
/// handful of streams) from sweeping on every call.
const SWEEP_FLOOR: usize = 64;

#[derive(Debug, Default)]
struct Table {
    /// Content hash → candidate bases with that hash. Collisions are resolved
    /// by full bitwise comparison; dead weaks are pruned in place.
    buckets: HashMap<u64, Vec<Weak<Pca>>>,
    /// Weak entries held across all buckets, live or dead.
    entries: usize,
    /// Entry count that triggers the next whole-table sweep.
    sweep_at: usize,
}

impl Table {
    /// Drops every dead entry and empty bucket, then sets the next sweep at
    /// twice the surviving entries (at least [`SWEEP_FLOOR`]). Costs the
    /// table's size, which at least `sweep_at / 2` interns since the last
    /// sweep paid for.
    fn sweep(&mut self) {
        self.buckets.retain(|_, bucket| {
            bucket.retain(|w| w.strong_count() > 0);
            !bucket.is_empty()
        });
        self.entries = self.buckets.values().map(Vec::len).sum();
        self.sweep_at = (2 * self.entries).max(SWEEP_FLOOR);
        self.buckets.shrink_to(self.sweep_at);
    }
}

impl PcaInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a shared handle to a basis bitwise-identical to `pca`,
    /// registering `pca` itself if none is live yet.
    ///
    /// The returned forecasts are bit-identical to using `pca` directly:
    /// substitution only happens on full bitwise equality of mean,
    /// components, eigenvalues and total variance.
    pub fn intern(&self, pca: Arc<Pca>) -> Arc<Pca> {
        let hash = content_hash(&pca);
        let mut guard = self.table.lock().expect("interner poisoned");
        let table = &mut *guard;
        if table.entries >= table.sweep_at {
            table.sweep();
        }
        let bucket = table.buckets.entry(hash).or_default();
        let before = bucket.len();
        bucket.retain(|w| w.strong_count() > 0);
        table.entries -= before - bucket.len();
        for weak in bucket.iter() {
            if let Some(existing) = weak.upgrade() {
                if Arc::ptr_eq(&existing, &pca) || bitwise_eq(&existing, &pca) {
                    return existing;
                }
            }
        }
        bucket.push(Arc::downgrade(&pca));
        table.entries += 1;
        pca
    }

    /// Number of live interned bases (dead entries are excluded). Takes the
    /// lock; intended for accounting and tests, not the hot path.
    pub fn live(&self) -> usize {
        let table = self.table.lock().expect("interner poisoned");
        table.buckets.values().flatten().filter(|w| w.strong_count() > 0).count()
    }

    /// Number of entries the table holds, dead ones not yet pruned included —
    /// the table's actual footprint, for accounting and tests.
    pub fn entries(&self) -> usize {
        self.table.lock().expect("interner poisoned").entries
    }
}

fn content_hash(p: &Pca) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.mean().len().hash(&mut h);
    for &v in p.mean() {
        v.to_bits().hash(&mut h);
    }
    p.components().rows().hash(&mut h);
    p.components().cols().hash(&mut h);
    for &v in p.components().as_slice() {
        v.to_bits().hash(&mut h);
    }
    for &v in p.eigenvalues() {
        v.to_bits().hash(&mut h);
    }
    p.total_variance().to_bits().hash(&mut h);
    h.finish()
}

fn bitwise_eq(a: &Pca, b: &Pca) -> bool {
    a.components().rows() == b.components().rows()
        && a.components().cols() == b.components().cols()
        && a.total_variance().to_bits() == b.total_variance().to_bits()
        && slices_bit_eq(a.mean(), b.mean())
        && slices_bit_eq(a.eigenvalues(), b.eigenvalues())
        && slices_bit_eq(a.components().as_slice(), b.components().as_slice())
}

fn slices_bit_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Matrix;

    fn sample_pca(scale: f64) -> Arc<Pca> {
        let rows: Vec<Vec<f64>> =
            (0..20).map(|i| vec![scale * i as f64, scale * (20 - i) as f64]).collect();
        Arc::new(Pca::fit(&Matrix::from_rows(&rows).unwrap(), 2).unwrap())
    }

    #[test]
    fn identical_bases_share_one_allocation() {
        let interner = PcaInterner::new();
        let a = interner.intern(sample_pca(1.0));
        let b = interner.intern(sample_pca(1.0));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interner.live(), 1);
    }

    #[test]
    fn different_bases_stay_distinct() {
        let interner = PcaInterner::new();
        let a = interner.intern(sample_pca(1.0));
        let b = interner.intern(sample_pca(2.0));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(interner.live(), 2);
    }

    #[test]
    fn dropped_bases_are_pruned() {
        let interner = PcaInterner::new();
        let a = interner.intern(sample_pca(1.0));
        drop(a);
        assert_eq!(interner.live(), 0);
        // Re-interning after the original died registers the new handle.
        let b = interner.intern(sample_pca(1.0));
        assert_eq!(interner.live(), 1);
        drop(b);
    }

    #[test]
    fn unique_dropped_bases_do_not_accumulate() {
        // Every basis is distinct and dies right after interning, so no later
        // intern ever hashes into its bucket: only the whole-table sweep can
        // prune it. The table must stay within twice the live set plus the
        // sweep floor instead of growing with every basis ever seen.
        let interner = PcaInterner::new();
        let mut kept = Vec::new();
        for i in 0..10_000 {
            let handle = interner.intern(sample_pca(1.0 + i as f64));
            // Keep a sparse live set so the bound is exercised above zero.
            if i % 100 == 0 {
                kept.push(handle);
            }
            let live = kept.len();
            let entries = interner.entries();
            assert!(
                entries <= 2 * live + SWEEP_FLOOR,
                "{entries} entries for {live} live bases after {} interns",
                i + 1
            );
        }
        assert_eq!(interner.live(), kept.len());
        drop(kept);
        assert_eq!(interner.live(), 0);
    }

    #[test]
    fn entries_track_live_table() {
        let interner = PcaInterner::new();
        assert_eq!(interner.entries(), 0);
        let a = interner.intern(sample_pca(1.0));
        let b = interner.intern(sample_pca(1.0));
        assert_eq!(interner.entries(), 1, "a shared basis is one entry");
        drop((a, b));
        assert_eq!(interner.entries(), 1, "dead entries linger until pruned");
        let _c = interner.intern(sample_pca(1.0));
        assert_eq!(interner.entries(), 1, "same-bucket intern prunes the dead entry");
    }

    #[test]
    fn re_interning_a_shared_handle_is_identity() {
        let interner = PcaInterner::new();
        let a = interner.intern(sample_pca(1.0));
        let again = interner.intern(Arc::clone(&a));
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(interner.live(), 1);
    }
}
