//! Property-based tests of the chunk partition every primitive (and
//! the whole determinism contract) rests on.

use proptest::prelude::*;

use mpvar_exec::chunk_ranges;

proptest! {
    /// `chunk_ranges` partitions `0..n` exactly: contiguous, disjoint,
    /// near-equal sizes, and never more than `chunks` pieces.
    #[test]
    fn chunk_ranges_partition_exactly(n in 0usize..500, chunks in 0usize..40) {
        let ranges = chunk_ranges(n, chunks);
        prop_assert!(ranges.len() <= chunks.max(1));
        let mut covered = 0usize;
        let mut cursor = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor, "ranges not contiguous");
            prop_assert!(r.end > r.start, "empty range handed out");
            covered += r.end - r.start;
            cursor = r.end;
        }
        prop_assert_eq!(covered, n);
        if let (Some(min), Some(max)) = (
            ranges.iter().map(|r| r.end - r.start).min(),
            ranges.iter().map(|r| r.end - r.start).max(),
        ) {
            prop_assert!(max - min <= 1, "chunk sizes differ by more than 1");
        }
    }
}
