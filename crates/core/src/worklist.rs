//! The set of nodes whose overlay may hold output for
//! [`Cloud4Home::pump`](crate::Cloud4Home) to forward.

/// A bitset over node indexes, sized once at construction and reused for
/// the whole run. Marking is idempotent; [`Self::take_from`] hands marked
/// indexes back in ascending order from a cursor, which is what lets the
/// pump visit exactly the nodes a full scan would have found work on, in
/// the scan's order.
#[derive(Debug)]
pub(crate) struct DirtyNodes {
    words: Vec<u64>,
    /// Number of set bits, so "nothing pending" is one compare.
    marked: usize,
}

impl DirtyNodes {
    pub(crate) fn new(nodes: usize) -> Self {
        DirtyNodes {
            words: vec![0; nodes.div_ceil(64)],
            marked: 0,
        }
    }

    pub(crate) fn mark(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        if self.words[i / 64] & bit == 0 {
            self.words[i / 64] |= bit;
            self.marked += 1;
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.marked == 0
    }

    /// Unmarks and returns the lowest marked index at or above `from`.
    pub(crate) fn take_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        let bit = bits.trailing_zeros();
        self.words[w] &= !(1u64 << bit);
        self.marked -= 1;
        Some(w * 64 + bit as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_walks_marks_in_ascending_order_from_the_cursor() {
        let mut d = DirtyNodes::new(130);
        for i in [129, 0, 64, 63, 64, 5] {
            d.mark(i);
        }
        assert_eq!(d.take_from(6), Some(63));
        assert_eq!(d.take_from(64), Some(64));
        // A mark below the cursor waits for the next round.
        d.mark(7);
        assert_eq!(d.take_from(65), Some(129));
        assert_eq!(d.take_from(130), None);
        assert!(!d.is_empty());
        assert_eq!(d.take_from(0), Some(0));
        assert_eq!(d.take_from(1), Some(5));
        assert_eq!(d.take_from(6), Some(7));
        assert!(d.is_empty());
        assert_eq!(d.take_from(0), None);
    }

    #[test]
    fn a_world_that_fills_its_last_word_has_no_word_past_the_end() {
        let mut d = DirtyNodes::new(128);
        d.mark(127);
        assert_eq!(d.take_from(127), Some(127));
        assert_eq!(d.take_from(128), None);
    }
}
