//! Transposition between pattern-major and signal-major bit layouts.
//!
//! The logic and fault simulators in this workspace are *bit-parallel*: one
//! block word per circuit signal carries the value of that signal under up
//! to `64·W` different input patterns simultaneously (flat lane `k` of the
//! word is the value under pattern `k` — see [`SimWord`] for the lane
//! numbering contract). Test sets, on the other hand, are naturally
//! stored pattern-major (one [`BitVec`] per pattern, one bit per input).
//! This module converts between the two layouts for any block width `W`;
//! `W = 1` is the classic one-`u64`, 64-lane block.
//!
//! # Example
//!
//! ```
//! use fbist_bits::{BitVec, pack};
//!
//! let patterns = vec![
//!     "01".parse::<BitVec>().unwrap(), // pattern 0: in0=1, in1=0
//!     "10".parse::<BitVec>().unwrap(), // pattern 1: in0=0, in1=1
//! ];
//! let words = pack::pack_patterns::<1>(2, &patterns);
//! assert_eq!(words[0].0[0] & 0b11, 0b01); // in0 is 1 under pattern 0 only
//! assert_eq!(words[1].0[0] & 0b11, 0b10); // in1 is 1 under pattern 1 only
//! ```

use crate::bitvec::BitVec;
use crate::simd::SimWord;

/// Lanes per `u64` word of a packed block (a `W`-word block has `64·W`).
pub const BLOCK: usize = 64;

/// Packs up to `64·W` patterns into signal-major [`SimWord`]s.
///
/// Returns one word per input signal; flat lane `k` of word `i` is the
/// value of input `i` under pattern `k`. Patterns beyond the first `64·W`
/// are ignored.
///
/// # Panics
///
/// Panics if any pattern's width differs from `inputs`.
pub fn pack_patterns<const W: usize>(inputs: usize, patterns: &[BitVec]) -> Vec<SimWord<W>> {
    let mut words = vec![SimWord::<W>::ZERO; inputs];
    let take = patterns.len().min(SimWord::<W>::LANES);
    pack_patterns_at(&mut words, 0, &patterns[..take]);
    words
}

/// Unpacks signal-major [`SimWord`]s back into `count` pattern-major
/// [`BitVec`]s. Inverse of [`pack_patterns`] for `count <= 64·W`.
///
/// # Panics
///
/// Panics if `count` exceeds the block's `64·W` lanes.
pub fn unpack_patterns<const W: usize>(words: &[SimWord<W>], count: usize) -> Vec<BitVec> {
    assert!(
        count <= SimWord::<W>::LANES,
        "cannot unpack more than {} patterns",
        SimWord::<W>::LANES
    );
    (0..count)
        .map(|k| {
            let mut p = BitVec::zeros(words.len());
            for (i, w) in words.iter().enumerate() {
                if w.lane(k) {
                    p.set(i, true);
                }
            }
            p
        })
        .collect()
}

/// A mask with the low `n` bits of one word set.
#[inline]
const fn lane_mask(n: usize) -> u64 {
    if n >= BLOCK {
        u64::MAX
    } else if n == 0 {
        0
    } else {
        (1u64 << n) - 1
    }
}

/// A [`SimWord`] mask with `len` flat lanes set starting at lane `start` —
/// selects one *lane group* of a shared block (the lanes one batched row
/// occupies).
///
/// ```
/// use fbist_bits::{pack::lane_group_mask, SimWord};
///
/// assert_eq!(lane_group_mask::<1>(0, 64), SimWord::MAX);
/// assert_eq!(lane_group_mask::<1>(2, 3).0, [0b11100]);
/// assert_eq!(lane_group_mask::<2>(60, 10).0, [0xF000_0000_0000_0000, 0b11_1111]);
/// assert_eq!(lane_group_mask::<1>(5, 0), SimWord::ZERO);
/// ```
///
/// # Panics
///
/// Panics if the group overruns the flat lane space — `start + len >
/// 64·W`, including `start + len` combinations that would overflow
/// `usize` (checked arithmetic, so release builds panic instead of
/// silently wrapping into an in-range group).
#[inline]
pub fn lane_group_mask<const W: usize>(start: usize, len: usize) -> SimWord<W> {
    match start.checked_add(len) {
        Some(end) if end <= SimWord::<W>::LANES => {}
        _ => panic!("lane group overruns the block"),
    }
    let mut out = SimWord::<W>::ZERO;
    for (i, w) in out.0.iter_mut().enumerate() {
        let lo = start.saturating_sub(i * BLOCK).min(BLOCK);
        let hi = (start + len).saturating_sub(i * BLOCK).min(BLOCK);
        *w = lane_mask(hi) & !lane_mask(lo);
    }
    out
}

/// Packs patterns into an existing block of signal-major [`SimWord`]s,
/// occupying the flat lanes `lane_offset..lane_offset + patterns.len()`.
///
/// This is the building block of cross-row batching: several pattern
/// segments from different rows share one block, each at its own lane
/// offset. Lanes outside the group are left untouched.
///
/// # Panics
///
/// Panics if the group overruns the flat lane space or a pattern's width
/// differs from `words.len()`.
pub fn pack_patterns_at<const W: usize>(
    words: &mut [SimWord<W>],
    lane_offset: usize,
    patterns: &[BitVec],
) {
    assert!(
        lane_offset + patterns.len() <= SimWord::<W>::LANES,
        "lane group overruns the block: offset {lane_offset} + {} patterns",
        patterns.len()
    );
    for (k, p) in patterns.iter().enumerate() {
        assert_eq!(p.width(), words.len(), "pattern {k} width mismatch");
        let lane = lane_offset + k;
        let (wi, bit) = (lane / BLOCK, 1u64 << (lane % BLOCK));
        // word-at-a-time scan: one `trailing_zeros` per set input bit
        for (i, &pw) in p.as_words().iter().enumerate() {
            let mut m = pw;
            while m != 0 {
                words[i * BLOCK + m.trailing_zeros() as usize].0[wi] |= bit;
                m &= m - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let patterns: Vec<BitVec> = (0..10u64).map(|v| BitVec::from_u64(7, v * 37)).collect();
        let words = pack_patterns::<1>(7, &patterns);
        assert_eq!(unpack_patterns(&words, 10), patterns);
        let patterns: Vec<BitVec> = (0..200u64).map(|v| BitVec::from_u64(9, v * 37)).collect();
        let words = pack_patterns::<4>(9, &patterns);
        assert_eq!(unpack_patterns(&words, 200), patterns);
    }

    #[test]
    fn wide_block_is_consecutive_narrow_blocks() {
        // lane k of a W-wide block == lane k%64 of narrow block k/64: the
        // flat-lane contract that makes every width byte-identical.
        let patterns: Vec<BitVec> = (0..130u64).map(|v| BitVec::from_u64(7, v * 31)).collect();
        let wide = pack_patterns::<4>(7, &patterns);
        for (b, chunk) in patterns.chunks(BLOCK).enumerate() {
            let narrow = pack_patterns::<1>(7, chunk);
            for i in 0..7 {
                assert_eq!(wide[i].0[b], narrow[i].0[0], "input {i} word {b}");
            }
        }
        for w in &wide {
            assert_eq!(w.0[3], 0, "lanes past the pattern count stay 0");
        }
    }

    #[test]
    fn patterns_past_the_block_are_ignored() {
        let patterns: Vec<BitVec> = (0..130u64).map(|v| BitVec::from_u64(5, v)).collect();
        let words = pack_patterns::<2>(5, &patterns);
        assert_eq!(unpack_patterns(&words, 128), patterns[..128]);
        assert!(pack_patterns::<1>(4, &[]).iter().all(SimWord::is_zero));
    }

    #[test]
    #[should_panic(expected = "cannot unpack more than 64 patterns")]
    fn unpack_past_the_block_panics() {
        let _ = unpack_patterns(&[SimWord::<1>::ZERO; 3], 65);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let p = vec![BitVec::zeros(3)];
        let _ = pack_patterns::<1>(4, &p);
    }

    #[test]
    fn pack_at_matches_whole_block_packing() {
        // packing two segments at their offsets == packing the
        // concatenation in one go, within one word and across words
        for (na, nb) in [(5u64, 7u64), (80, 47)] {
            let a: Vec<BitVec> = (0..na).map(|v| BitVec::from_u64(6, v * 11)).collect();
            let b: Vec<BitVec> = (0..nb).map(|v| BitVec::from_u64(6, v * 23)).collect();
            let mut concat = a.clone();
            concat.extend(b.iter().cloned());
            let whole = pack_patterns::<2>(6, &concat);
            let mut words = vec![SimWord::<2>::ZERO; 6];
            pack_patterns_at(&mut words, 0, &a);
            pack_patterns_at(&mut words, a.len(), &b);
            assert_eq!(words, whole);
        }
    }

    #[test]
    fn lane_group_masks_tile_the_block() {
        let (a, b) = (lane_group_mask::<1>(0, 10), lane_group_mask::<1>(10, 54));
        assert_eq!(a | b, SimWord::MAX);
        assert_eq!(a & b, SimWord::ZERO);
        assert_eq!(lane_group_mask::<1>(63, 1).0, [1u64 << 63]);
        assert_eq!(lane_group_mask::<1>(0, 63).count_ones(), 63);
        // a group straddling word boundaries sets exactly its flat lanes
        let m = lane_group_mask::<4>(60, 10);
        assert_eq!(m.0, [0xF000_0000_0000_0000, 0b11_1111, 0, 0]);
        assert_eq!(m.count_ones(), 10);
        assert_eq!(m.trailing_zeros(), 60);
        assert_eq!(lane_group_mask::<4>(0, 256), SimWord::MAX);
        assert_eq!(lane_group_mask::<4>(100, 0), SimWord::ZERO);
        let a = lane_group_mask::<2>(0, 100);
        let b = lane_group_mask::<2>(100, 28);
        assert_eq!(a | b, SimWord::MAX);
        assert_eq!(a & b, SimWord::ZERO);
        assert_eq!(lane_group_mask::<2>(0, 70).0, [u64::MAX, 0b11_1111]);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn lane_group_overrun_panics() {
        let mut words = vec![SimWord::<1>::ZERO; 2];
        let patterns = vec![BitVec::zeros(2); 10];
        pack_patterns_at(&mut words, 60, &patterns);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn lane_group_mask_overrun_panics() {
        let _ = lane_group_mask::<1>(60, 5);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn lane_group_mask_overflow_panics_not_wraps() {
        // start + len overflows usize; without checked arithmetic the sum
        // wraps into range and silently yields a bogus in-range mask
        let _ = lane_group_mask::<1>(usize::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn lane_group_mask_wide_overflow_panics_not_wraps() {
        let _ = lane_group_mask::<8>(usize::MAX, 2);
    }
}
