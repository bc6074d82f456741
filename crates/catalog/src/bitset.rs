//! Multi-word bitset kernels for the large-`N` regime.
//!
//! The single-word fast paths added with [`crate::CompiledQuery`] stop at
//! 64 relations: past that, every placed-set test falls back to a general
//! word-loop over `⌈n/64⌉`-word slices, and the measured speedup collapses
//! (see `BENCH_compiled.json`). This module is the shared kernel layer
//! that keeps N = 100–1000 fast:
//!
//! * **Blocked masks** — masks are stored with a stride rounded up to
//!   [`BLOCK_WORDS`] words (4 × `u64` = one 32-byte half-cacheline per
//!   block), so kernels process fixed-size blocks with no remainder loop
//!   and the compiler keeps each block in registers.
//! * **Word-count-specialized dispatch** — every kernel has three tiers:
//!   one word (a single register, N ≤ 64), one block (a stack
//!   `[u64; 4]`, N ≤ 256), and the general chunked loop over 4-word
//!   blocks (any N). Callers branch once on [`mask_stride`] and stay on
//!   one tier for the whole query.
//! * **[`BlockMask`]** — a `Copy` one-block mask for plan-tree nodes
//!   (`TreePlan` stores two per node), raising the bushy-tree limit from
//!   64 to [`BlockMask::CAPACITY`] relations without giving up the
//!   snapshot/rollback undo log.
//!
//! Padding discipline: the words beyond the logical `⌈n/64⌉` within each
//! stride are **always zero**. Intersection-style kernels therefore
//! return identical results whether they scan the logical length or the
//! padded stride, which is what makes the blocked layout transparent to
//! the bit-identical differential suites.

/// Words per block: kernels consume masks in chunks of this many `u64`s.
pub const BLOCK_WORDS: usize = 4;

/// The storage stride, in words, for a mask whose logical length is
/// `words`: `1` stays `1` (the register tier needs no padding), anything
/// larger is rounded up to a multiple of [`BLOCK_WORDS`].
#[inline]
pub const fn mask_stride(words: usize) -> usize {
    if words <= 1 {
        1
    } else {
        words.div_ceil(BLOCK_WORDS) * BLOCK_WORDS
    }
}

/// The stride for masks over `n` relations (`mask_stride` of `⌈n/64⌉`,
/// at least 1). Mask buffers sized with this agree with the blocked
/// neighbor rows of a `CompiledQuery` over the same `n`.
#[inline]
pub const fn stride_for_relations(n: usize) -> usize {
    let words = n.div_ceil(64);
    mask_stride(if words == 0 { 1 } else { words })
}

/// Set bit `i` in a multi-word mask.
#[inline]
pub fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1u64 << (i % 64);
}

/// Test bit `i` in a multi-word mask.
#[inline]
pub fn test_bit(mask: &[u64], i: usize) -> bool {
    mask[i / 64] & (1u64 << (i % 64)) != 0
}

/// Copy `src` into the equal-length mask `dst`. The one-word tier is a
/// plain register move; wider masks go through `copy_from_slice` (a
/// `memcpy` call, which would dominate a one-word copy).
#[inline]
pub fn copy_mask(dst: &mut [u64], src: &[u64]) {
    match (dst, src) {
        ([d], [s]) => *d = *s,
        (dst, src) => dst.copy_from_slice(src),
    }
}

/// Whether two equal-stride masks share any set bit, specialized by
/// stride tier: single word, single block (branch-free OR-reduce over a
/// `[u64; 4]`), or the general chunked loop with per-block early exit.
///
/// Both slices must have the same length and that length must be a valid
/// [`mask_stride`] (1 or a multiple of [`BLOCK_WORDS`]).
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    match a.len() {
        1 => a[0] & b[0] != 0,
        BLOCK_WORDS => block_intersects(
            a.try_into().expect("one block"),
            b.try_into().expect("one block"),
        ),
        _ => {
            debug_assert_eq!(a.len() % BLOCK_WORDS, 0, "stride must be blocked");
            a.chunks_exact(BLOCK_WORDS)
                .zip(b.chunks_exact(BLOCK_WORDS))
                .any(|(ca, cb)| {
                    block_intersects(ca.try_into().expect("chunk"), cb.try_into().expect("chunk"))
                })
        }
    }
}

/// One-block intersection test: a branch-free OR-reduce the compiler
/// lowers to four ANDs and three ORs over registers.
#[inline]
fn block_intersects(a: &[u64; BLOCK_WORDS], b: &[u64; BLOCK_WORDS]) -> bool {
    ((a[0] & b[0]) | (a[1] & b[1]) | (a[2] & b[2]) | (a[3] & b[3])) != 0
}

/// A one-block (`[u64; 4]`) relation mask: the `Copy` set representation
/// plan-tree nodes carry for subtree membership and neighbor sets.
///
/// Capacity is [`BlockMask::CAPACITY`] relations; constructors and
/// `insert` debug-assert the index range. All operations are branch-free
/// register code — no heap, no loops the optimizer has to unroll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockMask {
    words: [u64; BLOCK_WORDS],
}

impl BlockMask {
    /// Maximum number of distinct relation indices a `BlockMask` holds.
    pub const CAPACITY: usize = BLOCK_WORDS * 64;

    /// The empty mask.
    #[inline]
    pub const fn empty() -> Self {
        BlockMask {
            words: [0; BLOCK_WORDS],
        }
    }

    /// The singleton mask `{i}`.
    #[inline]
    pub fn singleton(i: usize) -> Self {
        let mut m = Self::empty();
        m.insert(i);
        m
    }

    /// Build from the leading words of a logical mask slice (at most one
    /// block's worth; shorter slices are zero-extended).
    #[inline]
    pub fn from_words(words: &[u64]) -> Self {
        debug_assert!(words.len() <= BLOCK_WORDS);
        let mut m = Self::empty();
        m.words[..words.len()].copy_from_slice(words);
        m
    }

    /// Set bit `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < Self::CAPACITY);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        debug_assert!(i < Self::CAPACITY);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Whether any bit is shared with `other`.
    #[inline]
    pub fn intersects(&self, other: &BlockMask) -> bool {
        block_intersects(&self.words, &other.words)
    }

    /// Whether no bit is shared with `other`.
    #[inline]
    pub fn is_disjoint(&self, other: &BlockMask) -> bool {
        !self.intersects(other)
    }

    /// Whether the mask is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (self.words[0] | self.words[1] | self.words[2] | self.words[3]) == 0
    }

    /// The union of two masks.
    #[inline]
    pub fn union(&self, other: &BlockMask) -> BlockMask {
        BlockMask {
            words: [
                self.words[0] | other.words[0],
                self.words[1] | other.words[1],
                self.words[2] | other.words[2],
                self.words[3] | other.words[3],
            ],
        }
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words[0].count_ones()
            + self.words[1].count_ones()
            + self.words[2].count_ones()
            + self.words[3].count_ones()
    }

    /// The raw words.
    #[inline]
    pub fn words(&self) -> &[u64; BLOCK_WORDS] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_tiers() {
        assert_eq!(mask_stride(1), 1);
        assert_eq!(mask_stride(2), 4);
        assert_eq!(mask_stride(4), 4);
        assert_eq!(mask_stride(5), 8);
        assert_eq!(mask_stride(16), 16);
        assert_eq!(stride_for_relations(0), 1);
        assert_eq!(stride_for_relations(64), 1);
        assert_eq!(stride_for_relations(65), 4);
        assert_eq!(stride_for_relations(256), 4);
        assert_eq!(stride_for_relations(257), 8);
        assert_eq!(stride_for_relations(1000), 16);
    }

    #[test]
    fn intersects_matches_scalar_on_all_tiers() {
        for &stride in &[1usize, 4, 8, 16] {
            let bits = stride * 64;
            // Deterministic pseudo-random masks via a simple LCG.
            let mut s = 0x9e3779b97f4a7c15u64;
            let mut next = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s
            };
            for trial in 0..50 {
                let mut a = vec![0u64; stride];
                let mut b = vec![0u64; stride];
                for w in 0..stride {
                    a[w] = next() & next();
                    b[w] = next() & next();
                }
                if trial % 5 == 0 {
                    b.fill(0); // force the disjoint branch
                }
                let scalar = (0..bits).any(|i| test_bit(&a, i) && test_bit(&b, i));
                assert_eq!(intersects(&a, &b), scalar, "stride {stride} trial {trial}");
            }
        }
    }

    #[test]
    fn block_mask_ops() {
        let mut a = BlockMask::empty();
        assert!(a.is_empty());
        a.insert(0);
        a.insert(63);
        a.insert(64);
        a.insert(255);
        assert_eq!(a.count_ones(), 4);
        assert!(a.test(64) && !a.test(65));

        let b = BlockMask::singleton(64);
        assert!(a.intersects(&b));
        assert!(a.is_disjoint(&BlockMask::singleton(70)));

        let u = a.union(&b);
        assert_eq!(u, a);
        assert_eq!(BlockMask::from_words(&[1, 2]).count_ones(), 2);
    }
}
