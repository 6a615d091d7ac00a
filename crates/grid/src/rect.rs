//! Legal-rectangle decomposition (paper Fig. 5).
//!
//! "The domain is first divided into strips as before; then into rectangles
//! by defining a border every `m`-th column. We require that `m` divide `n`
//! evenly, and call these *legal rectangles*." (§3)
//!
//! Rows follow the strip remainder rule, so partitions come in at most two
//! heights; all partitions share the same width `m = n / pc`.

use crate::{Decomposition, Region, StripDecomposition};

/// A `pr × pc` grid of legal rectangles over an `n×n` domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectDecomposition {
    n: usize,
    pr: usize,
    pc: usize,
    strips: StripDecomposition,
}

impl RectDecomposition {
    /// Decomposes into `pr` row bands × `pc` column bands.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ pr ≤ n` and `pc` divides `n` (the paper's
    /// legality condition).
    pub fn new(n: usize, pr: usize, pc: usize) -> Self {
        assert!(
            pc >= 1 && n.is_multiple_of(pc),
            "column count {pc} must divide n={n} (legal rectangles)"
        );
        let strips = StripDecomposition::new(n, pr);
        Self { n, pr, pc, strips }
    }

    /// Tries to build a near-square decomposition for `p` processors:
    /// `pr·pc = p` with `pc | n`, choosing the factorization whose
    /// rectangles are most square (minimum perimeter for their area).
    /// Ties go to the smallest `pc`.
    ///
    /// A legal `pc` divides both `p` and `n`, so it divides their gcd `g`:
    /// the search walks `g`'s divisors in ascending order in O(√g) steps,
    /// and prices each candidate by its worst block in O(1), because
    /// every block is `n / pc` wide and the tallest row band is
    /// `⌈n / pr⌉`. Planning never grows with `n` or `p` themselves.
    ///
    /// Returns `None` when `p` has no factorization with `pc | n`.
    pub fn near_square(n: usize, p: usize) -> Option<Self> {
        if n == 0 || p == 0 {
            return None;
        }
        let g = gcd(n, p);
        let root = g.isqrt();
        let low = (1..=root).filter(|d| g.is_multiple_of(*d));
        let high = (1..=root).rev().filter(|d| g.is_multiple_of(*d) && d * d != g).map(|d| g / d);
        low.chain(high)
            .filter(|&pc| p / pc <= n)
            .min_by_key(|&pc| n.div_ceil(p / pc) + n / pc)
            .map(|pc| RectDecomposition::new(n, p / pc, pc))
    }

    /// Row bands.
    pub fn rows_of_blocks(&self) -> usize {
        self.pr
    }

    /// Column bands.
    pub fn cols_of_blocks(&self) -> usize {
        self.pc
    }

    /// Common block width `m = n / pc`.
    pub fn block_width(&self) -> usize {
        self.n / self.pc
    }

    /// Block index `(br, bc)` of partition `i` in row-major block order.
    pub fn block_of(&self, i: usize) -> (usize, usize) {
        assert!(i < self.count());
        (i / self.pc, i % self.pc)
    }

    /// Partition index of block `(br, bc)`.
    pub fn index_of(&self, br: usize, bc: usize) -> usize {
        assert!(br < self.pr && bc < self.pc);
        br * self.pc + bc
    }

    /// The 4-neighbourhood of partition `i` (N, S, W, E block neighbours).
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let (br, bc) = self.block_of(i);
        let mut v = Vec::with_capacity(4);
        if br > 0 {
            v.push(self.index_of(br - 1, bc));
        }
        if br + 1 < self.pr {
            v.push(self.index_of(br + 1, bc));
        }
        if bc > 0 {
            v.push(self.index_of(br, bc - 1));
        }
        if bc + 1 < self.pc {
            v.push(self.index_of(br, bc + 1));
        }
        v
    }
}

impl Decomposition for RectDecomposition {
    fn domain(&self) -> usize {
        self.n
    }

    fn count(&self) -> usize {
        self.pr * self.pc
    }

    fn region(&self, i: usize) -> Region {
        let (br, bc) = self.block_of(i);
        let rows = self.strips.row_range(br);
        let m = self.block_width();
        Region::new(rows.start, rows.end, bc * m, (bc + 1) * m)
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact_cover;

    /// The exhaustive search `near_square` replaced: every `pc ≤ min(n, p)`
    /// dividing both, each priced by scanning every block's perimeter,
    /// the first minimum in ascending `pc` winning.
    fn near_square_exhaustive(n: usize, p: usize) -> Option<(usize, usize)> {
        let mut best: Option<(usize, (usize, usize))> = None;
        for pc in 1..=p.min(n) {
            if !p.is_multiple_of(pc) || !n.is_multiple_of(pc) || p / pc > n {
                continue;
            }
            let d = RectDecomposition::new(n, p / pc, pc);
            let per = (0..d.count()).map(|i| d.region(i).perimeter()).max().unwrap();
            if best.is_none_or(|(bp, _)| per < bp) {
                best = Some((per, (p / pc, pc)));
            }
        }
        best.map(|(_, shape)| shape)
    }

    fn shape(d: RectDecomposition) -> (usize, usize) {
        (d.rows_of_blocks(), d.cols_of_blocks())
    }

    #[test]
    fn near_square_matches_the_exhaustive_search() {
        for n in 0..=128 {
            for p in 0..=128 {
                let got = RectDecomposition::near_square(n, p).map(shape);
                assert_eq!(got, near_square_exhaustive(n, p), "n = {n}, p = {p}");
            }
        }
        // Seeded larger pairs, built from small primes so that n and p
        // share many divisors and the ties and the row remainder matter.
        let mut rng = proptest::test_runner::TestRng::deterministic("near_square_larger_pairs");
        let draw = |rng: &mut proptest::test_runner::TestRng| {
            (0..1 + rng.below(7))
                .map(|_| [2, 2, 3, 3, 5, 7, 11, 13][rng.below(8) as usize])
                .product()
        };
        for _ in 0..300 {
            let n: usize = draw(&mut rng) + rng.below(2) as usize;
            let p: usize = draw(&mut rng);
            let got = RectDecomposition::near_square(n, p).map(shape);
            assert_eq!(got, near_square_exhaustive(n, p), "n = {n}, p = {p}");
        }
    }

    #[test]
    fn four_by_four_on_256() {
        let d = RectDecomposition::new(256, 4, 4);
        assert_eq!(d.count(), 16);
        assert_eq!(d.block_width(), 64);
        for i in 0..16 {
            let r = d.region(i);
            assert_eq!(r.area(), 64 * 64);
            assert_eq!(r.perimeter(), 4 * 64);
        }
        verify_exact_cover(256, &d.regions()).unwrap();
    }

    #[test]
    fn uneven_rows_follow_strip_rule() {
        // n=10, pr=3: heights 4,3,3. pc=2 → width 5.
        let d = RectDecomposition::new(10, 3, 2);
        assert_eq!(d.region(0), Region::new(0, 4, 0, 5));
        assert_eq!(d.region(1), Region::new(0, 4, 5, 10));
        assert_eq!(d.region(5), Region::new(7, 10, 5, 10));
        verify_exact_cover(10, &d.regions()).unwrap();
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_illegal_width() {
        let _ = RectDecomposition::new(10, 2, 3);
    }

    #[test]
    fn neighbors_form_mesh() {
        let d = RectDecomposition::new(8, 2, 2);
        assert_eq!(d.neighbors(0), vec![2, 1]);
        assert_eq!(d.neighbors(3), vec![1, 2]);
        let corner = d.neighbors(0);
        assert_eq!(corner.len(), 2);
        let d3 = RectDecomposition::new(9, 3, 3);
        assert_eq!(d3.neighbors(4).len(), 4); // centre block
    }

    #[test]
    fn near_square_prefers_square_blocks() {
        // p = 16 on n = 256: 4×4 blocks of 64×64 beat 2×8 or 16×1.
        let d = RectDecomposition::near_square(256, 16).unwrap();
        assert_eq!((d.rows_of_blocks(), d.cols_of_blocks()), (4, 4));
        // p = 2: factorizations 1×2 and 2×1 — blocks 256×128 either way.
        let d2 = RectDecomposition::near_square(256, 2).unwrap();
        assert_eq!(d2.count(), 2);
    }

    #[test]
    fn near_square_respects_divisibility() {
        // n = 100, p = 7: only pc = 1 divides 100 among factors of 7 (1, 7).
        let d = RectDecomposition::near_square(100, 7).unwrap();
        assert_eq!(d.cols_of_blocks(), 1);
        assert_eq!(d.rows_of_blocks(), 7);
        // p = 3 on n = 8: pc ∈ {1} only (3 does not divide 8).
        let d2 = RectDecomposition::near_square(8, 3).unwrap();
        assert_eq!(d2.cols_of_blocks(), 1);
    }

    #[test]
    fn exact_cover_sweep() {
        for n in [6usize, 12, 36] {
            for pr in [1usize, 2, 3, 5] {
                if pr > n {
                    continue;
                }
                for pc in [1usize, 2, 3, 6] {
                    if n % pc != 0 {
                        continue;
                    }
                    let d = RectDecomposition::new(n, pr, pc);
                    verify_exact_cover(n, &d.regions()).unwrap();
                }
            }
        }
    }

    #[test]
    fn block_index_round_trip() {
        let d = RectDecomposition::new(12, 3, 4);
        for i in 0..d.count() {
            let (br, bc) = d.block_of(i);
            assert_eq!(d.index_of(br, bc), i);
        }
    }
}
