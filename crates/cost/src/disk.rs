//! Disk-based hash-join cost model (after Bratbergsengen \[Bra84\]).

use ljqo_catalog::{Query, RelId};

use crate::model::{bound_ingredients, CostModel, JoinCtx};

/// Cost model for disk-based hash-join processing.
///
/// Follows the classic I/O analysis of hash-based relational algebra
/// operations \[Bra84\]: the inner (build) relation is read from disk; if
/// its hash table fits in memory the outer is streamed through once,
/// otherwise both inputs are partitioned to disk and re-read
/// (Grace-style), tripling the transfer volume. Intermediate results are
/// materialized: each join writes its output, which the next join reads
/// back as its outer input. Costs are expressed in abstract units with one
/// page I/O costing `io_weight` and one tuple of CPU work costing
/// `cpu_weight`, so that the two models in this crate are on comparable
/// scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskCostModel {
    /// Bytes per page.
    pub page_bytes: f64,
    /// Bytes per tuple (uniform, as in the paper's synthetic setting).
    pub tuple_bytes: f64,
    /// Pages of main memory available to the join.
    pub mem_pages: f64,
    /// Cost units per page I/O.
    pub io_weight: f64,
    /// Cost units per tuple of CPU work (hash/probe/copy).
    pub cpu_weight: f64,
}

impl Default for DiskCostModel {
    fn default() -> Self {
        DiskCostModel {
            page_bytes: 4096.0,
            tuple_bytes: 128.0,
            mem_pages: 64.0, // 256 KiB of join memory - mid-1980s scale
            io_weight: 20.0,
            cpu_weight: 1.0,
        }
    }
}

impl DiskCostModel {
    /// Pages occupied by `card` base-relation tuples (at least one page
    /// for any non-empty input).
    #[inline]
    pub fn pages(&self, card: f64) -> f64 {
        self.pages_wide(card, 1)
    }

    /// Pages occupied by `card` tuples of `width` base relations.
    /// Intermediate results carry the concatenation of their constituents'
    /// fields, so they widen as the plan progresses — exactly the effect
    /// Bratbergsengen's page counts capture, and a cost shape outside the
    /// `Σ|outer|·g(inner)` (ASI) form required by the KBZ rank theory.
    #[inline]
    pub fn pages_wide(&self, card: f64, width: usize) -> f64 {
        (card * self.tuple_bytes * width as f64 / self.page_bytes)
            .ceil()
            .max(1.0)
    }

    /// I/O pages transferred by one hash join with the given operand sizes.
    fn join_io_pages(&self, outer_pages: f64, inner_pages: f64, output_pages: f64) -> f64 {
        let transfer = if inner_pages <= self.mem_pages {
            // Classic hashing: build fits, read each input once.
            outer_pages + inner_pages
        } else {
            // Grace hash join: partition both inputs (read + write), then
            // read the partitions back -> 3x transfer volume.
            3.0 * (outer_pages + inner_pages)
        };
        transfer + output_pages
    }
}

impl CostModel for DiskCostModel {
    fn join_cost(&self, ctx: &JoinCtx) -> f64 {
        let outer_pages = self.pages_wide(ctx.outer_card, ctx.outer_rels);
        let inner_pages = self.pages_wide(ctx.inner_card, ctx.inner_rels);
        let output_pages = self.pages_wide(ctx.output_card, ctx.outer_rels + ctx.inner_rels);
        let io = if ctx.is_cross_product {
            // Block nested loops: scan the inner once per memory-load of
            // the outer.
            let outer_loads = (outer_pages / self.mem_pages.max(1.0)).ceil().max(1.0);
            outer_pages + outer_loads * inner_pages + output_pages
        } else {
            self.join_io_pages(outer_pages, inner_pages, output_pages)
        };
        let cpu = ctx.outer_card + ctx.inner_card + ctx.output_card;
        self.io_weight * io + self.cpu_weight * cpu
    }

    fn name(&self) -> &'static str {
        "disk"
    }

    /// Admissible bound: each relation except the first must be read at
    /// least once as a build input, and the final result must be written
    /// at full width.
    fn lower_bound(&self, query: &Query, component: &[RelId]) -> f64 {
        if component.len() < 2 {
            return 0.0;
        }
        let (final_size, cards) = bound_ingredients(query, component);
        let read_sum: f64 = cards.iter().map(|&c| self.pages(c)).sum();
        let read_max = cards.iter().map(|&c| self.pages(c)).fold(0.0, f64::max);
        self.io_weight * ((read_sum - read_max) + self.pages_wide(final_size, component.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OrderCost;
    use ljqo_catalog::QueryBuilder;

    #[test]
    fn pages_round_up() {
        let m = DiskCostModel::default();
        // 32 tuples per page at the defaults.
        assert_eq!(m.pages(1.0), 1.0);
        assert_eq!(m.pages(32.0), 1.0);
        assert_eq!(m.pages(33.0), 2.0);
        assert_eq!(m.pages(0.0), 1.0);
    }

    #[test]
    fn grace_join_kicks_in_when_build_exceeds_memory() {
        let m = DiskCostModel::default();
        let small = m.join_cost(&JoinCtx {
            outer_card: 1000.0,
            inner_card: 1000.0, // 32 pages <= 64 -> in-memory
            output_card: 100.0,
            outer_rels: 1,
            inner_rels: 1,
            is_cross_product: false,
        });
        let large = m.join_cost(&JoinCtx {
            outer_card: 1000.0,
            inner_card: 10_000.0, // 313 pages > 64 -> Grace
            output_card: 100.0,
            outer_rels: 1,
            inner_rels: 1,
            is_cross_product: false,
        });
        // The large build should cost much more than 10x the small one's
        // inner contribution because of the 3x partitioning transfer.
        assert!(large > small * 3.0);
    }

    #[test]
    fn a_wide_inner_operand_is_priced_at_its_own_width() {
        // 1000 tuples fill 32 pages at width 1, a classic in-memory
        // build; at width 3 they fill 94 pages and the join goes Grace.
        let m = DiskCostModel::default();
        let ctx = JoinCtx {
            outer_card: 1000.0,
            inner_card: 1000.0,
            output_card: 100.0,
            outer_rels: 1,
            inner_rels: 1,
            is_cross_product: false,
        };
        let cpu = (1000.0 + 1000.0 + 100.0) * m.cpu_weight;
        let io = |c: f64| (c - cpu) / m.io_weight;
        // Classic: 32 + 32 pages in, 7 pages (width 2) out.
        assert_eq!(io(m.join_cost(&ctx)), 32.0 + 32.0 + 7.0);
        // Grace: 3 · (32 + 94) pages moved, 13 pages (width 4) out.
        let wide = JoinCtx {
            inner_rels: 3,
            ..ctx
        };
        assert_eq!(io(m.join_cost(&wide)), 3.0 * (32.0 + 94.0) + 13.0);
    }

    #[test]
    fn cross_product_io_scales_with_outer_loads() {
        let m = DiskCostModel {
            mem_pages: 2.0,
            ..DiskCostModel::default()
        };
        let c = m.join_cost(&JoinCtx {
            outer_card: 256.0, // 8 pages -> 4 loads of the inner
            inner_card: 64.0,  // 2 pages
            output_card: 256.0 * 64.0,
            outer_rels: 1,
            inner_rels: 1,
            is_cross_product: true,
        });
        assert!(c > 0.0);
        // Outer: 8 pages (width 1) -> 4 memory loads of the inner (2
        // pages); output is width 2: 16384·128·2/4096 = 1024 pages.
        // IO = 8 + 4·2 + 1024 = 1040 pages.
        let io_expected = 1040.0 * m.io_weight;
        let cpu_expected = (256.0 + 64.0 + 16384.0) * m.cpu_weight;
        assert!((c - (io_expected + cpu_expected)).abs() < 1e-6);
    }

    #[test]
    fn lower_bound_admissible() {
        let q = QueryBuilder::new()
            .relation("a", 5000)
            .relation("b", 20000)
            .relation("c", 100)
            .join("a", "b", 0.0001)
            .join("b", "c", 0.001)
            .build()
            .unwrap();
        let m = DiskCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let lb = m.lower_bound(&q, &comp);
        assert!(lb > 0.0);
        for perm in [[0u32, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]] {
            let o: Vec<RelId> = perm.iter().map(|&i| RelId(i)).collect();
            let c = m.order_cost(&q, &o);
            assert!(lb <= c + 1e-9, "bound {lb} > cost {c} for {perm:?}");
        }
    }
}
