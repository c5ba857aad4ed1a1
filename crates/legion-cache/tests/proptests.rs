//! Property-based tests for CSLP, the cost model — including the
//! §4.3.3 parallel-search machinery checked against a brute-force
//! reference implementation of Equations 2-8 — and the cache fill walk.

use proptest::prelude::*;

use legion_cache::unified::CacheHit;
use legion_cache::{
    cslp, hotness_order, place_prefix, sort_by_hotness, CliqueCache, CostModel, CslpOutput,
    HotnessMatrix,
};
use legion_graph::builder::from_edges;
use legion_graph::{feature_bytes_for_dim, topology_bytes_for_degree, CsrGraph, VertexId};

/// A hotness matrix written out densely: `K_g` rows of one length, and
/// each vertex's cached row size when the rows differ in size.
#[derive(Debug, Clone)]
struct Dense {
    rows: Vec<Vec<u64>>,
    bytes: Option<Vec<u64>>,
}

impl Dense {
    fn num_vertices(&self) -> usize {
        self.rows[0].len()
    }

    /// The matrix `cslp` reads: the rows' support, sized as `bytes` says,
    /// written odd ids first, then even ones, as pre-sampling writes a
    /// support in the order its slots first reach the vertices.
    fn matrix(&self) -> HotnessMatrix {
        let n = self.num_vertices();
        let (mut support, mut values) = (Vec::new(), Vec::new());
        for v in (1..n).step_by(2).chain((0..n).step_by(2)) {
            if self.rows.iter().any(|r| r[v] > 0) {
                support.push(v as VertexId);
                values.extend(self.rows.iter().map(|r| r[v]));
            }
        }
        let h = HotnessMatrix::from_support(self.rows.len(), n, support, values);
        match &self.bytes {
            Some(bytes) => h.with_vertex_bytes(|v| bytes[v as usize]),
            None => h,
        }
    }
}

/// Algorithm 1 over the dense rows as first written: sum and argmax over
/// every vertex, then one stable sort of every vertex by descending
/// hotness — per byte, compared exactly, when the rows are sized — ties
/// toward the smaller id.
fn cslp_by_full_sort(h: &Dense) -> CslpOutput {
    let n = h.num_vertices();
    let accumulated: Vec<u64> = (0..n).map(|v| h.rows.iter().map(|r| r[v]).sum()).collect();
    let owner = (0..n)
        .map(|v| {
            let mut best = 0;
            for g in 1..h.rows.len() {
                if h.rows[g][v] > h.rows[best][v] {
                    best = g;
                }
            }
            best as u32
        })
        .collect();
    let size = |v: VertexId| h.bytes.as_ref().map_or(1, |b| b[v as usize]);
    let mut clique_order: Vec<VertexId> = (0..n as VertexId).collect();
    clique_order.sort_by(|&a, &b| {
        let (h_a, h_b) = (accumulated[a as usize], accumulated[b as usize]);
        (u128::from(h_b) * u128::from(size(a)))
            .cmp(&(u128::from(h_a) * u128::from(size(b))))
            .then(a.cmp(&b))
    });
    CslpOutput {
        accumulated,
        clique_order,
        owner,
    }
}

/// Dense matrices of 1 to 4 GPU rows whose cells stay below 10^3, 2^24
/// or 2^44: one, three or four radix digits of [`hotness_order`]'s key.
/// Every vertex is hot somewhere in most draws: the support is full.
fn hotness_strategy() -> impl Strategy<Value = Dense> {
    let limit = prop_oneof![Just(1000u64), Just(1 << 24), Just(1 << 44)];
    (1usize..=4, 1usize..40, limit).prop_flat_map(|(gpus, n, limit)| {
        proptest::collection::vec(0u64..limit, gpus * n).prop_map(move |vals| Dense {
            rows: vals.chunks(n).map(<[u64]>::to_vec).collect(),
            bytes: None,
        })
    })
}

/// Sparse matrices over a tiny value range: 1 to 4 GPU rows, 0 to 59
/// vertices, most cells zero (whole matrices come out all-zero: an empty
/// support) and non-zero cells in `1..4`, so hotness ties are the common
/// case.
fn sparse_tied_hotness() -> impl Strategy<Value = Dense> {
    (1usize..=4, 0usize..60, 1u64..12).prop_flat_map(|(gpus, n, one_in)| {
        proptest::collection::vec((0..one_in, 1u64..4), gpus * n).prop_map(move |cells| {
            let mut rows = vec![vec![0; n]; gpus];
            for (i, &(roll, value)) in cells.iter().enumerate() {
                if roll == 0 {
                    rows[i / n][i % n] = value;
                }
            }
            Dense { rows, bytes: None }
        })
    })
}

/// Hotness vectors by `shape`: all zero, all equal, or (half the draws)
/// values of up to `11 * digits` bits — one to six digits of
/// [`hotness_order`]'s key — with a quarter zero and a quarter in `1..4`,
/// so ties are common. Lengths start at zero.
fn hotness_vector() -> impl Strategy<Value = Vec<u64>> {
    let raw = proptest::collection::vec(any::<u64>(), 0..300);
    (0u8..4, 1u32..=6, raw).prop_map(|(shape, digits, raw)| {
        let bits = (11 * digits).min(u64::BITS);
        match shape {
            0 => vec![0; raw.len()],
            1 => vec![raw.first().map_or(0, |&x| x >> (u64::BITS - bits)); raw.len()],
            _ => raw
                .iter()
                .map(|&x| match x % 4 {
                    0 => 0,
                    1 => 1 + (x >> 62),
                    _ => x >> (u64::BITS - bits),
                })
                .collect(),
        }
    })
}

/// Hotness split over 1 to 4 GPU rows beside each vertex's Equation 3
/// row size, for 0 to 59 vertices of degree below 300. A quarter of the
/// vertices are cold and a quarter carry `1..5`, so per-byte ties are
/// common; the rest reach 2^40.
fn sized_hotness() -> impl Strategy<Value = Dense> {
    let cell = (0u64..300, 0u64..4, 0u64..1 << 40, 0usize..4);
    (1usize..=4, proptest::collection::vec(cell, 0..60)).prop_map(|(gpus, cells)| {
        let mut rows = vec![vec![0; cells.len()]; gpus];
        for (v, &(_, roll, x, g)) in cells.iter().enumerate() {
            rows[g % gpus][v] = match roll {
                0 => 0,
                1 => 1 + x % 4,
                _ => x,
            };
        }
        let bytes = cells
            .iter()
            .map(|&(deg, ..)| topology_bytes_for_degree(deg))
            .collect();
        Dense {
            rows,
            bytes: Some(bytes),
        }
    })
}

/// One GPU row whose ratios only exact arithmetic tells apart: hotness
/// near 2^53, where neighbouring values round to one `f64`, and near
/// `u64::MAX`, where the cross products pass `u64`; sizes a few apart.
fn wide_sized_hotness() -> impl Strategy<Value = Dense> {
    let base = prop_oneof![Just(1u64 << 53), Just(u64::MAX - 8)];
    (
        base,
        proptest::collection::vec((0u64..8, 996u64..1004), 1..8),
    )
        .prop_map(|(base, cells)| {
            let (hot, bytes) = cells
                .iter()
                .map(|&(d, b)| (base.saturating_add(d), b))
                .unzip();
            Dense {
                rows: vec![hot],
                bytes: Some(bytes),
            }
        })
}

/// [`hotness_strategy`] and [`sized_hotness`] draws with every column
/// made cold (an empty support) or hot (a full one): CSLP's zero tail
/// holds every vertex or none.
fn extreme_supports() -> impl Strategy<Value = Dense> {
    let draws = (
        hotness_strategy(),
        sized_hotness(),
        any::<bool>(),
        any::<bool>(),
    );
    draws.prop_map(|(plain, sized, pick_sized, full)| {
        let mut h = if pick_sized { sized } else { plain };
        for v in 0..h.num_vertices() {
            let cold = h.rows.iter().all(|r| r[v] == 0);
            if !full {
                h.rows.iter_mut().for_each(|r| r[v] = 0);
            } else if cold {
                let gpus = h.rows.len();
                h.rows[v % gpus][v] = 1 + v as u64 % 3;
            }
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cslp_matches_the_full_sort_oracle_dense(h in hotness_strategy()) {
        prop_assert_eq!(cslp(&h.matrix()), cslp_by_full_sort(&h));
    }

    #[test]
    fn cslp_matches_the_full_sort_oracle_sparse_with_ties(h in sparse_tied_hotness()) {
        prop_assert_eq!(cslp(&h.matrix()), cslp_by_full_sort(&h));
    }

    /// The support-walking CSLP, sized rows and all, equals the dense
    /// full-sort reference over every vertex.
    #[test]
    fn sized_cslp_matches_the_full_sort_oracle(h in sized_hotness()) {
        prop_assert_eq!(cslp(&h.matrix()), cslp_by_full_sort(&h));
    }

    #[test]
    fn wide_sized_cslp_matches_the_full_sort_oracle(h in wide_sized_hotness()) {
        prop_assert_eq!(cslp(&h.matrix()), cslp_by_full_sort(&h));
    }

    #[test]
    fn cslp_matches_the_full_sort_oracle_at_empty_and_full_supports(h in extreme_supports()) {
        let n = h.num_vertices();
        let hot = (0..n).filter(|&v| h.rows.iter().any(|r| r[v] > 0)).count();
        prop_assert!(hot == 0 || hot == n, "{} of {} vertices hot", hot, n);
        prop_assert_eq!(cslp(&h.matrix()), cslp_by_full_sort(&h));
    }

    /// The counting sort lists every vertex in the comparator's order,
    /// whatever number of digits the hotness spans.
    #[test]
    fn hotness_order_matches_the_comparator_sort(hot in hotness_vector()) {
        let mut expected: Vec<VertexId> = (0..hot.len() as VertexId).collect();
        sort_by_hotness(&mut expected, &hot);
        prop_assert_eq!(hotness_order(&hot), expected);
    }

    #[test]
    fn cslp_clique_order_is_a_hotness_sorted_permutation(h in hotness_strategy()) {
        let out = cslp(&h.matrix());
        let n = h.num_vertices();
        // Permutation of all vertices.
        let mut sorted = out.clique_order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as VertexId).collect::<Vec<_>>());
        // Descending accumulated hotness.
        for w in out.clique_order.windows(2) {
            prop_assert!(
                out.accumulated[w[0] as usize] >= out.accumulated[w[1] as usize]
            );
        }
        // Every vertex has one owner in the clique.
        prop_assert_eq!(out.owner.len(), n);
        prop_assert!(out.owner.iter().all(|&g| (g as usize) < h.rows.len()));
        // Local preference: each vertex sits on its argmax GPU.
        for v in 0..n {
            let owner = out.owner[v] as usize;
            for (g, row) in h.rows.iter().enumerate() {
                prop_assert!(h.rows[owner][v] >= row[v] || owner < g);
            }
        }
    }
}

/// Accumulated hotness of the longest prefix of `order` whose row sizes
/// fit in `budget` bytes: what a cache plan holds (Equation 3's walk).
fn prefix_hotness(order: &[VertexId], hot: &[u64], bytes: &[u64], budget: u64) -> u64 {
    let (mut used, mut held) = (0, 0);
    for &v in order {
        used += bytes[v as usize];
        if used > budget {
            break;
        }
        held += hot[v as usize];
    }
    held
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With row sizes attached, `Q_T` is every vertex by descending
    /// hotness per byte, compared exactly, ties to the lower id; owners
    /// and the accumulated vector do not depend on the sizes.
    #[test]
    fn sized_cslp_orders_by_hotness_per_byte(h in sized_hotness()) {
        let out = cslp(&h.matrix());
        let bytes = h.bytes.as_deref().expect("sized");
        let hot = &out.accumulated;
        let mut sorted = out.clique_order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..h.num_vertices() as VertexId).collect::<Vec<_>>());
        for w in out.clique_order.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            let lhs = u128::from(hot[a]) * u128::from(bytes[b]);
            let rhs = u128::from(hot[b]) * u128::from(bytes[a]);
            prop_assert!(lhs > rhs || (lhs == rhs && a < b), "{} before {}", a, b);
        }
        let bare = Dense { bytes: None, ..h };
        let plain = cslp(&bare.matrix());
        prop_assert_eq!(&plain.accumulated, &out.accumulated);
        prop_assert_eq!(&plain.owner, &out.owner);
    }

    /// One size for every row (the feature matrix's case) leaves the
    /// hotness order as it is.
    #[test]
    fn uniform_sizes_keep_the_hotness_order(h in hotness_strategy(), size in 1u64..5000) {
        let sized = h.matrix().with_vertex_bytes(|_| size);
        prop_assert_eq!(cslp(&sized), cslp(&h.matrix()));
    }

    /// The greedy knapsack bound: at every budget, the per-byte prefix
    /// holds at least the hotness-order prefix's accumulated hotness
    /// minus the largest single row's.
    #[test]
    fn per_byte_prefix_loses_at_most_one_row_to_the_hotness_prefix(
        h in sized_hotness(),
        extra in proptest::collection::vec(0u64..1 << 16, 4),
    ) {
        let by_byte = cslp(&h.matrix());
        let bytes = h.bytes.as_deref().expect("sized");
        let hot = &by_byte.accumulated;
        let by_hotness = hotness_order(hot);
        let largest = hot.iter().copied().max().unwrap_or(0);
        // Every prefix boundary of either order, and a few in between.
        let mut budgets = extra;
        for order in [&by_byte.clique_order, &by_hotness] {
            let mut used = 0;
            for &v in order.iter() {
                used += bytes[v as usize];
                budgets.extend([used - 1, used]);
            }
        }
        for budget in budgets {
            let per_byte = prefix_hotness(&by_byte.clique_order, hot, bytes, budget);
            let hottest = prefix_hotness(&by_hotness, hot, bytes, budget);
            prop_assert!(
                per_byte + largest >= hottest,
                "budget {}: per-byte prefix {} vs hotness prefix {} (largest row {})",
                budget, per_byte, hottest, largest
            );
        }
    }
}

/// Brute-force re-implementation of Equations 3-8 by walking the order
/// linearly (no prefix sums, no binary search).
#[allow(clippy::too_many_arguments)]
fn brute_force_n_total(
    graph: &CsrGraph,
    q_t: &[VertexId],
    a_t: &[u64],
    q_f: &[VertexId],
    a_f: &[u64],
    n_tsum: u64,
    dim: usize,
    cls: u64,
    budget: u64,
    alpha: f64,
) -> (f64, f64) {
    let m_t = (budget as f64 * alpha).floor() as u64;
    let m_f = budget - m_t;
    // Equation 3.
    let mut used = 0u64;
    let mut cached_t_hot = 0u64;
    for &v in q_t {
        let cost = topology_bytes_for_degree(graph.degree(v));
        if used + cost > m_t {
            break;
        }
        used += cost;
        cached_t_hot += a_t[v as usize];
    }
    let total_t: u64 = a_t.iter().sum();
    let r_t = if total_t == 0 {
        0.0
    } else {
        cached_t_hot as f64 / total_t as f64
    };
    let n_t = n_tsum as f64 * (1.0 - r_t);
    // Equations 6-8.
    let row = feature_bytes_for_dim(dim as u64);
    let mut fused = 0u64;
    let mut cached_f_hot = 0u64;
    for &v in q_f {
        if fused + row > m_f {
            break;
        }
        fused += row;
        cached_f_hot += a_f[v as usize];
    }
    let total_f: u64 = q_f.iter().map(|&v| a_f[v as usize]).sum();
    let u_f = total_f - cached_f_hot;
    let n_f = (row.div_ceil(cls) * u_f) as f64;
    (n_t, n_f)
}

fn model_inputs() -> impl Strategy<Value = (CsrGraph, Vec<VertexId>, Vec<u64>, Vec<u64>, u64, usize)>
{
    (4usize..32).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..128),
            proptest::collection::vec(0u64..500, n),
            proptest::collection::vec(0u64..500, n),
            0u64..100_000,
            1usize..64,
        )
            .prop_map(move |(edges, a_t, a_f, n_tsum, dim)| {
                let g = from_edges(n, &edges);
                // A hotness-sorted order, as CSLP would produce.
                let mut q: Vec<VertexId> = (0..n as VertexId).collect();
                q.sort_by(|&x, &y| a_t[y as usize].cmp(&a_t[x as usize]));
                (g, q, a_t, a_f, n_tsum, dim)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefix_sum_model_matches_brute_force(
        (g, q, a_t, a_f, n_tsum, dim) in model_inputs(),
        budget in 0u64..100_000,
        alpha_pct in 0u32..=100,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        // Feature order: sorted by feature hotness.
        let mut q_f: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        q_f.sort_by(|&x, &y| a_f[y as usize].cmp(&a_f[x as usize]));
        let model = CostModel::new(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64);
        let eval = model.evaluate(budget, alpha);
        let (bf_n_t, bf_n_f) =
            brute_force_n_total(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64, budget, alpha);
        prop_assert!((eval.n_t - bf_n_t).abs() < 1e-6, "N_T {} vs {}", eval.n_t, bf_n_t);
        prop_assert!((eval.n_f - bf_n_f).abs() < 1e-6, "N_F {} vs {}", eval.n_f, bf_n_f);
    }

    #[test]
    fn traffic_is_monotone_in_budget(
        (g, q, a_t, a_f, n_tsum, dim) in model_inputs(),
        alpha_pct in 0u32..=100,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let mut q_f: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        q_f.sort_by(|&x, &y| a_f[y as usize].cmp(&a_f[x as usize]));
        let model = CostModel::new(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64);
        let mut prev = f64::INFINITY;
        for budget in [0u64, 100, 1000, 10_000, 100_000, 1_000_000] {
            let total = model.evaluate(budget, alpha).n_total();
            prop_assert!(total <= prev + 1e-9, "traffic grew with budget");
            prev = total;
        }
    }

    #[test]
    fn zero_budget_traffic_is_the_uncached_total(
        (g, q, a_t, a_f, n_tsum, dim) in model_inputs(),
        alpha_pct in 0u32..=100,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let mut q_f: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        q_f.sort_by(|&x, &y| a_f[y as usize].cmp(&a_f[x as usize]));
        let model = CostModel::new(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64);
        let eval = model.evaluate(0, alpha);
        // Nothing cached: all of N_TSUM plus one Equation 8 feature read
        // per unit of feature hotness.
        let row = feature_bytes_for_dim(dim as u64);
        let total_feat_hotness: u64 = a_f.iter().sum();
        let expected = n_tsum as f64 + (row.div_ceil(64) * total_feat_hotness) as f64;
        prop_assert!(
            (eval.n_total() - expected).abs() < 1e-6,
            "budget-0 N_total {} != {expected}",
            eval.n_total()
        );
    }

    #[test]
    fn n_t_and_n_f_are_individually_monotone_in_budget(
        (g, q, a_t, a_f, n_tsum, dim) in model_inputs(),
        alpha_pct in 0u32..=100,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let mut q_f: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        q_f.sort_by(|&x, &y| a_f[y as usize].cmp(&a_f[x as usize]));
        let model = CostModel::new(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64);
        let mut prev_t = f64::INFINITY;
        let mut prev_f = f64::INFINITY;
        for budget in [0u64, 100, 1000, 10_000, 100_000, 1_000_000] {
            let eval = model.evaluate(budget, alpha);
            prop_assert!(eval.n_t <= prev_t + 1e-9, "N_T grew with budget");
            prop_assert!(eval.n_f <= prev_f + 1e-9, "N_F grew with budget");
            prev_t = eval.n_t;
            prev_f = eval.n_f;
        }
    }

    #[test]
    fn best_plan_is_global_minimum_of_sweep(
        (g, q, a_t, a_f, n_tsum, dim) in model_inputs(),
        budget in 1u64..50_000,
    ) {
        let mut q_f: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        q_f.sort_by(|&x, &y| a_f[y as usize].cmp(&a_f[x as usize]));
        let model = CostModel::new(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64);
        let best = model.best_plan(budget, 0.05);
        for e in model.sweep(budget, 0.05) {
            prop_assert!(best.n_total() <= e.n_total() + 1e-9);
        }
    }
}

// ---------------------------------------------------------------------------
// Three-tier (HBM/DRAM/SSD) placement invariants.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A hotter feature row must never land in a slower tier than a
    /// colder one: the tiered evaluation assigns tiers along the
    /// hotness-sorted `Q_F` prefix by prefix, so tier rank (HBM=0,
    /// DRAM=1, SSD=2) is non-decreasing in coldness for every budget
    /// pair and alpha.
    #[test]
    fn tiered_placement_is_monotone_in_hotness(
        (g, q, a_t, a_f, n_tsum, dim) in model_inputs(),
        hbm_budget in 0u64..50_000,
        dram_budget in 0u64..50_000,
        alpha_pct in 0u32..=100,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let n = g.num_vertices();
        let mut q_f: Vec<VertexId> = (0..n as VertexId).collect();
        q_f.sort_by(|&x, &y| a_f[y as usize].cmp(&a_f[x as usize]));
        let model = CostModel::new(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64);
        let t = model.evaluate_tiered(hbm_budget, dram_budget, alpha, 4096);
        // The three tiers partition the feature order.
        prop_assert_eq!(
            t.plan.feat_cached_vertices + t.dram_feat_vertices + t.ssd_feat_vertices,
            n
        );
        let tier_of = |v: VertexId| {
            let pos = q_f.iter().position(|&x| x == v).unwrap();
            if pos < t.plan.feat_cached_vertices {
                0u8
            } else if pos < t.plan.feat_cached_vertices + t.dram_feat_vertices {
                1
            } else {
                2
            }
        };
        for x in 0..n as VertexId {
            for y in 0..n as VertexId {
                if a_f[x as usize] > a_f[y as usize] {
                    prop_assert!(
                        tier_of(x) <= tier_of(y),
                        "hotter vertex {} (w {}) in tier {} behind {} (w {}) in tier {}",
                        x, a_f[x as usize], tier_of(x), y, a_f[y as usize], tier_of(y)
                    );
                }
            }
        }
    }

    /// An infinite DRAM budget must degenerate the three-tier sweep to
    /// the two-tier planner exactly: no SSD rows, zero NVMe traffic,
    /// and a chosen plan bit-identical to `best_plan`'s (same alpha
    /// tie-break, same traffic terms).
    #[test]
    fn infinite_dram_budget_degenerates_to_two_tier(
        (g, q, a_t, a_f, n_tsum, dim) in model_inputs(),
        hbm_budget in 0u64..50_000,
    ) {
        let mut q_f: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        q_f.sort_by(|&x, &y| a_f[y as usize].cmp(&a_f[x as usize]));
        let model = CostModel::new(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64);
        let tiered = model.best_plan_tiered(hbm_budget, u64::MAX, 0.05, 4096, 3.0);
        prop_assert_eq!(tiered.ssd_feat_vertices, 0);
        prop_assert_eq!(tiered.n_nvme, 0.0);
        prop_assert_eq!(
            tiered.weighted_total(1e9).to_bits(),
            tiered.plan.n_total().to_bits(),
            "a zero-SSD plan must be penalty-blind"
        );
        let flat = model.best_plan(hbm_budget, 0.05);
        prop_assert_eq!(tiered.plan, flat);
    }

    /// Raising the SSD penalty never increases the chosen plan's NVMe
    /// traffic: a more expensive SSD can only push the planner toward
    /// plans that keep more of the hot set above it.
    #[test]
    fn chosen_nvme_traffic_is_monotone_in_penalty(
        (g, q, a_t, a_f, n_tsum, dim) in model_inputs(),
        hbm_budget in 0u64..50_000,
        dram_budget in 0u64..50_000,
    ) {
        let mut q_f: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        q_f.sort_by(|&x, &y| a_f[y as usize].cmp(&a_f[x as usize]));
        let model = CostModel::new(&g, &q, &a_t, &q_f, &a_f, n_tsum, dim, 64);
        let mut prev = f64::INFINITY;
        for penalty in [0.0, 1.0, 4.0, 16.0, 256.0] {
            let t = model.best_plan_tiered(hbm_budget, dram_budget, 0.05, 4096, penalty);
            prop_assert!(t.n_nvme <= prev + 1e-9, "NVMe traffic grew with the penalty");
            prev = t.n_nvme;
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamic-cache (FIFO) invariants: whatever the access trace, the counters
// must stay mutually consistent — the serving subsystem derives hit rates
// and replacement overheads directly from them.
// ---------------------------------------------------------------------------

fn trace_strategy() -> impl Strategy<Value = Vec<VertexId>> {
    proptest::collection::vec(0u32..64, 0..400)
}

proptest! {
    #[test]
    fn fifo_counters_stay_consistent(trace in trace_strategy(), capacity in 0usize..32) {
        let mut cache = legion_cache::FifoCache::new(capacity);
        let mut accesses = 0u64;
        for &v in &trace {
            cache.access(v);
            accesses += 1;
            let s = cache.stats();
            // Residents never exceed capacity.
            prop_assert!(s.residents <= capacity);
            // Every access is exactly one hit or one miss.
            prop_assert_eq!(s.hits + s.misses, accesses);
            prop_assert_eq!(s.accesses(), accesses);
            // Evictions are inserts (misses, unless capacity is 0) minus
            // what is still resident.
            let inserts = if capacity == 0 { 0 } else { s.misses };
            prop_assert_eq!(s.evictions, inserts - s.residents as u64);
        }
    }

    #[test]
    fn fifo_hit_rate_matches_replayed_membership(trace in trace_strategy(), capacity in 1usize..32) {
        // Reference replay with a naive membership set.
        let mut cache = legion_cache::FifoCache::new(capacity);
        let mut resident: std::collections::VecDeque<VertexId> = Default::default();
        let mut hits = 0u64;
        for &v in &trace {
            let expect_hit = resident.contains(&v);
            if expect_hit {
                hits += 1;
            } else {
                if resident.len() == capacity {
                    resident.pop_front();
                }
                resident.push_back(v);
            }
            prop_assert_eq!(cache.access(v), expect_hit);
        }
        prop_assert_eq!(cache.stats().hits, hits);
        let expected_rate = if trace.is_empty() { 0.0 } else { hits as f64 / trace.len() as f64 };
        prop_assert!((cache.hit_rate() - expected_rate).abs() < 1e-12);
    }

    #[test]
    fn lru_counters_stay_consistent(trace in trace_strategy(), capacity in 0usize..32) {
        let mut cache = legion_cache::LruCache::new(capacity);
        for (i, &v) in trace.iter().enumerate() {
            cache.access(v);
            let s = cache.stats();
            prop_assert!(s.residents <= capacity);
            prop_assert_eq!(s.hits + s.misses, i as u64 + 1);
            let inserts = if capacity == 0 { 0 } else { s.misses };
            prop_assert_eq!(s.evictions, inserts - s.residents as u64);
        }
    }
}

/// A fill walk's inputs: a graph of `n` vertices whose out-degrees
/// (0 to 7) set the topology costs, an order (a shuffled subset of its
/// vertices), each vertex's preferred slot among 1 to 4, a per-slot cap
/// and a feature dimension.
#[allow(clippy::type_complexity)]
fn walk_inputs() -> impl Strategy<Value = (CsrGraph, Vec<VertexId>, Vec<usize>, usize, u64, usize)>
{
    (1usize..5, 1usize..60).prop_flat_map(|(slots, n)| {
        (
            proptest::collection::vec(0u32..8, n),
            proptest::collection::vec(any::<u32>(), n),
            0..=n,
            proptest::collection::vec(0..slots, n),
            Just(slots),
            0u64..400,
            1usize..4,
        )
            .prop_map(move |(degrees, keys, len, preferred, slots, cap, dim)| {
                let edges: Vec<(VertexId, VertexId)> = (0..n as VertexId)
                    .flat_map(|v| (1..=degrees[v as usize]).map(move |i| (v, (v + i) % n as u32)))
                    .collect();
                let mut order: Vec<VertexId> = (0..n as VertexId).collect();
                order.sort_by_key(|&v| keys[v as usize]);
                order.truncate(len);
                (from_edges(n, &edges), order, preferred, slots, cap, dim)
            })
    })
}

/// Checks one walk over `order` against its contract: topology rows of
/// `graph` when `topology`, else feature rows of `dim` floats, each on
/// its preferred slot (when `prefer`) while that slot has room, else on
/// the least-loaded slot, ties to the lower one.
fn check_walk(
    (graph, order, preferred, slots, cap, dim): &(
        CsrGraph,
        Vec<VertexId>,
        Vec<usize>,
        usize,
        u64,
        usize,
    ),
    prefer: bool,
    topology: bool,
) {
    let (slots, cap) = (*slots, *cap);
    let preference = |v: VertexId| prefer.then(|| preferred[v as usize]);
    let mut cache = CliqueCache::new((0..slots).collect(), graph.num_vertices(), *dim);
    let placed = place_prefix(
        &mut cache,
        topology.then_some(graph),
        order,
        cap,
        preference,
    );
    let cost = |v: VertexId| match topology {
        true => topology_bytes_for_degree(graph.degree(v)),
        false => feature_bytes_for_dim(*dim as u64),
    };
    let lookup = match topology {
        true => CliqueCache::lookup_topology,
        false => CliqueCache::lookup_feature,
    };
    let holder = |v| (0..slots).find(|&s| lookup(&cache, s, v) == Some(CacheHit::Local));
    // The placed rows are a prefix of the order.
    for (i, &v) in order.iter().enumerate() {
        prop_assert_eq!(holder(v).is_some(), i < placed, "row {} at {}", v, i);
    }
    let mut load = vec![0u64; slots];
    for (i, &v) in order[..placed].iter().enumerate() {
        let (slot, c) = (holder(v).unwrap(), cost(v));
        match preference(v) {
            Some(p) if load[p] + c <= cap => prop_assert_eq!(slot, p, "row {} left its slot", v),
            _ => {
                let least = (0..slots).min_by_key(|&s| load[s]).unwrap();
                prop_assert_eq!(slot, least, "row {} is not on the least-loaded slot", v);
            }
        }
        if !prefer && !topology {
            prop_assert_eq!(slot, i % slots, "row {} breaks the round-robin stripe", v);
        }
        load[slot] += c;
    }
    for (s, &l) in load.iter().enumerate() {
        let held = cache.cache(s);
        let bytes = match topology {
            true => held.topology_bytes(),
            false => held.feature_bytes(),
        };
        prop_assert_eq!(bytes, l);
        prop_assert!(l <= cap, "slot {} holds {} > {}", s, l, cap);
    }
    if let Some(&next) = order.get(placed) {
        prop_assert!(load.iter().all(|&l| l + cost(next) > cap), "{} fits", next);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `place_prefix` keeps its contract for topology and feature rows,
    /// with a preferred slot per row and with none.
    #[test]
    fn fill_walk_places_a_prefix_preferred_then_least_loaded(input in walk_inputs()) {
        for topology in [true, false] {
            for prefer in [true, false] {
                check_walk(&input, prefer, topology);
            }
        }
    }
}
