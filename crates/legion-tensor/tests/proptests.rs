//! Property-based tests: autograd gradients match finite differences for
//! randomly-shaped inputs, and matrix kernels satisfy algebraic laws.

use proptest::prelude::*;

use legion_tensor::{Matrix, Tape};

fn matrix_strategy(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1usize..max_r, 1usize..max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Matrix::from_flat(r, c, data))
    })
}

/// `m` transposed through the product kernel: `mᵀ · I`.
fn transpose(m: &Matrix) -> Matrix {
    let n = m.rows();
    let identity = (0..n * n).map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 });
    m.t_matmul(&Matrix::from_flat(n, n, identity.collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix_strategy(5, 5),
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Matrix::xavier(a.cols(), 3, &mut rng);
        let c = Matrix::xavier(a.cols(), 3, &mut rng);
        let mut b_plus_c = b.clone();
        b_plus_c.add_assign(&c);
        let lhs = a.matmul(&b_plus_c);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_involution(a in matrix_strategy(6, 6)) {
        prop_assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn matmul_gradient_matches_finite_difference(
        w in matrix_strategy(4, 4),
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::xavier(3, w.rows(), &mut rng);
        let run = |wm: Matrix| -> (f32, Matrix) {
            let mut t = Tape::new();
            let wp = t.param(wm);
            let xc = t.constant(x.clone());
            // No ReLU here: finite differences are invalid at the kink.
            let y = t.matmul(xc, wp);
            // Sum via matmul with ones.
            let ones_r = t.constant(Matrix::from_flat(1, 3, vec![1.0; 3]));
            let ones_c = t.constant(Matrix::from_flat(y_cols(&t, y), 1, vec![1.0; y_cols(&t, y)]));
            let rowsum = t.matmul(ones_r, y);
            let total = t.matmul(rowsum, ones_c);
            t.backward(total);
            (t.value(total).get(0, 0), t.grad(wp))
        };
        fn y_cols(t: &Tape, y: legion_tensor::VarId) -> usize {
            t.value(y).cols()
        }
        let (_, grad) = run(w.clone());
        let eps = 1e-2f32;
        // Spot-check a handful of coordinates.
        for idx in 0..w.as_slice().len().min(4) {
            let mut plus = w.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = w.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric = (run(plus).0 - run(minus).0) / (2.0 * eps);
            let analytic = grad.as_slice()[idx];
            prop_assert!(
                (analytic - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
                "idx {idx}: analytic {analytic} numeric {numeric}"
            );
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_grad_sums_to_zeroish(
        logits in matrix_strategy(5, 4),
    ) {
        let labels: Vec<u32> = (0..logits.rows()).map(|i| (i % logits.cols()) as u32).collect();
        let mut t = Tape::new();
        let p = t.param(logits);
        let loss = t.cross_entropy_mean(p, &labels);
        prop_assert!(t.value(loss).get(0, 0) >= 0.0);
        t.backward(loss);
        // d(loss)/d(logits) rows each sum to ~0 (softmax minus one-hot).
        let g = t.grad(p);
        for r in 0..g.rows() {
            let s: f32 = g.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn edge_mean_output_is_convex_combination(
        src in matrix_strategy(6, 3),
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let num_dst = 3usize;
        let edges: Vec<(u32, u32)> = (0..8)
            .map(|_| (rng.gen_range(0..src.rows() as u32), rng.gen_range(0..num_dst as u32)))
            .collect();
        let es: Vec<u32> = edges.iter().map(|e| e.0).collect();
        let ed: Vec<u32> = edges.iter().map(|e| e.1).collect();
        let mut t = Tape::new();
        let s = t.constant(src.clone());
        let out = t.edge_mean(s, &es, &ed, num_dst);
        let o = t.value(out);
        // Each output coordinate lies within the min..max of inputs.
        let lo = src.as_slice().iter().cloned().fold(f32::MAX, f32::min);
        let hi = src.as_slice().iter().cloned().fold(f32::MIN, f32::max);
        for &x in o.as_slice() {
            prop_assert!(x == 0.0 || (x >= lo - 1e-5 && x <= hi + 1e-5));
        }
    }
}
