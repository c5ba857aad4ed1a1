//! Reverse-mode autograd tape.
//!
//! A [`Tape`] records a DAG of matrix operations; [`Tape::backward`] walks
//! it in reverse accumulating gradients. The op set is exactly what the
//! GraphSAGE/GCN models need, including the graph-specific
//! [`Tape::edge_mean`] aggregation over sampled mini-batch blocks.

use crate::matrix::Matrix;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarId(usize);

/// The recorded operation of a node.
enum Op {
    /// Leaf (input or parameter).
    Leaf,
    /// `a * b`.
    MatMul(VarId, VarId),
    /// `a + b` (same shape).
    Add(VarId, VarId),
    /// `a + bias` broadcast over rows; bias is `1 x C`.
    AddRow(VarId, VarId),
    /// `relu(a)`.
    Relu(VarId),
    /// Horizontal concat `[a | b]`.
    ConcatCols(VarId, VarId),
    /// Rows `start..start+len` of `a`.
    SliceRows(VarId, usize),
    /// Edge-mean aggregation; see [`Tape::edge_mean`].
    EdgeMean {
        src: VarId,
        edge_src: Vec<u32>,
        edge_dst: Vec<u32>,
        /// Per-destination incoming-edge count (0 allowed).
        dst_degree: Vec<u32>,
    },
    /// Row-wise log-softmax of `a`.
    LogSoftmax(VarId),
    /// Mean negative log-likelihood of `logp` at `labels`.
    NllMean(VarId, Vec<u32>),
    /// `a * s`.
    Scale(VarId, f32),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// The autograd tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> VarId {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        VarId(self.nodes.len() - 1)
    }

    fn needs(&self, id: VarId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Inserts a trainable parameter (gradients will be accumulated).
    pub fn param(&mut self, value: Matrix) -> VarId {
        self.push(value, Op::Leaf, true)
    }

    /// Inserts a constant input (no gradient).
    pub fn constant(&mut self, value: Matrix) -> VarId {
        self.push(value, Op::Leaf, false)
    }

    /// The current value of a node.
    pub fn value(&self, id: VarId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// The accumulated gradient of a node (zeros if it never received
    /// one).
    pub fn grad(&self, id: VarId) -> Matrix {
        match &self.nodes[id.0].grad {
            Some(g) => g.clone(),
            None => {
                let v = &self.nodes[id.0].value;
                Matrix::zeros(v.rows(), v.cols())
            }
        }
    }

    /// `a * b`.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// `a + b` element-wise.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let mut v = self.value(a).clone();
        v.add_assign(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng)
    }

    /// `a + bias` with `bias` a `1 x C` row broadcast over `a`'s rows.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_row(&mut self, a: VarId, bias: VarId) -> VarId {
        let am = self.value(a);
        let bm = self.value(bias);
        assert_eq!(bm.rows(), 1, "bias must be a row vector");
        assert_eq!(am.cols(), bm.cols(), "bias width mismatch");
        let mut v = am.clone();
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            for (x, &b) in row.iter_mut().zip(bm.row(0)) {
                *x += b;
            }
        }
        let ng = self.needs(a) || self.needs(bias);
        self.push(v, Op::AddRow(a, bias), ng)
    }

    /// `relu(a)`.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let mut v = self.value(a).clone();
        for x in v.as_mut_slice() {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        let ng = self.needs(a);
        self.push(v, Op::Relu(a), ng)
    }

    /// `[a | b]` column concatenation.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let am = self.value(a);
        let bm = self.value(b);
        assert_eq!(am.rows(), bm.rows(), "concat row mismatch");
        let mut v = Matrix::zeros(am.rows(), am.cols() + bm.cols());
        for r in 0..am.rows() {
            v.row_mut(r)[..am.cols()].copy_from_slice(am.row(r));
            v.row_mut(r)[am.cols()..].copy_from_slice(bm.row(r));
        }
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatCols(a, b), ng)
    }

    /// The first `len` rows of `a` (destination-vertex prefix of a block's
    /// source activations).
    pub fn slice_rows(&mut self, a: VarId, len: usize) -> VarId {
        let am = self.value(a);
        assert!(len <= am.rows(), "slice beyond matrix");
        let mut v = Matrix::zeros(len, am.cols());
        for r in 0..len {
            v.row_mut(r).copy_from_slice(am.row(r));
        }
        let ng = self.needs(a);
        self.push(v, Op::SliceRows(a, len), ng)
    }

    /// Mean aggregation over block edges: destination `d`'s output row is
    /// the mean of `src` rows `edge_src[e]` over all edges with
    /// `edge_dst[e] == d`; destinations with no incoming edges get zeros.
    ///
    /// # Panics
    ///
    /// Panics if edge arrays have different lengths or indices are out of
    /// range.
    pub fn edge_mean(
        &mut self,
        src: VarId,
        edge_src: &[u32],
        edge_dst: &[u32],
        num_dst: usize,
    ) -> VarId {
        assert_eq!(edge_src.len(), edge_dst.len(), "ragged edge list");
        let sm = self.value(src);
        let cols = sm.cols();
        let mut dst_degree = vec![0u32; num_dst];
        for &d in edge_dst {
            assert!((d as usize) < num_dst, "edge dst out of range");
            dst_degree[d as usize] += 1;
        }
        let mut v = Matrix::zeros(num_dst, cols);
        for (&s, &d) in edge_src.iter().zip(edge_dst) {
            assert!((s as usize) < sm.rows(), "edge src out of range");
            let srow = sm.row(s as usize);
            let drow = v.row_mut(d as usize);
            for (o, &x) in drow.iter_mut().zip(srow) {
                *o += x;
            }
        }
        #[allow(clippy::needless_range_loop)]
        for d in 0..num_dst {
            let deg = dst_degree[d];
            if deg > 1 {
                let inv = 1.0 / deg as f32;
                for x in v.row_mut(d) {
                    *x *= inv;
                }
            }
        }
        let ng = self.needs(src);
        self.push(
            v,
            Op::EdgeMean {
                src,
                edge_src: edge_src.to_vec(),
                edge_dst: edge_dst.to_vec(),
                dst_degree,
            },
            ng,
        )
    }

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, a: VarId) -> VarId {
        let am = self.value(a);
        let mut v = am.clone();
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            for x in row {
                *x -= lse;
            }
        }
        let ng = self.needs(a);
        self.push(v, Op::LogSoftmax(a), ng)
    }

    /// Mean negative log-likelihood: `-(1/N) * sum_i logp[i, labels[i]]`.
    /// Returns a `1 x 1` scalar node.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logp.rows()` or a label is out of range.
    pub fn nll_mean(&mut self, logp: VarId, labels: &[u32]) -> VarId {
        let lm = self.value(logp);
        assert_eq!(labels.len(), lm.rows(), "one label per row");
        let n = labels.len().max(1);
        let mut loss = 0.0f32;
        for (i, &l) in labels.iter().enumerate() {
            assert!((l as usize) < lm.cols(), "label out of range");
            loss -= lm.get(i, l as usize);
        }
        loss /= n as f32;
        let ng = self.needs(logp);
        self.push(
            Matrix::from_flat(1, 1, vec![loss]),
            Op::NllMean(logp, labels.to_vec()),
            ng,
        )
    }

    /// `a * s`.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        let mut v = self.value(a).clone();
        v.scale_assign(s);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, s), ng)
    }

    /// Convenience: cross-entropy = log-softmax + mean NLL.
    pub fn cross_entropy_mean(&mut self, logits: VarId, labels: &[u32]) -> VarId {
        let lp = self.log_softmax(logits);
        self.nll_mean(lp, labels)
    }

    fn accumulate(&mut self, id: VarId, delta: Matrix) {
        let node = &mut self.nodes[id.0];
        if !node.needs_grad {
            return;
        }
        match &mut node.grad {
            Some(g) => g.add_assign(&delta),
            None => node.grad = Some(delta),
        }
    }

    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&mut self, loss: VarId) {
        {
            let lm = &self.nodes[loss.0].value;
            assert_eq!((lm.rows(), lm.cols()), (1, 1), "loss must be scalar");
        }
        self.accumulate(loss, Matrix::from_flat(1, 1, vec![1.0]));
        for i in (0..=loss.0).rev() {
            let grad = match &self.nodes[i].grad {
                Some(g) if self.nodes[i].needs_grad => g.clone(),
                _ => continue,
            };
            // Take the op apart without holding a borrow on self.
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs(a) {
                        let da = grad.matmul_t(&self.nodes[b.0].value);
                        self.accumulate(a, da);
                    }
                    if self.needs(b) {
                        let db = self.nodes[a.0].value.t_matmul(&grad);
                        self.accumulate(b, db);
                    }
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(a, grad.clone());
                    self.accumulate(b, grad);
                }
                Op::AddRow(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    if self.needs(bias) {
                        let mut db = Matrix::zeros(1, grad.cols());
                        for r in 0..grad.rows() {
                            for (o, &g) in db.row_mut(0).iter_mut().zip(grad.row(r)) {
                                *o += g;
                            }
                        }
                        self.accumulate(bias, db);
                    }
                    self.accumulate(a, grad);
                }
                Op::Relu(a) => {
                    let a = *a;
                    let mut da = grad;
                    for (g, &v) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[i].value.as_slice())
                    {
                        if v == 0.0 {
                            *g = 0.0;
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let ac = self.nodes[a.0].value.cols();
                    let bc = self.nodes[b.0].value.cols();
                    let mut da = Matrix::zeros(grad.rows(), ac);
                    let mut db = Matrix::zeros(grad.rows(), bc);
                    for r in 0..grad.rows() {
                        da.row_mut(r).copy_from_slice(&grad.row(r)[..ac]);
                        db.row_mut(r).copy_from_slice(&grad.row(r)[ac..]);
                    }
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::SliceRows(a, len) => {
                    let (a, len) = (*a, *len);
                    let src = &self.nodes[a.0].value;
                    let mut da = Matrix::zeros(src.rows(), src.cols());
                    for r in 0..len {
                        da.row_mut(r).copy_from_slice(grad.row(r));
                    }
                    self.accumulate(a, da);
                }
                Op::EdgeMean {
                    src,
                    edge_src,
                    edge_dst,
                    dst_degree,
                } => {
                    let srcv = *src;
                    let (es, ed, deg) = (edge_src.clone(), edge_dst.clone(), dst_degree.clone());
                    let sm = &self.nodes[srcv.0].value;
                    let mut da = Matrix::zeros(sm.rows(), sm.cols());
                    for (&s, &d) in es.iter().zip(&ed) {
                        let inv = 1.0 / deg[d as usize] as f32;
                        let grow = grad.row(d as usize);
                        let drow = da.row_mut(s as usize);
                        for (o, &g) in drow.iter_mut().zip(grow) {
                            *o += g * inv;
                        }
                    }
                    self.accumulate(srcv, da);
                }
                Op::LogSoftmax(a) => {
                    let a = *a;
                    // dx = dy - softmax(x) * rowsum(dy).
                    let y = self.nodes[i].value.clone();
                    let mut da = grad.clone();
                    for r in 0..da.rows() {
                        let gsum: f32 = grad.row(r).iter().sum();
                        for (o, &yy) in da.row_mut(r).iter_mut().zip(y.row(r)) {
                            *o -= yy.exp() * gsum;
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::NllMean(logp, labels) => {
                    let lp = *logp;
                    let labels = labels.clone();
                    let g = grad.get(0, 0);
                    let lm = &self.nodes[lp.0].value;
                    let n = labels.len().max(1) as f32;
                    let mut da = Matrix::zeros(lm.rows(), lm.cols());
                    for (r, &l) in labels.iter().enumerate() {
                        da.set(r, l as usize, -g / n);
                    }
                    self.accumulate(lp, da);
                }
                Op::Scale(a, s) => {
                    let (a, s) = (*a, *s);
                    let mut da = grad;
                    da.scale_assign(s);
                    self.accumulate(a, da);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numerical gradient check: perturbs each parameter entry and
    /// compares the finite difference with the tape gradient.
    fn check_grad<F>(param: Matrix, build: F)
    where
        F: Fn(&mut Tape, VarId) -> VarId,
    {
        let mut tape = Tape::new();
        let p = tape.param(param.clone());
        let loss = build(&mut tape, p);
        tape.backward(loss);
        let analytic = tape.grad(p);
        let eps = 1e-3f32;
        for idx in 0..param.as_slice().len() {
            let mut plus = param.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = param.clone();
            minus.as_mut_slice()[idx] -= eps;
            let f = |m: Matrix| {
                let mut t = Tape::new();
                let p = t.param(m);
                let l = build(&mut t, p);
                t.value(l).get(0, 0)
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "idx {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// Reduces any matrix to a scalar by summing (via matmul with ones).
    fn sum_to_scalar(t: &mut Tape, x: VarId) -> VarId {
        let (r, c) = (t.value(x).rows(), t.value(x).cols());
        let ones_r = t.constant(Matrix::from_flat(1, r, vec![1.0; r]));
        let ones_c = t.constant(Matrix::from_flat(c, 1, vec![1.0; c]));
        let rowsum = t.matmul(ones_r, x);
        t.matmul(rowsum, ones_c)
    }

    #[test]
    fn matmul_gradient() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = Matrix::xavier(3, 2, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        check_grad(w, move |t, p| {
            let xc = t.constant(x.clone());
            let y = t.matmul(xc, p);
            sum_to_scalar(t, y)
        });
    }

    #[test]
    fn relu_gradient() {
        let w = Matrix::from_rows(&[&[-1.0, 0.5], &[2.0, -0.3]]);
        check_grad(w, |t, p| {
            let y = t.relu(p);
            sum_to_scalar(t, y)
        });
    }

    #[test]
    fn add_row_gradient() {
        let mut rng = StdRng::seed_from_u64(1);
        let bias = Matrix::xavier(1, 3, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        check_grad(bias, move |t, p| {
            let xc = t.constant(x.clone());
            let y = t.add_row(xc, p);
            let y2 = t.relu(y);
            sum_to_scalar(t, y2)
        });
    }

    #[test]
    fn concat_and_slice_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(3, 2, &mut rng);
        let b = Matrix::xavier(3, 2, &mut rng);
        check_grad(a, move |t, p| {
            let bc = t.constant(b.clone());
            let cat = t.concat_cols(p, bc);
            let sl = t.slice_rows(cat, 2);
            sum_to_scalar(t, sl)
        });
    }

    #[test]
    fn edge_mean_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let src = Matrix::xavier(4, 3, &mut rng);
        // Two dsts: dst0 <- {src1, src2}, dst1 <- {src3}.
        let es = vec![1u32, 2, 3];
        let ed = vec![0u32, 0, 1];
        check_grad(src, move |t, p| {
            let agg = t.edge_mean(p, &es, &ed, 2);
            sum_to_scalar(t, agg)
        });
    }

    #[test]
    fn edge_mean_isolated_dst_is_zero() {
        let mut tape = Tape::new();
        let src = tape.constant(Matrix::from_rows(&[&[2.0], &[4.0]]));
        let agg = tape.edge_mean(src, &[0, 1], &[0, 0], 3);
        let v = tape.value(agg);
        assert_eq!(v.get(0, 0), 3.0);
        assert_eq!(v.get(1, 0), 0.0);
        assert_eq!(v.get(2, 0), 0.0);
    }

    #[test]
    fn cross_entropy_gradient() {
        let mut rng = StdRng::seed_from_u64(4);
        let logits = Matrix::xavier(3, 4, &mut rng);
        let labels = vec![0u32, 2, 3];
        check_grad(logits, move |t, p| t.cross_entropy_mean(p, &labels));
    }

    #[test]
    fn cross_entropy_value_is_positive_and_sane() {
        let mut tape = Tape::new();
        let logits = tape.param(Matrix::from_rows(&[&[10.0, 0.0], &[0.0, 10.0]]));
        let loss = tape.cross_entropy_mean(logits, &[0, 1]);
        // Confident correct predictions: near-zero loss.
        assert!(tape.value(loss).get(0, 0) < 0.01);
        let mut tape2 = Tape::new();
        let logits2 = tape2.param(Matrix::from_rows(&[&[10.0, 0.0]]));
        let loss2 = tape2.cross_entropy_mean(logits2, &[1]);
        // Confident wrong prediction: large loss.
        assert!(tape2.value(loss2).get(0, 0) > 5.0);
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        // Separable task: row i carries a strong signal in column label_i.
        let labels: Vec<u32> = (0..8).map(|i| (i % 3) as u32).collect();
        let mut x = Matrix::xavier(8, 4, &mut rng);
        for (i, &l) in labels.iter().enumerate() {
            let v = x.get(i, l as usize) + 2.0;
            x.set(i, l as usize, v);
        }
        let mut w = Matrix::xavier(4, 3, &mut rng);
        let mut losses = Vec::new();
        for _ in 0..50 {
            let mut tape = Tape::new();
            let wp = tape.param(w.clone());
            let xc = tape.constant(x.clone());
            let logits = tape.matmul(xc, wp);
            let loss = tape.cross_entropy_mean(logits, &labels);
            tape.backward(loss);
            losses.push(tape.value(loss).get(0, 0));
            w.add_scaled(&tape.grad(wp), -0.5);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "first {} last {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn constants_get_no_grad() {
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::from_rows(&[&[1.0]]));
        let p = tape.param(Matrix::from_rows(&[&[2.0]]));
        let y = tape.matmul(c, p);
        tape.backward(y);
        assert_eq!(tape.grad(c).as_slice(), &[0.0]);
        assert_eq!(tape.grad(p).as_slice(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let p = tape.param(Matrix::zeros(2, 2));
        tape.backward(p);
    }
}
