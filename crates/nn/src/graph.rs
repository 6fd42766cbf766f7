//! Define-by-run tape autograd.
//!
//! Every operation eagerly computes its output [`Tensor`] and records an
//! [`Op`] describing how to push gradients back to its parents. The tape is
//! replayed in reverse by [`Graph::backward`].
//!
//! Shape errors in model code are programming errors, so ops assert shapes
//! with descriptive messages rather than returning `Result` (mirroring how
//! slice indexing behaves in the standard library).
//!
//! # Performance
//!
//! Dense algebra (matmuls, batched matmuls) and `conv1d` (lowered to
//! im2col + GEMM in both directions) run on the shared blocked kernels in
//! [`crate::gemm`], parallel over contiguous output regions via `ip-par` —
//! bit-identical for any thread count. Intermediate buffers are recycled
//! through a per-length free list, so steady-state training (build → backward
//! → [`Graph::reset`] → repeat) performs no heap allocation.

use crate::gemm;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Handle to a node (value) in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Raw index (for optimizer state keyed by parameter).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Recorded operation; parents are earlier node ids, plus whatever forward
/// state the backward pass needs.
enum Op {
    Leaf,
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    ScalarMul(NodeId, f32),
    ScalarAdd(NodeId),
    MatMul(NodeId, NodeId),
    MatMulTransB(NodeId, NodeId),
    BatchMatMul(NodeId, NodeId),
    BatchMatMulTransB(NodeId, NodeId),
    Relu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Gelu(NodeId),
    Softmax(NodeId),
    Sum(NodeId),
    Mean(NodeId),
    Reshape(NodeId),
    AddBiasRow(NodeId, NodeId),
    AddBiasChannel(NodeId, NodeId),
    Conv1d {
        input: NodeId,
        weight: NodeId,
        padding: usize,
        stride: usize,
        /// im2col patch matrix `[B·Lout, Cin·K]` cached by the forward pass
        /// so the backward pass reuses it for both GEMMs instead of
        /// re-expanding the input.
        cols: Vec<f32>,
    },
    MaxPool1d {
        input: NodeId,
        argmax: Vec<usize>,
    },
    AvgPoolGlobal(NodeId),
    BatchNorm {
        input: NodeId,
        gamma: NodeId,
        beta: NodeId,
        x_hat: Vec<f32>,
        inv_std: Vec<f32>,
    },
    LayerNorm {
        input: NodeId,
        gamma: NodeId,
        beta: NodeId,
        x_hat: Vec<f32>,
        inv_std: Vec<f32>,
    },
    ChannelAffine {
        input: NodeId,
        scale: Vec<f32>,
    },
    ConcatChannels(Vec<NodeId>),
    SliceLastDim {
        input: NodeId,
        start: usize,
    },
    Dropout {
        input: NodeId,
        mask: Vec<f32>,
    },
}

/// Most free-listed buffers a single length class will hold. The models
/// layer feeds fresh batch tensors into the graph every step (they cycle in
/// but never out), so an uncapped pool would grow without bound.
const POOL_MAX_PER_LEN: usize = 64;

/// Per-length free list of `f32` buffers. `take` hands back a buffer with
/// *unspecified contents* — every caller either fully overwrites it or asks
/// for [`Pool::take_zeroed`].
#[derive(Default)]
struct Pool {
    free: HashMap<usize, Vec<Vec<f32>>>,
}

impl Pool {
    /// A buffer of exactly `len` elements, contents unspecified.
    fn take(&mut self, len: usize) -> Vec<f32> {
        if let Some(buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            return buf;
        }
        vec![0.0; len]
    }

    /// A buffer of exactly `len` zeros.
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer to its length class (dropped when over the cap).
    fn put(&mut self, buf: Vec<f32>) {
        if buf.is_empty() {
            return;
        }
        let list = self.free.entry(buf.len()).or_default();
        if list.len() < POOL_MAX_PER_LEN {
            list.push(buf);
        }
    }
}

/// The autograd tape.
///
/// Parameters are registered first (via [`Graph::param`]); [`Graph::freeze`]
/// marks the persistent prefix, and [`Graph::reset`] truncates the tape back
/// to it between training steps, so parameter values (and optimizer state
/// keyed by their ids) survive across iterations. Truncated buffers are
/// recycled through an internal arena, making steady-state training
/// allocation-free.
pub struct Graph {
    values: Vec<Tensor>,
    grads: Vec<Option<Tensor>>,
    ops: Vec<Op>,
    params: Vec<NodeId>,
    frozen_len: usize,
    rng: StdRng,
    pool: Pool,
    threads: Option<usize>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Graph {
    /// Creates an empty graph; `seed` drives dropout masks.
    pub fn new(seed: u64) -> Self {
        Self {
            values: Vec::new(),
            grads: Vec::new(),
            ops: Vec::new(),
            params: Vec::new(),
            frozen_len: 0,
            rng: StdRng::seed_from_u64(seed),
            pool: Pool::default(),
            threads: None,
        }
    }

    /// Overrides the thread count used by this graph's parallel kernels.
    ///
    /// `None` (the default) defers to [`ip_par::num_threads`]. Data-parallel
    /// replica graphs run their kernels at `Some(1)` so sharding is the only
    /// source of parallelism.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    fn kernel_threads(&self) -> usize {
        self.threads.unwrap_or_else(ip_par::num_threads)
    }

    /// Reseeds the dropout RNG (deterministic per-shard masks in
    /// data-parallel training).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.values.push(value);
        self.grads.push(None);
        self.ops.push(op);
        NodeId(self.values.len() - 1)
    }

    /// Registers a trainable parameter. Must be called before [`freeze`]
    /// (i.e. during model construction).
    ///
    /// [`freeze`]: Graph::freeze
    pub fn param(&mut self, value: Tensor) -> NodeId {
        assert_eq!(
            self.frozen_len, 0,
            "parameters must be registered before Graph::freeze"
        );
        let id = self.push(value, Op::Leaf);
        self.params.push(id);
        id
    }

    /// Marks the persistent prefix of the tape (call once, after building
    /// every layer).
    pub fn freeze(&mut self) {
        self.frozen_len = self.values.len();
    }

    /// Clears all non-persistent nodes and every gradient, recycling their
    /// buffers into the arena.
    pub fn reset(&mut self) {
        let keep = if self.frozen_len == 0 {
            self.values.len()
        } else {
            self.frozen_len
        };
        for t in self.values.drain(keep..) {
            self.pool.put(t.into_data());
        }
        for op in self.ops.drain(keep..) {
            recycle_op(&mut self.pool, op);
        }
        for t in self.grads.drain(keep..).flatten() {
            self.pool.put(t.into_data());
        }
        self.clear_grads();
    }

    /// Drops every accumulated gradient, recycling the buffers.
    pub fn clear_grads(&mut self) {
        for slot in self.grads.iter_mut() {
            if let Some(t) = slot.take() {
                self.pool.put(t.into_data());
            }
        }
    }

    /// Adds `scale · g` into the gradient slot of `id` (data-parallel
    /// gradient reduction; call in a fixed shard order for determinism).
    pub fn add_scaled_grad(&mut self, id: NodeId, scale: f32, g: &Tensor) {
        match &mut self.grads[id.0] {
            Some(acc) => {
                assert_eq!(acc.shape(), g.shape(), "add_scaled_grad: shape mismatch");
                for (a, &b) in acc.data_mut().iter_mut().zip(g.data()) {
                    *a += scale * b;
                }
            }
            slot @ None => {
                let mut data = self.pool.take(g.numel());
                fill_map(&mut data, g.data(), |x| scale * x);
                *slot = Some(Tensor::new(g.shape(), data).unwrap());
            }
        }
    }

    /// Adds a non-trainable leaf (an input batch, a positional encoding…).
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// The value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter's value (for optimizers).
    pub fn value_mut(&mut self, id: NodeId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// The gradient accumulated at a node (None before backward or if the
    /// node does not influence the loss).
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads[id.0].as_ref()
    }

    /// Registered parameter ids, in registration order.
    pub fn params(&self) -> &[NodeId] {
        &self.params
    }

    /// Number of live nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    // ---- elementwise ----

    /// `a + b` (identical shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let (va, vb) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(va.shape(), vb.shape(), "add: shape mismatch");
        fill_zip(&mut data, va.data(), vb.data(), |x, y| x + y);
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::Add(a, b))
    }

    /// `a − b` (identical shapes).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let (va, vb) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(va.shape(), vb.shape(), "sub: shape mismatch");
        fill_zip(&mut data, va.data(), vb.data(), |x, y| x - y);
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::Sub(a, b))
    }

    /// Element-wise product (identical shapes).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let (va, vb) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(va.shape(), vb.shape(), "mul: shape mismatch");
        fill_zip(&mut data, va.data(), vb.data(), |x, y| x * y);
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::Mul(a, b))
    }

    /// `c · a`.
    pub fn scalar_mul(&mut self, a: NodeId, c: f32) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let va = &self.values[a.0];
        fill_map(&mut data, va.data(), |x| c * x);
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::ScalarMul(a, c))
    }

    /// `a + c` element-wise.
    pub fn scalar_add(&mut self, a: NodeId, c: f32) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let va = &self.values[a.0];
        fill_map(&mut data, va.data(), |x| x + c);
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::ScalarAdd(a))
    }

    // ---- dense algebra ----

    /// `[m,k] @ [k,n] → [m,n]`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, k, n) = {
            let (sa, sb) = (self.values[a.0].shape(), self.values[b.0].shape());
            assert!(
                sa.len() == 2 && sb.len() == 2 && sa[1] == sb[0],
                "matmul: {sa:?} x {sb:?}"
            );
            (sa[0], sa[1], sb[1])
        };
        let threads = self.kernel_threads();
        let mut out = self.pool.take(m * n);
        let mut scratch = self.pool.take(k * n);
        gemm::gemm_nn_with(
            threads,
            self.values[a.0].data(),
            self.values[b.0].data(),
            &mut out,
            &mut scratch,
            m,
            k,
            n,
        );
        self.pool.put(scratch);
        let t = Tensor::new(&[m, n], out).unwrap();
        self.push(t, Op::MatMul(a, b))
    }

    /// `[m,k] @ [n,k]ᵀ → [m,n]` — fused transpose for attention scores.
    pub fn matmul_trans_b(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, k, n) = {
            let (sa, sb) = (self.values[a.0].shape(), self.values[b.0].shape());
            assert!(
                sa.len() == 2 && sb.len() == 2 && sa[1] == sb[1],
                "matmul_trans_b: {sa:?} x {sb:?}"
            );
            (sa[0], sa[1], sb[0])
        };
        let threads = self.kernel_threads();
        let mut out = self.pool.take(m * n);
        gemm::gemm_nt_with(
            threads,
            self.values[a.0].data(),
            self.values[b.0].data(),
            &mut out,
            m,
            k,
            n,
        );
        let t = Tensor::new(&[m, n], out).unwrap();
        self.push(t, Op::MatMulTransB(a, b))
    }

    /// Batched `[B,m,k] @ [B,k,n] → [B,m,n]`.
    pub fn batch_matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (bsz, m, k, n) = {
            let (sa, sb) = (self.values[a.0].shape(), self.values[b.0].shape());
            assert!(
                sa.len() == 3 && sb.len() == 3 && sa[0] == sb[0] && sa[2] == sb[1],
                "batch_matmul: {sa:?} x {sb:?}"
            );
            (sa[0], sa[1], sa[2], sb[2])
        };
        let threads = self.kernel_threads();
        // Pre-transpose every B_bi so the per-item GEMMs walk contiguous
        // rows; each item is one task (serial inner kernel).
        let mut bt_all = self.pool.take(bsz * k * n);
        {
            let vb = self.values[b.0].data();
            ip_par::par_chunks_mut_with(threads, &mut bt_all, k * n, |bi, chunk| {
                gemm::transpose_into(&vb[bi * k * n..(bi + 1) * k * n], k, n, chunk);
            });
        }
        let mut out = self.pool.take(bsz * m * n);
        {
            let va = self.values[a.0].data();
            let bt = &bt_all[..];
            ip_par::par_chunks_mut_with(threads, &mut out, m * n, |bi, chunk| {
                gemm::gemm_nt_with(
                    1,
                    &va[bi * m * k..(bi + 1) * m * k],
                    &bt[bi * k * n..(bi + 1) * k * n],
                    chunk,
                    m,
                    k,
                    n,
                );
            });
        }
        self.pool.put(bt_all);
        let t = Tensor::new(&[bsz, m, n], out).unwrap();
        self.push(t, Op::BatchMatMul(a, b))
    }

    /// Batched `[B,m,k] @ [B,n,k]ᵀ → [B,m,n]`.
    pub fn batch_matmul_trans_b(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (bsz, m, k, n) = {
            let (sa, sb) = (self.values[a.0].shape(), self.values[b.0].shape());
            assert!(
                sa.len() == 3 && sb.len() == 3 && sa[0] == sb[0] && sa[2] == sb[2],
                "batch_matmul_trans_b: {sa:?} x {sb:?}"
            );
            (sa[0], sa[1], sa[2], sb[1])
        };
        let threads = self.kernel_threads();
        let mut out = self.pool.take(bsz * m * n);
        {
            let va = self.values[a.0].data();
            let vb = self.values[b.0].data();
            ip_par::par_chunks_mut_with(threads, &mut out, m * n, |bi, chunk| {
                gemm::gemm_nt_with(
                    1,
                    &va[bi * m * k..(bi + 1) * m * k],
                    &vb[bi * n * k..(bi + 1) * n * k],
                    chunk,
                    m,
                    k,
                    n,
                );
            });
        }
        let t = Tensor::new(&[bsz, m, n], out).unwrap();
        self.push(t, Op::BatchMatMulTransB(a, b))
    }

    // ---- activations ----

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let va = &self.values[a.0];
        fill_map(&mut data, va.data(), |x| x.max(0.0));
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::Relu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let va = &self.values[a.0];
        fill_map(&mut data, va.data(), |x| 1.0 / (1.0 + (-x).exp()));
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let va = &self.values[a.0];
        fill_map(&mut data, va.data(), f32::tanh);
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::Tanh(a))
    }

    /// GELU (tanh approximation).
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let va = &self.values[a.0];
        fill_map(&mut data, va.data(), gelu_fwd);
        let t = Tensor::new(va.shape(), data).unwrap();
        self.push(t, Op::Gelu(a))
    }

    /// Softmax over the last dimension.
    pub fn softmax(&mut self, a: NodeId) -> NodeId {
        let mut out = self.pool.take(self.values[a.0].numel());
        let va = &self.values[a.0];
        let d = *va.shape().last().unwrap();
        out.copy_from_slice(va.data());
        for row in out.chunks_mut(d) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        let t = Tensor::new(va.shape(), out).unwrap();
        self.push(t, Op::Softmax(a))
    }

    // ---- reductions & shape ----

    /// Sum of all elements → `[1]`.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let s = self.values[a.0].sum();
        let mut d = self.pool.take(1);
        d[0] = s;
        self.push(Tensor::new(&[1], d).unwrap(), Op::Sum(a))
    }

    /// Mean of all elements → `[1]`.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let v = &self.values[a.0];
        let s = v.sum() / v.numel() as f32;
        let mut d = self.pool.take(1);
        d[0] = s;
        self.push(Tensor::new(&[1], d).unwrap(), Op::Mean(a))
    }

    /// Reshape (element count preserved).
    pub fn reshape(&mut self, a: NodeId, shape: &[usize]) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        data.copy_from_slice(self.values[a.0].data());
        let t = Tensor::new(shape, data).expect("reshape: numel mismatch");
        self.push(t, Op::Reshape(a))
    }

    // ---- broadcast adds ----

    /// `[m,n] + [n]` broadcast over rows.
    pub fn add_bias_row(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let (va, vb) = (&self.values[a.0], &self.values[bias.0]);
        let sa = va.shape();
        assert!(
            sa.len() == 2 && vb.shape() == [sa[1]],
            "add_bias_row: {:?} + {:?}",
            sa,
            vb.shape()
        );
        let n = sa[1];
        for (i, (d, &x)) in data.iter_mut().zip(va.data()).enumerate() {
            *d = x + vb.data()[i % n];
        }
        let t = Tensor::new(sa, data).unwrap();
        self.push(t, Op::AddBiasRow(a, bias))
    }

    /// `[B,C,L] + [C]` broadcast over batch and length.
    pub fn add_bias_channel(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let mut data = self.pool.take(self.values[a.0].numel());
        let (va, vb) = (&self.values[a.0], &self.values[bias.0]);
        let sa = va.shape();
        assert!(
            sa.len() == 3 && vb.shape() == [sa[1]],
            "add_bias_channel: {:?} + {:?}",
            sa,
            vb.shape()
        );
        let (c, l) = (sa[1], sa[2]);
        for (i, (d, &x)) in data.iter_mut().zip(va.data()).enumerate() {
            *d = x + vb.data()[(i / l) % c];
        }
        let t = Tensor::new(sa, data).unwrap();
        self.push(t, Op::AddBiasChannel(a, bias))
    }

    // ---- convolution & pooling ----

    /// 1-D convolution: input `[B,Cin,L]`, weight `[Cout,Cin,K]` →
    /// `[B,Cout,(L+2p−K)/s+1]`.
    ///
    /// Lowered to im2col + one GEMM: the weight `[Cout, Cin·K]` is already
    /// the transposed right operand for [`gemm::gemm_nt_with`].
    pub fn conv1d(
        &mut self,
        input: NodeId,
        weight: NodeId,
        padding: usize,
        stride: usize,
    ) -> NodeId {
        assert!(stride >= 1, "conv1d: stride must be >= 1");
        let (b, cin, l, cout, k) = {
            let (si, sw) = (self.values[input.0].shape(), self.values[weight.0].shape());
            assert!(
                si.len() == 3 && sw.len() == 3 && si[1] == sw[1],
                "conv1d: {si:?} * {sw:?}"
            );
            (si[0], si[1], si[2], sw[0], sw[2])
        };
        assert!(
            l + 2 * padding >= k,
            "conv1d: kernel larger than padded input"
        );
        let lout = (l + 2 * padding - k) / stride + 1;
        let threads = self.kernel_threads();
        let ck = cin * k;
        let rows = b * lout;
        let mut colst = self.pool.take(rows * ck);
        im2col(
            self.values[input.0].data(),
            &mut colst,
            b,
            cin,
            l,
            k,
            padding,
            stride,
            lout,
            threads,
        );
        // [B·Lout, Cin·K] · W[Cout, Cin·K]ᵀ → [B·Lout, Cout].
        let mut out_t = self.pool.take(rows * cout);
        gemm::gemm_nt_with(
            threads,
            &colst,
            self.values[weight.0].data(),
            &mut out_t,
            rows,
            ck,
            cout,
        );
        // Scatter [B·Lout, Cout] → [B, Cout, Lout] (a per-item transpose).
        let mut out = self.pool.take(b * cout * lout);
        {
            let src = &out_t[..];
            ip_par::par_chunks_mut_with(threads, &mut out, cout * lout, |bi, chunk| {
                gemm::transpose_into(
                    &src[bi * lout * cout..(bi + 1) * lout * cout],
                    lout,
                    cout,
                    chunk,
                );
            });
        }
        self.pool.put(out_t);
        let t = Tensor::new(&[b, cout, lout], out).unwrap();
        self.push(
            t,
            Op::Conv1d {
                input,
                weight,
                padding,
                stride,
                cols: colst,
            },
        )
    }

    /// Max pooling over length: `[B,C,L] → [B,C,(L−k)/s+1]`.
    pub fn max_pool1d(&mut self, input: NodeId, kernel: usize, stride: usize) -> NodeId {
        self.max_pool1d_padded(input, kernel, stride, 0)
    }

    /// Max pooling with symmetric `-∞` padding — `kernel = 3, stride = 1,
    /// padding = 1` preserves length (the InceptionTime pool branch).
    pub fn max_pool1d_padded(
        &mut self,
        input: NodeId,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> NodeId {
        assert!(
            kernel >= 1 && stride >= 1,
            "max_pool1d: kernel/stride must be >= 1"
        );
        let (b, c, l) = {
            let si = self.values[input.0].shape();
            assert!(
                si.len() == 3 && si[2] + 2 * padding >= kernel,
                "max_pool1d: input {si:?}, kernel {kernel}, padding {padding}"
            );
            (si[0], si[1], si[2])
        };
        let lout = (l + 2 * padding - kernel) / stride + 1;
        let mut out = self.pool.take(b * c * lout);
        let mut argmax = vec![0usize; b * c * lout];
        let vi = &self.values[input.0];
        for bi in 0..b {
            for ci in 0..c {
                for t in 0..lout {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = usize::MAX;
                    for kk in 0..kernel {
                        let pos = t * stride + kk;
                        if pos < padding || pos - padding >= l {
                            continue;
                        }
                        let v = vi.at3(bi, ci, pos - padding);
                        if v > best {
                            best = v;
                            best_idx = (bi * c + ci) * l + (pos - padding);
                        }
                    }
                    debug_assert_ne!(best_idx, usize::MAX, "window fully out of range");
                    let oi = (bi * c + ci) * lout + t;
                    out[oi] = best;
                    argmax[oi] = best_idx;
                }
            }
        }
        let t = Tensor::new(&[b, c, lout], out).unwrap();
        self.push(t, Op::MaxPool1d { input, argmax })
    }

    /// Global average pooling over length: `[B,C,L] → [B,C]`.
    pub fn avg_pool_global(&mut self, input: NodeId) -> NodeId {
        let (b, c, l) = {
            let si = self.values[input.0].shape();
            assert!(si.len() == 3, "avg_pool_global: expected 3-D, got {si:?}");
            (si[0], si[1], si[2])
        };
        let mut out = self.pool.take(b * c);
        let vi = &self.values[input.0];
        for (o, row) in out.iter_mut().zip(vi.data().chunks(l)) {
            *o = row.iter().sum::<f32>() / l as f32;
        }
        let t = Tensor::new(&[b, c], out).unwrap();
        self.push(t, Op::AvgPoolGlobal(input))
    }

    // ---- normalization ----

    /// Batch normalization over `[B,C,L]` with per-channel `gamma`/`beta`
    /// (`[C]`), using *batch* statistics. Returns `(output, mean, var)` so
    /// the layer can maintain running statistics.
    pub fn batch_norm(
        &mut self,
        input: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> (NodeId, Vec<f32>, Vec<f32>) {
        let si = self.values[input.0].shape().to_vec();
        assert!(si.len() == 3, "batch_norm: expected 3-D, got {si:?}");
        let (b, c, l) = (si[0], si[1], si[2]);
        assert!(
            self.values[gamma.0].shape() == [c] && self.values[beta.0].shape() == [c],
            "batch_norm: gamma/beta must be [C]"
        );
        let n = (b * l) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        let mut inv_std = self.pool.take(c);
        let mut x_hat = self.pool.take(b * c * l);
        let mut out = self.pool.take(b * c * l);
        {
            let vi = &self.values[input.0];
            for (ci, m) in mean.iter_mut().enumerate() {
                let mut acc = 0.0;
                for bi in 0..b {
                    for t in 0..l {
                        acc += vi.at3(bi, ci, t);
                    }
                }
                *m = acc / n;
            }
            for (ci, v) in var.iter_mut().enumerate() {
                let mut acc = 0.0;
                for bi in 0..b {
                    for t in 0..l {
                        let d = vi.at3(bi, ci, t) - mean[ci];
                        acc += d * d;
                    }
                }
                *v = acc / n;
            }
            for (istd, &v) in inv_std.iter_mut().zip(&var) {
                *istd = 1.0 / (v + eps).sqrt();
            }
            let g = self.values[gamma.0].data();
            let be = self.values[beta.0].data();
            for bi in 0..b {
                for ci in 0..c {
                    for t in 0..l {
                        let idx = (bi * c + ci) * l + t;
                        let xh = (vi.at3(bi, ci, t) - mean[ci]) * inv_std[ci];
                        x_hat[idx] = xh;
                        out[idx] = g[ci] * xh + be[ci];
                    }
                }
            }
        }
        let t = Tensor::new(&si, out).unwrap();
        let id = self.push(
            t,
            Op::BatchNorm {
                input,
                gamma,
                beta,
                x_hat,
                inv_std,
            },
        );
        (id, mean, var)
    }

    /// Evaluation-mode batch norm: per-channel affine with fixed statistics.
    /// Gradients flow to the input only (eval passes do not train).
    pub fn channel_affine(&mut self, input: NodeId, scale: &[f32], shift: &[f32]) -> NodeId {
        let si = self.values[input.0].shape().to_vec();
        assert!(
            si.len() == 3 && scale.len() == si[1] && shift.len() == si[1],
            "channel_affine"
        );
        let (b, c, l) = (si[0], si[1], si[2]);
        let mut out = self.pool.take(b * c * l);
        {
            let vi = &self.values[input.0];
            for ((o_row, x_row), ci) in out
                .chunks_mut(l)
                .zip(vi.data().chunks(l))
                .zip((0..c).cycle())
            {
                for (o, &x) in o_row.iter_mut().zip(x_row) {
                    *o = scale[ci] * x + shift[ci];
                }
            }
        }
        let mut sc = self.pool.take(c);
        sc.copy_from_slice(scale);
        let t = Tensor::new(&si, out).unwrap();
        self.push(t, Op::ChannelAffine { input, scale: sc })
    }

    /// Layer normalization over the last dimension with `gamma`/`beta` of
    /// that size.
    pub fn layer_norm(&mut self, input: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        let si = self.values[input.0].shape().to_vec();
        let d = *si.last().unwrap();
        assert!(
            self.values[gamma.0].shape() == [d] && self.values[beta.0].shape() == [d],
            "layer_norm: gamma/beta must match last dim {d}"
        );
        let numel = self.values[input.0].numel();
        let rows = numel / d;
        let mut x_hat = self.pool.take(numel);
        let mut inv_std = self.pool.take(rows);
        let mut out = self.pool.take(numel);
        {
            let vi = &self.values[input.0];
            let g = self.values[gamma.0].data();
            let be = self.values[beta.0].data();
            for (r, row) in vi.data().chunks(d).enumerate() {
                let mean: f32 = row.iter().sum::<f32>() / d as f32;
                let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / d as f32;
                let istd = 1.0 / (var + eps).sqrt();
                inv_std[r] = istd;
                for (j, &x) in row.iter().enumerate() {
                    let xh = (x - mean) * istd;
                    x_hat[r * d + j] = xh;
                    out[r * d + j] = g[j] * xh + be[j];
                }
            }
        }
        let t = Tensor::new(&si, out).unwrap();
        self.push(
            t,
            Op::LayerNorm {
                input,
                gamma,
                beta,
                x_hat,
                inv_std,
            },
        )
    }

    // ---- structure ----

    /// Concatenates 3-D tensors along the channel axis.
    pub fn concat_channels(&mut self, inputs: &[NodeId]) -> NodeId {
        assert!(!inputs.is_empty(), "concat_channels: empty input list");
        let shapes: Vec<Vec<usize>> = inputs
            .iter()
            .map(|id| self.values[id.0].shape().to_vec())
            .collect();
        let (b, l) = (shapes[0][0], shapes[0][2]);
        for s in &shapes {
            assert!(
                s.len() == 3 && s[0] == b && s[2] == l,
                "concat_channels: {shapes:?}"
            );
        }
        let c_total: usize = shapes.iter().map(|s| s[1]).sum();
        let mut out = self.pool.take(b * c_total * l);
        for bi in 0..b {
            let mut c_off = 0;
            for (inp, s) in inputs.iter().zip(&shapes) {
                let c = s[1];
                let vi = &self.values[inp.0];
                for ci in 0..c {
                    let src = &vi.data()[(bi * c + ci) * l..(bi * c + ci) * l + l];
                    let dst_start = (bi * c_total + c_off + ci) * l;
                    out[dst_start..dst_start + l].copy_from_slice(src);
                }
                c_off += c;
            }
        }
        let t = Tensor::new(&[b, c_total, l], out).unwrap();
        self.push(t, Op::ConcatChannels(inputs.to_vec()))
    }

    /// Slices `[.., D] → [.., len]` along the last dimension starting at
    /// `start` (used to split attention heads).
    pub fn slice_last_dim(&mut self, input: NodeId, start: usize, len: usize) -> NodeId {
        let si = self.values[input.0].shape().to_vec();
        let d = *si.last().unwrap();
        assert!(
            start + len <= d,
            "slice_last_dim: [{start}, {}) out of {d}",
            start + len
        );
        let rows = self.values[input.0].numel() / d;
        let mut out = self.pool.take(rows * len);
        {
            let vi = &self.values[input.0];
            for (o_row, v_row) in out.chunks_mut(len).zip(vi.data().chunks(d)) {
                o_row.copy_from_slice(&v_row[start..start + len]);
            }
        }
        let mut shape = si.clone();
        *shape.last_mut().unwrap() = len;
        let t = Tensor::new(&shape, out).unwrap();
        self.push(t, Op::SliceLastDim { input, start })
    }

    /// Inverted dropout with keep-probability `1 − p`; identity when
    /// `train` is false.
    pub fn dropout(&mut self, input: NodeId, p: f32, train: bool) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout: p must be in [0,1)");
        if !train || p == 0.0 {
            // Identity via reshape keeps the tape simple.
            let shape = self.values[input.0].shape().to_vec();
            return self.reshape(input, &shape);
        }
        let numel = self.values[input.0].numel();
        let scale = 1.0 / (1.0 - p);
        let mut mask = self.pool.take(numel);
        for mv in mask.iter_mut() {
            *mv = if self.rng.gen::<f32>() < p {
                0.0
            } else {
                scale
            };
        }
        let mut data = self.pool.take(numel);
        let shape = {
            let vi = &self.values[input.0];
            fill_zip(&mut data, vi.data(), &mask, |x, m| x * m);
            vi.shape().to_vec()
        };
        let t = Tensor::new(&shape, data).unwrap();
        self.push(t, Op::Dropout { input, mask })
    }

    // ---- backward ----

    /// Runs the reverse pass from a scalar loss node.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.values[loss.0].numel(),
            1,
            "backward: loss must be scalar"
        );
        self.clear_grads();
        let mut seed = self.pool.take(1);
        seed[0] = 1.0;
        self.grads[loss.0] = Some(Tensor::new(&[1], seed).unwrap());

        for i in (0..=loss.0).rev() {
            let Some(gout) = self.grads[i].take() else {
                continue;
            };
            self.apply_backward(i, &gout);
            self.grads[i] = Some(gout);
        }
    }

    fn accumulate(&mut self, id: NodeId, delta: Tensor) {
        match &mut self.grads[id.0] {
            Some(g) => {
                for (a, b) in g.data_mut().iter_mut().zip(delta.data()) {
                    *a += b;
                }
                self.pool.put(delta.into_data());
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Pool-backed copy of `t` (callers pass the local `gout`, never a
    /// borrow of `self.values`).
    fn pooled_copy(&mut self, t: &Tensor) -> Tensor {
        let mut data = self.pool.take(t.numel());
        data.copy_from_slice(t.data());
        Tensor::new(t.shape(), data).unwrap()
    }

    /// Pool-backed element-wise map of `t` (same caveat as `pooled_copy`).
    fn pooled_map(&mut self, t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = self.pool.take(t.numel());
        fill_map(&mut data, t.data(), f);
        Tensor::new(t.shape(), data).unwrap()
    }

    #[allow(clippy::too_many_lines)]
    fn apply_backward(&mut self, i: usize, gout: &Tensor) {
        // Ops are moved out temporarily to appease the borrow checker when
        // accumulating into parents.
        let op = std::mem::replace(&mut self.ops[i], Op::Leaf);
        match &op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                let ga = self.pooled_copy(gout);
                self.accumulate(*a, ga);
                let gb = self.pooled_copy(gout);
                self.accumulate(*b, gb);
            }
            Op::Sub(a, b) => {
                let ga = self.pooled_copy(gout);
                self.accumulate(*a, ga);
                let gb = self.pooled_map(gout, |x| -x);
                self.accumulate(*b, gb);
            }
            Op::Mul(a, b) => {
                let mut ga = self.pool.take(gout.numel());
                fill_zip(&mut ga, gout.data(), self.values[b.0].data(), |g, y| g * y);
                let mut gb = self.pool.take(gout.numel());
                fill_zip(&mut gb, gout.data(), self.values[a.0].data(), |g, x| g * x);
                let sa = self.values[a.0].shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, ga).unwrap());
                self.accumulate(*b, Tensor::new(&sa, gb).unwrap());
            }
            Op::ScalarMul(a, c) => {
                let c = *c;
                let d = self.pooled_map(gout, |x| x * c);
                self.accumulate(*a, d);
            }
            Op::ScalarAdd(a) => {
                let d = self.pooled_copy(gout);
                self.accumulate(*a, d);
            }
            Op::MatMul(a, b) => {
                let (m, k) = (self.values[a.0].shape()[0], self.values[a.0].shape()[1]);
                let n = self.values[b.0].shape()[1];
                // dA = G @ Bᵀ ; dB = Aᵀ @ G.
                let threads = self.kernel_threads();
                let mut da = self.pool.take(m * k);
                // B[k,n] is already the transposed right operand for G·Bᵀ.
                gemm::gemm_nt_with(
                    threads,
                    gout.data(),
                    self.values[b.0].data(),
                    &mut da,
                    m,
                    n,
                    k,
                );
                let mut db = self.pool.take(k * n);
                let mut scratch = self.pool.take(k * m + n * m);
                gemm::gemm_tn_with(
                    threads,
                    self.values[a.0].data(),
                    gout.data(),
                    &mut db,
                    &mut scratch,
                    m,
                    k,
                    n,
                );
                self.pool.put(scratch);
                self.accumulate(*a, Tensor::new(&[m, k], da).unwrap());
                self.accumulate(*b, Tensor::new(&[k, n], db).unwrap());
            }
            Op::MatMulTransB(a, b) => {
                let (m, k) = (self.values[a.0].shape()[0], self.values[a.0].shape()[1]);
                let n = self.values[b.0].shape()[0];
                // Y = A Bᵀ: dA = G @ B ; dB = Gᵀ @ A.
                let threads = self.kernel_threads();
                let mut da = self.pool.take(m * k);
                let mut scratch = self.pool.take(n * k);
                gemm::gemm_nn_with(
                    threads,
                    gout.data(),
                    self.values[b.0].data(),
                    &mut da,
                    &mut scratch,
                    m,
                    n,
                    k,
                );
                self.pool.put(scratch);
                let mut db = self.pool.take(n * k);
                let mut scratch = self.pool.take(n * m + k * m);
                gemm::gemm_tn_with(
                    threads,
                    gout.data(),
                    self.values[a.0].data(),
                    &mut db,
                    &mut scratch,
                    m,
                    n,
                    k,
                );
                self.pool.put(scratch);
                self.accumulate(*a, Tensor::new(&[m, k], da).unwrap());
                self.accumulate(*b, Tensor::new(&[n, k], db).unwrap());
            }
            Op::BatchMatMul(a, b) => {
                let (bsz, m, k) = {
                    let sa = self.values[a.0].shape();
                    (sa[0], sa[1], sa[2])
                };
                let n = self.values[b.0].shape()[2];
                let threads = self.kernel_threads();
                // dA_bi = G_bi · B_biᵀ — B_bi[k,n] is already transposed
                // for gemm_nt, so this fans out directly.
                let mut da = self.pool.take(bsz * m * k);
                {
                    let g = gout.data();
                    let bv = self.values[b.0].data();
                    ip_par::par_chunks_mut_with(threads, &mut da, m * k, |bi, chunk| {
                        gemm::gemm_nt_with(
                            1,
                            &g[bi * m * n..(bi + 1) * m * n],
                            &bv[bi * k * n..(bi + 1) * k * n],
                            chunk,
                            m,
                            n,
                            k,
                        );
                    });
                }
                // dB_bi = A_biᵀ · G_bi: pre-transpose both whole batches,
                // then dB_bi = Aᵀ_bi · (Gᵀ_bi)ᵀ runs as gemm_nt per item.
                let mut at_all = self.pool.take(bsz * k * m);
                {
                    let av = self.values[a.0].data();
                    ip_par::par_chunks_mut_with(threads, &mut at_all, k * m, |bi, chunk| {
                        gemm::transpose_into(&av[bi * m * k..(bi + 1) * m * k], m, k, chunk);
                    });
                }
                let mut gt_all = self.pool.take(bsz * n * m);
                {
                    let g = gout.data();
                    ip_par::par_chunks_mut_with(threads, &mut gt_all, n * m, |bi, chunk| {
                        gemm::transpose_into(&g[bi * m * n..(bi + 1) * m * n], m, n, chunk);
                    });
                }
                let mut db = self.pool.take(bsz * k * n);
                {
                    let at = &at_all[..];
                    let gt = &gt_all[..];
                    ip_par::par_chunks_mut_with(threads, &mut db, k * n, |bi, chunk| {
                        gemm::gemm_nt_with(
                            1,
                            &at[bi * k * m..(bi + 1) * k * m],
                            &gt[bi * n * m..(bi + 1) * n * m],
                            chunk,
                            k,
                            m,
                            n,
                        );
                    });
                }
                self.pool.put(at_all);
                self.pool.put(gt_all);
                self.accumulate(*a, Tensor::new(&[bsz, m, k], da).unwrap());
                self.accumulate(*b, Tensor::new(&[bsz, k, n], db).unwrap());
            }
            Op::BatchMatMulTransB(a, b) => {
                let (bsz, m, k) = {
                    let sa = self.values[a.0].shape();
                    (sa[0], sa[1], sa[2])
                };
                let n = self.values[b.0].shape()[1];
                let threads = self.kernel_threads();
                // dA_bi = G_bi · B_bi needs B transposed for gemm_nt.
                let mut btr_all = self.pool.take(bsz * k * n);
                {
                    let bv = self.values[b.0].data();
                    ip_par::par_chunks_mut_with(threads, &mut btr_all, k * n, |bi, chunk| {
                        gemm::transpose_into(&bv[bi * n * k..(bi + 1) * n * k], n, k, chunk);
                    });
                }
                let mut da = self.pool.take(bsz * m * k);
                {
                    let g = gout.data();
                    let btr = &btr_all[..];
                    ip_par::par_chunks_mut_with(threads, &mut da, m * k, |bi, chunk| {
                        gemm::gemm_nt_with(
                            1,
                            &g[bi * m * n..(bi + 1) * m * n],
                            &btr[bi * k * n..(bi + 1) * k * n],
                            chunk,
                            m,
                            n,
                            k,
                        );
                    });
                }
                self.pool.put(btr_all);
                // dB_bi = Gᵀ_bi · A_bi = Gᵀ_bi · (Aᵀ_bi)ᵀ.
                let mut gt_all = self.pool.take(bsz * n * m);
                {
                    let g = gout.data();
                    ip_par::par_chunks_mut_with(threads, &mut gt_all, n * m, |bi, chunk| {
                        gemm::transpose_into(&g[bi * m * n..(bi + 1) * m * n], m, n, chunk);
                    });
                }
                let mut at_all = self.pool.take(bsz * k * m);
                {
                    let av = self.values[a.0].data();
                    ip_par::par_chunks_mut_with(threads, &mut at_all, k * m, |bi, chunk| {
                        gemm::transpose_into(&av[bi * m * k..(bi + 1) * m * k], m, k, chunk);
                    });
                }
                let mut db = self.pool.take(bsz * n * k);
                {
                    let gt = &gt_all[..];
                    let at = &at_all[..];
                    ip_par::par_chunks_mut_with(threads, &mut db, n * k, |bi, chunk| {
                        gemm::gemm_nt_with(
                            1,
                            &gt[bi * n * m..(bi + 1) * n * m],
                            &at[bi * k * m..(bi + 1) * k * m],
                            chunk,
                            n,
                            m,
                            k,
                        );
                    });
                }
                self.pool.put(gt_all);
                self.pool.put(at_all);
                self.accumulate(*a, Tensor::new(&[bsz, m, k], da).unwrap());
                self.accumulate(*b, Tensor::new(&[bsz, n, k], db).unwrap());
            }
            Op::Relu(a) => {
                let mut d = self.pool.take(gout.numel());
                fill_zip(&mut d, self.values[a.0].data(), gout.data(), |x, g| {
                    if x > 0.0 {
                        g
                    } else {
                        0.0
                    }
                });
                let sa = self.values[a.0].shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, d).unwrap());
            }
            Op::Sigmoid(a) => {
                let mut d = self.pool.take(gout.numel());
                fill_zip(&mut d, self.values[i].data(), gout.data(), |s, g| {
                    g * s * (1.0 - s)
                });
                let sa = self.values[i].shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, d).unwrap());
            }
            Op::Tanh(a) => {
                let mut d = self.pool.take(gout.numel());
                fill_zip(&mut d, self.values[i].data(), gout.data(), |t, g| {
                    g * (1.0 - t * t)
                });
                let sa = self.values[i].shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, d).unwrap());
            }
            Op::Gelu(a) => {
                let mut d = self.pool.take(gout.numel());
                fill_zip(&mut d, self.values[a.0].data(), gout.data(), |x, g| {
                    g * gelu_bwd(x)
                });
                let sa = self.values[a.0].shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, d).unwrap());
            }
            Op::Softmax(a) => {
                let mut grad = self.pool.take(gout.numel());
                let y = &self.values[i];
                let d = *y.shape().last().unwrap();
                for ((o_row, yr), gr) in grad
                    .chunks_mut(d)
                    .zip(y.data().chunks(d))
                    .zip(gout.data().chunks(d))
                {
                    let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    for ((o, &yj), &gj) in o_row.iter_mut().zip(yr).zip(gr) {
                        *o = yj * (gj - dot);
                    }
                }
                let sa = y.shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, grad).unwrap());
            }
            Op::Sum(a) => {
                let g = gout.data()[0];
                let mut d = self.pool.take(self.values[a.0].numel());
                d.fill(g);
                let sa = self.values[a.0].shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, d).unwrap());
            }
            Op::Mean(a) => {
                let n = self.values[a.0].numel() as f32;
                let g = gout.data()[0] / n;
                let mut d = self.pool.take(self.values[a.0].numel());
                d.fill(g);
                let sa = self.values[a.0].shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, d).unwrap());
            }
            Op::Reshape(a) => {
                let mut d = self.pool.take(gout.numel());
                d.copy_from_slice(gout.data());
                let sa = self.values[a.0].shape().to_vec();
                self.accumulate(*a, Tensor::new(&sa, d).unwrap());
            }
            Op::AddBiasRow(a, bias) => {
                let ga = self.pooled_copy(gout);
                self.accumulate(*a, ga);
                let n = self.values[bias.0].numel();
                let mut gb = self.pool.take_zeroed(n);
                for (idx, &g) in gout.data().iter().enumerate() {
                    gb[idx % n] += g;
                }
                self.accumulate(*bias, Tensor::new(&[n], gb).unwrap());
            }
            Op::AddBiasChannel(a, bias) => {
                let ga = self.pooled_copy(gout);
                self.accumulate(*a, ga);
                let sa = self.values[a.0].shape().to_vec();
                let (c, l) = (sa[1], sa[2]);
                let mut gb = self.pool.take_zeroed(c);
                for (idx, &g) in gout.data().iter().enumerate() {
                    gb[(idx / l) % c] += g;
                }
                self.accumulate(*bias, Tensor::new(&[c], gb).unwrap());
            }
            Op::Conv1d {
                input,
                weight,
                padding,
                stride,
                cols,
            } => {
                let (b, cin, l) = {
                    let si = self.values[input.0].shape();
                    (si[0], si[1], si[2])
                };
                let (cout, k) = {
                    let sw = self.values[weight.0].shape();
                    (sw[0], sw[2])
                };
                let lout = gout.shape()[2];
                let threads = self.kernel_threads();
                let ck = cin * k;
                let rows = b * lout;
                // The forward pass cached the im2col matrix in the op;
                // reuse it for both GEMMs instead of re-expanding the
                // input.
                let colst: &[f32] = cols;
                debug_assert_eq!(colst.len(), rows * ck);
                // Gather G[B,Cout,Lout] → [B·Lout, Cout].
                let mut gout_t = self.pool.take(rows * cout);
                {
                    let g = gout.data();
                    ip_par::par_chunks_mut_with(threads, &mut gout_t, lout * cout, |bi, chunk| {
                        gemm::transpose_into(
                            &g[bi * cout * lout..(bi + 1) * cout * lout],
                            cout,
                            lout,
                            chunk,
                        );
                    });
                }
                // dW[Cout, Cin·K] = Gᵀ · cols.
                let mut dw = self.pool.take(cout * ck);
                let mut scratch = self.pool.take(cout * rows + ck * rows);
                gemm::gemm_tn_with(
                    threads,
                    &gout_t,
                    colst,
                    &mut dw,
                    &mut scratch,
                    rows,
                    cout,
                    ck,
                );
                self.pool.put(scratch);
                // d(cols)[B·Lout, Cin·K] = G · W, then scatter-add back.
                let mut dcolst = self.pool.take(rows * ck);
                let mut scratch = self.pool.take(ck * cout);
                gemm::gemm_nn_with(
                    threads,
                    &gout_t,
                    self.values[weight.0].data(),
                    &mut dcolst,
                    &mut scratch,
                    rows,
                    cout,
                    ck,
                );
                self.pool.put(scratch);
                let mut din = self.pool.take_zeroed(b * cin * l);
                col2im(
                    &dcolst, &mut din, b, cin, l, k, *padding, *stride, lout, threads,
                );
                self.pool.put(gout_t);
                self.pool.put(dcolst);
                self.accumulate(*input, Tensor::new(&[b, cin, l], din).unwrap());
                self.accumulate(*weight, Tensor::new(&[cout, cin, k], dw).unwrap());
            }
            Op::MaxPool1d { input, argmax } => {
                let sa = self.values[input.0].shape().to_vec();
                let mut din = self.pool.take_zeroed(self.values[input.0].numel());
                for (oi, &src) in argmax.iter().enumerate() {
                    din[src] += gout.data()[oi];
                }
                self.accumulate(*input, Tensor::new(&sa, din).unwrap());
            }
            Op::AvgPoolGlobal(a) => {
                let sa = self.values[a.0].shape().to_vec();
                let (b, c, l) = (sa[0], sa[1], sa[2]);
                let mut din = self.pool.take(b * c * l);
                for (row, &g) in din.chunks_mut(l).zip(gout.data()) {
                    row.fill(g / l as f32);
                }
                self.accumulate(*a, Tensor::new(&sa, din).unwrap());
            }
            Op::BatchNorm {
                input,
                gamma,
                beta,
                x_hat,
                inv_std,
            } => {
                let sa = self.values[input.0].shape().to_vec();
                let (b, c, l) = (sa[0], sa[1], sa[2]);
                let n = (b * l) as f32;
                let mut dgamma = self.pool.take_zeroed(c);
                let mut dbeta = self.pool.take_zeroed(c);
                let mut sum_dxhat = self.pool.take_zeroed(c);
                let mut sum_dxhat_xhat = self.pool.take_zeroed(c);
                let mut din = self.pool.take(b * c * l);
                {
                    let g = self.values[gamma.0].data();
                    for bi in 0..b {
                        for ci in 0..c {
                            for t in 0..l {
                                let idx = (bi * c + ci) * l + t;
                                let go = gout.data()[idx];
                                dgamma[ci] += go * x_hat[idx];
                                dbeta[ci] += go;
                                let dxhat = go * g[ci];
                                sum_dxhat[ci] += dxhat;
                                sum_dxhat_xhat[ci] += dxhat * x_hat[idx];
                            }
                        }
                    }
                    for bi in 0..b {
                        for ci in 0..c {
                            for t in 0..l {
                                let idx = (bi * c + ci) * l + t;
                                let dxhat = gout.data()[idx] * g[ci];
                                din[idx] = inv_std[ci] / n
                                    * (n * dxhat - sum_dxhat[ci] - x_hat[idx] * sum_dxhat_xhat[ci]);
                            }
                        }
                    }
                }
                self.pool.put(sum_dxhat);
                self.pool.put(sum_dxhat_xhat);
                self.accumulate(*input, Tensor::new(&sa, din).unwrap());
                self.accumulate(*gamma, Tensor::new(&[c], dgamma).unwrap());
                self.accumulate(*beta, Tensor::new(&[c], dbeta).unwrap());
            }
            Op::LayerNorm {
                input,
                gamma,
                beta,
                x_hat,
                inv_std,
            } => {
                let sa = self.values[input.0].shape().to_vec();
                let d = *sa.last().unwrap();
                let rows = self.values[input.0].numel() / d;
                let mut dgamma = self.pool.take_zeroed(d);
                let mut dbeta = self.pool.take_zeroed(d);
                let mut din = self.pool.take(rows * d);
                {
                    let g = self.values[gamma.0].data();
                    for (r, &inv_std_r) in inv_std.iter().enumerate().take(rows) {
                        let mut sum_dxhat = 0.0f32;
                        let mut sum_dxhat_xhat = 0.0f32;
                        for j in 0..d {
                            let idx = r * d + j;
                            let go = gout.data()[idx];
                            dgamma[j] += go * x_hat[idx];
                            dbeta[j] += go;
                            let dxhat = go * g[j];
                            sum_dxhat += dxhat;
                            sum_dxhat_xhat += dxhat * x_hat[idx];
                        }
                        let nd = d as f32;
                        for (j, &gj) in g.iter().enumerate().take(d) {
                            let idx = r * d + j;
                            let dxhat = gout.data()[idx] * gj;
                            din[idx] = inv_std_r / nd
                                * (nd * dxhat - sum_dxhat - x_hat[idx] * sum_dxhat_xhat);
                        }
                    }
                }
                self.accumulate(*input, Tensor::new(&sa, din).unwrap());
                self.accumulate(*gamma, Tensor::new(&[d], dgamma).unwrap());
                self.accumulate(*beta, Tensor::new(&[d], dbeta).unwrap());
            }
            Op::ChannelAffine { input, scale } => {
                let sa = self.values[input.0].shape().to_vec();
                let (c, l) = (sa[1], sa[2]);
                let mut din = self.pool.take(gout.numel());
                for (idx, (d, &g)) in din.iter_mut().zip(gout.data()).enumerate() {
                    *d = g * scale[(idx / l) % c];
                }
                self.accumulate(*input, Tensor::new(&sa, din).unwrap());
            }
            Op::ConcatChannels(inputs) => {
                let shapes: Vec<Vec<usize>> = inputs
                    .iter()
                    .map(|id| self.values[id.0].shape().to_vec())
                    .collect();
                let (b, l) = (shapes[0][0], shapes[0][2]);
                let c_total: usize = shapes.iter().map(|s| s[1]).sum();
                let mut c_off = 0;
                for (inp, s) in inputs.iter().zip(&shapes) {
                    let c = s[1];
                    let mut din = self.pool.take(b * c * l);
                    for bi in 0..b {
                        for ci in 0..c {
                            let src_start = (bi * c_total + c_off + ci) * l;
                            let dst_start = (bi * c + ci) * l;
                            din[dst_start..dst_start + l]
                                .copy_from_slice(&gout.data()[src_start..src_start + l]);
                        }
                    }
                    self.accumulate(*inp, Tensor::new(&[b, c, l], din).unwrap());
                    c_off += c;
                }
            }
            Op::SliceLastDim { input, start } => {
                let sa = self.values[input.0].shape().to_vec();
                let d = *sa.last().unwrap();
                let len = *gout.shape().last().unwrap();
                let rows = self.values[input.0].numel() / d;
                let mut din = self.pool.take_zeroed(rows * d);
                for r in 0..rows {
                    din[r * d + start..r * d + start + len]
                        .copy_from_slice(&gout.data()[r * len..(r + 1) * len]);
                }
                self.accumulate(*input, Tensor::new(&sa, din).unwrap());
            }
            Op::Dropout { input, mask } => {
                let sa = self.values[input.0].shape().to_vec();
                let mut din = self.pool.take(gout.numel());
                fill_zip(&mut din, gout.data(), mask, |g, m| g * m);
                self.accumulate(*input, Tensor::new(&sa, din).unwrap());
            }
        }
        self.ops[i] = op;
    }
}

/// Reclaims the forward-state buffers an op carried (truncated by `reset`).
fn recycle_op(pool: &mut Pool, op: Op) {
    match op {
        Op::BatchNorm { x_hat, inv_std, .. } | Op::LayerNorm { x_hat, inv_std, .. } => {
            pool.put(x_hat);
            pool.put(inv_std);
        }
        Op::ChannelAffine { scale, .. } => pool.put(scale),
        Op::Conv1d { cols, .. } => pool.put(cols),
        Op::Dropout { mask, .. } => pool.put(mask),
        _ => {}
    }
}

/// `dst[i] = f(src[i])` over the full (equal-length) slices.
fn fill_map(dst: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f(s);
    }
}

/// `dst[i] = f(a[i], b[i])` over the full (equal-length) slices.
fn fill_zip(dst: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = f(x, y);
    }
}

/// Expands `x[B,Cin,L]` into the im2col matrix `[B·Lout, Cin·K]` (each row
/// is one output position's receptive field; padded taps are explicit zeros
/// so `0 · NaN` still propagates through the GEMM). Parallel over batch
/// items — disjoint contiguous row blocks.
#[allow(clippy::too_many_arguments)]
fn im2col(
    x: &[f32],
    colst: &mut [f32],
    b: usize,
    cin: usize,
    l: usize,
    k: usize,
    padding: usize,
    stride: usize,
    lout: usize,
    threads: usize,
) {
    let ck = cin * k;
    debug_assert_eq!(x.len(), b * cin * l);
    debug_assert_eq!(colst.len(), b * lout * ck);
    ip_par::par_chunks_mut_with(threads, colst, lout * ck, |bi, chunk| {
        let xb = &x[bi * cin * l..(bi + 1) * cin * l];
        for (t, row) in chunk.chunks_mut(ck).enumerate() {
            for ci in 0..cin {
                for kk in 0..k {
                    let pos = t * stride + kk;
                    row[ci * k + kk] = if pos < padding || pos - padding >= l {
                        0.0
                    } else {
                        xb[ci * l + (pos - padding)]
                    };
                }
            }
        }
    });
}

/// Scatter-adds the im2col-shaped gradient `[B·Lout, Cin·K]` back into the
/// input gradient `[B,Cin,L]`. Parallel over batch items; within an item the
/// `(t, ci, kk)` order is fixed, so overlapping taps accumulate in a
/// deterministic serial order.
#[allow(clippy::too_many_arguments)]
fn col2im(
    dcolst: &[f32],
    din: &mut [f32],
    b: usize,
    cin: usize,
    l: usize,
    k: usize,
    padding: usize,
    stride: usize,
    lout: usize,
    threads: usize,
) {
    let ck = cin * k;
    debug_assert_eq!(dcolst.len(), b * lout * ck);
    debug_assert_eq!(din.len(), b * cin * l);
    ip_par::par_chunks_mut_with(threads, din, cin * l, |bi, chunk| {
        let cols = &dcolst[bi * lout * ck..(bi + 1) * lout * ck];
        for (t, row) in cols.chunks(ck).enumerate() {
            for ci in 0..cin {
                for kk in 0..k {
                    let pos = t * stride + kk;
                    if pos < padding || pos - padding >= l {
                        continue;
                    }
                    chunk[ci * l + (pos - padding)] += row[ci * k + kk];
                }
            }
        }
    });
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

fn gelu_fwd(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_bwd(x: f32) -> f32 {
    let u = GELU_C * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    let du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_add_mul() {
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::from_slice(&[1.0, 2.0]));
        let b = g.constant(Tensor::from_slice(&[3.0, 4.0]));
        let s = g.add(a, b);
        let p = g.mul(s, b);
        assert_eq!(g.value(s).data(), &[4.0, 6.0]);
        assert_eq!(g.value(p).data(), &[12.0, 24.0]);
    }

    #[test]
    fn backward_through_chain() {
        // loss = mean((a*b - c)^2) with scalars.
        let mut g = Graph::new(0);
        let a = g.param(Tensor::scalar(2.0));
        let b = g.param(Tensor::scalar(3.0));
        g.freeze();
        let c = g.constant(Tensor::scalar(10.0));
        let prod = g.mul(a, b);
        let diff = g.sub(prod, c);
        let sq = g.mul(diff, diff);
        let loss = g.mean(sq);
        g.backward(loss);
        // d/da (ab−c)² = 2(ab−c)·b = 2·(−4)·3 = −24.
        assert!((g.grad(a).unwrap().data()[0] + 24.0).abs() < 1e-4);
        assert!((g.grad(b).unwrap().data()[0] + 16.0).abs() < 1e-4);
    }

    #[test]
    fn matmul_forward_known() {
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::new(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap());
        let b = g.constant(Tensor::new(&[3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap());
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_trans_b_matches_matmul() {
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::new(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap());
        // b as [2,3] so bᵀ is [3,2].
        let b = g.constant(Tensor::new(&[2, 3], vec![7., 9., 11., 8., 10., 12.]).unwrap());
        let c = g.matmul_trans_b(a, b);
        assert_eq!(g.value(c).data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::new(&[2, 3], vec![1., 2., 3., -1., 0., 1.]).unwrap());
        let s = g.softmax(a);
        let v = g.value(s);
        for row in v.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn reset_preserves_params() {
        let mut g = Graph::new(0);
        let w = g.param(Tensor::scalar(1.5));
        g.freeze();
        let x = g.constant(Tensor::scalar(2.0));
        let y = g.mul(w, x);
        let loss = g.mean(y);
        g.backward(loss);
        assert!(g.grad(w).is_some());
        g.reset();
        assert_eq!(g.len(), 1);
        assert_eq!(g.value(w).data(), &[1.5]);
        assert!(g.grad(w).is_none());
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::from_slice(&[1.0, 2.0, 3.0]));
        let d = g.dropout(a, 0.5, false);
        assert_eq!(g.value(d).data(), g.value(a).data());
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut g = Graph::new(7);
        let ones = Tensor::ones(&[10_000]);
        let a = g.constant(ones);
        let d = g.dropout(a, 0.3, true);
        let mean = g.value(d).sum() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn conv1d_identity_kernel() {
        let mut g = Graph::new(0);
        let x = g.constant(Tensor::new(&[1, 1, 4], vec![1., 2., 3., 4.]).unwrap());
        let w = g.constant(Tensor::new(&[1, 1, 1], vec![1.0]).unwrap());
        let y = g.conv1d(x, w, 0, 1);
        assert_eq!(g.value(y).data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn conv1d_known_values() {
        // Moving sum kernel [1,1] over [1,2,3,4] → [3,5,7].
        let mut g = Graph::new(0);
        let x = g.constant(Tensor::new(&[1, 1, 4], vec![1., 2., 3., 4.]).unwrap());
        let w = g.constant(Tensor::new(&[1, 1, 2], vec![1.0, 1.0]).unwrap());
        let y = g.conv1d(x, w, 0, 1);
        assert_eq!(g.value(y).data(), &[3., 5., 7.]);
        // With padding 1: [1,3,5,7,4].
        let y2 = g.conv1d(x, w, 1, 1);
        assert_eq!(g.value(y2).data(), &[1., 3., 5., 7., 4.]);
        // Stride 2, no padding: [3,7].
        let y3 = g.conv1d(x, w, 0, 2);
        assert_eq!(g.value(y3).data(), &[3., 7.]);
    }

    #[test]
    fn max_pool_forward_and_routing() {
        let mut g = Graph::new(0);
        let x = g.param(Tensor::new(&[1, 1, 4], vec![1., 5., 2., 4.]).unwrap());
        g.freeze();
        let y = g.max_pool1d(x, 2, 2);
        assert_eq!(g.value(y).data(), &[5., 4.]);
        let s = g.sum(y);
        g.backward(s);
        // Gradient routes only to the argmax positions.
        assert_eq!(g.grad(x).unwrap().data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn avg_pool_global() {
        let mut g = Graph::new(0);
        let x = g.constant(Tensor::new(&[1, 2, 2], vec![1., 3., 10., 20.]).unwrap());
        let y = g.avg_pool_global(x);
        assert_eq!(g.value(y).data(), &[2., 15.]);
    }

    #[test]
    fn concat_channels_roundtrip() {
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::new(&[1, 1, 2], vec![1., 2.]).unwrap());
        let b = g.constant(Tensor::new(&[1, 2, 2], vec![3., 4., 5., 6.]).unwrap());
        let c = g.concat_channels(&[a, b]);
        assert_eq!(g.value(c).shape(), &[1, 3, 2]);
        assert_eq!(g.value(c).data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn slice_last_dim_known() {
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::new(&[2, 4], vec![0., 1., 2., 3., 4., 5., 6., 7.]).unwrap());
        let s = g.slice_last_dim(a, 1, 2);
        assert_eq!(g.value(s).shape(), &[2, 2]);
        assert_eq!(g.value(s).data(), &[1., 2., 5., 6.]);
    }

    #[test]
    fn layer_norm_normalizes() {
        let mut g = Graph::new(0);
        let gamma = g.param(Tensor::ones(&[4]));
        let beta = g.param(Tensor::zeros(&[4]));
        g.freeze();
        let x = g.constant(Tensor::new(&[1, 4], vec![1., 2., 3., 4.]).unwrap());
        let y = g.layer_norm(x, gamma, beta, 1e-5);
        let v = g.value(y);
        let mean: f32 = v.data().iter().sum::<f32>() / 4.0;
        let var: f32 = v.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batch_norm_normalizes_channels() {
        let mut g = Graph::new(0);
        let gamma = g.param(Tensor::ones(&[2]));
        let beta = g.param(Tensor::zeros(&[2]));
        g.freeze();
        let x = g.constant(Tensor::new(&[2, 2, 3], (0..12).map(|i| i as f32).collect()).unwrap());
        let (y, mean, var) = g.batch_norm(x, gamma, beta, 1e-5);
        // Channel 0 covers values {0,1,2,6,7,8}: mean 4.
        assert!((mean[0] - 4.0).abs() < 1e-5);
        assert!(var[0] > 0.0);
        // Output channel means ≈ 0.
        let v = g.value(y);
        let mut ch0 = 0.0;
        for bi in 0..2 {
            for t in 0..3 {
                ch0 += v.at3(bi, 0, t);
            }
        }
        assert!(ch0.abs() < 1e-4);
    }

    // ---- PR 2: pool / parallel kernel / NaN-propagation coverage ----

    #[test]
    fn pool_take_put_reuses_and_caps() {
        let mut pool = Pool::default();
        let buf = pool.take(8);
        let ptr = buf.as_ptr();
        pool.put(buf);
        // Same-length request hands the same allocation back.
        let again = pool.take(8);
        assert_eq!(again.as_ptr(), ptr);
        pool.put(again);
        // The cap bounds how many buffers a length class retains.
        for _ in 0..(POOL_MAX_PER_LEN + 10) {
            pool.put(vec![0.0; 8]);
        }
        assert_eq!(pool.free[&8].len(), POOL_MAX_PER_LEN);
    }

    #[test]
    fn matmul_zero_times_nan_propagates() {
        // Regression for the old `av == 0.0 { continue; }` fast-path: a zero
        // row times a NaN/∞ column must stay NaN through the graph op.
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::new(&[1, 2], vec![0.0, 0.0]).unwrap());
        // Column 0 dots against [NaN, 1], column 1 against [∞, 2].
        let b = g.constant(Tensor::new(&[2, 2], vec![f32::NAN, f32::INFINITY, 1.0, 2.0]).unwrap());
        let c = g.matmul(a, b);
        assert!(g.value(c).data()[0].is_nan(), "0·NaN lost in matmul");
        assert!(g.value(c).data()[1].is_nan(), "0·∞ lost in matmul");
        let bt = g.constant(Tensor::new(&[2, 2], vec![f32::NAN, f32::INFINITY, 1.0, 2.0]).unwrap());
        let ct = g.matmul_trans_b(a, bt);
        assert!(
            g.value(ct).data()[0].is_nan(),
            "0·NaN lost in matmul_trans_b"
        );
    }

    /// One training-shaped step: build ops past the frozen prefix, backward,
    /// return (value, grad) of interest.
    fn step(g: &mut Graph, w: NodeId) -> (Vec<f32>, Vec<f32>) {
        g.reset();
        let x = g.constant(
            Tensor::new(&[3, 1, 8], (0..24).map(|i| (i as f32).sin()).collect()).unwrap(),
        );
        let c = g.conv1d(x, w, 1, 1);
        let r = g.relu(c);
        let flat = g.reshape(r, &[3, 16]);
        let sq = g.mul(flat, flat);
        let loss = g.mean(sq);
        g.backward(loss);
        (
            g.value(loss).data().to_vec(),
            g.grad(w).unwrap().data().to_vec(),
        )
    }

    #[test]
    fn pooled_buffers_keep_steady_state_deterministic() {
        // Repeating an identical step must give bit-identical results even
        // though later iterations run entirely on recycled buffers, and the
        // tape must not grow.
        let mut g = Graph::new(0);
        let w = g.param(Tensor::new(&[2, 1, 3], vec![0.5, -0.25, 1.0, 0.1, 0.2, -0.4]).unwrap());
        g.freeze();
        let (l0, gw0) = step(&mut g, w);
        let len_after_first = g.len();
        for _ in 0..3 {
            let (l, gw) = step(&mut g, w);
            assert_eq!(l[0].to_bits(), l0[0].to_bits());
            assert!(gw.iter().zip(&gw0).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(g.len(), len_after_first, "tape grew across steps");
        }
    }

    #[test]
    fn kernel_results_bit_identical_across_thread_counts() {
        let run = |threads: usize| -> (Vec<f32>, Vec<f32>) {
            let mut g = Graph::new(0);
            let w = g.param(
                Tensor::new(
                    &[4, 2, 3],
                    (0..24).map(|i| (i as f32 * 0.37).cos()).collect(),
                )
                .unwrap(),
            );
            g.freeze();
            g.set_threads(Some(threads));
            let x = g.constant(
                Tensor::new(
                    &[5, 2, 40],
                    (0..400).map(|i| (i as f32 * 0.11).sin()).collect(),
                )
                .unwrap(),
            );
            let c = g.conv1d(x, w, 1, 2);
            let flat = g.reshape(c, &[5, 4 * 20]);
            let m = g.constant(
                Tensor::new(
                    &[30, 80],
                    (0..2400).map(|i| (i as f32 * 0.05).sin()).collect(),
                )
                .unwrap(),
            );
            let y = g.matmul_trans_b(flat, m);
            let sq = g.mul(y, y);
            let loss = g.mean(sq);
            g.backward(loss);
            (
                g.value(y).data().to_vec(),
                g.grad(w).unwrap().data().to_vec(),
            )
        };
        let (y1, gw1) = run(1);
        for threads in [2, 4] {
            let (y, gw) = run(threads);
            assert!(
                y.iter().zip(&y1).all(|(a, b)| a.to_bits() == b.to_bits()),
                "forward differs at {threads} threads"
            );
            assert!(
                gw.iter().zip(&gw1).all(|(a, b)| a.to_bits() == b.to_bits()),
                "gradient differs at {threads} threads"
            );
        }
    }

    #[test]
    fn reseed_restores_dropout_stream() {
        let mut g = Graph::new(3);
        g.reseed(99);
        let a = g.constant(Tensor::ones(&[64]));
        let d = g.dropout(a, 0.5, true);
        let first = g.value(d).data().to_vec();
        g.reset();
        g.reseed(99);
        let a2 = g.constant(Tensor::ones(&[64]));
        let d2 = g.dropout(a2, 0.5, true);
        assert_eq!(g.value(d2).data(), &first[..]);
    }

    #[test]
    fn add_scaled_grad_accumulates_in_order() {
        let mut g = Graph::new(0);
        let w = g.param(Tensor::from_slice(&[1.0, 2.0]));
        g.freeze();
        assert!(g.grad(w).is_none());
        g.add_scaled_grad(w, 0.5, &Tensor::from_slice(&[2.0, 4.0]));
        assert_eq!(g.grad(w).unwrap().data(), &[1.0, 2.0]);
        g.add_scaled_grad(w, 0.25, &Tensor::from_slice(&[4.0, 8.0]));
        assert_eq!(g.grad(w).unwrap().data(), &[2.0, 4.0]);
        g.clear_grads();
        assert!(g.grad(w).is_none());
    }

    #[test]
    fn batch_matmul_matches_per_item_matmul() {
        let mut g = Graph::new(0);
        let a = g.constant(Tensor::new(&[2, 2, 3], (0..12).map(|i| i as f32).collect()).unwrap());
        let b = g.constant(
            Tensor::new(&[2, 3, 2], (0..12).map(|i| (i as f32) - 5.0).collect()).unwrap(),
        );
        let y = g.batch_matmul(a, b);
        for bi in 0..2 {
            let ai = g.constant(
                Tensor::new(&[2, 3], (0..6).map(|i| (bi * 6 + i) as f32).collect()).unwrap(),
            );
            let bt = g.constant(
                Tensor::new(
                    &[3, 2],
                    (0..6).map(|i| ((bi * 6 + i) as f32) - 5.0).collect(),
                )
                .unwrap(),
            );
            let yi = g.matmul(ai, bt);
            for (j, &v) in g.value(yi).data().iter().enumerate() {
                assert_eq!(v.to_bits(), g.value(y).data()[bi * 4 + j].to_bits());
            }
        }
    }
}
