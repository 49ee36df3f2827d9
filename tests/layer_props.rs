//! The element-wise layers equal the unfused composition they replaced,
//! bit for bit (`docs/KERNELS.md`, "The passes around the GEMM").
//!
//! `BatchNorm1d`, `ReLU` and `Dense` run their element-wise work in banded
//! passes that write no full-size temporaries. The references below are
//! the tensor-op chains those layers ran before: `try_sub`/`try_mul`/
//! `try_add` broadcasts, `mean_axis`, `var_axis`, `sum_axis` and `axpy`.
//! Every comparison is on raw `f32` bits, over batch heights
//! {1, 2, 8, 9, 512} and widths {1, 17, 33, 1024}, at 1 and 4 kernel
//! threads with the size threshold off. Inputs and upstream gradients hold
//! ±0 and ±∞, and NaNs with two different payloads at the same index, so
//! two NaNs meet in `dY·x̂`; one γ is −0 and one β and one bias are NaN,
//! so NaNs also meet in the affine step.
//!
//! A NaN must be met by a NaN, but its payload is not compared. Which
//! payload survives where two NaNs meet is picked per instruction by the
//! compiler, which treats `fadd` and `fmul` as commutative: the
//! reference's `try_mul` and `try_add` broadcasts, for one, fix no operand
//! order. Source operand order cannot pin it.
//!
//! `infer` must equal `forward(Mode::Eval)` for each layer, a `Sequential`
//! and `EmbeddingNet::embed`, and leave no cache for `backward` to use.
//! `BatchNorm1d` must refuse an input of the wrong width at 1 and 4
//! threads, in both modes and in `infer`.
//!
//! A `Sequential` that moves each activation and gradient to the next
//! layer (`forward_owned`, `backward_owned`) must equal the same layers
//! driven one by one through the borrowed `forward` and `backward`, in
//! both modes: output, dX and every gradient, over two backwards.

use pilote::core::{EmbeddingNet, NetConfig};
use pilote::nn::{BatchNorm1d, Dense, Layer, Mode, ReLU, Sequential};
use pilote::tensor::parallel::{self, ThreadConfig};
use pilote::tensor::reduce::Axis;
use pilote::tensor::{Rng64, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Serialises the tests that reconfigure the process-wide thread count.
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

const ROWS: [usize; 5] = [1, 2, 8, 9, 512];
const WIDTHS: [usize; 4] = [1, 17, 33, 1024];
/// Input width of the `Dense` layers under test.
const DENSE_IN: usize = 33;

/// Runs `f(rows, width)` over every shape at 1 and then 4 kernel threads.
fn for_each_case(f: impl Fn(usize, usize)) {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = parallel::current();
    for threads in [1, 4] {
        parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
        for m in ROWS {
            for d in WIDTHS {
                f(m, d);
            }
        }
    }
    parallel::configure(saved);
}

fn nan(payload: u32) -> f32 {
    f32::from_bits(0x7fc0_0000 | payload)
}

/// A `[m, d]` normal tensor with `specials` planted at fixed strided
/// positions; on a collision the earlier entry of `specials` wins.
fn planted(m: usize, d: usize, seed: u64, specials: &[f32]) -> Tensor {
    let mut t = Tensor::randn([m, d], 0.5, 2.0, &mut Rng64::new(seed));
    let n = t.len();
    for (k, &v) in specials.iter().enumerate().rev() {
        t.as_mut_slice()[(k * 7919 + 3) % n] = v;
    }
    t
}

/// An input and two upstream gradients; the gradients' first special is a
/// NaN at the index of the input's NaN, with another payload.
fn operands(m: usize, d: usize, seed: u64) -> (Tensor, Tensor, Tensor) {
    let (inf, ninf) = (f32::INFINITY, f32::NEG_INFINITY);
    let x = planted(m, d, seed, &[nan(0x11), inf, ninf, 0.0, -0.0, -1.0]);
    let dy1 = planted(m, d, seed ^ 1, &[nan(0x22), -0.0, inf, 0.0, ninf, -1.0]);
    let dy2 = planted(m, d, seed ^ 2, &[nan(0x33), 0.0, ninf, -0.0, inf]);
    (x, dy1, dy2)
}

/// `got` must equal `want` bit for bit, a NaN any NaN (see the module
/// docs); names the first difference.
fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let same = |g: &f32, w: &f32| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
    let pairs = got.as_slice().iter().zip(want.as_slice());
    if let Some((i, (g, w))) = pairs.enumerate().find(|(_, (g, w))| !same(g, w)) {
        panic!(
            "{what}: element {i} is {g} ({:#010x}), the reference {w} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// The parameters and their gradients, cloned in `params_and_grads` order.
fn params(layer: &mut dyn Layer) -> Vec<(Tensor, Tensor)> {
    layer.params_and_grads().into_iter().map(|(p, g)| (p.clone(), g.clone())).collect()
}

/// `f` must panic with a message containing `needle`.
fn assert_panics<T>(f: impl FnOnce() -> T, needle: &str, what: &str) {
    let Err(err) = catch_unwind(AssertUnwindSafe(f)) else {
        panic!("{what}: did not panic");
    };
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains(needle), "{what}: panicked with {msg:?}");
}

/// `backward` must panic with "called before forward".
fn assert_backward_panics(layer: &mut dyn Layer, grad: &Tensor, what: &str) {
    assert_panics(|| layer.backward(grad), "called before forward", what);
}

/// The batch normalisation the layer ran before its one-pass rewrite.
struct RefBatchNorm {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    cache: Option<(Tensor, Tensor, usize, bool)>,
}

impl RefBatchNorm {
    const MOMENTUM: f32 = 0.1;
    const EPS: f32 = 1e-5;

    fn of(bn: &mut BatchNorm1d) -> Self {
        let p = params(bn);
        RefBatchNorm {
            gamma: p[0].0.clone(),
            beta: p[1].0.clone(),
            grad_gamma: p[0].1.clone(),
            grad_beta: p[1].1.clone(),
            running_mean: bn.running_mean().clone(),
            running_var: bn.running_var().clone(),
            cache: None,
        }
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let n = input.rows();
        let (mean, var) = match mode {
            Mode::Train => {
                let mean = input.mean_axis(Axis::Rows).unwrap();
                let var = input.var_axis(Axis::Rows).unwrap();
                let unbias = if n > 1 { n as f32 / (n as f32 - 1.0) } else { 1.0 };
                let m = Self::MOMENTUM;
                for (r, &b) in self.running_mean.as_mut_slice().iter_mut().zip(mean.as_slice()) {
                    *r = (1.0 - m) * *r + m * b;
                }
                for (r, &b) in self.running_var.as_mut_slice().iter_mut().zip(var.as_slice()) {
                    *r = (1.0 - m) * *r + m * b * unbias;
                }
                (mean, var)
            }
            Mode::Eval => (self.running_mean.clone(), self.running_var.clone()),
        };
        let inv_std = var.map(|v| 1.0 / (v + Self::EPS).sqrt());
        let x_hat = input.try_sub(&mean).unwrap().try_mul(&inv_std).unwrap();
        let out = x_hat.try_mul(&self.gamma).unwrap().try_add(&self.beta).unwrap();
        self.cache = Some((x_hat, inv_std, n, mode == Mode::Train));
        out
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x_hat, inv_std, batch, train) = self.cache.as_ref().unwrap();
        let n = *batch as f32;
        let dbeta = dy.sum_axis(Axis::Rows).unwrap();
        let dgamma = dy.try_mul(x_hat).unwrap().sum_axis(Axis::Rows).unwrap();
        self.grad_beta.axpy(1.0, &dbeta).unwrap();
        self.grad_gamma.axpy(1.0, &dgamma).unwrap();
        let dx_hat = dy.try_mul(&self.gamma).unwrap();
        if !train {
            return dx_hat.try_mul(inv_std).unwrap();
        }
        let sum_dx_hat = dx_hat.sum_axis(Axis::Rows).unwrap();
        let sum_dx_hat_xhat = dx_hat.try_mul(x_hat).unwrap().sum_axis(Axis::Rows).unwrap();
        let term = dx_hat
            .scale(n)
            .try_sub(&sum_dx_hat)
            .unwrap()
            .try_sub(&x_hat.try_mul(&sum_dx_hat_xhat).unwrap())
            .unwrap();
        term.try_mul(inv_std).unwrap().scale(1.0 / n)
    }
}

/// γ normal with one −0, β normal with one NaN.
fn set_affine(bn: &mut BatchNorm1d, seed: u64) {
    let d = bn.dim();
    let mut rng = Rng64::new(seed);
    let mut pg = bn.params_and_grads();
    pg[0].0.as_mut_slice().copy_from_slice(Tensor::randn([d], 1.0, 0.5, &mut rng).as_slice());
    pg[1].0.as_mut_slice().copy_from_slice(Tensor::randn([d], 0.0, 0.5, &mut rng).as_slice());
    pg[0].0.as_mut_slice()[d / 2] = -0.0;
    pg[1].0.as_mut_slice()[0] = nan(0x44);
}

#[test]
fn batchnorm_matches_the_unfused_composition_in_both_modes() {
    for_each_case(|m, d| {
        let seed = (m * 1000 + d) as u64;
        let (x, dy1, dy2) = operands(m, d, seed);
        let mut bn = BatchNorm1d::new(d);
        set_affine(&mut bn, seed);
        let mut reference = RefBatchNorm::of(&mut bn);
        // A clean training batch first, so the running statistics move.
        let warm = Tensor::randn([16, d], 1.0, 3.0, &mut Rng64::new(seed ^ 9));
        assert_bits(
            &bn.forward(&warm, Mode::Train),
            &reference.forward(&warm, Mode::Train),
            "warm-up",
        );
        for mode in [Mode::Eval, Mode::Train] {
            let case = format!("BatchNorm1d {mode:?} m={m} d={d}");
            let y = bn.forward(&x, mode);
            assert_bits(&y, &reference.forward(&x, mode), &format!("{case}: output"));
            assert_bits(
                bn.running_mean(),
                &reference.running_mean,
                &format!("{case}: running mean"),
            );
            assert_bits(bn.running_var(), &reference.running_var, &format!("{case}: running var"));
            for (k, dy) in [&dy1, &dy2].into_iter().enumerate() {
                let dx = bn.backward(dy);
                assert_bits(&dx, &reference.backward(dy), &format!("{case}: dX of backward {k}"));
            }
            let p = params(&mut bn);
            assert_bits(&p[0].1, &reference.grad_gamma, &format!("{case}: dγ after two backwards"));
            assert_bits(&p[1].1, &reference.grad_beta, &format!("{case}: dβ after two backwards"));
        }
        let case = format!("BatchNorm1d m={m} d={d}");
        let eval = bn.forward(&x, Mode::Eval);
        assert_bits(&bn.infer(&x), &eval, &format!("{case}: infer"));
        assert_backward_panics(&mut bn, &dy1, &case);
    });
}

#[test]
fn batchnorm_rejects_an_input_of_the_wrong_width() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = parallel::current();
    for threads in [1, 4] {
        parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
        let x = Tensor::randn([2, 33], 0.0, 1.0, &mut Rng64::new(5));
        let mut bn = BatchNorm1d::new(17);
        for mode in [Mode::Train, Mode::Eval] {
            let what = format!("BatchNorm1d(17) {mode:?} on [2, 33] at {threads} threads");
            assert_panics(|| bn.forward(&x, mode), "width mismatch", &what);
        }
        let what = format!("BatchNorm1d(17) infer on [2, 33] at {threads} threads");
        assert_panics(|| bn.infer(&x), "width mismatch", &what);
        assert_bits(bn.running_mean(), &Tensor::zeros([17]), "running mean after the panics");
        assert_bits(bn.running_var(), &Tensor::ones([17]), "running var after the panics");
    }
    parallel::configure(saved);
}

#[test]
fn relu_matches_the_unfused_composition() {
    for_each_case(|m, d| {
        let case = format!("ReLU m={m} d={d}");
        let (x, dy1, _) = operands(m, d, (m * 31 + d) as u64);
        let mut relu = ReLU::new();
        let y = relu.forward(&x, Mode::Train);
        let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        assert_bits(&y, &x.map(|v| v.max(0.0)), &format!("{case}: output"));
        assert_bits(&relu.backward(&dy1), &dy1.try_mul(&mask).unwrap(), &format!("{case}: dX"));
        assert_bits(&relu.infer(&x), &relu.forward(&x, Mode::Eval), &format!("{case}: infer"));
        relu.infer(&x);
        assert_backward_panics(&mut relu, &dy1, &case);
    });
}

#[test]
fn dense_matches_the_unfused_composition() {
    for_each_case(|m, d| {
        let case = format!("Dense m={m} d={d}");
        let seed = (m * 77 + d) as u64;
        let mut rng = Rng64::new(seed);
        let mut dense = Dense::new(DENSE_IN, d, &mut rng);
        let mut bias = Tensor::randn([d], 0.0, 1.0, &mut rng);
        bias.as_mut_slice()[0] = nan(0x55);
        dense.params_and_grads()[1].0.as_mut_slice().copy_from_slice(bias.as_slice());
        let (x, _, _) = operands(m, DENSE_IN, seed);
        let (_, dy1, dy2) = operands(m, d, seed);
        let (w, b) = (dense.weight().clone(), dense.bias().clone());

        let y = dense.forward(&x, Mode::Train);
        assert_bits(&y, &x.matmul(&w).unwrap().try_add(&b).unwrap(), &format!("{case}: output"));
        let (mut gw, mut gb) = (Tensor::zeros([DENSE_IN, d]), Tensor::zeros([d]));
        for (k, dy) in [&dy1, &dy2].into_iter().enumerate() {
            let dx = dense.backward(dy);
            assert_bits(&dx, &dy.matmul_t(&w).unwrap(), &format!("{case}: dX of backward {k}"));
            gw.axpy(1.0, &x.t_matmul(dy).unwrap()).unwrap();
            gb.axpy(1.0, &dy.sum_axis(Axis::Rows).unwrap()).unwrap();
        }
        let p = params(&mut dense);
        assert_bits(&p[0].1, &gw, &format!("{case}: dW after two backwards"));
        assert_bits(&p[1].1, &gb, &format!("{case}: db after two backwards"));

        let eval = dense.forward(&x, Mode::Eval);
        assert_bits(&dense.infer(&x), &eval, &format!("{case}: infer"));
        assert_backward_panics(&mut dense, &dy1, &case);
    });
}

#[test]
fn the_owned_chain_equals_the_borrowed_layers_one_by_one() {
    for_each_case(|m, d| {
        let seed = (m * 131 + d) as u64;
        let mut rng = Rng64::new(seed);
        let mut bn = BatchNorm1d::new(d);
        set_affine(&mut bn, seed);
        // A clean training batch first, so the running statistics move.
        bn.forward(&Tensor::randn([16, d], 1.0, 3.0, &mut rng), Mode::Train);
        let mut layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(DENSE_IN, d, &mut rng)),
            Box::new(bn),
            Box::new(ReLU::new()),
            Box::new(Dense::new(d, 9, &mut rng)),
        ];
        let (x, _, _) = operands(m, DENSE_IN, seed);
        let (_, dy1, dy2) = operands(m, 9, seed);
        for mode in [Mode::Eval, Mode::Train] {
            let case = format!("Sequential {mode:?} m={m} d={d}");
            let mut net = Sequential::new();
            for layer in &layers {
                net.push_boxed(layer.clone());
            }
            let mut reference = layers.clone();

            let y = net.forward_owned(x.clone(), mode);
            let want = reference.iter_mut().fold(x.clone(), |x, layer| layer.forward(&x, mode));
            assert_bits(&y, &want, &format!("{case}: output"));
            for (k, dy) in [&dy1, &dy2].into_iter().enumerate() {
                let dx = net.backward_owned(dy.clone());
                let want = reference.iter_mut().rev().fold(dy.clone(), |g, l| l.backward(&g));
                assert_bits(&dx, &want, &format!("{case}: dX of backward {k}"));
            }
            let got = params(&mut net);
            let want: Vec<_> = reference.iter_mut().flat_map(|l| params(l.as_mut())).collect();
            assert_eq!(got.len(), want.len(), "{case}: parameter count");
            for (i, ((p, g), (wp, wg))) in got.iter().zip(&want).enumerate() {
                assert_bits(p, wp, &format!("{case}: parameter {i}"));
                assert_bits(g, wg, &format!("{case}: gradient {i} after two backwards"));
            }
            layers = reference;
        }
    });
}

#[test]
fn sequential_and_embed_infer_equal_the_eval_forward_and_keep_no_cache() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = parallel::current();
    for threads in [1, 4] {
        parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
        for m in ROWS {
            let mut rng = Rng64::new(m as u64);
            let mut net = Sequential::new()
                .push(Dense::new(DENSE_IN, 17, &mut rng))
                .push(BatchNorm1d::new(17))
                .push(ReLU::new())
                .push(Dense::new(17, 9, &mut rng));
            let (x, _, _) = operands(m, DENSE_IN, m as u64);
            let grad = Tensor::randn([m, 9], 0.0, 1.0, &mut rng);
            net.forward(&Tensor::randn([16, DENSE_IN], 0.0, 2.0, &mut rng), Mode::Train);
            let eval = net.forward(&x, Mode::Eval);
            assert_bits(&net.infer(&x), &eval, &format!("Sequential m={m}: infer"));
            assert_backward_panics(&mut net, &grad, &format!("Sequential m={m}"));

            let config = NetConfig::small();
            let mut model = EmbeddingNet::new(config.clone(), &mut rng);
            let warm = Tensor::randn([16, config.input_dim], 0.0, 2.0, &mut rng);
            model.forward_train(&warm);
            let features = Tensor::randn([m, config.input_dim], 0.0, 2.0, &mut rng);
            let eval = model.forward_mode(&features, Mode::Eval);
            assert_bits(&model.embed(&features), &eval, &format!("EmbeddingNet m={m}: embed"));
            let grad = Tensor::ones([m, config.embedding_dim]);
            assert_backward_panics(model.layers_mut(), &grad, &format!("EmbeddingNet m={m}"));
        }
    }
    parallel::configure(saved);
}
