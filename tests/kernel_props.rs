//! Property-based tests of the packed register-tiled GEMM kernel
//! (`docs/KERNELS.md`): numerical correctness against an f64 naive
//! reference on adversarial shapes, bitwise identity with the pre-packing
//! serial loop, NaN/Inf propagation (no zero-skip), and byte-identity of
//! the fused `pairwise_sq_dists` epilogue against the unfused two-pass
//! form at `PILOTE_THREADS` 1 vs 4, and row independence: a row's bits do
//! not depend on how many rows share its call, whether the call takes the
//! single-row-block kernel or the packed tiles.
//!
//! Shape strategy notes: the packed kernel's edge cases live at panel
//! boundaries — `m` around the `MR` register-tile height (4/6/8 per SIMD
//! tier), `n` around the `NR` panel width (16/32), `k` around the old
//! `KB = 64` blocking factor — plus degenerate empty extents. The ranges
//! below sweep across all of them, whatever tier the host dispatches to.
//!
//! The global [`ThreadConfig`] is process-wide, so every test that touches
//! it serialises on [`CONFIG_LOCK`].

use pilote::tensor::matmul::matmul_unpacked_reference;
use pilote::tensor::parallel::{self, ThreadConfig};
use pilote::tensor::{Rng64, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// f64-accumulated naive product: the ground truth the f32 kernels are
/// compared against within an accumulation-error tolerance.
fn naive_f64(a: &Tensor, b: &Tensor) -> Vec<f64> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += av[i * k + kk] as f64 * bv[kk * n + j] as f64;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Asserts `got` (f32 kernel output) matches `want` (f64 reference) within
/// the error bound of an ascending-k f32 accumulation chain of length `k`.
fn assert_close_to_f64(got: &[f32], want: &[f64], k: usize, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    // Worst-case relative error of k sequential f32 mul+adds grows ~ k·ε;
    // scale an absolute floor in as well for near-zero sums.
    let tol = (k.max(1) as f64) * (f32::EPSILON as f64) * 8.0;
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let err = (g as f64 - w).abs();
        let bound = tol * w.abs().max(1.0);
        assert!(err <= bound, "{ctx}: element {i}: got {g}, want {w}, err {err:.3e} > {bound:.3e}");
    }
}

/// Shapes that stress every packing boundary: `k` straddling the legacy
/// KB=64 block, `m`/`n` straddling the widest tile (8×32) and the
/// narrowest (4×16), plus minimal extents.
const ADVERSARIAL: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 63, 33),
    (4, 64, 16),
    (5, 65, 17),
    (7, 64, 31),
    (8, 63, 32),
    (9, 65, 33),
    (3, 1, 49),
    (17, 129, 2),
];

/// Chain lengths for `row_bits_do_not_depend_on_batch_height`: empty, one
/// step, both sides of 64 (the AVX-512 row kernel's k-block, and where the
/// portable row kernel's four-step groups end with and without a
/// remainder), two blocks and one step, a long chain, and the depth of
/// the paper net's 1024 × 512 layer (sixteen whole blocks).
const ROW_DEPTHS: [usize; 8] = [0, 1, 63, 64, 65, 129, 200, 1024];

/// Output widths on the AVX-512 row kernel's tile widths (16 to 256
/// columns: 8×32, 4×64, 2×128 and 1×256, and the narrower tiles of
/// narrower outputs) and one past each, so a call's last strip is whole or
/// has a one-column tail.
const TILE_WIDTHS: [usize; 10] = [16, 17, 32, 33, 64, 65, 128, 129, 256, 257];

/// Every row of an m-row product equals, bit for bit, the product of that
/// row alone. `m` sweeps 1..=17, across every tier's `MR` and `2·MR + 1`,
/// so each call lands on the single-row-block kernel (at each of its
/// AVX-512 tile heights) or on the packed tiles; `k` sweeps `ROW_DEPTHS`.
/// All four entry points, at 1 and 4 threads. Batched serving (m = 8
/// windows per session against m = 1 per window) relies on this.
fn assert_row_bits_do_not_depend_on_batch_height(seed: u64, n: usize) {
    const M: usize = 17;
    let mut rng = Rng64::new(seed);
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let _guard = CONFIG_LOCK.lock().unwrap();
    let saved = parallel::current();
    for k in ROW_DEPTHS {
        let x = Tensor::randn([M, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let y = Tensor::randn([n, k], 0.0, 1.0, &mut rng);
        // The four products of a `[rows, k]` left operand, in the order
        // matmul, matmul_t, t_matmul (left operand stored transposed),
        // pairwise_sq_dists.
        let products = |a: &Tensor| {
            [
                a.matmul(&b).unwrap(),
                a.matmul_t(&y).unwrap(),
                a.transpose().unwrap().t_matmul(&b).unwrap(),
                a.pairwise_sq_dists(&y).unwrap(),
            ]
        };
        parallel::configure(ThreadConfig::serial());
        let alone: Vec<_> = (0..M).map(|i| products(&x.select_rows(&[i]).unwrap())).collect();
        for threads in [1usize, 4] {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            for m in 1..=M {
                let batch = products(&x.select_rows(&(0..m).collect::<Vec<_>>()).unwrap());
                for (op, product) in batch.iter().enumerate() {
                    for (i, single) in alone.iter().enumerate().take(m) {
                        assert_eq!(
                            bits(product.row(i)),
                            bits(single[op].row(0)),
                            "product {op} row {i} of m={m} (k={k}, n={n}, {threads} threads)"
                        );
                    }
                }
            }
        }
    }
    parallel::configure(saved);
}

/// [`assert_row_bits_do_not_depend_on_batch_height`] at every width of
/// `TILE_WIDTHS`: a last strip with no column tail and one with a
/// one-column tail, at each AVX-512 tile height.
#[test]
fn row_bits_do_not_depend_on_batch_height_at_tile_widths() {
    for n in TILE_WIDTHS {
        assert_row_bits_do_not_depend_on_batch_height(n as u64, n);
    }
}

#[test]
fn packed_matmul_matches_f64_reference_on_adversarial_shapes() {
    let mut rng = Rng64::new(0xD1CE);
    for &(m, k, n) in ADVERSARIAL {
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let got = a.matmul(&b).unwrap();
        assert_close_to_f64(got.as_slice(), &naive_f64(&a, &b), k, &format!("({m},{k},{n})"));
        // And the same product through the transpose-absorbing entry
        // points: matmul_t via a materialised [n, k] operand…
        let bt = b.transpose().unwrap();
        let got_t = a.matmul_t(&bt).unwrap();
        assert_eq!(got.as_slice(), got_t.as_slice(), "matmul_t packing diverged ({m},{k},{n})");
        // …and t_matmul via a materialised [k, m] operand.
        let at = a.transpose().unwrap();
        let got_tm = at.t_matmul(&b).unwrap();
        assert_eq!(got.as_slice(), got_tm.as_slice(), "t_matmul packing diverged ({m},{k},{n})");
    }
}

#[test]
fn empty_extents_produce_empty_or_zero_products() {
    // m = 0 and n = 0: empty outputs of the right shape.
    let a0 = Tensor::zeros([0, 5]);
    let b = Tensor::zeros([5, 3]);
    assert_eq!(a0.matmul(&b).unwrap().shape().dims(), &[0, 3]);
    let b0 = Tensor::zeros([5, 0]);
    let a = Tensor::zeros([4, 5]);
    assert_eq!(a.matmul(&b0).unwrap().shape().dims(), &[4, 0]);
    // k = 0: a [m, n] of structural zeros.
    let ak = Tensor::zeros([4, 0]);
    let bk = Tensor::zeros([0, 3]);
    let out = ak.matmul(&bk).unwrap();
    assert_eq!(out.shape().dims(), &[4, 3]);
    assert!(out.as_slice().iter().all(|&v| v == 0.0));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The packed kernel is bitwise-identical to the pre-packing serial
    /// i-k-j loop on every shape: both accumulate each output element in
    /// one ascending-k f32 chain.
    #[test]
    fn packed_is_bitwise_identical_to_legacy_loop(
        seed in 0u64..10_000,
        m in 1usize..40,
        k in 60usize..70, // straddles the legacy KB = 64 block boundary
        n in 1usize..40,
    ) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let _guard = CONFIG_LOCK.lock().unwrap();
        let saved = parallel::current();
        parallel::configure(ThreadConfig::serial());
        let packed = a.matmul(&b).unwrap();
        parallel::configure(saved);
        let legacy = matmul_unpacked_reference(&a, &b).unwrap();
        prop_assert_eq!(packed.as_slice(), legacy.as_slice());
    }

    /// A NaN planted anywhere in B reaches every output element whose dot
    /// product spans it, regardless of zeros in A (`0 · NaN = NaN`) — and
    /// identically through all packed entry points.
    #[test]
    fn nan_propagation_is_kernel_invariant(
        seed in 0u64..10_000,
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..20,
    ) {
        let mut rng = Rng64::new(seed);
        // Alternate between an all-zero A (the old zero-skip bug's trigger:
        // 0 · NaN must still be NaN) and a dense random A.
        let a = if seed % 2 == 0 {
            Tensor::zeros([m, k])
        } else {
            Tensor::randn([m, k], 0.0, 1.0, &mut rng)
        };
        let mut b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let (ki, ji) = ((seed as usize) % k, (seed as usize / 7) % n);
        b.set(&[ki, ji], f32::NAN).unwrap();

        let c = a.matmul(&b).unwrap();
        for i in 0..m {
            prop_assert!(c.at(i, ji).is_nan(), "matmul row {} col {} not NaN", i, ji);
        }
        let bt = b.transpose().unwrap();
        let c_t = a.matmul_t(&bt).unwrap();
        let at = a.transpose().unwrap();
        let c_tm = at.t_matmul(&b).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&c), bits(&c_t), "matmul_t NaN pattern diverged");
        prop_assert_eq!(bits(&c), bits(&c_tm), "t_matmul NaN pattern diverged");
        let legacy = matmul_unpacked_reference(&a, &b).unwrap();
        prop_assert_eq!(bits(&c), bits(&legacy), "legacy loop NaN pattern diverged");
    }

    /// Fused `pairwise_sq_dists` (squared-distance GEMM epilogue) is
    /// byte-identical to the unfused two-pass form, at 1 and 4 threads.
    #[test]
    fn fused_sq_dists_epilogue_is_byte_identical(
        seed in 0u64..10_000,
        m in 1usize..40,
        d in 1usize..48,
        n in 1usize..20,
    ) {
        let mut rng = Rng64::new(seed);
        let x = Tensor::randn([m, d], 0.0, 1.0, &mut rng);
        let y = Tensor::randn([n, d], 0.0, 1.0, &mut rng);
        let _guard = CONFIG_LOCK.lock().unwrap();
        let saved = parallel::current();
        parallel::configure(ThreadConfig::serial());
        let reference = x.pairwise_sq_dists_unfused(&y).unwrap();
        for threads in [1usize, 4] {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            let fused = x.pairwise_sq_dists(&y).unwrap();
            let unfused = x.pairwise_sq_dists_unfused(&y).unwrap();
            prop_assert_eq!(
                fused.as_slice(), reference.as_slice(),
                "fused diverged at {} threads", threads
            );
            prop_assert_eq!(
                unfused.as_slice(), reference.as_slice(),
                "unfused diverged at {} threads", threads
            );
        }
        parallel::configure(saved);
    }

    /// A row's bits do not depend on how many rows share its call
    /// ([`assert_row_bits_do_not_depend_on_batch_height`]), at widths that
    /// are never a multiple of 16 and reach past one 256-column strip.
    #[test]
    fn row_bits_do_not_depend_on_batch_height(
        seed in 0u64..10_000,
        n_panels in 0usize..18,
        n_rem in 1usize..16,
    ) {
        assert_row_bits_do_not_depend_on_batch_height(seed, 16 * n_panels + n_rem);
    }

    /// The packed kernel stays bitwise thread-invariant on shapes around
    /// the register-tile boundaries (the band split interacts with tile
    /// remainders there).
    #[test]
    fn packed_matmul_is_bitwise_thread_invariant_at_tile_edges(
        seed in 0u64..10_000,
        m in 6usize..10,  // straddles MR ∈ {4, 6, 8}
        k in 30usize..34,
        n in 15usize..34, // straddles NR ∈ {16, 32}
    ) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let _guard = CONFIG_LOCK.lock().unwrap();
        let saved = parallel::current();
        parallel::configure(ThreadConfig::serial());
        let serial = a.matmul(&b).unwrap();
        for threads in [2usize, 3, 4, 7] {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            let par = a.matmul(&b).unwrap();
            prop_assert_eq!(serial.as_slice(), par.as_slice(), "diverged at {} threads", threads);
        }
        parallel::configure(saved);
    }
}
