//! Property-based tests of the parallel kernel layer's determinism
//! contract (`docs/THREADING.md`): for any shape and any thread count, a
//! parallel kernel must produce output **bitwise identical** to the serial
//! path — `assert_eq!` on the raw `f32` slices, no tolerance.
//!
//! The global [`ThreadConfig`] is process-wide, so every test that touches
//! it serialises on [`CONFIG_LOCK`]; the std test harness otherwise runs
//! integration tests on multiple threads.

use pilote::tensor::parallel::{self, ThreadConfig};
use pilote::tensor::{Rng64, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per thread count in `{2, 3, 4, 7}` with the size
/// threshold disabled, comparing against the serial result computed first.
fn assert_thread_invariant(f: impl Fn() -> Tensor) {
    let _guard = CONFIG_LOCK.lock().unwrap();
    let saved = parallel::current();
    parallel::configure(ThreadConfig::serial());
    let serial = f();
    for threads in [2usize, 3, 4, 7] {
        parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
        let par = f();
        assert_eq!(
            serial.as_slice(),
            par.as_slice(),
            "kernel output diverged from serial at {threads} thread(s)"
        );
    }
    parallel::configure(saved);
}

/// `axpy` where two NaNs meet: `x` holds payload 0x11 and `y` payload
/// 0x22 in every element, and `x.axpy(1.0, &y)` must give the same bits
/// at 1 and at 4 threads. Lengths 9, 37 and 64 put elements in full chunks,
/// ragged band ends and bands shorter than a chunk.
#[test]
fn axpy_nan_payloads_do_not_depend_on_the_band_layout() {
    let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
    let _guard = CONFIG_LOCK.lock().unwrap();
    let saved = parallel::current();
    for n in [9usize, 37, 64] {
        let bits = |threads: usize| {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            let mut x = Tensor::full([n], nan(0x11));
            x.axpy(1.0, &Tensor::full([n], nan(0x22))).unwrap();
            x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let (serial, parallel_bits) = (bits(1), bits(4));
        parallel::configure(saved);
        assert_eq!(serial, parallel_bits, "n = {n}: axpy payloads differ at 1 and 4 threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn matmul_is_bitwise_thread_invariant(
        seed in 0u64..10_000,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
    ) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        assert_thread_invariant(|| a.matmul(&b).unwrap());
    }

    #[test]
    fn matmul_t_is_bitwise_thread_invariant(
        seed in 0u64..10_000,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
    ) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        // matmul_t contracts against the *rows* of b: [m,k] × [n,k]ᵀ.
        let b = Tensor::randn([n, k], 0.0, 1.0, &mut rng);
        assert_thread_invariant(|| a.matmul_t(&b).unwrap());
    }

    #[test]
    fn sum_is_bitwise_thread_invariant(
        seed in 0u64..10_000,
        rows in 1usize..64,
        cols in 1usize..32,
    ) {
        // `sum` is contractually serial at every thread count (a single
        // f64 accumulation chain); the property still pins the bits so a
        // future parallelisation cannot silently change results.
        let mut rng = Rng64::new(seed);
        let x = Tensor::randn([rows, cols], 0.0, 10.0, &mut rng);
        let _guard = CONFIG_LOCK.lock().unwrap();
        let saved = parallel::current();
        parallel::configure(ThreadConfig::serial());
        let serial = x.sum();
        for threads in [2usize, 4, 8] {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            prop_assert_eq!(
                serial.to_bits(),
                x.sum().to_bits(),
                "sum bits changed at {} thread(s)",
                threads
            );
        }
        parallel::configure(saved);
    }

    #[test]
    fn sum_axis_is_bitwise_thread_invariant(
        seed in 0u64..10_000,
        rows in 1usize..40,
        cols in 1usize..24,
    ) {
        use pilote::tensor::reduce::Axis;
        let mut rng = Rng64::new(seed);
        let x = Tensor::randn([rows, cols], 0.0, 5.0, &mut rng);
        assert_thread_invariant(|| x.sum_axis(Axis::Rows).unwrap());
        assert_thread_invariant(|| x.sum_axis(Axis::Cols).unwrap());
    }
}
