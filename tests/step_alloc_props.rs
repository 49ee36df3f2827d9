//! A training step of the paper network allocates nothing the size of a
//! weight matrix (`docs/KERNELS.md`, "Accumulate epilogue" and "Packing
//! buffer").
//!
//! The step is the one an edge update runs, at its shapes: an eval-mode
//! forward and backward of 256 stacked pair rows, then of 120
//! distillation rows, then `grads_finite` and `Adam::step`. A warm-up step
//! first allocates what a step keeps for good: Adam's moments and this
//! thread's GEMM packing buffer. After it, no allocation may reach the
//! 2 MiB of the 1024 × 512 weight. Two did per layer when each GEMM
//! packed B into a fresh buffer and `Dense::backward` built `dW` in a
//! temporary before adding it to the gradient.
//!
//! A product of one row block allocates nothing but its output
//! (`docs/KERNELS.md`, "The single-row-block path"): an `MR`-row product
//! against the 1024 × 512 weight, and the paper network's embedding of
//! `MR` windows, run on a fresh thread, whose packing buffer is empty. A
//! packed B of the paper network is 320 KiB to 2 MiB, so a serving product
//! that fell back to packing would show here.
//!
//! The counting allocator below is this test binary's global allocator
//! (each integration test is its own binary), so it affects no other test.
//! It counts every thread's allocations, so the tests of this binary take
//! turns through [`SERIAL`].

use pilote::core::{EmbeddingNet, NetConfig};
use pilote::nn::{grads_finite, Adam, Mode, Optimizer};
use pilote::tensor::pack::{active_simd, Simd};
use pilote::tensor::parallel::{self, ThreadConfig};
use pilote::tensor::{Rng64, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The system allocator, noting the largest request made while armed.
struct Counting;

// Statistics only, set and read by the test thread around the step, so
// `Relaxed` suffices: they publish no other data.
static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn note(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds as it does for `System`; the bookkeeping
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, as `realloc`'s caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, as `dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test for its whole run: the allocator's counters are
/// process-wide. It guards no data, so a test that failed holding it
/// leaves nothing for the next one to distrust.
static SERIAL: Mutex<()> = Mutex::new(());

/// The largest single allocation any thread makes while `f` runs.
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    LARGEST.load(Ordering::Relaxed)
}

/// Pair rows of one step: a pair batch of 128, both members stacked.
const PAIR_ROWS: usize = 256;
/// Distillation rows of one step.
const DISTILL_ROWS: usize = 120;

/// One update step: the pair branch and the distillation branch, each an
/// eval-mode forward and a backward, then the finiteness guard and Adam.
fn step(net: &mut EmbeddingNet, adam: &mut Adam, batches: &[(Tensor, Tensor)]) {
    net.zero_grad();
    for (x, grad) in batches {
        net.forward_mode(x, Mode::Eval);
        net.backward(grad);
    }
    assert!(grads_finite(net.layers_mut()));
    adam.step(net.layers_mut(), 1e-3);
}

#[test]
fn a_paper_net_step_allocates_nothing_the_size_of_a_weight() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    parallel::configure(ThreadConfig::serial());
    let config = NetConfig::paper();
    let mut rng = Rng64::new(26);
    let mut net = EmbeddingNet::new(config.clone(), &mut rng);
    let batches: Vec<(Tensor, Tensor)> = [PAIR_ROWS, DISTILL_ROWS]
        .iter()
        .map(|&rows| {
            let x = Tensor::randn([rows, config.input_dim], 0.0, 1.0, &mut rng);
            let grad = Tensor::randn([rows, config.embedding_dim], 0.0, 0.01, &mut rng);
            (x, grad)
        })
        .collect();
    let mut adam = Adam::new();
    step(&mut net, &mut adam, &batches);

    let largest = largest_allocation_during(|| step(&mut net, &mut adam, &batches));

    let weight_bytes = config.hidden[0] * config.hidden[1] * std::mem::size_of::<f32>();
    assert!(
        largest < weight_bytes,
        "the step made a {largest}-byte allocation; the 1024 × 512 weight is {weight_bytes} bytes"
    );
}

#[test]
fn one_row_block_products_allocate_nothing_but_their_output() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    parallel::configure(ThreadConfig::serial());
    // The row block of the tier `drive` dispatches to: its tile's `MR`.
    let rows = match active_simd() {
        Simd::Avx512 => 8,
        Simd::Avx2 => 6,
        Simd::Baseline => 4,
    };
    let config = NetConfig::paper();
    let mut rng = Rng64::new(27);
    let mut net = EmbeddingNet::new(config.clone(), &mut rng);
    let weight = Tensor::randn([config.hidden[0], config.hidden[1]], 0.0, 0.05, &mut rng);
    let x = Tensor::randn([rows, config.hidden[0]], 0.0, 1.0, &mut rng);
    let windows = Tensor::randn([rows, config.input_dim], 0.0, 1.0, &mut rng);

    // A fresh thread has an empty packing buffer, so a product that packed
    // B would allocate it here.
    let (product, embedding) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let product = largest_allocation_during(|| {
                    let y = x.matmul(&weight).unwrap();
                    assert_eq!(y.shape().dims(), &[rows, config.hidden[1]]);
                });
                let embedding = largest_allocation_during(|| {
                    let z = net.embed(&windows);
                    assert_eq!(z.shape().dims(), &[rows, config.embedding_dim]);
                });
                (product, embedding)
            })
            .join()
            .expect("the products do not panic")
    });
    const LIMIT: usize = 128 * 1024;
    assert!(
        product < LIMIT,
        "the {rows}-row product against the 1024 × 512 weight made a {product}-byte allocation"
    );
    assert!(embedding < LIMIT, "embedding {rows} windows made a {embedding}-byte allocation");
}
