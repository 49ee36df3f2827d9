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
//! The counting allocator below is this test binary's global allocator
//! (each integration test is its own binary), so it affects no other test.

use pilote::core::{EmbeddingNet, NetConfig};
use pilote::nn::{grads_finite, Adam, Mode, Optimizer};
use pilote::tensor::parallel::{self, ThreadConfig};
use pilote::tensor::{Rng64, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

    ARMED.store(true, Ordering::Relaxed);
    step(&mut net, &mut adam, &batches);
    ARMED.store(false, Ordering::Relaxed);

    let weight_bytes = config.hidden[0] * config.hidden[1] * std::mem::size_of::<f32>();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < weight_bytes,
        "the step made a {largest}-byte allocation; the 1024 × 512 weight is {weight_bytes} bytes"
    );
}
