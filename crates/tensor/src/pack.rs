//! Panel packing, the register-tiled GEMM microkernel, and the row kernel
//! for products of a single row block.
//!
//! Every matrix product in the workspace ([`matmul`], [`matmul_t`],
//! [`t_matmul`] and the fused [`pairwise_sq_dists`] epilogue) enters
//! through one GEMM entry point, which takes one of two paths:
//!
//! [`matmul`]: crate::Tensor::matmul
//! [`matmul_t`]: crate::Tensor::matmul_t
//! [`t_matmul`]: crate::Tensor::t_matmul
//! [`pairwise_sq_dists`]: crate::Tensor::pairwise_sq_dists
//!
//! * **Row kernel**, when the whole output is one row block (`m ≤ MR` of
//!   the active tier), B is read plain and the product is stored as it is
//!   — every `Dense::forward` at serving shapes. One row block would read
//!   each packed B panel exactly once, so packing would only copy B to
//!   read it back; the row kernel reads B in place and runs on the calling
//!   thread. On AVX-512 it holds the output in a register tile of 16 `zmm`
//!   accumulators (1×256, 2×128, 4×64 or 8×32 by `m`, fewer columns for a
//!   narrower output) over k-blocks of 64 rows of B, and parks each tile's
//!   partial sums in the output between blocks; a tile narrower than 1 KB
//!   of each row of B prefetches the next strip's rows of B into L2 as it
//!   goes. On AVX2 and the portable tier it streams each row of B once and
//!   adds `a(i, kk)·b(kk, :)` into output rows held in L1.
//! * **Packed tiles**, for everything else, including every transposed B
//!   (reading one in place would be a strided gather):
//!   1. **Pack B** once per call into `⌈n/NR⌉` column panels of `k × NR`
//!      contiguous floats (`bp[panel][kk·NR + j]`), zero-padded on the
//!      last panel, in the calling thread's packing buffer, which is kept
//!      and reused across calls. A transposed right-hand side is just a
//!      different gather order here — there is no separate loop nest per
//!      transpose variant.
//!   2. **Pack A** per `MR`-row block into an `MR × k` panel laid out
//!      `ap[kk·MR + i]`, again zero-padded, so the microkernel reads both
//!      operands with unit stride.
//!   3. The **microkernel** accumulates an `MR × NR` tile in registers
//!      over the *entire* `k` extent in one fixed ascending-`k` chain of
//!      `acc += a·b` updates, then the epilogue stores the tile: as it
//!      is, through the squared-distance combine, or added into the
//!      output already there.
//!
//! # Determinism
//!
//! Each output element's value is produced by exactly one ascending-`k`
//! sequence of `mul` + `add` operations starting from `0` (never a fused
//! multiply-add, never a split accumulator), so the result is bitwise
//! identical
//!
//! * on both paths — the row kernel's output row and the tile's register
//!   run the same chain (a partial sum parked in the output between
//!   k-blocks comes back exactly, since an f32 store and reload is exact),
//!   so a row's bits do not depend on how many rows share its call
//!   (`tests/kernel_props.rs`);
//! * at every thread count — bands only choose *which* tile a row lands
//!   in, never the per-element operation sequence (`docs/THREADING.md`);
//! * at every tile shape — zero padding contributes `acc + (±0·b)`
//!   operations only to *padding* lanes, which are never stored;
//! * at every SIMD tier — the vectorised kernels perform the same scalar
//!   chain per lane, so AVX-512, AVX2 and the portable fallback agree bit
//!   for bit (verified by `simd_tiers_agree_bitwise`).
//!
//! The full layout/contract documentation lives in `docs/KERNELS.md`.
//!
//! # SIMD dispatch
//!
//! The kernel instantiations are chosen once per process: AVX-512F (8×32
//! tile, and the register-tiled row kernel), AVX2 (6×16), or the portable
//! autovectorised fallback (4×16), the last two each with their own
//! instance of the streaming row kernel. `PILOTE_SIMD` (`avx512` | `avx2` |
//! `baseline` | `auto`) caps the tier, e.g. for cross-tier
//! byte-comparison; an unrecognised value warns once on stderr and falls
//! back to auto-detection. [`active_simd`] reports the selected tier.

use crate::ops::add_keeping_nan;
use crate::parallel;
use std::cell::RefCell;
use std::sync::OnceLock;

/// SIMD tier the GEMM kernels dispatch to, selected once per process.
///
/// Results are bitwise identical across tiers (the vector kernels use the
/// same per-element `mul`/`add` chain as the scalar fallback — no FMA
/// contraction), so the tier is purely a throughput knob, like
/// `PILOTE_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simd {
    /// AVX-512F 8×32 microkernel (x86-64 with `avx512f`).
    Avx512,
    /// AVX2 6×16 microkernel (x86-64 with `avx2`).
    Avx2,
    /// Portable autovectorised 4×16 microkernel (any target).
    Baseline,
}

impl Simd {
    /// Stable lower-case name (`avx512` / `avx2` / `baseline`), as accepted
    /// by `PILOTE_SIMD` and reported in `BENCH_kernels.json`.
    pub fn name(self) -> &'static str {
        match self {
            Simd::Avx512 => "avx512",
            Simd::Avx2 => "avx2",
            Simd::Baseline => "baseline",
        }
    }
}

/// Highest tier the host supports.
fn detect_simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Simd::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Simd::Avx2;
        }
    }
    Simd::Baseline
}

/// Parses a `PILOTE_SIMD` value into a tier cap; `None` means auto.
/// Pure so the accepted grammar is unit-testable.
fn parse_simd(raw: &str) -> Result<Option<Simd>, ()> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(None),
        "avx512" | "avx512f" => Ok(Some(Simd::Avx512)),
        "avx2" => Ok(Some(Simd::Avx2)),
        "baseline" | "scalar" => Ok(Some(Simd::Baseline)),
        _ => Err(()),
    }
}

/// The SIMD tier every GEMM kernel in this process dispatches to:
/// the highest tier the host supports, optionally capped by `PILOTE_SIMD`
/// (read once, at the first kernel invocation).
pub fn active_simd() -> Simd {
    static ACTIVE: OnceLock<Simd> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let detected = detect_simd();
        let requested = match std::env::var("PILOTE_SIMD") {
            Ok(raw) => match parse_simd(&raw) {
                Ok(cap) => cap,
                Err(()) => {
                    eprintln!(
                        "[pilote-tensor] warning: ignoring unrecognised PILOTE_SIMD={raw:?} \
                         (expected avx512 | avx2 | baseline | auto); auto-detecting"
                    );
                    None
                }
            },
            Err(_) => None,
        };
        match requested {
            // A cap can only lower the tier: requesting AVX-512 on a host
            // without it still runs (identical bits), just slower.
            Some(cap) if tier_rank(cap) <= tier_rank(detected) => cap,
            Some(_) | None => detected,
        }
    })
}

fn tier_rank(s: Simd) -> u8 {
    match s {
        Simd::Baseline => 0,
        Simd::Avx2 => 1,
        Simd::Avx512 => 2,
    }
}

/// A GEMM operand: a row-major `[rows, cols]` buffer read either directly
/// or through its transpose, so `A·Bᵀ` and `Aᵀ·B` are packing choices of
/// the one kernel rather than separate loop nests.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    data: &'a [f32],
    /// Leading dimension (row stride) of the underlying buffer.
    ld: usize,
    /// When set, logical element `(r, c)` reads `data[c·ld + r]`.
    transposed: bool,
}

impl<'a> Operand<'a> {
    /// A row-major `[rows, ld]` matrix read directly.
    pub(crate) fn plain(data: &'a [f32], ld: usize) -> Self {
        Operand { data, ld, transposed: false }
    }

    /// The transpose of a row-major `[cols, ld]` matrix.
    pub(crate) fn transposed(data: &'a [f32], ld: usize) -> Self {
        Operand { data, ld, transposed: true }
    }

    /// `(row, column)` strides: logical element `(r, c)` is
    /// `data[r·row + c·column]`.
    #[cfg(target_arch = "x86_64")]
    fn strides(&self) -> (usize, usize) {
        if self.transposed {
            (1, self.ld)
        } else {
            (self.ld, 1)
        }
    }

    /// Logical element `(r, c)`.
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        if self.transposed {
            self.data[c * self.ld + r]
        } else {
            self.data[r * self.ld + c]
        }
    }
}

/// Per-tile epilogue: how the finished accumulator is stored.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// Store the raw product `A·B`.
    None,
    /// Squared-distance combine for [`crate::Tensor::pairwise_sq_dists`]: with the
    /// tile's dot products `d[i][j] = xᵢ·yⱼ`, store
    /// `max(x_sq[i] + y_sq[j] − 2·d[i][j], 0)` — bit-for-bit the expression
    /// the unfused two-pass form applies, just while the tile is still hot.
    SqDist {
        /// Per-row squared norms of the left operand (`len == m`).
        x_sq: &'a [f32],
        /// Per-row squared norms of the right operand (`len == n`).
        y_sq: &'a [f32],
    },
    /// Add the product into the output: each element `o` becomes `o + d`
    /// (`ops::add_keeping_nan`), the value `axpy(1.0, …)` of the
    /// stored product gives, with no product-sized temporary.
    Accumulate,
}

impl Epilogue<'_> {
    /// Stores the finished dot products `acc` of output row `r`, columns
    /// `[j0, j0 + out.len())`, into `out`.
    fn store(self, r: usize, j0: usize, acc: &[f32], out: &mut [f32]) {
        match self {
            Epilogue::None => out.copy_from_slice(acc),
            Epilogue::SqDist { x_sq, y_sq } => {
                let xs = x_sq[r];
                for ((o, &d), &ys) in out.iter_mut().zip(acc).zip(&y_sq[j0..]) {
                    *o = (xs + ys - 2.0 * d).max(0.0);
                }
            }
            Epilogue::Accumulate => {
                for (o, &d) in out.iter_mut().zip(acc) {
                    *o = add_keeping_nan(*o, d);
                }
            }
        }
    }
}

thread_local! {
    /// This thread's packing buffer for B: grown to the largest packed B
    /// the thread has needed and kept for the thread's lifetime, so a GEMM
    /// allocates no B-sized buffer once its shape has been seen.
    static PACKED_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on a packing buffer of exactly `len` floats: this thread's
/// [`PACKED_B`], or, for a GEMM nested inside another on the same thread
/// (whose bands still read the thread's buffer), a buffer of its own.
/// The contents on entry are stale; [`pack_b`] overwrites every float.
fn with_packing_buffer<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACKED_B.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                *buf = vec![0.0; len];
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0.0; len]),
    })
}

/// Packs the `⌈n/NR⌉` column panels of `b` (`k × n` logical) into `bp`
/// (`⌈n/NR⌉·k·NR` floats), zero-padding the final panel:
/// `bp[p·k·NR + kk·NR + j] = b(kk, p·NR + j)`. Every float of `bp` is
/// written, padding included, so a reused buffer carries nothing over.
fn pack_b<const NR: usize>(b: Operand<'_>, k: usize, n: usize, bp: &mut [f32]) {
    debug_assert_eq!(bp.len(), n.div_ceil(NR) * k * NR);
    if k == 0 {
        return; // nothing to pack; the k-loop of the microkernel is empty
    }
    for (p, panel) in bp.chunks_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        if b.transposed {
            // b(kk, j) = data[j·ld + kk]: copy each source row (one logical
            // column) contiguously into the panel's strided lane.
            for j in 0..w {
                let src = &b.data[(j0 + j) * b.ld..(j0 + j) * b.ld + k];
                for (kk, &v) in src.iter().enumerate() {
                    panel[kk * NR + j] = v;
                }
            }
            if w < NR {
                for dst in panel.chunks_mut(NR) {
                    dst[w..].fill(0.0);
                }
            }
        } else {
            for (kk, dst) in panel.chunks_mut(NR).enumerate() {
                dst[..w].copy_from_slice(&b.data[kk * b.ld + j0..kk * b.ld + j0 + w]);
                dst[w..].fill(0.0);
            }
        }
    }
}

/// Packs rows `[i0, i0 + rows)` of `a` (`m × k` logical) into an `MR × k`
/// panel, zero-padding rows past `rows`: `ap[kk·MR + i] = a(i0 + i, kk)`.
fn pack_a<const MR: usize>(a: Operand<'_>, k: usize, i0: usize, rows: usize, ap: &mut [f32]) {
    ap.fill(0.0);
    if a.transposed {
        // a(i, kk) = data[kk·ld + i]: both source and destination runs are
        // contiguous per kk.
        for kk in 0..k {
            let src = &a.data[kk * a.ld + i0..kk * a.ld + i0 + rows];
            ap[kk * MR..kk * MR + rows].copy_from_slice(src);
        }
    } else {
        for i in 0..rows {
            let src = &a.data[(i0 + i) * a.ld..(i0 + i) * a.ld + k];
            for (kk, &v) in src.iter().enumerate() {
                ap[kk * MR + i] = v;
            }
        }
    }
}

/// The portable microkernel body: one fixed ascending-`k` chain of
/// `acc[i][j] += a·b` updates per tile element. The `#[target_feature]`
/// wrappers below re-instantiate this exact loop so the autovectoriser may
/// use wider registers — the per-element operation sequence is identical in
/// every instantiation.
#[inline(always)]
fn microkernel_impl<const MR: usize, const NR: usize>(
    ap: &[f32],
    bp: &[f32],
    k: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for kk in 0..k {
        let bv: &[f32] = &bp[kk * NR..kk * NR + NR];
        let av: &[f32] = &ap[kk * MR..kk * MR + MR];
        for i in 0..MR {
            let a = av[i];
            for j in 0..NR {
                acc[i][j] += a * bv[j];
            }
        }
    }
}

/// Portable 4×16 instantiation (autovectorises on any target).
///
/// `unsafe fn` only to share the signature of the feature-gated kernels;
/// it has no safety requirements of its own.
unsafe fn mk_baseline(ap: &[f32], bp: &[f32], k: usize, acc: &mut [[f32; 16]; 4]) {
    microkernel_impl::<4, 16>(ap, bp, k, acc)
}

/// AVX2 6×16 microkernel: 12 accumulator `ymm` registers, explicit
/// broadcast/`mul`/`add` intrinsics (no FMA — rounding must match the
/// scalar chain).
///
/// # Safety
/// The caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mk_avx2(ap: &[f32], bp: &[f32], k: usize, acc: &mut [[f32; 16]; 6]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= k * 6 && bp.len() >= k * 16);
    unsafe {
        let mut c: [[__m256; 2]; 6] = [[_mm256_setzero_ps(); 2]; 6];
        for (i, row) in acc.iter().enumerate() {
            c[i][0] = _mm256_loadu_ps(row.as_ptr());
            c[i][1] = _mm256_loadu_ps(row.as_ptr().add(8));
        }
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16));
            let b1 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16 + 8));
            let a_col = ap.as_ptr().add(kk * 6);
            for (i, ci) in c.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*a_col.add(i));
                ci[0] = _mm256_add_ps(ci[0], _mm256_mul_ps(a, b0));
                ci[1] = _mm256_add_ps(ci[1], _mm256_mul_ps(a, b1));
            }
        }
        for (i, row) in acc.iter_mut().enumerate() {
            _mm256_storeu_ps(row.as_mut_ptr(), c[i][0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), c[i][1]);
        }
    }
}

/// AVX-512F 8×32 microkernel: 16 accumulator `zmm` registers, explicit
/// broadcast/`mul`/`add` intrinsics (no FMA — rounding must match the
/// scalar chain).
///
/// # Safety
/// The caller must ensure the host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mk_avx512(ap: &[f32], bp: &[f32], k: usize, acc: &mut [[f32; 32]; 8]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= k * 8 && bp.len() >= k * 32);
    unsafe {
        let mut c: [[__m512; 2]; 8] = [[_mm512_setzero_ps(); 2]; 8];
        for (i, row) in acc.iter().enumerate() {
            c[i][0] = _mm512_loadu_ps(row.as_ptr());
            c[i][1] = _mm512_loadu_ps(row.as_ptr().add(16));
        }
        for kk in 0..k {
            let b0 = _mm512_loadu_ps(bp.as_ptr().add(kk * 32));
            let b1 = _mm512_loadu_ps(bp.as_ptr().add(kk * 32 + 16));
            let a_col = ap.as_ptr().add(kk * 8);
            for (i, ci) in c.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*a_col.add(i));
                ci[0] = _mm512_add_ps(ci[0], _mm512_mul_ps(a, b0));
                ci[1] = _mm512_add_ps(ci[1], _mm512_mul_ps(a, b1));
            }
        }
        for (i, row) in acc.iter_mut().enumerate() {
            _mm512_storeu_ps(row.as_mut_ptr(), c[i][0]);
            _mm512_storeu_ps(row.as_mut_ptr().add(16), c[i][1]);
        }
    }
}

/// An `MR × NR` register-tile microkernel: `(a_panel, b_panel, k, acc)`.
/// Unsafe because the SIMD variants require their target feature to have
/// been verified (by [`active_simd`]) before the call.
type Microkernel<const MR: usize, const NR: usize> =
    unsafe fn(&[f32], &[f32], usize, &mut [[f32; NR]; MR]);

/// Output columns per strip of [`rows_impl`]. A strip of every output row
/// (at most 6 × 256 floats, 6 KB) stays in L1 for the whole `k` loop, and
/// each B row segment it reads is a contiguous run of up to 1 KB, long
/// enough for the hardware prefetchers.
const ROW_STRIP: usize = 256;

/// The single-row-block body of the AVX2 and portable tiers: `out = A·B`
/// for an A of at most `MR` rows (either orientation) and a plain B read
/// in place, one strip of output columns at a time. For each `kk` in
/// ascending order it adds `a(i, kk)·b(kk, j)` into the output rows, so
/// every element is the same `0 + a·b + a·b …` chain of `mul` then `add`
/// as the register tile's accumulator, bit for bit. Four consecutive `kk`
/// share one pass over the output rows, so each output value makes one
/// round trip through L1 per four steps of its chain. Like
/// [`microkernel_impl`], the `#[target_feature]` wrappers below only widen
/// the registers.
#[inline(always)]
fn rows_impl(a: Operand<'_>, b: Operand<'_>, (m, k, n): (usize, usize, usize), out: &mut [f32]) {
    debug_assert!(!b.transposed, "the row kernel reads B in place");
    out.fill(0.0);
    for j0 in (0..n).step_by(ROW_STRIP) {
        let w = ROW_STRIP.min(n - j0);
        let b_seg = |kk: usize| &b.data[kk * b.ld + j0..][..w];
        let mut kk = 0;
        while kk + 4 <= k {
            let (b0, b1, b2, b3) = (b_seg(kk), b_seg(kk + 1), b_seg(kk + 2), b_seg(kk + 3));
            for i in 0..m {
                let (a0, a1, a2, a3) =
                    (a.at(i, kk), a.at(i, kk + 1), a.at(i, kk + 2), a.at(i, kk + 3));
                let row = &mut out[i * n + j0..][..w];
                for ((((o, &x0), &x1), &x2), &x3) in row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *o = *o + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
                }
            }
            kk += 4;
        }
        for kk in kk..k {
            let b0 = b_seg(kk);
            for i in 0..m {
                let a0 = a.at(i, kk);
                for (o, &x0) in out[i * n + j0..][..w].iter_mut().zip(b0) {
                    *o += a0 * x0;
                }
            }
        }
    }
}

/// Portable instantiation of [`rows_impl`]; `unsafe fn` only to share the
/// signature of the feature-gated ones.
unsafe fn rows_baseline(
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    out: &mut [f32],
) {
    rows_impl(a, b, dims, out)
}

/// AVX2 instantiation of [`rows_impl`].
///
/// # Safety
/// The caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_avx2(a: Operand<'_>, b: Operand<'_>, dims: (usize, usize, usize), out: &mut [f32]) {
    rows_impl(a, b, dims, out)
}

/// Rows of B in one k-block of [`rows_avx512`]. Each output strip makes one
/// round trip through memory per block, and the strips sweep the block's
/// rows of B (128 KB at the paper net's 512-wide layer) one column strip
/// at a time. 32–64 measured best.
#[cfg(target_arch = "x86_64")]
const KC: usize = 64;

/// AVX-512F row kernel: the contract of [`rows_impl`], with the output
/// held in a register tile of 16 `zmm` accumulators at every height: 1×256,
/// 2×128, 4×64 or 8×32, the lowest of those heights that covers `m`. An
/// output narrower than the tile takes a tile of fewer vectors, the fewest
/// (a power of two) that cover `n`, so no vector of a narrow layer idles.
///
/// # Safety
/// The caller must ensure the host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rows_avx512(
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    out: &mut [f32],
) {
    let (m, _, n) = dims;
    // SAFETY: the caller verified AVX-512F.
    unsafe {
        match (m, n.div_ceil(16).next_power_of_two()) {
            (1, 1) => rows_tile_avx512::<1, 1>(a, b, dims, out),
            (1, 2) => rows_tile_avx512::<1, 2>(a, b, dims, out),
            (1, 4) => rows_tile_avx512::<1, 4>(a, b, dims, out),
            (1, 8) => rows_tile_avx512::<1, 8>(a, b, dims, out),
            (1, _) => rows_tile_avx512::<1, 16>(a, b, dims, out),
            (2, 1) => rows_tile_avx512::<2, 1>(a, b, dims, out),
            (2, 2) => rows_tile_avx512::<2, 2>(a, b, dims, out),
            (2, 4) => rows_tile_avx512::<2, 4>(a, b, dims, out),
            (2, _) => rows_tile_avx512::<2, 8>(a, b, dims, out),
            (3 | 4, 1) => rows_tile_avx512::<4, 1>(a, b, dims, out),
            (3 | 4, 2) => rows_tile_avx512::<4, 2>(a, b, dims, out),
            (3 | 4, _) => rows_tile_avx512::<4, 4>(a, b, dims, out),
            (_, 1) => rows_tile_avx512::<8, 1>(a, b, dims, out),
            (_, _) => rows_tile_avx512::<8, 2>(a, b, dims, out),
        }
    }
}

/// One tile shape of [`rows_avx512`]: `R` rows by `V` vectors of 16
/// columns, swept over k-blocks of [`KC`] rows of B and, within each
/// block, over strips of `16·V` output columns. A strip that reaches past
/// `n` takes the lane-masked body.
///
/// # Safety
/// The caller must ensure the host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rows_tile_avx512<const R: usize, const V: usize>(
    a: Operand<'_>,
    b: Operand<'_>,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    debug_assert!(!b.transposed, "the row kernel reads B in place");
    if k == 0 {
        out.fill(0.0);
        return;
    }
    // The extents every pointer of the strip body stays inside.
    let (rs, cs) = a.strides();
    assert!((1..=R).contains(&m) && out.len() == m * n);
    assert!(a.data.len() > (m - 1) * rs + (k - 1) * cs);
    assert!(b.data.len() >= (k - 1) * b.ld + n);
    // A strip of 1 KB per row (the 1×256 tile), or one as wide as the
    // output, reads B in runs the hardware prefetchers follow; a narrower
    // strip prefetches the next one's rows.
    let prefetch = V < 16 && n > 16 * V;
    for k0 in (0..k).step_by(KC) {
        let kb = k0..k.min(k0 + KC);
        for j0 in (0..n).step_by(16 * V) {
            // Where the next strip reads B, relative to this one's rows:
            // the columns to the right, or, after a block's last strip,
            // the first columns of the next block.
            let next = prefetch.then(|| if j0 + 16 * V < n { (0, j0 + 16 * V) } else { (KC, 0) });
            // SAFETY: AVX-512F is verified by the caller, and the asserts
            // above are the strip body's extents.
            unsafe {
                if j0 + 16 * V <= n {
                    rows_strip_avx512::<R, V, false>(a, b, (m, k, n), kb.clone(), j0, next, out)
                } else {
                    rows_strip_avx512::<R, V, true>(a, b, (m, k, n), kb.clone(), j0, next, out)
                }
            }
        }
    }
}

/// The register tile of [`rows_tile_avx512`] over rows `kb` of B and
/// output columns `j0 .. j0 + 16·V`. It loads the strip's partial sums
/// into registers (zero for the first block), adds `a(i, kk)·b(kk, j)` for
/// ascending `kk` as an explicit multiply then add, and stores the sums
/// back. An f32 store and reload is exact, so every element runs the one
/// `0 + a·b + a·b …` chain of [`rows_impl`] and the packed tiles. Rows past
/// `m` repeat row `m − 1` and are never stored. With `TAIL`, the strip
/// reaches past `n` and every load and store goes through lane masks.
///
/// With `next`, at each `kk` it also prefetches into L2 the lines the next
/// strip reads from B row `kk + next.0`, columns `next.1 ..`. A strip of
/// 64–512 bytes per row reads from each of up to 64 rows a whole row
/// stride apart, a pattern the hardware prefetchers do not follow, so
/// without this every strip waits on L2 or the last-level cache for its
/// rows of B, and how long depends on what else the host is doing. A
/// prefetch is a hint that reads nothing the program sees and cannot
/// fault.
///
/// # Safety
/// The caller must ensure the host supports AVX-512F, that `1 ≤ m ≤ R`,
/// that `out` is `m × n`, that A holds `a(m − 1, kb.end − 1)`, that B
/// holds `b(kb.end − 1, n − 1)`, that `j0 < n`, and, without `TAIL`, that
/// `j0 + 16·V ≤ n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn rows_strip_avx512<const R: usize, const V: usize, const TAIL: bool>(
    a: Operand<'_>,
    b: Operand<'_>,
    (m, k, n): (usize, usize, usize),
    kb: std::ops::Range<usize>,
    j0: usize,
    next: Option<(usize, usize)>,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (rs, cs) = a.strides();
    // Lane masks of the strip's vectors: full but in the column tail. A
    // vector with no live lane reads and writes nothing, so it points at
    // the strip's start, which is in bounds.
    let mut mask: [__mmask16; V] = [0; V];
    let mut off = [0usize; V];
    for (v, (mask, off)) in mask.iter_mut().zip(&mut off).enumerate() {
        let live = (n - j0).saturating_sub(16 * v).min(16);
        *mask = ((1u32 << live) - 1) as __mmask16;
        *off = if live == 0 { 0 } else { 16 * v };
    }
    let (a_ptr, out_ptr) = (a.data.as_ptr(), out.as_mut_ptr());
    let mut c = [[_mm512_setzero_ps(); V]; R];
    if kb.start > 0 {
        for (i, ci) in c.iter_mut().enumerate().take(m) {
            for v in 0..V {
                // SAFETY: row `i < m` of the output is `out[i·n .. (i+1)·n]`,
                // and the live lanes of vector `v` are columns below `n`.
                ci[v] = unsafe { _mm512_maskz_loadu_ps(mask[v], out_ptr.add(i * n + j0 + off[v])) };
            }
        }
    }
    for kk in kb {
        let mut av = [_mm512_setzero_ps(); R];
        for (i, ai) in av.iter_mut().enumerate() {
            // SAFETY: `i` is clamped below `m` and `kk < kb.end`.
            *ai = _mm512_set1_ps(unsafe { *a_ptr.add(i.min(m - 1) * rs + kk * cs) });
        }
        // SAFETY: B row `kk` holds columns `j0 ..` up to `n`; without
        // `TAIL` all `16·V` of them, with it the live lanes.
        let b_row = unsafe { b.data.as_ptr().add(kk * b.ld + j0) };
        if let Some((next_rows, next_col)) = next.filter(|&(rows, _)| kk + rows < k) {
            let row = b.data.as_ptr().wrapping_add((kk + next_rows) * b.ld + next_col).cast::<i8>();
            let lead = row as usize % 64;
            for line in (0..lead + 4 * (16 * V).min(n - next_col)).step_by(64) {
                _mm_prefetch::<_MM_HINT_T1>(row.wrapping_add(line).wrapping_sub(lead));
            }
        }
        for v in 0..V {
            let bv = unsafe {
                if TAIL {
                    _mm512_maskz_loadu_ps(mask[v], b_row.add(off[v]))
                } else {
                    _mm512_loadu_ps(b_row.add(16 * v))
                }
            };
            for (ci, &ai) in c.iter_mut().zip(&av) {
                ci[v] = _mm512_add_ps(ci[v], _mm512_mul_ps(ai, bv));
            }
        }
    }
    for (i, ci) in c.iter().enumerate().take(m) {
        for v in 0..V {
            // SAFETY: as for the loads of the partial sums.
            unsafe { _mm512_mask_storeu_ps(out_ptr.add(i * n + j0 + off[v]), mask[v], ci[v]) };
        }
    }
}

/// A single-row-block kernel: `(a, b, (m, k, n), out)`. Unsafe for the
/// same reason as [`Microkernel`].
type RowKernel = unsafe fn(Operand<'_>, Operand<'_>, (usize, usize, usize), &mut [f32]);

/// Runs the packed kernel over one contiguous band of output rows
/// `[row0, row0 + band.len()/n)`, tiling the band into `MR × NR` register
/// tiles. `bp` is the shared pre-packed B; A panels are packed into the
/// band-local `ap` scratch.
#[allow(clippy::too_many_arguments)] // internal driver; the arguments are the GEMM
fn band_gemm<const MR: usize, const NR: usize>(
    a: Operand<'_>,
    bp: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    band: &mut [f32],
    epilogue: Epilogue<'_>,
    mk: Microkernel<MR, NR>,
) {
    let rows = band.len() / n;
    let mut ap = vec![0.0f32; k * MR];
    let panels = n.div_ceil(NR);
    let mut bi = 0usize;
    while bi < rows {
        let mrows = MR.min(rows - bi);
        pack_a::<MR>(a, k, row0 + bi, mrows, &mut ap);
        for p in 0..panels {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let panel = &bp[p * k * NR..(p + 1) * k * NR];
            let mut acc = [[0.0f32; NR]; MR];
            // SAFETY: `mk` is only ever a kernel whose required target
            // features were verified by `active_simd()` at dispatch.
            unsafe { mk(&ap, panel, k, &mut acc) };
            for (i, acc_row) in acc.iter().enumerate().take(mrows) {
                let out_row = &mut band[(bi + i) * n + j0..(bi + i) * n + j0 + w];
                epilogue.store(row0 + bi + i, j0, &acc_row[..w], out_row);
            }
        }
        bi += mrows;
    }
}

#[allow(clippy::too_many_arguments)] // internal driver; the arguments are the GEMM
fn drive<const MR: usize, const NR: usize>(
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    threads: usize,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
    mk: Microkernel<MR, NR>,
    rows: RowKernel,
) {
    let (m, k, n) = dims;
    if m <= MR && !b.transposed && matches!(epilogue, Epilogue::None) {
        // One row block reads every B panel exactly once, so packing would
        // copy B only to read it back: stream it in place instead. A
        // transposed B still packs, since reading it in place would gather
        // with stride `ld`, and so does an epilogue, since the row kernel
        // builds its chains in the output itself.
        // SAFETY: `rows` is only ever a kernel whose required target
        // features were verified by `active_simd()` at dispatch.
        unsafe { rows(a, b, dims, out) };
        // The shared chain fixes every bit of every number, and a chain
        // that meets a NaN ends in one. Which payload survives when two
        // NaNs meet depends on each instruction's operand order, which the
        // compiler picks per kernel, so a product holding a NaN is redone
        // on the packed tiles and keeps their payloads.
        if !out.iter().fold(false, |nan, v| nan | v.is_nan()) {
            return;
        }
    }
    with_packing_buffer(n.div_ceil(NR) * k * NR, |bp| {
        pack_b::<NR>(b, k, n, bp);
        let bp: &[f32] = bp;
        parallel::for_each_band(out, n, threads, |row0, band| {
            band_gemm::<MR, NR>(a, bp, k, n, row0, band, epilogue, mk);
        });
    });
}

/// The packed GEMM entry point: `out[m, n] = epilogue(A[m, k] · B[k, n])`,
/// band-parallel over output rows with `threads` workers.
///
/// `out` must be `m·n` long; it is fully overwritten. Transposed operand
/// views make `A·Bᵀ` and `Aᵀ·B` the same kernel. `k == 0` stores the
/// epilogue of an all-zero product.
pub(crate) fn gemm(
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    threads: usize,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
) {
    gemm_with(active_simd(), a, b, dims, threads, epilogue, out);
}

/// [`gemm`] with an explicit SIMD tier — the tier-comparison seam used by
/// the `simd_tiers_agree_bitwise` test; production code always goes through
/// [`gemm`]/[`active_simd`].
pub(crate) fn gemm_with(
    simd: Simd,
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    threads: usize,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
) {
    let (m, _k, n) = dims;
    debug_assert_eq!(out.len(), m * n, "output buffer must be m·n");
    if m == 0 || n == 0 {
        return;
    }
    match simd {
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 if is_x86_feature_detected!("avx512f") => {
            drive::<8, 32>(a, b, dims, threads, epilogue, out, mk_avx512, rows_avx512)
        }
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 if is_x86_feature_detected!("avx2") => {
            drive::<6, 16>(a, b, dims, threads, epilogue, out, mk_avx2, rows_avx2)
        }
        _ => {
            drive::<4, 16>(a, b, dims, threads, epilogue, out, mk_baseline, rows_baseline)
        }
    }
}

/// Available (supported-on-this-host) SIMD tiers, highest first.
#[cfg(test)]
pub(crate) fn supported_tiers() -> Vec<Simd> {
    let mut tiers = vec![Simd::Baseline];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            tiers.push(Simd::Avx2);
        }
        if is_x86_feature_detected!("avx512f") {
            tiers.push(Simd::Avx512);
        }
    }
    tiers.reverse();
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::Tensor;

    fn gemm_plain(simd: Simd, a: &Tensor, b: &Tensor, threads: usize) -> Vec<f32> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m * n];
        gemm_with(
            simd,
            Operand::plain(a.as_slice(), k),
            Operand::plain(b.as_slice(), n),
            (m, k, n),
            threads,
            Epilogue::None,
            &mut out,
        );
        out
    }

    #[test]
    fn simd_tiers_agree_bitwise() {
        let mut rng = Rng64::new(11);
        // The serving shapes (one window through the first two layers, a
        // full 8-window session) and small odd ones: a tier takes the row
        // kernel when `m` fits its `MR`, the packed tiles otherwise. The
        // rest put AVX-512 row tiles (1×256, 2×128, 4×64, 8×32, and the
        // narrower ones of narrower outputs) on whole strips and on a
        // column tail, across k-blocks of 64 rows with and without a
        // partial last block.
        let shapes = [
            (1usize, 1usize, 1usize),
            (7, 63, 9),
            (33, 65, 37),
            (64, 64, 64),
            (1, 80, 1024),
            (1, 1024, 512),
            (5, 65, 33),
            (8, 1024, 512),
            (3, 0, 7),
            (1, 1024, 128),
            (1, 130, 300),
            (1, 65, 40),
            (2, 129, 256),
            (2, 65, 130),
            (4, 65, 64),
            (3, 129, 100),
            (7, 130, 80),
            (8, 80, 1024),
        ];
        for (m, k, n) in shapes {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let tiers = supported_tiers();
            let reference = gemm_plain(tiers[0], &a, &b, 1);
            for &tier in &tiers[1..] {
                let got = gemm_plain(tier, &a, &b, 1);
                let same = got.iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "tier {:?} diverged from {:?} on ({m},{k},{n})", tier, tiers[0]);
            }
        }
    }

    /// When two NaNs meet in one chain, the payload that survives is the
    /// packed tiles' on every path: the row kernel's product at m = 1
    /// equals, bit for bit, the same row inside a 9-row (packed) product.
    /// The two cases are a default NaN (`∞·0`, at `k = 0`) met by a planted
    /// one at the chain's last step, and a NaN in A multiplied by a NaN of
    /// another payload in B. At `k = 130` the chain crosses two k-blocks of
    /// the AVX-512 row kernel, so the first NaN is stored and reloaded
    /// before the second meets it; `n` is a column tail (17), and one
    /// whole tile of 32 and of 256 columns.
    #[test]
    fn nan_payloads_do_not_depend_on_the_path() {
        let shapes = [2usize, 5, 130].into_iter().flat_map(|k| [17usize, 32, 256].map(|n| (k, n)));
        for (k, n) in shapes {
            for case in 0..2 {
                let mut a = vec![0.0f32; 9 * k];
                let mut b = vec![0.0f32; k * n];
                if case == 0 {
                    (a[0], a[k - 1], b[(k - 1) * n]) = (f32::INFINITY, 1.0, f32::NAN);
                } else {
                    (a[0], b[0]) = (f32::from_bits(0x7fc0_0001), f32::from_bits(0x7fc0_0002));
                }
                let a = Tensor::from_vec(a, [9, k]).unwrap();
                let b = Tensor::from_vec(b, [k, n]).unwrap();
                let one = a.select_rows(&[0]).unwrap();
                for tier in supported_tiers() {
                    let alone = gemm_plain(tier, &one, &b, 1);
                    let packed = gemm_plain(tier, &a, &b, 1);
                    let at = format!("case {case}, k = {k}, n = {n}: {tier:?}");
                    assert!(alone[0].is_nan(), "{at}");
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&alone), bits(&packed[..n]), "{at}");
                }
            }
        }
    }

    #[test]
    fn transposed_packing_matches_materialised_transpose() {
        let mut rng = Rng64::new(12);
        let x = Tensor::randn([13, 21], 0.0, 1.0, &mut rng); // [m, k]
        let y = Tensor::randn([17, 21], 0.0, 1.0, &mut rng); // [n, k] (to be read as Bᵀ)
        let y_t = y.transpose().unwrap(); // [k, n]
        let (m, k, n) = (13, 21, 17);
        let mut via_view = vec![0.0f32; m * n];
        gemm(
            Operand::plain(x.as_slice(), k),
            Operand::transposed(y.as_slice(), k),
            (m, k, n),
            1,
            Epilogue::None,
            &mut via_view,
        );
        let mut via_copy = vec![0.0f32; m * n];
        gemm(
            Operand::plain(x.as_slice(), k),
            Operand::plain(y_t.as_slice(), n),
            (m, k, n),
            1,
            Epilogue::None,
            &mut via_copy,
        );
        assert_eq!(via_view, via_copy);
    }

    #[test]
    fn zero_k_stores_epilogue_of_zero_product() {
        let mut out = vec![42.0f32; 6];
        gemm(
            Operand::plain(&[], 0),
            Operand::plain(&[], 2),
            (3, 0, 2),
            1,
            Epilogue::None,
            &mut out,
        );
        assert_eq!(out, vec![0.0; 6]);

        let x_sq = [1.0f32, 2.0, 3.0];
        let y_sq = [0.5f32, 4.0];
        let mut out = vec![0.0f32; 6];
        gemm(
            Operand::plain(&[], 0),
            Operand::plain(&[], 2),
            (3, 0, 2),
            1,
            Epilogue::SqDist { x_sq: &x_sq, y_sq: &y_sq },
            &mut out,
        );
        assert_eq!(out, vec![1.5, 5.0, 2.5, 6.0, 3.5, 7.0]);
    }

    #[test]
    fn parse_simd_grammar() {
        assert_eq!(parse_simd("auto"), Ok(None));
        assert_eq!(parse_simd(""), Ok(None));
        assert_eq!(parse_simd(" AVX2 "), Ok(Some(Simd::Avx2)));
        assert_eq!(parse_simd("avx512"), Ok(Some(Simd::Avx512)));
        assert_eq!(parse_simd("avx512f"), Ok(Some(Simd::Avx512)));
        assert_eq!(parse_simd("baseline"), Ok(Some(Simd::Baseline)));
        assert_eq!(parse_simd("scalar"), Ok(Some(Simd::Baseline)));
        assert_eq!(parse_simd("turbo"), Err(()));
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in [Simd::Avx512, Simd::Avx2, Simd::Baseline] {
            assert_eq!(parse_simd(tier.name()), Ok(Some(tier)));
        }
    }
}
