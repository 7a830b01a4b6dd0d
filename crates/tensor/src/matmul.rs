//! Matrix multiplication.
//!
//! Three products cover everything the DNN library needs for forward and
//! backward passes without materialising transposes:
//!
//! * [`Tensor::matmul`]      — `C = A · B`
//! * [`Tensor::matmul_at_b`] — `C = Aᵀ · B`
//! * [`Tensor::matmul_a_bt`] — `C = A · Bᵀ`
//!
//! [`Tensor::matmul`] is the forward product of every convolution (weights
//! times the im2col patch matrix), so it carries a register-blocked SIMD
//! kernel. `B` is packed into zero-padded column panels; an `MR×NR` tile of
//! `C` stays in SIMD registers while the kernel walks the shared dimension,
//! broadcasting one weight per tile row and loading one panel row per step.
//! The kernel is picked at run time — AVX-512, then AVX2, then the portable
//! loop ([`GemmKernel::detect`]).
//!
//! Every kernel is bit-identical to the portable `i-k-j` loop, which stays
//! as the non-x86 path and as the tests' oracle. Each output element starts
//! at +0.0 and adds `a[i][p]·b[p][j]` in ascending `p`, as a separate
//! multiply and add (no FMA). The oracle skips `a[i][p] == 0`; with finite
//! operands adding that product (±0) cannot change an accumulator, which is
//! never −0, so the SIMD kernels compute it — and skip a whole `p` step when
//! all `MR` weights of a tile are zero, which keeps pruned weights cheap.
//! With a non-finite operand, `0·inf` and NaN payloads could differ, so
//! those products run the oracle instead.
//!
//! The other products use the `i-k-j` loop order so the innermost loop
//! streams contiguously over rows of `B` (or `Bᵀ`'s logical rows). Work is
//! split over row blocks with `std::thread::scope` when the problem is large
//! enough to amortise thread startup.

use crate::shape::ShapeError;
use crate::Tensor;

/// `i-k-j` loops with at least this many multiply-accumulates use threads.
const PARALLEL_THRESHOLD: usize = 1 << 20;

fn worker_count() -> usize {
    crate::threads::max_threads()
}

/// The GEMM kernel behind [`Tensor::matmul`]. Ordered by register width:
/// this CPU runs every kernel `<=` [`GemmKernel::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GemmKernel {
    /// The portable `i-k-j` loop.
    Scalar,
    /// 256-bit AVX2 kernel.
    Avx2,
    /// 512-bit AVX-512F kernel.
    Avx512,
}

impl GemmKernel {
    /// The widest kernel this CPU supports; what [`Tensor::matmul`] runs.
    pub fn detect() -> GemmKernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return GemmKernel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return GemmKernel::Avx2;
            }
        }
        GemmKernel::Scalar
    }

    /// The `tensor/gemm_kernel` gauge encoding: 0 scalar, 1 AVX2, 2 AVX-512.
    pub fn gauge_value(self) -> f64 {
        match self {
            GemmKernel::Scalar => 0.0,
            GemmKernel::Avx2 => 1.0,
            GemmKernel::Avx512 => 2.0,
        }
    }
}

impl Tensor {
    /// Matrix product `C = A · B` for 2-D tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `A` is `m×k` and `B` is `k×n`.
    ///
    /// # Example
    ///
    /// ```
    /// use xbar_tensor::Tensor;
    /// # fn main() -> Result<(), xbar_tensor::ShapeError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&b)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        check_2d("matmul", self, other)?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul: inner dimensions differ ({k} vs {k2})"
            )));
        }
        let out = gemm(
            GemmKernel::detect(),
            self.as_slice(),
            other.as_slice(),
            (m, k, n),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product `C = Aᵀ · B` without materialising `Aᵀ`.
    ///
    /// For `A` of shape `k×m` and `B` of shape `k×n`, produces `m×n`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either operand is not 2-D or the shared
    /// dimension differs.
    pub fn matmul_at_b(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        check_2d("matmul_at_b", self, other)?;
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul_at_b: leading dimensions differ ({k} vs {k2})"
            )));
        }
        // C[i][j] = sum_p A[p][i] * B[p][j]; accumulate outer products of the
        // p-th row of A with the p-th row of B, sharded over output rows.
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        run_rows(
            m,
            k,
            n,
            PARALLEL_THRESHOLD,
            1,
            &mut out,
            |row_range, out_chunk| {
                let start = row_range.start;
                for p in 0..k {
                    let brow = &b[p * n..(p + 1) * n];
                    for (local_i, i) in row_range.clone().enumerate() {
                        let av = a[p * m + i];
                        if av == 0.0 {
                            continue;
                        }
                        let crow = &mut out_chunk[local_i * n..(local_i + 1) * n];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += av * bv;
                        }
                    }
                }
                let _ = start;
            },
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product `C = A · Bᵀ` without materialising `Bᵀ`.
    ///
    /// For `A` of shape `m×k` and `B` of shape `n×k`, produces `m×n`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either operand is not 2-D or the shared
    /// dimension differs.
    pub fn matmul_a_bt(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        check_2d("matmul_a_bt", self, other)?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul_a_bt: trailing dimensions differ ({k} vs {k2})"
            )));
        }
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        run_rows(
            m,
            k,
            n,
            PARALLEL_THRESHOLD,
            1,
            &mut out,
            |row_range, out_chunk| {
                for (local_i, i) in row_range.enumerate() {
                    let arow = &a[i * k..(i + 1) * k];
                    let crow = &mut out_chunk[local_i * n..(local_i + 1) * n];
                    for (j, cv) in crow.iter_mut().enumerate() {
                        let brow = &b[j * k..(j + 1) * k];
                        let mut acc = 0.0f32;
                        for (&av, &bv) in arow.iter().zip(brow) {
                            acc += av * bv;
                        }
                        *cv += acc;
                    }
                }
            },
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix–vector product `y = A · x` for a 2-D `A` and 1-D `x`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on rank or dimension mismatch.
    pub fn matvec(&self, x: &Tensor) -> Result<Tensor, ShapeError> {
        if self.ndim() != 2 || x.ndim() != 1 {
            return Err(ShapeError::new(
                "matvec requires a 2-D matrix and 1-D vector",
            ));
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        if x.len() != k {
            return Err(ShapeError::new(format!(
                "matvec: matrix has {k} columns but vector has {} elements",
                x.len()
            )));
        }
        let a = self.as_slice();
        let xv = x.as_slice();
        let out: Vec<f32> = (0..m)
            .map(|i| {
                a[i * k..(i + 1) * k]
                    .iter()
                    .zip(xv)
                    .map(|(&av, &xvv)| av * xvv)
                    .sum()
            })
            .collect();
        Tensor::from_vec(out, &[m])
    }
}

fn check_2d(op: &str, a: &Tensor, b: &Tensor) -> Result<(), ShapeError> {
    if a.ndim() != 2 || b.ndim() != 2 {
        return Err(ShapeError::new(format!(
            "{op} requires 2-D operands, got ranks {} and {}",
            a.ndim(),
            b.ndim()
        )));
    }
    Ok(())
}

/// Runs `body` over disjoint row blocks of the `m×n` output, in parallel when
/// the problem has at least `min_macs` multiply-accumulates. Blocks start at
/// multiples of `align` rows. `body(rows, chunk)` must fill `chunk`, the
/// row-major slice corresponding to `rows`.
fn run_rows(
    m: usize,
    k: usize,
    n: usize,
    min_macs: usize,
    align: usize,
    out: &mut [f32],
    body: impl Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
) {
    // Test the size first: `worker_count` may read cgroup files, which
    // costs more than a small product.
    let workers = if m * k * n < min_macs || m < 2 {
        1
    } else {
        worker_count()
    };
    if workers <= 1 {
        body(0..m, out);
        return;
    }
    let rows_per = m.div_ceil(workers).next_multiple_of(align);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut start = 0usize;
        let body = &body;
        while start < m {
            let end = (start + rows_per).min(m);
            let (chunk, tail) = rest.split_at_mut((end - start) * n);
            rest = tail;
            let range = start..end;
            scope.spawn(move || body(range, chunk));
            start = end;
        }
    });
}

/// `C = A · B` for row-major `a` (`m×k`) and `b` (`k×n`) on `kernel`.
///
/// # Panics
///
/// If this CPU does not support `kernel` (see [`GemmKernel::detect`]).
pub(crate) fn gemm(
    kernel: GemmKernel,
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
) -> Vec<f32> {
    assert!(
        kernel <= GemmKernel::detect(),
        "the {kernel:?} GEMM kernel is not supported by this CPU"
    );
    match kernel {
        GemmKernel::Scalar => gemm_scalar(a, b, (m, k, n)),
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Avx2 | GemmKernel::Avx512 => {
            x86::gemm(kernel, a, b, (m, k, n)).unwrap_or_else(|| gemm_scalar(a, b, (m, k, n)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("detect() returns Scalar off x86-64"),
    }
}

/// The portable `i-k-j` loop: each row of `C` adds `a[i][p] · B[p]` in
/// ascending `p`, skipping zero weights. The non-x86 kernel and the
/// bit-identity oracle of the SIMD kernels.
pub(crate) fn gemm_scalar(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    run_rows(
        m,
        k,
        n,
        PARALLEL_THRESHOLD,
        1,
        &mut out,
        |row_range, out_chunk| {
            for (local_i, i) in row_range.enumerate() {
                let arow = &a[i * k..(i + 1) * k];
                let crow = &mut out_chunk[local_i * n..(local_i + 1) * n];
                for (p, &apv) in arow.iter().enumerate() {
                    if apv == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += apv * bv;
                    }
                }
            }
        },
    );
    out
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 and AVX-512 kernels. One generic tile routine is inlined
    //! into a `#[target_feature]` driver per instruction set, so each copy
    //! is compiled for its own registers.

    use std::arch::x86_64::{
        __m128, __m256, __m512, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps,
        _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps,
        _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps,
    };

    use std::ops::Range;
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::{run_rows, GemmKernel};

    /// SIMD `matmul` calls with at least this many multiply-accumulates use
    /// threads. Measured on a 2-vCPU AVX-512 Xeon VM over quick-scale VGG11's
    /// conv shapes: the kernel does a 2^20-MAC product in about 55 µs, while
    /// splitting one such call over two workers adds about 230 µs of CPU (and
    /// 130 µs of wall time) for spawning, joining and cold worker caches; a
    /// bare two-thread `thread::scope` alone costs 50–85 µs. At 2^24 MACs
    /// (about 0.9 ms of kernel time) the split's extra CPU falls to a quarter
    /// of the work.
    pub(super) const SIMD_PARALLEL_THRESHOLD: usize = 1 << 24;

    /// Rows of `A` per register tile.
    const MR: usize = 8;

    /// Widest tile, in columns (two 512-bit registers).
    const MAX_NR: usize = 32;

    /// One SIMD register of `f32` lanes.
    ///
    /// # Safety
    /// Every method needs a CPU that supports the register's instruction
    /// set (SSE for `__m128`, AVX for `__m256`, AVX-512F for `__m512`).
    trait Lanes: Copy {
        const W: usize;
        /// All lanes +0.0.
        unsafe fn zero() -> Self;
        /// All lanes `x`.
        unsafe fn splat(x: f32) -> Self;
        /// All lanes from `p`.
        ///
        /// # Safety
        /// `p` must be valid for reading `W` floats.
        unsafe fn load(p: *const f32) -> Self;
        /// All lanes to `p`.
        ///
        /// # Safety
        /// `p` must be valid for writing `W` floats.
        unsafe fn store(self, p: *mut f32);
        /// `self + a·b` with the product rounded first: a multiply and an
        /// add, never a fused multiply-add.
        unsafe fn add_mul(self, a: Self, b: Self) -> Self;
    }

    macro_rules! lanes {
        ($t:ty, $w:expr, $zero:ident, $splat:ident, $load:ident, $store:ident, $mul:ident, $add:ident) => {
            impl Lanes for $t {
                const W: usize = $w;
                #[inline(always)]
                unsafe fn zero() -> Self {
                    $zero()
                }
                #[inline(always)]
                unsafe fn splat(x: f32) -> Self {
                    $splat(x)
                }
                #[inline(always)]
                unsafe fn load(p: *const f32) -> Self {
                    $load(p)
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut f32) {
                    $store(p, self)
                }
                #[inline(always)]
                unsafe fn add_mul(self, a: Self, b: Self) -> Self {
                    $add(self, $mul(a, b))
                }
            }
        };
    }
    lanes!(
        __m128,
        4,
        _mm_setzero_ps,
        _mm_set1_ps,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_mul_ps,
        _mm_add_ps
    );
    lanes!(
        __m256,
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_mul_ps,
        _mm256_add_ps
    );
    lanes!(
        __m512,
        16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_mul_ps,
        _mm512_add_ps
    );

    /// An instruction set's kernel: its widest tile and the tile shape for
    /// each panel width.
    trait Isa {
        /// Columns of a full tile (and of every packed panel but the last).
        const NR: usize;

        /// Output rows `rows` of `C = A · B`, compiled for this instruction
        /// set; see [`rows_impl`].
        ///
        /// # Safety
        /// The CPU must support the instruction set; the arguments must
        /// meet [`rows_impl`]'s contract.
        unsafe fn rows(
            a: &[f32],
            packed: &[f32],
            kn: (usize, usize),
            rows: Range<usize>,
            out: &mut [f32],
        ) -> bool;

        /// Fills `acc[r][..width]` with `Σ_{p ∈ live} rows[r][p] · panel[p][c]`
        /// for a panel `width` columns wide, using the narrowest register
        /// shape that holds it.
        ///
        /// # Safety
        /// As [`tile_kernel`], with a panel row length of `padded(width)`.
        unsafe fn tile(
            width: usize,
            rows: &[*const f32; MR],
            live: &[u32],
            panel: *const f32,
            acc: &mut Tile,
        );
    }

    /// A finished register tile, spilled for the copy into `C`.
    type Tile = [[f32; MAX_NR]; MR];

    struct Avx512;
    struct Avx2;

    impl Isa for Avx512 {
        const NR: usize = 32;

        unsafe fn rows(
            a: &[f32],
            packed: &[f32],
            kn: (usize, usize),
            rows: Range<usize>,
            out: &mut [f32],
        ) -> bool {
            rows_avx512(a, packed, kn, rows, out)
        }

        #[inline(always)]
        unsafe fn tile(
            width: usize,
            rows: &[*const f32; MR],
            live: &[u32],
            panel: *const f32,
            acc: &mut Tile,
        ) {
            match padded(width) {
                32 => tile_kernel::<__m512, 2>(rows, live, panel, acc),
                16 => tile_kernel::<__m512, 1>(rows, live, panel, acc),
                8 => tile_kernel::<__m256, 1>(rows, live, panel, acc),
                _ => tile_kernel::<__m128, 1>(rows, live, panel, acc),
            }
        }
    }

    impl Isa for Avx2 {
        const NR: usize = 8;

        unsafe fn rows(
            a: &[f32],
            packed: &[f32],
            kn: (usize, usize),
            rows: Range<usize>,
            out: &mut [f32],
        ) -> bool {
            rows_avx2(a, packed, kn, rows, out)
        }

        #[inline(always)]
        unsafe fn tile(
            width: usize,
            rows: &[*const f32; MR],
            live: &[u32],
            panel: *const f32,
            acc: &mut Tile,
        ) {
            match padded(width) {
                8 => tile_kernel::<__m256, 1>(rows, live, panel, acc),
                _ => tile_kernel::<__m128, 1>(rows, live, panel, acc),
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX-512F; see [`rows_impl`] for the rest.
    #[target_feature(enable = "avx512f")]
    unsafe fn rows_avx512(
        a: &[f32],
        packed: &[f32],
        kn: (usize, usize),
        rows: Range<usize>,
        out: &mut [f32],
    ) -> bool {
        rows_impl::<Avx512>(a, packed, kn, rows, out)
    }

    /// # Safety
    /// The CPU must support AVX2; see [`rows_impl`] for the rest.
    #[target_feature(enable = "avx2")]
    unsafe fn rows_avx2(
        a: &[f32],
        packed: &[f32],
        kn: (usize, usize),
        rows: Range<usize>,
        out: &mut [f32],
    ) -> bool {
        rows_impl::<Avx2>(a, packed, kn, rows, out)
    }

    /// Panel row length for a panel `width` columns wide: the narrowest
    /// register shape (4, 8, 16 or 32 lanes) that holds it.
    fn padded(width: usize) -> usize {
        width.next_power_of_two().max(4)
    }

    /// Packs `b` (`k×n`, row-major) into column panels `I::NR` wide: panel
    /// `q` holds columns `q·NR .. q·NR + width` as `k` rows of
    /// `padded(width)` floats, the padding zero. Every panel but the last
    /// is `NR` wide, so the panel starting at column `j0` begins at offset
    /// `j0·k`. `None` when `b` holds an inf or NaN.
    fn pack<I: Isa>(b: &[f32], k: usize, n: usize) -> Option<Vec<f32>> {
        if !all_finite(b) {
            return None;
        }
        let full = n - n % I::NR;
        let tail = n - full;
        let pw = if tail > 0 { padded(tail) } else { 0 };
        let mut data = vec![0.0f32; full * k + pw * k];
        let (body, last) = data.split_at_mut(full * k);
        for (q, panel) in body.chunks_exact_mut(I::NR * k).enumerate() {
            for (dst, src) in panel.chunks_exact_mut(I::NR).zip(b.chunks_exact(n)) {
                dst.copy_from_slice(&src[q * I::NR..(q + 1) * I::NR]);
            }
        }
        // Column by column: a row-wise copy of this short width would be
        // one `memcpy` call per row.
        for c in 0..tail {
            for (dst, src) in last.chunks_exact_mut(pw).zip(b.chunks_exact(n)) {
                dst[c] = src[full + c];
            }
        }
        Some(data)
    }

    /// True when no element is ±inf or NaN (all-ones exponent). Written as
    /// a branch-free fold so it vectorises.
    fn all_finite(xs: &[f32]) -> bool {
        xs.chunks(256).all(|c| {
            c.iter()
                .fold(0u32, |bad, x| bad | u32::from(x.to_bits() & EXP == EXP))
                == 0
        })
    }

    /// The exponent bits; all set for ±inf and NaN.
    const EXP: u32 = 0x7f80_0000;

    /// The SIMD product, or `None` when an operand is not all finite (the
    /// caller then runs the oracle).
    pub(super) fn gemm(
        kernel: GemmKernel,
        a: &[f32],
        b: &[f32],
        mkn: (usize, usize, usize),
    ) -> Option<Vec<f32>> {
        match kernel {
            GemmKernel::Avx512 => gemm_on::<Avx512>(a, b, mkn),
            _ => gemm_on::<Avx2>(a, b, mkn),
        }
    }

    /// [`gemm`] on one instruction set, which the caller has checked this
    /// CPU supports.
    fn gemm_on<I: Isa>(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Option<Vec<f32>> {
        assert!(
            a.len() == m * k && b.len() == k * n,
            "operand lengths match the shape"
        );
        if k == 0 || n == 0 {
            return Some(vec![0.0; m * n]);
        }
        let packed = pack::<I>(b, k, n)?;
        let mut out = vec![0.0f32; m * n];
        let finite = AtomicBool::new(true);
        run_rows(
            m,
            k,
            n,
            SIMD_PARALLEL_THRESHOLD,
            MR,
            &mut out,
            |rows, chunk| {
                // SAFETY: `super::gemm`, the only caller, asserted that this
                // CPU supports the kernel. `a` is `m×k` (asserted above),
                // `packed` came from `pack` with `I::NR`, and `run_rows` hands
                // each call `rows.len()·n` floats of the `m×n` output.
                if !unsafe { I::rows(a, &packed, (k, n), rows, chunk) } {
                    finite.store(false, Ordering::Relaxed);
                }
            },
        );
        finite.into_inner().then_some(out)
    }

    /// Computes output rows `rows` of `C = A · B` into `out` (row-major,
    /// `rows.len() × n`), one `MR`-row panel at a time. Returns false, with
    /// `out` unspecified, when those rows of `A` hold an inf or NaN.
    ///
    /// # Safety
    /// `a.len() == m·k` with `rows.end <= m`, `packed` holds `B` (`k×n`)
    /// packed by [`pack`] with `I::NR`, `out.len() == rows.len()·n`, and
    /// the CPU must support `I`.
    #[inline(always)]
    unsafe fn rows_impl<I: Isa>(
        a: &[f32],
        packed: &[f32],
        (k, n): (usize, usize),
        rows: Range<usize>,
        out: &mut [f32],
    ) -> bool {
        let mut nonzero = vec![0u32; k];
        let mut live = vec![0u32; k];
        for i0 in rows.clone().step_by(MR) {
            let mr = MR.min(rows.end - i0);
            // One pass over the panel's weights: which `p` steps have a
            // nonzero weight, and whether every weight is finite.
            nonzero.fill(0);
            let mut bad = 0u32;
            for arow in a[i0 * k..(i0 + mr) * k].chunks_exact(k) {
                for (nz, &x) in nonzero.iter_mut().zip(arow) {
                    *nz |= u32::from(x != 0.0);
                    bad |= u32::from(x.to_bits() & EXP == EXP);
                }
            }
            if bad != 0 {
                return false;
            }
            // Branch-free compaction of the live steps, in ascending order.
            let mut len = 0;
            for (p, &nz) in (0u32..).zip(&nonzero) {
                live[len] = p;
                len += nz as usize;
            }
            // Rows past the end of `A` repeat the panel's first row; their
            // results are never stored.
            let tile_rows: [*const f32; MR] =
                std::array::from_fn(|r| a[(i0 + if r < mr { r } else { 0 }) * k..].as_ptr());
            let local = i0 - rows.start;
            for j0 in (0..n).step_by(I::NR) {
                let width = I::NR.min(n - j0);
                let panel = &packed[j0 * k..j0 * k + padded(width) * k];
                let mut acc: Tile = [[0.0; MAX_NR]; MR];
                // SAFETY: every `tile_rows[r]` starts a row of `a` with `k`
                // floats, `panel` is `k` rows of `padded(width)` floats,
                // every `live` entry is below `k`, and the caller
                // guarantees the CPU supports `I`.
                I::tile(width, &tile_rows, &live[..len], panel.as_ptr(), &mut acc);
                for (r, acc_row) in acc.iter().enumerate().take(mr) {
                    let dst = &mut out[(local + r) * n + j0..][..width];
                    if width == I::NR {
                        dst.copy_from_slice(&acc_row[..I::NR]);
                    } else {
                        dst.copy_from_slice(&acc_row[..width]);
                    }
                }
            }
        }
        true
    }

    /// The register tile: `MR × NV·V::W` accumulators, one broadcast
    /// weight per row and `NV` panel loads per `p` step.
    ///
    /// # Safety
    /// Each `rows[r]` must be valid for reading `k` floats and `panel` for
    /// `k · NV·V::W` floats, every `p` in `live` must be below `k`, and the
    /// CPU must support `V`'s instructions.
    #[inline(always)]
    unsafe fn tile_kernel<V: Lanes, const NV: usize>(
        rows: &[*const f32; MR],
        live: &[u32],
        panel: *const f32,
        acc_out: &mut Tile,
    ) {
        let pw = NV * V::W;
        let mut acc = [[V::zero(); NV]; MR];
        for &p in live {
            let p = p as usize;
            let bp = panel.add(p * pw);
            let bv: [V; NV] = std::array::from_fn(|v| V::load(bp.add(v * V::W)));
            for (row, acc_row) in rows.iter().zip(acc.iter_mut()) {
                let av = V::splat(*row.add(p));
                for (c, &b) in acc_row.iter_mut().zip(&bv) {
                    *c = c.add_mul(av, b);
                }
            }
        }
        for (acc_row, out_row) in acc.iter().zip(acc_out.iter_mut()) {
            for (v, c) in acc_row.iter().enumerate() {
                c.store(out_row[v * V::W..].as_mut_ptr());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at2(i, p) * b.at2(p, j);
                }
                c.set2(i, j, acc);
            }
        }
        c
    }

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        // Simple xorshift so the test has no RNG dependency.
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        Tensor::from_fn(shape, |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 500.0
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_tensor(&[7, 11], 1);
        let b = rand_tensor(&[11, 5], 2);
        assert_close(&a.matmul(&b).unwrap(), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_large_parallel_matches_naive() {
        let a = rand_tensor(&[130, 90], 3);
        let b = rand_tensor(&[90, 117], 4);
        assert_close(&a.matmul(&b).unwrap(), &naive(&a, &b), 1e-3);
    }

    #[test]
    fn matmul_identity() {
        let a = rand_tensor(&[6, 6], 5);
        assert_close(&a.matmul(&Tensor::eye(6)).unwrap(), &a, 1e-6);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let a = rand_tensor(&[9, 4], 6);
        let b = rand_tensor(&[9, 7], 7);
        let want = a.transpose().matmul(&b).unwrap();
        assert_close(&a.matmul_at_b(&b).unwrap(), &want, 1e-4);
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let a = rand_tensor(&[5, 8], 8);
        let b = rand_tensor(&[6, 8], 9);
        let want = a.matmul(&b.transpose()).unwrap();
        assert_close(&a.matmul_a_bt(&b).unwrap(), &want, 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = rand_tensor(&[5, 3], 10);
        let x = rand_tensor(&[3], 11);
        let xm = x.reshape(&[3, 1]).unwrap();
        let want = a.matmul(&xm).unwrap();
        let got = a.matvec(&x).unwrap();
        assert_close(&got.reshape(&[5, 1]).unwrap(), &want, 1e-5);
    }

    #[test]
    fn dimension_errors() {
        let a = rand_tensor(&[2, 3], 12);
        let b = rand_tensor(&[4, 2], 13);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul_at_b(&b).is_err());
        assert!(a.matmul_a_bt(&b).is_err());
        let v = rand_tensor(&[5], 14);
        assert!(a.matvec(&v).is_err());
    }

    #[test]
    fn degenerate_shapes_multiply() {
        let row = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let col = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3, 1]).unwrap();
        let dot = row.matmul(&col).unwrap();
        assert_eq!(dot.shape(), &[1, 1]);
        assert_eq!(dot.as_slice(), &[32.0]);
        let outer = col.matmul(&row).unwrap();
        assert_eq!(outer.shape(), &[3, 3]);
        assert_eq!(outer.at2(2, 0), 6.0);
    }

    #[test]
    fn empty_inner_dimension_gives_zeros() {
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rank_errors() {
        let a = rand_tensor(&[2, 3, 4], 15);
        let b = rand_tensor(&[3, 4], 16);
        assert!(a.matmul(&b).is_err());
    }

    /// Every kernel this CPU can run, oracle included.
    fn host_kernels() -> Vec<GemmKernel> {
        [GemmKernel::Scalar, GemmKernel::Avx2, GemmKernel::Avx512]
            .into_iter()
            .filter(|&k| k <= GemmKernel::detect())
            .collect()
    }

    /// Asserts every host kernel reproduces the oracle bit for bit. With
    /// finite operands the SIMD kernels must also run (not fall back).
    fn assert_bit_identical(a: &[f32], b: &[f32], mkn: (usize, usize, usize)) {
        let want = gemm_scalar(a, b, mkn);
        for kernel in host_kernels() {
            let got = gemm(kernel, a, b, mkn);
            assert_eq!(got.len(), want.len());
            for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{kernel:?} kernel, shape {mkn:?}, element {idx}: {g} vs oracle {w}"
                );
            }
            #[cfg(target_arch = "x86_64")]
            if kernel != GemmKernel::Scalar && a.iter().chain(b).all(|x| x.is_finite()) {
                assert!(
                    x86::gemm(kernel, a, b, mkn).is_some(),
                    "finite operands take the SIMD path"
                );
            }
        }
    }

    /// Values with a scattered share of exact zeros (both signs).
    fn sparse_values(len: usize, zero_per_mille: u64, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 1000 {
                    z if z < zero_per_mille / 2 => 0.0,
                    z if z < zero_per_mille => -0.0,
                    _ => ((s >> 20) % 20_001) as f32 / 1000.0 - 10.0,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn kernels_match_the_oracle_bit_for_bit(
            (m, k, n) in (0usize..20, 0usize..40, 0usize..70),
            zeros in 0u64..1000,
            seed in 0u64..1_000_000,
        ) {
            let a = sparse_values(m * k, zeros, seed);
            let b = sparse_values(k * n, 100, seed + 1);
            assert_bit_identical(&a, &b, (m, k, n));
        }

        #[test]
        fn kernels_match_the_oracle_on_zero_rows_and_columns(
            (m, k, n) in (1usize..20, 1usize..40, 1usize..70),
            zero_row in 0usize..20,
            zero_col in 0usize..40,
            seed in 0u64..1_000_000,
        ) {
            let mut a = sparse_values(m * k, 50, seed);
            a[(zero_row % m) * k..(zero_row % m + 1) * k].fill(0.0);
            for row in a.chunks_exact_mut(k) {
                row[zero_col % k] = 0.0;
            }
            let b = sparse_values(k * n, 0, seed + 1);
            assert_bit_identical(&a, &b, (m, k, n));
        }

        #[test]
        fn kernels_match_the_oracle_with_inf_and_nan_in_b(
            (m, k, n) in (1usize..20, 1usize..40, 1usize..70),
            specials in proptest::collection::vec((0usize..100_000, 0usize..4), 1..6),
            seed in 0u64..1_000_000,
        ) {
            let a = sparse_values(m * k, 300, seed);
            let mut b = sparse_values(k * n, 100, seed + 1);
            for (at, which) in specials {
                let len = b.len();
                b[at % len] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN][which];
            }
            assert_bit_identical(&a, &b, (m, k, n));
        }
    }

    #[test]
    fn kernels_match_the_oracle_on_every_quick_vgg11_conv() {
        // (in_c, out_c, side) of quick-scale VGG11's 8 convolutions: 3×3,
        // stride 1, pad 1, 32×32×3 input, width 0.25.
        let convs = [
            (3, 16, 32),
            (16, 32, 16),
            (32, 64, 8),
            (64, 64, 8),
            (64, 128, 4),
            (128, 128, 4),
            (128, 128, 2),
            (128, 128, 2),
        ];
        for (layer, &(in_c, out_c, side)) in convs.iter().enumerate() {
            let geom = crate::conv::ConvGeom {
                in_c,
                h: side,
                w: side,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 1,
            };
            let seed = layer as u64;
            // Post-ReLU activations: non-negative, a third of them zero.
            let image: Vec<f32> = sparse_values(in_c * side * side, 330, seed)
                .into_iter()
                .map(f32::abs)
                .collect();
            let image = Tensor::from_vec(image, &[in_c, side, side]).unwrap();
            let cols = crate::conv::im2col(&image, &geom).unwrap();
            let (k, n) = (cols.rows(), cols.cols());
            for zeros in [0, 500, 950] {
                let weights = sparse_values(out_c * k, zeros, seed + 100);
                assert_bit_identical(&weights, cols.as_slice(), (out_c, k, n));
            }
        }
    }

    #[test]
    fn kernels_match_the_oracle_when_split_over_threads() {
        // Above the SIMD threshold; 260 rows split into MR-aligned blocks.
        let (m, k, n) = (260, 256, 256);
        #[cfg(target_arch = "x86_64")]
        assert!(m * k * n >= x86::SIMD_PARALLEL_THRESHOLD);
        let a = sparse_values(m * k, 200, 21);
        let b = sparse_values(k * n, 100, 22);
        assert_bit_identical(&a, &b, (m, k, n));
    }

    #[test]
    fn kernels_match_the_oracle_with_inf_and_nan_in_a() {
        let (m, k, n) = (9, 13, 21);
        let mut a = sparse_values(m * k, 200, 7);
        let b = sparse_values(k * n, 200, 8);
        a[5] = f32::NAN;
        a[40] = f32::INFINITY;
        a[77] = f32::NEG_INFINITY;
        assert_bit_identical(&a, &b, (m, k, n));
    }

    #[test]
    fn overflowing_products_match_the_oracle() {
        // Finite operands whose products overflow: inf − inf makes NaN
        // inside the SIMD path itself.
        let (m, k, n) = (9, 3, 17);
        let a: Vec<f32> = (0..m * k)
            .map(|i| if i % 2 == 0 { 3e38 } else { -3e38 })
            .collect();
        let b = vec![3e38f32; k * n];
        assert_bit_identical(&a, &b, (m, k, n));
    }
}
