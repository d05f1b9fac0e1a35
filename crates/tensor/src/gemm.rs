//! The one multiply kernel: `C (+)= op(A) · op(B)` over packed panels.
//!
//! `op(X)` is `X` or `Xᵀ`; transposition is only a stride pair read while
//! packing ([`Operand`]), never a materialised copy.  The product is blocked
//! the GotoBLAS way: for every `KC`-deep slice of the inner dimension,
//! `op(B)` is packed once into `NR`-wide column panels, then every `MR`-row
//! panel of `op(A)` is packed and multiplied against each of them by a
//! micro-kernel that accumulates an `MR × NR` tile *from zero* and returns
//! it by value (so the tile lives in registers; a variant that loaded the
//! `C` tile into the accumulator did not vectorise).
//!
//! Summation order: every output element is `Σ_p a[i,p]·b[p,j]` added in
//! increasing `p` within a slice, slices added in order.  Panel boundaries
//! never enter an element's order and no FMA is ever emitted, which is what
//! makes the result independent of the instruction set the body was compiled
//! for.
//!
//! The row-panel body is compiled twice, for baseline x86-64 and with AVX2
//! enabled, and [`row_panel`] selects between them once per panel from what
//! the CPU reports.  That call is the crate's only `unsafe` block.

use std::cell::RefCell;

/// Rows of a micro-tile (one packed panel of `op(A)`).
const MR: usize = 4;
/// Columns of a micro-tile (one packed panel of `op(B)`).
const NR: usize = 8;
/// Depth of one packed slice of the inner dimension: an `MR × KC` panel of
/// `op(A)` (8 KiB) stays in L1 while the `KC × NR` panels of `op(B)` stream
/// past it.
const KC: usize = 256;

/// A read-only matrix operand: element `(i, p)` is `data[i * rs + p * cs]`.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    data: &'a [f64],
    rs: usize,
    cs: usize,
}

impl<'a> Operand<'a> {
    /// `op(X)` of shape `rows × cols` over the row-major storage of `X`
    /// (which is `cols × rows` when `transposed`).
    pub(crate) fn new(data: &'a [f64], rows: usize, cols: usize, transposed: bool) -> Self {
        assert_eq!(data.len(), rows * cols, "operand storage vs its shape");
        let (rs, cs) = if transposed { (1, rows) } else { (cols, 1) };
        Operand { data, rs, cs }
    }

    fn transposed(self) -> Self {
        Operand {
            data: self.data,
            rs: self.cs,
            cs: self.rs,
        }
    }
}

/// Pack `count ≤ width` rows of `src`, from `first`, over the columns
/// `p0 .. p0 + dst.len() / width`, column by column: `dst[p * width + r] =
/// src[first + r, p0 + p]`, rows past `count` zero.
#[inline(always)]
fn pack(src: Operand<'_>, first: usize, count: usize, p0: usize, width: usize, dst: &mut [f64]) {
    for (p, column) in dst.chunks_exact_mut(width).enumerate() {
        let at = first * src.rs + (p0 + p) * src.cs;
        for (r, d) in column.iter_mut().enumerate() {
            *d = if r < count {
                src.data[at + r * src.rs]
            } else {
                0.0
            };
        }
    }
}

/// The `MR × NR` product of one packed panel pair, accumulated from zero.
#[inline(always)]
fn micro(ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let a: &[f64; MR] = a.try_into().expect("chunks_exact(MR)");
        let b: &[f64; NR] = b.try_into().expect("chunks_exact(NR)");
        for (row, &ai) in acc.iter_mut().zip(a) {
            for (c, &bj) in row.iter_mut().zip(b) {
                *c += ai * bj;
            }
        }
    }
    acc
}

/// One `KC`-deep slice of a product, as every row panel of it sees it.
struct Slice<'a> {
    a: Operand<'a>,
    /// `op(B)[p0 .. p0 + kc, ..]` in `NR`-wide panels of `kc * NR` values.
    packed_b: &'a [f64],
    p0: usize,
    kc: usize,
    n: usize,
    /// Add the tiles to `C` instead of overwriting it.
    add: bool,
}

/// The signature shared by the compilations of the row-panel body.
type RowPanel = fn(&Slice<'_>, usize, &mut [f64]);

/// Rows `i0 .. i0 + c_rows.len() / n` of `C` (at most `MR`) for one slice:
/// pack the panel of `op(A)`, multiply it against every panel of `op(B)`.
#[inline(always)]
fn row_panel_body(s: &Slice<'_>, i0: usize, c_rows: &mut [f64]) {
    let mr = c_rows.len() / s.n;
    let mut packed_a = [0.0f64; MR * KC];
    let packed_a = &mut packed_a[..MR * s.kc];
    pack(s.a, i0, mr, s.p0, MR, packed_a);
    for (panel, bp) in s.packed_b.chunks_exact(s.kc * NR).enumerate() {
        let j0 = panel * NR;
        let nr = NR.min(s.n - j0);
        let tile = micro(packed_a, bp);
        for (c_row, tile_row) in c_rows.chunks_exact_mut(s.n).zip(&tile) {
            let c_row = &mut c_row[j0..j0 + nr];
            if s.add {
                for (c, t) in c_row.iter_mut().zip(tile_row) {
                    *c += t;
                }
            } else {
                c_row.copy_from_slice(&tile_row[..nr]);
            }
        }
    }
}

fn row_panel_baseline(s: &Slice<'_>, i0: usize, c_rows: &mut [f64]) {
    row_panel_body(s, i0, c_rows)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_panel_avx2(s: &Slice<'_>, i0: usize, c_rows: &mut [f64]) {
    row_panel_body(s, i0, c_rows)
}

/// The row-panel body in the widest compilation this CPU runs.
#[allow(unsafe_code)]
fn row_panel(s: &Slice<'_>, i0: usize, c_rows: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `row_panel_avx2` is safe Rust whose one requirement is a
        // CPU with AVX2, which the detection above has just established.  It
        // may assume nothing else: same arguments, same bounds-checked body.
        return unsafe { row_panel_avx2(s, i0, c_rows) };
    }
    row_panel_baseline(s, i0, c_rows)
}

thread_local! {
    /// The packed slice of `op(B)`, kept per thread so a steady-state
    /// product allocates nothing.
    static PACKED_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `C (+)= op(A) · op(B)` for `op(A)`: `m × k`, `op(B)`: `k × n` and
/// row-major `c`: `m × n`.
pub(crate) fn gemm(
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    c: &mut [f64],
    accumulate: bool,
) {
    gemm_with(row_panel, a, b, dims, c, accumulate)
}

fn gemm_with(
    row_panel: RowPanel,
    a: Operand<'_>,
    b: Operand<'_>,
    (m, k, n): (usize, usize, usize),
    c: &mut [f64],
    accumulate: bool,
) {
    assert_eq!(c.len(), m * n, "output storage vs its shape");
    if k == 0 && !accumulate {
        c.fill(0.0);
    }
    if m == 0 || n == 0 {
        return;
    }
    PACKED_B.with_borrow_mut(|packed_b| {
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            packed_b.resize(n.div_ceil(NR) * kc * NR, 0.0);
            for (panel, bp) in packed_b.chunks_exact_mut(kc * NR).enumerate() {
                let j0 = panel * NR;
                pack(b.transposed(), j0, NR.min(n - j0), p0, NR, bp);
            }
            let slice = Slice {
                a,
                packed_b: packed_b.as_slice(),
                p0,
                kc,
                n,
                add: accumulate || p0 > 0,
            };
            for (panel, c_rows) in c.chunks_mut(MR * n).enumerate() {
                row_panel(&slice, panel * MR, c_rows);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// `c (+)= op(a) · op(b)` by the textbook triple loop.
    fn naive(
        a: Operand<'_>,
        b: Operand<'_>,
        (m, k, n): (usize, usize, usize),
        c: &mut [f64],
        accumulate: bool,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data[i * a.rs + p * a.cs] * b.data[p * b.rs + j * b.cs];
                }
                if accumulate {
                    c[i * n + j] += acc;
                } else {
                    c[i * n + j] = acc;
                }
            }
        }
    }

    fn values(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both compilations against the naive loop, bit for bit (every `k` here
    /// is within one slice, so even the summation order is the naive one),
    /// over edge tiles, empty dimensions and `m = 1`, the four flag
    /// combinations, overwrite and accumulate.
    #[test]
    fn kernel_matches_the_naive_triple_loop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut shapes: Vec<(usize, usize, usize)> = vec![
            (0, 3, 5),
            (3, 0, 5),
            (3, 5, 0),
            (1, 7, 9),
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, 11, NR + 1),
            (40, 40, 40),
        ];
        for _ in 0..40 {
            let mut dim = || rng.gen::<usize>() % 41;
            shapes.push((dim(), dim(), dim()));
        }
        for dims @ (m, k, n) in shapes {
            let [av, bv, c0] = [m * k, k * n, m * n].map(|len| values(&mut rng, len));
            for (ta, tb, accumulate) in flag_cases() {
                let a = Operand::new(&av, m, k, ta);
                let b = Operand::new(&bv, k, n, tb);
                let mut want = c0.clone();
                naive(a, b, dims, &mut want, accumulate);
                for kernel in [row_panel_baseline as RowPanel, row_panel] {
                    let mut got = c0.clone();
                    gemm_with(kernel, a, b, dims, &mut got, accumulate);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{dims:?} ta={ta} tb={tb} accumulate={accumulate}"
                    );
                }
            }
        }
    }

    fn flag_cases() -> impl Iterator<Item = (bool, bool, bool)> {
        (0..8).map(|bits| (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0))
    }

    /// Past one slice the order is "slices in order", which the naive loop
    /// only approximates — but the two compilations still agree bit for bit,
    /// on every host, because neither contracts a multiply-add.
    #[test]
    fn deep_products_agree_across_compilations_and_pool_widths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let dims @ (m, k, n) = (13, 2 * KC + 37, 21);
        let [av, bv, c0] = [m * k, k * n, m * n].map(|len| values(&mut rng, len));
        for (ta, tb, accumulate) in flag_cases() {
            let a = Operand::new(&av, m, k, ta);
            let b = Operand::new(&bv, k, n, tb);
            let mut want = c0.clone();
            naive(a, b, dims, &mut want, accumulate);
            let mut baseline = c0.clone();
            gemm_with(row_panel_baseline, a, b, dims, &mut baseline, accumulate);
            for (x, y) in baseline.iter().zip(&want) {
                assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()), "{x} vs {y}");
            }
            let mut dispatched = c0.clone();
            gemm(a, b, dims, &mut dispatched, accumulate);
            assert_eq!(bits(&dispatched), bits(&baseline));
        }
    }
}
