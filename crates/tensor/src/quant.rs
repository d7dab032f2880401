//! Feature quantization for communication relief.
//!
//! The paper's §VIII names data quantization as the planned remedy for
//! PCIe-bound configurations ("we plan to exploit techniques like data
//! quantization to relieve the stress on the PCIe bandwidth"). This
//! module implements that extension: half-precision (IEEE 754 binary16)
//! and affine int8 row quantization of feature matrices. The functional
//! path really quantizes and dequantizes (so accuracy effects are
//! measurable), and the timing layer scales transfer bytes accordingly.
//!
//! ## Packed from the feature view to layer 0
//!
//! The wire round-trip ([`Precision::round_trip`]) is a per-row pure
//! function: row `r` of `round_trip(X)` depends on row `r` of `X` and
//! nothing else (int8 derives its scale and offset from that row
//! alone). A gather therefore commutes with it, bit for bit:
//!
//! ```text
//! round_trip(gather(X, idx)) == gather(round_trip(X), idx)
//! ```
//!
//! [`WireFeatures`] uses this to take the quantization out of the
//! training loop. It stores `X` at wire precision once (int8 as a
//! [`QuantizedMatrix`] at a quarter of the f32 size, f16 as a
//! [`HalfMatrix`] of binary16 bits, f32 as the host matrix itself with
//! no copy). An accelerator's mini-batch is gathered from it as stored:
//! packed int8 rows with their `(scale, offset)`, or binary16 bits, into
//! a [`WireBatch`]. Nothing is decoded on the host side of the wire.
//! Layer 0 decodes each element as its aggregation reads it — the
//! paper's "dequantize on the accelerator" — through [`WireRows`], whose
//! element decoders ([`int8_decode`], [`f16_to_f32`]) are the one
//! definition of the decode formula. Decoding and then multiplying gives
//! the bits of multiplying a decoded copy, so training reads exactly
//! `round_trip(X)` without ever materializing it.

use crate::matrix::Matrix;

/// Transfer precision for mini-batch feature matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full 4-byte floats (the paper's evaluated system).
    #[default]
    F32,
    /// IEEE 754 half precision: 2 bytes/element, ~1e-3 relative error.
    F16,
    /// Affine per-row int8: 1 byte/element (+ per-row scale/zero-point).
    Int8,
}

impl Precision {
    /// Bytes per element on the wire.
    pub fn bytes_per_element(self) -> f64 {
        match self {
            Precision::F32 => 4.0,
            Precision::F16 => 2.0,
            Precision::Int8 => 1.0,
        }
    }

    /// Wire size of an `n`-element payload (per-row metadata included
    /// for int8: one f32 scale + one f32 offset per row).
    pub fn wire_bytes(self, rows: usize, cols: usize) -> u64 {
        let payload = (rows * cols) as f64 * self.bytes_per_element();
        let metadata = match self {
            Precision::Int8 => rows as u64 * 8,
            _ => 0,
        };
        payload as u64 + metadata
    }

    /// Simulate a transfer round-trip: quantize + dequantize `x` at this
    /// precision (identity for F32).
    pub fn round_trip(self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.round_trip_in_place(&mut out);
        out
    }

    /// In-place transfer round-trip: quantize + dequantize `x` at this
    /// precision without allocating (identity for F32). Bitwise
    /// equivalent to [`Precision::round_trip`] and, row for row, to
    /// reading through [`WireFeatures`].
    pub fn round_trip_in_place(self, x: &mut Matrix) {
        match self {
            Precision::F32 => {}
            Precision::F16 => {
                for v in x.as_mut_slice() {
                    *v = f16_to_f32(f32_to_f16(*v));
                }
            }
            Precision::Int8 => {
                for r in 0..x.rows() {
                    let row = x.row_mut(r);
                    let (scale, offset) = int8_row_params(row);
                    for v in row.iter_mut() {
                        *v = int8_round_trip_value(*v, scale, offset);
                    }
                }
            }
        }
    }
}

/// Per-row affine int8 parameters `(scale, offset)` with the degenerate
/// range fixed up. Single source of truth shared by
/// [`QuantizedMatrix::quantize_int8`] and
/// [`Precision::round_trip_in_place`] — the prefetch determinism
/// contract requires the two paths to stay bitwise-identical.
///
/// The row's min and max (NaN ignored) run in eight independent lanes,
/// so the scan is not one serial chain of compares; the lanes only
/// reorder which of `-0.0`/`+0.0` wins a tie, and neither `scale` nor
/// `offset` depends on the sign of a zero bound.
fn int8_row_params(row: &[f32]) -> (f32, f32) {
    let mut lo8 = [f32::INFINITY; 8];
    let mut hi8 = [f32::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for c in &mut chunks {
        for k in 0..8 {
            lo8[k] = if c[k] < lo8[k] { c[k] } else { lo8[k] };
            hi8[k] = if c[k] > hi8[k] { c[k] } else { hi8[k] };
        }
    }
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in lo8.iter().chain(chunks.remainder()) {
        lo = lo.min(v);
    }
    for &v in hi8.iter().chain(chunks.remainder()) {
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() || lo == hi {
        lo = if lo.is_finite() { lo } else { 0.0 };
        hi = lo + 1.0;
    }
    let scale = (hi - lo) / 254.0;
    let offset = lo + 127.0 * scale;
    (scale, offset)
}

/// Quantize one value to int8 under `(scale, offset)`: round half away
/// from zero, saturate to ±127, NaN → 0. This is exactly
/// `((v - offset) / scale).round().clamp(-127.0, 127.0) as i8`, without
/// the `roundf` call `f32::round` compiles to on baseline x86-64.
/// Clamping to ±128 first keeps the truncation in range, and
/// `t - trunc(t)` is exact for every such `t`, so comparing the
/// fraction with ±0.5 rounds exactly.
#[inline]
fn int8_quantize_value(v: f32, scale: f32, offset: f32) -> i8 {
    let t = ((v - offset) / scale).clamp(-128.0, 128.0);
    let whole = t as i32; // truncates toward zero; NaN → 0
    let frac = t - whole as f32;
    let rounded = whole + i32::from(frac >= 0.5) - i32::from(frac <= -0.5);
    rounded.clamp(-127, 127) as i8
}

/// Quantize-then-dequantize one value under `(scale, offset)`.
#[inline]
fn int8_round_trip_value(v: f32, scale: f32, offset: f32) -> f32 {
    int8_decode(int8_quantize_value(v, scale, offset), scale, offset)
}

/// Decode one int8 wire element under its row's `(scale, offset)`: the
/// one dequantization formula, shared by the round-trip,
/// [`WireRows::decode_row`] and layer 0's aggregation kernel, so an
/// element decoded anywhere has the same bits.
#[inline(always)]
pub fn int8_decode(q: i8, scale: f32, offset: f32) -> f32 {
    f32::from(q) * scale + offset
}

/// Convert f32 to IEEE 754 binary16 bits (round-to-nearest-even).
pub fn f32_to_f16(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // inf / NaN
        let nan = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow to inf
    }
    if unbiased >= -14 {
        // normal
        let half_exp = ((unbiased + 15) as u16) << 10;
        let half_mant = (mant >> 13) as u16;
        // round to nearest even on the truncated bits
        let round_bits = mant & 0x1fff;
        let mut out = sign | half_exp | half_mant;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half_mant & 1) == 1) {
            out += 1;
        }
        return out;
    }
    if unbiased >= -24 {
        // subnormal half: q = full_mant × 2^(unbiased+1), i.e. a right
        // shift of -(unbiased+1) ∈ [14, 23]
        let shift = (-unbiased - 1) as u32;
        let full_mant = mant | 0x0080_0000;
        let half_mant = (full_mant >> shift) as u16;
        let round = 1u32 << (shift - 1);
        let sticky = full_mant & (round - 1);
        let mut out_m = half_mant;
        if (full_mant & round) != 0 && (sticky != 0 || (half_mant & 1) == 1) {
            out_m += 1;
        }
        return sign | out_m;
    }
    sign // underflow to zero
}

/// Convert IEEE 754 binary16 bits to f32 (exact: every binary16 value
/// is an f32 value). The F16 wire's decode formula.
#[inline]
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits >> 15) << 31;
    let exp = (bits >> 10) & 0x1f;
    let mant = u32::from(bits & 0x3ff);
    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // subnormal: value = mant × 2⁻²⁴; renormalize around the MSB
            let k = 31 - mant.leading_zeros();
            let exp32 = k + 103; // (k - 24) + 127
            let mant32 = (mant << (23 - k)) & 0x007f_ffff;
            sign | (exp32 << 23) | mant32
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        // add the f32 bias before removing the f16 bias so the
        // intermediate never underflows (exp >= 1)
        let exp32 = u32::from(exp) + 127 - 15;
        sign | (exp32 << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// The feature matrix as accelerators receive it over the wire, built
/// once from the host matrix: row `r` of [`view`](Self::view) decodes
/// to row `r` of `precision.round_trip(host)` bit for bit (see the
/// module docs for why gathering from it equals round-tripping a
/// gathered batch).
pub enum WireFeatures {
    /// F32 wire, the identity: nothing is stored, rows are read from
    /// the host matrix.
    Host,
    /// F16 wire: the binary16 bits of every element.
    F16(HalfMatrix),
    /// Int8 wire: per-row affine int8, a quarter of the f32 size.
    Int8(QuantizedMatrix),
}

impl WireFeatures {
    /// The view of `host` at `precision`, built in parallel over row
    /// blocks.
    pub fn build(precision: Precision, host: &Matrix) -> Self {
        match precision {
            Precision::F32 => WireFeatures::Host,
            Precision::F16 => WireFeatures::F16(HalfMatrix::from_f32(host)),
            Precision::Int8 => WireFeatures::Int8(QuantizedMatrix::quantize_int8(host)),
        }
    }

    /// The stored rows. `host` is the matrix this view was built from;
    /// only [`WireFeatures::Host`] reads it.
    pub fn view<'a>(&'a self, host: &'a Matrix) -> WireRows<'a> {
        match self {
            WireFeatures::Host => WireRows::F32(host),
            WireFeatures::F16(h) => WireRows::F16(h),
            WireFeatures::Int8(q) => WireRows::Int8(q),
        }
    }
}

/// Rows at some wire precision, read element by element: layer 0's
/// input. Every way of reading an element goes through
/// [`int8_decode`] or [`f16_to_f32`], so a row decoded by
/// [`decode_row`](Self::decode_row) and the same row read inside an
/// aggregation loop have the same bits.
#[derive(Clone, Copy, Debug)]
pub enum WireRows<'a> {
    /// Host f32 rows: the CPU trainer, the f32 wire, hidden layers.
    F32(&'a Matrix),
    /// Binary16 bits.
    F16(&'a HalfMatrix),
    /// Packed int8 rows with their `(scale, offset)`.
    Int8(&'a QuantizedMatrix),
}

impl<'a> From<&'a Matrix> for WireRows<'a> {
    fn from(m: &'a Matrix) -> Self {
        WireRows::F32(m)
    }
}

impl WireRows<'_> {
    /// The precision the rows are stored at.
    pub fn precision(&self) -> Precision {
        match self {
            WireRows::F32(_) => Precision::F32,
            WireRows::F16(_) => Precision::F16,
            WireRows::Int8(_) => Precision::Int8,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            WireRows::F32(m) => m.rows(),
            WireRows::F16(h) => h.rows,
            WireRows::Int8(q) => q.rows,
        }
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        match self {
            WireRows::F32(m) => m.cols(),
            WireRows::F16(h) => h.cols,
            WireRows::Int8(q) => q.cols,
        }
    }

    /// Decode row `r` into `dst` (one row wide).
    #[inline]
    pub fn decode_row(&self, r: usize, dst: &mut [f32]) {
        match self {
            WireRows::F32(m) => dst.copy_from_slice(m.row(r)),
            WireRows::F16(h) => {
                for (d, &b) in dst.iter_mut().zip(h.row(r)) {
                    *d = f16_to_f32(b);
                }
            }
            WireRows::Int8(q) => {
                let (data, (scale, offset)) = q.row(r);
                for (d, &v) in dst.iter_mut().zip(data) {
                    *d = int8_decode(v, scale, offset);
                }
            }
        }
    }

    /// The first `n` rows, decoded to f32.
    pub fn decode_prefix(&self, n: usize) -> Matrix {
        let mut out = Matrix::uninit(n, self.cols());
        for r in 0..n {
            self.decode_row(r, out.row_mut(r));
        }
        out
    }

    /// Every row, decoded to f32.
    pub fn decode(&self) -> Matrix {
        self.decode_prefix(self.rows())
    }
}

/// A gathered batch of feature rows, kept at the precision it was
/// gathered from: f32 for the CPU trainer and the f32 wire, packed
/// binary16 or int8 for the other wires. Layer 0 reads it through
/// [`view`](Self::view).
#[derive(Clone, Debug, PartialEq)]
pub enum WireBatch {
    /// f32 rows.
    F32(Matrix),
    /// Binary16 rows.
    F16(HalfMatrix),
    /// Packed int8 rows with their `(scale, offset)`.
    Int8(QuantizedMatrix),
}

impl Default for WireBatch {
    fn default() -> Self {
        WireBatch::F32(Matrix::uninit(0, 0))
    }
}

impl WireBatch {
    /// Reshape to `rows × cols` at `precision`, reusing the buffers when
    /// the batch is already at that precision. Contents are unspecified
    /// afterwards; a gather overwrites every row.
    pub fn reshape(&mut self, precision: Precision, rows: usize, cols: usize) {
        match (precision, &mut *self) {
            (Precision::F32, WireBatch::F32(m)) => m.resize(rows, cols),
            (Precision::F16, WireBatch::F16(h)) => h.resize(rows, cols),
            (Precision::Int8, WireBatch::Int8(q)) => q.resize(rows, cols),
            (Precision::F32, _) => *self = WireBatch::F32(Matrix::uninit(rows, cols)),
            (Precision::F16, _) => *self = WireBatch::F16(HalfMatrix::zeros(rows, cols)),
            (Precision::Int8, _) => *self = WireBatch::Int8(QuantizedMatrix::zeros(rows, cols)),
        }
    }

    /// The batch's rows, for layer 0 to read.
    pub fn view(&self) -> WireRows<'_> {
        match self {
            WireBatch::F32(m) => WireRows::F32(m),
            WireBatch::F16(h) => WireRows::F16(h),
            WireBatch::Int8(q) => WireRows::Int8(q),
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        let v = self.view();
        (v.rows(), v.cols())
    }

    /// Shared raw access to the rows, for a parallel gather in which
    /// every row has exactly one writer.
    pub fn row_fill(&mut self) -> RowFill<'_> {
        let (rows, cols) = self.shape();
        let dst = match self {
            WireBatch::F32(m) => FillPtr::F32(m.as_mut_slice().as_mut_ptr()),
            WireBatch::F16(h) => FillPtr::F16(h.bits.as_mut_ptr()),
            WireBatch::Int8(q) => FillPtr::Int8(q.data.as_mut_ptr(), q.params.as_mut_ptr()),
        };
        RowFill {
            dst,
            rows,
            cols,
            _batch: std::marker::PhantomData,
        }
    }
}

enum FillPtr {
    F32(*mut f32),
    F16(*mut u16),
    Int8(*mut i8, *mut (f32, f32)),
}

/// Raw row access to one [`WireBatch`] that threads share during a
/// gather ([`WireBatch::row_fill`]).
pub struct RowFill<'a> {
    dst: FillPtr,
    rows: usize,
    cols: usize,
    _batch: std::marker::PhantomData<&'a mut WireBatch>,
}

// SAFETY: `dst` points into the buffers of the batch the `RowFill`
// borrows mutably for its whole life, so nothing else reads, writes,
// moves or frees them meanwhile; it is written only through `copy_row`,
// whose contract gives each row one writer at a time. `rows` and `cols`
// are plain values.
unsafe impl Send for RowFill<'_> {}
unsafe impl Sync for RowFill<'_> {}

impl RowFill<'_> {
    /// Copy row `r` of `src` into row `row` of the batch, as stored:
    /// f32 values, binary16 bits, or int8 values with their
    /// `(scale, offset)`. Nothing is decoded.
    ///
    /// # Safety
    /// No other thread may write row `row` of this batch during the
    /// call.
    ///
    /// # Panics
    /// If `row` is past the batch, `r` past `src`, or `src` has another
    /// precision or width than the batch.
    pub unsafe fn copy_row(&self, row: usize, src: WireRows<'_>, r: usize) {
        assert!(row < self.rows, "row {row} past a {}-row batch", self.rows);
        assert_eq!(src.cols(), self.cols, "gather source width");
        let cols = self.cols;
        // SAFETY (all arms): `row < rows`, so the row lies inside the
        // buffer `row_fill` took its pointer from, and the caller
        // guarantees it has no other writer.
        match (&self.dst, src) {
            (FillPtr::F32(p), WireRows::F32(m)) => {
                let dst = std::slice::from_raw_parts_mut(p.add(row * cols), cols);
                dst.copy_from_slice(m.row(r));
            }
            (FillPtr::F16(p), WireRows::F16(h)) => {
                let dst = std::slice::from_raw_parts_mut(p.add(row * cols), cols);
                dst.copy_from_slice(h.row(r));
            }
            (FillPtr::Int8(p, params), WireRows::Int8(q)) => {
                let (data, row_params) = q.row(r);
                let dst = std::slice::from_raw_parts_mut(p.add(row * cols), cols);
                dst.copy_from_slice(data);
                *params.add(row) = row_params;
            }
            _ => panic!(
                "gathering {:?} rows into another precision",
                src.precision()
            ),
        }
    }
}

/// Run `f(first_row, block)` over contiguous blocks of whole rows of
/// `out` (`cols` elements per row), one block per available thread.
fn for_row_blocks<T: Send>(out: &mut [T], cols: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let rows = out.len().checked_div(cols).unwrap_or(0);
    let block_rows = rows.div_ceil(rayon::max_threads()).max(1);
    std::thread::scope(|s| {
        let f = &f;
        for (b, block) in out.chunks_mut(block_rows * cols.max(1)).enumerate() {
            s.spawn(move || f(b * block_rows, block));
        }
    });
}

/// A row-major matrix of IEEE 754 binary16 bits: the F16 wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HalfMatrix {
    bits: Vec<u16>,
    rows: usize,
    cols: usize,
}

impl HalfMatrix {
    /// `rows × cols` zero bits (+0.0).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            bits: vec![0; rows * cols],
            rows,
            cols,
        }
    }

    /// Round every element of `x` to binary16 (nearest, ties to even),
    /// in parallel over row blocks.
    pub fn from_f32(x: &Matrix) -> Self {
        let (rows, cols) = x.shape();
        let mut bits = vec![0u16; rows * cols];
        for_row_blocks(&mut bits, cols, |first, block| {
            let src = &x.as_slice()[first * cols..first * cols + block.len()];
            for (b, &v) in block.iter_mut().zip(src) {
                *b = f32_to_f16(v);
            }
        });
        Self { bits, rows, cols }
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Every row's bits, row-major.
    pub fn as_slice(&self) -> &[u16] {
        &self.bits
    }

    /// The binary16 bits of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u16] {
        &self.bits[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape in place, reusing the allocation; contents unspecified.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.bits.resize(rows * cols, 0);
        self.rows = rows;
        self.cols = cols;
    }
}

/// An int8-quantized matrix with per-row affine parameters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuantizedMatrix {
    data: Vec<i8>,
    /// Per-row `(scale, offset)`.
    params: Vec<(f32, f32)>,
    rows: usize,
    cols: usize,
}

impl QuantizedMatrix {
    /// `rows × cols` zeros under `(scale, offset) = (0, 0)`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0; rows * cols],
            params: vec![(0.0, 0.0); rows],
            rows,
            cols,
        }
    }

    /// Per-row affine quantization: `q = round((x - offset) / scale)`,
    /// in parallel over row blocks.
    pub fn quantize_int8(x: &Matrix) -> Self {
        let (rows, cols) = x.shape();
        let mut params = vec![(0.0f32, 0.0f32); rows];
        for_row_blocks(&mut params, 1, |first, block| {
            for (i, p) in block.iter_mut().enumerate() {
                *p = int8_row_params(x.row(first + i));
            }
        });
        let mut data = vec![0i8; rows * cols];
        for_row_blocks(&mut data, cols, |first, block| {
            for (i, dst) in block.chunks_mut(cols).enumerate() {
                let (scale, offset) = params[first + i];
                for (q, &v) in dst.iter_mut().zip(x.row(first + i)) {
                    *q = int8_quantize_value(v, scale, offset);
                }
            }
        });
        Self {
            data,
            params,
            rows,
            cols,
        }
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Every row's int8 values, row-major.
    pub fn values(&self) -> &[i8] {
        &self.data
    }

    /// Every row's `(scale, offset)`.
    pub fn params(&self) -> &[(f32, f32)] {
        &self.params
    }

    /// Row `r`'s int8 values and its `(scale, offset)`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[i8], (f32, f32)) {
        (
            &self.data[r * self.cols..(r + 1) * self.cols],
            self.params[r],
        )
    }

    /// Reshape in place, reusing the allocations; contents unspecified.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0);
        self.params.resize(rows, (0.0, 0.0));
        self.rows = rows;
        self.cols = cols;
    }

    /// Reconstruct the f32 matrix.
    pub fn dequantize(&self) -> Matrix {
        WireRows::Int8(self).decode()
    }

    /// Wire size in bytes (payload + per-row scale/offset).
    pub fn nbytes(&self) -> usize {
        self.data.len() + self.rows * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::randn;

    #[test]
    fn f16_roundtrip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -0.25] {
            assert_eq!(f16_to_f32(f32_to_f16(v)), v, "exact half value {v}");
        }
    }

    #[test]
    fn f16_roundtrip_relative_error() {
        let x = randn(50, 20, 3);
        let rt = Precision::F16.round_trip(&x);
        for (a, b) in x.as_slice().iter().zip(rt.as_slice()) {
            let rel = (a - b).abs() / a.abs().max(1e-3);
            assert!(rel < 2e-3, "f16 error too large: {a} vs {b}");
        }
    }

    #[test]
    fn f16_specials() {
        assert!(f16_to_f32(f32_to_f16(f32::INFINITY)).is_infinite());
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(
            f16_to_f32(f32_to_f16(1e9)),
            f32::INFINITY,
            "overflow saturates"
        );
        assert_eq!(f16_to_f32(f32_to_f16(1e-20)), 0.0, "underflow flushes");
        // subnormal half survives
        let sub = 3.0e-6f32;
        let rt = f16_to_f32(f32_to_f16(sub));
        assert!((rt - sub).abs() / sub < 0.1, "subnormal {sub} -> {rt}");
    }

    #[test]
    fn int8_roundtrip_error_bounded() {
        let x = randn(30, 64, 5);
        let rt = Precision::Int8.round_trip(&x);
        for r in 0..30 {
            let row = x.row(r);
            let (lo, hi) = row
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
                    (l.min(v), h.max(v))
                });
            let step = (hi - lo) / 254.0;
            for (a, b) in row.iter().zip(rt.row(r)) {
                assert!(
                    (a - b).abs() <= step * 0.75 + 1e-6,
                    "int8 error beyond half step: {a} vs {b} (step {step})"
                );
            }
        }
    }

    #[test]
    fn int8_constant_row() {
        let x = Matrix::full(2, 4, 3.5);
        let rt = Precision::Int8.round_trip(&x);
        for v in rt.as_slice() {
            assert!((v - 3.5).abs() < 0.01);
        }
    }

    #[test]
    fn wire_bytes_ratios() {
        assert_eq!(Precision::F32.wire_bytes(10, 100), 4000);
        assert_eq!(Precision::F16.wire_bytes(10, 100), 2000);
        assert_eq!(Precision::Int8.wire_bytes(10, 100), 1000 + 80);
    }

    #[test]
    fn quantized_nbytes() {
        let x = randn(8, 16, 1);
        let q = QuantizedMatrix::quantize_int8(&x);
        assert_eq!(q.nbytes(), 8 * 16 + 8 * 8);
    }

    #[test]
    fn f32_round_trip_is_identity() {
        let x = randn(5, 5, 9);
        assert_eq!(Precision::F32.round_trip(&x).as_slice(), x.as_slice());
    }

    /// The `f32::round` formula `int8_quantize_value` replaced.
    fn quantize_with_round(v: f32, scale: f32, offset: f32) -> i8 {
        ((v - offset) / scale).round().clamp(-127.0, 127.0) as i8
    }

    #[test]
    fn int8_rounding_matches_round_formula_exactly() {
        let mut probes = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MAX,
            f32::MIN,
        ];
        // every half-integer in [-128, 128] and its one-ulp neighbours
        for k in -256..=256 {
            let h = k as f32 * 0.5;
            probes.extend([h, h.next_down(), h.next_up()]);
        }
        // a dense sweep of bit patterns in [-130, 130]
        let top = 130.0f32.to_bits();
        for bits in (0..=top).step_by(769) {
            let v = f32::from_bits(bits);
            probes.extend([v, -v]);
        }
        for &v in &probes {
            assert_eq!(
                int8_quantize_value(v, 1.0, 0.0),
                quantize_with_round(v, 1.0, 0.0),
                "value {v:e} ({:#010x})",
                v.to_bits()
            );
        }
        // and under real row parameters, where the quotient is rounded
        let x = randn(16, 40, 21);
        for r in 0..x.rows() {
            let (scale, offset) = int8_row_params(x.row(r));
            for &v in x.row(r).iter().chain(&probes) {
                assert_eq!(
                    int8_quantize_value(v, scale, offset),
                    quantize_with_round(v, scale, offset),
                    "value {v:e} under scale {scale:e}, offset {offset:e}"
                );
            }
        }
    }

    #[test]
    fn int8_row_params_match_a_serial_scan() {
        // the scan int8_row_params replaced: one chain of min/max
        let serial = |row: &[f32]| {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if !lo.is_finite() || !hi.is_finite() || lo == hi {
                lo = if lo.is_finite() { lo } else { 0.0 };
                hi = lo + 1.0;
            }
            let scale = (hi - lo) / 254.0;
            (scale, lo + 127.0 * scale)
        };
        let x = randn(4, 37, 8);
        let rows: Vec<Vec<f32>> = vec![
            x.row(0).to_vec(),
            x.row(1)[..5].to_vec(),
            vec![],
            vec![f32::NAN; 9],
            vec![0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0],
            vec![-0.0, 0.0, 2.0, -0.0, 1.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
            vec![3.0; 17],
            [x.row(2), &[f32::NAN, f32::INFINITY][..]].concat(),
            [&[f32::NEG_INFINITY][..], x.row(3)].concat(),
        ];
        for row in &rows {
            let (a, b) = (int8_row_params(row), serial(row));
            assert_eq!(
                (a.0.to_bits(), a.1.to_bits()),
                (b.0.to_bits(), b.1.to_bits()),
                "row {row:?}"
            );
        }
    }

    #[test]
    fn in_place_round_trip_bitwise_matches_allocating() {
        let x = randn(17, 23, 11);
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            let allocated = match p {
                // exercise the historical allocating paths explicitly
                Precision::Int8 => QuantizedMatrix::quantize_int8(&x).dequantize(),
                _ => p.round_trip(&x),
            };
            let mut in_place = x.clone();
            p.round_trip_in_place(&mut in_place);
            assert_eq!(
                allocated.as_slice(),
                in_place.as_slice(),
                "{p:?} in-place round trip diverged"
            );
        }
    }
}
