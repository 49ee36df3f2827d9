//! Affine exemplar quantisation.
//!
//! The paper stores exemplars "in compressed format". We implement
//! per-column affine quantisation to i8 or u16: each feature column is
//! mapped to its integer range with a scale/offset pair, costing
//! `2 × 4` bytes of metadata per column and 1–2 bytes per value.
//!
//! A [`QuantizedMatrix`] is also a **wire section**: the binary codec of
//! `docs/WIRE.md` ships it via [`QuantizedMatrix::to_wire`] /
//! [`QuantizedMatrix::from_wire`] at the true code width, so
//! [`QuantizedMatrix::storage_bytes`] is exactly what the link transfers
//! (plus the fixed 17-byte section header).

use crate::wire::{WireReader, WireWriter, WireError};
use pilote_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Quantisation precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Quantization {
    /// 8-bit codes: 256 levels, `0..=255`.
    I8,
    /// 16-bit codes: 65 536 levels, `0..=65535`.
    U16,
}

impl Quantization {
    /// Largest representable code (`levels − 1`): the column maximum maps
    /// here, the column minimum to code 0.
    fn max_code(self) -> f32 {
        match self {
            Quantization::I8 => 255.0,
            Quantization::U16 => 65_535.0,
        }
    }

    /// Number of distinct code levels (codes `0..=levels()-1`).
    pub fn levels(self) -> usize {
        match self {
            Quantization::I8 => 256,
            Quantization::U16 => 65_536,
        }
    }

    /// Bytes per stored value.
    pub fn bytes_per_value(self) -> usize {
        match self {
            Quantization::I8 => 1,
            Quantization::U16 => 2,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Quantization::I8 => 0,
            Quantization::U16 => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Quantization::I8),
            1 => Ok(Quantization::U16),
            tag => Err(WireError::BadTag { context: "Quantization", tag }),
        }
    }
}

/// Errors from quantising a tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantizeError {
    /// The input holds a NaN or infinite value. Affine codes cannot
    /// represent it — `NaN.clamp(..)` stays NaN and `NaN as u16` is 0, so
    /// the old encoder silently mapped NaN to the column *minimum* and
    /// shipped it as a legitimate value. Consistent with the repo's other
    /// non-finite guards (checkpoint restore, window quarantine), the
    /// encoder now refuses up front and names the offending cell.
    NonFinite {
        /// Row of the first non-finite value.
        row: usize,
        /// Column of the first non-finite value.
        col: usize,
    },
    /// An underlying tensor operation failed (e.g. not rank-2).
    Tensor(TensorError),
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::NonFinite { row, col } => {
                write!(f, "cannot quantise non-finite value at [{row}, {col}]")
            }
            QuantizeError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for QuantizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QuantizeError::Tensor(e) => Some(e),
            QuantizeError::NonFinite { .. } => None,
        }
    }
}

impl From<TensorError> for QuantizeError {
    fn from(e: TensorError) -> Self {
        QuantizeError::Tensor(e)
    }
}

/// Row-major codes stored at the true width of their mode, so in-memory
/// footprint, serde payloads and the binary wire section all match
/// [`QuantizedMatrix::storage_bytes`]. (They used to be widened to
/// `Vec<u16>` for both modes, silently doubling every I8 byte claim.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum QuantCodes {
    /// 1-byte codes.
    I8(Vec<u8>),
    /// 2-byte codes.
    U16(Vec<u16>),
}

impl QuantCodes {
    fn len(&self) -> usize {
        match self {
            QuantCodes::I8(v) => v.len(),
            QuantCodes::U16(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> u16 {
        match self {
            QuantCodes::I8(v) => v[i] as u16,
            QuantCodes::U16(v) => v[i],
        }
    }
}

/// A quantised `[rows, cols]` matrix with per-column affine codecs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    mode: Quantization,
    /// Per-column minimum (offset).
    offsets: Vec<f32>,
    /// Per-column step ( (max−min)/max_code ).
    scales: Vec<f32>,
    /// Row-major codes at the true width of `mode`.
    codes: QuantCodes,
}

impl QuantizedMatrix {
    /// Quantises a rank-2 tensor.
    ///
    /// # Errors
    /// [`QuantizeError::NonFinite`] when the input holds NaN/±∞ (naming
    /// the first offending cell), [`QuantizeError::Tensor`] when it is not
    /// rank-2.
    pub fn encode(data: &Tensor, mode: Quantization) -> Result<Self, QuantizeError> {
        if data.rank() != 2 {
            return Err(TensorError::RankMismatch { got: data.rank(), expected: 2, op: "QuantizedMatrix::encode" }.into());
        }
        let (rows, cols) = (data.rows(), data.cols());
        let mut offsets = vec![0.0f32; cols];
        let mut scales = vec![0.0f32; cols];
        // Row-major finiteness sweep first, so the error names the first
        // bad cell in reading order regardless of which column pass would
        // have tripped over it.
        for r in 0..rows {
            for c in 0..cols {
                if !data.at(r, c).is_finite() {
                    return Err(QuantizeError::NonFinite { row: r, col: c });
                }
            }
        }
        for c in 0..cols {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for r in 0..rows {
                let v = data.at(r, c);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if rows == 0 {
                lo = 0.0;
                hi = 0.0;
            }
            offsets[c] = lo;
            scales[c] = if hi > lo { (hi - lo) / mode.max_code() } else { 0.0 };
        }
        let quantise = |r: usize, c: usize| -> f32 {
            let v = data.at(r, c);
            if scales[c] > 0.0 {
                ((v - offsets[c]) / scales[c]).round().clamp(0.0, mode.max_code())
            } else {
                0.0
            }
        };
        let codes = match mode {
            Quantization::I8 => {
                let mut out = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        out.push(quantise(r, c) as u8);
                    }
                }
                QuantCodes::I8(out)
            }
            Quantization::U16 => {
                let mut out = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        out.push(quantise(r, c) as u16);
                    }
                }
                QuantCodes::U16(out)
            }
        };
        Ok(QuantizedMatrix { rows, cols, mode, offsets, scales, codes })
    }

    /// Reconstructs the (lossy) tensor.
    pub fn decode(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.codes.len() {
            let c = i % self.cols;
            data.push(self.offsets[c] + self.scales[c] * self.codes.get(i) as f32);
        }
        Tensor::from_vec(data, [self.rows, self.cols]).expect("length by construction")
    }

    /// Rows of the encoded matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the encoded matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Precision the matrix was encoded at.
    pub fn mode(&self) -> Quantization {
        self.mode
    }

    /// Bytes this matrix occupies on the device: codes at the true width
    /// plus the per-column codec metadata. The codes are *stored* at this
    /// width too (`QuantCodes`), so the claim matches both memory and
    /// the serialised payload.
    pub fn storage_bytes(&self) -> u64 {
        let codes = (self.rows * self.cols * self.mode.bytes_per_value()) as u64;
        let metadata = (self.cols * 2 * std::mem::size_of::<f32>()) as u64;
        codes + metadata
    }

    /// Fixed wire-section header bytes in front of
    /// [`QuantizedMatrix::storage_bytes`]: rows (u64) + cols (u64) +
    /// mode tag (u8).
    pub const WIRE_HEADER_BYTES: u64 = 17;

    /// Appends this matrix as a binary wire section: rows, cols, mode
    /// tag, per-column offsets and scales (bit-exact f32), then the codes
    /// at their true width. Exactly [`QuantizedMatrix::storage_bytes`] +
    /// [`QuantizedMatrix::WIRE_HEADER_BYTES`] bytes.
    pub fn to_wire(&self, w: &mut WireWriter) {
        w.u64(self.rows as u64);
        w.u64(self.cols as u64);
        w.u8(self.mode.tag());
        for &o in &self.offsets {
            w.f32(o);
        }
        for &s in &self.scales {
            w.f32(s);
        }
        match &self.codes {
            QuantCodes::I8(v) => w.raw(v),
            QuantCodes::U16(v) => {
                for &code in v {
                    w.u16(code);
                }
            }
        }
    }

    /// Reads a matrix written by [`QuantizedMatrix::to_wire`].
    pub fn from_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = r.u64()? as usize;
        let cols = r.u64()? as usize;
        let mode = Quantization::from_tag(r.u8()?)?;
        let values = rows.checked_mul(cols).ok_or(WireError::LengthOverflow {
            context: "QuantizedMatrix codes",
            announced: rows as u64,
        })?;
        let section_bytes = cols
            .checked_mul(8)
            .zip(values.checked_mul(mode.bytes_per_value()))
            .and_then(|(metadata, codes)| metadata.checked_add(codes));
        if section_bytes.is_none_or(|bytes| r.remaining() < bytes) {
            return Err(WireError::LengthOverflow {
                context: "QuantizedMatrix sections",
                announced: values as u64,
            });
        }
        let mut offsets = Vec::with_capacity(cols);
        for _ in 0..cols {
            offsets.push(r.f32()?);
        }
        let mut scales = Vec::with_capacity(cols);
        for _ in 0..cols {
            scales.push(r.f32()?);
        }
        let codes = match mode {
            Quantization::I8 => QuantCodes::I8(r.raw(values)?.to_vec()),
            Quantization::U16 => {
                let mut out = Vec::with_capacity(values);
                for _ in 0..values {
                    out.push(r.u16()?);
                }
                QuantCodes::U16(out)
            }
        };
        Ok(QuantizedMatrix { rows, cols, mode, offsets, scales, codes })
    }

    /// Maximum reconstruction error relative to `original`.
    pub fn max_error(&self, original: &Tensor) -> Result<f32, TensorError> {
        self.decode().max_abs_diff(original)
    }

    /// The half-step error bound guaranteed per column: `scale/2`.
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().copied().fold(0.0f32, f32::max) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_tensor::Rng64;

    #[test]
    fn round_trip_error_within_bound() {
        let mut rng = Rng64::new(1);
        let data = Tensor::randn([50, 8], 0.0, 3.0, &mut rng);
        for mode in [Quantization::I8, Quantization::U16] {
            let q = QuantizedMatrix::encode(&data, mode).unwrap();
            let err = q.max_error(&data).unwrap();
            // Allow a 1-ulp slack beyond the theoretical half step for f32
            // rounding in the codec arithmetic.
            assert!(
                err <= q.error_bound() * 1.01 + 1e-6,
                "{mode:?}: err {err} bound {}",
                q.error_bound()
            );
        }
    }

    #[test]
    fn section_size_that_overflows_is_a_typed_error() {
        // rows = 0 makes the code count 0, and cols · 8 = 2^64 wraps to 0:
        // an unchecked size test passes and reserves 2^61 offsets.
        let mut w = WireWriter::new();
        w.u64(0);
        w.u64(1 << 61);
        w.u8(Quantization::I8.tag());
        let bytes = w.into_bytes();
        assert!(matches!(
            QuantizedMatrix::from_wire(&mut WireReader::new(&bytes)),
            Err(WireError::LengthOverflow { context: "QuantizedMatrix sections", .. })
        ));
    }

    #[test]
    fn u16_is_far_more_precise_than_i8() {
        let mut rng = Rng64::new(2);
        let data = Tensor::randn([100, 4], 0.0, 1.0, &mut rng);
        let e8 = QuantizedMatrix::encode(&data, Quantization::I8).unwrap().max_error(&data).unwrap();
        let e16 =
            QuantizedMatrix::encode(&data, Quantization::U16).unwrap().max_error(&data).unwrap();
        assert!(e16 < e8 / 50.0, "i8 {e8} u16 {e16}");
    }

    #[test]
    fn constant_column_is_exact() {
        let data = Tensor::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let q = QuantizedMatrix::encode(&data, Quantization::I8).unwrap();
        let d = q.decode();
        assert_eq!(d.at(0, 0), 5.0);
        assert_eq!(d.at(1, 0), 5.0);
    }

    #[test]
    fn extremes_are_exactly_representable() {
        let data = Tensor::from_rows(&[vec![-2.0], vec![7.0]]).unwrap();
        let q = QuantizedMatrix::encode(&data, Quantization::I8).unwrap();
        let d = q.decode();
        assert!((d.at(0, 0) - -2.0).abs() < 1e-5);
        assert!((d.at(1, 0) - 7.0).abs() < 1e-3);
    }

    /// Regression (silent-NaN bug): `NaN.clamp(0, max)` stays NaN and
    /// `NaN as u16` is 0, so a NaN input used to encode as the column
    /// *minimum* and round-trip as a legitimate value. It must be a typed
    /// error naming the offending cell instead.
    #[test]
    fn non_finite_input_is_a_typed_error() {
        let data = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, f32::NAN]]).unwrap();
        for mode in [Quantization::I8, Quantization::U16] {
            assert_eq!(
                QuantizedMatrix::encode(&data, mode),
                Err(QuantizeError::NonFinite { row: 1, col: 1 }),
            );
        }
        let inf = Tensor::from_rows(&[vec![f32::INFINITY, 0.0]]).unwrap();
        assert_eq!(
            QuantizedMatrix::encode(&inf, Quantization::I8),
            Err(QuantizeError::NonFinite { row: 0, col: 0 }),
        );
        // Not rank-2 stays a tensor error, not a panic.
        assert!(matches!(
            QuantizedMatrix::encode(&Tensor::zeros([4]), Quantization::I8),
            Err(QuantizeError::Tensor(TensorError::RankMismatch { .. }))
        ));
    }

    /// The full code range must be reachable: with 256 levels the column
    /// maximum encodes to code 255 (= `levels() - 1`), the minimum to 0.
    #[test]
    fn full_code_range_is_reachable() {
        let data = Tensor::from_rows(&[vec![-2.0], vec![7.0]]).unwrap();
        for (mode, top) in [(Quantization::I8, 255u16), (Quantization::U16, 65_535u16)] {
            let q = QuantizedMatrix::encode(&data, mode).unwrap();
            let codes: Vec<u16> = (0..q.codes.len()).map(|i| q.codes.get(i)).collect();
            assert_eq!(codes, vec![0, top], "{mode:?} must span the full code range");
            assert_eq!(mode.levels(), top as usize + 1, "levels() counts codes 0..=top");
        }
    }

    #[test]
    fn storage_accounting() {
        let data = Tensor::zeros([100, 80]);
        let q8 = QuantizedMatrix::encode(&data, Quantization::I8).unwrap();
        let q16 = QuantizedMatrix::encode(&data, Quantization::U16).unwrap();
        assert_eq!(q8.storage_bytes(), 100 * 80 + 80 * 8);
        assert_eq!(q16.storage_bytes(), 100 * 80 * 2 + 80 * 8);
    }

    /// Regression (byte-accounting bug): I8 codes used to be stored
    /// widened to `Vec<u16>`, so the serialised payload shipped 2
    /// bytes/value while `storage_bytes` claimed 1. The wire section must
    /// now cost exactly `storage_bytes` plus the fixed header.
    #[test]
    fn wire_section_size_matches_storage_bytes() {
        let mut rng = Rng64::new(5);
        let data = Tensor::randn([30, 7], 0.0, 2.0, &mut rng);
        for mode in [Quantization::I8, Quantization::U16] {
            let q = QuantizedMatrix::encode(&data, mode).unwrap();
            let mut w = WireWriter::new();
            q.to_wire(&mut w);
            assert_eq!(
                w.len() as u64,
                q.storage_bytes() + QuantizedMatrix::WIRE_HEADER_BYTES,
                "{mode:?}: serialised bytes must equal the storage_bytes claim"
            );
        }
        // And I8 really is half the U16 payload for the same matrix.
        let i8_bytes = QuantizedMatrix::encode(&data, Quantization::I8).unwrap().storage_bytes();
        let u16_bytes = QuantizedMatrix::encode(&data, Quantization::U16).unwrap().storage_bytes();
        assert!(i8_bytes < u16_bytes);
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let mut rng = Rng64::new(6);
        let data = Tensor::randn([9, 4], 1.0, 3.0, &mut rng);
        for mode in [Quantization::I8, Quantization::U16] {
            let q = QuantizedMatrix::encode(&data, mode).unwrap();
            let mut w = WireWriter::new();
            q.to_wire(&mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = QuantizedMatrix::from_wire(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, q);
        }
    }

    #[test]
    fn empty_matrix_round_trips() {
        let data = Tensor::zeros([0, 5]);
        let q = QuantizedMatrix::encode(&data, Quantization::I8).unwrap();
        assert_eq!(q.decode().shape(), data.shape());
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = Rng64::new(3);
        let data = Tensor::randn([4, 3], 0.0, 1.0, &mut rng);
        let q = QuantizedMatrix::encode(&data, Quantization::U16).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantizedMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
    }
}
