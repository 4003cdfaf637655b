//! Fixed little-endian binary layout for the values that cross a process
//! boundary on the wire.
//!
//! ## Layout rules
//!
//! * Integers are little-endian at their declared width; `usize` travels
//!   as a `u64` so 32- and 64-bit peers agree.
//! * An `f64` is written as its `to_bits()`, so every value — NaN
//!   payloads, ±∞, −0.0, subnormals — round-trips bit for bit.
//! * `bool` is one byte, 0 or 1. `Option<T>` is a tag byte (0 = `None`,
//!   1 = `Some`) followed by the value.
//! * A `String`, `Vec<T>` or `BTreeMap<u64, T>` carries a `u32` element
//!   count, then its elements in order (map entries as key, value, with
//!   keys strictly ascending). The decoder checks each count against the
//!   bytes left *before* it allocates, so a hostile length costs nothing.
//! * An enum is one stable tag byte per variant, then the variant's fields
//!   in declaration order. A struct is its fields in declaration order.
//!
//! Decoding never panics: a short buffer, an over-long count, an unknown
//! tag, a bool or `Option` byte other than 0/1, invalid UTF-8, unsorted
//! map keys and bytes left over after the value are all [`CodecError`]s.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes were left than the next field needs.
    Truncated {
        /// Bytes the field needs.
        needed: usize,
        /// Bytes left in the payload.
        have: usize,
    },
    /// An element count claims more elements than the bytes left can hold.
    Length {
        /// The declared element count.
        declared: usize,
        /// Bytes left in the payload.
        have: usize,
    },
    /// A tag byte names no variant of the enum.
    BadTag {
        /// The enum being decoded.
        ty: &'static str,
        /// The tag byte read.
        tag: u8,
    },
    /// A `bool` byte other than 0 or 1.
    BadBool(u8),
    /// An `Option` tag other than 0 or 1.
    BadOption(u8),
    /// A string's bytes are not UTF-8.
    Utf8,
    /// A `usize` field does not fit this platform's `usize`.
    Overflow(u64),
    /// Map keys were not strictly ascending.
    UnsortedKeys,
    /// Bytes were left over after the value.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated: need {needed} bytes, have {have}")
            }
            CodecError::Length { declared, have } => {
                write!(f, "{declared} elements declared, only {have} bytes left")
            }
            CodecError::BadTag { ty, tag } => write!(f, "unknown {ty} tag {tag}"),
            CodecError::BadBool(b) => write!(f, "bool byte {b} is neither 0 nor 1"),
            CodecError::BadOption(b) => write!(f, "option tag {b} is neither 0 nor 1"),
            CodecError::Utf8 => f.write_str("string is not UTF-8"),
            CodecError::Overflow(v) => write!(f, "{v} does not fit usize"),
            CodecError::UnsortedKeys => f.write_str("map keys not strictly ascending"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after the value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Consumes the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(CodecError::Truncated {
                needed: n,
                have: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a tag byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u32` element count and checks that `count` elements of at
    /// least `min_bytes` each fit in the bytes left — before the caller
    /// allocates for them.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let declared = u32::from_le_bytes(self.array()?) as usize;
        let have = self.rest.len();
        match declared.checked_mul(min_bytes.max(1)) {
            Some(bytes) if bytes <= have => Ok(declared),
            _ => Err(CodecError::Length { declared, have }),
        }
    }

    /// Reads `n` raw `f64`s (no count prefix), checking the bytes first.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let bytes = n.checked_mul(8).ok_or(CodecError::Length {
            declared: n,
            have: self.rest.len(),
        })?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(b))
            })
            .collect())
    }

    /// Succeeds only when every byte has been consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

/// Writes an element count as the `u32` prefix of the layout.
///
/// A count above `u32::MAX` is written saturated; such a value encodes to
/// more than `u32::MAX` bytes, which no frame can carry, so the frame
/// layer rejects it before it reaches the wire.
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes());
}

/// Writes `xs` as raw `f64` bits with no count prefix (the inverse of
/// [`Reader::f64s`]).
pub fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.reserve(xs.len() * 8);
    for x in xs {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// A value with a fixed binary layout.
pub trait Codec: Sized {
    /// A lower bound on the encoded size, used to bound element counts
    /// against the bytes left before allocating.
    const MIN_BYTES: usize = 1;

    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// The exact number of bytes [`Codec::encode`] appends, so a caller
    /// can allocate the buffer once. The default encodes into a scratch
    /// buffer; types stored packed (cluster maps of ECFs) override it with
    /// arithmetic.
    fn encoded_len(&self) -> usize {
        let mut scratch = Vec::new();
        self.encode(&mut scratch);
        scratch.len()
    }

    /// Decodes one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Decodes a value that must fill `bytes` exactly.
pub fn decode_exact<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

int_codec!(u8, u32, u64);

impl Codec for usize {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CodecError::Overflow(v))
    }
}

impl Codec for f64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        u64::decode(r).map(f64::from_bits)
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::BadBool(b)),
        }
    }
}

impl Codec for String {
    const MIN_BYTES: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.count(1)?;
        std::str::from_utf8(r.take(n)?)
            .map(str::to_owned)
            .map_err(|_| CodecError::Utf8)
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for x in self {
            x.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.count(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

/// Transparent: an `Arc<T>` has the layout of the `T` it points to, so a
/// shared value encodes to the same bytes as an owned one.
impl<T: Codec> Codec for Arc<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode(self, out);
    }
    fn encoded_len(&self) -> usize {
        T::encoded_len(self)
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::decode(r).map(Arc::new)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            b => Err(CodecError::BadOption(b)),
        }
    }
}

impl<T: Codec> Codec for BTreeMap<u64, T> {
    const MIN_BYTES: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.values().map(|v| 8 + v.encoded_len()).sum::<usize>()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.count(8 + T::MIN_BYTES)?;
        let mut map = BTreeMap::new();
        let mut prev = None;
        for _ in 0..n {
            let k = u64::decode(r)?;
            if prev.is_some_and(|p| p >= k) {
                return Err(CodecError::UnsortedKeys);
            }
            prev = Some(k);
            map.insert(k, T::decode(r)?);
        }
        Ok(map)
    }
}

/// Implements [`Codec`] for a struct as its fields in the order listed,
/// which must be the declaration order:
///
/// ```
/// # use ustream_common::codec_struct;
/// struct Tick { at: u64, weight: f64 }
/// codec_struct!(Tick { at: u64, weight: f64 });
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ty { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::codec::Codec>::MIN_BYTES)+;
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Codec::encode(&self.$field, out);)+
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                Ok(Self {
                    $($field: <$fty as $crate::codec::Codec>::decode(r)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec>(v: &T) -> T {
        let mut out = Vec::new();
        v.encode(&mut out);
        decode_exact(&out).unwrap()
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for x in [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff4_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            1.5,
        ] {
            assert_eq!(round_trip(&x).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<String>> = vec![None, Some("héllo".into()), Some(String::new())];
        assert_eq!(round_trip(&v), v);
        let m: BTreeMap<u64, Vec<u64>> = [(1, vec![2, 3]), (9, vec![])].into_iter().collect();
        assert_eq!(round_trip(&m), m);
        assert!(round_trip(&true));
        assert_eq!(round_trip(&usize::MAX), usize::MAX);
    }

    #[test]
    fn shared_values_encode_like_owned_ones() {
        let owned: BTreeMap<u64, Vec<f64>> = [(3, vec![-0.0, 2.5])].into_iter().collect();
        let shared: BTreeMap<u64, Arc<Vec<f64>>> = owned
            .iter()
            .map(|(k, v)| (*k, Arc::new(v.clone())))
            .collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        owned.encode(&mut a);
        shared.encode(&mut b);
        assert_eq!(a, b);
        assert_eq!(shared.encoded_len(), b.len());
        assert_eq!(round_trip(&shared), shared);
    }

    #[test]
    fn encoded_len_is_the_encoded_size() {
        fn check<T: Codec>(v: &T) {
            let mut out = Vec::new();
            v.encode(&mut out);
            assert_eq!(v.encoded_len(), out.len());
        }
        check(&"héllo".to_string());
        check(
            &[(1u64, vec![2.5f64]), (9, vec![])]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
        );
    }

    #[test]
    fn malformed_bytes_are_typed_errors() {
        assert_eq!(decode_exact::<bool>(&[2]), Err(CodecError::BadBool(2)));
        assert_eq!(
            decode_exact::<Option<u8>>(&[7, 0]),
            Err(CodecError::BadOption(7))
        );
        assert_eq!(
            decode_exact::<String>(&[2, 0, 0, 0, 0xff, 0xfe]),
            Err(CodecError::Utf8)
        );
        assert_eq!(decode_exact::<u8>(&[1, 2]), Err(CodecError::Trailing(1)));
        assert_eq!(
            decode_exact::<u64>(&[1, 2]),
            Err(CodecError::Truncated { needed: 8, have: 2 })
        );
        // Keys 5 then 5: a duplicate is not strictly ascending.
        let mut dup = vec![2, 0, 0, 0];
        for _ in 0..2 {
            dup.extend_from_slice(&5u64.to_le_bytes());
            dup.push(0);
        }
        assert_eq!(
            decode_exact::<BTreeMap<u64, u8>>(&dup),
            Err(CodecError::UnsortedKeys)
        );
    }

    #[test]
    fn hostile_count_is_rejected_before_allocating() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(
            decode_exact::<Vec<f64>>(&bytes),
            Err(CodecError::Length {
                declared: u32::MAX as usize,
                have: 16
            })
        );
        assert!(matches!(
            decode_exact::<String>(&bytes),
            Err(CodecError::Length { .. })
        ));
    }
}
