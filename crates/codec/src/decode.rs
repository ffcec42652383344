//! The [`Decode`] trait, the [`Reader`] it reads from, and the views a
//! decode can hand out instead of copies.
//!
//! A frame's payload arrives as a [`Bytes`] slice of the receive buffer.
//! [`Decode`] reads from a [`Reader`] over that slice, so a byte string
//! can come out as a [`Bytes`] slice of it, text as [`Text`], and a
//! sequence as a [`Seq`] — views that share the frame's memory by
//! reference count. Owned types (`String`, `Vec<T>`) still copy out.

use crate::error::DecodeError;
use crate::wire;
use bytes::Bytes;
use std::fmt;
use std::marker::PhantomData;

/// A cursor over the unread rest of one payload.
///
/// # Examples
///
/// ```
/// use musuite_codec::{Decode, Encode, Reader};
///
/// let mut buf = Vec::new();
/// 99u64.encode(&mut buf);
/// let mut input = Reader::new(bytes::Bytes::from(buf));
/// assert_eq!(u64::decode(&mut input)?, 99);
/// input.finish()?;
/// # Ok::<(), musuite_codec::DecodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Reader {
    payload: Bytes,
    at: usize,
}

impl Reader {
    /// A cursor at the start of `payload`.
    pub fn new(payload: Bytes) -> Reader {
        Reader { payload, at: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.at
    }

    fn rest(&self) -> &[u8] {
        &self.payload[self.at..]
    }

    /// Takes the next `len` bytes as a slice of the payload: no copy.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize, context: &'static str) -> Result<Bytes, DecodeError> {
        if len > self.remaining() {
            return Err(DecodeError::UnexpectedEof { context });
        }
        self.at += len;
        Ok(self.payload.slice(self.at - len..self.at))
    }

    /// Runs `read` over the next `len` bytes, then moves past them.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than `len` bytes remain.
    pub fn read<R>(
        &mut self,
        len: usize,
        context: &'static str,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, DecodeError> {
        let head = self.rest().get(..len).ok_or(DecodeError::UnexpectedEof { context })?;
        let value = read(head);
        self.at += len;
        Ok(value)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] at the end of the input.
    pub fn byte(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        self.read(1, context, |head| head[0])
    }

    /// Reads an unsigned varint.
    ///
    /// # Errors
    ///
    /// As [`wire::get_uvarint`].
    pub fn uvarint(&mut self) -> Result<u64, DecodeError> {
        let rest = self.rest();
        let (value, after) = wire::get_uvarint(rest)?;
        self.at += rest.len() - after.len();
        Ok(value)
    }

    /// Reads a zig-zag signed varint.
    ///
    /// # Errors
    ///
    /// As [`wire::get_ivarint`].
    pub fn ivarint(&mut self) -> Result<i64, DecodeError> {
        Ok(wire::zigzag_decode(self.uvarint()?))
    }

    /// Reads the element count of a sequence of `T`, refusing a count the
    /// rest of the input cannot hold at [`Decode::MIN_WIRE_LEN`] bytes per
    /// element — before anything is reserved for it.
    ///
    /// # Errors
    ///
    /// [`DecodeError::LengthOverflow`] with the most elements that fit.
    pub fn seq_len<T: Decode>(&mut self) -> Result<usize, DecodeError> {
        let declared = self.uvarint()?;
        let max = (self.remaining() / T::MIN_WIRE_LEN.max(1)) as u64;
        if declared > max {
            return Err(DecodeError::LengthOverflow { declared, max });
        }
        Ok(declared as usize)
    }

    /// Ends the read, requiring the input to be used up.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] if input remains.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(DecodeError::TrailingBytes { count }),
        }
    }
}

/// Types that can be deserialized from the μSuite wire format.
///
/// `decode` reads one value from the front of a [`Reader`] and leaves the
/// cursor after it, so composite messages decode by reading their fields
/// in order.
///
/// # Examples
///
/// ```
/// use musuite_codec::{Decode, Encode, Reader};
///
/// let mut buf = Vec::new();
/// (7u32, String::from("terms")).encode(&mut buf);
/// let mut input = Reader::new(bytes::Bytes::from(buf));
/// let (id, name) = <(u32, String)>::decode(&mut input)?;
/// assert_eq!((id, name.as_str()), (7, "terms"));
/// # Ok::<(), musuite_codec::DecodeError>(())
/// ```
pub trait Decode: Sized {
    /// The fewest bytes one value takes on the wire. A sequence's declared
    /// count is checked against it before anything is reserved, so a
    /// hostile count is refused in proportion to the input that carries
    /// it. Sum the fields' values for a message.
    const MIN_WIRE_LEN: usize = 1;

    /// Reads one value from the front of `input`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the input is truncated or malformed.
    fn decode(input: &mut Reader) -> Result<Self, DecodeError>;

    /// Reads `count` values, already checked against the input, into a
    /// vector: the body of `Vec<Self>`'s decode. The default reads them one
    /// by one; `u8`, whose sequences are byte strings, reads them at once.
    ///
    /// # Errors
    ///
    /// As [`Decode::decode`].
    fn decode_vec(input: &mut Reader, count: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(Self::decode(input)?);
        }
        Ok(out)
    }
}

macro_rules! impl_decode_uvarint {
    ($($t:ty),*) => {$(
        impl Decode for $t {
            fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
                let raw = input.uvarint()?;
                <$t>::try_from(raw)
                    .map_err(|_| DecodeError::LengthOverflow { declared: raw, max: <$t>::MAX as u64 })
            }
        }
    )*};
}

impl_decode_uvarint!(u16, u32, u64, usize);

impl Decode for u8 {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        let raw = input.uvarint()?;
        u8::try_from(raw)
            .map_err(|_| DecodeError::LengthOverflow { declared: raw, max: u64::from(u8::MAX) })
    }

    /// A byte string is its bytes.
    fn decode_vec(input: &mut Reader, count: usize) -> Result<Vec<u8>, DecodeError> {
        input.read(count, "bytes", <[u8]>::to_vec)
    }
}

macro_rules! impl_decode_ivarint {
    ($($t:ty),*) => {$(
        impl Decode for $t {
            fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
                let raw = input.ivarint()?;
                <$t>::try_from(raw)
                    .map_err(|_| DecodeError::LengthOverflow { declared: raw.unsigned_abs(), max: <$t>::MAX as u64 })
            }
        }
    )*};
}

impl_decode_ivarint!(i8, i16, i32, i64);

impl Decode for bool {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        match input.byte("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(DecodeError::InvalidDiscriminant { value, context: "bool" }),
        }
    }
}

impl Decode for f32 {
    const MIN_WIRE_LEN: usize = 4;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        input.read(4, "f32", |bytes| f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }
}

impl Decode for f64 {
    const MIN_WIRE_LEN: usize = 8;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        input.read(8, "f64", |bytes| {
            let mut le = [0u8; 8];
            le.copy_from_slice(bytes);
            f64::from_le_bytes(le)
        })
    }
}

impl Decode for String {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        let len = input.seq_len::<u8>()?;
        input
            .read(len, "string", |bytes| std::str::from_utf8(bytes).map(str::to_owned))?
            .map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        let len = input.seq_len::<T>()?;
        T::decode_vec(input, len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        match input.byte("Option")? {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            value => Err(DecodeError::InvalidDiscriminant { value, context: "Option" }),
        }
    }
}

impl Decode for () {
    const MIN_WIRE_LEN: usize = 0;

    fn decode(_input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(())
    }
}

macro_rules! impl_decode_tuple {
    ($($name:ident),+) => {
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            const MIN_WIRE_LEN: usize = 0 $(+ $name::MIN_WIRE_LEN)+;

            fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    };
}

impl_decode_tuple!(A);
impl_decode_tuple!(A, B);
impl_decode_tuple!(A, B, C);
impl_decode_tuple!(A, B, C, D);
impl_decode_tuple!(A, B, C, D, E);

/// A byte string decodes as a slice of the payload it arrived in.
impl Decode for Bytes {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        let len = input.seq_len::<u8>()?;
        input.take(len, "bytes")
    }
}

/// UTF-8 text held as a slice of the payload it arrived in, checked once
/// when it is decoded. Reads that need no `&str` (hashing, lookups) use
/// [`Text::as_bytes`]; the wire form is `String`'s.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Text(Bytes);

impl Text {
    /// The text's bytes, which are valid UTF-8.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty text.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<&'static str> for Text {
    fn from(text: &'static str) -> Text {
        Text(Bytes::from_static(text.as_bytes()))
    }
}

impl AsRef<[u8]> for Text {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&String::from_utf8_lossy(&self.0))
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&String::from_utf8_lossy(&self.0), f)
    }
}

impl Decode for Text {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        let bytes = Bytes::decode(input)?;
        std::str::from_utf8(&bytes).map_err(|_| DecodeError::InvalidUtf8)?;
        Ok(Text(bytes))
    }
}

/// A sequence of `T` held as its encoded elements, a slice of the payload
/// it arrived in: every element was checked when the sequence was
/// decoded, and is decoded again each time it is read. Iterate it, or
/// copy it into a buffer the caller keeps. The wire form is `Vec<T>`'s.
pub struct Seq<T> {
    len: usize,
    elements: Bytes,
    element: PhantomData<fn() -> T>,
}

impl<T: Decode> Seq<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the sequence has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements, in order.
    pub fn iter(&self) -> SeqIter<T> {
        SeqIter { input: Reader::new(self.elements.clone()), left: self.len, element: PhantomData }
    }

    /// Replaces `out`'s contents with the elements: no allocation once
    /// `out` has held this many.
    pub fn copy_into(&self, out: &mut Vec<T>) {
        out.clear();
        out.extend(self.iter());
    }

    /// The elements, copied into a vector of their own.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }
}

impl<T: Decode> Decode for Seq<T> {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        let len = input.seq_len::<T>()?;
        let mut check = input.clone();
        for _ in 0..len {
            T::decode(&mut check)?;
        }
        let elements = input.take(input.remaining() - check.remaining(), "sequence")?;
        Ok(Seq { len, elements, element: PhantomData })
    }
}

impl<T> Seq<T> {
    /// The encoded elements, as they arrived.
    pub(crate) fn encoded(&self) -> (usize, &[u8]) {
        (self.len, &self.elements)
    }
}

impl<T: Decode> IntoIterator for Seq<T> {
    type Item = T;
    type IntoIter = SeqIter<T>;

    fn into_iter(self) -> SeqIter<T> {
        SeqIter { input: Reader::new(self.elements), left: self.len, element: PhantomData }
    }
}

impl<T> Clone for Seq<T> {
    fn clone(&self) -> Self {
        Seq { len: self.len, elements: self.elements.clone(), element: PhantomData }
    }
}

impl<T> Default for Seq<T> {
    fn default() -> Self {
        Seq { len: 0, elements: Bytes::new(), element: PhantomData }
    }
}

impl<T: Decode + fmt::Debug> fmt::Debug for Seq<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The elements of a [`Seq`], decoded as they are read.
pub struct SeqIter<T> {
    input: Reader,
    left: usize,
    element: PhantomData<fn() -> T>,
}

impl<T: Decode> Iterator for SeqIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.left = self.left.checked_sub(1)?;
        // Checked when the sequence was decoded: cannot fail here.
        T::decode(&mut self.input).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T: Decode> ExactSizeIterator for SeqIter<T> {}

impl<T> Clone for SeqIter<T> {
    fn clone(&self) -> Self {
        SeqIter { input: self.input.clone(), left: self.left, element: PhantomData }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encode;
    use crate::{from_bytes, from_payload, to_bytes};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        assert_eq!(from_bytes::<T>(&to_bytes(&value)).unwrap(), value);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(i8::MIN);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f32);
        roundtrip(-2.25f64);
        roundtrip(());
    }

    #[test]
    fn float_nan_roundtrips_bitwise() {
        let got: f32 = from_bytes(&to_bytes(&f32::NAN)).unwrap();
        assert!(got.is_nan());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(String::from("μSuite"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![0u8, 127, 128, 255]);
        roundtrip(Some(9u8));
        roundtrip(Option::<u8>::None);
        roundtrip((1u8, -5i32, String::from("x")));
        roundtrip(vec![(1u64, vec![1.0f32, 2.0]), (2, vec![])]);
        roundtrip((1u8, 2u8, 3u8, 4u8, 5u8));
    }

    #[test]
    fn byte_strings_are_their_bytes() {
        assert_eq!(to_bytes(&vec![0u8, 200, 255]), [3, 0, 200, 255]);
    }

    #[test]
    fn narrowing_overflow_detected() {
        assert!(matches!(
            from_bytes::<u8>(&to_bytes(&300u64)),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn bool_bad_discriminant() {
        assert!(matches!(
            from_bytes::<bool>(&[7]),
            Err(DecodeError::InvalidDiscriminant { value: 7, context: "bool" })
        ));
    }

    #[test]
    fn option_bad_discriminant() {
        assert!(matches!(
            from_bytes::<Option<u8>>(&[9, 0]),
            Err(DecodeError::InvalidDiscriminant { value: 9, .. })
        ));
    }

    #[test]
    fn string_invalid_utf8() {
        // length 2, bytes are an invalid UTF-8 sequence
        assert_eq!(from_bytes::<String>(&[2, 0xFF, 0xFE]), Err(DecodeError::InvalidUtf8));
        assert_eq!(from_bytes::<Text>(&[2, 0xFF, 0xFE]), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn hostile_length_prefix_rejected_without_allocation() {
        // Declares a 2^60-element vector with only 2 bytes of input.
        let mut buf = Vec::new();
        wire::put_uvarint(&mut buf, 1u64 << 60);
        buf.push(0);
        assert!(matches!(from_bytes::<Vec<u8>>(&buf), Err(DecodeError::LengthOverflow { .. })));
    }

    #[test]
    fn declared_count_is_checked_against_the_element_wire_size() {
        // 4096 floats declared, 4096 bytes present: room for 1024.
        let mut buf = vec![0x80, 0x20];
        buf.extend([0u8; 4096]);
        assert_eq!(
            from_bytes::<Vec<f32>>(&buf),
            Err(DecodeError::LengthOverflow { declared: 4096, max: 1024 })
        );
        assert_eq!(
            from_bytes::<Seq<f32>>(&buf).err(),
            Some(DecodeError::LengthOverflow { declared: 4096, max: 1024 })
        );
        assert_eq!(<(u64, f32, bool)>::MIN_WIRE_LEN, 6);
    }

    #[test]
    fn truncated_vector_is_eof() {
        let mut buf = to_bytes(&vec![1u32, 2, 3]);
        buf.truncate(buf.len() - 1);
        assert!(from_bytes::<Vec<u32>>(&buf).is_err());
        assert!(from_bytes::<Seq<u32>>(&buf).is_err());
    }

    #[test]
    fn decode_leaves_remainder() {
        let mut buf = to_bytes(&7u8);
        buf.extend_from_slice(b"tail");
        let mut input = Reader::new(Bytes::from(buf));
        assert_eq!(u8::decode(&mut input).unwrap(), 7);
        assert_eq!(input.remaining(), 4);
        assert_eq!(input.finish(), Err(DecodeError::TrailingBytes { count: 4 }));
    }

    #[test]
    fn views_share_the_payload() {
        let value = (String::from("key"), vec![9u8; 40], vec![1.5f32, -2.0], vec![300u64, 7]);
        let payload = Bytes::from(to_bytes(&value));
        let (text, bytes, floats, ids): (Text, Bytes, Seq<f32>, Seq<u64>) =
            from_payload(payload.clone()).unwrap();
        assert_eq!(&text, "key");
        assert_eq!(bytes, value.1);
        let range = payload.as_ptr_range();
        assert!(range.contains(&bytes.as_ptr()), "a byte string is a slice of the payload");
        assert_eq!(floats.to_vec(), value.2);
        assert_eq!((ids.len(), ids.iter().collect::<Vec<_>>()), (2, value.3.clone()));
        let mut scratch = Vec::with_capacity(8);
        ids.copy_into(&mut scratch);
        assert_eq!(scratch, value.3);
        // A view encodes as the owned value it was decoded from.
        assert_eq!(to_bytes(&(text, bytes, floats, ids)), to_bytes(&value));
    }

    #[test]
    fn sequence_views_check_every_element() {
        // Two u32 elements declared; the second overflows u32.
        let mut buf = to_bytes(&vec![5u64, u64::from(u32::MAX) + 1]);
        assert!(matches!(from_bytes::<Seq<u32>>(&buf), Err(DecodeError::LengthOverflow { .. })));
        buf = to_bytes(&vec![5u64, 6]);
        assert_eq!(from_bytes::<Seq<u32>>(&buf).unwrap().to_vec(), [5, 6]);
    }
}
