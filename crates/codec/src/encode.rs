//! The [`Encode`] trait and implementations for standard types.

use crate::decode::{Seq, Text};
use crate::wire;
use bytes::{BufMut, Bytes};

/// Types that can be serialized to the μSuite wire format.
///
/// Implementations append bytes to a caller-provided buffer so composite
/// messages serialize without intermediate allocations. The buffer is any
/// [`BufMut`], so call sites can target a plain `Vec<u8>` or a reusable
/// [`bytes::BytesMut`] scratch buffer that amortizes allocations across
/// messages.
///
/// # Examples
///
/// ```
/// use musuite_codec::Encode;
///
/// let mut buf = Vec::new();
/// "hello".encode(&mut buf);
/// 7u32.encode(&mut buf);
/// assert!(buf.len() >= 7);
///
/// // The same value can encode into a reusable scratch buffer.
/// let mut scratch = bytes::BytesMut::new();
/// "hello".encode(&mut scratch);
/// 7u32.encode(&mut scratch);
/// assert_eq!(buf, scratch[..]);
/// ```
pub trait Encode {
    /// Appends this value's wire representation to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// A cheap upper-bound hint for the encoded size, used to pre-size
    /// buffers. The default is a small constant; containers override it.
    fn encoded_len(&self) -> usize {
        16
    }

    /// Appends `items` as a sequence: the count, then each item. The
    /// body of `[Self]`'s encode; a type with a bulk wire form overrides
    /// it (`u8`, whose sequences are byte strings, and `f32`).
    fn encode_seq<B: BufMut>(items: &[Self], buf: &mut B)
    where
        Self: Sized,
    {
        wire::put_uvarint(buf, items.len() as u64);
        for item in items {
            item.encode(buf);
        }
    }
}

macro_rules! impl_encode_uvarint {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode<B: BufMut>(&self, buf: &mut B) {
                wire::put_uvarint(buf, u64::from(*self));
            }
            fn encoded_len(&self) -> usize {
                wire::MAX_VARINT_LEN
            }
        }
    )*};
}

impl_encode_uvarint!(u16, u32, u64);

impl Encode for u8 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        wire::put_uvarint(buf, u64::from(*self));
    }
    fn encoded_len(&self) -> usize {
        wire::MAX_VARINT_LEN
    }

    /// A byte string is its bytes.
    fn encode_seq<B: BufMut>(items: &[u8], buf: &mut B) {
        wire::put_uvarint(buf, items.len() as u64);
        buf.put_slice(items);
    }
}

impl Encode for usize {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        wire::put_uvarint(buf, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        wire::MAX_VARINT_LEN
    }
}

macro_rules! impl_encode_ivarint {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode<B: BufMut>(&self, buf: &mut B) {
                wire::put_ivarint(buf, i64::from(*self));
            }
            fn encoded_len(&self) -> usize {
                wire::MAX_VARINT_LEN
            }
        }
    )*};
}

impl_encode_ivarint!(i8, i16, i32, i64);

impl Encode for bool {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Encode for f32 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        4
    }

    /// The little-endian bytes of the whole slice, staged a block at a
    /// time: one reserve and one copy per block, not one per float.
    fn encode_seq<B: BufMut>(items: &[f32], buf: &mut B) {
        const BLOCK: usize = 128;
        wire::put_uvarint(buf, items.len() as u64);
        let mut staged = [0u8; 4 * BLOCK];
        for block in items.chunks(BLOCK) {
            for (le, x) in staged.chunks_exact_mut(4).zip(block) {
                le.copy_from_slice(&x.to_le_bytes());
            }
            buf.put_slice(&staged[..4 * block.len()]);
        }
    }
}

impl Encode for f64 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Encode for str {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        wire::put_uvarint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        wire::MAX_VARINT_LEN + self.len()
    }
}

impl Encode for String {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.as_str().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl<T: Encode> Encode for [T] {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        T::encode_seq(self, buf);
    }
    fn encoded_len(&self) -> usize {
        wire::MAX_VARINT_LEN + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.as_slice().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            None => buf.put_u8(0),
            Some(value) => {
                buf.put_u8(1);
                value.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        (**self).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

/// A byte string, as `[u8]`.
impl Encode for Bytes {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        u8::encode_seq(self, buf);
    }
    fn encoded_len(&self) -> usize {
        wire::MAX_VARINT_LEN + self.len()
    }
}

/// Text, as `str`.
impl Encode for Text {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        u8::encode_seq(self.as_bytes(), buf);
    }
    fn encoded_len(&self) -> usize {
        wire::MAX_VARINT_LEN + self.len()
    }
}

/// The elements as they arrived, as `[T]`.
impl<T> Encode for Seq<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        let (len, elements) = self.encoded();
        wire::put_uvarint(buf, len as u64);
        buf.put_slice(elements);
    }
    fn encoded_len(&self) -> usize {
        wire::MAX_VARINT_LEN + self.encoded().1.len()
    }
}

impl Encode for () {
    fn encode<B: BufMut>(&self, _buf: &mut B) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

macro_rules! impl_encode_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode<BUF: BufMut>(&self, buf: &mut BUF) {
                $(self.$idx.encode(buf);)+
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
    };
}

impl_encode_tuple!(A: 0);
impl_encode_tuple!(A: 0, B: 1);
impl_encode_tuple!(A: 0, B: 1, C: 2);
impl_encode_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_encodes_to_nothing() {
        let mut buf = Vec::new();
        ().encode(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn bool_is_single_byte() {
        let mut buf = Vec::new();
        true.encode(&mut buf);
        false.encode(&mut buf);
        assert_eq!(buf, [1, 0]);
    }

    #[test]
    fn empty_string_is_one_byte() {
        let mut buf = Vec::new();
        "".encode(&mut buf);
        assert_eq!(buf, [0]);
    }

    #[test]
    fn reference_delegates() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        42u32.encode(&mut a);
        let by_ref: &u32 = &42u32;
        by_ref.encode(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn encoded_len_is_upper_bound() {
        let values: Vec<(u64, String)> = (0..50).map(|i| (i, format!("value-{i}"))).collect();
        let mut buf = Vec::new();
        values.encode(&mut buf);
        assert!(values.encoded_len() >= buf.len());
    }

    #[test]
    fn floats_encode_bit_exact() {
        let mut buf = Vec::new();
        1.5f32.encode(&mut buf);
        assert_eq!(buf, 1.5f32.to_le_bytes());
    }

    proptest::proptest! {
        /// The bulk `[f32]` encode writes what one float at a time wrote.
        #[test]
        fn bulk_floats_encode_as_element_wise(items in proptest::collection::vec(proptest::prelude::any::<f32>(), 0..600)) {
            let mut bulk = Vec::new();
            items.encode(&mut bulk);
            let mut one_by_one = Vec::new();
            wire::put_uvarint(&mut one_by_one, items.len() as u64);
            for x in &items {
                x.encode(&mut one_by_one);
            }
            proptest::prop_assert_eq!(bulk, one_by_one);
        }
    }

    #[test]
    fn bytes_mut_matches_vec_encoding() {
        let value = (7u32, String::from("scatter"), vec![1.0f32, -2.5], Some(3i64));
        let mut vec_buf = Vec::new();
        let mut scratch = bytes::BytesMut::with_capacity(4);
        value.encode(&mut vec_buf);
        value.encode(&mut scratch);
        assert_eq!(vec_buf[..], scratch[..]);
    }
}
