//! Binary wire codec for μSuite-rs RPC messages.
//!
//! The original μSuite serializes requests and responses with Protocol
//! Buffers underneath gRPC. This crate is the from-scratch substitute: a
//! compact, schema-by-convention binary format with
//!
//! * [`wire`] — varint and fixed-width primitive encoding,
//! * [`encode`]/[`decode`] — [`Encode`]/[`Decode`] traits implemented for
//!   the standard types services exchange (integers, floats, strings,
//!   byte buffers, options, vectors, tuples), plus the views a decode can
//!   hand out instead of copies: [`Bytes`], [`Text`] and
//!   [`Seq`], slices of the payload the value arrived in,
//! * [`frame`] — the length-prefixed, checksummed frame layer carrying an
//!   RPC header (request id, method, status) plus an opaque payload.
//!
//! # Examples
//!
//! ```
//! use musuite_codec::{Decode, Encode};
//!
//! let value = (42u64, String::from("query"), vec![1.0f32, 2.0]);
//! let mut buf = Vec::new();
//! value.encode(&mut buf);
//! let mut input = musuite_codec::Reader::new(bytes::Bytes::from(buf));
//! let decoded = <(u64, String, Vec<f32>)>::decode(&mut input)?;
//! input.finish()?;
//! assert_eq!(decoded, value);
//! # Ok::<(), musuite_codec::DecodeError>(())
//! ```

pub mod batch;
pub mod decode;
pub mod encode;
pub mod error;
pub mod frame;
pub mod wire;

pub use batch::{batch_frame, decode_batch, encode_batch, BatchEntry};
pub use bytes::{BufMut, Bytes};
pub use decode::{Decode, Reader, Seq, SeqIter, Text};
pub use encode::Encode;
pub use error::DecodeError;
pub use frame::{
    Frame, FrameBuf, FrameHeader, FrameKind, FramePrefix, FrameTooLarge, Priority, Status,
    HEADER_LEN, MAX_FRAME_LEN,
};

/// Encodes a value into a fresh byte vector.
///
/// # Examples
///
/// ```
/// let bytes = musuite_codec::to_bytes(&7u32);
/// assert!(!bytes.is_empty());
/// ```
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    buf
}

/// Decodes a value from a byte slice, requiring the slice to be fully
/// consumed. The slice is copied into one buffer first, which any views
/// in the value share; a payload already in a [`bytes::Bytes`] decodes
/// with [`from_payload`], without the copy.
///
/// # Errors
///
/// Returns [`DecodeError`] if the bytes are malformed or trailing bytes
/// remain.
///
/// # Examples
///
/// ```
/// let bytes = musuite_codec::to_bytes(&7u32);
/// let v: u32 = musuite_codec::from_bytes(&bytes)?;
/// assert_eq!(v, 7);
/// # Ok::<(), musuite_codec::DecodeError>(())
/// ```
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    from_payload(bytes::Bytes::copy_from_slice(bytes))
}

/// Decodes a value from a whole payload, requiring it to be fully
/// consumed. Views in the value are slices of `payload`.
///
/// # Errors
///
/// Returns [`DecodeError`] if the bytes are malformed or trailing bytes
/// remain.
///
/// # Examples
///
/// ```
/// use musuite_codec::{from_payload, to_bytes, Text};
///
/// let payload = bytes::Bytes::from(to_bytes("user42"));
/// let key: Text = from_payload(payload)?;
/// assert_eq!(&key, "user42");
/// # Ok::<(), musuite_codec::DecodeError>(())
/// ```
pub fn from_payload<T: Decode>(payload: bytes::Bytes) -> Result<T, DecodeError> {
    let mut input = Reader::new(payload);
    let value = T::decode(&mut input)?;
    input.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_from_bytes_roundtrip() {
        let v = vec![(1u32, "a".to_string()), (2, "bb".to_string())];
        let bytes = to_bytes(&v);
        let back: Vec<(u32, String)> = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u8);
        bytes.push(0xFF);
        let err = from_bytes::<u8>(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::TrailingBytes { count: 1 }));
    }
}
