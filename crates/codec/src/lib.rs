//! Binary wire codec for μSuite-rs RPC messages.
//!
//! The original μSuite serializes requests and responses with Protocol
//! Buffers underneath gRPC. This crate is the from-scratch substitute: a
//! compact, schema-by-convention binary format with
//!
//! * [`wire`] — varint and fixed-width primitive encoding,
//! * [`encode`]/[`decode`] — [`Encode`]/[`Decode`] traits implemented for
//!   the standard types services exchange (integers, floats, strings,
//!   byte buffers, options, vectors, tuples, maps),
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
//! let (decoded, rest) = <(u64, String, Vec<f32>)>::decode(&buf)?;
//! assert_eq!(decoded, value);
//! assert!(rest.is_empty());
//! # Ok::<(), musuite_codec::DecodeError>(())
//! ```

pub mod batch;
pub mod decode;
pub mod encode;
pub mod error;
pub mod frame;
pub mod wire;

pub use batch::{batch_frame, decode_batch, encode_batch, BatchEntry};
pub use bytes::BufMut;
pub use decode::Decode;
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
/// consumed.
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
    let (value, rest) = T::decode(bytes)?;
    if !rest.is_empty() {
        return Err(DecodeError::TrailingBytes { count: rest.len() });
    }
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
