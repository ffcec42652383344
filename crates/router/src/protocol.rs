//! Typed get/set wire messages for Router.
//!
//! "In this study, we evaluate only gets and sets" (paper §III-B); a
//! delete is included because the leaf store supports it and the drop-in
//! proxy property requires covering the standard client surface.

use musuite_codec::{BufMut, Decode, DecodeError, Encode, Reader};

/// A client request routed by the mid-tier.
///
/// Generic over how it holds its key and value: callers build the owned
/// form, `KvRequest` (`String`, `Vec<u8>`); a server reads
/// `KvRequest<Text, Bytes>`, whose key and value are views of the frame
/// it arrived in (DESIGN.md §5a). Both have one wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvRequest<K = String, V = Vec<u8>> {
    /// Read a key.
    Get {
        /// The key to read.
        key: K,
    },
    /// Write a key-value pair.
    Set {
        /// The key to write.
        key: K,
        /// The value bytes.
        value: V,
    },
    /// Remove a key.
    Delete {
        /// The key to remove.
        key: K,
    },
    /// Write a key-value pair that expires after a time-to-live — the
    /// memcached `set` with an expiry, exercised by cache-style callers.
    SetEx {
        /// The key to write.
        key: K,
        /// The value bytes.
        value: V,
        /// Time-to-live in milliseconds.
        ttl_ms: u64,
    },
}

impl<K, V> KvRequest<K, V> {
    /// The key this request touches.
    pub fn key(&self) -> &K {
        match self {
            KvRequest::Get { key }
            | KvRequest::Set { key, .. }
            | KvRequest::Delete { key }
            | KvRequest::SetEx { key, .. } => key,
        }
    }

    /// Returns `true` for reads (routed to one replica).
    pub fn is_read(&self) -> bool {
        matches!(self, KvRequest::Get { .. })
    }
}

impl<K: Encode, V: Encode> Encode for KvRequest<K, V> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            KvRequest::Get { key } => {
                buf.put_u8(0);
                key.encode(buf);
            }
            KvRequest::Set { key, value } => {
                buf.put_u8(1);
                key.encode(buf);
                value.encode(buf);
            }
            KvRequest::Delete { key } => {
                buf.put_u8(2);
                key.encode(buf);
            }
            KvRequest::SetEx { key, value, ttl_ms } => {
                buf.put_u8(3);
                key.encode(buf);
                value.encode(buf);
                ttl_ms.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            KvRequest::Get { key } | KvRequest::Delete { key } => 1 + key.encoded_len(),
            KvRequest::Set { key, value } => 1 + key.encoded_len() + value.encoded_len(),
            KvRequest::SetEx { key, value, .. } => 11 + key.encoded_len() + value.encoded_len(),
        }
    }
}

impl<K: Decode, V: Decode> Decode for KvRequest<K, V> {
    const MIN_WIRE_LEN: usize = 1 + K::MIN_WIRE_LEN;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        match input.byte("KvRequest")? {
            0 => Ok(KvRequest::Get { key: K::decode(input)? }),
            1 => Ok(KvRequest::Set { key: K::decode(input)?, value: V::decode(input)? }),
            2 => Ok(KvRequest::Delete { key: K::decode(input)? }),
            3 => Ok(KvRequest::SetEx {
                key: K::decode(input)?,
                value: V::decode(input)?,
                ttl_ms: u64::decode(input)?,
            }),
            value => Err(DecodeError::InvalidDiscriminant { value, context: "KvRequest" }),
        }
    }
}

/// A leaf's (and the mid-tier's) reply. Generic over how it holds a value,
/// as [`KvRequest`] is: a leaf answers with the owned form, the mid-tier
/// reads and passes on `KvResponse<Bytes>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse<V = Vec<u8>> {
    /// The value for a get, or `None` on a miss.
    Value(Option<V>),
    /// Acknowledgement of a set.
    Stored,
    /// Result of a delete: whether the key existed.
    Deleted(bool),
}

impl<V: Encode> Encode for KvResponse<V> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            KvResponse::Value(value) => {
                buf.put_u8(0);
                value.encode(buf);
            }
            KvResponse::Stored => buf.put_u8(1),
            KvResponse::Deleted(existed) => {
                buf.put_u8(2);
                existed.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            KvResponse::Value(value) => 2 + value.as_ref().map_or(0, Encode::encoded_len),
            KvResponse::Stored => 1,
            KvResponse::Deleted(_) => 2,
        }
    }
}

impl<V: Decode> Decode for KvResponse<V> {
    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        match input.byte("KvResponse")? {
            0 => Ok(KvResponse::Value(Option::<V>::decode(input)?)),
            1 => Ok(KvResponse::Stored),
            2 => Ok(KvResponse::Deleted(bool::decode(input)?)),
            value => Err(DecodeError::InvalidDiscriminant { value, context: "KvResponse" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::{from_bytes, from_payload, to_bytes, Bytes, Text};

    #[test]
    fn request_roundtrips() {
        for request in [
            KvRequest::Get { key: "k".into() },
            KvRequest::Set { key: "k".into(), value: vec![1, 2, 3] },
            KvRequest::Set { key: String::new(), value: Vec::new() },
            KvRequest::Delete { key: "gone".into() },
            KvRequest::SetEx { key: "t".into(), value: vec![9], ttl_ms: 1500 },
        ] {
            let bytes = to_bytes(&request);
            assert_eq!(from_bytes::<KvRequest>(&bytes).unwrap(), request);
            let view: KvRequest<Text, Bytes> = from_payload(Bytes::from(bytes.clone())).unwrap();
            assert_eq!(to_bytes(&view), bytes);
        }
    }

    #[test]
    fn response_roundtrips() {
        for response in [
            KvResponse::Value(Some(vec![9; 100])),
            KvResponse::Value(None),
            KvResponse::Stored,
            KvResponse::Deleted(true),
            KvResponse::Deleted(false),
        ] {
            let bytes = to_bytes(&response);
            assert_eq!(from_bytes::<KvResponse>(&bytes).unwrap(), response);
        }
    }

    #[test]
    fn bad_discriminants_rejected() {
        assert!(from_bytes::<KvRequest>(&[9]).is_err());
        assert!(from_bytes::<KvResponse>(&[9]).is_err());
        assert!(from_bytes::<KvRequest>(&[]).is_err());
        assert!(from_bytes::<KvRequest<Text, Bytes>>(&[9]).is_err());
    }

    #[test]
    fn key_and_is_read_accessors() {
        let get = |key: &str| -> KvRequest { KvRequest::Get { key: key.into() } };
        assert_eq!(get("a").key(), "a");
        assert!(get("a").is_read());
        assert!(!KvRequest::Set { key: "a".to_string(), value: vec![0u8] }.is_read());
        assert!(!KvRequest::<_, Vec<u8>>::Delete { key: "a" }.is_read());
        assert!(!KvRequest::SetEx { key: "a", value: [0u8], ttl_ms: 1 }.is_read());
    }
}
