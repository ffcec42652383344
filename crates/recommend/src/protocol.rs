//! Typed wire messages for Recommend.

use musuite_codec::{BufMut, Decode, DecodeError, Encode, Reader};

/// A `{user, item}` rating-prediction query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatingQuery {
    /// User index.
    pub user: u32,
    /// Item index.
    pub item: u32,
}

impl Encode for RatingQuery {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.user.encode(buf);
        self.item.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        10
    }
}

impl Decode for RatingQuery {
    const MIN_WIRE_LEN: usize = 2;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(RatingQuery { user: u32::decode(input)?, item: u32::decode(input)? })
    }
}

/// A leaf's rating estimate with the evidence behind it, so the mid-tier
/// can weight shards by how many neighbours actually voted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafRating {
    /// The shard's predicted rating.
    pub rating: f32,
    /// Number of neighbours contributing to the estimate.
    pub neighbors: u32,
}

impl Encode for LeafRating {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.rating.encode(buf);
        self.neighbors.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        9
    }
}

impl Decode for LeafRating {
    const MIN_WIRE_LEN: usize = 5;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(LeafRating { rating: f32::decode(input)?, neighbors: u32::decode(input)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::{from_bytes, to_bytes};

    #[test]
    fn query_roundtrip() {
        let q = RatingQuery { user: 42, item: 7 };
        assert_eq!(from_bytes::<RatingQuery>(&to_bytes(&q)).unwrap(), q);
    }

    #[test]
    fn leaf_rating_roundtrip() {
        let r = LeafRating { rating: 3.75, neighbors: 12 };
        assert_eq!(from_bytes::<LeafRating>(&to_bytes(&r)).unwrap(), r);
    }
}
