//! Typed wire messages for HDSearch.

use musuite_codec::{BufMut, Decode, DecodeError, Encode, Reader};
use musuite_core::error::ServiceError;

/// A front-end k-NN query: the extracted feature vector plus the number of
/// neighbours wanted.
///
/// The messages here are generic over how they hold their sequences:
/// callers build the owned form (`Vec`, the defaults); a server reads
/// [`Seq`](musuite_codec::Seq) views of the frame the message arrived in
/// (DESIGN.md §5a). Both have one wire form. Build the owned form from
/// typed values: a literal `vec![1.5]` that nothing else types is a
/// `Vec<f64>`, another wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchQuery<V = Vec<f32>> {
    /// The query image's feature vector.
    pub vector: V,
    /// Number of neighbours requested.
    pub k: u32,
}

impl<V: Encode> Encode for SearchQuery<V> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.vector.encode(buf);
        self.k.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.vector.encoded_len() + 5
    }
}

impl<V: Decode> Decode for SearchQuery<V> {
    const MIN_WIRE_LEN: usize = V::MIN_WIRE_LEN + 1;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(SearchQuery { vector: V::decode(input)?, k: u32::decode(input)? })
    }
}

/// Refuses a query vector that cannot be searched: one whose length is not
/// `dim`, or with a NaN or infinite coordinate, whose distances would not
/// order. Both tiers ask before any distance is computed, of a slice's
/// `iter().copied()` or of a [`Seq`](musuite_codec::Seq) view's `iter()`.
///
/// # Errors
///
/// A [`Status::BadRequest`](musuite_codec::Status::BadRequest) error that
/// names what is wrong.
pub fn check_query(
    mut vector: impl ExactSizeIterator<Item = f32>,
    dim: usize,
) -> Result<(), ServiceError> {
    if vector.len() != dim {
        return Err(ServiceError::bad_request(format!(
            "query dimension {} does not match corpus dimension {dim}",
            vector.len()
        )));
    }
    if !vector.all(f32::is_finite) {
        return Err(ServiceError::bad_request("query vector has a non-finite coordinate"));
    }
    Ok(())
}

/// One result neighbour: a global point id and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Global point id of the matched image.
    pub id: u64,
    /// Squared Euclidean distance to the query vector.
    pub distance: f32,
}

impl Encode for Neighbor {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.id.encode(buf);
        self.distance.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        14
    }
}

impl Decode for Neighbor {
    const MIN_WIRE_LEN: usize = 5;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(Neighbor { id: u64::decode(input)?, distance: f32::decode(input)? })
    }
}

/// Mid-tier → leaf request: the query vector, the candidate point ids the
/// LSH lookup produced for that leaf (local indices), and `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSearchRequest<V = Vec<f32>, C = Vec<u64>> {
    /// The query feature vector.
    pub vector: V,
    /// Candidate local indices on this leaf to score.
    pub candidates: C,
    /// Neighbours wanted from this leaf.
    pub k: u32,
}

impl<V: Encode, C: Encode> Encode for LeafSearchRequest<V, C> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.vector.encode(buf);
        self.candidates.encode(buf);
        self.k.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.vector.encoded_len() + self.candidates.encoded_len() + 5
    }
}

impl<V: Decode, C: Decode> Decode for LeafSearchRequest<V, C> {
    const MIN_WIRE_LEN: usize = V::MIN_WIRE_LEN + C::MIN_WIRE_LEN + 1;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(LeafSearchRequest {
            vector: V::decode(input)?,
            candidates: C::decode(input)?,
            k: u32::decode(input)?,
        })
    }
}

/// Leaf → mid-tier response: up to `k` neighbours sorted by distance,
/// ids already translated to global point ids.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LeafSearchResponse<N = Vec<Neighbor>> {
    /// Distance-sorted neighbours from this leaf's shard.
    pub neighbors: N,
}

impl<N: Encode> Encode for LeafSearchResponse<N> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.neighbors.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.neighbors.encoded_len()
    }
}

impl<N: Decode> Decode for LeafSearchResponse<N> {
    const MIN_WIRE_LEN: usize = N::MIN_WIRE_LEN;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(LeafSearchResponse { neighbors: N::decode(input)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::{from_bytes, to_bytes};

    #[test]
    fn query_roundtrip() {
        let q = SearchQuery { vector: vec![1.5, -2.0, 0.0], k: 10 };
        assert_eq!(from_bytes::<SearchQuery>(&to_bytes(&q)).unwrap(), q);
    }

    #[test]
    fn leaf_messages_roundtrip() {
        let request =
            LeafSearchRequest { vector: vec![0.1; 16], candidates: vec![5, 9, 1000], k: 3 };
        assert_eq!(from_bytes::<LeafSearchRequest>(&to_bytes(&request)).unwrap(), request);
        let response = LeafSearchResponse {
            neighbors: vec![Neighbor { id: 7, distance: 0.25 }, Neighbor { id: 9, distance: 1.5 }],
        };
        assert_eq!(from_bytes::<LeafSearchResponse>(&to_bytes(&response)).unwrap(), response);
    }

    #[test]
    fn empty_messages_roundtrip() {
        let request = LeafSearchRequest { vector: Vec::new(), candidates: Vec::new(), k: 0 };
        assert_eq!(from_bytes::<LeafSearchRequest>(&to_bytes(&request)).unwrap(), request);
        let response = LeafSearchResponse::default();
        assert_eq!(from_bytes::<LeafSearchResponse>(&to_bytes(&response)).unwrap(), response);
    }
}
