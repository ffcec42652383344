//! Typed wire messages for HDSearch.

use musuite_codec::{BufMut, Decode, DecodeError, Encode};
use musuite_core::error::ServiceError;

/// A front-end k-NN query: the extracted feature vector plus the number of
/// neighbours wanted.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchQuery {
    /// The query image's feature vector.
    pub vector: Vec<f32>,
    /// Number of neighbours requested.
    pub k: u32,
}

impl Encode for SearchQuery {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.vector.encode(buf);
        self.k.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.vector.encoded_len() + 5
    }
}

impl Decode for SearchQuery {
    fn decode(bytes: &[u8]) -> Result<(Self, &[u8]), DecodeError> {
        let (vector, rest) = Vec::<f32>::decode(bytes)?;
        let (k, rest) = u32::decode(rest)?;
        Ok((SearchQuery { vector, k }, rest))
    }
}

/// Refuses a query vector that cannot be searched: one whose length is not
/// `dim`, or with a NaN or infinite coordinate, whose distances would not
/// order. Both tiers ask before any distance is computed.
///
/// # Errors
///
/// A [`Status::BadRequest`](musuite_codec::Status::BadRequest) error that
/// names what is wrong.
pub fn check_query(vector: &[f32], dim: usize) -> Result<(), ServiceError> {
    if vector.len() != dim {
        return Err(ServiceError::bad_request(format!(
            "query dimension {} does not match corpus dimension {dim}",
            vector.len()
        )));
    }
    if !vector.iter().all(|x| x.is_finite()) {
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
    fn decode(bytes: &[u8]) -> Result<(Self, &[u8]), DecodeError> {
        let (id, rest) = u64::decode(bytes)?;
        let (distance, rest) = f32::decode(rest)?;
        Ok((Neighbor { id, distance }, rest))
    }
}

/// Mid-tier → leaf request: the query vector, the candidate point ids the
/// LSH lookup produced for that leaf (local indices), and `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSearchRequest {
    /// The query feature vector.
    pub vector: Vec<f32>,
    /// Candidate local indices on this leaf to score.
    pub candidates: Vec<u64>,
    /// Neighbours wanted from this leaf.
    pub k: u32,
}

impl Encode for LeafSearchRequest {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.vector.encode(buf);
        self.candidates.encode(buf);
        self.k.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.vector.encoded_len() + self.candidates.encoded_len() + 5
    }
}

impl Decode for LeafSearchRequest {
    fn decode(bytes: &[u8]) -> Result<(Self, &[u8]), DecodeError> {
        let (vector, rest) = Vec::<f32>::decode(bytes)?;
        let (candidates, rest) = Vec::<u64>::decode(rest)?;
        let (k, rest) = u32::decode(rest)?;
        Ok((LeafSearchRequest { vector, candidates, k }, rest))
    }
}

/// Leaf → mid-tier response: up to `k` neighbours sorted by distance,
/// ids already translated to global point ids.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LeafSearchResponse {
    /// Distance-sorted neighbours from this leaf's shard.
    pub neighbors: Vec<Neighbor>,
}

impl Encode for LeafSearchResponse {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.neighbors.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.neighbors.encoded_len()
    }
}

impl Decode for LeafSearchResponse {
    fn decode(bytes: &[u8]) -> Result<(Self, &[u8]), DecodeError> {
        let (neighbors, rest) = Vec::<Neighbor>::decode(bytes)?;
        Ok((LeafSearchResponse { neighbors }, rest))
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
