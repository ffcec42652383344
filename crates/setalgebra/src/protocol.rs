//! Typed wire messages for Set Algebra.

use musuite_codec::{BufMut, Decode, DecodeError, Encode, Reader};
use musuite_data::text::{DocId, TermId};

/// A search query: the terms whose posting lists must all contain a
/// matching document. The paper caps queries at ~10 terms.
///
/// The messages here are generic over how they hold their lists: callers
/// build the owned form (`Vec`, the default); a server reads
/// [`Seq`](musuite_codec::Seq) views of the frame the message arrived in
/// (DESIGN.md §5a). Both have one wire form. Build the owned form from
/// typed ids: a literal `vec![1, 2]` that nothing else types is a
/// `Vec<i32>`, another wire form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TermQuery<T = Vec<TermId>> {
    /// Query term ids.
    pub terms: T,
}

impl<T: Encode> Encode for TermQuery<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.terms.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.terms.encoded_len()
    }
}

impl<T: Decode> Decode for TermQuery<T> {
    const MIN_WIRE_LEN: usize = T::MIN_WIRE_LEN;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(TermQuery { terms: T::decode(input)? })
    }
}

/// A posting list of matching document ids, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PostingList<D = Vec<DocId>> {
    /// Matching document ids.
    pub docs: D,
}

impl<D: Encode> Encode for PostingList<D> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.docs.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.docs.encoded_len()
    }
}

impl<D: Decode> Decode for PostingList<D> {
    const MIN_WIRE_LEN: usize = D::MIN_WIRE_LEN;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(PostingList { docs: D::decode(input)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::{from_bytes, to_bytes};

    #[test]
    fn query_roundtrip() {
        let q = TermQuery { terms: vec![1, 5, 9] };
        assert_eq!(from_bytes::<TermQuery>(&to_bytes(&q)).unwrap(), q);
        let empty = TermQuery::default();
        assert_eq!(from_bytes::<TermQuery>(&to_bytes(&empty)).unwrap(), empty);
    }

    #[test]
    fn posting_list_roundtrip() {
        let p = PostingList { docs: (0..1000).collect() };
        assert_eq!(from_bytes::<PostingList>(&to_bytes(&p)).unwrap(), p);
    }
}
