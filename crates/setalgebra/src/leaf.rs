//! The Set Algebra leaf: intersection over one corpus shard.

use crate::index::InvertedIndex;
use crate::protocol::{PostingList, TermQuery};
use musuite_core::error::ServiceError;
use musuite_core::leaf::LeafHandler;
use musuite_data::text::{DocId, TermId};

/// A leaf holding an inverted index over its document shard.
#[derive(Debug)]
pub struct SetAlgebraLeaf {
    index: InvertedIndex,
}

impl SetAlgebraLeaf {
    /// Builds the leaf's index from its shard: `documents[i]` (sorted term
    /// ids) is globally identified as `doc_ids[i]`. The `stop_top` most
    /// frequent terms on this shard are stopped.
    pub fn build(documents: &[Vec<TermId>], doc_ids: &[DocId], stop_top: usize) -> SetAlgebraLeaf {
        SetAlgebraLeaf { index: InvertedIndex::build(documents, doc_ids, stop_top) }
    }

    /// Builds the leaf's index with a corpus-global stop list so every
    /// shard stops exactly the same terms.
    pub fn build_with_stop_list(
        documents: &[Vec<TermId>],
        doc_ids: &[DocId],
        stop_list: Vec<TermId>,
    ) -> SetAlgebraLeaf {
        SetAlgebraLeaf { index: InvertedIndex::build_with_stop_list(documents, doc_ids, stop_list) }
    }

    /// The underlying index (diagnostics).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }
}

impl LeafHandler for SetAlgebraLeaf {
    type Request = TermQuery;
    type Response = PostingList;

    fn handle(&self, request: TermQuery) -> Result<PostingList, ServiceError> {
        Ok(PostingList { docs: self.index.search(&request.terms) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_intersects_its_shard() {
        let docs = vec![vec![1, 2], vec![2, 3], vec![1, 2, 3]];
        let leaf = SetAlgebraLeaf::build(&docs, &[10, 20, 30], 0);
        let result = leaf.handle(TermQuery { terms: vec![2, 3] }).unwrap();
        assert_eq!(result.docs, vec![20, 30]);
        assert_eq!(leaf.index().document_count(), 3);
    }

    #[test]
    fn unknown_term_matches_nothing() {
        let leaf = SetAlgebraLeaf::build(&[vec![1]], &[0], 0);
        assert!(leaf.handle(TermQuery { terms: vec![99] }).unwrap().docs.is_empty());
    }

    #[test]
    fn batched_queries_match_sequential() {
        let docs = vec![vec![1, 2], vec![2, 3], vec![1, 2, 3], vec![4]];
        let leaf = SetAlgebraLeaf::build(&docs, &[10, 20, 30, 40], 0);
        let queries = vec![
            TermQuery { terms: vec![2, 3] },
            TermQuery { terms: vec![2] }, // shares driving-term work
            TermQuery { terms: vec![99] },
            TermQuery { terms: vec![] },
        ];
        let batched = LeafHandler::handle_batch(&leaf, queries.clone());
        for (query, batch) in queries.into_iter().zip(batched) {
            assert_eq!(batch.unwrap().docs, leaf.handle(query).unwrap().docs);
        }
    }
}
