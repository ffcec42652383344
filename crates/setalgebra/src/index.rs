//! The inverted index with a collection-frequency stop list.
//!
//! "Leaves hold ordered posting lists as an inverted index where documents
//! are identified via a document ID … Set Algebra determines a stop list
//! by sorting terms by their collection frequency and then regarding the
//! most frequent terms as a stop list. Members of the stop list are
//! discarded during indexing" (paper §III-C).

use crate::skiplist::SkipList;
use musuite_data::text::{DocId, TermId};
use std::collections::HashMap;

/// An inverted index over one shard of the corpus.
pub struct InvertedIndex {
    postings: HashMap<TermId, SkipList>,
    stop_list: Vec<TermId>,
    documents: usize,
}

impl InvertedIndex {
    /// Builds the index for `documents` (each a sorted term-id list), with
    /// document `i` identified as `doc_ids[i]`. The `stop_top` most
    /// frequent terms (by collection frequency across *these* documents)
    /// are stopped and discarded.
    ///
    /// # Panics
    ///
    /// Panics if `documents` and `doc_ids` lengths differ.
    pub fn build(documents: &[Vec<TermId>], doc_ids: &[DocId], stop_top: usize) -> InvertedIndex {
        let stop_list = Self::stop_list_for(documents, stop_top);
        Self::build_with_stop_list(documents, doc_ids, stop_list)
    }

    /// The `stop_top` most frequent terms of `documents` by collection
    /// frequency, most frequent first. Exposed so a sharded deployment can
    /// compute one *corpus-global* stop list and hand the same list to
    /// every shard (shard-local stop lists could diverge and change
    /// per-shard query semantics).
    pub fn stop_list_for(documents: &[Vec<TermId>], stop_top: usize) -> Vec<TermId> {
        let mut frequency: HashMap<TermId, u32> = HashMap::new();
        for doc in documents {
            for &term in doc {
                *frequency.entry(term).or_insert(0) += 1;
            }
        }
        let mut by_frequency: Vec<(TermId, u32)> = frequency.into_iter().collect();
        by_frequency.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_frequency.iter().take(stop_top).map(|(term, _)| *term).collect()
    }

    /// Builds the index with an explicit, externally computed stop list.
    ///
    /// # Panics
    ///
    /// Panics if `documents` and `doc_ids` lengths differ.
    pub fn build_with_stop_list(
        documents: &[Vec<TermId>],
        doc_ids: &[DocId],
        stop_list: Vec<TermId>,
    ) -> InvertedIndex {
        assert_eq!(documents.len(), doc_ids.len(), "one id per document");
        let stopped: std::collections::HashSet<TermId> = stop_list.iter().copied().collect();
        let mut postings: HashMap<TermId, SkipList> = HashMap::new();
        for (doc, &doc_id) in documents.iter().zip(doc_ids) {
            for &term in doc {
                if !stopped.contains(&term) {
                    postings.entry(term).or_default().insert(doc_id);
                }
            }
        }
        InvertedIndex { postings, stop_list, documents: documents.len() }
    }

    /// The posting list for `term`, if indexed.
    pub fn postings(&self, term: TermId) -> Option<&SkipList> {
        self.postings.get(&term)
    }

    /// Terms discarded as stop words, most frequent first.
    pub fn stop_list(&self) -> &[TermId] {
        &self.stop_list
    }

    /// Returns `true` if `term` was stopped.
    pub fn is_stopped(&self, term: TermId) -> bool {
        self.stop_list.contains(&term)
    }

    /// Number of indexed documents.
    pub fn document_count(&self) -> usize {
        self.documents
    }

    /// Number of distinct indexed terms (stop words excluded).
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Documents containing **all** of `terms`, via shortest-first
    /// skip-seeking intersection. Stopped terms "have little value in
    /// helping select documents" and are ignored in mixed queries,
    /// matching the paper's semantics; a query consisting *only* of stop
    /// words (or no terms at all) is uninformative and returns empty, the
    /// standard IR treatment — and the one that keeps leaf work bounded,
    /// which is the entire point of the stop list (§III-C).
    ///
    /// `terms` is read twice, so it may be an owned list's `iter().copied()`
    /// or a frame's view of one. The only allocation is the result: the
    /// shortest posting list, materialized at its exact length, which the
    /// other lists then narrow in place.
    pub fn search<I>(&self, terms: I) -> Vec<DocId>
    where
        I: IntoIterator<Item = TermId>,
        I::IntoIter: Clone,
    {
        let terms = terms.into_iter();
        let mut shortest: Option<&SkipList> = None;
        for term in terms.clone() {
            if self.is_stopped(term) {
                continue; // stop words constrain nothing in a conjunction
            }
            match self.postings.get(&term) {
                Some(list) if shortest.is_none_or(|s| list.len() < s.len()) => {
                    shortest = Some(list);
                }
                Some(_) => {}
                None => return Vec::new(), // an absent term matches no document
            }
        }
        let Some(shortest) = shortest else {
            return Vec::new(); // stop-word-only or empty query
        };
        let mut result: Vec<DocId> = Vec::with_capacity(shortest.len());
        result.extend(shortest.iter());
        // Stopped terms have no posting list, and the shortest one is
        // already the result.
        for list in terms.filter_map(|term| self.postings.get(&term)) {
            if result.is_empty() {
                break;
            }
            if !std::ptr::eq(list, shortest) {
                crate::intersect::intersect_skipping(&mut result, list);
            }
        }
        result
    }
}

impl std::fmt::Debug for InvertedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvertedIndex")
            .field("documents", &self.documents)
            .field("terms", &self.postings.len())
            .field("stopped", &self.stop_list.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// docs: 0:{1,2,3} 1:{2,3} 2:{3} 3:{3,4}
    fn sample() -> InvertedIndex {
        let docs = vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![3, 4]];
        InvertedIndex::build(&docs, &[0, 1, 2, 3], 0)
    }

    #[test]
    fn single_term_lookup() {
        let index = sample();
        assert_eq!(index.search([2]), vec![0, 1]);
        assert_eq!(index.search([4]), vec![3]);
        assert_eq!(index.search([9]), Vec::<DocId>::new());
        assert_eq!(index.document_count(), 4);
        assert_eq!(index.term_count(), 4);
    }

    #[test]
    fn conjunction_intersects() {
        let index = sample();
        assert_eq!(index.search([2, 3]), vec![0, 1]);
        assert_eq!(index.search([1, 2, 3]), vec![0]);
        assert_eq!(index.search([1, 4]), Vec::<DocId>::new());
    }

    #[test]
    fn stop_list_removes_most_frequent() {
        let docs = vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![3, 4]];
        let index = InvertedIndex::build(&docs, &[0, 1, 2, 3], 1);
        // Term 3 appears in all 4 docs → stopped.
        assert_eq!(index.stop_list(), &[3]);
        assert!(index.is_stopped(3));
        assert!(index.postings(3).is_none());
        // A stopped term does not constrain the query.
        assert_eq!(index.search([2, 3]), vec![0, 1]);
        // An all-stop-word query is uninformative: empty.
        assert_eq!(index.search([3]), Vec::<DocId>::new());
    }

    #[test]
    fn empty_query_matches_nothing() {
        let index = sample();
        assert_eq!(index.search([]), Vec::<DocId>::new());
    }

    #[test]
    fn respects_custom_doc_ids() {
        let docs = vec![vec![7], vec![7, 8]];
        let index = InvertedIndex::build(&docs, &[100, 200], 0);
        assert_eq!(index.search([7]), vec![100, 200]);
        assert_eq!(index.search([8]), vec![200]);
    }

    #[test]
    fn matches_brute_force_on_synthetic_corpus() {
        use musuite_data::text::{CorpusConfig, TextCorpus};
        let corpus = TextCorpus::generate(&CorpusConfig {
            documents: 400,
            vocabulary: 200,
            doc_len: 30,
            ..Default::default()
        });
        let doc_ids: Vec<DocId> = (0..corpus.len() as DocId).collect();
        let index = InvertedIndex::build(corpus.documents(), &doc_ids, 0);
        for query in corpus.sample_queries(50) {
            assert_eq!(
                index.search(query.iter().copied()),
                corpus.matching_documents(&query),
                "{query:?}"
            );
        }
    }
}
