//! One-call Set Algebra cluster launcher and typed front-end client.

use crate::leaf::SetAlgebraLeaf;
use crate::midtier::SetAlgebraMidTier;
use crate::protocol::{PostingList, TermQuery};
use musuite_core::cluster::{Cluster, ClusterConfig, TypedClient};
use musuite_core::degrade::Degraded;
use musuite_data::text::{DocId, TermId, TextCorpus};
use musuite_rpc::{CallOptions, RpcError};
use std::net::SocketAddr;

/// A running Set Algebra deployment: sharded inverted indexes behind a
/// union mid-tier.
pub struct SetAlgebraService {
    cluster: Cluster,
}

impl SetAlgebraService {
    /// Shards `corpus` round-robin over `leaves` and launches the service.
    /// `stop_top` most-frequent terms are stopped per shard (0 disables
    /// stop lists, which keeps results identical to brute force).
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    pub fn launch(
        corpus: &TextCorpus,
        leaves: usize,
        stop_top: usize,
    ) -> Result<SetAlgebraService, RpcError> {
        Self::launch_with(ClusterConfig::new().leaves(leaves), corpus, stop_top)
    }

    /// Launches with full cluster configuration control.
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    pub fn launch_with(
        config: ClusterConfig,
        corpus: &TextCorpus,
        stop_top: usize,
    ) -> Result<SetAlgebraService, RpcError> {
        let leaves = config.leaf_count();
        // Round-robin document sharding, global ids preserved.
        let mut shard_docs: Vec<Vec<Vec<TermId>>> = vec![Vec::new(); leaves];
        let mut shard_ids: Vec<Vec<DocId>> = vec![Vec::new(); leaves];
        for (doc_id, doc) in corpus.documents().iter().enumerate() {
            let leaf = doc_id % leaves;
            shard_docs[leaf].push(doc.clone());
            shard_ids[leaf].push(doc_id as DocId);
        }
        // One corpus-global stop list, shared by every shard, so stop
        // semantics do not depend on which shard a document landed on.
        let stop_list = crate::index::InvertedIndex::stop_list_for(corpus.documents(), stop_top);
        let cluster = Cluster::launch(config, SetAlgebraMidTier::new(), move |leaf| {
            SetAlgebraLeaf::build_with_stop_list(
                &shard_docs[leaf],
                &shard_ids[leaf],
                stop_list.clone(),
            )
        })?;
        Ok(SetAlgebraService { cluster })
    }

    /// The mid-tier address front-ends connect to.
    pub fn addr(&self) -> SocketAddr {
        self.cluster.midtier_addr()
    }

    /// The underlying cluster (stats, shutdown).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Connects a typed client.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection fails.
    pub fn client(&self) -> Result<SetAlgebraClient, RpcError> {
        Ok(SetAlgebraClient { inner: self.cluster.client()? })
    }

    /// Shuts the deployment down. Idempotent.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

impl std::fmt::Debug for SetAlgebraService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAlgebraService").field("addr", &self.addr()).finish()
    }
}

/// A typed document-search client.
pub struct SetAlgebraClient {
    inner: TypedClient<TermQuery, Degraded<PostingList>>,
}

impl SetAlgebraClient {
    /// Returns the ids of documents containing **all** of `terms`,
    /// dropping the degradation envelope (use
    /// [`search_with_status`](SetAlgebraClient::search_with_status) to
    /// see whether shards were missing).
    ///
    /// # Errors
    ///
    /// Returns transport errors or a below-quorum shard failure.
    pub fn search(&self, terms: &[TermId]) -> Result<Vec<DocId>, RpcError> {
        Ok(self.search_with_status(terms)?.value.docs)
    }

    /// Returns matching documents along with the shard accounting: a
    /// degraded response unions only a surviving quorum of shards and may
    /// miss documents from the shards that failed.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a below-quorum shard failure.
    pub fn search_with_status(&self, terms: &[TermId]) -> Result<Degraded<PostingList>, RpcError> {
        self.inner.call_typed(&TermQuery { terms: terms.to_vec() }, CallOptions::default())
    }

    /// The underlying typed client (for async use in load generators).
    pub fn typed(&self) -> &TypedClient<TermQuery, Degraded<PostingList>> {
        &self.inner
    }
}

impl std::fmt::Debug for SetAlgebraClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAlgebraClient").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_data::text::CorpusConfig;

    fn corpus() -> TextCorpus {
        TextCorpus::generate(&CorpusConfig {
            documents: 800,
            vocabulary: 400,
            doc_len: 40,
            ..Default::default()
        })
    }

    #[test]
    fn end_to_end_matches_brute_force() {
        let corpus = corpus();
        let service = SetAlgebraService::launch(&corpus, 4, 0).unwrap();
        let client = service.client().unwrap();
        for query in corpus.sample_queries(30) {
            assert_eq!(
                client.search(&query).unwrap(),
                corpus.matching_documents(&query),
                "query {query:?}"
            );
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let corpus = corpus();
        let one = SetAlgebraService::launch(&corpus, 1, 0).unwrap();
        let four = SetAlgebraService::launch(&corpus, 4, 0).unwrap();
        let c1 = one.client().unwrap();
        let c4 = four.client().unwrap();
        for query in corpus.sample_queries(10) {
            assert_eq!(c1.search(&query).unwrap(), c4.search(&query).unwrap());
        }
    }

    #[test]
    fn rare_conjunction_returns_empty_or_subset() {
        let corpus = corpus();
        let service = SetAlgebraService::launch(&corpus, 2, 0).unwrap();
        let client = service.client().unwrap();
        // Many rare terms conjoined: result must be a subset of each term's
        // individual result.
        let query = vec![390u32, 395, 399];
        let conj = client.search(&query).unwrap();
        for &term in &query {
            let single = client.search(&[term]).unwrap();
            for doc in &conj {
                assert!(single.contains(doc));
            }
        }
    }

    #[test]
    fn stop_lists_enlarge_results_only() {
        let corpus = corpus();
        let plain = SetAlgebraService::launch(&corpus, 2, 0).unwrap();
        let stopped = SetAlgebraService::launch(&corpus, 2, 5).unwrap();
        let plain_client = plain.client().unwrap();
        let stopped_client = stopped.client().unwrap();
        let stop_list = crate::index::InvertedIndex::stop_list_for(corpus.documents(), 5);
        for query in corpus.sample_queries(10) {
            let exact = plain_client.search(&query).unwrap();
            let with_stops = stopped_client.search(&query).unwrap();
            if query.iter().all(|t| stop_list.contains(t)) {
                // Entirely stop words: uninformative query, defined empty.
                assert!(with_stops.is_empty());
                continue;
            }
            // Dropping a conjunct (stopped term) can only add documents.
            for doc in &exact {
                assert!(
                    with_stops.contains(doc),
                    "stopping terms must not lose documents for {query:?}"
                );
            }
        }
    }
}
