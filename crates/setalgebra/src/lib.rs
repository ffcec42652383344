//! `Set Algebra` — posting-list set intersection for document retrieval.
//!
//! The third μSuite benchmark (paper §III-C): a document-search back end
//! whose leaves intersect the posting lists of the query's terms over
//! their shard of the corpus, and whose mid-tier unions the per-shard
//! intersections into the final matching-document list. Unlike monolithic
//! web search (Lucene, CloudSuite Web Search) it performs *only* set
//! algebra, keeping service times in the single-digit-millisecond regime
//! the suite targets.
//!
//! From-scratch substrates:
//!
//! * [`index`] — the inverted index with a collection-frequency stop list,
//!   every posting list of a shard one sorted run of a single array,
//! * [`intersect`] — linear-merge and skip-based intersection algorithms,
//!   whose exponential-search [`seek`](intersect::seek) stands in for the
//!   skip list the paper stores posting lists in (it cites Pugh),
//! * [`union_merge`] — the mid-tier's k-way sorted union,
//! * [`compress`] — delta-varint posting-list compression (the paper's
//!   compression-scheme pointer),
//! * a synthetic Zipf corpus from `musuite-data` replacing the 4.3 M
//!   WikiText documents (see DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use musuite_data::text::{CorpusConfig, TextCorpus};
//! use musuite_setalgebra::service::SetAlgebraService;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = TextCorpus::generate(&CorpusConfig {
//!     documents: 2000,
//!     vocabulary: 500,
//!     doc_len: 30,
//!     ..Default::default()
//! });
//! let query = corpus.sample_queries(1).remove(0);
//! let service = SetAlgebraService::launch(&corpus, 4, 0)?;
//! let client = service.client()?;
//! let docs = client.search(&query)?;
//! assert_eq!(docs, corpus.matching_documents(&query));
//! # Ok(())
//! # }
//! ```

pub mod compress;
pub mod index;
pub mod intersect;
pub mod leaf;
pub mod midtier;
pub mod protocol;
pub mod service;
pub mod union_merge;

pub use compress::CompressedPostings;
pub use index::InvertedIndex;
pub use leaf::SetAlgebraLeaf;
pub use midtier::SetAlgebraMidTier;
pub use service::{SetAlgebraClient, SetAlgebraService};
