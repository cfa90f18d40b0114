//! Every call the benchmark makes into the similarity entry points that
//! are slated to merge into one engine: the mapped/decoded
//! [`SmcSource`] tier, the all-pairs [`top_k_source_with`] and the
//! query-set [`top_k_oooc_queries`]. An API merge changes only this
//! file.

use smda_engines::{top_k_source_with, SmcSource, DEFAULT_CACHE_BYTES};
use smda_obs::MetricsSink;
use smda_stats::{top_k_oooc_queries, OoocStats, SimilarityMatch, DEFAULT_BAND_ROWS};
use smda_storage::BinaryStore;
use smda_types::Result;

/// Top-k lists, one per row (all-pairs) or per query (scan).
pub type Matches = Vec<Vec<SimilarityMatch>>;

/// The engine's tier over `store` at its default band size and decode
/// cache budget: zero-copy bands for raw files, the bounded decode
/// cache for packed ones.
fn source(store: &BinaryStore) -> SmcSource<'_> {
    SmcSource::over(store, DEFAULT_BAND_ROWS, DEFAULT_CACHE_BYTES)
}

/// All-pairs top-`k` streamed band by band off `store`.
pub fn all_pairs(
    store: &BinaryStore,
    k: usize,
    threads: usize,
    metrics: &MetricsSink,
) -> Result<(Matches, OoocStats)> {
    top_k_source_with(&source(store), None, k, DEFAULT_BAND_ROWS, threads, metrics)
}

/// Top-`k` for each of `queries` against every row, streaming the file
/// once.
pub fn scan(store: &BinaryStore, queries: &[usize], k: usize) -> Result<(Matches, OoocStats)> {
    top_k_oooc_queries(&source(store), queries, k, DEFAULT_BAND_ROWS)
}
