//! [`Prepared`]: one corpus prepared once, and the memo of the
//! order-dependent artifacts operations derive from it — the global
//! [`PebbleOrder`], signature key sets ([`SelectedSignatures`]) and CSR
//! indexes, built lazily by the memoized builders here. An order may be
//! inherited ([`Engine::merge_prepared`]) rather than a function of the
//! corpus, so an order leaves the memo only together with everything
//! filed under it ([`Prepared::clear_memo`], which takes the artifact
//! exclusively; the memo never evicts).

use crate::config::SimConfig;
use crate::engine::{relock, Engine};
use crate::error::AuError;
use crate::index::CsrIndex;
use crate::join::SelectedSignatures;
use crate::pebble::{DocFreqs, PebbleOrder};
use crate::segment::SegRecord;
use crate::signature::FilterKind;
use crate::spec::JoinSpec;
use crate::usim::{GramPostingsIndex, RunSide};
use au_text::record::Corpus;
use au_text::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Mint for [`Prepared`] identities (memo keys for pair orders).
static NEXT_PREPARED_ID: AtomicU64 = AtomicU64::new(1);

/// Key identifying which global pebble order an artifact was built under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OrderKey {
    /// Order built from this corpus alone (self-joins, search indexes).
    SelfOrder,
    /// Order built over this corpus and the partner [`Prepared`] with the
    /// given id (R×S joins). `Pair(own id)` means R×S of a corpus with
    /// itself — frequencies count both sides.
    Pair(u64),
}

/// Memo key for signature prefixes and CSR indexes: everything selection
/// depends on besides the corpus itself. (`eps` comes from the engine's
/// [`SimConfig`], fixed for the engine's lifetime; parallelism affects
/// only speed, never the selected prefixes.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SigKey {
    order: OrderKey,
    theta_bits: u64,
    filter: FilterKind,
}

impl SigKey {
    pub(crate) fn new(order: OrderKey, spec: &JoinSpec) -> Self {
        Self {
            order,
            theta_bits: spec.theta.to_bits(),
            filter: spec.filter,
        }
    }

    /// A spec selecting what this key memoizes.
    fn spec(&self) -> JoinSpec {
        JoinSpec::threshold(f64::from_bits(self.theta_bits)).filter(self.filter)
    }
}

/// A resident order. It may be an inherited one ([`PebbleOrder::inherit`]),
/// not a function of the corpus — so what was selected under it leaves
/// the memo with it ([`Prepared::clear_memo`]).
#[derive(Debug)]
struct Ranked {
    order: Arc<PebbleOrder>,
    /// Records run through stage 3 under this order for this memo.
    signed: u64,
}

/// Lazily built, memoized artifacts of one prepared corpus.
#[derive(Debug, Default)]
struct Memo {
    orders: FxHashMap<OrderKey, Ranked>,
    sigs: FxHashMap<SigKey, Arc<SelectedSignatures>>,
    csr: FxHashMap<SigKey, Arc<CsrIndex>>,
    /// [`Prepared::transposed`]: one per corpus (no order, no θ).
    transposed: Option<Arc<GramPostingsIndex>>,
    hits: u64,
    misses: u64,
}

impl Memo {
    fn resident(&self) -> usize {
        self.orders.len() + self.sigs.len() + self.csr.len()
    }

    /// The resident order of `key`; `order`, filed, when there is none.
    fn order_or_insert(&mut self, key: OrderKey, order: Arc<PebbleOrder>) -> Arc<PebbleOrder> {
        let entry = self.orders.entry(key);
        entry.or_insert(Ranked { order, signed: 0 }).order.clone()
    }
}

/// One corpus, prepared once: segmentation, per-record posting tables
/// (inside each [`SegRecord`]), cached tier-0 integers, the corpus's pebble
/// document frequencies, and a memo of the artifacts operations derive
/// from them (per order and θ: order, signatures, CSR index; per corpus:
/// the verifier's transposed posting index). Nothing
/// here is proportional to the pebble count — pebbles are regenerated per
/// record inside signature selection and dropped. Create with
/// [`Engine::prepare`]; every engine operation consumes `&Prepared`.
///
/// ```
/// use au_core::engine::Engine;
/// use au_core::{KnowledgeBuilder, SimConfig};
///
/// let mut kn = KnowledgeBuilder::new().build();
/// let c = kn.corpus_from_lines(["coffee shop", "tea house"]);
/// let engine = Engine::new(kn, SimConfig::default()).unwrap();
/// let prepared = engine.prepare(&c).unwrap();
/// assert_eq!(prepared.len(), 2);
/// assert!(prepared.memory_bytes() > 0);
/// ```
#[derive(Debug)]
pub struct Prepared {
    pub(crate) id: u64,
    pub(crate) gen: u64,
    /// Configuration the artifact was segmented under (checked by every
    /// engine operation — see [`AuError::ConfigMismatch`]).
    pub(crate) cfg: SimConfig,
    pub(crate) corpus: Corpus,
    /// Segmented records (posting tables included), by record id; shared
    /// with every artifact [`Engine::merge_prepared`] derives from this
    /// one (a row is immutable once segmented).
    pub(crate) segrecs: Vec<Arc<SegRecord>>,
    /// Pebble key → number of this corpus's records carrying it, counted
    /// once here; every global order over this corpus (alone or with a
    /// join partner) is built by adding such tables.
    pub(crate) df: DocFreqs,
    /// `(|S|, MP(S))` per record — the two integers of the verifier's
    /// tier-0 record-level bound `USIM ≤ min(|S|,|T|) / max(MP(S),MP(T))`,
    /// packed for O(1) [`Engine::usim_upper_bound`] pre-screens.
    pub(crate) tier0: Vec<(u32, u32)>,
    prepare_seconds: f64,
    memo: Mutex<Memo>,
}

impl Prepared {
    /// A fresh artifact over `segrecs` (row `i` segments `corpus` record
    /// `i`; `df` counts exactly these rows), stamped with `gen` and `cfg`,
    /// its memo empty.
    pub(crate) fn new(
        gen: u64,
        cfg: SimConfig,
        corpus: Corpus,
        mut segrecs: Vec<Arc<SegRecord>>,
        df: DocFreqs,
        start: Instant,
    ) -> Self {
        // A collect that reused the rows' own buffer in place, or a merge's
        // pushes, leave slack behind the pointers.
        segrecs.shrink_to_fit();
        let tier0 = segrecs.iter().map(|sr| sr.tier0()).collect();
        Self {
            // ordering: Relaxed — the id only needs uniqueness, which the
            // RMW atomicity of fetch_add alone guarantees; no other memory
            // is published through this counter (the Prepared itself is
            // handed to other threads via &-reference or Arc, whose
            // construction/send provides the happens-before edge).
            id: NEXT_PREPARED_ID.fetch_add(1, Ordering::Relaxed),
            gen,
            cfg,
            corpus,
            segrecs,
            df,
            tier0,
            prepare_seconds: start.elapsed().as_secs_f64(),
            memo: Mutex::new(Memo::default()),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.segrecs.len()
    }

    /// True when the corpus has no records.
    pub fn is_empty(&self) -> bool {
        self.segrecs.is_empty()
    }

    /// The corpus this artifact was prepared from.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Knowledge generation this artifact was prepared under.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Wall-clock spent segmenting at [`Engine::prepare`] time (merging,
    /// for [`Engine::merge_prepared`]). Operations on this artifact never
    /// pay it again — [`JoinStats`](crate::join::JoinStats) times stages 2–5 only.
    pub fn prepare_seconds(&self) -> f64 {
        self.prepare_seconds
    }

    /// Deep heap footprint of this artifact in bytes: corpus, segmented
    /// records (posting tables included), tier-0 integers, the document
    /// frequency table, plus every *currently memoized* order / signature
    /// / CSR artifact and the transposed posting index once an operation
    /// has built it — the number the sharded joins' peak-memory claim and
    /// the perf harness's memory column are measured in. Every row is
    /// exact-size, so the rows' share is what they hold on the heap;
    /// tables count their entries, not their slack (a fresh prepare's
    /// heap growth is within 1.0–1.15× of this figure,
    /// `tests/join_memory.rs`). Deterministic for a given corpus and
    /// operation history. A row counts in full (pointer and counts
    /// included) in every artifact holding it: generations sharing rows
    /// sum to more than the process holds.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<Self>();
        total += self.corpus.memory_bytes();
        let arc_bytes = size_of::<Arc<SegRecord>>() + 2 * size_of::<usize>();
        for sr in &self.segrecs {
            total += arc_bytes + sr.memory_bytes();
        }
        total += self.tier0.len() * size_of::<(u32, u32)>();
        total += self.df.memory_bytes();
        let m = self.memo();
        // det: the three memo walks below fold into a commutative +=
        // sum, so map iteration order cannot reach the returned total.
        for ranked in m.orders.values() {
            total += ranked.order.memory_bytes();
        }
        // det: order-insensitive sum (see above).
        for sel in m.sigs.values() {
            total += sel.memory_bytes();
        }
        // det: order-insensitive sum (see above).
        for csr in m.csr.values() {
            total += csr.memory_bytes();
        }
        total + m.transposed.as_ref().map_or(0, |idx| idx.memory_bytes())
    }

    /// Every segmented record, indexed by record id — the slices the
    /// stage functions of [`crate::join`] take.
    pub fn seg_records(&self) -> &[Arc<SegRecord>] {
        &self.segrecs
    }

    /// The segmented record `id`.
    pub fn seg_record(&self, id: u32) -> Result<&SegRecord, AuError> {
        self.segrecs
            .get(id as usize)
            .map(|sr| &**sr)
            .ok_or(AuError::RecordOutOfBounds {
                id,
                len: self.len(),
            })
    }

    /// Memoized-artifact lookups served from cache so far (orders,
    /// signatures, CSR indexes).
    pub fn memo_hits(&self) -> u64 {
        relock(&self.memo).hits
    }

    /// Memoized-artifact builds (cache misses) so far — orders,
    /// signatures, CSR indexes, the one transposed posting index.
    pub fn memo_misses(&self) -> u64 {
        relock(&self.memo).misses
    }

    /// Number of memoized artifacts currently retained.
    ///
    /// The memo grows by two entries — signatures and CSR index — per
    /// distinct `(order, θ, filter)` combination, plus one per
    /// distinct order (the per-corpus transposed posting index is not
    /// counted here). It never evicts: a caller streaming *user-chosen*
    /// thresholds or join partners through a long-lived `Prepared` should
    /// bucket them to a fixed grid — as au-serve's fixed top-k schedule
    /// does ([`crate::topk::descent`]) — or call [`Prepared::clear_memo`]
    /// periodically.
    pub fn memo_len(&self) -> usize {
        relock(&self.memo).resident()
    }

    /// Records run through stage 3 under the orders this memo holds:
    /// every row per selection made here, only the appended rows per
    /// selection [`Engine::merge_prepared`] inherited.
    pub fn records_signed(&self) -> u64 {
        // det: order-insensitive sum.
        self.memo().orders.values().map(|r| r.signed).sum()
    }

    /// Drop every memoized artifact, the transposed posting index
    /// included (the segmentation itself is kept — subsequent operations
    /// rebuild orders/signatures/indexes lazily, never stage 1). Bounds
    /// memory for services that stream distinct thresholds or join
    /// partners through one long-lived `Prepared`. An inherited order
    /// ([`Engine::merge_prepared`]) goes too: the next operation ranks
    /// this corpus's own frequencies, as a fresh prepare would. The clear
    /// is exclusive, so no operation holds an order across it.
    pub fn clear_memo(&mut self) {
        let m = self
            .memo
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        m.orders.clear();
        m.sigs.clear();
        m.csr.clear();
        m.transposed = None;
    }

    /// The corpus-level transposed posting index (which records carry a
    /// surface key, gram or rule), built on first use — under the memo
    /// lock, so exactly once — and shared from then on by every join
    /// against, and every searcher over, this corpus at any θ. A build for
    /// a serial spec (`parallel == false`) runs on the caller's thread.
    pub(crate) fn transposed(&self, parallel: bool) -> Arc<GramPostingsIndex> {
        let mut m = self.memo();
        if let Some(idx) = &m.transposed {
            return idx.clone();
        }
        m.misses += 1;
        let idx = Arc::new(GramPostingsIndex::build_for(&self.segrecs, parallel));
        m.transposed = Some(idx.clone());
        idx
    }

    /// This corpus as the verified side of probe runs walking `index`
    /// (its transposed posting index).
    pub(crate) fn run_side<'a>(&'a self, index: &'a GramPostingsIndex) -> RunSide<'a> {
        RunSide {
            recs: &self.segrecs,
            tier0: &self.tier0,
            index,
        }
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        relock(&self.memo)
    }

    /// Bytes of the pair order `self` and `other` both file — one `Arc`
    /// when [`Engine::order_pair`] ranked it for both (as in every sharded
    /// task, whose shards start with empty memos), so the sum of the two
    /// artifacts' [`Prepared::memory_bytes`] counts it twice.
    pub(crate) fn shared_order_bytes(&self, other: &Prepared) -> usize {
        if self.id == other.id {
            return 0;
        }
        let (mine, theirs) = (self.memo(), other.memo());
        match (
            mine.orders.get(&OrderKey::Pair(other.id)),
            theirs.orders.get(&OrderKey::Pair(self.id)),
        ) {
            (Some(a), Some(b)) if Arc::ptr_eq(&a.order, &b.order) => a.order.memory_bytes(),
            _ => 0,
        }
    }
}

// -- memoized artifact builders ---------------------------------------------

impl Engine {
    /// The global order over this corpus alone (self-joins, search): the
    /// one its memo holds — inherited from the corpus it was merged from
    /// ([`Engine::merge_prepared`]) or ranked earlier — else a fresh
    /// ranking of its own document frequencies.
    pub(crate) fn order_self(&self, c: &Prepared) -> Arc<PebbleOrder> {
        let key = OrderKey::SelfOrder;
        {
            let mut m = c.memo();
            if let Some(o) = m.orders.get(&key).map(|r| r.order.clone()) {
                m.hits += 1;
                return o;
            }
        }
        let order = Arc::new(PebbleOrder::from_doc_freqs(&[&c.df], c.len()));
        let mut m = c.memo();
        m.misses += 1;
        m.order_or_insert(key, order)
    }

    /// The global order over both sides of an R×S join (document
    /// frequencies counted across the pair). Stored symmetrically in both
    /// artifacts' memos.
    pub(crate) fn order_pair(&self, s: &Prepared, t: &Prepared) -> Arc<PebbleOrder> {
        let (key_s, key_t) = (OrderKey::Pair(t.id), OrderKey::Pair(s.id));
        let found = {
            let mut m = s.memo();
            let found = m.orders.get(&key_s).map(|r| r.order.clone());
            m.hits += u64::from(found.is_some());
            found
        };
        let order = found.unwrap_or_else(|| {
            let rows = s.len() + t.len();
            let order = Arc::new(PebbleOrder::from_doc_freqs(&[&s.df, &t.df], rows));
            let mut m = s.memo();
            m.misses += 1;
            m.order_or_insert(key_s, order)
        });
        if s.id != t.id {
            // A pair order is a pure function of the two frequency tables:
            // a copy `t` kept from an earlier join equals this one, so
            // what `t` selected under it stays valid under this one.
            t.memo().order_or_insert(key_t, order.clone());
        }
        order
    }

    /// What `map` files under `k`, else a `build` filed there, adding
    /// `signs` records to the stage-3 count of `k`'s order — resident,
    /// since the caller fetched it and only an exclusive clear drops it.
    fn memoized<T>(
        c: &Prepared,
        k: SigKey,
        signs: u64,
        map: fn(&mut Memo) -> &mut FxHashMap<SigKey, Arc<T>>,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        {
            let mut m = c.memo();
            if let Some(hit) = map(&mut m).get(&k).cloned() {
                m.hits += 1;
                return hit;
            }
        }
        let built = Arc::new(build());
        let mut m = c.memo();
        m.misses += 1;
        if let Some(ranked) = m.orders.get_mut(&k.order) {
            ranked.signed += signs;
        }
        map(&mut m).entry(k).or_insert(built).clone()
    }

    /// Signature key sets + guarantee levels for `(order, θ, filter, MP)`.
    pub(crate) fn signatures(
        &self,
        c: &Prepared,
        key: OrderKey,
        order: &Arc<PebbleOrder>,
        spec: &JoinSpec,
    ) -> Arc<SelectedSignatures> {
        let k = SigKey::new(key, spec);
        let select = || SelectedSignatures::select(&self.kn, &self.cfg, &c.segrecs, order, spec);
        Self::memoized(c, k, c.len() as u64, |m| &mut m.sigs, select)
    }

    /// CSR inverted index over `sel`, the signatures of memo key `k`.
    pub(crate) fn csr(&self, c: &Prepared, k: SigKey, sel: &SelectedSignatures) -> Arc<CsrIndex> {
        let build = || CsrIndex::from_record_keys(&sel.record_keys);
        Self::memoized(c, k, 0, |m| &mut m.csr, build)
    }

    /// Seed the memo of `merged` — `base` minus `dropped` plus the rows
    /// past the carried ones — with `base`'s self order and what `base`
    /// holds selected under it.
    pub(crate) fn inherit_memo(&self, base: &Prepared, dropped: &[u32], merged: &Prepared) {
        let key = OrderKey::SelfOrder;
        let appended = &merged.segrecs[base.len() - dropped.len()..];
        let (order, sets) = {
            let from = base.memo();
            let Some(ranked) = from.orders.get(&key) else {
                return;
            };
            // det: map order reaches no output — each set is carried on
            // its own, filed under its own key, and `signed` is a sum.
            let sets = (from.sigs.iter()).filter(|(k, _)| k.order == key);
            let sets = sets.map(|(k, sel)| (*k, sel.clone()));
            (ranked.order.clone(), sets.collect::<Vec<_>>())
        };
        let churned = dropped.len() + appended.len();
        let Some((order, renumbered)) = order.inherit(&merged.df, churned) else {
            return;
        };
        let order = Arc::new(order);
        // `merged` is new: nothing contends.
        let mut m = merged.memo();
        let signed = (appended.len() * sets.len()) as u64;
        for (k, sel) in sets {
            let tail = SelectedSignatures::select(&self.kn, &self.cfg, appended, &order, &k.spec());
            m.sigs
                .insert(k, Arc::new(sel.carry(dropped, &tail, &renumbered)));
        }
        m.orders.insert(key, Ranked { order, signed });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::tests::{merge_lines, pair_bits, setup};
    use crate::oracle::brute_force_join;
    use crate::segment::segment_record;

    /// The memo invariant, checked from outside: every resident signature
    /// set is the selection over *all* rows under the very order it is
    /// filed under, and every resident index transposes that selection.
    pub(crate) fn assert_memo_coherent(engine: &Engine, p: &Prepared) {
        let (orders, sigs, csrs) = {
            let m = p.memo();
            let orders: Vec<_> = (m.orders.iter())
                .map(|(k, r)| (*k, r.order.clone()))
                .collect();
            let sigs: Vec<_> = m.sigs.iter().map(|(k, v)| (*k, v.clone())).collect();
            let csrs: Vec<_> = m.csr.iter().map(|(k, v)| (*k, v.clone())).collect();
            (orders, sigs, csrs)
        };
        let select = |k: &SigKey| {
            let filed = orders.iter().find(|(key, _)| *key == k.order);
            let (_, order) = filed.unwrap_or_else(|| panic!("{k:?} outlived its order"));
            SelectedSignatures::select(&engine.kn, &engine.cfg, &p.segrecs, order, &k.spec())
        };
        for (k, sel) in &sigs {
            assert_eq!(**sel, select(k), "signatures of {k:?} under their order");
        }
        for (k, index) in &csrs {
            let want = CsrIndex::from_record_keys(&select(k).record_keys);
            assert_eq!(index.sorted_lists(), want.sorted_lists(), "index of {k:?}");
        }
    }

    /// The hazard an inherited order creates: were the order dropped alone
    /// and re-ranked, signatures selected under the old one would meet
    /// queries sorted under the new one and lose true pairs. Run merges
    /// and clear the memo every other round, so the next searcher re-ranks;
    /// after every step the memo is coherent and joins and queries return
    /// exactly the brute-force pairs.
    #[test]
    fn a_cleared_memo_never_pairs_a_stale_signature_with_a_reranked_order() {
        let (mut kn, _, _) = setup();
        let cfg = SimConfig::default();
        let base = kn.corpus_from_lines(merge_lines(30, 10, 1).iter().map(String::as_str));
        let partner = kn.corpus_from_lines(merge_lines(6, 10, 4).iter().map(String::as_str));
        let tail_lines = merge_lines(18, 12, 7);
        let tail = kn.corpus_from_lines(tail_lines.iter().map(String::as_str));
        let engine = Engine::new(kn, cfg).unwrap();
        let rows: Vec<Arc<SegRecord>> = tail
            .iter()
            .map(|r| Arc::new(segment_record(&engine.kn, &cfg, &r.tokens)))
            .collect();
        let theta = 0.7;
        let spec = JoinSpec::threshold(theta).au_dp(2);
        let partner = engine.prepare(&partner).unwrap();
        let mut current = engine.prepare(&base).unwrap();
        engine.searcher(&current, &spec).unwrap();
        for round in 0..6u32 {
            let new = (3 * round as usize..).take(3);
            let new = new.map(|i| (&rows[i], tail_lines[i].as_str()));
            let mut merged = engine
                .merge_prepared(&current, &[round, round + 5], new)
                .unwrap();
            assert!(merged.memo_len() > 0, "round {round}: inherited");
            assert_memo_coherent(&engine, &merged);
            let clear = round % 2 == 1;
            if clear {
                merged.clear_memo();
                assert!(!merged.memo().orders.contains_key(&OrderKey::SelfOrder));
                assert_memo_coherent(&engine, &merged);
            }
            engine.join(&merged, &partner, &spec).unwrap();
            assert_memo_coherent(&engine, &merged);
            let searcher = engine.searcher(&merged, &spec).unwrap();
            assert_eq!(searcher.order().age().1 == 0, clear, "round {round}");
            assert_memo_coherent(&engine, &merged);

            let c = merged.corpus();
            let all = brute_force_join(&engine.kn, &cfg, c, c, theta);
            let upper: Vec<_> = all.iter().copied().filter(|&(a, b, _)| a < b).collect();
            let got = engine.join_self(&merged, &spec).unwrap();
            assert_eq!(pair_bits(&got.pairs), pair_bits(&upper), "round {round}");
            for rec in c.iter() {
                let mut got: Vec<u32> = searcher
                    .query(&rec.raw)
                    .matches
                    .iter()
                    .map(|m| m.0)
                    .collect();
                got.sort_unstable();
                let want = all.iter().filter(|p| p.0 == rec.id.0).map(|p| p.1);
                assert_eq!(
                    got,
                    want.collect::<Vec<_>>(),
                    "round {round}: {:?}",
                    rec.raw
                );
            }
            current = merged;
        }
    }
}
