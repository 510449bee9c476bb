//! Pebbles: the unified signature unit (Section 3.1, Table 2).
//!
//! A pebble is an abstract signature item adapted to each measure:
//!
//! | measure  | pebble key              | weight                           |
//! |----------|-------------------------|----------------------------------|
//! | gram (J) | a q-gram of the segment | `GramMeasure::pebble_weight(|G|)`|
//! | Synonym  | the **lhs** of the rule | `C(R)`                           |
//! | Taxonomy | the node + each ancestor| `1 / depth(n)`                   |
//!
//! With the default Jaccard gram measure the gram weight is the paper's
//! `1 / |G(P, q)|`; the other gram measures substitute their own sound
//! one-sided bound (see [`crate::config::GramMeasure`]).
//!
//! Both sides of a synonym rule emit the rule's *lhs* as their key, so
//! related segments share a pebble; two entities share exactly the
//! ancestors of their LCA, `depth(LCA)` of them, so the shared taxonomy
//! pebble mass from S's perspective is `depth(LCA)/depth(n_S) ≥ sim_t`.
//! These invariants make pebble-overlap mass an upper bound witness of
//! segment similarity — the foundation of Lemmas 1 and 2.
//!
//! Pebbles are sorted by a **global order**: ascending document frequency
//! (rare pebbles first), ties broken by key then segment then measure, so
//! runs are deterministic. [`PebbleOrder`] holds that order as one dense
//! integer **rank** per key, built from per-corpus document-frequency
//! tables (`DocFreqs`) that are counted once per prepared corpus.
//!
//! A record's pebble list is a *transient*: it is generated into a scratch
//! buffer, rank-sorted, a signature prefix is selected from it, the ranks
//! of the prefix's distinct keys are kept, and the list is dropped (see
//! [`crate::join::record_signature`]). Nothing proportional to the pebble
//! count stays resident, and from the order on a signature key is its
//! `u32` rank: no `PebbleKey` reaches the index or the probe.

use crate::config::{MeasureSet, SimConfig};
use crate::knowledge::Knowledge;
use crate::msim::MeasureKind;
use crate::segment::SegRecord;
use au_synonym::RuleId;
use au_taxonomy::NodeId;
use au_text::{FxHashMap, PhraseId};

/// Key identifying a pebble across records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PebbleKey {
    /// Hashed q-gram.
    Gram(u64),
    /// Lhs phrase of a synonym rule.
    Rule(PhraseId),
    /// Taxonomy node (an ancestor of the segment's entity).
    Node(NodeId),
}

/// One pebble instance of one record.
#[derive(Debug, Clone, Copy)]
pub struct Pebble {
    /// Cross-record identity.
    pub key: PebbleKey,
    /// Contribution weight (see module table).
    pub weight: f64,
    /// Index of the generating segment in the record's [`SegRecord`].
    pub seg: u32,
    /// Measure that generated this pebble.
    pub measure: MeasureKind,
}

/// Generate all pebbles of a segmented record (unsorted).
pub fn generate_pebbles(kn: &Knowledge, cfg: &SimConfig, sr: &SegRecord) -> Vec<Pebble> {
    let mut out = Vec::new();
    generate_pebbles_into(kn, cfg, sr, &mut out);
    out
}

/// [`generate_pebbles`] into a caller-owned buffer (cleared first), so a
/// worker streaming records through signature selection reuses one
/// allocation.
pub fn generate_pebbles_into(
    kn: &Knowledge,
    cfg: &SimConfig,
    sr: &SegRecord,
    out: &mut Vec<Pebble>,
) {
    out.clear();
    for (si, seg) in sr.segments().enumerate() {
        let si = si as u32;
        if cfg.measures.contains(MeasureSet::J) && !seg.grams.is_empty() {
            let w = cfg.gram.pebble_weight(seg.grams.len());
            for &g in seg.grams {
                out.push(Pebble {
                    key: PebbleKey::Gram(g),
                    weight: w,
                    seg: si,
                    measure: MeasureKind::Jaccard,
                });
            }
        }
        if cfg.measures.contains(MeasureSet::S) {
            for &rid in seg.rules {
                let rule = kn.synonyms.get(rid);
                out.push(Pebble {
                    key: PebbleKey::Rule(rule.lhs),
                    weight: rule.closeness,
                    seg: si,
                    measure: MeasureKind::Synonym,
                });
            }
        }
        if cfg.measures.contains(MeasureSet::T) {
            if let Some(n) = seg.node {
                let w = 1.0 / kn.taxonomy.depth(n) as f64;
                for anc in kn.taxonomy.ancestors(n) {
                    out.push(Pebble {
                        key: PebbleKey::Node(anc),
                        weight: w,
                        seg: si,
                        measure: MeasureKind::Taxonomy,
                    });
                }
            }
        }
    }
}

/// Document frequencies of one record set: pebble key → number of records
/// whose pebble set contains it. Additive over disjoint record sets (and
/// subtractive over subsets), so the order of an R×S join — or of a corpus
/// that lost and gained rows — is built without a pass over its records.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct DocFreqs {
    counts: FxHashMap<PebbleKey, u32>,
}

impl DocFreqs {
    /// Count one record straight off its posting tables — the key set
    /// [`generate_pebbles`] emits for a record segmented under the same
    /// configuration — so no pebble is materialized. `keys` is scratch.
    pub(crate) fn count_record(
        &mut self,
        kn: &Knowledge,
        sr: &SegRecord,
        keys: &mut Vec<PebbleKey>,
    ) {
        Self::record_keys(kn, sr, keys);
        self.count_distinct(keys);
    }

    /// The inverse of [`DocFreqs::count_record`]. A key that reaches 0
    /// leaves the table, so the key set — and every [`PebbleOrder`] rank —
    /// is that of a table that never saw the record. `false` (table
    /// half-updated) when a key is missing: `sr` was not counted here.
    #[must_use]
    pub(crate) fn uncount_record(
        &mut self,
        kn: &Knowledge,
        sr: &SegRecord,
        keys: &mut Vec<PebbleKey>,
    ) -> bool {
        Self::record_keys(kn, sr, keys);
        for k in keys.iter() {
            let Some(f) = self.counts.get_mut(k) else {
                return false;
            };
            *f -= 1;
            if *f == 0 {
                self.counts.remove(k);
            }
        }
        true
    }

    /// The distinct pebble keys of `sr`, into `keys`.
    fn record_keys(kn: &Knowledge, sr: &SegRecord, keys: &mut Vec<PebbleKey>) {
        keys.clear();
        // Gram postings are sorted by (hash, segment): equal hashes are
        // adjacent.
        keys.extend(sr.gram_postings().keys().map(PebbleKey::Gram));
        keys.dedup();
        let grams = keys.len();
        // Distinct rules can share a lhs and distinct entities an ancestor.
        keys.extend(sr.rule_postings().keys().map(|r| {
            let r = RuleId(u32::try_from(r).expect("rule keys are widened rule ids"));
            PebbleKey::Rule(kn.synonyms.get(r).lhs)
        }));
        for &si in sr.node_segs() {
            let node = sr.node_of(si as usize);
            let node = node.expect("node_segs lists only segments mapped to a node");
            keys.extend(kn.taxonomy.ancestors(node).map(PebbleKey::Node));
        }
        keys[grams..].sort_unstable();
        keys.dedup();
    }

    /// Count one record from its pebble list. `keys` is scratch.
    pub(crate) fn count_pebbles(&mut self, pebbles: &[Pebble], keys: &mut Vec<PebbleKey>) {
        keys.clear();
        keys.extend(pebbles.iter().map(|p| p.key));
        keys.sort_unstable();
        keys.dedup();
        self.count_distinct(keys);
    }

    fn count_distinct(&mut self, keys: &[PebbleKey]) {
        for &k in keys {
            *self.counts.entry(k).or_insert(0) += 1;
        }
    }

    /// Add the frequencies of another (disjoint) record set.
    pub(crate) fn add(&mut self, other: &DocFreqs) {
        // det: map order cannot reach output — the walk folds into a
        // commutative += per key.
        for (&k, &f) in other.counts.iter() {
            *self.counts.entry(k).or_insert(0) += f;
        }
    }

    /// Heap footprint in bytes (its entries, not the hash table's slack).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<(PebbleKey, u32)>()
    }

    /// Frequency of `key` (0 when unseen).
    #[cfg(test)]
    pub(crate) fn get(&self, key: PebbleKey) -> u32 {
        self.counts.get(&key).copied().unwrap_or(0)
    }
}

/// Global order over pebble keys.
///
/// Every key the order was built over has a dense **rank**. Ranked from
/// document frequencies, a key sits at its position under ascending
/// `(document frequency, key)`, where a document frequency is the number
/// of records (across both join sides) whose pebble set contains the key.
/// A key the order has never seen (query side) has frequency 0: it sorts
/// before every ranked key, by key.
///
/// Rare-first is a selectivity heuristic; the signature bounds hold under
/// *any* total order both sides share. So an order may outlive the
/// frequencies it was ranked from — [`crate::engine::Engine::merge_prepared`]
/// hands it down to the merged corpus — and carries its age
/// ([`PebbleOrder::age`]); see DESIGN.md, "Signatures outlive a compaction".
#[derive(Debug, Default, Clone)]
pub struct PebbleOrder {
    rank: FxHashMap<PebbleKey, u32>,
    /// See [`PebbleOrder::age`].
    age: (usize, usize),
}

/// The rank [`PebbleOrder::sort`] hands back for a key the order never
/// saw (a query's out-of-vocabulary grams, say). It names no posting list,
/// so a probe reads nothing for it, yet it is still one of the probe's
/// keys: the τ-skip counts it. No ranked key has it.
pub const UNSEEN_RANK: u32 = u32::MAX;

/// Buffers of [`PebbleOrder::sort`], reused across records.
#[derive(Debug, Default)]
pub struct SortScratch {
    unseen: Vec<PebbleKey>,
    keyed: Vec<u64>,
    sorted: Vec<Pebble>,
    ranks: Vec<u32>,
}

impl PebbleOrder {
    /// Count key frequencies over an iterator of per-record pebble lists.
    pub fn build<'a>(records: impl Iterator<Item = &'a [Pebble]>) -> Self {
        let mut freq = DocFreqs::default();
        let (mut keys, mut rows) = (Vec::new(), 0);
        for pebbles in records {
            freq.count_pebbles(pebbles, &mut keys);
            rows += 1;
        }
        Self::from_doc_freqs(&[&freq], rows)
    }

    /// The order over the union of the record sets `tables` were counted
    /// from — `rows` records in all (frequencies add; a table listed twice
    /// counts twice).
    pub(crate) fn from_doc_freqs(tables: &[&DocFreqs], rows: usize) -> Self {
        let mut total = DocFreqs::default();
        for table in tables {
            total.add(table);
        }
        // det: map order cannot reach output — the entries are sorted by
        // `(frequency, key)` immediately below, a total order over distinct
        // keys, so the ranking is a pure function of the table's contents.
        let counts = total.counts.into_iter();
        let mut keys: Vec<(u32, PebbleKey)> = counts.map(|(k, f)| (f, k)).collect();
        keys.sort_unstable();
        let age = (rows, 0);
        Self {
            age,
            ..Self::from_ranking(keys.into_iter().map(|(_, k)| k))
        }
    }

    /// The order that ranks `keys` (distinct) by their position in the
    /// sequence — for experiments that replace the frequency order by
    /// another one. The signature bounds hold under *any* total order
    /// shared by both join sides.
    pub fn from_ranking(keys: impl IntoIterator<Item = PebbleKey>) -> Self {
        let rank: FxHashMap<PebbleKey, u32> = keys
            .into_iter()
            .enumerate()
            .map(|(r, k)| {
                let r = u32::try_from(r).ok().filter(|&r| r != UNSEEN_RANK);
                (k, r.expect("more than 2^32 - 1 distinct pebble keys"))
            })
            .collect();
        let age = (0, 0);
        Self { rank, age }
    }

    /// This order handed down to a record set `churned` rows (dropped +
    /// appended) away from the one it ranks, with frequencies `df`: keys
    /// of `df` it ranks keep their relative positions, keys that left `df`
    /// are gone, keys it never saw come first by `(frequency in df, key)`.
    /// A record all of whose keys it ranked sorts identically under both.
    /// Also returns the new rank of every old one ([`UNSEEN_RANK`] for a
    /// key that left), which carries what was selected under this order
    /// over. `None` once the accumulated churn exceeds the rows the ranking
    /// was made from: rank afresh.
    pub(crate) fn inherit(&self, df: &DocFreqs, churned: usize) -> Option<(Self, Vec<u32>)> {
        let age = (self.age.0, self.age.1 + churned);
        if age.1 > age.0 {
            return None;
        }
        // det: map order cannot reach output — sorted below, unseen keys
        // (`None`) first by `(frequency, key)`, ranked ones by rank.
        let keys = df.counts.iter();
        let mut keys: Vec<_> = keys.map(|(&k, &f)| (self.rank.get(&k), f, k)).collect();
        keys.sort_unstable();
        let mut renumbered = vec![UNSEEN_RANK; self.rank.len()];
        for (new, &(old, _, _)) in keys.iter().enumerate() {
            if let Some(&old) = old {
                renumbered[old as usize] = new as u32;
            }
        }
        let order = Self {
            age,
            ..Self::from_ranking(keys.into_iter().map(|(_, _, k)| k))
        };
        Some((order, renumbered))
    }

    /// `(ranked_over, churn)`: rows counted in the frequencies this order
    /// was ranked from, and rows dropped or appended since by the merges
    /// that inherited it (0 = a fresh ranking). It is handed down only
    /// while `churn ≤ ranked_over`.
    pub fn age(&self) -> (usize, usize) {
        self.age
    }

    /// Heap footprint in bytes (length-based: one entry's payload per
    /// distinct key, deterministic across map capacities).
    pub fn memory_bytes(&self) -> usize {
        self.rank.len() * std::mem::size_of::<(PebbleKey, u32)>()
    }

    /// Sort a record's pebbles ascending by `(frequency, key, seg,
    /// measure)` — the paper's "global order" with deterministic ties
    /// (stable: fully tied pebbles keep their input order) — and return
    /// each sorted pebble's rank ([`UNSEEN_RANK`] for a key the order
    /// never saw). Afterwards all instances of one key are adjacent, which
    /// the signature selectors rely on.
    ///
    /// Each pebble's place is packed into one `u64` up front — one rank
    /// lookup per pebble — so the sort compares integers: `(rank',
    /// position)`, where `rank'` is the key's sub-rank among the record's
    /// distinct unseen keys (by key) for an unseen key and `U + rank` for a
    /// ranked one (`U` unseen keys in the record). The position stands for
    /// `(seg, measure, input index)`: the generation order
    /// ([`generate_pebbles`]) is already sorted by `(seg, measure)`, and
    /// other input is stably sorted so first.
    pub fn sort<'s>(&self, pebbles: &mut [Pebble], scratch: &'s mut SortScratch) -> &'s [u32] {
        assert!(
            u32::try_from(pebbles.len()).is_ok(),
            "more than 2^32 pebbles in one record"
        );
        let by_place = |p: &Pebble| (p.seg, p.measure.idx());
        if !pebbles.is_sorted_by_key(by_place) {
            pebbles.sort_by_key(by_place);
        }
        let SortScratch {
            unseen,
            keyed,
            sorted,
            ranks,
        } = scratch;
        unseen.clear();
        keyed.clear();
        keyed.extend(pebbles.iter().zip(0u64..).map(|(p, i)| {
            let r = self.rank.get(&p.key).copied().unwrap_or_else(|| {
                unseen.push(p.key);
                UNSEEN_RANK
            });
            u64::from(r) << 32 | i
        }));
        // Frequency-0 keys sort first, among themselves by key: their
        // sub-rank is their place among the record's distinct unseen keys.
        unseen.sort_unstable();
        unseen.dedup();
        let n_unseen = unseen.len() as u64;
        assert!(
            n_unseen + self.rank.len() as u64 <= u64::from(u32::MAX),
            "a record's unseen keys and the ranked ones overflow a u32 sort rank"
        );
        if n_unseen > 0 {
            for k in keyed.iter_mut() {
                *k = match (*k >> 32) as u32 {
                    UNSEEN_RANK => {
                        let key = pebbles[*k as u32 as usize].key;
                        let sub = unseen.binary_search(&key).expect("collected above");
                        (sub as u64) << 32 | (*k & u64::from(u32::MAX))
                    }
                    _ => *k + (n_unseen << 32),
                };
            }
        }
        keyed.sort_unstable();
        sorted.clear();
        sorted.extend(keyed.iter().map(|&k| pebbles[k as u32 as usize]));
        pebbles.copy_from_slice(sorted);
        let rank = |k: u64| {
            (k >> 32)
                .checked_sub(n_unseen)
                .map_or(UNSEEN_RANK, |r| r as u32)
        };
        ranks.clear();
        ranks.extend(keyed.iter().map(|&k| rank(k)));
        ranks
    }

    /// Number of distinct keys seen.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True when no key has been counted.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeBuilder;
    use crate::segment::segment_record;

    fn setup() -> Knowledge {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        b.build()
    }

    #[test]
    fn table2_pebbles_for_coffee() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let id = kn.add_record("coffee");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let pebbles = generate_pebbles(&kn, &cfg, &sr);
        // Table 2: grams {co, of, ff, fe, ee} weight 1/5 and taxonomy
        // ancestors {wikipedia, food, coffee} weight 1/3.
        let grams: Vec<_> = pebbles
            .iter()
            .filter(|p| matches!(p.key, PebbleKey::Gram(_)))
            .collect();
        assert_eq!(grams.len(), 5);
        assert!(grams.iter().all(|p| (p.weight - 0.2).abs() < 1e-12));
        let nodes: Vec<_> = pebbles
            .iter()
            .filter(|p| matches!(p.key, PebbleKey::Node(_)))
            .collect();
        assert_eq!(nodes.len(), 3);
        assert!(nodes.iter().all(|p| (p.weight - 1.0 / 3.0).abs() < 1e-12));
        assert!(!pebbles.iter().any(|p| matches!(p.key, PebbleKey::Rule(_))));
    }

    #[test]
    fn table2_pebbles_for_cafe() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let id = kn.add_record("cafe");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let pebbles = generate_pebbles(&kn, &cfg, &sr);
        // Table 2: grams {ca, af, fe} weight 1/3 and the synonym pebble
        // "coffee shop" (the rule's lhs) with weight 1.
        let grams: Vec<_> = pebbles
            .iter()
            .filter(|p| matches!(p.key, PebbleKey::Gram(_)))
            .collect();
        assert_eq!(grams.len(), 3);
        assert!(grams.iter().all(|p| (p.weight - 1.0 / 3.0).abs() < 1e-12));
        let rules: Vec<_> = pebbles
            .iter()
            .filter(|p| matches!(p.key, PebbleKey::Rule(_)))
            .collect();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].weight, 1.0);
    }

    #[test]
    fn rule_sides_share_the_lhs_pebble() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let a = kn.add_record("coffee shop");
        let b = kn.add_record("cafe");
        let pa = generate_pebbles(&kn, &cfg, &segment_record(&kn, &cfg, &kn.record(a).tokens));
        let pb = generate_pebbles(&kn, &cfg, &segment_record(&kn, &cfg, &kn.record(b).tokens));
        let rule_key = |ps: &[Pebble]| {
            ps.iter()
                .find(|p| matches!(p.key, PebbleKey::Rule(_)))
                .map(|p| p.key)
        };
        assert_eq!(rule_key(&pa), rule_key(&pb));
        assert!(rule_key(&pa).is_some());
    }

    #[test]
    fn lca_ancestors_shared_mass_bounds_taxonomy_sim() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let a = kn.add_record("latte");
        let b = kn.add_record("espresso");
        let pa = generate_pebbles(&kn, &cfg, &segment_record(&kn, &cfg, &kn.record(a).tokens));
        let pb = generate_pebbles(&kn, &cfg, &segment_record(&kn, &cfg, &kn.record(b).tokens));
        let nodes = |ps: &[Pebble]| -> Vec<PebbleKey> {
            ps.iter()
                .filter(|p| matches!(p.key, PebbleKey::Node(_)))
                .map(|p| p.key)
                .collect()
        };
        let na = nodes(&pa);
        let nb = nodes(&pb);
        let shared: Vec<_> = na.iter().filter(|k| nb.contains(k)).collect();
        // latte and espresso share wikipedia, food, coffee, coffee drinks.
        assert_eq!(shared.len(), 4);
        // shared mass from latte's side = 4 × 1/5 = 0.8 = sim_t ✓
        let mass: f64 = 4.0 / 5.0;
        assert!(
            (mass
                - kn.taxonomy.sim(
                    kn.entities
                        .lookup(kn.phrases.get(&[kn.vocab.get("latte").unwrap()]).unwrap())
                        .unwrap(),
                    kn.entities
                        .lookup(
                            kn.phrases
                                .get(&[kn.vocab.get("espresso").unwrap()])
                                .unwrap()
                        )
                        .unwrap(),
                ))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn gram_weight_follows_configured_measure() {
        use crate::config::GramMeasure;
        let mut kn = setup();
        let id = kn.add_record("coffee"); // 5 distinct 2-grams
        for (g, want) in [
            (GramMeasure::Jaccard, 0.2),
            (GramMeasure::Dice, 2.0 / 6.0),
            (GramMeasure::Cosine, 1.0 / 5f64.sqrt()),
            (GramMeasure::Overlap, 1.0),
        ] {
            let cfg = SimConfig::default().with_gram(g);
            let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
            let pebbles = generate_pebbles(&kn, &cfg, &sr);
            let grams: Vec<_> = pebbles
                .iter()
                .filter(|p| matches!(p.key, PebbleKey::Gram(_)))
                .collect();
            assert_eq!(grams.len(), 5);
            assert!(
                grams.iter().all(|p| (p.weight - want).abs() < 1e-12),
                "{g:?}: weights {:?}",
                grams.iter().map(|p| p.weight).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn measure_gating() {
        let mut kn = setup();
        let id = kn.add_record("coffee shop latte");
        let toks = kn.record(id).tokens.clone();
        let cfg_j = SimConfig::default().with_measures(MeasureSet::J);
        let p = generate_pebbles(&kn, &cfg_j, &segment_record(&kn, &cfg_j, &toks));
        assert!(p.iter().all(|x| matches!(x.key, PebbleKey::Gram(_))));
        let cfg_t = SimConfig::default().with_measures(MeasureSet::T);
        let p = generate_pebbles(&kn, &cfg_t, &segment_record(&kn, &cfg_t, &toks));
        assert!(p.iter().all(|x| matches!(x.key, PebbleKey::Node(_))));
        assert!(!p.is_empty());
    }

    #[test]
    fn global_order_puts_rare_first() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        // "coffee" appears in two records, "latte" in one.
        let ids: Vec<_> = ["coffee", "coffee latte"]
            .iter()
            .map(|t| kn.add_record(t))
            .collect();
        let srs: Vec<_> = ids
            .iter()
            .map(|&i| segment_record(&kn, &cfg, &kn.record(i).tokens))
            .collect();
        let mut pebbles: Vec<Vec<Pebble>> = srs
            .iter()
            .map(|sr| generate_pebbles(&kn, &cfg, sr))
            .collect();
        let order = PebbleOrder::build(pebbles.iter().map(|v| v.as_slice()));
        for p in &mut pebbles {
            order.sort(p, &mut SortScratch::default());
        }
        // In record 2, latte-grams (freq 1) must precede coffee-grams
        // (freq 2: the keys record 1 carries too).
        let in_both = |key: PebbleKey| pebbles[0].iter().any(|p| p.key == key);
        let sorted = &pebbles[1];
        let first_coffee = sorted.iter().position(|p| in_both(p.key)).unwrap();
        assert!(sorted[first_coffee..].iter().all(|p| in_both(p.key)));
        assert!(first_coffee > 0);
    }

    /// Two corpora with shared and private keys, rule sides and entities
    /// sharing ancestors included.
    fn two_sides(kn: &mut Knowledge, cfg: &SimConfig) -> [Vec<SegRecord>; 2] {
        [
            vec!["coffee shop latte", "latte latte espresso", "cafe", ""],
            vec!["espresso cafe helsinki", "coffee", "tea house latte"],
        ]
        .map(|lines| {
            lines
                .iter()
                .map(|line| {
                    let id = kn.add_record(line);
                    segment_record(kn, cfg, &kn.record(id).tokens)
                })
                .collect()
        })
    }

    #[test]
    fn record_keys_are_the_distinct_pebble_keys() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let mut keys = Vec::new();
        for sr in two_sides(&mut kn, &cfg).iter().flatten() {
            let (mut from_posts, mut from_pebbles) = (DocFreqs::default(), DocFreqs::default());
            from_posts.count_record(&kn, sr, &mut keys);
            from_pebbles.count_pebbles(&generate_pebbles(&kn, &cfg, sr), &mut keys);
            assert_eq!(from_posts, from_pebbles);
            assert!(from_posts.counts.values().all(|&f| f == 1));
        }
    }

    #[test]
    fn count_then_uncount_leaves_the_never_counted_table() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let [stay, leave] = two_sides(&mut kn, &cfg);
        let mut keys = Vec::new();
        let mut never = DocFreqs::default();
        for sr in &stay {
            never.count_record(&kn, sr, &mut keys);
        }
        let mut df = never.clone();
        for sr in &leave {
            df.count_record(&kn, sr, &mut keys);
        }
        assert_ne!(df, never);
        assert!(df.counts.len() > never.counts.len(), "private keys counted");
        for sr in leave.iter().rev() {
            assert!(df.uncount_record(&kn, sr, &mut keys));
        }
        assert_eq!(df, never, "no zero entries left behind");
        assert!(df.counts.values().all(|&f| f > 0));
        // Down to nothing: the empty table, not a table of zeros.
        for sr in &stay {
            assert!(df.uncount_record(&kn, sr, &mut keys));
        }
        assert_eq!(df, DocFreqs::default());
        // A record the table never counted is reported, not a panic.
        assert!(!df.uncount_record(&kn, &stay[0], &mut keys));
    }

    #[test]
    fn pair_order_from_two_tables_matches_build_over_both_sides() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let sides = two_sides(&mut kn, &cfg);
        let mut keys = Vec::new();
        let tables = sides.each_ref().map(|side| {
            let mut df = DocFreqs::default();
            for sr in side {
                df.count_record(&kn, sr, &mut keys);
            }
            df
        });
        let lists: Vec<Vec<Pebble>> = sides
            .iter()
            .flatten()
            .map(|sr| generate_pebbles(&kn, &cfg, sr))
            .collect();
        let built = PebbleOrder::build(lists.iter().map(|v| v.as_slice()));
        let added = PebbleOrder::from_doc_freqs(&[&tables[0], &tables[1]], 7);
        assert_eq!(added.rank, built.rank);
        assert!(built.len() > tables[0].counts.len().max(tables[1].counts.len()));
        // One side alone, and the same side against itself: frequencies
        // double, the ranking does not move.
        let alone = PebbleOrder::from_doc_freqs(&[&tables[0]], 4);
        let doubled = PebbleOrder::from_doc_freqs(&[&tables[0], &tables[0]], 8);
        assert_eq!(alone.rank, doubled.rank);
        assert_eq!(alone.memory_bytes(), tables[0].memory_bytes());
    }

    #[test]
    fn inherited_order_keeps_positions_and_puts_unseen_keys_first() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let [stay, leave] = two_sides(&mut kn, &cfg);
        let id = kn.add_record("harbour kiosk");
        let came = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let mut keys = Vec::new();
        let table = |rows: &[&SegRecord], keys: &mut Vec<PebbleKey>| {
            let mut df = DocFreqs::default();
            for sr in rows {
                df.count_record(&kn, sr, keys);
            }
            df
        };
        let all: Vec<&SegRecord> = stay.iter().chain(&leave).collect();
        let parent = PebbleOrder::from_doc_freqs(&[&table(&all, &mut keys)], all.len());
        assert_eq!(parent.age(), (7, 0));
        let rows: Vec<&SegRecord> = stay.iter().chain([&came]).collect();
        let df = table(&rows, &mut keys);
        let (child, renumbered) = parent.inherit(&df, leave.len() + 1).expect("4 ≤ 7");
        assert_eq!(child.age(), (7, 4));
        // Every parent rank renumbered to its key's child rank, or unseen
        // when the key left.
        assert_eq!(renumbered.len(), parent.len());
        for (k, &r) in parent.rank.iter() {
            let now = child.rank.get(k).copied().unwrap_or(UNSEEN_RANK);
            assert_eq!(renumbered[r as usize], now, "{k:?}");
        }
        assert!(renumbered.contains(&UNSEEN_RANK), "keys of `leave` left");
        // Exactly the table's keys: private keys of `leave` are gone.
        assert_eq!(child.len(), df.counts.len());
        assert!(df.counts.keys().all(|k| child.rank.contains_key(k)));
        let by_rank = |o: &PebbleOrder, keep: &dyn Fn(&PebbleKey) -> bool| {
            let mut ks: Vec<(u32, PebbleKey)> = (o.rank.iter())
                .filter(|(k, _)| keep(k))
                .map(|(&k, &r)| (r, k))
                .collect();
            ks.sort_unstable();
            ks.into_iter().map(|(_, k)| k).collect::<Vec<_>>()
        };
        let shared = |k: &PebbleKey| parent.rank.contains_key(k) && child.rank.contains_key(k);
        assert_eq!(by_rank(&parent, &shared), by_rank(&child, &shared));
        // Unseen keys lead, by (frequency, key).
        let unseen = by_rank(&child, &|k| !parent.rank.contains_key(k));
        assert!(unseen.len() > 3, "grams of harbour and kiosk: {unseen:?}");
        assert_eq!(by_rank(&child, &|_| true)[..unseen.len()], unseen[..]);
        let mut want: Vec<(u32, PebbleKey)> = unseen.iter().map(|&k| (df.get(k), k)).collect();
        want.sort_unstable();
        assert_eq!(unseen, want.into_iter().map(|(_, k)| k).collect::<Vec<_>>());
        // A carried record sorts exactly as it did, its ranks renumbered.
        for sr in &stay {
            let (mut a, mut b) = (
                generate_pebbles(&kn, &cfg, sr),
                generate_pebbles(&kn, &cfg, sr),
            );
            let (mut sa, mut sb) = (SortScratch::default(), SortScratch::default());
            let was = parent.sort(&mut a, &mut sa);
            let now = child.sort(&mut b, &mut sb);
            let key = |v: &[Pebble]| -> Vec<(PebbleKey, u32, usize)> {
                v.iter().map(|p| (p.key, p.seg, p.measure.idx())).collect()
            };
            assert_eq!(key(&a), key(&b));
            let moved: Vec<u32> = was.iter().map(|&r| renumbered[r as usize]).collect();
            assert_eq!(moved, now);
        }
        // Churn adds up across generations; past the rows ranked, no more.
        let grandchild = child.inherit(&df, 3);
        assert!(grandchild.is_some_and(|(o, _)| o.age() == (7, 7)));
        assert!(child.inherit(&df, 4).is_none());
    }

    /// Fourteen keys of all three kinds, the pool the sort property draws
    /// from.
    fn key_pool() -> Vec<PebbleKey> {
        let grams = (0..8).map(PebbleKey::Gram);
        let rules = (0..3).map(|i| PebbleKey::Rule(PhraseId(i)));
        grams
            .chain(rules)
            .chain((0..3).map(|i| PebbleKey::Node(NodeId(i))))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The one packed sort against a reference sort on `(ranked, rank
        /// or unseen sub-rank, seg, measure, input index)`, the unseen
        /// sub-rank being a key's place among the record's distinct
        /// unseen keys: input as drawn (shuffled), reversed and in
        /// generation order, frequency-0 keys, and one key at several
        /// segments and measures. The ranks handed back are a per-pebble
        /// rank lookup, `UNSEEN_RANK` for an unseen key.
        #[test]
        fn the_packed_sort_equals_the_reference_sort(
            drawn in proptest::collection::vec((0usize..14, 0u32..4, 0usize..3), 0..40),
            ranked in proptest::collection::vec(proptest::bool::weighted(0.7), 14),
            shift in 0usize..14,
        ) {
            let pool = key_pool();
            // A rotation of the pool's ranked keys: ranks follow no key order.
            let ranking = (0..14).map(|i| (i + shift) % 14).filter(|&i| ranked[i]);
            let order = PebbleOrder::from_ranking(ranking.map(|i| pool[i]));
            let pebbles: Vec<Pebble> = (drawn.iter().enumerate())
                .map(|(i, &(k, seg, m))| Pebble {
                    key: pool[k],
                    weight: i as f64,
                    seg,
                    measure: MeasureKind::ALL[m],
                })
                .collect();
            let mut generated = pebbles.clone();
            generated.sort_by_key(|p| (p.seg, p.measure.idx()));
            let reversed: Vec<Pebble> = pebbles.iter().rev().copied().collect();
            let mut scratch = SortScratch::default();
            for input in [pebbles, reversed, generated] {
                let rank = |k: &PebbleKey| order.rank.get(k).copied();
                let mut unseen: Vec<PebbleKey> =
                    input.iter().map(|p| p.key).filter(|k| rank(k).is_none()).collect();
                unseen.sort_unstable();
                unseen.dedup();
                let place = |(i, p): (usize, &Pebble)| {
                    let r = rank(&p.key).unwrap_or_else(|| {
                        unseen.binary_search(&p.key).expect("collected") as u32
                    });
                    (rank(&p.key).is_some(), r, p.seg, p.measure.idx(), i)
                };
                let mut want: Vec<_> = input.iter().enumerate().map(place).collect();
                want.sort_unstable();
                let want: Vec<(PebbleKey, u32, usize, u64)> = (want.iter())
                    .map(|&(.., i)| (input[i].key, input[i].seg, input[i].measure.idx(), input[i].weight.to_bits()))
                    .collect();
                let mut got = input.clone();
                let ranks = order.sort(&mut got, &mut scratch);
                let identity = |p: &Pebble| (p.key, p.seg, p.measure.idx(), p.weight.to_bits());
                proptest::prop_assert_eq!(got.iter().map(identity).collect::<Vec<_>>(), want);
                let looked_up: Vec<u32> =
                    got.iter().map(|p| rank(&p.key).unwrap_or(UNSEEN_RANK)).collect();
                proptest::prop_assert_eq!(ranks, &looked_up[..]);
            }
        }
    }

    #[test]
    fn sorting_is_deterministic() {
        let mut kn = setup();
        let cfg = SimConfig::default();
        let id = kn.add_record("coffee shop latte espresso cafe");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let base = generate_pebbles(&kn, &cfg, &sr);
        let order = PebbleOrder::build(std::iter::once(base.as_slice()));
        let mut a = base.clone();
        let mut b = base.clone();
        b.reverse();
        order.sort(&mut a, &mut SortScratch::default());
        order.sort(&mut b, &mut SortScratch::default());
        let key = |v: &[Pebble]| -> Vec<(PebbleKey, u32, usize)> {
            v.iter().map(|p| (p.key, p.seg, p.measure.idx())).collect()
        };
        assert_eq!(key(&a), key(&b));
    }
}
