//! `auserve` — an interactive serving session over one corpus file,
//! optionally durable (write-ahead logged) in a session directory.
//!
//! ```text
//! auserve <corpus.txt> [--theta T] [--rules rules.tsv] [--taxonomy tax.txt] [--open DIR]
//! auserve --open DIR [--theta T] [--rules rules.tsv] [--taxonomy tax.txt]
//! ```
//!
//! Reads one string per line from `<corpus.txt>` into a live
//! [`Service`]. With `--open DIR` the session is durable: mutations
//! commit to `DIR/wal.log` before they are acknowledged, and a later
//! `auserve --open DIR` replays the log — the corpus file only seeds a
//! directory whose log is still empty. Commands from stdin (one per
//! line):
//!
//! ```text
//! q <text>          θ-search the live corpus
//! topk <k> <text>   best k matches by threshold descent
//! add <text>        insert a record (prints id@generation)
//! del <id>          tombstone a record
//! join <lo> <hi>    self-join live records with ids in [lo, hi)
//! compact           fold delta + tombstones into a fresh base
//! open <dir>        switch to a durable session at <dir> (replay or start fresh)
//! save              checkpoint the log (fold, then rewrite as live state)
//! heal              retry a degraded (read-only) session's log
//! wal-stats         durability counters: frames, bytes, retries, degradation
//! stats             generation, live count, counters, the last compaction's shape
//!                   (`prepared` = records segmented; a compaction segments nothing)
//! quit              exit
//! ```
//!
//! Every answer is prefixed with the generation that served it, so a
//! scripted session can assert the monotone-publication contract from
//! the outside — across restarts too: reopening a directory serves the
//! exact acknowledged state of the previous session.

use au_core::io::{load_rules, load_taxonomy};
use au_core::knowledge::{Knowledge, KnowledgeBuilder};
use au_serve::{ServeConfig, Service};
use std::io::BufRead;
use std::process::ExitCode;

const USAGE: &str = "usage: auserve <corpus.txt> [--theta T] [--rules rules.tsv] \
                     [--taxonomy tax.txt] [--open DIR]\n       \
                     auserve --open DIR [--theta T] [--rules ...] [--taxonomy ...]";

struct Opts {
    corpus: Option<String>,
    theta: f64,
    rules: Option<String>,
    taxonomy: Option<String>,
    open: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut corpus = None;
    let mut theta = 0.7;
    let mut rules = None;
    let mut taxonomy = None;
    let mut open = None;
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--theta" => {
                theta = value("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?;
            }
            "--rules" => rules = Some(value("--rules")?),
            "--taxonomy" => taxonomy = Some(value("--taxonomy")?),
            "--open" => open = Some(value("--open")?),
            _ if a.starts_with('-') => return Err(format!("unknown flag {a}")),
            _ if corpus.is_none() => corpus = Some(a),
            _ => return Err(format!("unexpected argument {a}")),
        }
    }
    if corpus.is_none() && open.is_none() {
        return Err("missing corpus path (or --open DIR)".into());
    }
    Ok(Opts {
        corpus,
        theta,
        rules,
        taxonomy,
        open,
    })
}

/// The live session: the service plus the pristine rules lineage the
/// `open` command clones for every durable (re)open.
struct Repl {
    kn: Knowledge,
    cfg: ServeConfig,
    svc: Service,
}

fn build_service(opts: &Opts) -> Result<Repl, String> {
    let mut kb = KnowledgeBuilder::new();
    if let Some(path) = &opts.rules {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let n = load_rules(&mut kb, &text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loaded {n} synonym rules");
    }
    if let Some(path) = &opts.taxonomy {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let n = load_taxonomy(&mut kb, &text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loaded {n} taxonomy paths");
    }
    let text = match &opts.corpus {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => String::new(),
    };
    let cfg = ServeConfig {
        theta: opts.theta,
        ..ServeConfig::default()
    };
    let kn = kb.build();
    let svc = match &opts.open {
        Some(dir) => {
            Service::open_or_seed(kn.clone(), text.lines(), cfg, dir).map_err(|e| e.to_string())?
        }
        None => Service::build(kn.clone(), text.lines(), cfg).map_err(|e| e.to_string())?,
    };
    let wal = svc.stats().wal;
    eprintln!(
        "serving {} records at θ={} (generation {}){}",
        svc.snapshot().live_len(),
        opts.theta,
        svc.generation(),
        match &opts.open {
            Some(dir) if wal.replayed_frames > 0 => format!(
                " — replayed {} frames from {dir}/wal.log",
                wal.replayed_frames
            ),
            Some(dir) => format!(" — durable at {dir}/wal.log"),
            None => String::new(),
        }
    );
    Ok(Repl { kn, cfg, svc })
}

fn handle(repl: &mut Repl, line: &str) -> Result<bool, String> {
    let line = line.trim();
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    let svc = &repl.svc;
    match cmd {
        "" => {}
        "q" => {
            let r = svc.search(rest).map_err(|e| e.to_string())?;
            for (id, sim) in &r.matches {
                println!("[gen {}] {id}\t{sim:.6}", r.generation);
            }
            eprintln!(
                "gen {}: {} matches, {} candidates, {} masked",
                r.generation,
                r.matches.len(),
                r.candidates,
                r.masked
            );
        }
        "topk" => {
            let (k, text) = rest.split_once(' ').ok_or("usage: topk <k> <text>")?;
            let k: usize = k.parse().map_err(|e| format!("topk: {e}"))?;
            let r = svc.topk(text, k).map_err(|e| e.to_string())?;
            for (id, sim) in &r.matches {
                println!("[gen {}] {id}\t{sim:.6}", r.generation);
            }
            eprintln!(
                "gen {}: {} matches (descended to θ={:.2})",
                r.generation,
                r.matches.len(),
                r.theta
            );
        }
        "add" => {
            let m = svc.insert_record(rest).map_err(|e| e.to_string())?;
            println!("added {}@{}", m.id, m.generation);
        }
        "del" => {
            let id: u64 = rest.trim().parse().map_err(|e| format!("del: {e}"))?;
            let m = svc.delete_record(id).map_err(|e| e.to_string())?;
            println!("deleted {}@{}", m.id, m.generation);
        }
        "join" => {
            let (lo, hi) = rest.split_once(' ').ok_or("usage: join <lo> <hi>")?;
            let lo: u64 = lo.parse().map_err(|e| format!("join: {e}"))?;
            let hi: u64 = hi.trim().parse().map_err(|e| format!("join: {e}"))?;
            let r = svc.join_window(lo, hi).map_err(|e| e.to_string())?;
            for (s, t, sim) in &r.pairs {
                println!("[gen {}] {s}\t{t}\t{sim:.6}", r.generation);
            }
            eprintln!("gen {}: {} pairs", r.generation, r.pairs.len());
        }
        "compact" => {
            let gen = svc.compact().map_err(|e| e.to_string())?;
            println!("compacted@{gen}");
        }
        "open" => {
            let dir = rest.trim();
            if dir.is_empty() {
                return Err("usage: open <dir>".into());
            }
            let empty: [&str; 0] = [];
            let svc = Service::open_or_seed(repl.kn.clone(), empty, repl.cfg, dir)
                .map_err(|e| e.to_string())?;
            let wal = svc.stats().wal;
            println!(
                "[gen {}] opened {dir} ({} live, {} frames replayed)",
                svc.generation(),
                svc.snapshot().live_len(),
                wal.replayed_frames
            );
            repl.svc = svc;
        }
        "save" => {
            let gen = svc.save().map_err(|e| e.to_string())?;
            println!("[gen {gen}] saved (log checkpointed to live state)");
        }
        "heal" => {
            svc.heal().map_err(|e| e.to_string())?;
            println!("[gen {}] healed (writes re-enabled)", svc.generation());
        }
        "wal-stats" => {
            let s = svc.stats();
            println!(
                "[gen {}] wal durable={} frames={} bytes={} replayed={} truncated={} \
                 retries={} backoff_waits={} | degraded={} entries={} rejected_writes={}",
                s.generation,
                s.wal.durable,
                s.wal.frames,
                s.wal.bytes,
                s.wal.replayed_frames,
                s.wal.truncated_bytes,
                s.wal.retries,
                s.wal.backoff_waits,
                s.degraded,
                s.degraded_entries,
                s.degraded_writes
            );
        }
        "stats" => {
            let s = svc.stats();
            let c = s.last_compact;
            // `prepared` counts segmented records: creates, opens and
            // inserts — a compaction segments nothing, it merges. `signed`
            // counts signature selections: a compaction signs what it
            // appends, and everything only when it re-ranks.
            println!(
                "gen {} live {} delta {} tombstones {} | q {} +{} -{} compactions {} pause {:.2}ms \
                 (carried {} dropped {} appended {} merge {:.2}ms build {:.2}ms signed {} {} \
                 churn {}/{}) prepared {} signed {}",
                s.generation,
                s.live,
                s.delta_len,
                s.tombstones,
                s.queries,
                s.inserts,
                s.deletes,
                s.compactions,
                s.last_compact_nanos as f64 / 1e6,
                c.carried,
                c.dropped,
                c.appended,
                c.merge_nanos as f64 / 1e6,
                c.build_nanos as f64 / 1e6,
                c.signed,
                if c.reranked { "reranked" } else { "inherited" },
                c.churn,
                c.ranked_over,
                s.records_prepared,
                s.records_signed
            );
        }
        "quit" | "exit" => return Ok(false),
        other => {
            return Err(format!(
                "unknown command {other:?} \
                 (q/topk/add/del/join/compact/open/save/heal/wal-stats/stats/quit)"
            ))
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut repl = match build_service(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: stdin: {e}");
                return ExitCode::FAILURE;
            }
        };
        match handle(&mut repl, &line) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => eprintln!("error: {e}"),
        }
    }
    ExitCode::SUCCESS
}
