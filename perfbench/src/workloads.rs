//! Seeded request streams for the two workloads.
//!
//! Every input is derived from the benchmark's `--seed`; the same seed
//! yields the same request list, whose FNV-1a hash is recorded in every
//! result. The program under test receives only the generated sources.

use crate::pipeline::{Request, Tgt};
use p4testgen::corpus;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Corpus,
    ServeMix,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "corpus" => Some(Workload::Corpus),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Corpus => "corpus",
            Workload::ServeMix => "serve-mix",
        }
    }
}

/// SplitMix64: a small, fixed generator, so streams never depend on a
/// dependency's RNG implementation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    pub fn chance(&mut self, permille: u64) -> bool {
        self.next_u64() % 1000 < permille
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// What a serve-mix request is meant to exercise in the daemon's caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// In-process request (corpus).
    Generate,
    /// Exact repeat of a working-set request: IR hit and instance hit.
    Repeat,
    /// Comment/whitespace variant of a working-set program: canonical IR hit.
    Reformat,
    /// Working-set program under another `config.seed`: IR hit, instance miss.
    Reseed,
    /// A program never sent before: full miss.
    Fresh,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Generate => "generate",
            Kind::Repeat => "repeat",
            Kind::Reformat => "reformat",
            Kind::Reseed => "reseed",
            Kind::Fresh => "fresh",
        }
    }
}

pub struct Plan {
    /// Untimed requests that end set-up (they warm the allocator, and for
    /// serve-mix the daemon's caches).
    pub warmup: Vec<Request>,
    /// The timed stream, consumed in order (corpus starts again from the
    /// top if a run outlasts it).
    pub stream: Vec<(Kind, Request)>,
    /// Requests per round (corpus: the program set in one order) or block
    /// (serve-mix: each request kind's share). Sub-runs of a timed run are
    /// whole rounds or blocks, so each has the workload's exact mix.
    pub round_len: usize,
    /// Seed-independent requests whose engine counters are checked for
    /// exact repetition.
    pub probe: Vec<Request>,
    /// Golden suites by program name (corpus only).
    pub goldens: BTreeMap<String, String>,
    pub hash: u64,
}

/// Rounds generated per stream; more than any run of the allowed length
/// consumes.
const ROUNDS: usize = 100;

fn req(name: &str, target: Tgt, source: &Arc<str>, seed: u64) -> Request {
    Request {
        name: name.to_string(),
        target,
        source: Arc::clone(source),
        seed,
    }
}

/// The corpus programs in the form `examples/p4/*.p4` stores them (an
/// `// arch:` banner line ahead of the source), which is the form the
/// golden suites were generated from.
fn corpus_programs() -> Vec<(String, Tgt, Arc<str>)> {
    corpus::all_programs()
        .into_iter()
        .map(|(name, src, arch)| {
            (
                name.to_string(),
                Tgt::parse(arch),
                Arc::from(format!("// arch: {arch}\n{src}")),
            )
        })
        .collect()
}

fn parser_deep(depth: u32, fanout: u32) -> (String, Tgt, Arc<str>) {
    (
        format!("parser_deep_{depth}x{fanout}"),
        Tgt::V1Model,
        Arc::from(corpus::generate_parser_deep(depth, fanout)),
    )
}

pub fn plan(w: Workload, seed: u64, repo: &std::path::Path) -> Result<Plan, String> {
    let mut rng = Rng::new(seed);
    let mut plan = match w {
        Workload::Corpus => corpus_plan(&mut rng, repo)?,
        Workload::ServeMix => serve_plan(&mut rng),
    };
    plan.hash = stream_hash(seed, &plan.stream);
    Ok(plan)
}

/// `ROUNDS` rounds of `set`, each in a new order.
fn rounds(set: &[Request], rng: &mut Rng) -> Vec<(Kind, Request)> {
    let mut stream = Vec::with_capacity(ROUNDS * set.len());
    for _ in 0..ROUNDS {
        let mut order: Vec<usize> = (0..set.len()).collect();
        rng.shuffle(&mut order);
        stream.extend(order.into_iter().map(|i| (Kind::Generate, set[i].clone())));
    }
    stream
}

fn corpus_plan(rng: &mut Rng, repo: &std::path::Path) -> Result<Plan, String> {
    let programs = corpus_programs();
    let mut goldens = BTreeMap::new();
    for (name, _, _) in &programs {
        let path = repo.join("tests/golden_suites").join(format!("{name}.stf"));
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            goldens.insert(name.clone(), text);
        }
    }
    if goldens.len() != 11 {
        return Err(format!(
            "expected 11 golden suites, found {}",
            goldens.len()
        ));
    }
    let all: Vec<Request> = programs.iter().map(|(n, t, s)| req(n, *t, s, 1)).collect();
    let stream = rounds(&all, rng);
    let small = ["fig1a", "fig1b", "stack_prog"];
    Ok(Plan {
        warmup: all
            .iter()
            .filter(|r| small.contains(&r.name.as_str()))
            .cloned()
            .collect(),
        stream,
        round_len: all.len(),
        probe: all,
        goldens,
        hash: 0,
    })
}

/// One serve-mix block: every block of the stream holds exactly these
/// request kinds, shuffled, so any stretch of a run sees the same mix.
///
/// The equal shares are an assumption, not a measurement: the repository
/// records no serve traffic to derive a mix from. Each kind's latency is
/// reported on its own as well (`serve.<kind>_p50_ms` in a traced run, and
/// per-kind rows in every result), so a conclusion about one cache path
/// need not rest on this ratio.
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Repeat, 5),
    (Kind::Reformat, 5),
    (Kind::Reseed, 5),
    (Kind::Fresh, 5),
];
/// Requests per block that go to each of the two big programs: together a
/// fifth of all requests.
const PER_BIG_PER_BLOCK: usize = 2;
/// Formatting variants per working-set program.
const VARIANTS: usize = 2;

/// Cycles through `items` in an order reshuffled on every pass, so each
/// appears equally often.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T> Deck<T> {
    fn draw(&mut self, rng: &mut Rng) -> &T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        &self.items[self.next - 1]
    }
}

fn serve_plan(rng: &mut Rng) -> Plan {
    let corpus = corpus_programs();
    let (big, mut small): (Vec<_>, Vec<_>) = corpus
        .into_iter()
        .partition(|(n, _, _)| n == "switch_sim" || n == "middleblock_sim");
    // Parser chains: the grid sorted by cost (which grows with depth
    // squared and a bit faster than fanout) and cut into one band per fresh
    // request of a block. Every block draws one fresh program from each
    // band, without replacement, so fresh programs never repeat and every
    // block's fresh share costs about the same. The stream ends when the
    // bands do. Depths start at 7: the corpus already holds parser_deep_6x4.
    let fresh_per_block = BLOCK
        .iter()
        .find(|(k, _)| *k == Kind::Fresh)
        .map_or(0, |b| b.1);
    let mut grid: Vec<(u32, u32)> = (7..=57)
        .flat_map(|d| (2..=12).map(move |f| (d, f)))
        .collect();
    grid.sort_by(|a, b| {
        let cost = |&(d, f): &(u32, u32)| f64::from(d).powi(2) * f64::from(f).powf(1.3);
        cost(a).total_cmp(&cost(b))
    });
    let mut bands: Vec<Vec<(u32, u32)>> = grid
        .chunks(grid.len() / fresh_per_block)
        .take(fresh_per_block)
        .map(<[_]>::to_vec)
        .collect();
    // Working set: the 12 corpus programs plus the median chain of each of
    // the four cheapest bands — 16 programs, more than the daemon's 8
    // instance slots and fewer than its 32 IR slots.
    for band in &mut bands[..4] {
        let (d, f) = band.remove(band.len() / 2);
        small.push(parser_deep(d, f));
    }
    for band in &mut bands {
        rng.shuffle(band);
    }
    let working: Vec<Request> = big
        .iter()
        .chain(small.iter())
        .map(|(n, t, s)| req(n, *t, s, 1))
        .collect();
    let variants = |pool: &[(String, Tgt, Arc<str>)], rng: &mut Rng| -> Vec<Vec<Arc<str>>> {
        pool.iter()
            .map(|(_, _, s)| {
                (0..VARIANTS)
                    .map(|v| Arc::from(reformat(s, v, rng)))
                    .collect()
            })
            .collect()
    };
    let (big_variants, small_variants) = (variants(&big, rng), variants(&small, rng));
    let mut small_deck = Deck {
        items: (0..small.len()).collect(),
        next: small.len(),
    };

    let mut stream = Vec::new();
    for b in 0..bands.iter().map(Vec::len).min().unwrap_or(0) {
        let mut kinds: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        rng.shuffle(&mut kinds);
        // Which program each non-fresh request goes to: both big programs
        // twice, the rest from the small deck.
        let mut picks: Vec<Option<usize>> = (0..big.len())
            .flat_map(|i| std::iter::repeat_n(Some(i), PER_BIG_PER_BLOCK))
            .collect();
        picks.resize(kinds.len() - fresh_per_block, None);
        rng.shuffle(&mut picks);
        let mut picks = picks.into_iter();
        let mut fresh = bands.iter().map(|band| band[b]);
        for kind in kinds {
            if kind == Kind::Fresh {
                let (d, f) = fresh.next().expect("one band per fresh request");
                let (n, t, s) = parser_deep(d, f);
                stream.push((kind, req(&n, t, &s, 1)));
                continue;
            }
            let ((n, t, s), forms) = match picks.next().expect("one pick per request") {
                Some(i) => (&big[i], &big_variants[i]),
                None => {
                    let i = *small_deck.draw(rng);
                    (&small[i], &small_variants[i])
                }
            };
            let r = match kind {
                Kind::Reformat => {
                    let v = (rng.next_u64() % VARIANTS as u64) as usize;
                    req(n, *t, &forms[v], 1)
                }
                Kind::Reseed => req(n, *t, s, u64::from(rng.range(2, 4))),
                _ => req(n, *t, s, 1),
            };
            stream.push((kind, r));
        }
    }
    let probe = small[..5]
        .iter()
        .chain(big.iter())
        .map(|(n, t, s)| req(n, *t, s, 1))
        .collect();
    let round_len = BLOCK.iter().map(|b| b.1).sum();
    Plan {
        warmup: working,
        stream,
        round_len,
        probe,
        goldens: BTreeMap::new(),
        hash: 0,
    }
}

/// A formatting-only variant of `src`: trailing blanks on some lines and a
/// trailing comment. Token positions are unchanged, so only the cache key's
/// canonicalization can tell the variants apart from the original.
fn reformat(src: &str, variant: usize, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(src.len() + 64);
    for line in src.lines() {
        out.push_str(line);
        if rng.chance(300) {
            out.push_str("   ");
        }
        out.push('\n');
    }
    out.push_str(&format!("// variant {variant}\n"));
    out
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    *h ^= 0xFF;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
}

fn stream_hash(seed: u64, stream: &[(Kind, Request)]) -> u64 {
    // Sources are shared between requests; hash each one once.
    let mut sources: HashMap<*const u8, u64> = HashMap::new();
    let mut h = 0xCBF2_9CE4_8422_2325;
    fnv1a(&mut h, &seed.to_le_bytes());
    for (k, r) in stream {
        let src = *sources.entry(r.source.as_ptr()).or_insert_with(|| {
            let mut s = 0xCBF2_9CE4_8422_2325;
            fnv1a(&mut s, r.source.as_bytes());
            s
        });
        fnv1a(&mut h, k.name().as_bytes());
        fnv1a(&mut h, r.name.as_bytes());
        fnv1a(&mut h, r.target.name().as_bytes());
        fnv1a(&mut h, &r.seed.to_le_bytes());
        fnv1a(&mut h, &src.to_le_bytes());
    }
    h
}
