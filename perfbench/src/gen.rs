//! Seeded, std-only input generator.
//!
//! The benchmark owns its inputs so that a change to the library's own
//! generators or to its vendored random-number crates cannot silently
//! change what is measured.  Every graph is a heavy-tailed
//! preferential-attachment backbone with Holme–Kim triadic closure,
//! overlaid with planted dense communities, and every edge draws its
//! existence probability from a mix of weak, strong and certain edges.
//! Graphs are emitted as SNAP-style `u v p` text, the format the library
//! ingests.

use std::collections::HashSet;
use std::fmt::Write;

/// SplitMix64: a small, fast generator with a fixed, documented output
/// sequence — the same seed gives the same inputs on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so independent
    /// inputs of a run never share random numbers.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mixer = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws items in a seeded order without replacement, reshuffling once
/// all are drawn, so every seed draws the same mix of items.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    items: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>) -> Self {
        assert!(!items.is_empty(), "a deck needs items");
        Deck {
            items,
            left: Vec::new(),
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left.clone_from(&self.items);
            rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("a refilled deck is not empty")
    }
}

/// Shape of one generated graph.  Sizes are fixed per workload; only the
/// wiring and the probabilities depend on the seed, so run-to-run
/// variation between seeds stays small.
#[derive(Debug, Clone, Copy)]
pub struct GraphShape {
    pub vertices: u32,
    /// Edges each arriving vertex adds to the backbone.
    pub attach: u32,
    /// Chance that a backbone edge closes a triangle with the previous
    /// target's neighbourhood instead of attaching preferentially.
    pub closure: f64,
    /// Number of planted communities.
    pub communities: u32,
    /// Community sizes are drawn log-uniformly between these bounds,
    /// rounded down.
    pub community_size: (u32, u32),
    /// Chance that two members of one community are linked.
    pub density: f64,
}

/// An undirected edge list with existence probabilities, without
/// duplicates or self-loops, in generation order.
pub type EdgeList = Vec<(u32, u32, f64)>;

/// Existence probability of a backbone edge: mostly weak links.
pub fn weak_probability(rng: &mut Rng) -> f64 {
    let u = rng.unit();
    quantize(0.05 + 0.45 * u * u)
}

/// Existence probability of an edge inside a planted community: strong,
/// and certain for one edge in five.
pub fn strong_probability(rng: &mut Rng) -> f64 {
    if rng.chance(0.2) {
        1.0
    } else {
        quantize(0.5 + 0.49 * rng.unit())
    }
}

/// Three decimals, as published uncertain-graph datasets carry, so the
/// text form round-trips exactly.
fn quantize(p: f64) -> f64 {
    ((p * 1000.0).round() / 1000.0).clamp(0.001, 1.0)
}

struct EdgeSet {
    edges: EdgeList,
    seen: HashSet<(u32, u32)>,
    adjacency: Vec<Vec<u32>>,
}

impl EdgeSet {
    fn add(&mut self, u: u32, v: u32, p: f64) -> bool {
        if u == v || !self.seen.insert((u.min(v), u.max(v))) {
            return false;
        }
        self.edges.push((u.min(v), u.max(v), p));
        self.adjacency[u as usize].push(v);
        self.adjacency[v as usize].push(u);
        true
    }
}

/// Generates one graph of the given shape.
pub fn graph(shape: &GraphShape, rng: &mut Rng) -> EdgeList {
    let n = shape.vertices as usize;
    let attach = shape.attach.max(1) as usize;
    let mut b = EdgeSet {
        edges: Vec::new(),
        seen: HashSet::new(),
        adjacency: vec![Vec::new(); n],
    };
    // Every backbone endpoint, so a uniform pick is degree-proportional.
    let mut endpoints: Vec<u32> = Vec::new();
    let seed_clique = (attach + 1).min(n);
    for u in 0..seed_clique as u32 {
        for v in u + 1..seed_clique as u32 {
            let p = weak_probability(rng);
            b.add(u, v, p);
            endpoints.extend([u, v]);
        }
    }
    for v in seed_clique as u32..n as u32 {
        let mut previous: Option<u32> = None;
        let mut added = 0;
        let mut attempts = 0;
        while added < attach && attempts < 8 * attach {
            attempts += 1;
            let closing = previous.filter(|_| rng.chance(shape.closure));
            let target = match closing {
                Some(t) => {
                    let around = &b.adjacency[t as usize];
                    around[rng.below(around.len())]
                }
                None => endpoints[rng.below(endpoints.len())],
            };
            let p = weak_probability(rng);
            if b.add(v, target, p) {
                endpoints.extend([v, target]);
                previous = Some(target);
                added += 1;
            }
        }
    }
    // Communities take consecutive slices of one random permutation, so
    // they are disjoint until the vertices run out.
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let (lo, hi) = shape.community_size;
    let mut next = 0usize;
    for _ in 0..shape.communities {
        let size = (f64::from(lo) * (f64::from(hi) / f64::from(lo)).powf(rng.unit())) as usize;
        let members: Vec<u32> = (0..size.min(n)).map(|j| order[(next + j) % n]).collect();
        next += size;
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                if rng.chance(shape.density) {
                    let p = strong_probability(rng);
                    b.add(u, v, p);
                }
            }
        }
    }
    b.edges
}

/// SNAP-style text (`u v p` per line) of an edge list.
pub fn to_text(edges: &EdgeList) -> String {
    let mut text = String::with_capacity(edges.len() * 16);
    text.push_str("# u v p\n");
    for &(u, v, p) in edges {
        writeln!(text, "{u} {v} {p}").expect("writing to a String cannot fail");
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: GraphShape = GraphShape {
        vertices: 400,
        attach: 3,
        closure: 0.5,
        communities: 10,
        community_size: (6, 20),
        density: 0.6,
    };

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        let a = graph(&SHAPE, &mut Rng::new(7, 1));
        let b = graph(&SHAPE, &mut Rng::new(7, 1));
        let c = graph(&SHAPE, &mut Rng::new(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn edges_are_simple_and_probabilities_valid() {
        let edges = graph(&SHAPE, &mut Rng::new(3, 0));
        let mut pairs: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        assert!(edges.iter().all(|&(u, v, p)| u < v && p > 0.0 && p <= 1.0));
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), edges.len());
    }

    #[test]
    fn a_deck_deals_every_item_once_per_round() {
        let mut deck = Deck::new(vec![1, 2, 3, 4]);
        let mut rng = Rng::new(9, 9);
        for _ in 0..3 {
            let mut round: Vec<i32> = (0..4).map(|_| deck.draw(&mut rng)).collect();
            round.sort_unstable();
            assert_eq!(round, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn text_parses_back_to_the_same_graph() {
        let edges = graph(&SHAPE, &mut Rng::new(5, 2));
        let g = ugraph::io::read_edge_list(to_text(&edges).as_bytes()).expect("valid text");
        assert_eq!(g.num_edges(), edges.len());
        for &(u, v, p) in &edges {
            assert_eq!(g.edge_probability(u, v), Some(p));
        }
    }
}
