//! Seeded minc program generator for the serving workloads.
//!
//! A generated program is a list of planted loops, one function each,
//! over float arrays whose sizes are literals in the source and whose
//! contents travel as the request's `inputs`:
//!
//! | kind | body | planted pattern |
//! |---|---|---|
//! | map | `o[i] = chain(a[i])` | map |
//! | reduction | `acc = acc + a[i]` | linear reduction |
//! | map-reduction | `acc = acc + chain(a[i])` | map-reduction |
//! | carried | `x = x * 0.5 + chain(a[i]); o[i] = x` | none (loop-carried) |
//!
//! `chain(v)` applies a fixed sequence of `+`, `-` and `*` with
//! four-digit literal coefficients. Two edit operators model an editing
//! session: [`Program::const_edit`] rewrites one coefficient to another
//! literal of the same length (the executed instruction stream does not
//! change), and [`Program::struct_edit`] changes one loop body's
//! operator sequence or appends a new loop (it always does).

/// SplitMix64: a small, seedable generator; the same seed gives the
/// same programs on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[0, 1)` with four decimal digits, so the JSON text
    /// of an input round-trips exactly.
    pub fn unit4(&mut self) -> f64 {
        (self.next_u64() % 10_000) as f64 / 10_000.0
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Map,
    Reduction,
    MapReduction,
    Carried,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::Map,
        Kind::Reduction,
        Kind::MapReduction,
        Kind::Carried,
    ];

    fn has_chain(self) -> bool {
        self != Kind::Reduction
    }

    /// The pattern the loop plants, by the finder's short kind name.
    fn planted(self) -> Option<&'static str> {
        match self {
            Kind::Map => Some("m"),
            Kind::Reduction => Some("r"),
            Kind::MapReduction => Some("mr"),
            Kind::Carried => None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Add,
    Sub,
    Mul,
}

impl Op {
    const ALL: [Op; 3] = [Op::Add, Op::Sub, Op::Mul];

    fn symbol(self) -> char {
        match self {
            Op::Add => '+',
            Op::Sub => '-',
            Op::Mul => '*',
        }
    }

    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Op::Add => a + b,
            Op::Sub => a - b,
            Op::Mul => a * b,
        }
    }
}

/// Operators per chain. `3^CHAIN` operator sequences per loop bound the
/// number of distinct structural edits of one loop.
pub const CHAIN: usize = 5;

/// One planted loop.
#[derive(Clone, Debug, PartialEq)]
pub struct Loop {
    pub kind: Kind,
    /// Trip count, and the length of the loop's arrays.
    pub n: usize,
    pub ops: [Op; CHAIN],
    /// Coefficients in ten-thousandths, each in `5000..10000`, printed
    /// as `0.dddd` — always six characters.
    pub coefs: [u32; CHAIN],
    /// The input array's contents.
    pub input: Vec<f64>,
}

impl Loop {
    fn random(rng: &mut Rng, kind: Kind, n: usize) -> Loop {
        let mut ops = [Op::Add; CHAIN];
        let mut coefs = [0u32; CHAIN];
        for k in 0..CHAIN {
            ops[k] = Op::ALL[rng.range(0, 3)];
            coefs[k] = rng.range(5000, 10_000) as u32;
        }
        let input = (0..n).map(|_| rng.unit4()).collect();
        Loop {
            kind,
            n,
            ops,
            coefs,
            input,
        }
    }

    fn chain_src(&self, v: &str) -> String {
        let mut e = v.to_string();
        for k in 0..CHAIN {
            e = format!("({e} {} 0.{:04})", self.ops[k].symbol(), self.coefs[k]);
        }
        e
    }

    fn chain(&self, v: f64) -> f64 {
        (0..CHAIN).fold(v, |acc, k| {
            self.ops[k].apply(acc, self.coefs[k] as f64 / 10_000.0)
        })
    }

    /// The loop's output array as plain Rust computes it.
    fn eval(&self) -> Vec<f64> {
        match self.kind {
            Kind::Map => self.input.iter().map(|&a| self.chain(a)).collect(),
            Kind::Reduction => vec![self.input.iter().fold(0.0, |acc, &a| acc + a)],
            Kind::MapReduction => vec![self.input.iter().fold(0.0, |acc, &a| acc + self.chain(a))],
            Kind::Carried => {
                let mut x = 0.0;
                self.input
                    .iter()
                    .map(|&a| {
                        x = x * 0.5 + self.chain(a);
                        x
                    })
                    .collect()
            }
        }
    }

    fn out_len(&self) -> usize {
        match self.kind {
            Kind::Map | Kind::Carried => self.n,
            Kind::Reduction | Kind::MapReduction => 1,
        }
    }
}

/// A generated program: its loops run in order from `main`.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    pub loops: Vec<Loop>,
}

/// Shape parameters of a generated program.
#[derive(Clone, Copy)]
pub struct Shape {
    pub loops: usize,
    /// Trip counts lie in `min_n..max_n`.
    pub min_n: usize,
    pub max_n: usize,
    /// When set, the trip counts are a random split of this total, so
    /// every program of the shape does about the same work.
    pub total: Option<usize>,
}

impl Shape {
    fn trip_counts(&self, rng: &mut Rng) -> Vec<usize> {
        let Some(total) = self.total else {
            return (0..self.loops)
                .map(|_| rng.range(self.min_n, self.max_n))
                .collect();
        };
        let mut ns = vec![total / self.loops; self.loops];
        ns[0] += total % self.loops;
        assert!(
            ns.iter().all(|&n| (self.min_n..self.max_n).contains(&n)),
            "total {total} does not split into {} loops within {}..{}",
            self.loops,
            self.min_n,
            self.max_n
        );
        // Random transfers between loops keep the sum and the bounds.
        for _ in 0..8 * self.loops {
            let (i, j) = (rng.range(0, self.loops), rng.range(0, self.loops));
            let d = rng.range(1, (self.max_n - self.min_n) / 2 + 2);
            if i != j && ns[i] >= self.min_n + d && ns[j] + d < self.max_n {
                ns[i] -= d;
                ns[j] += d;
            }
        }
        ns
    }
}

impl Program {
    /// A random program: the kinds cycle through all four from a random
    /// start, so every program with four or more loops plants each.
    pub fn random(rng: &mut Rng, shape: Shape) -> Program {
        let start = rng.range(0, 4);
        let loops = shape
            .trip_counts(rng)
            .into_iter()
            .enumerate()
            .map(|(j, n)| Loop::random(rng, Kind::ALL[(start + j) % 4], n))
            .collect();
        Program { loops }
    }

    /// The trip counts, in loop order.
    pub fn trip_counts(&self) -> Vec<usize> {
        self.loops.iter().map(|l| l.n).collect()
    }

    /// The planted patterns, one per loop that plants one, by the
    /// finder's short kind name.
    pub fn planted(&self) -> Vec<&'static str> {
        self.loops.iter().filter_map(|l| l.kind.planted()).collect()
    }

    /// The minc translation unit.
    pub fn source(&self) -> String {
        let mut s = String::new();
        for (j, l) in self.loops.iter().enumerate() {
            s.push_str(&format!(
                "float a{j}[{}];\nfloat o{j}[{}];\n",
                l.n,
                l.out_len()
            ));
        }
        for (j, l) in self.loops.iter().enumerate() {
            let body = match l.kind {
                Kind::Map => format!(
                    "  for (i = 0; i < {}; i++) {{\n    o{j}[i] = {};\n  }}\n",
                    l.n,
                    l.chain_src(&format!("a{j}[i]"))
                ),
                Kind::Reduction => format!(
                    "  float acc = 0.0;\n  for (i = 0; i < {}; i++) {{\n    \
                     acc = acc + a{j}[i];\n  }}\n  o{j}[0] = acc;\n",
                    l.n
                ),
                Kind::MapReduction => format!(
                    "  float acc = 0.0;\n  for (i = 0; i < {}; i++) {{\n    \
                     acc = acc + {};\n  }}\n  o{j}[0] = acc;\n",
                    l.n,
                    l.chain_src(&format!("a{j}[i]"))
                ),
                Kind::Carried => format!(
                    "  float x = 0.0;\n  for (i = 0; i < {}; i++) {{\n    \
                     x = x * 0.5 + {};\n    o{j}[i] = x;\n  }}\n",
                    l.n,
                    l.chain_src(&format!("a{j}[i]"))
                ),
            };
            s.push_str(&format!("void loop{j}() {{\n  int i;\n{body}}}\n"));
        }
        s.push_str("void main() {\n");
        for j in 0..self.loops.len() {
            s.push_str(&format!("  loop{j}();\n"));
        }
        for j in 0..self.loops.len() {
            s.push_str(&format!("  output(o{j});\n"));
        }
        s.push_str("}\n");
        s
    }

    /// The float inputs, by array name.
    pub fn inputs(&self) -> Vec<(String, Vec<f64>)> {
        self.loops
            .iter()
            .enumerate()
            .map(|(j, l)| (format!("a{j}"), l.input.clone()))
            .collect()
    }

    /// The tracer's input configuration: the same arrays the daemon
    /// builds from a request's `inputs`.
    pub fn run_config(&self) -> trace::RunConfig {
        self.inputs()
            .iter()
            .fold(trace::RunConfig::default(), |cfg, (name, data)| {
                cfg.with_f64(name, data)
            })
    }

    /// Every output array (`o0`, `o1`, ...) as plain Rust computes it.
    pub fn eval(&self) -> Vec<(String, Vec<f64>)> {
        self.loops
            .iter()
            .enumerate()
            .map(|(j, l)| (format!("o{j}"), l.eval()))
            .collect()
    }

    /// Number of coefficient literals a constant edit can target.
    pub fn const_slots(&self) -> usize {
        self.loops.iter().filter(|l| l.kind.has_chain()).count() * CHAIN
    }

    /// Rewrites coefficient `slot` (mod [`Self::const_slots`]) to
    /// `value` (in `5000..10000`, so the literal keeps its length).
    pub fn const_edit(&self, slot: usize, value: u32) -> Program {
        assert!(
            (5000..10_000).contains(&value),
            "coefficient {value} out of range"
        );
        let mut p = self.clone();
        let slot = slot % self.const_slots();
        let l = p
            .loops
            .iter_mut()
            .filter(|l| l.kind.has_chain())
            .nth(slot / CHAIN)
            .expect("slot within the chained loops");
        l.coefs[slot % CHAIN] = value;
        p
    }

    /// Structural edit number `variant`. Variants
    /// `0..STRUCT_VARIANTS_PER_LOOP * chained loops` give chained loop
    /// `variant / per_loop` operator sequence number `variant % per_loop`
    /// (skipping the loop's own sequence); larger variants append a map
    /// loop whose operator sequence is the remainder. Distinct variants
    /// give distinct programs.
    pub fn struct_edit(&self, variant: usize) -> Program {
        let mut p = self.clone();
        let chained: Vec<usize> = (0..p.loops.len())
            .filter(|&j| p.loops[j].kind.has_chain())
            .collect();
        let per_loop = STRUCT_VARIANTS_PER_LOOP;
        if variant < per_loop * chained.len() {
            let l = &mut p.loops[chained[variant / per_loop]];
            let own = seq_number(&l.ops);
            let mut seq = variant % per_loop;
            if seq >= own {
                seq += 1;
            }
            l.ops = seq_ops(seq);
        } else {
            let seq = (variant - per_loop * chained.len()) % (per_loop + 1);
            let mut rng = Rng::new(variant as u64);
            let n = self.loops.last().map_or(16, |l| l.n);
            let mut added = Loop::random(&mut rng, Kind::Map, n);
            added.ops = seq_ops(seq);
            p.loops.push(added);
        }
        p
    }

    /// How many distinct structural edits [`Self::struct_edit`] offers.
    pub fn struct_variants(&self) -> usize {
        let chained = self.loops.iter().filter(|l| l.kind.has_chain()).count();
        STRUCT_VARIANTS_PER_LOOP * chained + STRUCT_VARIANTS_PER_LOOP + 1
    }
}

/// Operator sequences other than a loop's own.
const STRUCT_VARIANTS_PER_LOOP: usize = 3usize.pow(CHAIN as u32) - 1;

fn seq_number(ops: &[Op; CHAIN]) -> usize {
    ops.iter().fold(0, |acc, op| {
        acc * 3 + Op::ALL.iter().position(|o| o == op).expect("known op")
    })
}

fn seq_ops(mut seq: usize) -> [Op; CHAIN] {
    let mut ops = [Op::Add; CHAIN];
    for k in (0..CHAIN).rev() {
        ops[k] = Op::ALL[seq % 3];
        seq /= 3;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_sequences_round_trip() {
        for seq in 0..3usize.pow(CHAIN as u32) {
            assert_eq!(seq_number(&seq_ops(seq)), seq);
        }
    }

    #[test]
    fn struct_edits_are_distinct_and_differ_from_the_base() {
        let base = Program::random(
            &mut Rng::new(3),
            Shape {
                loops: 5,
                min_n: 8,
                max_n: 16,
                total: None,
            },
        );
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.source());
        for v in 0..base.struct_variants() {
            assert!(seen.insert(base.struct_edit(v).source()), "variant {v}");
        }
    }

    #[test]
    fn const_edits_keep_the_source_length() {
        let base = Program::random(
            &mut Rng::new(4),
            Shape {
                loops: 4,
                min_n: 8,
                max_n: 16,
                total: Some(40),
            },
        );
        assert_eq!(base.trip_counts().iter().sum::<usize>(), 40);
        let edited = base.const_edit(5, 5555);
        assert_ne!(edited.source(), base.source());
        assert_eq!(edited.source().len(), base.source().len());
    }
}
