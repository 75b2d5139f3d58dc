//! Parser crash-freedom: arbitrary byte strings and mutated-valid PTX
//! must always come back as `Ok` or a structured `ParseError` — the
//! parser must never panic, whatever the input.
//!
//! The mutator here is a tiny local copy of the `crat-sim` fault
//! plan's PTX mutations (this crate sits below `crat-sim` in the
//! dependency graph, so it cannot use the shared `FaultPlan`).

use proptest::prelude::*;

use crat_ptx::{parse, Address, BinOp, KernelBuilder, Space, Type};

/// A small valid kernel to mutate: loads, arithmetic, a store.
fn valid_ptx() -> String {
    let mut b = KernelBuilder::new("fuzz_seed");
    let src = b.param_ptr("src");
    let dst = b.param_ptr("dst");
    let tid = b.special_tid_x(Type::U32);
    let sa = b.wide_address(src, tid, 4);
    let v = b.ld(Space::Global, Type::U32, sa);
    let w = b.binary(BinOp::Add, Type::U32, v, tid);
    let x = b.ld(Space::Global, Type::U32, Address::reg_offset(src, 64));
    let y = b.binary(BinOp::Mul, Type::U32, w, x);
    let da = b.wide_address(dst, tid, 4);
    b.st(Space::Global, Type::U32, da, y);
    b.finish().to_ptx()
}

/// splitmix64 — deterministic per-case mutation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// One mutation round: truncate, drop a line, duplicate a line, swap
/// two characters, or replace a line's immediates with a huge value.
fn mutate(rng: &mut Rng, src: &str) -> String {
    match rng.below(5) {
        0 => {
            let mut cut = rng.below(src.len().max(1) as u64) as usize;
            while cut > 0 && !src.is_char_boundary(cut) {
                cut -= 1;
            }
            src[..cut].to_string()
        }
        1 | 2 => {
            let dup = rng.below(4) == 0;
            let lines: Vec<&str> = src.lines().collect();
            if lines.is_empty() {
                return String::new();
            }
            let target = rng.below(lines.len() as u64) as usize;
            let mut out = String::new();
            for (i, l) in lines.iter().enumerate() {
                if i != target || dup {
                    out.push_str(l);
                    out.push('\n');
                }
                if i == target && dup {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            out
        }
        3 => {
            let mut chars: Vec<char> = src.chars().collect();
            if chars.len() >= 2 {
                let a = rng.below(chars.len() as u64) as usize;
                let b = rng.below(chars.len() as u64) as usize;
                chars.swap(a, b);
            }
            chars.into_iter().collect()
        }
        _ => {
            let huge = format!("{}", rng.next());
            src.lines()
                .map(|l| {
                    let mut out = String::new();
                    let mut in_num = false;
                    for c in l.chars() {
                        if c.is_ascii_digit() {
                            if !in_num {
                                out.push_str(&huge);
                                in_num = true;
                            }
                        } else {
                            in_num = false;
                            out.push(c);
                        }
                    }
                    out.push('\n');
                    out
                })
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes (lossily decoded) never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        // The result itself is unconstrained (in practice always Err
        // for random bytes); returning at all is the property.
        let _ = parse(&text);
    }

    /// Mutated-valid PTX never panics the parser, and whatever parses
    /// is printable again.
    #[test]
    fn mutated_valid_ptx_never_panics(seed in any::<u64>(), rounds in 1usize..4) {
        let mut rng = Rng(seed);
        let mut text = valid_ptx();
        for _ in 0..rounds {
            text = mutate(&mut rng, &text);
        }
        if let Ok(kernel) = parse(&text) {
            let _ = kernel.to_ptx();
        }
    }
}

/// Regression corpus: inputs in the mutation families, pinned so the
/// suite stays deterministic regardless of the proptest seeds.
#[test]
fn regression_corpus_returns_structured_errors() {
    let seed = valid_ptx();
    let truncated_mid_token: String = seed.chars().take(seed.len() / 2).collect();
    let corpus: Vec<String> = vec![
        String::new(),
        "\u{fffd}\u{fffd}\u{fffd}".to_string(),
        ".entry".to_string(),
        ".entry fuzz (".to_string(),
        truncated_mid_token,
        // Out-of-range immediate and register index.
        ".entry k () {\n  mov.u32 %r99999999999999999999, 1;\n  ret;\n}\n".to_string(),
        ".entry k () {\n  mov.u32 %r0, 999999999999999999999999999;\n  ret;\n}\n".to_string(),
        // Unterminated body and stray closer.
        ".entry k () {\n  ret;".to_string(),
        "}\n}".to_string(),
        // A line of NULs inside an otherwise valid kernel.
        seed.replace("mov", "\0\0\0"),
    ];
    for (i, text) in corpus.iter().enumerate() {
        match parse(text) {
            Ok(_) => {}
            Err(e) => assert!(!e.to_string().is_empty(), "case {i}"),
        }
    }
}
