//! Robustness: the lexer and the item parser are fed untrusted bytes
//! (every `.rs` file in the tree, including fixtures that are invalid
//! Rust on purpose) and must never panic — a lint that aborts on weird
//! input is a lint that gets disabled. The workspace IR build runs the
//! full pipeline: items, structs, fn bodies, ctx/panic/unit extraction,
//! then the call graph and the B1/W1 interprocedural passes on top
//! (the path hint is an `engine.rs` so the B1 and W1 root filters can
//! match).

use dasp_lint::{blocking, callgraph, deadlock, lexer, ordering, parser};
use proptest::prelude::*;

fn build(src: String) {
    let tokens = lexer::lex(&src);
    // Every token must round back into the source's line range.
    let max_line = src.lines().count() as u32 + 1;
    for t in &tokens {
        assert!(t.line <= max_line, "token line {} out of range", t.line);
    }
    let ws = parser::build_workspace(vec![("crates/app/src/engine.rs".to_string(), false, src)]);
    // Walk everything the analyzer would: no index may be out of range.
    for f in &ws.fns {
        for ctx in &f.ctxs {
            assert!(ctx.args_start <= ctx.args_end);
        }
    }
    let graph = callgraph::CallGraph::build(&ws);
    let locks = deadlock::LockFacts::collect(&ws);
    let _ = blocking::run_b1(&ws, &graph);
    let _ = ordering::run_w1(&ws, &locks);
    let _ = deadlock::run(&ws, &locks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, lossily decoded: binary garbage, truncated
    /// multi-byte sequences, NULs.
    #[test]
    fn lexer_parser_survive_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        build(String::from_utf8_lossy(&bytes).into_owned());
    }

    /// Rust-shaped punctuation soup: unbalanced braces, dangling
    /// generics, half-open comments and strings, stray `#` and `!`.
    /// Uppercase letters let the soup spell type names the B1/W1 root
    /// and seed filters match on (`ProviderEngine`, `Wal`, `WouldBlock`).
    #[test]
    fn lexer_parser_survive_token_soup(src in "[a-zA-Z0-9 {}();=.,:<>#!&*'\"/_\n-]{0,300}") {
        build(src);
    }

    /// Concurrency-shaped soup for C1/C2: the vocabulary spells spawns,
    /// lock/drop pairs, channel constructors and endpoint ops so the
    /// deadlock passes exercise their scope walks, endpoint propagation
    /// and cycle search on malformed topologies — and must neither
    /// panic nor hang.
    #[test]
    fn deadlock_passes_survive_spawn_lock_channel_soup(
        picks in proptest::collection::vec(0..37usize, 0..120)
    ) {
        const WORDS: [&str; 37] = [
            "fn", "pub", "impl", "struct", "let",
            "self", "move", "||", "std::thread::spawn",
            ".lock()", ".read()", ".write()", "drop",
            "bounded", "unbounded", "channel",
            ".send(1)", ".recv()", ".join()", ".clone()",
            "Mutex<u64>", "tx", "rx", "g", "h",
            "(", ")", "{", "}", ";", ",",
            "=", ".", ":", "&", "_", "\n",
        ];
        let src: String = picks.iter().flat_map(|&i| [WORDS[i], " "]).collect();
        build(src);
    }
}
