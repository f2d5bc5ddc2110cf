//! Source-level concurrency lint: the static half of tn-check.
//!
//! The model checker ([`crate::model`]) explores interleavings of code
//! that has been *ported onto the shims*; this pass patrols everything
//! else. It scans workspace `.rs` files line by line for concurrency
//! constructs that demand a written-down contract, and reports findings
//! through the same [`DiagnosticSink`] the network verifier uses:
//!
//! | code  | finding |
//! |-------|---------|
//! | TN020 | `Ordering::Relaxed` without a `// sync:` contract nearby |
//! | TN021 | atomic construction (`Atomic*::new`) without a `// sync:` contract nearby |
//! | TN022 | condvar `.wait(guard)` outside a predicate loop (lost/spurious wakeup hazard) |
//! | TN023 | `unsafe` without a `// SAFETY:` comment nearby |
//! | TN024 | detached thread spawn without a `// sync:` note naming its join/exit path |
//! | TN025 | raw `std::sync` primitive in a crate that routes through `tn-check` shims |
//!
//! The contract comments are the allowlist: a `// sync:` (or
//! `// SAFETY:`) within the lookback window silences the code at that
//! site, and the comment is then *there in the source* for the next
//! reader. A file can opt out of one code entirely with a pragma line
//! `tn-check: allow(TN0xx)` (used by the shim internals, which
//! implement the primitives these rules reason about).
//!
//! This is a line-level heuristic scanner, not a parser: it strips
//! `//` comments before matching, handles the workspace's idioms, and
//! prefers a small number of deliberate pragmas over AST fidelity —
//! the same trade the kernel's model-file linter makes.
//!
//! [`DiagnosticSink`]: tn_core::DiagnosticSink

// tn-check: allow(TN021, TN022, TN023) — the self-test fixture strings
// below spell the very patterns this scanner hunts.

use std::fs;
use std::path::{Path, PathBuf};
use tn_core::{Diagnostic, DiagnosticSink, Severity};

/// Lookback window (lines, inclusive of the flagged line) in which a
/// `// sync:` / `// SAFETY:` contract comment silences TN020/TN021/
/// TN023.
const CONTRACT_LOOKBACK: usize = 5;
/// Wider lookback for TN024 (spawn statements are often long builder
/// chains).
const SPAWN_LOOKBACK: usize = 8;
/// Wider still for TN022: the `while`/`loop` head may sit well above
/// the wait once the predicate arm carries asserts and comments. A
/// truly naked wait has no loop construct anywhere near it.
const WAIT_LOOKBACK: usize = 24;

// The patterns are spelled via concat! so this file does not match
// its own scanner when the workspace lints itself.
const SYNC_MARK: &str = concat!("// sy", "nc:");
const SAFETY_MARK: &str = concat!("// SAF", "ETY:");
const RELAXED_PAT: &str = concat!("Ordering::", "Relaxed");
const PRAGMA_PAT: &str = concat!("tn-check: ", "allow(");
const STD_SYNC_PREFIX: &str = concat!("std::sy", "nc::");
const SHIMMED_PRIMITIVES: [&str; 4] = ["Mutex", "Condvar", "Barrier", "atomic"];
const CFG_TN_CHECK_PAT: &str = concat!("cfg(", "tn_check)");

/// One scanned finding, before it is shaped into a [`Diagnostic`].
struct Finding {
    code: &'static str,
    line: usize, // 1-based
    message: String,
    help: &'static str,
}

/// Per-run totals, for the CLI summary line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LintSummary {
    pub files_scanned: usize,
    pub findings: usize,
}

/// Lint every `.rs` file under `root` (the workspace directory),
/// reporting findings into `sink`. Returns per-run totals.
pub fn lint_workspace(root: &Path, sink: &mut dyn DiagnosticSink) -> std::io::Result<LintSummary> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut summary = LintSummary::default();
    for file in &files {
        let text = fs::read_to_string(file)?;
        let rel = file.strip_prefix(root).unwrap_or(file);
        let shimmed = crate_has_shim_sync(root, rel);
        for f in scan_file(rel, &text, shimmed) {
            summary.findings += 1;
            sink.report(Diagnostic {
                code: f.code,
                severity: Severity::Warn,
                location: tn_core::lint::Location::Network,
                message: format!("{}:{}: {}", rel.display(), f.line, f.message),
                help: f.help.to_string(),
            });
        }
        summary.files_scanned += 1;
    }
    Ok(summary)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Does the crate owning `rel` route its primitives through a
/// tn-check-aliasing `src/sync.rs`? (The tn-check crate itself is the
/// shim implementation, so it is never "shimmed" for TN025 purposes.)
fn crate_has_shim_sync(root: &Path, rel: &Path) -> bool {
    let mut comps = rel.components();
    let (Some(a), Some(b)) = (comps.next(), comps.next()) else {
        return false;
    };
    if a.as_os_str() != "crates" || b.as_os_str() == "check" {
        return false;
    }
    let sync_rs = root.join("crates").join(b.as_os_str()).join("src/sync.rs");
    fs::read_to_string(sync_rs)
        .map(|t| t.contains(CFG_TN_CHECK_PAT))
        .unwrap_or(false)
}

/// The code part of a line: everything before a `//` comment. Naive
/// about `//` inside string literals, which the workspace avoids on
/// lines that also use concurrency primitives.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// `needle` on the flagged line or within `lookback` lines above it.
fn any_prior_contains(lines: &[&str], idx: usize, lookback: usize, needle: &str) -> bool {
    let start = idx.saturating_sub(lookback);
    lines[start..=idx].iter().any(|l| l.contains(needle))
}

/// `word` present in `code` with identifier boundaries on both sides.
fn has_word(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(i) = code[from..].find(word) {
        let at = from + i;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = after;
    }
    false
}

/// An `Atomic<Ty>::new(` construction anywhere in `code`.
fn has_atomic_new(code: &str) -> bool {
    let mut from = 0;
    while let Some(i) = code[from..].find("Atomic") {
        let at = from + i;
        let rest = &code[at + "Atomic".len()..];
        let ty_len = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .count();
        if ty_len > 0 && rest[ty_len..].starts_with("::new(") {
            return true;
        }
        from = at + "Atomic".len();
    }
    false
}

/// A condvar-style `.wait(guard)` call: `.wait(` with a non-empty
/// argument list. (`wait_timeout` / `wait_while` spell differently and
/// carry their own predicate semantics; a zero-arg `.wait()` is a
/// barrier, not a condvar.)
fn has_guarded_wait(code: &str) -> bool {
    let mut from = 0;
    while let Some(i) = code[from..].find(".wait(") {
        let after = from + i + ".wait(".len();
        if !code[after..].starts_with(')') {
            return true;
        }
        from = after;
    }
    false
}

/// A spawn in statement position or explicitly discarded — the two
/// shapes that detach a thread — unless the same statement joins it.
/// Bound spawns (`let h = ...`, `handles.push(...)`, scoped spawns) keep
/// a join path and are not flagged.
fn is_detached_spawn(lines: &[&str], idx: usize) -> bool {
    let trimmed = code_part(lines[idx]).trim_start();
    let discarded = trimmed.starts_with("let _ =") && trimmed.contains("spawn(");
    let statement_position = [
        "std::thread::spawn(",
        "thread::spawn(",
        "std::thread::Builder",
    ]
    .iter()
    .any(|p| trimmed.starts_with(p));
    (discarded || statement_position) && !joined_in_statement(lines, idx)
}

/// Whether the statement starting at `lines[idx]` calls `.join()` on its
/// own method chain (bracket depth 0) before it ends — the
/// `spawn(..).expect(..).join()` shape. A `.join()` inside the spawned
/// closure is deeper and does not count. String and char literals are
/// skipped, so a bracket, `;` or `.join()` quoted in the closure changes
/// nothing.
fn joined_in_statement(lines: &[&str], idx: usize) -> bool {
    let mut depth = 0i32;
    // Inside a string literal, which may span lines: the `#`s that close
    // it and whether it is raw (no escapes).
    let mut string: Option<(usize, bool)> = None;
    for raw in &lines[idx..] {
        let cs: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            let c = cs[i];
            i += 1;
            if let Some((hashes, is_raw)) = string {
                if c == '\\' && !is_raw {
                    i += 1;
                } else if c == '"' && cs[i..].iter().take_while(|&&h| h == '#').count() >= hashes {
                    i += hashes;
                    string = None;
                }
                continue;
            }
            match c {
                '/' if cs.get(i) == Some(&'/') => break,
                '"' => {
                    let hashes = cs[..i - 1].iter().rev().take_while(|&&h| h == '#').count();
                    let is_raw = i >= hashes + 2 && cs[i - 2 - hashes] == 'r';
                    string = Some((if is_raw { hashes } else { 0 }, is_raw));
                }
                // A char literal ('x', '\n', '\u{7d}'); a lifetime has no
                // closing quote.
                '\'' => {
                    let close = match cs.get(i) {
                        Some('\\') => cs
                            .iter()
                            .skip(i + 2)
                            .position(|&q| q == '\'')
                            .map(|p| i + 2 + p),
                        Some(_) if cs.get(i + 1) == Some(&'\'') => Some(i + 1),
                        _ => None,
                    };
                    if let Some(end) = close {
                        i = end + 1;
                    }
                }
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                ';' if depth == 0 => return false,
                '.' if depth == 0 && cs[i..].starts_with(&['j', 'o', 'i', 'n', '(', ')']) => {
                    return true
                }
                _ => {}
            }
        }
    }
    false
}

fn file_allows(text: &str, code: &str) -> bool {
    text.lines()
        .any(|l| l.contains(PRAGMA_PAT) && l.contains(code))
}

fn scan_file(rel: &Path, text: &str, crate_is_shimmed: bool) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().collect();
    let is_shim_module = rel.ends_with("src/sync.rs");
    let mut out = Vec::new();
    let allow = |code: &str| file_allows(text, code);

    for (idx, raw) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = code_part(raw);
        let trimmed = code.trim_start();

        if code.contains(RELAXED_PAT)
            && !allow("TN020")
            && !any_prior_contains(&lines, idx, CONTRACT_LOOKBACK, SYNC_MARK)
        {
            out.push(Finding {
                code: "TN020",
                line: line_no,
                message: format!(
                    "relaxed atomic ordering without a nearby contract: `{}`",
                    trimmed.trim_end()
                ),
                help: "state why Relaxed suffices in a `// sync:` comment within 5 lines, or strengthen the ordering",
            });
        }

        if has_atomic_new(code)
            && !allow("TN021")
            && !any_prior_contains(&lines, idx, CONTRACT_LOOKBACK, SYNC_MARK)
        {
            out.push(Finding {
                code: "TN021",
                line: line_no,
                message: format!(
                    "atomic constructed without a nearby contract: `{}`",
                    trimmed.trim_end()
                ),
                help: "document what the atomic synchronises (pairings, orderings) in a `// sync:` comment within 5 lines",
            });
        }

        if has_guarded_wait(code) && !allow("TN022") {
            let start = idx.saturating_sub(WAIT_LOOKBACK);
            let in_loop = lines[start..=idx].iter().any(|l| {
                let c = code_part(l);
                has_word(c, "while") || has_word(c, "loop")
            });
            if !in_loop {
                out.push(Finding {
                    code: "TN022",
                    line: line_no,
                    message: format!(
                        "condvar wait outside a predicate loop: `{}`",
                        trimmed.trim_end()
                    ),
                    help: "re-check the predicate in a `while` loop around the wait; condvar wakeups may be spurious or already consumed",
                });
            }
        }

        if has_word(code, "unsafe")
            && !allow("TN023")
            && !any_prior_contains(&lines, idx, CONTRACT_LOOKBACK, SAFETY_MARK)
        {
            out.push(Finding {
                code: "TN023",
                line: line_no,
                message: format!(
                    "`unsafe` without a nearby `// SAFETY:` comment: `{}`",
                    trimmed.trim_end()
                ),
                help: "write the proof obligation discharged by this unsafe in a `// SAFETY:` comment within 5 lines",
            });
        }

        if is_detached_spawn(&lines, idx)
            && !allow("TN024")
            && !any_prior_contains(&lines, idx, SPAWN_LOOKBACK, SYNC_MARK)
        {
            out.push(Finding {
                code: "TN024",
                line: line_no,
                message: format!("detached thread spawn: `{}`", trimmed.trim_end()),
                help: "bind and join the handle, or document the thread's exit path in a `// sync:` comment within 8 lines",
            });
        }

        if crate_is_shimmed && !is_shim_module && !allow("TN025") && code.contains(STD_SYNC_PREFIX)
        {
            if let Some(prim) = SHIMMED_PRIMITIVES.iter().find(|w| has_word(code, w)) {
                out.push(Finding {
                    code: "TN025",
                    line: line_no,
                    message: format!(
                        "raw `{STD_SYNC_PREFIX}{prim}` in a crate that routes concurrency through tn-check shims"
                    ),
                    help: "import the primitive from the crate's `sync` alias module so tn_check builds model-check it",
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<&'static str> {
        scan_file(Path::new("crates/demo/src/x.rs"), src, false)
            .into_iter()
            .map(|f| f.code)
            .collect()
    }

    #[test]
    fn relaxed_without_contract_is_tn020() {
        let hit = format!("let v = a.load({RELAXED_PAT});\n");
        assert_eq!(scan(&hit), vec!["TN020"]);
        let ok = format!("{SYNC_MARK} stats only\nlet v = a.load({RELAXED_PAT});\n");
        assert!(scan(&ok).is_empty());
    }

    #[test]
    fn atomic_new_without_contract_is_tn021() {
        assert_eq!(scan("let a = AtomicU64::new(0);\n"), vec!["TN021"]);
        let ok = format!("{SYNC_MARK} paired with worker ack\nlet a = AtomicBool::new(false);\n");
        assert!(scan(&ok).is_empty());
        assert!(scan("let x = Atomically_weird::new(0);\n").is_empty());
    }

    #[test]
    fn naked_wait_is_tn022_and_looped_wait_is_not() {
        assert_eq!(scan("let g = cv.wait(g).unwrap();\n"), vec!["TN022"]);
        assert!(scan("while !*g {\n    g = cv.wait(g).unwrap();\n}\n").is_empty());
        // zero-arg wait (a barrier) and wait_timeout are not condvar guards
        assert!(scan("b.wait();\nlet r = cv.wait_timeout(g, d);\n").is_empty());
    }

    #[test]
    fn unsafe_without_safety_is_tn023() {
        assert_eq!(scan("unsafe { *p = 1 }\n"), vec!["TN023"]);
        let ok = format!("{SAFETY_MARK} p is uniquely owned here\nunsafe {{ *p = 1 }}\n");
        assert!(scan(&ok).is_empty());
        assert!(scan("let unsafe_ish = 3;\n").is_empty());
    }

    #[test]
    fn detached_spawn_is_tn024_and_bound_spawn_is_not() {
        assert_eq!(
            scan("let _ = std::thread::spawn(|| work());\n"),
            vec!["TN024"]
        );
        assert_eq!(scan("std::thread::Builder::new()\n"), vec!["TN024"]);
        assert!(scan("let h = std::thread::spawn(|| work());\n").is_empty());
        assert!(scan("handles.push(thread::spawn(|| work()));\n").is_empty());
        let ok = format!(
            "{SYNC_MARK} exits when the channel closes\nlet _ = std::thread::spawn(run);\n"
        );
        assert!(scan(&ok).is_empty());
        let joined = "std::thread::Builder::new()\n    .name(\"probe\".into())\n    .spawn(|| {\n        work();\n    })\n    .expect(\"spawning\")\n    .join()\n    .expect(\"probe\");\n";
        assert!(scan(joined).is_empty(), "joined in the same statement");
        assert!(scan("thread::spawn(work).join().unwrap();\n").is_empty());
        let unjoined = "std::thread::Builder::new()\n    .spawn(move || h.join())\n    .expect(\"spawning\");\nlet j = x.join();\n";
        assert_eq!(
            scan(unjoined),
            vec!["TN024"],
            "a join inside the closure or after the statement does not count"
        );
        for quoted in [
            "thread::spawn(move || { f(\"})\").join() });\n",
            "thread::spawn(move || { f('}', ')').join() });\n",
            "thread::spawn(move || { f(r#\"\")}\"#).join() });\n",
            "thread::spawn(move || { f(\"\\\"})\").join() });\n",
            "thread::spawn(move || {\n    f(\"a\n}) b\").join()\n});\n",
        ] {
            assert_eq!(
                scan(quoted),
                vec!["TN024"],
                "brackets in a literal: {quoted}"
            );
        }
        let lifetime = "thread::spawn(move || -> &'static str { \"x\" }).join().unwrap();\n";
        assert!(
            scan(lifetime).is_empty(),
            "a lifetime is not a char literal"
        );
    }

    #[test]
    fn std_sync_bypass_is_tn025_only_in_shimmed_crates() {
        let src = format!("use std::sync::{}Mutex, Arc{};\n", '{', '}');
        let hits: Vec<_> = scan_file(Path::new("crates/demo/src/x.rs"), &src, true)
            .into_iter()
            .map(|f| f.code)
            .collect();
        assert_eq!(hits, vec!["TN025"]);
        assert!(
            scan(&src).is_empty(),
            "unshimmed crates may use std::sync directly"
        );
        let shim = scan_file(Path::new("crates/demo/src/sync.rs"), &src, true);
        assert!(shim.is_empty(), "the alias module itself is exempt");
    }

    #[test]
    fn pragma_disables_one_code_file_wide() {
        let src =
            format!("// {PRAGMA_PAT}TN020)\nlet v = a.load({RELAXED_PAT});\nunsafe {{ x() }}\n");
        assert_eq!(
            scan(&src),
            vec!["TN023"],
            "pragma must not silence other codes"
        );
    }

    #[test]
    fn comments_do_not_trigger_code_patterns() {
        let src = format!("// mentions {RELAXED_PAT} and {} here\n", "unsafe");
        assert!(scan(&src).is_empty());
    }
}
